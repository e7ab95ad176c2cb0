//! Shared execution kernels: the pure, value-level pieces of SQL evaluation
//! used by *both* execution engines.
//!
//! The legacy tree-walking interpreter ([`crate::exec`]) and the planned
//! engine ([`crate::physical`]) must agree bit-for-bit on scalar semantics —
//! the interpreter serves as the differential-testing oracle for the planner
//! — so everything value-level lives here exactly once: literal conversion,
//! casts, binary operators, aggregate finalization, case-insensitive name
//! comparison, and the canonical hash keys used for grouping and joining.

use std::collections::{HashMap, HashSet};

use bp_sql::{BinaryOperator, Literal};

use crate::error::{StorageError, StorageResult};
use crate::physical::batch::{ColumnBuilder, ColumnVec, NullMask};
use crate::result::QueryResult;
use crate::table::Row;
use crate::value::{cmp_int_float, Value};

// ---------------------------------------------------------------------
// Case-insensitive identifier comparison (allocation-free)
// ---------------------------------------------------------------------

/// `stored == raw.to_ascii_uppercase()` without allocating. `stored` is a
/// name that was normalized to uppercase once at relation construction;
/// `raw` is identifier text straight from the AST.
pub(crate) fn eq_upper(stored: &str, raw: &str) -> bool {
    stored.len() == raw.len()
        && stored
            .bytes()
            .zip(raw.bytes())
            .all(|(s, r)| s == r.to_ascii_uppercase())
}

/// `candidate.to_ascii_uppercase() == target` without allocating. `target`
/// is already-normalized (uppercase for unquoted identifiers) text.
pub(crate) fn upper_eq(candidate: &str, target: &str) -> bool {
    candidate.len() == target.len()
        && candidate
            .bytes()
            .zip(target.bytes())
            .all(|(c, t)| c.to_ascii_uppercase() == t)
}

// ---------------------------------------------------------------------
// Function name canonicalization
// ---------------------------------------------------------------------

/// Canonical (uppercase, `'static`) spelling of a supported function name,
/// or `None` for unsupported functions. Resolving the name once per call
/// site (or once at compile time, for the planned engine) replaces the
/// per-evaluation `to_ascii_uppercase` allocation of the original
/// interpreter.
pub(crate) fn canonical_function_name(name: &str) -> Option<&'static str> {
    const NAMES: [&str; 15] = [
        "COUNT",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "UPPER",
        "LOWER",
        "LENGTH",
        "LEN",
        "ABS",
        "ROUND",
        "COALESCE",
        "NVL",
        "SUBSTR",
        "SUBSTRING",
    ];
    NAMES.iter().copied().find(|target| upper_eq(name, target))
}

/// Whether a canonical function name is one of the five aggregates.
pub(crate) fn is_aggregate_name(canonical: &str) -> bool {
    matches!(canonical, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

// ---------------------------------------------------------------------
// Literals, casts, binary operators
// ---------------------------------------------------------------------

/// Convert an AST literal to a runtime value.
pub(crate) fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Number(n) => {
            if let Ok(i) = n.parse::<i64>() {
                Value::Int(i)
            } else {
                n.parse::<f64>().map(Value::Float).unwrap_or(Value::Null)
            }
        }
        Literal::String(s) => Value::Text(s.clone()),
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

/// `CAST(v AS target)` semantics (never errors; unconvertible → NULL).
pub(crate) fn cast_value(v: Value, target: bp_sql::DataType) -> Value {
    use bp_sql::DataType as DT;
    match target {
        DT::Integer => match &v {
            Value::Text(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            _ => v.as_i64().map(Value::Int).unwrap_or(Value::Null),
        },
        DT::Float => match &v {
            Value::Text(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or(Value::Null),
            _ => v.as_f64().map(Value::Float).unwrap_or(Value::Null),
        },
        DT::Text => {
            if v.is_null() {
                Value::Null
            } else {
                Value::Text(v.to_string())
            }
        }
        DT::Boolean => {
            if v.is_null() {
                Value::Null
            } else {
                Value::Bool(v.is_truthy())
            }
        }
        DT::Date => v.as_i64().map(Value::Date).unwrap_or(Value::Null),
        DT::Timestamp => v.as_i64().map(Value::Timestamp).unwrap_or(Value::Null),
    }
}

/// SQL three-valued truth of a value: `None` for NULL (UNKNOWN), otherwise
/// its truthiness.
fn bool3(v: &Value) -> Option<bool> {
    if v.is_null() {
        None
    } else {
        Some(v.is_truthy())
    }
}

/// Evaluate a binary operator over two values. AND/OR follow SQL
/// three-valued logic (both sides are already evaluated by the caller, but
/// a FALSE/TRUE short-circuit value dominates UNKNOWN):
/// `NULL AND FALSE = FALSE`, `NULL OR TRUE = TRUE`, `TRUE AND NULL = NULL`.
pub(crate) fn eval_binary(left: &Value, op: BinaryOperator, right: &Value) -> StorageResult<Value> {
    use BinaryOperator::*;
    match op {
        And => {
            return Ok(match (bool3(left), bool3(right)) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        Or => {
            return Ok(match (bool3(left), bool3(right)) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    if left.is_null() || right.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let ord = left.total_cmp(right);
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Concat => Ok(Value::Text(format!("{left}{right}"))),
        Plus | Minus | Multiply | Modulo
            if matches!(left, Value::Int(_)) && matches!(right, Value::Int(_)) =>
        {
            // Exact integer arithmetic: no detour through f64 (which silently
            // rounds above 2^53). Overflow is an error, not a wrong answer.
            let (Value::Int(a), Value::Int(b)) = (left, right) else {
                unreachable!("guarded by the match arm");
            };
            if matches!(op, Modulo) && *b == 0 {
                return Err(StorageError::Arithmetic("division by zero".into()));
            }
            let result = match op {
                Plus => a.checked_add(*b),
                Minus => a.checked_sub(*b),
                Multiply => a.checked_mul(*b),
                Modulo => a.checked_rem(*b),
                _ => unreachable!(),
            };
            result.map(Value::Int).ok_or_else(|| {
                StorageError::Arithmetic(format!("integer overflow in {a} {} {b}", op.as_sql()))
            })
        }
        Plus | Minus | Multiply | Divide | Modulo => {
            let (a, b) = match (left.as_f64(), right.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(StorageError::TypeError(format!(
                        "cannot apply {} to {left} and {right}",
                        op.as_sql()
                    )))
                }
            };
            if matches!(op, Divide | Modulo) && b == 0.0 {
                return Err(StorageError::Arithmetic("division by zero".into()));
            }
            let result = match op {
                Plus => a + b,
                Minus => a - b,
                Multiply => a * b,
                Divide => a / b,
                Modulo => a % b,
                _ => unreachable!(),
            };
            Ok(Value::Float(result))
        }
        And | Or => unreachable!("handled above"),
    }
}

/// SQL unary minus. Integers negate exactly via `checked_neg` (the old path
/// routed through `f64` and truncated); `-i64::MIN` is an overflow error.
pub(crate) fn eval_unary_minus(v: &Value) -> StorageResult<Value> {
    match v {
        Value::Int(i) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| StorageError::Arithmetic(format!("integer overflow in -({i})"))),
        other => other
            .as_f64()
            .map(|f| Value::Float(-f))
            .ok_or_else(|| StorageError::TypeError(format!("cannot negate {other}"))),
    }
}

/// Apply a text transformation, passing NULL through and stringifying
/// non-text values.
pub(crate) fn map_text(v: Value, f: impl Fn(&str) -> String) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Text(s) => Value::Text(f(&s)),
        other => Value::Text(f(&other.to_string())),
    }
}

// ---------------------------------------------------------------------
// Aggregate finalization
// ---------------------------------------------------------------------

/// Finish an aggregate over the collected non-NULL argument values,
/// applying DISTINCT deduplication if requested. `name` must be canonical
/// (uppercase). `COUNT(*)` is handled by the callers (it counts rows, not
/// values).
pub(crate) fn finish_aggregate(
    name: &str,
    mut values: Vec<Value>,
    distinct: bool,
) -> StorageResult<Value> {
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(v.group_key()));
    }
    match name {
        "COUNT" => Ok(Value::Int(values.len() as i64)),
        "SUM" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            if all_int {
                // Exact i64 accumulation: an f64 sum silently rounds once the
                // running total passes 2^53.
                let mut sum: i64 = 0;
                for v in &values {
                    let Value::Int(i) = v else { unreachable!() };
                    sum = sum.checked_add(*i).ok_or_else(|| {
                        StorageError::Arithmetic("integer overflow in SUM".into())
                    })?;
                }
                Ok(Value::Int(sum))
            } else {
                let sum: f64 = values.iter().filter_map(|v| v.as_f64()).sum();
                Ok(Value::Float(sum))
            }
        }
        "AVG" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let sum: f64 = values.iter().filter_map(|v| v.as_f64()).sum();
            Ok(Value::Float(sum / values.len() as f64))
        }
        "MIN" => Ok(values
            .into_iter()
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        "MAX" => Ok(values
            .into_iter()
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        other => Err(StorageError::Unsupported(format!(
            "aggregate {other} is not supported"
        ))),
    }
}

/// Error helper for functions that require an argument at `index`.
pub(crate) fn missing_arg_error(name: &str, index: usize) -> StorageError {
    StorageError::TypeError(format!("{name} expects at least {} argument(s)", index + 1))
}

// ---------------------------------------------------------------------
// Row keys
// ---------------------------------------------------------------------

/// Append one part to a composite key as `"<len>:<part>"`, the encoding of
/// [`composite_key`].
fn push_len_prefixed(key: &mut String, part: &str) {
    use std::fmt::Write;
    let _ = write!(key, "{}:", part.len());
    key.push_str(part);
}

/// Canonical composite key of a row slice (grouping / DISTINCT / set ops).
/// Each part is length-prefixed, so the key is collision-free even when
/// text values contain any would-be separator byte.
pub(crate) fn composite_key(values: &[Value]) -> String {
    let mut key = String::new();
    for v in values {
        push_len_prefixed(&mut key, &v.group_key());
    }
    key
}

// ---------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------

/// Combine two results with UNION / INTERSECT / EXCEPT bag semantics,
/// shared verbatim by both engines.
pub(crate) fn combine_set_operation(
    op: bp_sql::SetOperator,
    all: bool,
    left: QueryResult,
    right: QueryResult,
) -> StorageResult<QueryResult> {
    use bp_sql::SetOperator;
    if left.column_count() != right.column_count() {
        return Err(StorageError::SchemaMismatch(format!(
            "set operation operands have {} and {} columns",
            left.column_count(),
            right.column_count()
        )));
    }
    let key = |row: &Row| -> String { composite_key(row) };
    let columns = left.columns.clone();
    let rows = match op {
        SetOperator::Union => {
            let mut rows = left.rows;
            rows.extend(right.rows);
            if !all {
                let mut seen = HashSet::new();
                rows.retain(|r| seen.insert(key(r)));
            }
            rows
        }
        SetOperator::Intersect => {
            let mut right_keys: HashMap<String, usize> = HashMap::new();
            for r in &right.rows {
                *right_keys.entry(key(r)).or_insert(0) += 1;
            }
            let mut rows = Vec::new();
            let mut emitted: HashMap<String, usize> = HashMap::new();
            for r in left.rows {
                let k = key(&r);
                let available = right_keys.get(&k).copied().unwrap_or(0);
                let used = emitted.entry(k).or_insert(0);
                let cap = if all { available } else { available.min(1) };
                if *used < cap {
                    *used += 1;
                    rows.push(r);
                }
            }
            rows
        }
        SetOperator::Except => {
            let mut right_keys: HashMap<String, usize> = HashMap::new();
            for r in &right.rows {
                *right_keys.entry(key(r)).or_insert(0) += 1;
            }
            let mut rows = Vec::new();
            let mut seen: HashMap<String, usize> = HashMap::new();
            for r in left.rows {
                let k = key(&r);
                let removed = right_keys.get(&k).copied().unwrap_or(0);
                if !all {
                    if removed == 0 && seen.insert(k, 1).is_none() {
                        rows.push(r);
                    }
                } else {
                    let count = seen.entry(k).or_insert(0);
                    *count += 1;
                    if *count > removed {
                        rows.push(r);
                    }
                }
            }
            rows
        }
    };
    Ok(QueryResult {
        columns,
        rows,
        ordered: false,
    })
}

// ---------------------------------------------------------------------
// Vectorized kernels (columnar engine)
// ---------------------------------------------------------------------
//
// Each kernel evaluates one operator over whole columns and must agree
// cell-for-cell with the scalar functions above: the fast paths below cover
// the hot type combinations with tight loops, and *every* other combination
// falls through to a per-element loop over [`eval_binary`] itself, so the
// kernels' *values* cannot drift from the per-row evaluators. Kernels stop
// at the first erroring element in row order; because batch boundaries are
// fixed (never derived from the thread budget), the reported error is
// identical at every thread count. Error *identity* may still differ from
// the legacy interpreter when several operands can fail (operand-major vs
// row-major evaluation) — see the documented divergence in
// `crate::physical::columnar`.

/// Three-valued truth of each cell: the truth vector plus a NULL (UNKNOWN)
/// mask. Matches [`Value::is_truthy`] / `bool3` exactly: note dates and
/// timestamps are always truthy, including 0.
pub(crate) fn truth3_col(col: &ColumnVec) -> (Vec<bool>, NullMask) {
    let n = col.len();
    match col {
        ColumnVec::Bool(v, m) => (v.clone(), m.clone()),
        ColumnVec::Int64(v, m) => (v.iter().map(|x| *x != 0).collect(), m.clone()),
        ColumnVec::Float64(v, m) => (v.iter().map(|x| *x != 0.0).collect(), m.clone()),
        ColumnVec::Text(v, m) => (v.iter().map(|s| !s.is_empty()).collect(), m.clone()),
        ColumnVec::Date(_, m) | ColumnVec::Timestamp(_, m) => (vec![true; n], m.clone()),
        ColumnVec::Any(values) => {
            let mut truth = Vec::with_capacity(n);
            let mut mask = NullMask::new(n);
            for (i, v) in values.iter().enumerate() {
                if v.is_null() {
                    mask.set(i);
                    truth.push(false);
                } else {
                    truth.push(v.is_truthy());
                }
            }
            (truth, mask)
        }
    }
}

/// Exact-or-float comparison of two `f64`s with [`Value::total_cmp`]'s
/// rules (exactly-integral floats compare as `i64`, NaN compares Equal).
#[inline]
fn cmp_f64_f64(a: f64, b: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (Value::Float(a).exact_int(), Value::Float(b).exact_int()) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(x), None) => cmp_int_float(x, b),
        (None, Some(y)) => cmp_int_float(y, a).reverse(),
        (None, None) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

/// Exact `i64` vs `f64` comparison with [`Value::total_cmp`]'s rules.
#[inline]
fn cmp_i64_f64(a: i64, b: f64) -> std::cmp::Ordering {
    match Value::Float(b).exact_int() {
        Some(y) => a.cmp(&y),
        None => cmp_int_float(a, b),
    }
}

/// Turn an ordering into the boolean a comparison operator yields.
#[inline]
fn cmp_outcome(op: BinaryOperator, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinaryOperator::Eq => ord == Equal,
        BinaryOperator::NotEq => ord != Equal,
        BinaryOperator::Lt => ord == Less,
        BinaryOperator::LtEq => ord != Greater,
        BinaryOperator::Gt => ord == Greater,
        BinaryOperator::GtEq => ord != Less,
        _ => unreachable!("comparison kernels only"),
    }
}

/// The `i64` payload of exactly-integer-valued columns (Int/Date/Timestamp
/// — every stored value is an exact integer).
fn i64_view(col: &ColumnVec) -> Option<(&[i64], &NullMask)> {
    match col {
        ColumnVec::Int64(v, m) | ColumnVec::Date(v, m) | ColumnVec::Timestamp(v, m) => Some((v, m)),
        _ => None,
    }
}

/// Evaluate a binary operator over two equal-length columns. Fast paths:
/// integer/float/text comparisons, three-valued AND/OR, checked `i64`
/// arithmetic, and float arithmetic; everything else loops over
/// [`eval_binary`] per element.
pub(crate) fn eval_binary_cols(
    left: &ColumnVec,
    op: BinaryOperator,
    right: &ColumnVec,
) -> StorageResult<ColumnVec> {
    use BinaryOperator::*;
    let n = left.len();
    debug_assert_eq!(n, right.len());

    // Three-valued AND/OR over truth vectors.
    if matches!(op, And | Or) {
        let (lt, lm) = truth3_col(left);
        let (rt, rm) = truth3_col(right);
        let mut vals = Vec::with_capacity(n);
        let mut mask = NullMask::new(n);
        for i in 0..n {
            let l = if lm.get(i) { None } else { Some(lt[i]) };
            let r = if rm.get(i) { None } else { Some(rt[i]) };
            let out = match op {
                And => match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                Or => match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
                _ => unreachable!(),
            };
            match out {
                Some(b) => vals.push(b),
                None => {
                    vals.push(false);
                    mask.set(i);
                }
            }
        }
        return Ok(ColumnVec::Bool(vals, mask));
    }

    // Comparisons: exact integer / float / text fast paths.
    if matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
        let emit = |ords: &mut dyn FnMut(usize) -> Option<std::cmp::Ordering>| {
            let mut vals = Vec::with_capacity(n);
            let mut mask = NullMask::new(n);
            for i in 0..n {
                match ords(i) {
                    Some(ord) => vals.push(cmp_outcome(op, ord)),
                    None => {
                        vals.push(false);
                        mask.set(i);
                    }
                }
            }
            ColumnVec::Bool(vals, mask)
        };
        match (i64_view(left), i64_view(right), left, right) {
            (Some((a, am)), Some((b, bm)), _, _) => {
                return Ok(emit(&mut |i| {
                    (!am.get(i) && !bm.get(i)).then(|| a[i].cmp(&b[i]))
                }));
            }
            (Some((a, am)), None, _, ColumnVec::Float64(b, bm)) => {
                return Ok(emit(&mut |i| {
                    (!am.get(i) && !bm.get(i)).then(|| cmp_i64_f64(a[i], b[i]))
                }));
            }
            (None, Some((b, bm)), ColumnVec::Float64(a, am), _) => {
                return Ok(emit(&mut |i| {
                    (!am.get(i) && !bm.get(i)).then(|| cmp_i64_f64(b[i], a[i]).reverse())
                }));
            }
            (_, _, ColumnVec::Float64(a, am), ColumnVec::Float64(b, bm)) => {
                return Ok(emit(&mut |i| {
                    (!am.get(i) && !bm.get(i)).then(|| cmp_f64_f64(a[i], b[i]))
                }));
            }
            (_, _, ColumnVec::Text(a, am), ColumnVec::Text(b, bm)) => {
                return Ok(emit(&mut |i| {
                    (!am.get(i) && !bm.get(i)).then(|| a[i].cmp(&b[i]))
                }));
            }
            _ => {} // mixed-family / Bool / Any: per-element fallback below
        }
    }

    // Exact integer arithmetic (the Int/Int fast path of `eval_binary`;
    // Divide stays on the float path there, so it stays there here too).
    if matches!(op, Plus | Minus | Multiply | Modulo) {
        if let (ColumnVec::Int64(a, am), ColumnVec::Int64(b, bm)) = (left, right) {
            let mut vals = Vec::with_capacity(n);
            let mut mask = NullMask::new(n);
            for i in 0..n {
                if am.get(i) || bm.get(i) {
                    vals.push(0);
                    mask.set(i);
                    continue;
                }
                let (x, y) = (a[i], b[i]);
                let out = if matches!(op, Modulo) && y == 0 {
                    None
                } else {
                    match op {
                        Plus => x.checked_add(y),
                        Minus => x.checked_sub(y),
                        Multiply => x.checked_mul(y),
                        Modulo => x.checked_rem(y),
                        _ => unreachable!(),
                    }
                };
                match out {
                    Some(v) => vals.push(v),
                    None => {
                        // Delegate to the scalar kernel so the error text is
                        // identical to the per-row evaluators'.
                        eval_binary(&Value::Int(x), op, &Value::Int(y))?;
                        unreachable!("scalar kernel errors on the same inputs");
                    }
                }
            }
            return Ok(ColumnVec::Int64(vals, mask));
        }
    }

    // Float arithmetic over purely numeric columns (mixed Int/Float and
    // Divide land here, exactly like `eval_binary`'s float path).
    if matches!(op, Plus | Minus | Multiply | Divide | Modulo) {
        let numeric_f64 = |col: &ColumnVec, i: usize| -> Option<f64> {
            match col {
                ColumnVec::Int64(v, _) | ColumnVec::Date(v, _) | ColumnVec::Timestamp(v, _) => {
                    Some(v[i] as f64)
                }
                ColumnVec::Float64(v, _) => Some(v[i]),
                _ => None,
            }
        };
        let both_numeric = matches!(
            left,
            ColumnVec::Int64(..)
                | ColumnVec::Float64(..)
                | ColumnVec::Date(..)
                | ColumnVec::Timestamp(..)
        ) && matches!(
            right,
            ColumnVec::Int64(..)
                | ColumnVec::Float64(..)
                | ColumnVec::Date(..)
                | ColumnVec::Timestamp(..)
        );
        if both_numeric {
            let mut vals = Vec::with_capacity(n);
            let mut mask = NullMask::new(n);
            for i in 0..n {
                if left.is_null(i) || right.is_null(i) {
                    vals.push(0.0);
                    mask.set(i);
                    continue;
                }
                // `both_numeric` above makes this unreachable; surface a
                // TypeError rather than panicking the worker if a new
                // ColumnVec variant ever slips past the guard.
                let (Some(a), Some(b)) = (numeric_f64(left, i), numeric_f64(right, i)) else {
                    return Err(StorageError::TypeError(
                        "non-numeric column in numeric kernel".into(),
                    ));
                };
                if matches!(op, Divide | Modulo) && b == 0.0 {
                    return Err(StorageError::Arithmetic("division by zero".into()));
                }
                vals.push(match op {
                    Plus => a + b,
                    Minus => a - b,
                    Multiply => a * b,
                    Divide => a / b,
                    Modulo => a % b,
                    _ => unreachable!(),
                });
            }
            return Ok(ColumnVec::Float64(vals, mask));
        }
    }

    // Universal fallback: the scalar kernel per element. Covers Concat,
    // Bool/Any operands, mixed-family comparisons, and type errors, so the
    // kernels can never disagree with the per-row evaluators.
    let mut out = ColumnBuilder::with_capacity(n);
    for i in 0..n {
        out.push(eval_binary(&left.value(i), op, &right.value(i))?);
    }
    Ok(out.finish())
}

/// Vectorized SQL unary minus with [`eval_unary_minus`]'s exact semantics.
pub(crate) fn eval_neg_col(col: &ColumnVec) -> StorageResult<ColumnVec> {
    let n = col.len();
    match col {
        ColumnVec::Int64(v, m) => {
            let mut vals = Vec::with_capacity(n);
            for (i, x) in v.iter().enumerate() {
                if m.get(i) {
                    // NULL negates to NULL on the row path (as_f64 → None →
                    // TypeError? No: eval_unary_minus on Null errors). Match:
                    eval_unary_minus(&Value::Null)?;
                    unreachable!("scalar kernel errors on NULL");
                }
                match x.checked_neg() {
                    Some(y) => vals.push(y),
                    None => {
                        eval_unary_minus(&Value::Int(*x))?;
                        unreachable!("scalar kernel errors on overflow");
                    }
                }
            }
            Ok(ColumnVec::Int64(vals, m.clone()))
        }
        other => {
            let mut out = ColumnBuilder::with_capacity(n);
            for i in 0..n {
                out.push(eval_unary_minus(&other.value(i))?);
            }
            Ok(out.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_upper_matches_uppercase_comparison() {
        assert!(eq_upper("NAME", "name"));
        assert!(eq_upper("NAME", "NaMe"));
        assert!(!eq_upper("NAME", "names"));
        assert!(!eq_upper("name", "name")); // stored side must already be uppercase
        assert!(eq_upper("A_1", "a_1"));
    }

    #[test]
    fn upper_eq_matches_normalized_target() {
        assert!(upper_eq("name", "NAME"));
        assert!(upper_eq("NAME", "NAME"));
        assert!(!upper_eq("name", "name")); // target side must already be normalized
    }

    #[test]
    fn canonical_names_cover_aliases() {
        assert_eq!(canonical_function_name("count"), Some("COUNT"));
        assert_eq!(canonical_function_name("Substring"), Some("SUBSTRING"));
        assert_eq!(canonical_function_name("len"), Some("LEN"));
        assert_eq!(canonical_function_name("median"), None);
        assert!(is_aggregate_name("SUM"));
        assert!(!is_aggregate_name("UPPER"));
    }

    #[test]
    fn and_or_follow_three_valued_logic() {
        use bp_sql::BinaryOperator::{And, Or};
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        let n = Value::Null;
        // Full AND truth table.
        assert_eq!(eval_binary(&t, And, &t).unwrap(), Value::Bool(true));
        assert_eq!(eval_binary(&t, And, &f).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(&f, And, &t).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(&f, And, &f).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(&t, And, &n).unwrap(), Value::Null);
        assert_eq!(eval_binary(&n, And, &t).unwrap(), Value::Null);
        assert_eq!(eval_binary(&f, And, &n).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(&n, And, &f).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(&n, And, &n).unwrap(), Value::Null);
        // Full OR truth table.
        assert_eq!(eval_binary(&t, Or, &t).unwrap(), Value::Bool(true));
        assert_eq!(eval_binary(&t, Or, &f).unwrap(), Value::Bool(true));
        assert_eq!(eval_binary(&f, Or, &t).unwrap(), Value::Bool(true));
        assert_eq!(eval_binary(&f, Or, &f).unwrap(), Value::Bool(false));
        assert_eq!(eval_binary(&t, Or, &n).unwrap(), Value::Bool(true));
        assert_eq!(eval_binary(&n, Or, &t).unwrap(), Value::Bool(true));
        assert_eq!(eval_binary(&f, Or, &n).unwrap(), Value::Null);
        assert_eq!(eval_binary(&n, Or, &f).unwrap(), Value::Null);
        assert_eq!(eval_binary(&n, Or, &n).unwrap(), Value::Null);
        // Non-boolean operands coerce through truthiness.
        assert_eq!(eval_binary(&Value::Int(1), And, &n).unwrap(), Value::Null);
        assert_eq!(
            eval_binary(&Value::Int(0), And, &n).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn integer_arithmetic_is_exact() {
        use bp_sql::BinaryOperator::{Divide, Minus, Modulo, Multiply, Plus};
        let big = Value::Int((1i64 << 53) + 1);
        // (2^53 + 1) + 1 through f64 would round; exact i64 must not.
        assert_eq!(
            eval_binary(&big, Plus, &Value::Int(1)).unwrap(),
            Value::Int((1i64 << 53) + 2)
        );
        assert_eq!(
            eval_binary(&Value::Int(i64::MAX), Minus, &Value::Int(1)).unwrap(),
            Value::Int(i64::MAX - 1)
        );
        assert_eq!(
            eval_binary(&Value::Int(-7), Modulo, &Value::Int(3)).unwrap(),
            Value::Int(-1)
        );
        // Overflow is an error, not a rounded f64 answer.
        assert!(matches!(
            eval_binary(&Value::Int(i64::MAX), Plus, &Value::Int(1)),
            Err(StorageError::Arithmetic(_))
        ));
        assert!(matches!(
            eval_binary(&Value::Int(i64::MIN), Multiply, &Value::Int(-1)),
            Err(StorageError::Arithmetic(_))
        ));
        assert!(matches!(
            eval_binary(&Value::Int(1), Modulo, &Value::Int(0)),
            Err(StorageError::Arithmetic(_))
        ));
        // Integer division still yields the float quotient.
        assert_eq!(
            eval_binary(&Value::Int(10), Divide, &Value::Int(4)).unwrap(),
            Value::Float(2.5)
        );
        // Mixed Int/Float arithmetic stays on the float path.
        assert_eq!(
            eval_binary(&Value::Int(2), Plus, &Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn unary_minus_is_exact() {
        assert_eq!(
            eval_unary_minus(&Value::Int((1i64 << 53) + 1)).unwrap(),
            Value::Int(-((1i64 << 53) + 1))
        );
        assert!(matches!(
            eval_unary_minus(&Value::Int(i64::MIN)),
            Err(StorageError::Arithmetic(_))
        ));
        assert_eq!(
            eval_unary_minus(&Value::Float(2.5)).unwrap(),
            Value::Float(-2.5)
        );
        assert!(eval_unary_minus(&Value::Text("x".into())).is_err());
    }

    #[test]
    fn sum_of_large_integers_is_exact() {
        let vals = vec![Value::Int(1i64 << 53), Value::Int(1), Value::Int(1)];
        assert_eq!(
            finish_aggregate("SUM", vals, false).unwrap(),
            Value::Int((1i64 << 53) + 2)
        );
        assert!(matches!(
            finish_aggregate("SUM", vec![Value::Int(i64::MAX), Value::Int(1)], false),
            Err(StorageError::Arithmetic(_))
        ));
    }

    #[test]
    fn large_integer_keys_do_not_collide() {
        let a = Value::Int(1i64 << 53);
        let b = Value::Int((1i64 << 53) + 1);
        assert_ne!(a.group_key(), b.group_key());
        assert_ne!(
            Value::Int(i64::MAX).group_key(),
            Value::Int(i64::MAX - 1).group_key()
        );
        // Int↔Float cross-type equality still holds where both are exact.
        assert_eq!(
            Value::Int(1i64 << 53).group_key(),
            Value::Float((1i64 << 53) as f64).group_key()
        );
        assert_eq!(Value::Date(7).group_key(), Value::Int(7).group_key());
        assert_eq!(Value::Timestamp(9).group_key(), Value::Int(9).group_key());
    }

    #[test]
    fn composite_key_is_collision_free_with_separator_text() {
        // Without length prefixes, ("a\u{1}b") and ("a", "b") collide.
        let joined = composite_key(&[Value::Text("a\u{1}b".into())]);
        let split = composite_key(&[Value::Text("a".into()), Value::Text("b".into())]);
        assert_ne!(joined, split);
        // Prefix/suffix shuffles around the separator must stay distinct.
        let left = composite_key(&[Value::Text("a\u{1}".into()), Value::Text("b".into())]);
        let right = composite_key(&[Value::Text("a".into()), Value::Text("\u{1}b".into())]);
        assert_ne!(left, right);
        // Digit-bearing text cannot collide with the length prefix itself.
        let num_text = composite_key(&[Value::Text("3:t:x".into())]);
        let plain = composite_key(&[Value::Text("x".into())]);
        assert_ne!(num_text, plain);
        // Same values produce the same key.
        assert_eq!(
            composite_key(&[Value::Int(1), Value::Text("a".into())]),
            composite_key(&[Value::Float(1.0), Value::Text("a".into())])
        );
    }

    #[test]
    fn finish_aggregate_matches_sql_semantics() {
        let vals = vec![Value::Int(1), Value::Int(1), Value::Int(2)];
        assert_eq!(
            finish_aggregate("COUNT", vals.clone(), false).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            finish_aggregate("COUNT", vals.clone(), true).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            finish_aggregate("SUM", vals.clone(), false).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            finish_aggregate("AVG", vals, false).unwrap(),
            Value::Float(4.0 / 3.0)
        );
        assert_eq!(finish_aggregate("MIN", vec![], false).unwrap(), Value::Null);
        assert!(finish_aggregate("MEDIAN", vec![], false).is_err());
    }
}
