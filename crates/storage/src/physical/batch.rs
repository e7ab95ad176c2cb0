//! Typed columnar batches — the data representation of the columnar engine.
//!
//! A [`Batch`] holds a morsel of rows decoded into typed column vectors
//! ([`ColumnVec`]): `i64`/`f64`/`bool`/`String` payload vectors plus a
//! [`NullMask`] bitmap, with a heterogeneous [`ColumnVec::Any`] fallback for
//! columns that mix value families (CTE outputs, CASE results, per-row
//! fallback evaluation). Filters never copy data: they refine the batch's
//! **selection vector** (the ascending list of live physical row indices)
//! and leave the columns untouched. Operators that materialize (Project,
//! joins) produce dense batches with no selection.
//!
//! The module also provides the **column-slice keys** used by the columnar
//! hash join and hash aggregate: [`KeyPart`] is the allocation-free
//! canonical form of one cell — its equality and hash coincide exactly with
//! [`Value::group_key`] string equality (integers, dates, timestamps and
//! booleans fold to exact `i64`, integral floats fold with them, `-0.0`
//! folds into `0`, NaNs are canonicalized) — so grouping and joining on
//! column slices is byte-compatible with the interpreter's string keys
//! without allocating a `String` per row.

use crate::sync::Arc;
use std::hash::{DefaultHasher, Hash, Hasher};

use crate::table::Row;
use crate::value::Value;

/// Physical rows per batch. Fixed (never derived from the thread budget) so
/// batch boundaries — and therefore evaluation order and error identity —
/// are identical at every thread count.
pub(crate) const BATCH_ROWS: usize = 1024;

// ---------------------------------------------------------------------
// Null bitmap
// ---------------------------------------------------------------------

/// A bitmap of NULL positions (bit set = NULL), one bit per row.
#[derive(Debug, Clone, Default)]
pub(crate) struct NullMask {
    bits: Vec<u64>,
    len: usize,
}

impl NullMask {
    /// An all-valid mask for `len` rows.
    pub(crate) fn new(len: usize) -> Self {
        NullMask {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Mark row `i` NULL.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Append one row to the mask.
    #[inline]
    pub(crate) fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        if null {
            self.bits[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }
}

// ---------------------------------------------------------------------
// Column vectors
// ---------------------------------------------------------------------

/// One column of a [`Batch`]: a typed payload vector plus a null bitmap,
/// or the heterogeneous `Any` fallback.
#[derive(Debug, Clone)]
pub(crate) enum ColumnVec {
    /// 64-bit integers.
    Int64(Vec<i64>, NullMask),
    /// 64-bit floats.
    Float64(Vec<f64>, NullMask),
    /// Booleans.
    Bool(Vec<bool>, NullMask),
    /// Text values.
    Text(Vec<String>, NullMask),
    /// Dates (days since epoch).
    Date(Vec<i64>, NullMask),
    /// Timestamps (seconds since epoch).
    Timestamp(Vec<i64>, NullMask),
    /// Mixed-family fallback: boxed values, NULLs inline.
    Any(Vec<Value>),
}

impl ColumnVec {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnVec::Int64(v, _) | ColumnVec::Date(v, _) | ColumnVec::Timestamp(v, _) => v.len(),
            ColumnVec::Float64(v, _) => v.len(),
            ColumnVec::Bool(v, _) => v.len(),
            ColumnVec::Text(v, _) => v.len(),
            ColumnVec::Any(v) => v.len(),
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub(crate) fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int64(_, m)
            | ColumnVec::Float64(_, m)
            | ColumnVec::Bool(_, m)
            | ColumnVec::Text(_, m)
            | ColumnVec::Date(_, m)
            | ColumnVec::Timestamp(_, m) => m.get(i),
            ColumnVec::Any(v) => v[i].is_null(),
        }
    }

    /// Materialize row `i` as a boxed [`Value`] (clones text).
    pub(crate) fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int64(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            ColumnVec::Float64(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Float(v[i])
                }
            }
            ColumnVec::Bool(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Bool(v[i])
                }
            }
            ColumnVec::Text(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Text(v[i].clone())
                }
            }
            ColumnVec::Date(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Date(v[i])
                }
            }
            ColumnVec::Timestamp(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Timestamp(v[i])
                }
            }
            ColumnVec::Any(v) => v[i].clone(),
        }
    }

    /// The canonical key form of row `i`, allocation-free.
    #[inline]
    pub(crate) fn key_part(&self, i: usize) -> KeyPart<'_> {
        match self {
            ColumnVec::Int64(v, m) | ColumnVec::Date(v, m) | ColumnVec::Timestamp(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::Int(v[i])
                }
            }
            ColumnVec::Float64(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::from_f64(v[i])
                }
            }
            ColumnVec::Bool(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::Int(v[i] as i64)
                }
            }
            ColumnVec::Text(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::Text(&v[i])
                }
            }
            ColumnVec::Any(v) => KeyPart::from_value(&v[i]),
        }
    }

    /// A column of `n` copies of `value` (literal broadcast). Text
    /// literals clone per row — the same cost a per-row `Literal.eval`
    /// pays — until kernels grow a constant-column operand form.
    pub(crate) fn broadcast(value: &Value, n: usize) -> ColumnVec {
        let mut b = ColumnBuilder::with_capacity(n);
        for _ in 0..n {
            b.push_ref(value);
        }
        b.finish()
    }

    /// Decode a column from borrowed values.
    pub(crate) fn from_values<'a>(values: impl ExactSizeIterator<Item = &'a Value>) -> ColumnVec {
        let mut b = ColumnBuilder::with_capacity(values.len());
        for v in values {
            b.push_ref(v);
        }
        b.finish()
    }

    /// Decode one column of a row slice (projection-pruned scans decode
    /// column-by-column instead of whole batches).
    pub(crate) fn from_rows_column(rows: &[Row], col: usize) -> ColumnVec {
        ColumnVec::from_values(rows.iter().map(move |r| r.get(col).unwrap_or(&Value::Null)))
    }

    /// Gather rows at `idx` into a new dense column of the same type.
    pub(crate) fn gather(&self, idx: &[u32]) -> ColumnVec {
        fn pick<T: Clone + Default>(v: &[T], m: &NullMask, idx: &[u32]) -> (Vec<T>, NullMask) {
            let mut out = Vec::with_capacity(idx.len());
            let mut mask = NullMask::new(idx.len());
            for (j, &i) in idx.iter().enumerate() {
                let i = i as usize;
                if m.get(i) {
                    mask.set(j);
                    out.push(T::default());
                } else {
                    out.push(v[i].clone());
                }
            }
            (out, mask)
        }
        match self {
            ColumnVec::Int64(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Int64(o, mk)
            }
            ColumnVec::Float64(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Float64(o, mk)
            }
            ColumnVec::Bool(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Bool(o, mk)
            }
            ColumnVec::Text(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Text(o, mk)
            }
            ColumnVec::Date(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Date(o, mk)
            }
            ColumnVec::Timestamp(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Timestamp(o, mk)
            }
            ColumnVec::Any(v) => {
                ColumnVec::Any(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// Gather rows at `idx`, where [`PAD_NULL`] entries become NULL rows
    /// (outer-join padding).
    pub(crate) fn gather_padded(&self, idx: &[u32]) -> ColumnVec {
        if !idx.contains(&PAD_NULL) {
            return self.gather(idx);
        }
        let mut b = ColumnBuilder::with_capacity(idx.len());
        for &i in idx {
            if i == PAD_NULL {
                b.push(Value::Null);
            } else {
                b.push(self.value(i as usize));
            }
        }
        b.finish()
    }
}

/// Sentinel gather index meaning "a NULL cell" (outer-join padding). Batches
/// are bounded by [`BATCH_ROWS`] and table sizes stay far below 2^32 rows.
pub(crate) const PAD_NULL: u32 = u32::MAX;

/// Concatenate dense columns of one variant into one column, or `None`
/// when the parts mix variants (the caller falls back to a value-level
/// rebuild). Payload vectors extend directly — no per-cell boxing.
pub(crate) fn concat_dense(parts: &[&ColumnVec]) -> Option<ColumnVec> {
    fn stitch<T: Clone>(
        parts: &[&ColumnVec],
        pick: impl Fn(&ColumnVec) -> Option<(&[T], &NullMask)>,
        build: impl FnOnce(Vec<T>, NullMask) -> ColumnVec,
    ) -> Option<ColumnVec> {
        let mut vals: Vec<T> = Vec::new();
        let mut mask = NullMask::default();
        for part in parts {
            let (v, m) = pick(part)?;
            vals.extend_from_slice(v);
            for i in 0..v.len() {
                mask.push(m.get(i));
            }
        }
        Some(build(vals, mask))
    }
    let first = parts.first()?;
    match first {
        ColumnVec::Int64(..) => stitch(
            parts,
            |c| match c {
                ColumnVec::Int64(v, m) => Some((v.as_slice(), m)),
                _ => None,
            },
            ColumnVec::Int64,
        ),
        ColumnVec::Float64(..) => stitch(
            parts,
            |c| match c {
                ColumnVec::Float64(v, m) => Some((v.as_slice(), m)),
                _ => None,
            },
            ColumnVec::Float64,
        ),
        ColumnVec::Bool(..) => stitch(
            parts,
            |c| match c {
                ColumnVec::Bool(v, m) => Some((v.as_slice(), m)),
                _ => None,
            },
            ColumnVec::Bool,
        ),
        ColumnVec::Text(..) => stitch(
            parts,
            |c| match c {
                ColumnVec::Text(v, m) => Some((v.as_slice(), m)),
                _ => None,
            },
            ColumnVec::Text,
        ),
        ColumnVec::Date(..) => stitch(
            parts,
            |c| match c {
                ColumnVec::Date(v, m) => Some((v.as_slice(), m)),
                _ => None,
            },
            ColumnVec::Date,
        ),
        ColumnVec::Timestamp(..) => stitch(
            parts,
            |c| match c {
                ColumnVec::Timestamp(v, m) => Some((v.as_slice(), m)),
                _ => None,
            },
            ColumnVec::Timestamp,
        ),
        ColumnVec::Any(_) => {
            let mut vals: Vec<Value> = Vec::new();
            for part in parts {
                match part {
                    ColumnVec::Any(v) => vals.extend_from_slice(v),
                    _ => return None,
                }
            }
            Some(ColumnVec::Any(vals))
        }
    }
}

// ---------------------------------------------------------------------
// Column builder (specialize on first non-NULL value, degrade to Any)
// ---------------------------------------------------------------------

/// Builds a [`ColumnVec`] value-by-value: the first non-NULL value fixes
/// the typed representation; any later family mismatch degrades the whole
/// column to [`ColumnVec::Any`].
pub(crate) struct ColumnBuilder {
    state: BuilderState,
    capacity: usize,
}

enum BuilderState {
    /// Only NULLs so far.
    Pending(usize),
    Typed(ColumnVec),
    Any(Vec<Value>),
}

impl ColumnBuilder {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ColumnBuilder {
            state: BuilderState::Pending(0),
            capacity,
        }
    }

    /// Append an owned value (moves it when the column is heterogeneous).
    pub(crate) fn push(&mut self, value: Value) {
        match &mut self.state {
            BuilderState::Any(values) => values.push(value),
            _ => self.push_ref(&value),
        }
    }

    /// Append a borrowed value (clones only what the typed column stores).
    pub(crate) fn push_ref(&mut self, value: &Value) {
        match &mut self.state {
            BuilderState::Pending(nulls) => {
                if value.is_null() {
                    *nulls += 1;
                    return;
                }
                let nulls = *nulls;
                match typed_column_for(value, self.capacity) {
                    Some(mut col) => {
                        for _ in 0..nulls {
                            push_typed(&mut col, &Value::Null);
                        }
                        push_typed(&mut col, value);
                        self.state = BuilderState::Typed(col);
                    }
                    None => {
                        let mut values = Vec::with_capacity(self.capacity);
                        values.extend(std::iter::repeat_n(Value::Null, nulls));
                        values.push(value.clone());
                        self.state = BuilderState::Any(values);
                    }
                }
            }
            BuilderState::Typed(col) => {
                if value.is_null() || matches_column(col, value) {
                    push_typed(col, value);
                } else {
                    // Family mismatch: degrade the whole column to Any.
                    let done = col.len();
                    let mut values = Vec::with_capacity(self.capacity.max(done + 1));
                    for i in 0..done {
                        values.push(col.value(i));
                    }
                    values.push(value.clone());
                    self.state = BuilderState::Any(values);
                }
            }
            BuilderState::Any(values) => values.push(value.clone()),
        }
    }

    pub(crate) fn finish(self) -> ColumnVec {
        match self.state {
            BuilderState::Pending(nulls) => ColumnVec::Any(vec![Value::Null; nulls]),
            BuilderState::Typed(col) => col,
            BuilderState::Any(values) => ColumnVec::Any(values),
        }
    }
}

/// The empty typed column matching a (non-NULL) value's variant, or `None`
/// if the value has no typed column (unreachable today — every variant
/// does — but kept total for safety).
fn typed_column_for(v: &Value, capacity: usize) -> Option<ColumnVec> {
    Some(match v {
        Value::Int(_) => ColumnVec::Int64(Vec::with_capacity(capacity), NullMask::default()),
        Value::Float(_) => ColumnVec::Float64(Vec::with_capacity(capacity), NullMask::default()),
        Value::Bool(_) => ColumnVec::Bool(Vec::with_capacity(capacity), NullMask::default()),
        Value::Text(_) => ColumnVec::Text(Vec::with_capacity(capacity), NullMask::default()),
        Value::Date(_) => ColumnVec::Date(Vec::with_capacity(capacity), NullMask::default()),
        Value::Timestamp(_) => {
            ColumnVec::Timestamp(Vec::with_capacity(capacity), NullMask::default())
        }
        Value::Null => return None,
    })
}

/// Whether a non-NULL value fits a typed column without degrading.
fn matches_column(col: &ColumnVec, v: &Value) -> bool {
    matches!(
        (col, v),
        (ColumnVec::Int64(..), Value::Int(_))
            | (ColumnVec::Float64(..), Value::Float(_))
            | (ColumnVec::Bool(..), Value::Bool(_))
            | (ColumnVec::Text(..), Value::Text(_))
            | (ColumnVec::Date(..), Value::Date(_))
            | (ColumnVec::Timestamp(..), Value::Timestamp(_))
    )
}

/// Push a NULL or matching value into a typed column.
fn push_typed(col: &mut ColumnVec, v: &Value) {
    match (col, v) {
        (ColumnVec::Int64(vals, m), Value::Int(i)) => {
            vals.push(*i);
            m.push(false);
        }
        (ColumnVec::Float64(vals, m), Value::Float(f)) => {
            vals.push(*f);
            m.push(false);
        }
        (ColumnVec::Bool(vals, m), Value::Bool(b)) => {
            vals.push(*b);
            m.push(false);
        }
        (ColumnVec::Text(vals, m), Value::Text(s)) => {
            vals.push(s.clone());
            m.push(false);
        }
        (ColumnVec::Date(vals, m), Value::Date(d)) => {
            vals.push(*d);
            m.push(false);
        }
        (ColumnVec::Timestamp(vals, m), Value::Timestamp(t)) => {
            vals.push(*t);
            m.push(false);
        }
        (ColumnVec::Int64(vals, m), Value::Null)
        | (ColumnVec::Date(vals, m), Value::Null)
        | (ColumnVec::Timestamp(vals, m), Value::Null) => {
            vals.push(0);
            m.push(true);
        }
        (ColumnVec::Float64(vals, m), Value::Null) => {
            vals.push(0.0);
            m.push(true);
        }
        (ColumnVec::Bool(vals, m), Value::Null) => {
            vals.push(false);
            m.push(true);
        }
        (ColumnVec::Text(vals, m), Value::Null) => {
            vals.push(String::new());
            m.push(true);
        }
        _ => unreachable!("caller checked matches_column"),
    }
}

// ---------------------------------------------------------------------
// Column-slice keys
// ---------------------------------------------------------------------

/// Canonical, allocation-free key form of one cell. Equality and hashing
/// coincide exactly with [`Value::group_key`] string equality: integral
/// numerics (Int/Date/Timestamp/Bool and exactly-integral floats, `-0.0`
/// included) fold to `Int`, non-integral floats keep their (canonicalized)
/// bits — distinct non-NaN floats have distinct bits and distinct shortest
/// round-trip decimal forms, so bit equality and formatted-string equality
/// agree — and all NaNs collapse to one canonical pattern (all NaNs format
/// as `"NaN"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart<'a> {
    /// SQL NULL (groups with NULL; excluded from join keys by callers).
    Null,
    /// Exact integer form of any integral numeric.
    Int(i64),
    /// Canonicalized bits of a non-integral float.
    Float(u64),
    /// Borrowed text.
    Text(&'a str),
}

impl<'a> KeyPart<'a> {
    /// Canonical key form of a float (integral floats fold to `Int`).
    #[inline]
    pub(crate) fn from_f64(f: f64) -> KeyPart<'static> {
        match Value::Float(f).exact_int() {
            Some(i) => KeyPart::Int(i),
            None if f.is_nan() => KeyPart::Float(f64::NAN.to_bits()),
            None => KeyPart::Float(f.to_bits()),
        }
    }

    /// Canonical key form of a boxed value.
    #[inline]
    pub(crate) fn from_value(v: &'a Value) -> KeyPart<'a> {
        match v {
            Value::Null => KeyPart::Null,
            Value::Text(s) => KeyPart::Text(s),
            other => match other.exact_int() {
                Some(i) => KeyPart::Int(i),
                None => KeyPart::from_f64(other.as_f64().unwrap_or(f64::NAN)),
            },
        }
    }
}

/// Deterministic composite hash of one row across `cols` (fixed-key
/// `DefaultHasher`, not the per-process-randomized `RandomState`).
pub(crate) fn composite_hash(cols: &[&ColumnVec], i: usize) -> u64 {
    let mut hasher = DefaultHasher::new();
    for col in cols {
        col.key_part(i).hash(&mut hasher);
    }
    hasher.finish()
}

/// Whether two rows' composite keys are equal across two column sets.
pub(crate) fn composite_eq(a: &[&ColumnVec], ia: usize, b: &[&ColumnVec], ib: usize) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .all(|(ca, cb)| ca.key_part(ia) == cb.key_part(ib))
}

/// Whether every key cell of the row is non-NULL (NULL never joins).
pub(crate) fn keys_nonnull(cols: &[&ColumnVec], i: usize) -> bool {
    cols.iter().all(|c| !c.is_null(i))
}

// ---------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------

/// A morsel of rows in columnar form: typed columns plus an optional
/// selection vector of live physical row indices (ascending). `len` is the
/// physical row count, tracked separately so zero-column batches (FROM-less
/// SELECT) still carry their row count.
///
/// Columns are shared by `Arc`: cloning a batch (to refine its selection,
/// or to hand a table's cached decode to a query) bumps refcounts instead
/// of copying payloads.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// Physical rows in each column.
    pub len: usize,
    /// The columns; each has `len` rows.
    pub columns: Vec<Arc<ColumnVec>>,
    /// Live physical row indices (ascending), or `None` for all-live.
    pub selection: Option<Vec<u32>>,
}

impl Batch {
    /// Number of live (selected) rows.
    pub(crate) fn live(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.len,
        }
    }

    /// Iterate the physical indices of live rows, in ascending order.
    pub(crate) fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let sel = self.selection.as_deref();
        (0..self.len).filter_map(move |j| match sel {
            Some(sel) => sel.get(j).map(|&i| i as usize),
            None => Some(j),
        })
    }

    /// Decode a row slice into one dense batch of `width` columns.
    pub(crate) fn from_rows(rows: &[Row], width: usize) -> Batch {
        let columns = (0..width)
            .map(|c| {
                Arc::new(ColumnVec::from_values(
                    rows.iter().map(move |r| r.get(c).unwrap_or(&Value::Null)),
                ))
            })
            .collect();
        Batch {
            len: rows.len(),
            columns,
            selection: None,
        }
    }

    /// Materialize one live row (by physical index) as a boxed row.
    pub(crate) fn gather_row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Materialize all live rows, consuming the batch. Dense batches with
    /// uniquely-owned columns move their payloads (no second copy of text
    /// values); shared or selected batches gather.
    pub(crate) fn into_rows(self) -> Vec<Row> {
        if self.selection.is_some() {
            return self.live_rows().map(|i| self.gather_row(i)).collect();
        }
        let mut rows: Vec<Row> = (0..self.len)
            .map(|_| Row::with_capacity(self.columns.len()))
            .collect();
        for col in self.columns {
            match Arc::try_unwrap(col) {
                Ok(ColumnVec::Any(values)) => {
                    for (row, v) in rows.iter_mut().zip(values) {
                        row.push(v);
                    }
                }
                Ok(ColumnVec::Text(values, m)) => {
                    for (i, (row, s)) in rows.iter_mut().zip(values).enumerate() {
                        row.push(if m.get(i) {
                            Value::Null
                        } else {
                            Value::Text(s)
                        });
                    }
                }
                Ok(typed) => {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.push(typed.value(i));
                    }
                }
                Err(shared) => {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.push(shared.value(i));
                    }
                }
            }
        }
        rows
    }

    /// The dense column `c` restricted to live rows (a refcount bump when
    /// the batch is unselected; NULL column if `c` is out of range,
    /// mirroring the per-row evaluator's `row.get(idx)` robustness).
    pub(crate) fn column_live(&self, c: usize) -> Arc<ColumnVec> {
        match self.columns.get(c) {
            None => Arc::new(ColumnVec::Any(vec![Value::Null; self.live()])),
            Some(col) => match &self.selection {
                None => Arc::clone(col),
                Some(sel) => Arc::new(col.gather(sel)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_specializes_and_degrades() {
        let vals = [Value::Null, Value::Int(1), Value::Null, Value::Int(2)];
        let col = ColumnVec::from_values(vals.iter());
        assert!(matches!(col, ColumnVec::Int64(..)));
        assert_eq!(col.value(0), Value::Null);
        assert_eq!(col.value(3), Value::Int(2));

        let mixed = [Value::Int(1), Value::Text("x".into())];
        let col = ColumnVec::from_values(mixed.iter());
        assert!(matches!(col, ColumnVec::Any(_)));
        assert_eq!(col.value(0), Value::Int(1));
        assert_eq!(col.value(1), Value::Text("x".into()));

        let all_null = [Value::Null, Value::Null];
        let col = ColumnVec::from_values(all_null.iter());
        assert_eq!(col.len(), 2);
        assert!(col.is_null(0) && col.is_null(1));
    }

    #[test]
    fn key_parts_match_group_key_equality() {
        let pairs = [
            (Value::Int(3), Value::Float(3.0), true),
            (Value::Int(0), Value::Float(-0.0), true),
            (Value::Int(1 << 53), Value::Float((1i64 << 53) as f64), true),
            (
                Value::Int((1 << 53) + 1),
                Value::Float((1i64 << 53) as f64),
                false,
            ),
            (
                Value::Int(i64::MAX),
                Value::Float(9_223_372_036_854_775_808.0),
                false,
            ),
            (Value::Float(0.5), Value::Float(0.5), true),
            (Value::Float(0.5), Value::Float(0.25), false),
            (Value::Date(7), Value::Int(7), true),
            (Value::Timestamp(9), Value::Int(9), true),
            (Value::Bool(true), Value::Int(1), true),
            (Value::Text("3".into()), Value::Int(3), false),
            (Value::Null, Value::Null, true),
            (Value::Float(f64::NAN), Value::Float(-f64::NAN), true),
        ];
        for (a, b, equal) in &pairs {
            assert_eq!(
                KeyPart::from_value(a) == KeyPart::from_value(b),
                *equal,
                "{a:?} vs {b:?}"
            );
            assert_eq!(
                a.group_key() == b.group_key(),
                *equal,
                "group_key oracle disagrees on {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn composite_hash_and_eq_follow_key_parts() {
        let a = ColumnVec::from_values([Value::Int(1), Value::Int(2)].iter());
        let b = ColumnVec::from_values([Value::Float(1.0), Value::Float(2.5)].iter());
        let ca = [&a];
        let cb = [&b];
        assert!(composite_eq(&ca, 0, &cb, 0)); // 1 == 1.0
        assert!(!composite_eq(&ca, 1, &cb, 1)); // 2 != 2.5
        assert_eq!(composite_hash(&ca, 0), composite_hash(&cb, 0));
    }

    #[test]
    fn batch_round_trips_rows_with_selection() {
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Text(format!("r{i}"))])
            .collect();
        let mut batch = Batch::from_rows(&rows, 2);
        assert_eq!(batch.live(), 10);
        assert_eq!(batch.clone().into_rows(), rows);

        batch.selection = Some(vec![1, 4, 7]);
        assert_eq!(batch.live(), 3);
        let selected = batch.into_rows();
        assert_eq!(selected.len(), 3);
        assert_eq!(selected[1], vec![Value::Int(4), Value::Text("r4".into())]);
    }

    #[test]
    fn gather_padded_inserts_nulls() {
        let col = ColumnVec::from_values([Value::Int(10), Value::Int(20)].iter());
        let out = col.gather_padded(&[1, PAD_NULL, 0]);
        assert_eq!(out.value(0), Value::Int(20));
        assert_eq!(out.value(1), Value::Null);
        assert_eq!(out.value(2), Value::Int(10));
    }

    #[test]
    fn null_mask_push_and_set() {
        let mut m = NullMask::new(70);
        m.set(65);
        assert!(m.get(65) && !m.get(64));
        let mut pushed = NullMask::default();
        for i in 0..130 {
            pushed.push(i % 3 == 0);
        }
        assert!(pushed.get(0) && pushed.get(129) && !pushed.get(1));
    }
}
