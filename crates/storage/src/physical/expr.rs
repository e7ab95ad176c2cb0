//! Compiled expressions for the planned engine.
//!
//! At compile time ([`crate::physical::compile`]) every column reference in
//! an expression is resolved **once** to an ordinal: into the operator's
//! input row ([`PhysExpr::Column`]), or, for a correlated reference, into
//! the row of an enclosing scope a fixed number of levels out
//! ([`PhysExpr::OuterColumn`]). Every static error fails the compile, so
//! evaluation never searches a binding list and raises only run-time
//! errors (arithmetic, operand types, scalar-subquery cardinality, LIMIT
//! values).
//!
//! Subqueries are planned and compiled once into [`SubPlan`]s. A subplan
//! that provably depends on nothing outside itself (no outer column
//! references anywhere in its tree and no reads of CTEs defined in
//! enclosing scopes) caches its first result, so `WHERE x > (SELECT AVG(..)
//! FROM t)` executes the subquery once instead of once per row.

use crate::sync::{Arc, Mutex};

use bp_sql::{BinaryOperator, DataType, UnaryOperator};

use crate::error::{StorageError, StorageResult};
use crate::result::QueryResult;
use crate::scalar::{
    cast_value, eval_binary, eval_binary_cols, eval_neg_col, eval_scalar_fn, eval_unary_minus,
    finish_aggregate, truth3_col,
};
use crate::value::{like_match, Value};

use super::batch::{Batch, ColumnBuilder, ColumnVec, NullMask};
use super::{exec_query_plan, OuterEnv, PhysQueryPlan, RunCtx};

/// A subquery compiled into its own physical plan.
pub(crate) struct SubPlan {
    /// The compiled plan.
    pub plan: PhysQueryPlan,
    /// Whether the result is invariant across evaluations (uncorrelated and
    /// reading no enclosing CTEs) and may therefore be cached.
    pub cacheable: bool,
    /// Whether anything inside reads an enclosing row scope
    /// (`OuterColumn`, at any depth).
    pub correlated: bool,
    /// Cached result for cacheable subplans (per compiled plan, i.e. per
    /// top-level execution). A `Mutex` rather than a `RefCell` so one
    /// compiled plan can serve every [`batch_map`](super::batch_map) worker
    /// of a shared plan cache; concurrent fills race benignly (both compute
    /// the same result).
    pub cache: Mutex<Option<Arc<QueryResult>>>,
}

impl SubPlan {
    /// A subplan with an empty result cache.
    pub(crate) fn new(plan: PhysQueryPlan, cacheable: bool, correlated: bool) -> Self {
        SubPlan {
            plan,
            cacheable,
            correlated,
            cache: Mutex::new(None),
        }
    }

    pub(crate) fn execute(&self, env: &EvalEnv<'_>) -> StorageResult<Arc<QueryResult>> {
        if self.cacheable {
            // Double-checked fill: the lock is only ever held for the two
            // cache peeks, never across exec_query_plan, so a shared or
            // recursive SubPlan can't self-deadlock and other workers never
            // block on a fill. Workers racing past an empty cache duplicate
            // the (deterministic) execution; the first fill wins and the
            // losers return their identical result.
            if let Some(cached) = &*self.cache.lock().expect("subquery cache lock") {
                return Ok(Arc::clone(cached));
            }
            let result = Arc::new(self.run(env)?);
            let mut cache = self.cache.lock().expect("subquery cache lock");
            if let Some(cached) = &*cache {
                return Ok(Arc::clone(cached));
            }
            *cache = Some(Arc::clone(&result));
            return Ok(result);
        }
        Ok(Arc::new(self.run(env)?))
    }

    fn run(&self, env: &EvalEnv<'_>) -> StorageResult<QueryResult> {
        let outer = OuterEnv {
            row: env.row,
            parent: env.ctx.outer,
        };
        let ctx = RunCtx {
            outer: Some(&outer),
            ..*env.ctx
        };
        exec_query_plan(&self.plan, &ctx)
    }
}

/// A compiled scalar expression.
pub(crate) enum PhysExpr {
    /// Resolved column ordinal in the current row.
    Column(usize),
    /// Correlated reference: column `idx` of the enclosing row scope
    /// `depth` levels out (0 = the row the innermost subquery runs for).
    OuterColumn {
        depth: usize,
        idx: usize,
    },
    /// Constant.
    Literal(Value),
    Binary {
        left: Box<PhysExpr>,
        op: BinaryOperator,
        right: Box<PhysExpr>,
    },
    Unary {
        op: UnaryOperator,
        expr: Box<PhysExpr>,
    },
    /// Scalar function with a canonical (uppercase, `'static`) name.
    ScalarFn {
        name: &'static str,
        args: Vec<PhysExpr>,
    },
    /// Aggregate call; `arg: None` is `COUNT(*)`.
    Aggregate {
        name: &'static str,
        arg: Option<Box<PhysExpr>>,
        distinct: bool,
    },
    Case {
        operand: Option<Box<PhysExpr>>,
        conditions: Vec<(PhysExpr, PhysExpr)>,
        else_result: Option<Box<PhysExpr>>,
    },
    Exists {
        plan: Box<SubPlan>,
        negated: bool,
    },
    ScalarSubquery {
        plan: Box<SubPlan>,
    },
    InSubquery {
        expr: Box<PhysExpr>,
        plan: Box<SubPlan>,
        negated: bool,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    Between {
        expr: Box<PhysExpr>,
        low: Box<PhysExpr>,
        high: Box<PhysExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    Like {
        expr: Box<PhysExpr>,
        pattern: Box<PhysExpr>,
        negated: bool,
    },
    Cast {
        expr: Box<PhysExpr>,
        data_type: DataType,
    },
}

/// Evaluation environment: the runtime context plus the current row (and,
/// in grouped evaluation, the current group).
pub(crate) struct EvalEnv<'a> {
    pub ctx: &'a RunCtx<'a>,
    pub row: &'a [Value],
    /// The current group: the aggregate's input batch with the group's
    /// members as its selection. An aggregate evaluates its argument as a
    /// column over it.
    pub group: Option<&'a Batch>,
}

impl PhysExpr {
    pub(crate) fn eval(&self, env: &EvalEnv<'_>) -> StorageResult<Value> {
        match self {
            PhysExpr::Column(idx) => Ok(env.row.get(*idx).cloned().unwrap_or(Value::Null)),
            PhysExpr::OuterColumn { depth, idx } => {
                let scope = (0..*depth).fold(env.ctx.outer, |scope, _| scope?.parent);
                let value = scope.and_then(|outer| outer.row.get(*idx));
                Ok(value.cloned().unwrap_or(Value::Null))
            }
            PhysExpr::Literal(v) => Ok(v.clone()),
            PhysExpr::Binary { left, op, right } => {
                let l = left.eval(env)?;
                let r = right.eval(env)?;
                eval_binary(&l, *op, &r)
            }
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval(env)?;
                match op {
                    UnaryOperator::Not => Ok(if v.is_null() {
                        Value::Null
                    } else {
                        Value::Bool(!v.is_truthy())
                    }),
                    UnaryOperator::Minus => eval_unary_minus(&v),
                    UnaryOperator::Plus => Ok(v),
                }
            }
            PhysExpr::ScalarFn { name, args } => {
                eval_scalar_fn(name, args.len(), |i| args[i].eval(env))
            }
            PhysExpr::Aggregate {
                name,
                arg,
                distinct,
            } => match env.group {
                Some(group) => eval_aggregate(name, arg.as_deref(), *distinct, group, env.ctx),
                // Outside a grouped context the current row forms a one-row
                // group (same robustness rule as the interpreter).
                None => {
                    let single = Batch::from_rows(&[env.row.to_vec()], env.row.len());
                    eval_aggregate(name, arg.as_deref(), *distinct, &single, env.ctx)
                }
            },
            PhysExpr::Case {
                operand,
                conditions,
                else_result,
            } => {
                let operand_value = operand.as_ref().map(|o| o.eval(env)).transpose()?;
                for (condition, result) in conditions {
                    let matched = match &operand_value {
                        Some(op_value) => {
                            let cv = condition.eval(env)?;
                            op_value.sql_eq(&cv).unwrap_or(false)
                        }
                        None => condition.eval(env)?.is_truthy(),
                    };
                    if matched {
                        return result.eval(env);
                    }
                }
                match else_result {
                    Some(e) => e.eval(env),
                    None => Ok(Value::Null),
                }
            }
            PhysExpr::Exists { plan, negated } => {
                let result = plan.execute(env)?;
                let exists = !result.rows.is_empty();
                Ok(Value::Bool(exists != *negated))
            }
            PhysExpr::ScalarSubquery { plan } => {
                let result = plan.execute(env)?;
                if result.column_count() != 1 {
                    return Err(StorageError::CardinalityViolation(format!(
                        "scalar subquery returned {} columns",
                        result.column_count()
                    )));
                }
                match result.rows.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(result.rows[0][0].clone()),
                    n => Err(StorageError::CardinalityViolation(format!(
                        "scalar subquery returned {n} rows"
                    ))),
                }
            }
            PhysExpr::InSubquery {
                expr,
                plan,
                negated,
            } => {
                let needle = expr.eval(env)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let result = plan.execute(env)?;
                let found = result
                    .rows
                    .iter()
                    .filter_map(|r| r.first())
                    .any(|v| needle.sql_eq(v).unwrap_or(false));
                Ok(Value::Bool(found != *negated))
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.eval(env)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    let v = item.eval(env)?;
                    if needle.sql_eq(&v).unwrap_or(false) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(env)?;
                let lo = low.eval(env)?;
                let hi = high.eval(env)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let within = v.total_cmp(&lo) != std::cmp::Ordering::Less
                    && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
                Ok(Value::Bool(within != *negated))
            }
            PhysExpr::IsNull { expr, negated } => {
                let v = expr.eval(env)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(env)?;
                let p = pattern.eval(env)?;
                match (v.as_text(), p.as_text()) {
                    (Some(text), Some(pattern)) => {
                        Ok(Value::Bool(like_match(text, pattern) != *negated))
                    }
                    _ => {
                        if v.is_null() || p.is_null() {
                            Ok(Value::Null)
                        } else {
                            Ok(Value::Bool(
                                like_match(&v.to_string(), &p.to_string()) != *negated,
                            ))
                        }
                    }
                }
            }
            PhysExpr::Cast { expr, data_type } => {
                let v = expr.eval(env)?;
                Ok(cast_value(v, *data_type))
            }
        }
    }

    /// Evaluate as a row predicate.
    pub(crate) fn eval_truthy(&self, env: &EvalEnv<'_>) -> StorageResult<bool> {
        Ok(self.eval(env)?.is_truthy())
    }

    /// Evaluate this expression over every **live** row of a batch,
    /// returning a dense column aligned with the batch's selection.
    ///
    /// Comparisons, three-valued AND/OR, checked `i64` arithmetic, IS NULL,
    /// NOT, CAST, BETWEEN and LIKE run as vectorized (or semi-vectorized)
    /// kernels; subqueries, CASE, scalar functions, IN and aggregates take
    /// the per-row fallback so their lazy/short-circuit evaluation order is
    /// untouched. Evaluation is restricted to selected rows by
    /// construction, so a filtered-out row can never raise a run-time error
    /// the row engine would not raise.
    pub(crate) fn eval_batch(
        &self,
        batch: &Batch,
        ctx: &RunCtx<'_>,
    ) -> StorageResult<Arc<ColumnVec>> {
        let n = batch.live();
        match self {
            PhysExpr::Column(idx) => Ok(batch.column_live(*idx)),
            PhysExpr::Literal(v) => Ok(Arc::new(ColumnVec::broadcast(v, n))),
            PhysExpr::Binary { left, op, right } => {
                let l = left.eval_batch(batch, ctx)?;
                let r = right.eval_batch(batch, ctx)?;
                Ok(Arc::new(eval_binary_cols(&l, *op, &r)?))
            }
            PhysExpr::Unary { op, expr } => {
                let c = expr.eval_batch(batch, ctx)?;
                match op {
                    UnaryOperator::Not => {
                        let (truth, mask) = truth3_col(&c);
                        Ok(Arc::new(ColumnVec::Bool(
                            truth.iter().map(|t| !t).collect(),
                            mask,
                        )))
                    }
                    UnaryOperator::Minus => Ok(Arc::new(eval_neg_col(&c)?)),
                    UnaryOperator::Plus => Ok(c),
                }
            }
            PhysExpr::IsNull { expr, negated } => {
                let c = expr.eval_batch(batch, ctx)?;
                let vals = (0..n).map(|i| c.is_null(i) != *negated).collect();
                Ok(Arc::new(ColumnVec::Bool(vals, NullMask::new(n))))
            }
            PhysExpr::Cast { expr, data_type } => {
                let c = expr.eval_batch(batch, ctx)?;
                let mut out = ColumnBuilder::with_capacity(n);
                for i in 0..n {
                    out.push(cast_value(c.value(i), *data_type));
                }
                Ok(Arc::new(out.finish()))
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // The row path always evaluates all three operands, so
                // evaluating them as whole columns is unobservable.
                let v = expr.eval_batch(batch, ctx)?;
                let lo = low.eval_batch(batch, ctx)?;
                let hi = high.eval_batch(batch, ctx)?;
                let mut vals = Vec::with_capacity(n);
                let mut mask = NullMask::new(n);
                for i in 0..n {
                    if v.is_null(i) || lo.is_null(i) || hi.is_null(i) {
                        vals.push(false);
                        mask.set(i);
                        continue;
                    }
                    let (x, l, h) = (v.value(i), lo.value(i), hi.value(i));
                    let within = x.total_cmp(&l) != std::cmp::Ordering::Less
                        && x.total_cmp(&h) != std::cmp::Ordering::Greater;
                    vals.push(within != *negated);
                }
                Ok(Arc::new(ColumnVec::Bool(vals, mask)))
            }
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_batch(batch, ctx)?;
                let p = pattern.eval_batch(batch, ctx)?;
                let mut out = ColumnBuilder::with_capacity(n);
                for i in 0..n {
                    let (vv, pv) = (v.value(i), p.value(i));
                    out.push(match (vv.as_text(), pv.as_text()) {
                        (Some(text), Some(pat)) => Value::Bool(like_match(text, pat) != *negated),
                        _ if vv.is_null() || pv.is_null() => Value::Null,
                        _ => Value::Bool(like_match(&vv.to_string(), &pv.to_string()) != *negated),
                    });
                }
                Ok(Arc::new(out.finish()))
            }
            PhysExpr::OuterColumn { .. } => {
                // An outer reference is constant across the batch: it reads
                // an enclosing scope's row, never the batch itself.
                let row_env = EvalEnv {
                    ctx,
                    row: &[],
                    group: None,
                };
                let v = self.eval(&row_env)?;
                Ok(Arc::new(ColumnVec::broadcast(&v, n)))
            }
            // Subqueries, CASE, COALESCE-style functions, IN and aggregates
            // keep their per-row (lazy) evaluation order.
            _ => self.eval_batch_fallback(batch, ctx),
        }
    }

    /// Call `f` on each direct sub-expression, in source order (for `CASE`:
    /// operand, then each WHEN/THEN pair, then ELSE). Subplans are never
    /// entered: `InSubquery` yields only its tested expression.
    pub(crate) fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a PhysExpr)) {
        match self {
            PhysExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            PhysExpr::Unary { expr, .. }
            | PhysExpr::InSubquery { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Cast { expr, .. } => f(expr),
            PhysExpr::ScalarFn { args, .. } => args.iter().for_each(f),
            PhysExpr::Aggregate { arg, .. } => {
                if let Some(arg) = arg {
                    f(arg);
                }
            }
            PhysExpr::Case {
                operand,
                conditions,
                else_result,
            } => {
                if let Some(operand) = operand {
                    f(operand);
                }
                for (cond, result) in conditions {
                    f(cond);
                    f(result);
                }
                if let Some(else_result) = else_result {
                    f(else_result);
                }
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            PhysExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            PhysExpr::Column(_)
            | PhysExpr::OuterColumn { .. }
            | PhysExpr::Literal(_)
            | PhysExpr::Exists { .. }
            | PhysExpr::ScalarSubquery { .. } => {}
        }
    }

    /// [`PhysExpr::for_each_child`] with mutable access, in the same order.
    pub(crate) fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut PhysExpr)) {
        match self {
            PhysExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            PhysExpr::Unary { expr, .. }
            | PhysExpr::InSubquery { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Cast { expr, .. } => f(expr),
            PhysExpr::ScalarFn { args, .. } => args.iter_mut().for_each(f),
            PhysExpr::Aggregate { arg, .. } => {
                if let Some(arg) = arg {
                    f(arg);
                }
            }
            PhysExpr::Case {
                operand,
                conditions,
                else_result,
            } => {
                if let Some(operand) = operand {
                    f(operand);
                }
                for (cond, result) in conditions {
                    f(cond);
                    f(result);
                }
                if let Some(else_result) = else_result {
                    f(else_result);
                }
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            PhysExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            PhysExpr::Column(_)
            | PhysExpr::OuterColumn { .. }
            | PhysExpr::Literal(_)
            | PhysExpr::Exists { .. }
            | PhysExpr::ScalarSubquery { .. } => {}
        }
    }

    /// Record every input-column ordinal this expression reads. Subplans
    /// are not entered: what they read of this row is an `OuterColumn`,
    /// flagged by [`PhysExpr::holds_correlated_subplan`].
    pub(crate) fn collect_columns(&self, out: &mut std::collections::BTreeSet<usize>) {
        if let PhysExpr::Column(idx) = self {
            out.insert(*idx);
        }
        self.for_each_child(|child| child.collect_columns(out));
    }

    /// Whether this expression holds a subplan that reads an enclosing row
    /// at any depth: such a subplan reads the row it runs for by its
    /// unpruned ordinals.
    pub(crate) fn holds_correlated_subplan(&self) -> bool {
        let own = match self {
            PhysExpr::Exists { plan, .. }
            | PhysExpr::ScalarSubquery { plan }
            | PhysExpr::InSubquery { plan, .. } => plan.correlated,
            _ => false,
        };
        let mut child = false;
        self.for_each_child(|c| child |= c.holds_correlated_subplan());
        own || child
    }

    /// Rewrite every `Column` ordinal through `map`. Subplans are not
    /// entered: their `Column`s read their own inputs.
    pub(crate) fn remap_columns(&mut self, map: &impl Fn(usize) -> usize) {
        if let PhysExpr::Column(idx) = self {
            *idx = map(*idx);
        }
        self.for_each_child_mut(|child| child.remap_columns(map));
    }

    /// Per-row fallback: gather each live row and evaluate with the row
    /// engine's own `eval`, preserving laziness and error order exactly.
    fn eval_batch_fallback(
        &self,
        batch: &Batch,
        ctx: &RunCtx<'_>,
    ) -> StorageResult<Arc<ColumnVec>> {
        let mut out = ColumnBuilder::with_capacity(batch.live());
        for i in batch.live_rows() {
            let row = batch.gather_row(i);
            let row_env = EvalEnv {
                ctx,
                row: &row,
                group: None,
            };
            out.push(self.eval(&row_env)?);
        }
        Ok(Arc::new(out.finish()))
    }
}

/// One aggregate over a group: its argument as a column over the group's
/// rows, whose non-NULL values [`finish_aggregate`] folds.
fn eval_aggregate(
    name: &str,
    arg: Option<&PhysExpr>,
    distinct: bool,
    group: &Batch,
    ctx: &RunCtx<'_>,
) -> StorageResult<Value> {
    let Some(arg) = arg else {
        // COUNT(*) counts rows directly.
        return Ok(Value::Int(group.live() as i64));
    };
    let col = arg.eval_batch(group, ctx)?;
    let values = (0..col.len())
        .filter(|&i| !col.is_null(i))
        .map(|i| col.value(i))
        .collect();
    finish_aggregate(name, values, distinct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> PhysExpr {
        PhysExpr::Column(i)
    }

    fn boxed(i: usize) -> Box<PhysExpr> {
        Box::new(col(i))
    }

    fn subplan() -> Box<SubPlan> {
        let plan = PhysQueryPlan::of(super::super::PhysNode::ScanEmpty, &[]);
        Box::new(SubPlan::new(plan, false, false))
    }

    /// Every shape with children numbers them `Column(0..)` in source
    /// order, through both visitors; subplans and leaves yield nothing.
    #[test]
    fn for_each_child_yields_direct_children_in_source_order() {
        let mut cases = vec![
            (
                PhysExpr::Binary {
                    left: boxed(0),
                    op: BinaryOperator::Plus,
                    right: boxed(1),
                },
                2,
            ),
            (
                PhysExpr::Unary {
                    op: UnaryOperator::Minus,
                    expr: boxed(0),
                },
                1,
            ),
            (
                PhysExpr::ScalarFn {
                    name: "COALESCE",
                    args: vec![col(0), col(1), col(2)],
                },
                3,
            ),
            (
                PhysExpr::Aggregate {
                    name: "MAX",
                    arg: Some(boxed(0)),
                    distinct: false,
                },
                1,
            ),
            (
                PhysExpr::Case {
                    operand: Some(boxed(0)),
                    conditions: vec![(col(1), col(2)), (col(3), col(4))],
                    else_result: Some(boxed(5)),
                },
                6,
            ),
            (
                PhysExpr::InSubquery {
                    expr: boxed(0),
                    plan: subplan(),
                    negated: false,
                },
                1,
            ),
            (
                PhysExpr::InList {
                    expr: boxed(0),
                    list: vec![col(1), col(2)],
                    negated: true,
                },
                3,
            ),
            (
                PhysExpr::Between {
                    expr: boxed(0),
                    low: boxed(1),
                    high: boxed(2),
                    negated: false,
                },
                3,
            ),
            (
                PhysExpr::IsNull {
                    expr: boxed(0),
                    negated: false,
                },
                1,
            ),
            (
                PhysExpr::Like {
                    expr: boxed(0),
                    pattern: boxed(1),
                    negated: false,
                },
                2,
            ),
            (
                PhysExpr::Cast {
                    expr: boxed(0),
                    data_type: DataType::Text,
                },
                1,
            ),
            (
                PhysExpr::Aggregate {
                    name: "COUNT",
                    arg: None,
                    distinct: false,
                },
                0,
            ),
            (
                PhysExpr::Exists {
                    plan: subplan(),
                    negated: false,
                },
                0,
            ),
            (PhysExpr::ScalarSubquery { plan: subplan() }, 0),
            (PhysExpr::Literal(Value::Int(1)), 0),
            (col(7), 0),
        ];
        for (i, (expr, expected)) in cases.iter_mut().enumerate() {
            let mut children = Vec::new();
            expr.for_each_child(|child| match child {
                PhysExpr::Column(c) => children.push(*c),
                _ => panic!("case {i}: unexpected non-column child"),
            });
            assert_eq!(children, (0..*expected).collect::<Vec<_>>(), "case {i}");
            let mut mut_children = Vec::new();
            expr.for_each_child_mut(|child| match child {
                PhysExpr::Column(c) => mut_children.push(*c),
                _ => panic!("case {i}: unexpected non-column child"),
            });
            assert_eq!(mut_children, children, "case {i}: mutable visit order");
        }
    }
}
