//! Legacy query executor: a tree-walking interpreter over `bp-sql` ASTs.
//!
//! The executor supports the SELECT-centric subset used by text-to-SQL
//! workloads: projections, scalar expressions and functions, WHERE filters,
//! inner/outer/cross joins, GROUP BY with the five standard aggregates,
//! HAVING, DISTINCT, ORDER BY (by ordinal, alias or expression), LIMIT and
//! OFFSET, CTEs, derived tables, set operations, and scalar / `IN` /
//! `EXISTS` subqueries (correlated and uncorrelated).
//!
//! The execution strategy is deliberately simple (nested-loop joins,
//! row-at-a-time evaluation): this engine is retained as the
//! differential-testing **oracle** for the planned engine
//! ([`crate::physical`], selected via
//! [`ExecStrategy`](crate::physical::ExecStrategy)). Value-level semantics
//! are shared with the planner through the crate-private `scalar` module,
//! so the two engines cannot drift apart on scalar behavior.

use std::collections::HashMap;

use bp_sql::{
    Expr, JoinConstraint, JoinOperator, Literal, OrderByExpr, Query, Select, SetExpr, TableFactor,
    UnaryOperator,
};

use crate::error::{StorageError, StorageResult};
use crate::plan::{contains_aggregate, expand_projection, ColumnBinding};
use crate::result::QueryResult;
use crate::scalar::{
    canonical_function_name, cast_value, combine_set_operation, composite_key, eq_upper,
    eval_binary, eval_unary_minus, finish_aggregate, is_aggregate_name, literal_value, map_text,
    missing_arg_error, upper_eq,
};
use crate::snapshot::Snapshot;
use crate::table::Row;
use crate::value::{like_match, Value};

/// An intermediate relation flowing between executor stages.
#[derive(Debug, Clone, Default)]
struct Relation {
    bindings: Vec<ColumnBinding>,
    rows: Vec<Row>,
}

impl Relation {
    fn width(&self) -> usize {
        self.bindings.len()
    }
}

/// CTE scope: materialized CTE results for one query level, chained to the
/// enclosing level by parent pointer. Nested queries used to deep-clone the
/// whole environment per subquery; the chain makes entering a scope O(1).
struct CteScope<'a> {
    local: HashMap<String, QueryResult>,
    parent: Option<&'a CteScope<'a>>,
}

impl<'a> CteScope<'a> {
    fn root() -> Self {
        CteScope {
            local: HashMap::new(),
            parent: None,
        }
    }

    fn child(&'a self) -> CteScope<'a> {
        CteScope {
            local: HashMap::new(),
            parent: Some(self),
        }
    }

    fn get(&self, name: &str) -> Option<&QueryResult> {
        self.local
            .get(name)
            .or_else(|| self.parent.and_then(|p| p.get(name)))
    }
}

/// Evaluation context for scalar expressions.
struct EvalCtx<'a> {
    exec: &'a Executor<'a>,
    ctes: &'a CteScope<'a>,
    bindings: &'a [ColumnBinding],
    row: &'a [Value],
    /// Rows of the current group when evaluating aggregate expressions.
    group: Option<&'a [Row]>,
    /// Enclosing scope for correlated subqueries.
    outer: Option<&'a EvalCtx<'a>>,
}

impl<'a> EvalCtx<'a> {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> StorageResult<Value> {
        // Bindings were normalized to uppercase at relation construction, so
        // lookup compares case-insensitively without allocating.
        let mut matches = self.bindings.iter().enumerate().filter(|(_, b)| {
            eq_upper(&b.name, name)
                && match qualifier {
                    Some(q) => b.qualifier.as_deref().is_some_and(|bq| eq_upper(bq, q)),
                    None => true,
                }
        });
        if let Some((idx, _)) = matches.next() {
            return Ok(self.row.get(idx).cloned().unwrap_or(Value::Null));
        }
        if let Some(outer) = self.outer {
            return outer.resolve(qualifier, name);
        }
        Err(StorageError::UnknownColumn(match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        }))
    }
}

/// Executes queries against a storage snapshot (the legacy tree-walking
/// interpreter, kept as the differential oracle).
pub(crate) struct Executor<'a> {
    db: &'a Snapshot,
}

impl<'a> Executor<'a> {
    /// Create an executor over a snapshot.
    pub(crate) fn new(db: &'a Snapshot) -> Self {
        Executor { db }
    }

    /// Execute a parsed query.
    pub(crate) fn execute(&self, query: &Query) -> StorageResult<QueryResult> {
        let ctes = CteScope::root();
        self.execute_query(query, &ctes, None)
    }

    fn execute_query(
        &self,
        query: &Query,
        parent_ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<QueryResult> {
        // Entering a query level links a fresh scope to the parent instead
        // of deep-cloning every enclosing CTE result.
        let mut ctes = parent_ctes.child();
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                let result = self.execute_query(&cte.query, &ctes, outer)?;
                ctes.local.insert(cte.name.normalized(), result);
            }
        }
        match &query.body {
            SetExpr::Select(select) => self.execute_select(
                select,
                &query.order_by,
                query.limit.as_ref(),
                query.offset.as_ref(),
                &ctes,
                outer,
            ),
            _ => {
                let mut result = self.execute_set_expr(&query.body, &ctes, outer)?;
                // ORDER BY / LIMIT on a set operation apply to its combined output.
                self.order_result(&mut result, &query.order_by)?;
                self.apply_limit_offset(
                    &mut result,
                    query.limit.as_ref(),
                    query.offset.as_ref(),
                    &ctes,
                    outer,
                )?;
                Ok(result)
            }
        }
    }

    fn execute_set_expr(
        &self,
        body: &SetExpr,
        ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<QueryResult> {
        match body {
            SetExpr::Select(select) => self.execute_select(select, &[], None, None, ctes, outer),
            SetExpr::Query(query) => self.execute_query(query, ctes, outer),
            SetExpr::SetOperation {
                op,
                all,
                left,
                right,
            } => {
                let left = self.execute_set_expr(left, ctes, outer)?;
                let right = self.execute_set_expr(right, ctes, outer)?;
                combine_set_operation(*op, *all, left, right)
            }
        }
    }

    // -----------------------------------------------------------------
    // FROM clause
    // -----------------------------------------------------------------

    fn scan_table_factor(
        &self,
        factor: &TableFactor,
        ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<Relation> {
        match factor {
            TableFactor::Table { name, alias } => {
                let base = name.base().normalized();
                let qualifier = alias
                    .as_ref()
                    .map(|a| a.normalized())
                    .unwrap_or_else(|| base.clone());
                if let Some(result) = ctes.get(&base) {
                    return Ok(result_to_relation(result, &qualifier));
                }
                let table = self
                    .db
                    .table(&base)
                    .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
                let bindings = table
                    .schema
                    .columns
                    .iter()
                    .map(|c| ColumnBinding {
                        qualifier: Some(qualifier.clone()),
                        name: c.normalized_name(),
                    })
                    .collect();
                Ok(Relation {
                    bindings,
                    rows: table.rows().to_vec(),
                })
            }
            TableFactor::Derived { subquery, alias } => {
                let result = self.execute_query(subquery, ctes, outer)?;
                let qualifier = alias
                    .as_ref()
                    .map(|a| a.normalized())
                    .unwrap_or_else(|| "_DERIVED".to_string());
                Ok(result_to_relation(&result, &qualifier))
            }
        }
    }

    fn build_from(
        &self,
        select: &Select,
        ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<Relation> {
        if select.from.is_empty() {
            // `SELECT 1` style: a single empty row so projections evaluate once.
            return Ok(Relation {
                bindings: Vec::new(),
                rows: vec![Vec::new()],
            });
        }
        let mut combined: Option<Relation> = None;
        for twj in &select.from {
            let mut relation = self.scan_table_factor(&twj.relation, ctes, outer)?;
            for join in &twj.joins {
                let right = self.scan_table_factor(&join.relation, ctes, outer)?;
                relation = self.join(
                    relation,
                    right,
                    join.operator,
                    &join.constraint,
                    ctes,
                    outer,
                )?;
            }
            combined = Some(match combined {
                None => relation,
                Some(left) => cross_product(left, relation),
            });
        }
        Ok(combined.expect("from list is non-empty"))
    }

    fn join(
        &self,
        left: Relation,
        right: Relation,
        operator: JoinOperator,
        constraint: &JoinConstraint,
        ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<Relation> {
        let mut bindings = left.bindings.clone();
        bindings.extend(right.bindings.clone());
        let mut rows = Vec::new();

        let on_matches = |combined_row: &Row| -> StorageResult<bool> {
            match constraint {
                JoinConstraint::None => Ok(true),
                JoinConstraint::On(expr) => {
                    let ctx = EvalCtx {
                        exec: self,
                        ctes,
                        bindings: &bindings,
                        row: combined_row,
                        group: None,
                        outer,
                    };
                    Ok(eval_expr(&ctx, expr)?.is_truthy())
                }
            }
        };

        let mut right_matched = vec![false; right.rows.len()];
        for lrow in &left.rows {
            let mut matched = false;
            for (ri, rrow) in right.rows.iter().enumerate() {
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                if on_matches(&combined)? {
                    matched = true;
                    right_matched[ri] = true;
                    rows.push(combined);
                }
            }
            if !matched && matches!(operator, JoinOperator::LeftOuter | JoinOperator::FullOuter) {
                let mut combined = lrow.clone();
                combined.extend(std::iter::repeat_n(Value::Null, right.width()));
                rows.push(combined);
            }
        }
        if matches!(operator, JoinOperator::RightOuter | JoinOperator::FullOuter) {
            for (ri, rrow) in right.rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut combined: Row =
                        std::iter::repeat_n(Value::Null, left.width()).collect();
                    combined.extend(rrow.iter().cloned());
                    rows.push(combined);
                }
            }
        }
        Ok(Relation { bindings, rows })
    }

    // -----------------------------------------------------------------
    // SELECT core
    // -----------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn execute_select(
        &self,
        select: &Select,
        order_by: &[OrderByExpr],
        limit: Option<&Expr>,
        offset: Option<&Expr>,
        ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<QueryResult> {
        let relation = self.build_from(select, ctes, outer)?;

        // WHERE
        let mut filtered_rows = Vec::with_capacity(relation.rows.len());
        for row in &relation.rows {
            let keep = match &select.selection {
                None => true,
                Some(predicate) => {
                    let ctx = EvalCtx {
                        exec: self,
                        ctes,
                        bindings: &relation.bindings,
                        row,
                        group: None,
                        outer,
                    };
                    eval_expr(&ctx, predicate)?.is_truthy()
                }
            };
            if keep {
                filtered_rows.push(row.clone());
            }
        }

        // Expand the projection into concrete items.
        let projection = expand_projection(&select.projection, &relation.bindings);
        let aggregate_query = !select.group_by.is_empty()
            || projection.iter().any(|(expr, _)| contains_aggregate(expr))
            || select.having.as_ref().is_some_and(contains_aggregate);

        let columns: Vec<String> = projection.iter().map(|(_, name)| name.clone()).collect();

        // Each output row keeps the context needed to evaluate ORDER BY keys.
        struct OutputRow {
            values: Row,
            representative: Row,
            group: Option<Vec<Row>>,
        }

        let mut output: Vec<OutputRow> = Vec::new();
        if aggregate_query {
            // Group rows by the GROUP BY key (a single global group if absent).
            let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
            let mut index: HashMap<String, usize> = HashMap::new();
            for row in &filtered_rows {
                let ctx = EvalCtx {
                    exec: self,
                    ctes,
                    bindings: &relation.bindings,
                    row,
                    group: None,
                    outer,
                };
                let key_values: Vec<Value> = select
                    .group_by
                    .iter()
                    .map(|e| eval_expr(&ctx, e))
                    .collect::<StorageResult<_>>()?;
                let key = composite_key(&key_values);
                match index.get(&key) {
                    Some(&i) => groups[i].1.push(row.clone()),
                    None => {
                        index.insert(key, groups.len());
                        groups.push((key_values, vec![row.clone()]));
                    }
                }
            }
            if groups.is_empty() && select.group_by.is_empty() {
                // Aggregates over an empty input still produce one row
                // (e.g. COUNT(*) = 0).
                groups.push((Vec::new(), Vec::new()));
            }
            for (_key, group_rows) in groups {
                let representative = group_rows
                    .first()
                    .cloned()
                    .unwrap_or_else(|| vec![Value::Null; relation.width()]);
                let ctx = EvalCtx {
                    exec: self,
                    ctes,
                    bindings: &relation.bindings,
                    row: &representative,
                    group: Some(&group_rows),
                    outer,
                };
                if let Some(having) = &select.having {
                    if !eval_expr(&ctx, having)?.is_truthy() {
                        continue;
                    }
                }
                let values: Row = projection
                    .iter()
                    .map(|(expr, _)| eval_expr(&ctx, expr))
                    .collect::<StorageResult<_>>()?;
                output.push(OutputRow {
                    values,
                    representative,
                    group: Some(group_rows),
                });
            }
        } else {
            for row in &filtered_rows {
                let ctx = EvalCtx {
                    exec: self,
                    ctes,
                    bindings: &relation.bindings,
                    row,
                    group: None,
                    outer,
                };
                let values: Row = projection
                    .iter()
                    .map(|(expr, _)| eval_expr(&ctx, expr))
                    .collect::<StorageResult<_>>()?;
                output.push(OutputRow {
                    values,
                    representative: row.clone(),
                    group: None,
                });
            }
        }

        // DISTINCT
        if select.distinct {
            let mut seen = HashMap::new();
            output.retain(|o| seen.insert(composite_key(&o.values), ()).is_none());
        }

        // ORDER BY: keys may be ordinals, output aliases, or expressions over
        // the source relation (including aggregates for grouped queries).
        if !order_by.is_empty() {
            let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(output.len());
            for (i, o) in output.iter().enumerate() {
                let mut keys = Vec::with_capacity(order_by.len());
                for item in order_by {
                    let key = self.eval_order_key(
                        &item.expr,
                        &columns,
                        &o.values,
                        &relation.bindings,
                        &o.representative,
                        o.group.as_deref(),
                        ctes,
                        outer,
                    )?;
                    keys.push(key);
                }
                keyed.push((keys, i));
            }
            keyed.sort_by(|(ka, ia), (kb, ib)| {
                for (idx, item) in order_by.iter().enumerate() {
                    let ord = ka[idx].total_cmp(&kb[idx]);
                    let ord = if item.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                ia.cmp(ib)
            });
            let reordered: Vec<OutputRow> = {
                let mut by_index: Vec<Option<OutputRow>> = output.into_iter().map(Some).collect();
                keyed
                    .iter()
                    .map(|(_, i)| by_index[*i].take().expect("each index taken once"))
                    .collect()
            };
            output = reordered;
        }

        let mut result = QueryResult {
            columns,
            rows: output.into_iter().map(|o| o.values).collect(),
            ordered: !order_by.is_empty(),
        };
        self.apply_limit_offset(&mut result, limit, offset, ctes, outer)?;
        Ok(result)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_order_key(
        &self,
        expr: &Expr,
        columns: &[String],
        output_values: &Row,
        bindings: &[ColumnBinding],
        representative: &Row,
        group: Option<&[Row]>,
        ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<Value> {
        // Ordinal: ORDER BY 2
        if let Expr::Literal(Literal::Number(n)) = expr {
            if let Ok(idx) = n.parse::<usize>() {
                if idx >= 1 && idx <= output_values.len() {
                    return Ok(output_values[idx - 1].clone());
                }
            }
        }
        // Output alias: ORDER BY total
        if let Expr::Identifier(ident) = expr {
            let target = ident.normalized();
            if let Some(idx) = columns.iter().position(|c| upper_eq(c, &target)) {
                return Ok(output_values[idx].clone());
            }
        }
        // General expression over the source relation.
        let ctx = EvalCtx {
            exec: self,
            ctes,
            bindings,
            row: representative,
            group,
            outer,
        };
        eval_expr(&ctx, expr)
    }

    fn order_result(
        &self,
        result: &mut QueryResult,
        order_by: &[OrderByExpr],
    ) -> StorageResult<()> {
        if order_by.is_empty() {
            return Ok(());
        }
        // For set operations, order keys must be ordinals or output column names.
        let columns = result.columns.clone();
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(result.rows.len());
        for row in result.rows.drain(..) {
            let mut keys = Vec::with_capacity(order_by.len());
            for item in order_by {
                let key = match &item.expr {
                    Expr::Literal(Literal::Number(n)) => {
                        let idx: usize = n.parse().unwrap_or(0);
                        row.get(idx.saturating_sub(1))
                            .cloned()
                            .unwrap_or(Value::Null)
                    }
                    Expr::Identifier(ident) => {
                        let target = ident.normalized();
                        columns
                            .iter()
                            .position(|c| upper_eq(c, &target))
                            .and_then(|i| row.get(i).cloned())
                            .unwrap_or(Value::Null)
                    }
                    _ => Value::Null,
                };
                keys.push(key);
            }
            keyed.push((keys, row));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (idx, item) in order_by.iter().enumerate() {
                let ord = ka[idx].total_cmp(&kb[idx]);
                let ord = if item.asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        result.rows = keyed.into_iter().map(|(_, row)| row).collect();
        result.ordered = true;
        Ok(())
    }

    fn apply_limit_offset(
        &self,
        result: &mut QueryResult,
        limit: Option<&Expr>,
        offset: Option<&Expr>,
        ctes: &CteScope<'_>,
        outer: Option<&EvalCtx<'_>>,
    ) -> StorageResult<()> {
        let eval_count = |expr: &Expr| -> StorageResult<usize> {
            let ctx = EvalCtx {
                exec: self,
                ctes,
                bindings: &[],
                row: &[],
                group: None,
                outer,
            };
            let v = eval_expr(&ctx, expr)?;
            v.as_i64()
                .filter(|n| *n >= 0)
                .map(|n| n as usize)
                .ok_or_else(|| {
                    StorageError::TypeError(format!(
                        "LIMIT/OFFSET must be a non-negative integer, got {v}"
                    ))
                })
        };
        if let Some(offset) = offset {
            let n = eval_count(offset)?;
            if n < result.rows.len() {
                result.rows.drain(..n);
            } else {
                result.rows.clear();
            }
        }
        if let Some(limit) = limit {
            let n = eval_count(limit)?;
            result.rows.truncate(n);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn result_to_relation(result: &QueryResult, qualifier: &str) -> Relation {
    Relation {
        bindings: result
            .columns
            .iter()
            .map(|c| ColumnBinding {
                qualifier: Some(qualifier.to_string()),
                name: c.to_ascii_uppercase(),
            })
            .collect(),
        rows: result.rows.clone(),
    }
}

fn cross_product(left: Relation, right: Relation) -> Relation {
    let mut bindings = left.bindings;
    bindings.extend(right.bindings);
    let mut rows = Vec::with_capacity(left.rows.len() * right.rows.len());
    for l in &left.rows {
        for r in &right.rows {
            let mut combined = l.clone();
            combined.extend(r.iter().cloned());
            rows.push(combined);
        }
    }
    Relation { bindings, rows }
}

// ---------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------

fn eval_expr(ctx: &EvalCtx<'_>, expr: &Expr) -> StorageResult<Value> {
    match expr {
        Expr::Identifier(ident) => ctx.resolve(None, &ident.value),
        Expr::CompoundIdentifier(parts) => {
            if parts.len() >= 2 {
                let qualifier = parts[parts.len() - 2].value.clone();
                let name = parts[parts.len() - 1].value.clone();
                ctx.resolve(Some(&qualifier), &name)
            } else if let Some(only) = parts.first() {
                ctx.resolve(None, &only.value)
            } else {
                Err(StorageError::UnknownColumn("<empty>".into()))
            }
        }
        Expr::Literal(lit) => Ok(literal_value(lit)),
        Expr::BinaryOp { left, op, right } => {
            let l = eval_expr(ctx, left)?;
            let r = eval_expr(ctx, right)?;
            eval_binary(&l, *op, &r)
        }
        Expr::UnaryOp { op, expr } => {
            let v = eval_expr(ctx, expr)?;
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
        Expr::Function {
            name,
            args,
            distinct,
        } => eval_function(ctx, &name.value, args, *distinct),
        Expr::Case {
            operand,
            conditions,
            else_result,
        } => {
            let operand_value = operand.as_ref().map(|o| eval_expr(ctx, o)).transpose()?;
            for (condition, result) in conditions {
                let matched = match &operand_value {
                    Some(op_value) => {
                        let cv = eval_expr(ctx, condition)?;
                        op_value.sql_eq(&cv).unwrap_or(false)
                    }
                    None => eval_expr(ctx, condition)?.is_truthy(),
                };
                if matched {
                    return eval_expr(ctx, result);
                }
            }
            match else_result {
                Some(e) => eval_expr(ctx, e),
                None => Ok(Value::Null),
            }
        }
        Expr::Exists { subquery, negated } => {
            let result = ctx.exec.execute_query(subquery, ctx.ctes, Some(ctx))?;
            let exists = !result.rows.is_empty();
            Ok(Value::Bool(exists != *negated))
        }
        Expr::Subquery(subquery) => {
            let result = ctx.exec.execute_query(subquery, ctx.ctes, Some(ctx))?;
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
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let needle = eval_expr(ctx, expr)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let result = ctx.exec.execute_query(subquery, ctx.ctes, Some(ctx))?;
            let found = result
                .rows
                .iter()
                .filter_map(|r| r.first())
                .any(|v| needle.sql_eq(v).unwrap_or(false));
            Ok(Value::Bool(found != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval_expr(ctx, expr)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let v = eval_expr(ctx, item)?;
                if needle.sql_eq(&v).unwrap_or(false) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(ctx, expr)?;
            let lo = eval_expr(ctx, low)?;
            let hi = eval_expr(ctx, high)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let within = v.total_cmp(&lo) != std::cmp::Ordering::Less
                && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
            Ok(Value::Bool(within != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(ctx, expr)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(ctx, expr)?;
            let p = eval_expr(ctx, pattern)?;
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
        Expr::Cast { expr, data_type } => {
            let v = eval_expr(ctx, expr)?;
            Ok(cast_value(v, *data_type))
        }
        Expr::Nested(inner) => eval_expr(ctx, inner),
        Expr::Wildcard => Err(StorageError::Unsupported(
            "bare '*' outside COUNT(*) cannot be evaluated".into(),
        )),
    }
}

fn eval_function(
    ctx: &EvalCtx<'_>,
    name: &str,
    args: &[Expr],
    distinct: bool,
) -> StorageResult<Value> {
    let Some(canonical) = canonical_function_name(name) else {
        return Err(StorageError::Unsupported(format!(
            "function {} is not supported",
            name.to_ascii_uppercase()
        )));
    };
    if is_aggregate_name(canonical) {
        let group: Vec<Row> = match ctx.group {
            Some(g) => g.to_vec(),
            // An aggregate outside a grouped context aggregates over the
            // single current row (e.g. MAX(a, ...) misuse); treat the
            // current row as a one-row group for robustness.
            None => vec![ctx.row.to_vec()],
        };
        return eval_aggregate(ctx, canonical, args, distinct, &group);
    }
    match canonical {
        "UPPER" => {
            let v = eval_expr(ctx, require_arg(canonical, args, 0)?)?;
            Ok(map_text(v, |s| s.to_ascii_uppercase()))
        }
        "LOWER" => {
            let v = eval_expr(ctx, require_arg(canonical, args, 0)?)?;
            Ok(map_text(v, |s| s.to_ascii_lowercase()))
        }
        "LENGTH" | "LEN" => {
            let v = eval_expr(ctx, require_arg(canonical, args, 0)?)?;
            Ok(match v {
                Value::Null => Value::Null,
                other => Value::Int(other.to_string().len() as i64),
            })
        }
        "ABS" => {
            let v = eval_expr(ctx, require_arg(canonical, args, 0)?)?;
            Ok(match v {
                Value::Int(i) => Value::Int(i.abs()),
                Value::Float(f) => Value::Float(f.abs()),
                Value::Null => Value::Null,
                other => {
                    return Err(StorageError::TypeError(format!(
                        "ABS({other}) is not numeric"
                    )))
                }
            })
        }
        "ROUND" => {
            let v = eval_expr(ctx, require_arg(canonical, args, 0)?)?;
            let digits = match args.get(1) {
                Some(d) => eval_expr(ctx, d)?.as_i64().unwrap_or(0),
                None => 0,
            };
            Ok(match v.as_f64() {
                Some(f) => {
                    let factor = 10f64.powi(digits as i32);
                    Value::Float((f * factor).round() / factor)
                }
                None => Value::Null,
            })
        }
        "COALESCE" | "NVL" => {
            for arg in args {
                let v = eval_expr(ctx, arg)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "SUBSTR" | "SUBSTRING" => {
            let v = eval_expr(ctx, require_arg(canonical, args, 0)?)?;
            // Clamp (not truncate) past usize::MAX, mirroring the columnar
            // engine's SUBSTR so the engines agree on every platform.
            let start = usize::try_from(
                eval_expr(ctx, require_arg(canonical, args, 1)?)?
                    .as_i64()
                    .unwrap_or(1)
                    .max(1),
            )
            .unwrap_or(usize::MAX);
            let len = match args.get(2) {
                Some(l) => usize::try_from(eval_expr(ctx, l)?.as_i64().unwrap_or(0).max(0))
                    .unwrap_or(usize::MAX),
                None => usize::MAX,
            };
            Ok(map_text(v, |s| {
                s.chars().skip(start - 1).take(len).collect::<String>()
            }))
        }
        other => unreachable!("canonical scalar function {other} not dispatched"),
    }
}

fn require_arg<'e>(name: &str, args: &'e [Expr], index: usize) -> StorageResult<&'e Expr> {
    args.get(index)
        .ok_or_else(|| missing_arg_error(name, index))
}

fn eval_aggregate(
    ctx: &EvalCtx<'_>,
    name: &str,
    args: &[Expr],
    distinct: bool,
    group: &[Row],
) -> StorageResult<Value> {
    // COUNT(*) counts rows directly.
    let is_count_star = name == "COUNT" && matches!(args.first(), Some(Expr::Wildcard) | None);
    if is_count_star {
        return Ok(Value::Int(group.len() as i64));
    }
    let arg = require_arg(name, args, 0)?;
    let mut values: Vec<Value> = Vec::with_capacity(group.len());
    for row in group {
        let row_ctx = EvalCtx {
            exec: ctx.exec,
            ctes: ctx.ctes,
            bindings: ctx.bindings,
            row,
            group: None,
            outer: ctx.outer,
        };
        let v = eval_expr(&row_ctx, arg)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    finish_aggregate(name, values, distinct)
}
