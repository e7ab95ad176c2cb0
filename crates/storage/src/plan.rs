//! Logical query plans — layer 1 of the planned execution engine.
//!
//! The planner lowers a `bp-sql` [`Query`] AST into a tree of relational
//! operators ([`LogicalPlan`]): `Scan`, `Filter`, `Project`, `Join`,
//! `Aggregate`, `Sort`, `Limit` and `SetOp`. Two rewrite passes run during
//! lowering:
//!
//! * **Predicate pushdown** — the `WHERE` clause is split into conjuncts
//!   (via [`bp_sql::split_conjuncts`], shared with query decomposition) and
//!   each side-effect-free conjunct is pushed below joins to the deepest
//!   operator whose bindings cover its column references. Pushdown respects
//!   outer-join null-extension: predicates only move into the preserved
//!   side of an outer join.
//! * **Equi-join key extraction** — `ON` clauses are analyzed with
//!   [`bp_sql::equi_join_keys`]; `left.col = right.col` conjuncts become
//!   key pairs (resolved to column ordinals) that layer 2 turns into hash
//!   joins, with the remaining conjuncts kept as a residual predicate.
//!
//! `ORDER BY` keys are planned structurally: keys that name an output
//! ordinal or alias become ordinals into the projected row; all other key
//! expressions are appended to the projection as *hidden* columns, the
//! [`LogicalPlan::Sort`] node sorts by ordinal only, and the executor strips
//! hidden columns when materializing the final [`QueryResult`](crate::QueryResult).
//! (Hidden keys are computed before `DISTINCT` prunes duplicates — the
//! values are identical either way; only a sort key that *errors* on a row
//! `DISTINCT` would have pruned could tell the difference.)
//!
//! Layer 2 — the physical operators that execute these plans — lives in
//! [`crate::physical`]. The legacy tree-walking interpreter
//! (`ExecStrategy::Legacy`) is retained as the differential-testing oracle; both
//! engines share this module's binding-resolution rules so they agree on
//! name lookup exactly.

use std::collections::HashMap;
use std::fmt;

use bp_sql::{
    collect_column_refs, equi_join_keys, split_conjuncts, BinaryOperator, Expr, JoinConstraint,
    JoinOperator, Literal, OrderByExpr, Query, Select, SelectItem, SetExpr, SetOperator,
    TableFactor, UnaryOperator,
};

use crate::error::{StorageError, StorageResult};
use crate::scalar::{eq_upper, upper_eq};
use crate::snapshot::Snapshot;

// ---------------------------------------------------------------------
// Bindings
// ---------------------------------------------------------------------

/// A column binding of a relation flowing through either engine: the
/// optional qualifier (table alias) and the column name, both normalized to
/// their canonical (uppercase) form at relation construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnBinding {
    /// Normalized qualifier (table alias), if any.
    pub qualifier: Option<String>,
    /// Normalized column name.
    pub name: String,
}

/// Resolve raw identifier text against bindings with the executor's rules:
/// the comparison behaves as `binding == raw.to_ascii_uppercase()` (without
/// allocating) and the first match wins.
pub(crate) fn resolve_binding(
    bindings: &[ColumnBinding],
    qualifier: Option<&str>,
    name: &str,
) -> Option<usize> {
    bindings.iter().position(|b| {
        eq_upper(&b.name, name)
            && match qualifier {
                Some(q) => b.qualifier.as_deref().is_some_and(|bq| eq_upper(bq, q)),
                None => true,
            }
    })
}

// ---------------------------------------------------------------------
// Projection expansion (shared with the legacy interpreter)
// ---------------------------------------------------------------------

/// Expand `*` and `alias.*` into concrete (expression, output-name) pairs.
pub(crate) fn expand_projection(
    projection: &[SelectItem],
    bindings: &[ColumnBinding],
) -> Vec<(Expr, String)> {
    let mut items = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => {
                for b in bindings {
                    items.push((binding_expr(b), b.name.clone()));
                }
            }
            SelectItem::QualifiedWildcard(name) => {
                let qual = name.base().normalized();
                for b in bindings
                    .iter()
                    .filter(|b| b.qualifier.as_deref() == Some(qual.as_str()))
                {
                    items.push((binding_expr(b), b.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.value.clone(),
                    None => output_name(expr),
                };
                items.push((expr.clone(), name));
            }
        }
    }
    items
}

pub(crate) fn binding_expr(binding: &ColumnBinding) -> Expr {
    match &binding.qualifier {
        Some(q) => Expr::qcol(q.clone(), binding.name.clone()),
        None => Expr::col(binding.name.clone()),
    }
}

pub(crate) fn output_name(expr: &Expr) -> String {
    match expr {
        Expr::Identifier(i) => i.value.clone(),
        Expr::CompoundIdentifier(parts) => parts
            .last()
            .map(|p| p.value.clone())
            .unwrap_or_else(|| expr.to_string()),
        Expr::Function { name, .. } => name.value.to_ascii_uppercase(),
        _ => expr.to_string(),
    }
}

/// Whether an expression contains an aggregate function call outside of any
/// subquery. Decides between [`LogicalPlan::Project`] and
/// [`LogicalPlan::Aggregate`], with exactly the legacy interpreter's rules.
pub(crate) fn contains_aggregate(expr: &Expr) -> bool {
    if expr.is_aggregate_call() {
        return true;
    }
    match expr {
        Expr::BinaryOp { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::UnaryOp { expr, .. } => contains_aggregate(expr),
        Expr::Function { args, .. } => args.iter().any(contains_aggregate),
        Expr::Case {
            operand,
            conditions,
            else_result,
        } => {
            operand.as_deref().is_some_and(contains_aggregate)
                || conditions
                    .iter()
                    .any(|(c, r)| contains_aggregate(c) || contains_aggregate(r))
                || else_result.as_deref().is_some_and(contains_aggregate)
        }
        Expr::Cast { expr, .. } | Expr::Nested(expr) | Expr::IsNull { expr, .. } => {
            contains_aggregate(expr)
        }
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Plan nodes
// ---------------------------------------------------------------------

/// The data source of a [`LogicalPlan::Scan`].
#[derive(Debug, Clone)]
pub enum ScanSource {
    /// Base table scan (normalized table name).
    Table(String),
    /// Reference to a materialized CTE. `depth` is the planner frame the
    /// name resolved in, used by layer 2 to decide subquery-result caching.
    Cte {
        /// Normalized CTE name.
        name: String,
        /// Planner frame depth where the CTE is defined.
        depth: usize,
    },
    /// Derived table `(SELECT ...) alias`, planned as a nested query.
    Derived(Box<QueryPlan>),
    /// FROM-less `SELECT`: a single empty row.
    Empty,
}

/// A leaf scan together with the bindings it produces.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Where the rows come from.
    pub source: ScanSource,
    /// The output bindings (qualifier = table alias, names normalized).
    pub bindings: Vec<ColumnBinding>,
}

/// One `ORDER BY` key, fully resolved to a column ordinal of the row
/// flowing into the sort (visible or hidden). `ordinal: None` is a constant
/// NULL key (legal in set-operation ordering), which leaves row order
/// untouched under the engine's stable sort.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Ordinal into the input row, or `None` for a constant NULL key.
    pub ordinal: Option<usize>,
    /// Ascending?
    pub asc: bool,
}

/// A logical relational operator.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Leaf: produce rows from a table / CTE / derived query.
    Scan(Scan),
    /// Keep rows satisfying the predicate.
    Filter {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Row predicate.
        predicate: Expr,
    },
    /// Join two inputs. When `equi_keys` is non-empty layer 2 uses a hash
    /// join on those key ordinals; the `residual` predicate (the non-key
    /// conjuncts of the `ON` clause) is checked on each key-matched pair.
    /// With no keys and no residual the join is a cross product.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join type.
        operator: JoinOperator,
        /// Equi-join key pairs: (left ordinal, right-relative ordinal).
        equi_keys: Vec<(usize, usize)>,
        /// Non-key `ON` conjuncts, AND-joined.
        residual: Option<Expr>,
        /// Combined output bindings (left then right).
        bindings: Vec<ColumnBinding>,
    },
    /// Evaluate projection expressions per input row. The first
    /// `names.len()` items are the visible output columns; any further
    /// items are hidden sort keys.
    Project {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Projected expressions (visible then hidden).
        items: Vec<Expr>,
        /// Output column names (one per visible item).
        names: Vec<String>,
        /// Apply DISTINCT over the visible columns.
        distinct: bool,
    },
    /// Hash aggregation: group input rows by `group_by`, filter groups with
    /// `having`, then evaluate the projection per group. Item/`names`
    /// layout is as in [`LogicalPlan::Project`].
    Aggregate {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Grouping expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// Group filter.
        having: Option<Expr>,
        /// Projected expressions (visible then hidden).
        items: Vec<Expr>,
        /// Output column names (one per visible item).
        names: Vec<String>,
        /// Apply DISTINCT over the visible columns.
        distinct: bool,
    },
    /// Stable sort by pre-resolved key ordinals.
    Sort {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Sort keys in priority order.
        keys: Vec<SortKey>,
    },
    /// LIMIT / OFFSET (expressions evaluated once, in an empty row scope).
    Limit {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Row cap.
        limit: Option<Expr>,
        /// Rows to skip.
        offset: Option<Expr>,
    },
    /// UNION / INTERSECT / EXCEPT over two nested plans.
    SetOp {
        /// The operator.
        op: SetOperator,
        /// `ALL` variant?
        all: bool,
        /// Left operand plan.
        left: Box<QueryPlan>,
        /// Right operand plan.
        right: Box<QueryPlan>,
    },
    /// A nested query executed as its own plan (parenthesized set-operation
    /// operand).
    Nested(Box<QueryPlan>),
}

impl LogicalPlan {
    /// The bindings this operator's output rows can resolve names against.
    /// Projection-producing operators return an empty slice: name resolution
    /// never crosses them (sorting above them is ordinal-based).
    pub fn bindings(&self) -> &[ColumnBinding] {
        match self {
            LogicalPlan::Scan(scan) => &scan.bindings,
            LogicalPlan::Filter { input, .. } => input.bindings(),
            LogicalPlan::Join { bindings, .. } => bindings,
            LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => input.bindings(),
            LogicalPlan::Project { .. }
            | LogicalPlan::Aggregate { .. }
            | LogicalPlan::SetOp { .. }
            | LogicalPlan::Nested(_) => &[],
        }
    }
}

/// A fully planned query: CTEs (materialized in order at execution time),
/// the operator tree, and the visible output shape.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// CTE plans in declaration order (normalized name, plan).
    pub ctes: Vec<(String, QueryPlan)>,
    /// The operator tree.
    pub root: LogicalPlan,
    /// Visible output column names.
    pub columns: Vec<String>,
    /// Whether the result is ordered (outermost ORDER BY present).
    pub ordered: bool,
}

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

/// Plans `bp-sql` queries against a storage snapshot's catalog.
pub struct Planner<'a> {
    db: &'a Snapshot,
    /// CTE name frames visible at the current planning point (outermost
    /// first), mapping normalized CTE name → output column names.
    frames: Vec<HashMap<String, Vec<String>>>,
    /// Estimated row counts of planned CTEs, parallel to `frames`, feeding
    /// the cost model's `ScanSource::Cte` cardinalities.
    cte_rows: Vec<HashMap<String, f64>>,
    /// Whether statistics-driven join reordering runs (`true` by default;
    /// disabled for the syntactic baseline in benchmarks and differential
    /// tests).
    cost_based: bool,
    /// How the optimizer treated this planner's join spines.
    optimizer: crate::cost::OptimizerStats,
}

impl<'a> Planner<'a> {
    /// Create a planner over a snapshot.
    pub fn new(db: &'a Snapshot) -> Self {
        Planner {
            db,
            frames: Vec::new(),
            cte_rows: Vec::new(),
            cost_based: true,
            optimizer: crate::cost::OptimizerStats::default(),
        }
    }

    /// Create a planner that starts inside existing CTE scopes. Used by
    /// layer 2 to plan subqueries found in expressions, so their CTE
    /// references resolve against the scopes of their enclosing query.
    /// (No cardinality context rides along: outer CTE estimates default.)
    pub(crate) fn with_frames(db: &'a Snapshot, frames: Vec<HashMap<String, Vec<String>>>) -> Self {
        let cte_rows = vec![HashMap::new(); frames.len()];
        Planner {
            db,
            frames,
            cte_rows,
            cost_based: true,
            optimizer: crate::cost::OptimizerStats::default(),
        }
    }

    /// Enable or disable statistics-driven join reordering. Disabling it
    /// is the *syntactic baseline*: joins compile in the order the query
    /// spells them, exactly as before the cost model existed.
    pub fn with_cost_based(mut self, enabled: bool) -> Self {
        self.cost_based = enabled;
        self
    }

    /// The optimizer counters accumulated over everything this planner has
    /// planned so far.
    pub fn optimizer_stats(&self) -> crate::cost::OptimizerStats {
        self.optimizer
    }

    /// Plan a query into a logical plan.
    pub fn plan(&mut self, query: &Query) -> StorageResult<QueryPlan> {
        self.frames.push(HashMap::new());
        self.cte_rows.push(HashMap::new());
        let result = self.plan_query_inner(query);
        self.frames.pop();
        self.cte_rows.pop();
        result
    }

    fn plan_query_inner(&mut self, query: &Query) -> StorageResult<QueryPlan> {
        let mut ctes = Vec::new();
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                let sub = self.plan(&cte.query)?;
                let name = cte.name.normalized();
                self.frames
                    .last_mut()
                    .expect("frame pushed by plan()")
                    .insert(name.clone(), sub.columns.clone());
                let rows =
                    crate::cost::Estimator::with_cte_rows(self.db, &self.cte_rows).query_rows(&sub);
                if let Some(frame) = self.cte_rows.last_mut() {
                    frame.insert(name.clone(), rows);
                }
                ctes.push((name, sub));
            }
        }
        match &query.body {
            SetExpr::Select(select) => {
                let (root, columns) = self.plan_select(
                    select,
                    &query.order_by,
                    query.limit.as_ref(),
                    query.offset.as_ref(),
                )?;
                Ok(QueryPlan {
                    ctes,
                    root,
                    columns,
                    ordered: !query.order_by.is_empty(),
                })
            }
            body => {
                let operand = self.plan_set_operand(body)?;
                let columns = operand.columns.clone();
                // A bare parenthesized query keeps its own ordering when the
                // outer query adds none; a set operation result is unordered.
                let inner_ordered = matches!(body, SetExpr::Query(_)) && operand.ordered;
                let mut root = LogicalPlan::Nested(Box::new(operand));
                if !query.order_by.is_empty() {
                    let keys = query
                        .order_by
                        .iter()
                        .map(|item| SortKey {
                            ordinal: set_op_order_ordinal(&item.expr, &columns),
                            asc: item.asc,
                        })
                        .collect();
                    root = LogicalPlan::Sort {
                        input: Box::new(root),
                        keys,
                    };
                }
                if query.limit.is_some() || query.offset.is_some() {
                    root = LogicalPlan::Limit {
                        input: Box::new(root),
                        limit: query.limit.clone(),
                        offset: query.offset.clone(),
                    };
                }
                Ok(QueryPlan {
                    ctes,
                    root,
                    columns,
                    ordered: !query.order_by.is_empty() || inner_ordered,
                })
            }
        }
    }

    fn plan_set_operand(&mut self, body: &SetExpr) -> StorageResult<QueryPlan> {
        match body {
            SetExpr::Select(select) => {
                let (root, columns) = self.plan_select(select, &[], None, None)?;
                Ok(QueryPlan {
                    ctes: Vec::new(),
                    root,
                    columns,
                    ordered: false,
                })
            }
            SetExpr::Query(query) => self.plan(query),
            SetExpr::SetOperation {
                op,
                all,
                left,
                right,
            } => {
                let l = self.plan_set_operand(left)?;
                let r = self.plan_set_operand(right)?;
                let columns = l.columns.clone();
                Ok(QueryPlan {
                    ctes: Vec::new(),
                    root: LogicalPlan::SetOp {
                        op: *op,
                        all: *all,
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    columns,
                    ordered: false,
                })
            }
        }
    }

    // -----------------------------------------------------------------
    // SELECT lowering
    // -----------------------------------------------------------------

    fn plan_select(
        &mut self,
        select: &Select,
        order_by: &[OrderByExpr],
        limit: Option<&Expr>,
        offset: Option<&Expr>,
    ) -> StorageResult<(LogicalPlan, Vec<String>)> {
        // FROM: joins left-to-right, comma-separated factors cross-joined.
        let mut from_plan: Option<LogicalPlan> = None;
        for twj in &select.from {
            let mut relation = self.plan_table_factor(&twj.relation)?;
            for join in &twj.joins {
                let right = self.plan_table_factor(&join.relation)?;
                relation = self.plan_join(relation, right, join.operator, &join.constraint)?;
            }
            from_plan = Some(match from_plan {
                None => relation,
                Some(left) => {
                    self.plan_join(left, relation, JoinOperator::Cross, &JoinConstraint::None)?
                }
            });
        }
        let mut plan = from_plan.unwrap_or(LogicalPlan::Scan(Scan {
            source: ScanSource::Empty,
            bindings: Vec::new(),
        }));
        let bindings = plan.bindings().to_vec();

        // WHERE with predicate pushdown. Pushdown evaluates predicates on
        // (and eliminates) rows *earlier* than the oracle does, which is
        // unobservable only while no part of the WHERE clause can raise a
        // row-dependent error: an erroring conjunct left in the residual
        // would otherwise be silently skipped on rows a pushed conjunct
        // filtered out. So the clause is pushed only when every conjunct is
        // error-free; otherwise it stays above the join untouched.
        if let Some(selection) = &select.selection {
            let conjuncts = split_conjuncts(selection);
            if conjuncts.iter().all(|c| benign(c, &bindings)) {
                let mut residual: Vec<Expr> = Vec::new();
                for conjunct in conjuncts {
                    match pushable_conjunct(conjunct, &bindings) {
                        Some(ordinals) => {
                            if let Err(unpushed) = try_push(&mut plan, conjunct.clone(), &ordinals)
                            {
                                residual.push(unpushed);
                            }
                        }
                        None => residual.push(conjunct.clone()),
                    }
                }
                if let Some(predicate) = and_join(residual) {
                    plan = LogicalPlan::Filter {
                        input: Box::new(plan),
                        predicate,
                    };
                }
            } else {
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: selection.clone(),
                };
            }
        }

        // Statistics-driven join reordering over the FROM spine (see
        // [`crate::cost`]). Association-only, so output bytes are
        // structurally unchanged; runs after pushdown so pushed filters
        // ride along inside their leaves and feed the leaf estimates.
        {
            let est = crate::cost::Estimator::with_cte_rows(self.db, &self.cte_rows);
            plan = crate::cost::reorder(&est, plan, self.cost_based, &mut self.optimizer);
        }

        // Projection and aggregate detection (legacy rules).
        let projection = expand_projection(&select.projection, &bindings);
        let aggregate_query = !select.group_by.is_empty()
            || projection.iter().any(|(e, _)| contains_aggregate(e))
            || select.having.as_ref().is_some_and(contains_aggregate);
        let columns: Vec<String> = projection.iter().map(|(_, n)| n.clone()).collect();
        let mut items: Vec<Expr> = projection.into_iter().map(|(e, _)| e).collect();
        let visible = items.len();

        // ORDER BY keys: output ordinal, output alias, or hidden expression.
        let mut sort_keys = Vec::with_capacity(order_by.len());
        for item in order_by {
            let resolved = match &item.expr {
                Expr::Literal(Literal::Number(n)) => n
                    .parse::<usize>()
                    .ok()
                    .filter(|idx| *idx >= 1 && *idx <= visible)
                    .map(|idx| idx - 1),
                Expr::Identifier(ident) => {
                    let target = ident.normalized();
                    columns.iter().position(|c| upper_eq(c, &target))
                }
                _ => None,
            };
            let ordinal = resolved.unwrap_or_else(|| {
                items.push(item.expr.clone());
                items.len() - 1
            });
            sort_keys.push(SortKey {
                ordinal: Some(ordinal),
                asc: item.asc,
            });
        }

        let mut node = if aggregate_query {
            LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: select.group_by.clone(),
                having: select.having.clone(),
                items,
                names: columns.clone(),
                distinct: select.distinct,
            }
        } else {
            LogicalPlan::Project {
                input: Box::new(plan),
                items,
                names: columns.clone(),
                distinct: select.distinct,
            }
        };
        if !sort_keys.is_empty() {
            node = LogicalPlan::Sort {
                input: Box::new(node),
                keys: sort_keys,
            };
        }
        if limit.is_some() || offset.is_some() {
            node = LogicalPlan::Limit {
                input: Box::new(node),
                limit: limit.cloned(),
                offset: offset.cloned(),
            };
        }
        Ok((node, columns))
    }

    fn plan_table_factor(&mut self, factor: &TableFactor) -> StorageResult<LogicalPlan> {
        match factor {
            TableFactor::Table { name, alias } => {
                let base = name.base().normalized();
                let qualifier = alias
                    .as_ref()
                    .map(|a| a.normalized())
                    .unwrap_or_else(|| base.clone());
                // CTEs shadow base tables; innermost scope wins.
                for (depth, frame) in self.frames.iter().enumerate().rev() {
                    if let Some(columns) = frame.get(&base) {
                        let bindings = columns
                            .iter()
                            .map(|c| ColumnBinding {
                                qualifier: Some(qualifier.clone()),
                                name: c.to_ascii_uppercase(),
                            })
                            .collect();
                        return Ok(LogicalPlan::Scan(Scan {
                            source: ScanSource::Cte { name: base, depth },
                            bindings,
                        }));
                    }
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
                Ok(LogicalPlan::Scan(Scan {
                    source: ScanSource::Table(base),
                    bindings,
                }))
            }
            TableFactor::Derived { subquery, alias } => {
                let sub = self.plan(subquery)?;
                let qualifier = alias
                    .as_ref()
                    .map(|a| a.normalized())
                    .unwrap_or_else(|| "_DERIVED".to_string());
                let bindings = sub
                    .columns
                    .iter()
                    .map(|c| ColumnBinding {
                        qualifier: Some(qualifier.clone()),
                        name: c.to_ascii_uppercase(),
                    })
                    .collect();
                Ok(LogicalPlan::Scan(Scan {
                    source: ScanSource::Derived(Box::new(sub)),
                    bindings,
                }))
            }
        }
    }

    fn plan_join(
        &mut self,
        left: LogicalPlan,
        right: LogicalPlan,
        operator: JoinOperator,
        constraint: &JoinConstraint,
    ) -> StorageResult<LogicalPlan> {
        let left_width = left.bindings().len();
        let mut bindings = left.bindings().to_vec();
        bindings.extend(right.bindings().iter().cloned());

        let (equi_keys, residual) = match constraint {
            JoinConstraint::None => (Vec::new(), None),
            JoinConstraint::On(on) => {
                let extraction = equi_join_keys(on);
                let mut keys = Vec::new();
                let mut residual: Vec<Expr> = Vec::new();
                for (a, b, original) in extraction.pairs {
                    let qa = a.qualifier.as_ref().map(|i| i.value.as_str());
                    let qb = b.qualifier.as_ref().map(|i| i.value.as_str());
                    let ra = resolve_binding(&bindings, qa, &a.column.value);
                    let rb = resolve_binding(&bindings, qb, &b.column.value);
                    match (ra, rb) {
                        (Some(oa), Some(ob)) if oa < left_width && ob >= left_width => {
                            keys.push((oa, ob - left_width));
                        }
                        (Some(oa), Some(ob)) if ob < left_width && oa >= left_width => {
                            keys.push((ob, oa - left_width));
                        }
                        _ => residual.push(original.clone()),
                    }
                }
                residual.extend(extraction.residual.into_iter().cloned());
                // A hash join evaluates the residual only on key-matched
                // pairs; the oracle evaluates the full ON on every pair. To
                // keep even error behavior identical, take the hash path
                // only when every residual conjunct is benign — else fall
                // back to a nested loop over the original predicate.
                if !keys.is_empty() && !residual.iter().all(|r| benign(r, &bindings)) {
                    keys.clear();
                    residual = vec![on.clone()];
                }
                (keys, and_join(residual))
            }
        };

        Ok(LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            operator,
            equi_keys,
            residual,
            bindings,
        })
    }
}

/// Rebuild a conjunction from conjuncts (left-associated, original order).
pub(crate) fn and_join(conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut iter = conjuncts.into_iter();
    let first = iter.next()?;
    Some(iter.fold(first, Expr::and))
}

/// Sort-key resolution for set-operation ordering: keys must be ordinals or
/// output column names; anything else is a constant NULL key (mirroring the
/// legacy interpreter).
fn set_op_order_ordinal(expr: &Expr, columns: &[String]) -> Option<usize> {
    match expr {
        Expr::Literal(Literal::Number(n)) => {
            let idx: usize = n.parse().unwrap_or(0);
            let i = idx.saturating_sub(1);
            (i < columns.len()).then_some(i)
        }
        Expr::Identifier(ident) => {
            let target = ident.normalized();
            columns.iter().position(|c| upper_eq(c, &target))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------

/// Classify a WHERE conjunct for pushdown. Returns the ordinals (into the
/// FROM relation's combined bindings) of every column it references, or
/// `None` if it must stay above the join: it contains a subquery or
/// aggregate, it references columns that do not resolve locally (outer /
/// unknown names), or its evaluation can raise a row-dependent error —
/// evaluating such a predicate on rows the join would have eliminated must
/// remain unobservable.
fn pushable_conjunct(conjunct: &Expr, bindings: &[ColumnBinding]) -> Option<Vec<usize>> {
    if !error_free(conjunct) {
        return None;
    }
    let mut refs = Vec::new();
    collect_column_refs(conjunct, &mut refs);
    let mut ordinals = Vec::with_capacity(refs.len());
    for r in refs {
        let qualifier = r.qualifier.as_ref().map(|i| i.value.as_str());
        ordinals.push(resolve_binding(bindings, qualifier, &r.column.value)?);
    }
    Some(ordinals)
}

/// Whether an expression provably cannot raise an error when evaluated
/// against rows of `bindings`: its shape is [`error_free`] *and* every
/// column reference resolves locally (an unresolvable reference raises
/// `UnknownColumn` at evaluation time — or defers to an outer scope that
/// might — so it does not qualify). This is the gate for every rewrite
/// that changes *which rows* a predicate is evaluated on.
pub(crate) fn benign(expr: &Expr, bindings: &[ColumnBinding]) -> bool {
    if !error_free(expr) {
        return false;
    }
    let mut refs = Vec::new();
    collect_column_refs(expr, &mut refs);
    refs.iter().all(|r| {
        let qualifier = r.qualifier.as_ref().map(|i| i.value.as_str());
        resolve_binding(bindings, qualifier, &r.column.value).is_some()
    })
}

/// Whether evaluating this expression can never raise an error, for any
/// input row, *assuming its column references resolve* (see [`benign`]).
/// Conservative: only comparison/logic/pattern/list/null-test shapes over
/// columns and literals qualify (no arithmetic, functions, CASE, or
/// subqueries).
fn error_free(expr: &Expr) -> bool {
    match expr {
        Expr::Identifier(_) | Expr::CompoundIdentifier(_) | Expr::Literal(_) => true,
        Expr::BinaryOp { left, op, right } => {
            use BinaryOperator::*;
            matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq | And | Or | Concat)
                && error_free(left)
                && error_free(right)
        }
        Expr::UnaryOp {
            op: UnaryOperator::Not,
            expr,
        } => error_free(expr),
        Expr::IsNull { expr, .. } => error_free(expr),
        Expr::Like { expr, pattern, .. } => error_free(expr) && error_free(pattern),
        Expr::Between {
            expr, low, high, ..
        } => error_free(expr) && error_free(low) && error_free(high),
        Expr::InList { expr, list, .. } => error_free(expr) && list.iter().all(error_free),
        Expr::Cast { expr, .. } => error_free(expr),
        Expr::Nested(inner) => error_free(inner),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Sargable predicate analysis
// ---------------------------------------------------------------------

/// A WHERE conjunct in a shape a secondary index can answer directly
/// (see [`crate::table`]'s `ColumnIndex`). Classification lives here with
/// the other predicate analyses; the physical compiler turns atoms into
/// index access paths.
#[derive(Debug, Clone)]
pub(crate) enum SargAtom {
    /// `col = literal` (either operand order).
    Point {
        col: usize,
        key: crate::value::Value,
    },
    /// `col </<=/>/>= literal` (either operand order, operator mirrored) or
    /// `col BETWEEN lit AND lit`. Each bound carries its inclusivity. The
    /// bounds always come from a *single* conjunct, so falling back to
    /// re-evaluating them reproduces that conjunct's truth table exactly.
    Range {
        col: usize,
        lower: Option<(crate::value::Value, bool)>,
        upper: Option<(crate::value::Value, bool)>,
    },
    /// `col IN (literal, literal, …)`.
    InList {
        col: usize,
        keys: Vec<crate::value::Value>,
    },
}

/// The column ordinal named by a bare (possibly parenthesized) column
/// reference, if it resolves against `bindings`.
pub(crate) fn sarg_column(expr: &Expr, bindings: &[ColumnBinding]) -> Option<usize> {
    match expr {
        Expr::Nested(inner) => sarg_column(inner, bindings),
        _ => {
            let cr = bp_sql::column_ref(expr)?;
            let qualifier = cr.qualifier.as_ref().map(|i| i.value.as_str());
            resolve_binding(bindings, qualifier, &cr.column.value)
        }
    }
}

/// The constant value of a bare (possibly parenthesized) literal.
fn sarg_literal(expr: &Expr) -> Option<crate::value::Value> {
    match expr {
        Expr::Literal(lit) => Some(crate::scalar::literal_value(lit)),
        Expr::Nested(inner) => sarg_literal(inner),
        _ => None,
    }
}

/// Mirror a comparison so the column sits on the left: `5 < id` ⇔ `id > 5`.
fn mirror_cmp(op: BinaryOperator) -> Option<BinaryOperator> {
    use BinaryOperator::*;
    match op {
        Eq => Some(Eq),
        Lt => Some(Gt),
        LtEq => Some(GtEq),
        Gt => Some(Lt),
        GtEq => Some(LtEq),
        _ => None,
    }
}

/// Classify one conjunct as an index-answerable atom, or `None` if it must
/// be evaluated as an ordinary predicate. Only `column ⋈ literal` shapes
/// qualify — never column-to-column or arithmetic — so the atom's truth
/// depends on a single indexed cell per row.
pub(crate) fn sargable_atom(conjunct: &Expr, bindings: &[ColumnBinding]) -> Option<SargAtom> {
    match conjunct {
        Expr::Nested(inner) => sargable_atom(inner, bindings),
        Expr::BinaryOp { left, op, right } => {
            use BinaryOperator::*;
            let (col, key, op) = match (sarg_column(left, bindings), sarg_literal(right)) {
                (Some(col), Some(key)) => (col, key, *op),
                _ => match (sarg_literal(left), sarg_column(right, bindings)) {
                    (Some(key), Some(col)) => (col, key, mirror_cmp(*op)?),
                    _ => return None,
                },
            };
            match op {
                Eq => Some(SargAtom::Point { col, key }),
                Lt => Some(SargAtom::Range {
                    col,
                    lower: None,
                    upper: Some((key, false)),
                }),
                LtEq => Some(SargAtom::Range {
                    col,
                    lower: None,
                    upper: Some((key, true)),
                }),
                Gt => Some(SargAtom::Range {
                    col,
                    lower: Some((key, false)),
                    upper: None,
                }),
                GtEq => Some(SargAtom::Range {
                    col,
                    lower: Some((key, true)),
                    upper: None,
                }),
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let col = sarg_column(expr, bindings)?;
            let lo = sarg_literal(low)?;
            let hi = sarg_literal(high)?;
            Some(SargAtom::Range {
                col,
                lower: Some((lo, true)),
                upper: Some((hi, true)),
            })
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let col = sarg_column(expr, bindings)?;
            let keys = list.iter().map(sarg_literal).collect::<Option<Vec<_>>>()?;
            Some(SargAtom::InList { col, keys })
        }
        _ => None,
    }
}

/// Push a conjunct as deep as outer-join semantics allow. On success the
/// plan is mutated in place; otherwise the conjunct is handed back.
fn try_push(plan: &mut LogicalPlan, conjunct: Expr, ordinals: &[usize]) -> Result<(), Expr> {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            operator,
            residual,
            bindings,
            ..
        } => {
            // Reducing a join's input also reduces the pairs its ON residual
            // is evaluated on; if that residual can error, the oracle (which
            // sees every pair) could fail where the pushed plan succeeds.
            if residual.as_ref().is_some_and(|r| !benign(r, bindings)) {
                return Err(conjunct);
            }
            let left_width = left.bindings().len();
            let (left_ok, right_ok) = match operator {
                JoinOperator::Inner | JoinOperator::Cross => (true, true),
                JoinOperator::LeftOuter => (true, false),
                JoinOperator::RightOuter => (false, true),
                JoinOperator::FullOuter => (false, false),
            };
            if left_ok && ordinals.iter().all(|&o| o < left_width) {
                return try_push(left, conjunct, ordinals);
            }
            if right_ok && ordinals.iter().all(|&o| o >= left_width) {
                let shifted: Vec<usize> = ordinals.iter().map(|o| o - left_width).collect();
                return try_push(right, conjunct, &shifted);
            }
            Err(conjunct)
        }
        // Filters in the FROM tree were created by earlier pushdowns and sit
        // directly above scans; conjoin in original order.
        LogicalPlan::Filter { predicate, .. } => {
            let existing = std::mem::replace(predicate, Expr::Wildcard);
            *predicate = Expr::and(existing, conjunct);
            Ok(())
        }
        LogicalPlan::Scan(_) => {
            let input = std::mem::replace(
                plan,
                LogicalPlan::Scan(Scan {
                    source: ScanSource::Empty,
                    bindings: Vec::new(),
                }),
            );
            *plan = LogicalPlan::Filter {
                input: Box::new(input),
                predicate: conjunct,
            };
            Ok(())
        }
        _ => Err(conjunct),
    }
}

// ---------------------------------------------------------------------
// Display
// ---------------------------------------------------------------------

impl QueryPlan {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        for (name, cte) in &self.ctes {
            writeln!(f, "{:indent$}Cte {name}", "", indent = indent)?;
            cte.fmt_indented(f, indent + 2)?;
        }
        self.root.fmt_indented(f, indent)
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

impl LogicalPlan {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = format!("{:indent$}", "", indent = indent);
        match self {
            LogicalPlan::Scan(scan) => match &scan.source {
                ScanSource::Table(name) => writeln!(f, "{pad}Scan {name}"),
                ScanSource::Cte { name, .. } => writeln!(f, "{pad}ScanCte {name}"),
                ScanSource::Empty => writeln!(f, "{pad}ScanEmpty"),
                ScanSource::Derived(sub) => {
                    writeln!(f, "{pad}ScanDerived")?;
                    sub.fmt_indented(f, indent + 2)
                }
            },
            LogicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter {predicate}")?;
                input.fmt_indented(f, indent + 2)
            }
            LogicalPlan::Join {
                left,
                right,
                operator,
                equi_keys,
                residual,
                ..
            } => {
                let kind = if equi_keys.is_empty() {
                    "NestedLoopJoin"
                } else {
                    "HashJoin"
                };
                write!(f, "{pad}{kind} {}", operator.as_sql())?;
                if !equi_keys.is_empty() {
                    write!(f, " keys={equi_keys:?}")?;
                }
                if let Some(residual) = residual {
                    write!(f, " residual={residual}")?;
                }
                writeln!(f)?;
                left.fmt_indented(f, indent + 2)?;
                right.fmt_indented(f, indent + 2)
            }
            LogicalPlan::Project {
                input,
                items,
                names,
                distinct,
            } => {
                writeln!(
                    f,
                    "{pad}Project{} [{} visible, {} hidden]",
                    if *distinct { " DISTINCT" } else { "" },
                    names.len(),
                    items.len() - names.len()
                )?;
                input.fmt_indented(f, indent + 2)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                names,
                items,
                distinct,
                ..
            } => {
                writeln!(
                    f,
                    "{pad}HashAggregate{} [{} keys, {} visible, {} hidden]",
                    if *distinct { " DISTINCT" } else { "" },
                    group_by.len(),
                    names.len(),
                    items.len() - names.len()
                )?;
                input.fmt_indented(f, indent + 2)
            }
            LogicalPlan::Sort { input, keys } => {
                let rendered: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{}{}",
                            k.ordinal
                                .map(|o| o.to_string())
                                .unwrap_or_else(|| "NULL".into()),
                            if k.asc { "" } else { " DESC" }
                        )
                    })
                    .collect();
                writeln!(f, "{pad}Sort [{}]", rendered.join(", "))?;
                input.fmt_indented(f, indent + 2)
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                write!(f, "{pad}Limit")?;
                if let Some(l) = limit {
                    write!(f, " limit={l}")?;
                }
                if let Some(o) = offset {
                    write!(f, " offset={o}")?;
                }
                writeln!(f)?;
                input.fmt_indented(f, indent + 2)
            }
            LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
            } => {
                writeln!(
                    f,
                    "{pad}SetOp {}{}",
                    op.as_str(),
                    if *all { " ALL" } else { "" }
                )?;
                left.fmt_indented(f, indent + 2)?;
                right.fmt_indented(f, indent + 2)
            }
            LogicalPlan::Nested(sub) => {
                writeln!(f, "{pad}Nested")?;
                sub.fmt_indented(f, indent + 2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::schema::{Column, TableSchema};
    use bp_sql::{parse_query, DataType};

    fn two_table_db() -> Database {
        let mut db = Database::new("plans");
        db.create_table(TableSchema::new(
            "child",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("parent_id", DataType::Integer),
                Column::new("amount", DataType::Float),
                Column::new("tag", DataType::Text),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "parent",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("name", DataType::Text),
            ],
        ))
        .unwrap();
        db
    }

    fn plan_sql(db: &Database, sql: &str) -> QueryPlan {
        let query = parse_query(sql).unwrap();
        Planner::new(&db.snapshot()).plan(&query).unwrap()
    }

    #[test]
    fn equi_join_keys_are_extracted() {
        let db = two_table_db();
        let plan = plan_sql(
            &db,
            "SELECT c.tag, p.name FROM child c JOIN parent p ON c.parent_id = p.id",
        );
        let rendered = plan.to_string();
        assert!(rendered.contains("HashJoin"), "plan:\n{rendered}");
        assert!(rendered.contains("keys=[(1, 0)]"), "plan:\n{rendered}");
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let db = two_table_db();
        let plan = plan_sql(
            &db,
            "SELECT c.tag FROM child c JOIN parent p ON c.parent_id > p.id",
        );
        assert!(plan.to_string().contains("NestedLoopJoin"));
    }

    #[test]
    fn error_capable_residual_disables_hash_join() {
        let db = two_table_db();
        // `amount / id` can raise a division error, and the oracle evaluates
        // the full ON on every pair — so the planner must not hash-join.
        let plan = plan_sql(
            &db,
            "SELECT c.tag FROM child c JOIN parent p \
             ON c.parent_id = p.id AND c.amount / p.id > 0",
        );
        assert!(plan.to_string().contains("NestedLoopJoin"), "{plan}");
        // An error-free residual keeps the hash path.
        let plan2 = plan_sql(
            &db,
            "SELECT c.tag FROM child c JOIN parent p \
             ON c.parent_id = p.id AND c.tag <> p.name",
        );
        assert!(plan2.to_string().contains("HashJoin"), "{plan2}");
    }

    #[test]
    fn where_predicates_push_below_inner_joins() {
        let db = two_table_db();
        let plan = plan_sql(
            &db,
            "SELECT c.tag FROM child c JOIN parent p ON c.parent_id = p.id \
             WHERE p.name = 'x' AND c.amount > c.id AND 1 = 1",
        );
        let rendered = plan.to_string();
        // p.name = 'x' lands above the parent scan; c.amount > c.id above child;
        // 1 = 1 lands on the leftmost scan.
        let filter_count = rendered.matches("Filter").count();
        assert!(
            filter_count >= 2,
            "expected pushed filters, plan:\n{rendered}"
        );
        let join_pos = rendered.find("HashJoin").unwrap();
        let name_filter = rendered.find("Filter p.name = 'x'").unwrap();
        assert!(
            name_filter > join_pos,
            "filter should sit below the join, plan:\n{rendered}"
        );
    }

    #[test]
    fn pushdown_respects_left_outer_join() {
        let db = two_table_db();
        let plan = plan_sql(
            &db,
            "SELECT c.tag FROM child c LEFT JOIN parent p ON c.parent_id = p.id WHERE p.name = 'x'",
        );
        let rendered = plan.to_string();
        // The predicate on the null-extended side must stay above the join.
        let join_pos = rendered.find("HashJoin").unwrap();
        let filter_pos = rendered.find("Filter").unwrap();
        assert!(filter_pos < join_pos, "plan:\n{rendered}");
    }

    #[test]
    fn error_capable_where_disables_pushdown_entirely() {
        let db = two_table_db();
        // The subquery conjunct can error, so nothing is pushed: if `tag =
        // 'a'` pre-filtered rows, the subquery would be evaluated on fewer
        // rows than the oracle evaluates it on, and an error the oracle
        // raises could be suppressed. The whole clause stays as one filter.
        let plan = plan_sql(
            &db,
            "SELECT tag FROM child WHERE amount > (SELECT id FROM parent) AND tag = 'a'",
        );
        let rendered = plan.to_string();
        assert!(
            rendered.contains("Filter amount > (SELECT id FROM parent) AND tag = 'a'"),
            "plan:\n{rendered}"
        );
        assert_eq!(rendered.matches("Filter").count(), 1, "plan:\n{rendered}");
    }

    #[test]
    fn order_by_expression_becomes_hidden_column() {
        let db = two_table_db();
        let plan = plan_sql(&db, "SELECT tag FROM child ORDER BY amount * -1");
        let rendered = plan.to_string();
        assert!(rendered.contains("1 hidden"), "plan:\n{rendered}");
        assert!(rendered.contains("Sort [1]"), "plan:\n{rendered}");
        // Ordinal and alias keys need no hidden columns.
        let plan2 = plan_sql(
            &db,
            "SELECT tag, amount AS a FROM child ORDER BY 2 DESC, tag",
        );
        let rendered2 = plan2.to_string();
        assert!(rendered2.contains("0 hidden"), "plan:\n{rendered2}");
        assert!(rendered2.contains("Sort [1 DESC, 0]"), "plan:\n{rendered2}");
    }

    #[test]
    fn aggregates_plan_to_hash_aggregate() {
        let db = two_table_db();
        let plan = plan_sql(
            &db,
            "SELECT tag, COUNT(*) FROM child GROUP BY tag HAVING COUNT(*) > 1",
        );
        assert!(plan
            .to_string()
            .contains("HashAggregate [1 keys, 2 visible"));
    }

    #[test]
    fn cte_scans_resolve_to_cte_source() {
        let db = two_table_db();
        let plan = plan_sql(&db, "WITH c AS (SELECT tag FROM child) SELECT * FROM c");
        let rendered = plan.to_string();
        assert!(rendered.contains("Cte C"), "plan:\n{rendered}");
        assert!(rendered.contains("ScanCte C"), "plan:\n{rendered}");
        // `SELECT *` over a CTE re-expands the wildcard from normalized
        // bindings, exactly as the legacy engine does.
        assert_eq!(plan.columns, vec!["TAG"]);
    }

    #[test]
    fn unknown_table_errors_at_plan_time() {
        let db = two_table_db();
        let query = parse_query("SELECT * FROM missing").unwrap();
        assert!(matches!(
            Planner::new(&db.snapshot()).plan(&query),
            Err(StorageError::UnknownTable(_))
        ));
    }
}
