//! Physical operators — layer 2 of the planned execution engine.
//!
//! [`compile_query`] lowers a query through [`crate::plan`] (logical
//! planning + rewrites) and the `compile` submodule (ordinal resolution,
//! join algorithm selection, subquery compilation); [`exec_compiled`] runs
//! the resulting physical plan. Compared to the legacy tree-walking interpreter
//! the planned engine:
//!
//! * joins equi-key pairs with a **hash join** instead of a nested loop;
//! * resolves column names **once at compile time** to ordinals instead of
//!   uppercasing and scanning bindings per cell;
//! * chains CTE scopes by **parent pointer** instead of cloning
//!   materialized CTE results into every subquery;
//! * **caches uncorrelated subquery results** instead of re-executing them
//!   per row;
//! * evaluates pushed-down filters before joins instead of after.
//!
//! The compiled plan executes over **columnar batches** (see the `batch`
//! and `columnar` submodules): typed column vectors with null bitmaps,
//! selection-vector filters, vectorized expression kernels, and
//! column-slice join/group keys. Blocking and rare operators (sort, set
//! operations, nested-loop joins, derived tables) reuse the row helpers in
//! this module. The legacy interpreter behind [`ExecStrategy::Legacy`] is
//! the independent oracle: both engines must produce identical
//! [`QueryResult`]s (see the workspace `differential` proptest suite).

pub(crate) mod batch;
mod columnar;
mod compile;
mod explain;
mod expr;
mod join;
pub(crate) mod parallel;
pub(crate) mod verify;

use std::collections::{HashMap, HashSet};

use bp_sql::{Query, SetOperator};

use bp_sql::BinaryOperator;

use crate::error::{StorageError, StorageResult};
use crate::plan::{ColumnBinding, Planner, SortKey};
use crate::result::QueryResult;
use crate::scalar::{composite_key, eval_binary, finish_aggregate};
use crate::snapshot::Snapshot;
use crate::table::{Row, Table};
use crate::value::Value;

use compile::Compiler;
use expr::{EvalEnv, PhysExpr, SubPlan};
use parallel::run_morsels;
pub use parallel::{available_threads, batch_map};
pub use verify::{verify_logical, verify_plan, PlanViolation, VerifierStats};

/// Which execution engine to use for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// The planned engine executing **columnar batches**: scans decode
    /// table rows into typed column vectors once, filters refine selection
    /// vectors, expressions run as vectorized kernels (with a per-row
    /// fallback for subqueries and other lazy constructs), and hash
    /// join/aggregate key on column slices. The default.
    #[default]
    Planned,
    /// The legacy tree-walking interpreter, retained as the planned
    /// engine's differential-testing oracle.
    Legacy,
}

/// Execution knobs threaded through [`crate::Snapshot::execute`] and
/// onward into grading/evaluation layers.
///
/// `threads = 1` reproduces the original single-threaded executor;
/// larger counts run the planned engine's morsel-driven parallel operators
/// (parallel hash-join probes, parallel hash aggregation, batch-parallel
/// scan/filter/project). Output is **byte-identical at every thread count**
/// — parallel results are reassembled in deterministic morsel order — so
/// the differential oracle keeps working. The legacy interpreter ignores
/// `threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Which engine executes the query.
    pub strategy: ExecStrategy,
    /// Worker-thread budget for the planned engine (clamped to ≥ 1).
    pub threads: usize,
}

impl Default for ExecOptions {
    /// Planned engine with one worker per available hardware thread.
    fn default() -> Self {
        ExecOptions {
            strategy: ExecStrategy::default(),
            threads: available_threads(),
        }
    }
}

impl ExecOptions {
    /// Options for a given strategy at the default (full) parallelism.
    pub fn new(strategy: ExecStrategy) -> Self {
        ExecOptions {
            strategy,
            ..ExecOptions::default()
        }
    }

    /// Single-threaded planned execution (the pre-parallel behavior).
    pub fn serial() -> Self {
        ExecOptions::default().with_threads(1)
    }

    /// Set the worker-thread budget (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Compile-time knobs, each toggling one family of plan transformations
/// that the differential suites pin as result-invisible:
///
/// * `fast_paths = false` forces every access back to a full scan (no
///   index-backed paths) — the access-path baseline.
/// * `cost_based = false` keeps every join in syntactic order, builds hash
///   joins on their right input, and chooses index atoms by fixed shape
///   preference — the *syntactic baseline* the `join_order_workload`
///   benchmark times the cost model against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Emit index-backed access paths (default `true`).
    pub fast_paths: bool,
    /// Statistics-driven join reordering, build-side selection and
    /// access-path arbitration (default `true`).
    pub cost_based: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            fast_paths: true,
            cost_based: true,
        }
    }
}

/// Plan and compile a query into a reusable physical plan — the
/// parse-once/execute-many half of [`crate::prepared::PreparedQuery`], and
/// the planned arm of [`crate::Snapshot::execute`]. Also stamps the plan's
/// estimated output cardinality and the planner's optimizer counters onto
/// the returned [`PhysQueryPlan`]. [`CompileOptions`] toggles the
/// result-invisible plan transformations, so tests and benchmarks can pin
/// (and time) the *same* query with index fast paths or cost-based join
/// ordering switched off, without relying on a second engine.
pub fn compile_query(
    db: &Snapshot,
    query: &Query,
    options: CompileOptions,
) -> StorageResult<PhysQueryPlan> {
    let mut planner = Planner::new(db).with_cost_based(options.cost_based);
    let logical = planner.plan(query)?;
    // Debug builds verify every plan both before and after compilation, so
    // the whole test suite — the differential corpora in particular —
    // doubles as a verifier stress test (see `ci.sh`'s gate notes).
    #[cfg(debug_assertions)]
    {
        let violations = verify::verify_logical(db, &logical);
        assert!(
            violations.is_empty(),
            "planner emitted an invalid logical plan:\n{}\nplan:\n{logical}",
            verify::render_violations(&violations),
        );
    }
    let mut plan = Compiler::with_options(db, options).compile(&logical)?;
    plan.optimizer = planner.optimizer_stats();
    plan.est_rows = Some(est_to_u64(
        crate::cost::Estimator::new(db).query_rows(&logical),
    ));
    #[cfg(debug_assertions)]
    {
        let violations = verify::verify_plan(db, &plan);
        assert!(
            violations.is_empty(),
            "compiler emitted an invalid physical plan:\n{}",
            verify::render_violations(&violations),
        );
    }
    Ok(plan)
}

/// Clamp a (finite or not) row estimate into `u64` display range.
fn est_to_u64(rows: f64) -> u64 {
    if rows.is_finite() && rows > 0.0 {
        // Saturating by construction: the clamp bounds precede the cast.
        rows.round().clamp(0.0, u64::MAX as f64) as u64
    } else {
        0
    }
}

/// Execute an already-compiled physical plan. The plan must have been
/// compiled against `db` (ordinals and table names are resolved at compile
/// time); [`crate::prepared::PreparedQuery`] enforces that pairing by
/// owning the snapshot it compiled against.
pub fn exec_compiled(
    db: &Snapshot,
    plan: &PhysQueryPlan,
    options: ExecOptions,
) -> StorageResult<QueryResult> {
    let ctx = RunCtx {
        db,
        frame: None,
        outer: None,
        threads: options.threads.max(1),
    };
    exec_query_plan(plan, &ctx)
}

// ---------------------------------------------------------------------
// Physical plan representation
// ---------------------------------------------------------------------

/// Per-plan tally of access-path choices the compiler made: how many scans
/// (including those inside CTEs, set-operation branches and expression
/// subqueries) are answered from a secondary index versus walking the full
/// table. Exposed through the service layer so fast-path coverage is
/// observable, not inferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AccessPathStats {
    /// Scans answered from a secondary index (point/range/IN probes, index
    /// aggregates, ordered-index Top-K).
    pub index_scan: u64,
    /// Scans that decode and walk the whole table.
    pub full_scan: u64,
}

/// A compiled query: CTEs to materialize in order, the operator tree, and
/// the visible output shape.
pub struct PhysQueryPlan {
    ctes: Vec<(String, PhysQueryPlan)>,
    root: PhysNode,
    columns: Vec<String>,
    ordered: bool,
    /// Access-path tally over the *whole* compilation (only stamped on the
    /// top-level plan; nested plans report zero).
    access: AccessPathStats,
    /// Estimated output rows of the whole query (only stamped on the
    /// top-level plan), from the statistics-driven cost model. Advisory:
    /// compared against actual row counts by the plan cache's cardinality
    /// drift counters.
    est_rows: Option<u64>,
    /// Optimizer counters from planning this query (only stamped on the
    /// top-level plan).
    optimizer: crate::cost::OptimizerStats,
}

impl PhysQueryPlan {
    /// The compiler's access-path tally for this plan.
    pub fn access_paths(&self) -> AccessPathStats {
        self.access
    }

    /// The cost model's estimated output row count, when stamped (always,
    /// for plans built through the public compile entry points).
    pub fn estimated_rows(&self) -> Option<u64> {
        self.est_rows
    }

    /// The optimizer's reorder/fallback counters for this plan.
    pub fn optimizer_stats(&self) -> crate::cost::OptimizerStats {
        self.optimizer
    }
}

/// How an [`PhysNode::IndexScan`] resolves its matching row ids. Every
/// variant degrades to an exact linear scan when the column's index is
/// NaN-poisoned (`ColumnIndex::has_nan`): NaN breaks the coincidence
/// between `total_cmp` order / `group_key` equality and the scan kernels'
/// per-row semantics, so the fallback re-evaluates the original conjunct's
/// truth table directly.
pub(crate) enum IndexAccess {
    /// `col = literal`: hash-index point lookup.
    Point { col: usize, key: Value },
    /// `col </<=/>/>= literal` or `col BETWEEN lit AND lit`: ordered-index
    /// range scan. Both bounds always originate from a *single* conjunct.
    Range {
        col: usize,
        lower: Option<(Value, bool)>,
        upper: Option<(Value, bool)>,
    },
    /// `col IN (literals)`: hash-index multi-probe.
    InList { col: usize, keys: Vec<Value> },
    /// `col IN (uncorrelated subquery)`: run the subquery (at most) once
    /// and hash-probe its first column. Executed lazily — only when the
    /// column has a non-NULL value — because the per-row evaluator runs the
    /// subquery only upon reaching a non-NULL needle, and a query whose
    /// needles are all NULL must never surface the subquery's errors.
    InSubquery { col: usize, plan: Box<SubPlan> },
}

/// One output item of an [`PhysNode::IndexAgg`]: a global aggregate the
/// secondary index answers without scanning.
pub(crate) enum AggSpec {
    /// `COUNT(*)` — the table's row count (DISTINCT is ignored, exactly
    /// like the evaluators).
    CountStar,
    /// `COUNT(col)` / `COUNT(DISTINCT col)` — non-NULL count, or distinct
    /// `group_key` count.
    Count { col: usize, distinct: bool },
    /// `MIN(col)` — first minimal value in row order (the ordered index's
    /// first non-NULL entry), matching `min_by`'s first-wins tie rule.
    Min(usize),
    /// `MAX(col)` — last maximal value in row order (the ordered index's
    /// last entry), matching `max_by`'s last-wins tie rule.
    Max(usize),
}

/// A compiled physical operator. Operators that evaluate expressions carry
/// their input bindings so that subqueries evaluated inside them can expose
/// the current row to correlated references.
pub(crate) enum PhysNode {
    ScanTable {
        name: String,
        /// Projection-pruned column mask (sorted ordinals), set by the
        /// compiler when everything evaluated over this scan's batches is
        /// vectorizable: the columnar engine decodes only these columns.
        cols: Option<Vec<usize>>,
    },
    /// An index-backed table scan: the access path resolves the matching
    /// row ids straight from the table's lazily-built secondary index
    /// (ascending, so output order — and therefore every downstream byte —
    /// matches the scan-plus-filter plan it replaces).
    IndexScan {
        name: String,
        access: IndexAccess,
        /// Projection-pruned column mask; see [`PhysNode::ScanTable`].
        cols: Option<Vec<usize>>,
    },
    /// Global aggregates over a bare table answered from the secondary
    /// index: `SELECT MIN(a), COUNT(*) FROM t` without scanning.
    IndexAgg {
        name: String,
        specs: Vec<AggSpec>,
    },
    /// `ORDER BY col ASC LIMIT n [OFFSET m]` over bare projected columns of
    /// a base table: the prefix of the ordered index replaces the Top-K
    /// heap. `output` maps each projected item to its table column;
    /// `key_ordinal` is the sort key's position within `output`.
    IndexTopK {
        name: String,
        key_ordinal: usize,
        output: Vec<usize>,
        limit: PhysExpr,
        offset: Option<PhysExpr>,
    },
    ScanCte {
        name: String,
    },
    ScanDerived {
        plan: Box<PhysQueryPlan>,
    },
    ScanEmpty,
    Filter {
        input: Box<PhysNode>,
        predicate: PhysExpr,
        bindings: Vec<ColumnBinding>,
    },
    NestedLoopJoin {
        left: Box<PhysNode>,
        right: Box<PhysNode>,
        operator: bp_sql::JoinOperator,
        on: Option<PhysExpr>,
        bindings: Vec<ColumnBinding>,
        right_width: usize,
    },
    HashJoin {
        left: Box<PhysNode>,
        right: Box<PhysNode>,
        operator: bp_sql::JoinOperator,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<PhysExpr>,
        bindings: Vec<ColumnBinding>,
        right_width: usize,
        /// Build the hash table on the *left* input instead of the right —
        /// chosen by the compiler when the cost model estimates the left
        /// input smaller. Output is byte-identical either way (left-major,
        /// matches in right-row order); only the build/probe roles swap.
        build_left: bool,
    },
    Project {
        input: Box<PhysNode>,
        items: Vec<PhysExpr>,
        visible: usize,
        distinct: bool,
        bindings: Vec<ColumnBinding>,
    },
    HashAggregate {
        input: Box<PhysNode>,
        group_by: Vec<PhysExpr>,
        having: Option<PhysExpr>,
        items: Vec<PhysExpr>,
        visible: usize,
        distinct: bool,
        bindings: Vec<ColumnBinding>,
    },
    Sort {
        input: Box<PhysNode>,
        keys: Vec<SortKey>,
    },
    /// `ORDER BY … LIMIT n [OFFSET m]` fused by the compiler into one
    /// bounded operator: a binary heap keeps the `n + m` smallest rows by
    /// (sort keys, input position) — the tie-break reproduces the stable
    /// sort — instead of fully sorting the input.
    TopK {
        input: Box<PhysNode>,
        keys: Vec<SortKey>,
        limit: PhysExpr,
        offset: Option<PhysExpr>,
    },
    Limit {
        input: Box<PhysNode>,
        limit: Option<PhysExpr>,
        offset: Option<PhysExpr>,
    },
    SetOp {
        op: SetOperator,
        all: bool,
        left: Box<PhysQueryPlan>,
        right: Box<PhysQueryPlan>,
    },
    Nested(Box<PhysQueryPlan>),
}

// ---------------------------------------------------------------------
// Runtime context
// ---------------------------------------------------------------------

/// One level of materialized CTE results, chained by parent pointer.
pub(crate) struct CteFrame<'a> {
    local: &'a HashMap<String, QueryResult>,
    parent: Option<&'a CteFrame<'a>>,
}

impl CteFrame<'_> {
    fn get(&self, name: &str) -> Option<&QueryResult> {
        self.local
            .get(name)
            .or_else(|| self.parent.and_then(|p| p.get(name)))
    }
}

/// An enclosing row scope for correlated subquery evaluation.
pub(crate) struct OuterEnv<'a> {
    pub(crate) bindings: &'a [ColumnBinding],
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a OuterEnv<'a>>,
}

/// The runtime execution context threaded through the operator tree.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub(crate) db: &'a Snapshot,
    pub(crate) frame: Option<&'a CteFrame<'a>>,
    pub(crate) outer: Option<&'a OuterEnv<'a>>,
    /// Worker-thread budget for parallel operators (≥ 1; 1 = serial).
    pub(crate) threads: usize,
}

impl<'a> RunCtx<'a> {
    /// The same context pinned to one thread — used inside parallel worker
    /// closures so nested operators (e.g. subqueries evaluated per row)
    /// never spawn a second level of workers on an already-busy pool.
    pub(crate) fn serial(&self) -> RunCtx<'a> {
        RunCtx {
            threads: 1,
            ..*self
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

pub(crate) fn exec_query_plan(
    plan: &PhysQueryPlan,
    ctx: &RunCtx<'_>,
) -> StorageResult<QueryResult> {
    let mut local: HashMap<String, QueryResult> = HashMap::new();
    for (name, sub) in &plan.ctes {
        let frame = CteFrame {
            local: &local,
            parent: ctx.frame,
        };
        let sub_ctx = RunCtx {
            frame: Some(&frame),
            ..*ctx
        };
        let result = exec_query_plan(sub, &sub_ctx)?;
        local.insert(name.clone(), result);
    }
    let frame = CteFrame {
        local: &local,
        parent: ctx.frame,
    };
    let sub_ctx = RunCtx {
        frame: Some(&frame),
        ..*ctx
    };
    let mut rows = columnar::exec_node_rows(&plan.root, &sub_ctx)?;
    // Strip hidden sort-key columns.
    let visible = plan.columns.len();
    for row in &mut rows {
        row.truncate(visible);
    }
    Ok(QueryResult {
        columns: plan.columns.clone(),
        rows,
        ordered: plan.ordered,
    })
}

// ---------------------------------------------------------------------
// Index-backed access paths
// ---------------------------------------------------------------------

/// Linear fallback scanner: row ids whose cell in `col` satisfies `truth`,
/// ascending — the exact per-row semantics an index path must reproduce
/// when the index is NaN-poisoned.
fn scan_matching<F>(rows: &[Row], col: usize, mut truth: F) -> StorageResult<Vec<u32>>
where
    F: FnMut(&Value) -> StorageResult<bool>,
{
    let mut ids = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let v = row.get(col).unwrap_or(&Value::Null);
        if truth(v)? {
            ids.push(i as u32);
        }
    }
    Ok(ids)
}

/// The single-conjunct truth table of a range access: NULL values and NULL
/// bounds never match; bounds compare by `total_cmp` with the conjunct's
/// inclusivity — exactly how `eval_binary` comparisons and BETWEEN decide.
fn range_truth(v: &Value, lower: Option<&(Value, bool)>, upper: Option<&(Value, bool)>) -> bool {
    use std::cmp::Ordering;
    if v.is_null() {
        return false;
    }
    if let Some((b, inclusive)) = lower {
        if b.is_null() {
            return false;
        }
        let ord = v.total_cmp(b);
        if !(ord == Ordering::Greater || (*inclusive && ord == Ordering::Equal)) {
            return false;
        }
    }
    if let Some((b, inclusive)) = upper {
        if b.is_null() {
            return false;
        }
        let ord = v.total_cmp(b);
        if !(ord == Ordering::Less || (*inclusive && ord == Ordering::Equal)) {
            return false;
        }
    }
    true
}

/// Resolve an access path to its matching row ids, ascending — the same
/// rows, in the same order, that a full scan plus filter over the original
/// conjunct would keep.
pub(crate) fn index_scan_ids(
    table: &Table,
    access: &IndexAccess,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<u32>> {
    let rows = table.rows();
    match access {
        IndexAccess::Point { col, key } => {
            let idx = table.secondary_index(*col);
            if idx.has_nan() {
                scan_matching(rows, *col, |v| {
                    Ok(eval_binary(v, BinaryOperator::Eq, key)?.is_truthy())
                })
            } else {
                Ok(idx.point(key).to_vec())
            }
        }
        IndexAccess::Range { col, lower, upper } => {
            let idx = table.secondary_index(*col);
            if idx.has_nan() {
                scan_matching(rows, *col, |v| {
                    Ok(range_truth(v, lower.as_ref(), upper.as_ref()))
                })
            } else {
                Ok(idx.range(
                    rows,
                    *col,
                    lower.as_ref().map(|(v, i)| (v, *i)),
                    upper.as_ref().map(|(v, i)| (v, *i)),
                ))
            }
        }
        IndexAccess::InList { col, keys } => {
            let idx = table.secondary_index(*col);
            if idx.has_nan() {
                // The IN evaluator's semantics exactly: NULL needles are
                // UNKNOWN (never match); list items compare by `sql_eq`.
                scan_matching(rows, *col, |v| {
                    Ok(!v.is_null() && keys.iter().any(|k| v.sql_eq(k).unwrap_or(false)))
                })
            } else {
                Ok(idx.probe(keys.iter()))
            }
        }
        IndexAccess::InSubquery { col, plan } => {
            let idx = table.secondary_index(*col);
            // Lazy like the per-row evaluator: with no non-NULL needle in
            // the column (including the empty table), the subquery — and
            // any deferred compile error inside it — never runs.
            if idx.null_count() == rows.len() {
                return Ok(Vec::new());
            }
            let env = EvalEnv {
                ctx,
                bindings: &[],
                row: &[],
                group: None,
            };
            let result = plan.execute(&env)?;
            if idx.has_nan() {
                let keys: Vec<&Value> = result.rows.iter().filter_map(|r| r.first()).collect();
                scan_matching(rows, *col, |v| {
                    Ok(!v.is_null() && keys.iter().any(|k| v.sql_eq(k).unwrap_or(false)))
                })
            } else {
                Ok(idx.probe(result.rows.iter().filter_map(|r| r.first())))
            }
        }
    }
}

/// Execute an [`PhysNode::IndexAgg`]: one output row of global aggregates
/// answered from the table's secondary indexes, byte-identical to the
/// hash-aggregate path (NaN-poisoned columns fall back to collecting the
/// non-NULL values in row order and finishing exactly like the evaluator).
pub(crate) fn exec_index_agg(
    name: &str,
    specs: &[AggSpec],
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    fn agg_fallback(
        name: &'static str,
        rows: &[Row],
        col: usize,
        distinct: bool,
    ) -> StorageResult<Value> {
        let values: Vec<Value> = rows
            .iter()
            .filter_map(|r| {
                let v = r.get(col).unwrap_or(&Value::Null);
                (!v.is_null()).then(|| v.clone())
            })
            .collect();
        finish_aggregate(name, values, distinct)
    }

    let table = ctx
        .db
        .table(name)
        .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
    let rows = table.rows();
    let mut out: Row = Vec::with_capacity(specs.len());
    for spec in specs {
        out.push(match spec {
            AggSpec::CountStar => Value::Int(rows.len() as i64),
            AggSpec::Count { col, distinct } => {
                let idx = table.secondary_index(*col);
                if idx.has_nan() {
                    agg_fallback("COUNT", rows, *col, *distinct)?
                } else if *distinct {
                    Value::Int(idx.distinct_keys() as i64)
                } else {
                    Value::Int((rows.len() - idx.null_count()) as i64)
                }
            }
            AggSpec::Min(col) => {
                let idx = table.secondary_index(*col);
                if idx.has_nan() {
                    agg_fallback("MIN", rows, *col, false)?
                } else {
                    match idx.ordered().get(idx.null_count()) {
                        Some(&i) => rows[i as usize].get(*col).cloned().unwrap_or(Value::Null),
                        None => Value::Null,
                    }
                }
            }
            AggSpec::Max(col) => {
                let idx = table.secondary_index(*col);
                if idx.has_nan() {
                    agg_fallback("MAX", rows, *col, false)?
                } else if idx.null_count() == idx.ordered().len() {
                    Value::Null
                } else {
                    let &i = idx.ordered().last().expect("non-empty: has a non-NULL");
                    rows[i as usize].get(*col).cloned().unwrap_or(Value::Null)
                }
            }
        });
    }
    Ok(vec![out])
}

/// Execute an [`PhysNode::IndexTopK`]: project the prefix of the ordered
/// index instead of running the Top-K heap. The ordered index sorts by
/// `(total_cmp, row id)` with NULLs first — precisely the stable ascending
/// sort the heap reproduces — so the output is byte-identical.
pub(crate) fn exec_index_top_k(
    name: &str,
    key_ordinal: usize,
    output: &[usize],
    limit: &PhysExpr,
    offset: Option<&PhysExpr>,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    let table = ctx
        .db
        .table(name)
        .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
    // Evaluate OFFSET before LIMIT, matching the TopK operator's error
    // order exactly.
    let skip = match offset {
        Some(offset) => eval_count(offset, ctx)?,
        None => 0,
    };
    let take = eval_count(limit, ctx)?;
    let rows = table.rows();
    let key_col = output[key_ordinal];
    let idx = table.secondary_index(key_col);
    let project = |i: u32| -> Row {
        output
            .iter()
            .map(|&c| rows[i as usize].get(c).cloned().unwrap_or(Value::Null))
            .collect()
    };
    if idx.has_nan() {
        // Exact fallback: project everything and run the real heap.
        let projected: Vec<Row> = (0..rows.len() as u32).map(project).collect();
        let keys = [SortKey {
            ordinal: Some(key_ordinal),
            asc: true,
        }];
        return Ok(top_k_rows(projected, &keys, skip, take));
    }
    let ordered = idx.ordered();
    let start = skip.min(ordered.len());
    let end = start.saturating_add(take).min(ordered.len());
    Ok(ordered[start..end].iter().map(|&i| project(i)).collect())
}

/// DISTINCT over the visible prefix of each row; keeps first occurrences.
/// The composite key is encoded once per row and owned by the `HashSet`
/// (no second encoding, no unit-value map).
pub(crate) fn dedup_rows(rows: &mut Vec<Row>, visible: usize) {
    let mut seen: HashSet<String> = HashSet::with_capacity(rows.len());
    rows.retain(|row| seen.insert(composite_key(&row[..visible.min(row.len())])));
}

/// Compare two rows by sort keys, mirroring the engine's stable sort:
/// missing ordinals and `None` ordinals compare as NULL.
pub(crate) fn compare_rows(a: &Row, b: &Row, keys: &[SortKey]) -> std::cmp::Ordering {
    for key in keys {
        let (va, vb) = match key.ordinal {
            Some(o) => (
                a.get(o).unwrap_or(&Value::Null),
                b.get(o).unwrap_or(&Value::Null),
            ),
            None => (&Value::Null, &Value::Null),
        };
        let ord = va.total_cmp(vb);
        let ord = if key.asc { ord } else { ord.reverse() };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Bounded Top-K: the rows a stable sort followed by `OFFSET skip LIMIT
/// take` would produce, computed with a binary heap of at most `skip +
/// take` entries instead of a full sort. Ties break by input position,
/// which is exactly what makes a stable sort stable — so the output is
/// byte-identical to `Sort` + `Limit`.
pub(crate) fn top_k_rows(rows: Vec<Row>, keys: &[SortKey], skip: usize, take: usize) -> Vec<Row> {
    use std::collections::BinaryHeap;

    struct Entry<'k> {
        keys: &'k [SortKey],
        row: Row,
        idx: usize,
    }
    impl Entry<'_> {
        fn order(&self, other: &Self) -> std::cmp::Ordering {
            compare_rows(&self.row, &other.row, self.keys).then(self.idx.cmp(&other.idx))
        }
    }
    impl PartialEq for Entry<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.order(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Entry<'_> {}
    impl PartialOrd for Entry<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry<'_> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.order(other)
        }
    }

    let k = skip.saturating_add(take);
    if k == 0 {
        return Vec::new();
    }
    // Max-heap of the k smallest (keys, input-position) entries: the
    // largest retained entry sits on top and is evicted by anything
    // smaller. The reservation is clamped to the input size — `k` comes
    // straight from user-supplied LIMIT/OFFSET and may be enormous.
    let mut heap: BinaryHeap<Entry<'_>> = BinaryHeap::with_capacity(k.min(rows.len()) + 1);
    for (idx, row) in rows.into_iter().enumerate() {
        heap.push(Entry { keys, row, idx });
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut kept = heap.into_vec();
    kept.sort_unstable_by(|a, b| a.order(b));
    kept.drain(..skip.min(kept.len()));
    kept.into_iter().map(|e| e.row).collect()
}

/// Phase 3 of hash aggregation: evaluate HAVING and the output expressions per group, in (already
/// deterministic) group order, fanning out over morsels.
pub(crate) fn finalize_agg_groups(
    groups: &[Vec<Row>],
    having: Option<&PhysExpr>,
    items: &[PhysExpr],
    bindings: &[ColumnBinding],
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    let width = bindings.len();
    let finalized = run_morsels(ctx.threads, groups.len(), |range| {
        let wctx = ctx.serial();
        let mut out: Vec<Option<Row>> = Vec::with_capacity(range.len());
        for group_rows in &groups[range] {
            let representative = group_rows
                .first()
                .cloned()
                .unwrap_or_else(|| vec![Value::Null; width]);
            let env = EvalEnv {
                ctx: &wctx,
                bindings,
                row: &representative,
                group: Some(group_rows),
            };
            if let Some(having) = having {
                if !having.eval_truthy(&env)? {
                    out.push(None);
                    continue;
                }
            }
            let values = items
                .iter()
                .map(|item| item.eval(&env))
                .collect::<StorageResult<Row>>()?;
            out.push(Some(values));
        }
        Ok::<_, StorageError>(out)
    })?;
    Ok(finalized.into_iter().flatten().flatten().collect())
}

/// Evaluate a LIMIT/OFFSET expression (empty row scope) to a count.
pub(crate) fn eval_count(expr: &PhysExpr, ctx: &RunCtx<'_>) -> StorageResult<usize> {
    let env = EvalEnv {
        ctx,
        bindings: &[],
        row: &[],
        group: None,
    };
    let v = expr.eval(&env)?;
    v.as_i64()
        .filter(|n| *n >= 0)
        .map(|n| n as usize)
        .ok_or_else(|| {
            StorageError::TypeError(format!(
                "LIMIT/OFFSET must be a non-negative integer, got {v}"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::schema::{Column, TableSchema};
    use bp_sql::DataType;

    fn row(values: &[i64]) -> Row {
        values.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn top_k_matches_stable_sort_truncate() {
        // Duplicate keys with distinct payloads: stability is observable.
        let rows: Vec<Row> = [[3, 0], [1, 1], [2, 2], [1, 3], [3, 4], [2, 5], [1, 6]]
            .iter()
            .map(|r| row(r))
            .collect();
        let keys = [SortKey {
            ordinal: Some(0),
            asc: true,
        }];
        for skip in 0..4 {
            for take in 0..8 {
                let mut expected = rows.clone();
                expected.sort_by(|a, b| compare_rows(a, b, &keys));
                let expected: Vec<Row> = expected.into_iter().skip(skip).take(take).collect();
                let got = top_k_rows(rows.clone(), &keys, skip, take);
                assert_eq!(got, expected, "skip={skip} take={take}");
            }
        }
    }

    #[test]
    fn top_k_survives_enormous_limits() {
        // LIMIT/OFFSET come straight from user SQL: the heap reservation
        // must clamp to the input size, not trust `skip + take`.
        let rows: Vec<Row> = [[2, 0], [1, 1]].iter().map(|r| row(r)).collect();
        let keys = [SortKey {
            ordinal: Some(0),
            asc: true,
        }];
        let got = top_k_rows(rows.clone(), &keys, 0, usize::MAX);
        assert_eq!(got, vec![row(&[1, 1]), row(&[2, 0])]);
        let got = top_k_rows(rows.clone(), &keys, usize::MAX, 1_000_000_000_000);
        assert!(got.is_empty());

        let mut db = Database::new("bigk");
        db.create_table(TableSchema::new(
            "t",
            vec![Column::new("v", DataType::Integer)],
        ))
        .expect("schema");
        db.insert_into("t", (0..10i64).map(|i| vec![Value::Int(9 - i)]))
            .expect("rows");
        let result = db
            .execute_sql(
                "SELECT v FROM t ORDER BY v LIMIT 9223372036854775807",
                ExecOptions::default().with_threads(2),
            )
            .expect("enormous LIMIT must not panic or abort");
        assert_eq!(result.rows.len(), 10);
        assert_eq!(result.rows[0], vec![Value::Int(0)]);
    }

    #[test]
    fn top_k_handles_descending_and_null_keys() {
        let rows: Vec<Row> = [[1, 0], [5, 1], [3, 2]].iter().map(|r| row(r)).collect();
        let keys = [SortKey {
            ordinal: Some(0),
            asc: false,
        }];
        let got = top_k_rows(rows.clone(), &keys, 0, 2);
        assert_eq!(got, vec![row(&[5, 1]), row(&[3, 2])]);
        // A constant NULL key leaves input order untouched.
        let null_keys = [SortKey {
            ordinal: None,
            asc: true,
        }];
        let got = top_k_rows(rows.clone(), &null_keys, 1, 2);
        assert_eq!(got, vec![row(&[5, 1]), row(&[3, 2])]);
    }

    #[test]
    fn order_by_limit_compiles_to_top_k() {
        let mut db = Database::new("topk");
        db.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("v", DataType::Integer),
            ],
        ))
        .expect("schema");
        let snapshot = db.snapshot();
        let compile_root = |sql: &str| {
            let query = bp_sql::parse_query(sql).expect("parse");
            let logical = Planner::new(&snapshot).plan(&query).expect("plan");
            Compiler::with_fast_paths(&snapshot, true)
                .compile(&logical)
                .expect("compile")
                .root
        };
        // A single ascending column key over a bare table scan fuses all
        // the way down to an ordered-index prefix read.
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v LIMIT 3"),
            PhysNode::IndexTopK { .. }
        ));
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v LIMIT 3 OFFSET 2"),
            PhysNode::IndexTopK { .. }
        ));
        // Descending keys and expression keys keep the heap-based Top-K.
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v DESC LIMIT 3"),
            PhysNode::TopK { .. }
        ));
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v + 1 LIMIT 3"),
            PhysNode::TopK { .. }
        ));
        // So does a filtered input: the index prefix only answers
        // whole-table orderings.
        assert!(matches!(
            compile_root("SELECT v FROM t WHERE v > 1 ORDER BY v LIMIT 3"),
            PhysNode::TopK { .. }
        ));
        // Unlimited ORDER BY keeps the full sort...
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v"),
            PhysNode::Sort { .. }
        ));
        // ...and so does an OFFSET-only limit (every row may still surface).
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v OFFSET 1"),
            PhysNode::Limit { .. }
        ));
        // LIMIT without ORDER BY has nothing to fuse.
        assert!(matches!(
            compile_root("SELECT v FROM t LIMIT 3"),
            PhysNode::Limit { .. }
        ));
    }

    /// The in-crate indexed ≡ scanned oracle: every fast-path shape,
    /// compiled with and without index lowering, must produce byte-identical
    /// results (errors included) at both thread counts — over data stocked
    /// with NULLs, duplicate keys, NaN (which poisons the index and forces
    /// the exact fallbacks), and `-0.0` (which must probe equal to `0`).
    #[test]
    fn fast_paths_match_forced_full_scans() {
        let mut db = Database::new("fastslow");
        db.create_table(TableSchema::new(
            "d",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("k", DataType::Integer),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Text),
            ],
        ))
        .expect("schema");
        let rows: Vec<Row> = (0..200i64)
            .map(|i| {
                let k = match i % 7 {
                    0 => Value::Null,
                    r => Value::Int(r),
                };
                let f = match i % 9 {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Float(-0.0),
                    r => Value::Float(r as f64 / 2.0),
                };
                vec![Value::Int(i), k, f, Value::Text(format!("s{}", i % 5))]
            })
            .collect();
        db.insert_into("d", rows).expect("rows");
        let snapshot = db.snapshot();
        // Shapes the compiler must lower onto an index. Hash probes
        // (point / IN-list) stay indexed even on the NaN-poisoned `f`
        // column: they never trust index *order* and keep their exact
        // runtime fallbacks.
        let indexed_queries = [
            "SELECT id, s FROM d WHERE id = 42",
            "SELECT id FROM d WHERE k = 3 ORDER BY id",
            "SELECT id FROM d WHERE f = 0 ORDER BY id", // -0.0 probes equal to 0
            "SELECT id FROM d WHERE f = 0.5 ORDER BY id", // NaN column → exact fallback
            "SELECT id FROM d WHERE k > 2 ORDER BY id",
            "SELECT id FROM d WHERE k <= 3 AND s = 's2' ORDER BY id",
            "SELECT id FROM d WHERE id BETWEEN 50 AND 60",
            "SELECT id FROM d WHERE k IN (1, 3, 99) ORDER BY id",
            "SELECT id FROM d WHERE s IN ('s0', 's4', 'zzz') ORDER BY id",
            "SELECT id FROM d WHERE k IN (SELECT k FROM d WHERE id < 10) ORDER BY id",
            "SELECT MIN(k), MAX(k), COUNT(*), COUNT(k), COUNT(DISTINCT s) FROM d",
            "SELECT k, id FROM d ORDER BY k LIMIT 9",
            "SELECT id, k FROM d ORDER BY id LIMIT 5 OFFSET 190",
        ];
        // Shapes the compiler must *decline*: ordered-index paths (range
        // scan, MIN/MAX, index Top-K) on a NaN-poisoned column, where
        // `total_cmp` order diverges from the scan kernels. The plan
        // verifier enforces the declination as a hard invariant.
        let declined_queries = [
            "SELECT id FROM d WHERE f BETWEEN 0 AND 1 ORDER BY id",
            "SELECT MIN(f), MAX(f), COUNT(f) FROM d",
            "SELECT id, f FROM d ORDER BY f LIMIT 7",
        ];
        let all = indexed_queries
            .iter()
            .map(|sql| (*sql, true))
            .chain(declined_queries.iter().map(|sql| (*sql, false)));
        for (sql, expect_index) in all {
            let query = bp_sql::parse_query(sql).expect("parse");
            let fast =
                compile_query(&snapshot, &query, CompileOptions::default()).expect("fast compile");
            let scan_only = CompileOptions {
                fast_paths: false,
                ..CompileOptions::default()
            };
            let slow = compile_query(&snapshot, &query, scan_only).expect("slow compile");
            if expect_index {
                assert!(
                    fast.access_paths().index_scan > 0,
                    "expected an index-backed path for {sql}"
                );
            } else {
                assert_eq!(
                    fast.access_paths().index_scan,
                    0,
                    "expected the compiler to decline the NaN-ordered index path for {sql}"
                );
            }
            assert_eq!(
                slow.access_paths().index_scan,
                0,
                "forced-full-scan compile must not touch an index for {sql}"
            );
            for threads in [1usize, 4] {
                let options = ExecOptions::default().with_threads(threads);
                let indexed = exec_compiled(&snapshot, &fast, options);
                let scanned = exec_compiled(&snapshot, &slow, options);
                assert_eq!(
                    indexed, scanned,
                    "indexed vs scanned diverge on {sql} ({threads} threads)"
                );
            }
        }
    }
}
