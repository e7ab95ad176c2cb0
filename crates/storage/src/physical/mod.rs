//! Physical operators — layer 2 of the planned execution engine.
//!
//! [`compile_query`] lowers a query through [`crate::plan`] (logical
//! planning + rewrites) and the `compile` submodule (ordinal resolution,
//! join algorithm selection, subquery compilation); [`exec_compiled`] runs
//! the resulting physical plan. Compared to the legacy tree-walking interpreter
//! the planned engine:
//!
//! * joins equi-key pairs with a **hash join** instead of a nested loop
//!   (a join without equi-keys is the same hash join with no keys);
//! * resolves column names **once at compile time** to ordinals instead of
//!   uppercasing and scanning bindings per cell — a correlated reference
//!   too, as a (scope depth, ordinal) pair — and raises every static error
//!   (unknown column, table, function or arity, bare `*`) before a row is
//!   read;
//! * reads a CTE by **(plan depth, position)**, through frames chained by
//!   parent pointer, instead of cloning materialized CTE results into
//!   every subquery;
//! * **caches uncorrelated subquery results** instead of re-executing them
//!   per row;
//! * evaluates pushed-down filters before joins instead of after;
//! * carries only the columns the plan reads: scans decode, and joins
//!   gather, just those, and aggregates group narrow rows.
//!
//! The compiled plan executes over **columnar batches** (see the `batch`
//! and `columnar` submodules): typed column vectors with null bitmaps,
//! selection-vector filters, vectorized expression kernels, and one hash
//! kernel on column-slice keys for joins, DISTINCT and aggregation, whose
//! groups are selection vectors. Only the blocking operators (sort, Top-K,
//! set operations, derived tables) reuse the row helpers in this module.
//! The legacy
//! interpreter behind [`ExecStrategy::Legacy`] is the independent oracle:
//! both engines must produce identical [`QueryResult`]s (see the workspace
//! `differential` proptest suite).

pub(crate) mod batch;
mod columnar;
mod compile;
mod explain;
mod expr;
pub(crate) mod parallel;
pub(crate) mod verify;

use bp_sql::{Query, SetOperator};

use crate::error::{StorageError, StorageResult};
use crate::plan::{Planner, SargAtom, SortKey};
use crate::result::QueryResult;
use crate::snapshot::Snapshot;
use crate::table::{Row, Table};
use crate::value::Value;

use compile::Compiler;
use expr::{EvalEnv, PhysExpr, SubPlan};
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
/// A query always runs on the calling thread, whatever `threads` says.
/// `threads` sizes only the [`batch_map`] item pool of the multi-item APIs
/// (corpus grading, study simulation, session batches), which fan whole
/// independent queries out across workers; their reports are
/// **byte-identical at every thread count**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Which engine executes the query.
    pub strategy: ExecStrategy,
    /// Item-pool size for the multi-item APIs (clamped to ≥ 1); a single
    /// query ignores it.
    pub threads: usize,
}

impl Default for ExecOptions {
    /// Planned engine, with an item pool of one worker per available
    /// hardware thread.
    fn default() -> Self {
        ExecOptions {
            strategy: ExecStrategy::default(),
            threads: available_threads(),
        }
    }
}

impl ExecOptions {
    /// Options for a given strategy with the default item pool.
    pub fn new(strategy: ExecStrategy) -> Self {
        ExecOptions {
            strategy,
            ..ExecOptions::default()
        }
    }

    /// Planned execution with a one-worker item pool: multi-item APIs run
    /// their items in a serial loop on the calling thread.
    pub fn serial() -> Self {
        ExecOptions::default().with_threads(1)
    }

    /// Set the item-pool size (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Compile-time knobs, each toggling one family of plan transformations
/// that the differential suites pin as result-invisible:
///
/// * `fast_paths = false` forces every access back to a full scan (no
///   index-backed paths) and keeps every operator's output whole (no
///   column pruning) — the access-path baseline.
/// * `cost_based = false` keeps every join in syntactic order, builds hash
///   joins on their right input, and chooses index atoms by fixed shape
///   preference — the *syntactic baseline* the `join_order_workload`
///   benchmark times the cost model against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Emit index-backed access paths and prune unread columns (default
    /// `true`).
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
/// ordering switched off, without relying on a second engine. A logical
/// plan that [`verify_logical`] rejects fails with `PlanVerification`.
pub fn compile_query(
    db: &Snapshot,
    query: &Query,
    options: CompileOptions,
) -> StorageResult<PhysQueryPlan> {
    let mut planner = Planner::new(db).with_cost_based(options.cost_based);
    let logical = planner.plan(query)?;
    // Verified in every build: the logical plan is the last place the names
    // exist, so its checks (the join-binding invariant) cannot move later.
    let violations = verify::verify_logical(db, &logical);
    if !violations.is_empty() {
        return Err(StorageError::PlanVerification(verify::render_violations(
            &violations,
        )));
    }
    let mut plan = Compiler::with_options(db, options).compile(&logical)?;
    plan.optimizer = planner.optimizer_stats();
    plan.est_rows = Some(est_to_u64(
        crate::cost::Estimator::new(db).query_rows(&logical),
    ));
    // Debug builds also verify the compiled plan, so the whole test suite —
    // the differential corpora in particular — doubles as a verifier
    // stress test (see `ci.sh`'s gate notes).
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

/// Execute an already-compiled physical plan on the calling thread.
/// The plan must have been compiled against `db` (ordinals and table names
/// are resolved at compile time); [`crate::prepared::PreparedQuery`]
/// enforces that pairing by owning the snapshot it compiled against.
pub fn exec_compiled(db: &Snapshot, plan: &PhysQueryPlan) -> StorageResult<QueryResult> {
    let ctx = RunCtx {
        db,
        frame: None,
        outer: None,
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
    /// Scans answered from a secondary index (point/range/IN probes and
    /// index aggregates).
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

#[cfg(test)]
impl PhysQueryPlan {
    /// A hand-built plan around `root`, for verifier and evaluator tests.
    pub(crate) fn of(root: PhysNode, columns: &[&str]) -> Self {
        PhysQueryPlan {
            ctes: Vec::new(),
            root,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            ordered: false,
            access: AccessPathStats::default(),
            est_rows: None,
            optimizer: crate::cost::OptimizerStats::default(),
        }
    }
}

/// How an [`PhysNode::IndexScan`] resolves its matching row ids. The
/// compiler emits no variant on a NaN-poisoned column
/// (`ColumnIndex::has_nan`): NaN breaks the coincidence between
/// `total_cmp` order / `group_key` equality and the scan kernels' per-row
/// semantics, so such a column keeps the scan + filter plan instead.
pub(crate) enum IndexAccess {
    /// A sargable conjunct: a hash-index point lookup or multi-probe, or an
    /// ordered-index range scan.
    Atom(SargAtom),
    /// `col IN (uncorrelated subquery)`: run the subquery (at most) once
    /// and hash-probe its first column. Executed lazily — only when the
    /// column has a non-NULL value — because the per-row evaluator runs the
    /// subquery only upon reaching a non-NULL needle, and a query whose
    /// needles are all NULL must never surface the subquery's run-time
    /// errors. The subquery runs with an empty outer row.
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

/// A compiled physical operator. It resolves no name: columns and CTEs are
/// ordinals, widths are numbers, and the names stay in the logical plan,
/// where [`verify_logical`] checks them.
pub(crate) enum PhysNode {
    ScanTable {
        name: String,
        /// The table columns the plan reads, ascending, set by the
        /// compiler's column pruning: the scan decodes and emits only
        /// these, in this order (`None` = every column).
        cols: Option<Vec<usize>>,
    },
    /// An index-backed table scan: the access path resolves the matching
    /// row ids straight from the table's lazily-built secondary index
    /// (ascending, so output order — and therefore every downstream byte —
    /// matches the scan-plus-filter plan it replaces).
    IndexScan {
        name: String,
        access: IndexAccess,
        /// Emitted table columns; see [`PhysNode::ScanTable`].
        cols: Option<Vec<usize>>,
    },
    /// Global aggregates over a bare table answered from the secondary
    /// index: `SELECT MIN(a), COUNT(*) FROM t` without scanning.
    IndexAgg {
        name: String,
        specs: Vec<AggSpec>,
    },
    /// The materialized result of CTE `idx` of the plan `depth` plans out
    /// (0 = the plan this node belongs to).
    ScanCte {
        depth: usize,
        idx: usize,
    },
    /// A nested plan's materialized result: a derived table, or a
    /// parenthesized query (the logical `Nested`).
    ScanDerived {
        plan: Box<PhysQueryPlan>,
    },
    ScanEmpty,
    Filter {
        input: Box<PhysNode>,
        predicate: PhysExpr,
    },
    HashJoin {
        left: Box<PhysNode>,
        right: Box<PhysNode>,
        operator: bp_sql::JoinOperator,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        /// The join condition beyond the keys: the whole ON of a join
        /// without keys. It reads the joined row.
        residual: Option<PhysExpr>,
        /// Width of a joined row: the left input's arity plus
        /// `right_width`.
        width: usize,
        right_width: usize,
        /// Group the *left* input instead of the right — chosen by the
        /// compiler when the cost model estimates the left input smaller.
        /// Output is byte-identical either way (left-major, matches in
        /// right-row order); only the build/probe roles swap. Never set
        /// without keys: every left row would share one group, so
        /// flattening the left to group it buys nothing.
        build_left: bool,
        /// The joined-row ordinals the join emits, ascending, set by the
        /// compiler's column pruning (`None` = all `width`).
        cols: Option<Vec<usize>>,
    },
    Project {
        input: Box<PhysNode>,
        items: Vec<PhysExpr>,
        visible: usize,
        distinct: bool,
    },
    HashAggregate {
        input: Box<PhysNode>,
        group_by: Vec<PhysExpr>,
        having: Option<PhysExpr>,
        items: Vec<PhysExpr>,
        visible: usize,
        distinct: bool,
        /// Input arity: an empty global group's row is that many NULLs.
        input_width: usize,
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
}

// ---------------------------------------------------------------------
// Runtime context
// ---------------------------------------------------------------------

/// One executing plan's materialized CTE results, in definition order,
/// chained by parent pointer to the enclosing plans' frames.
pub(crate) struct CteFrame<'a> {
    local: &'a [QueryResult],
    parent: Option<&'a CteFrame<'a>>,
}

impl CteFrame<'_> {
    /// CTE `idx` of the frame `depth` frames out.
    fn get(&self, depth: usize, idx: usize) -> Option<&QueryResult> {
        let mut frame = self;
        for _ in 0..depth {
            frame = frame.parent?;
        }
        frame.local.get(idx)
    }
}

/// An enclosing row scope for correlated subquery evaluation: the row a
/// subquery runs for, chained to the scopes around it.
pub(crate) struct OuterEnv<'a> {
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a OuterEnv<'a>>,
}

/// The runtime execution context threaded through the operator tree.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub(crate) db: &'a Snapshot,
    pub(crate) frame: Option<&'a CteFrame<'a>>,
    pub(crate) outer: Option<&'a OuterEnv<'a>>,
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

pub(crate) fn exec_query_plan(
    plan: &PhysQueryPlan,
    ctx: &RunCtx<'_>,
) -> StorageResult<QueryResult> {
    // Each CTE runs over the results before it, then the root over all.
    let mut local = Vec::with_capacity(plan.ctes.len());
    let mut rows = loop {
        let frame = CteFrame {
            local: &local,
            parent: ctx.frame,
        };
        let sub_ctx = RunCtx {
            frame: Some(&frame),
            ..*ctx
        };
        match plan.ctes.get(local.len()) {
            Some((_, sub)) => {
                let result = exec_query_plan(sub, &sub_ctx)?;
                local.push(result);
            }
            None => break columnar::exec_node_rows(&plan.root, &sub_ctx)?,
        }
    };
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

/// Resolve an access path to its matching row ids, ascending — the same
/// rows, in the same order, that a full scan plus filter over the original
/// conjunct would keep. The compiler never emits an access path on a
/// NaN-poisoned column, so the index is always trusted here.
pub(crate) fn index_scan_ids(
    table: &Table,
    access: &IndexAccess,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<u32>> {
    let rows = table.rows();
    match access {
        IndexAccess::Atom(SargAtom::Point { col, key }) => {
            Ok(table.secondary_index(*col).point(key).to_vec())
        }
        IndexAccess::Atom(SargAtom::Range { col, lower, upper }) => {
            Ok(table.secondary_index(*col).range(
                rows,
                *col,
                lower.as_ref().map(|(v, i)| (v, *i)),
                upper.as_ref().map(|(v, i)| (v, *i)),
            ))
        }
        IndexAccess::Atom(SargAtom::InList { col, keys }) => {
            Ok(table.secondary_index(*col).probe(keys.iter()))
        }
        IndexAccess::InSubquery { col, plan } => {
            let idx = table.secondary_index(*col);
            // Lazy like the per-row evaluator: with no non-NULL needle in
            // the column (including the empty table), the subquery — and
            // any run-time error inside it — never runs.
            if idx.null_count() == rows.len() {
                return Ok(Vec::new());
            }
            let env = EvalEnv {
                ctx,
                row: &[],
                group: None,
            };
            let result = plan.execute(&env)?;
            Ok(idx.probe(result.rows.iter().filter_map(|r| r.first())))
        }
    }
}

/// Execute an [`PhysNode::IndexAgg`]: one output row of global aggregates
/// answered from the table's secondary indexes, byte-identical to the
/// hash-aggregate path (the compiler declines `IndexAgg` when any spec
/// column is NaN-poisoned).
pub(crate) fn exec_index_agg(
    name: &str,
    specs: &[AggSpec],
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    let table = ctx
        .db
        .table(name)
        .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
    let rows = table.rows();
    let value_at = |i: u32, col: usize| rows[i as usize].get(col).cloned().unwrap_or(Value::Null);
    let out = specs
        .iter()
        .map(|spec| match spec {
            AggSpec::CountStar => Value::Int(rows.len() as i64),
            AggSpec::Count { col, distinct } => {
                let idx = table.secondary_index(*col);
                if *distinct {
                    Value::Int(idx.distinct_keys() as i64)
                } else {
                    Value::Int((rows.len() - idx.null_count()) as i64)
                }
            }
            // The ordered index puts NULLs first: MIN is the first entry of
            // the non-NULL tail, MAX its last.
            AggSpec::Min(col) => {
                let idx = table.secondary_index(*col);
                let non_null = &idx.ordered()[idx.null_count()..];
                non_null.first().map_or(Value::Null, |&i| value_at(i, *col))
            }
            AggSpec::Max(col) => {
                let idx = table.secondary_index(*col);
                let non_null = &idx.ordered()[idx.null_count()..];
                non_null.last().map_or(Value::Null, |&i| value_at(i, *col))
            }
        })
        .collect();
    Ok(vec![out])
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

/// Evaluate a LIMIT/OFFSET expression (empty row scope) to a count.
pub(crate) fn eval_count(expr: &PhysExpr, ctx: &RunCtx<'_>) -> StorageResult<usize> {
    let env = EvalEnv {
        ctx,
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
                ExecOptions::default(),
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
        // Ascending, descending and expression keys all fuse into the
        // heap-based Top-K, with or without an OFFSET.
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v LIMIT 3"),
            PhysNode::TopK { .. }
        ));
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v LIMIT 3 OFFSET 2"),
            PhysNode::TopK { .. }
        ));
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v DESC LIMIT 3"),
            PhysNode::TopK { .. }
        ));
        assert!(matches!(
            compile_root("SELECT v FROM t ORDER BY v + 1 LIMIT 3"),
            PhysNode::TopK { .. }
        ));
        // So does a filtered input.
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

    #[test]
    fn declined_in_subquery_probe_tallies_each_scan_once() {
        let mut db = Database::new("probe");
        for name in ["a", "b"] {
            db.create_table(TableSchema::new(
                name,
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("k", DataType::Integer),
                ],
            ))
            .expect("schema");
            db.insert_into(
                name,
                (0..20i64).map(|i| vec![Value::Int(i), Value::Int(i % 4)]),
            )
            .expect("rows");
        }
        let snapshot = db.snapshot();
        // Correlated, so the probe declines and the filter fallback runs
        // the subquery per row: one full scan of `a`, one of `b`.
        let sql = "SELECT id FROM a WHERE k IN (SELECT b.k FROM b WHERE b.id = a.id)";
        let query = bp_sql::parse_query(sql).expect("parse");
        let plan = compile_query(&snapshot, &query, CompileOptions::default()).expect("compile");
        assert_eq!(
            plan.access_paths(),
            AccessPathStats {
                index_scan: 0,
                full_scan: 2
            }
        );
        let legacy = snapshot.execute(&query, ExecOptions::new(ExecStrategy::Legacy));
        assert_eq!(exec_compiled(&snapshot, &plan), legacy);
    }

    /// The in-crate indexed ≡ scanned oracle: every fast-path shape,
    /// compiled with and without index lowering, must produce byte-identical
    /// results (errors included) — over data stocked
    /// with NULLs, duplicate keys, NaN (which poisons the index, so the
    /// compiler must decline every index path on that column), and `-0.0`
    /// (which must probe equal to `0`).
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
                Column::new("z", DataType::Float),
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
                // A NaN-free float column, so `-0.0` still meets a probe.
                let z = Value::Float(if i % 3 == 0 { -0.0 } else { (i % 3) as f64 });
                vec![Value::Int(i), k, f, Value::Text(format!("s{}", i % 5)), z]
            })
            .collect();
        db.insert_into("d", rows).expect("rows");
        let snapshot = db.snapshot();
        // Shapes the compiler must lower onto an index.
        let indexed_queries = [
            "SELECT id, s FROM d WHERE id = 42",
            "SELECT id FROM d WHERE k = 3 ORDER BY id",
            "SELECT id FROM d WHERE z = 0 ORDER BY id", // -0.0 probes equal to 0
            "SELECT id FROM d WHERE k > 2 ORDER BY id",
            "SELECT id FROM d WHERE k <= 3 AND s = 's2' ORDER BY id",
            "SELECT id FROM d WHERE id BETWEEN 50 AND 60",
            "SELECT id FROM d WHERE k IN (1, 3, 99) ORDER BY id",
            "SELECT id FROM d WHERE s IN ('s0', 's4', 'zzz') ORDER BY id",
            "SELECT id FROM d WHERE k IN (SELECT k FROM d WHERE id < 10) ORDER BY id",
            "SELECT MIN(k), MAX(k), COUNT(*), COUNT(k), COUNT(DISTINCT s) FROM d",
        ];
        // Shapes the compiler must *decline*: every index path (point,
        // IN-list, IN-subquery, range, index aggregate) on the NaN-poisoned
        // `f` column — `-0.0` included, since the column as a whole is
        // poisoned — and `ORDER BY … LIMIT`, which always runs the heap
        // Top-K. The plan verifier enforces the NaN declination as a hard
        // invariant.
        let declined_queries = [
            "SELECT id FROM d WHERE f = 0 ORDER BY id",
            "SELECT id FROM d WHERE f = 0.5 ORDER BY id",
            "SELECT id FROM d WHERE f IN (0.5, 1.5) ORDER BY id",
            // `id + 0` keeps the subquery itself off the index, so the
            // whole compilation must report zero index scans.
            "SELECT id FROM d WHERE f IN (SELECT f FROM d WHERE id + 0 < 10) ORDER BY id",
            "SELECT id FROM d WHERE f BETWEEN 0 AND 1 ORDER BY id",
            "SELECT MIN(f), MAX(f), COUNT(f) FROM d",
            "SELECT COUNT(DISTINCT f) FROM d",
            "SELECT id, f FROM d ORDER BY f LIMIT 7",
            "SELECT k, id FROM d ORDER BY k LIMIT 9",
            "SELECT id, k FROM d ORDER BY id LIMIT 5 OFFSET 190",
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
                    "expected the compiler to decline every index path for {sql}"
                );
            }
            assert_eq!(
                slow.access_paths().index_scan,
                0,
                "forced-full-scan compile must not touch an index for {sql}"
            );
            let indexed = exec_compiled(&snapshot, &fast);
            let scanned = exec_compiled(&snapshot, &slow);
            assert_eq!(indexed, scanned, "indexed vs scanned diverge on {sql}");
        }
    }
}
