//! Cost model and join reordering — the consumer of [`crate::stats`].
//!
//! Two things live here:
//!
//! * [`Estimator`] — cardinality and selectivity estimates over logical
//!   plans, computed from the per-column statistics of the snapshot's
//!   current table versions. Point predicates use NDV with a uniformity
//!   assumption, ranges use the equi-width histogram (min/max interpolation
//!   as fallback), conjunctions multiply under independence, and equi-join
//!   cardinality divides by the larger key NDV. All of it is advisory:
//!   estimates pick plans, plans are verified by `verify_plan`, and the
//!   differential suites pin results byte-identical regardless.
//!
//! * [`reorder`] — **association-only** join reordering over benign inner
//!   spines. The engines' hash, nested-loop and cross joins all emit
//!   output *left-major* (each probe-side row in order, its matches in
//!   build order), so any join tree over the same left-to-right leaf
//!   sequence produces the same rows in the same order — lexicographic by
//!   original row position. Reordering therefore only re-parenthesizes:
//!   an interval DP (≤ [`DP_MAX_LEAVES`] relations, minimizing the sum of
//!   intermediate sizes) or a greedy adjacent-pair merge (above it) picks
//!   the association tree, and byte-identity with the syntactic plan is
//!   structural, not probabilistic. Commuting leaves could help skewed
//!   cases further but would change output order; it is deliberately
//!   excluded to keep the byte-identity contract.
//!
//! A spine qualifies only when every join is `INNER`/`CROSS` and every ON
//! residual is [`benign`] (error-free), so no
//! reordering can change *which rows* an error-capable expression sees —
//! the same gate predicate pushdown uses. Everything else (outer joins,
//! error-capable residuals, two-relation spines) falls back to syntactic
//! order and is counted in [`OptimizerStats::syntactic_fallback`].

use std::collections::HashMap;

use bp_sql::{collect_column_refs, BinaryOperator, Expr, JoinOperator, Literal, UnaryOperator};

use crate::plan::{
    and_join, benign, resolve_binding, sarg_column, sargable_atom, ColumnBinding, LogicalPlan,
    QueryPlan, SargAtom, Scan, ScanSource,
};
use crate::snapshot::Snapshot;
use crate::stats::ColumnStats;
use crate::value::Value;

/// Relations per spine up to which the exhaustive interval DP runs; larger
/// spines use the greedy adjacent-pair merge.
pub(crate) const DP_MAX_LEAVES: usize = 6;

/// Row-count guess for relations with no statistics (CTE scans planned
/// before their bodies' cardinalities are known, subquery re-plans).
const DEFAULT_ROWS: f64 = 1000.0;

/// Selectivity guess for predicates with no recognized shape.
pub(crate) const DEFAULT_PREDICATE_SELECTIVITY: f64 = 0.25;

/// Selectivity guess for a point predicate on a column with no stats.
const DEFAULT_POINT_SELECTIVITY: f64 = 0.1;

/// Selectivity guess for `LIKE 'prefix%'`-style patterns (matching the
/// classic prefix heuristic; the pattern itself is not inspected further).
const LIKE_SELECTIVITY: f64 = 0.1;

/// Access-path crossover: when even the best sargable atom is estimated to
/// keep more than this fraction of the table, the index path is declined in
/// favour of the full scan. An index probe pays a hash/range lookup plus a
/// scattered gather per hit; once most of the table matches, the sequential
/// scan's contiguous traversal wins even though it reads every row. 0.75 is
/// deliberately conservative — misestimating toward the scan only costs
/// speed on a query that was near the break-even point anyway.
pub(crate) const INDEX_CROSSOVER_SELECTIVITY: f64 = 0.75;

/// Counters for how the optimizer treated the join spines of one planned
/// query (or, accumulated in `PlanCache`, of a whole session): spines
/// reordered by the cost model vs. joins kept in syntactic order (outer
/// joins, error-capable residuals, fewer than three relations, or
/// cost-based planning disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OptimizerStats {
    /// Join spines whose association tree was chosen by the cost model.
    pub cost_based: u64,
    /// Join nodes compiled in syntactic order instead.
    pub syntactic_fallback: u64,
}

/// Estimated selectivity of a sargable atom over `stats` = (statistics of
/// the atom's column, row count of the table they describe); `None` when the
/// column has no statistics, so the fixed guesses apply. The one rule behind
/// the planner's filter estimates, the access-path arbiter and `explain()`'s
/// index-scan estimates.
pub(crate) fn atom_selectivity(stats: Option<(&ColumnStats, usize)>, atom: &SargAtom) -> f64 {
    match atom {
        SargAtom::Point { key, .. } => {
            if key.is_null() {
                return 0.0; // NULL never matches an equality.
            }
            stats
                .map(|(cs, rows)| cs.point_selectivity(rows))
                .unwrap_or(DEFAULT_POINT_SELECTIVITY)
        }
        SargAtom::Range { lower, upper, .. } => stats
            .map(|(cs, rows)| {
                cs.range_selectivity(
                    rows,
                    lower.as_ref().map(|(v, _)| v),
                    upper.as_ref().map(|(v, _)| v),
                )
            })
            .unwrap_or(DEFAULT_PREDICATE_SELECTIVITY),
        SargAtom::InList { keys, .. } => {
            let distinct: std::collections::HashSet<String> = keys
                .iter()
                .filter(|k| !k.is_null())
                .map(Value::group_key)
                .collect();
            let point = stats
                .map(|(cs, rows)| cs.point_selectivity(rows))
                .unwrap_or(DEFAULT_POINT_SELECTIVITY);
            (distinct.len() as f64 * point).clamp(0.0, 1.0)
        }
    }
}

// ---------------------------------------------------------------------
// Estimator
// ---------------------------------------------------------------------

/// Cardinality/selectivity estimator over logical plans, reading the
/// lazily-built [`crate::stats::TableStats`] of the snapshot's tables.
pub(crate) struct Estimator<'a> {
    db: &'a Snapshot,
    /// Estimated row counts of planned CTEs, by planner frame depth then
    /// normalized name (parallel to the planner's name frames). Empty when
    /// estimating outside a planning context (e.g. at compile time).
    cte_rows: &'a [HashMap<String, f64>],
}

impl<'a> Estimator<'a> {
    /// An estimator with no CTE cardinality context.
    pub(crate) fn new(db: &'a Snapshot) -> Self {
        Estimator { db, cte_rows: &[] }
    }

    /// An estimator that can resolve `ScanSource::Cte` cardinalities.
    pub(crate) fn with_cte_rows(db: &'a Snapshot, cte_rows: &'a [HashMap<String, f64>]) -> Self {
        Estimator { db, cte_rows }
    }

    /// Estimated output rows of a plan subtree.
    pub(crate) fn rows(&self, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan(scan) => match &scan.source {
                ScanSource::Table(name) => self
                    .db
                    .table(name)
                    .map(|t| t.row_count() as f64)
                    .unwrap_or(DEFAULT_ROWS),
                ScanSource::Cte { name, depth } => self
                    .cte_rows
                    .get(*depth)
                    .and_then(|frame| frame.get(name))
                    .copied()
                    .unwrap_or(DEFAULT_ROWS),
                ScanSource::Derived(sub) => self.rows(&sub.root),
                ScanSource::Empty => 1.0,
            },
            LogicalPlan::Filter { input, predicate } => {
                self.rows(input) * self.selectivity(predicate, input)
            }
            LogicalPlan::Join {
                left,
                right,
                operator,
                equi_keys,
                residual,
                ..
            } => self.join_rows(left, right, *operator, equi_keys, residual.as_ref()),
            LogicalPlan::Project { input, .. } => self.rows(input),
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                if group_by.is_empty() {
                    1.0
                } else {
                    // Grouping collapses rows; assume 10:1 without key NDV.
                    (self.rows(input) / 10.0).max(1.0)
                }
            }
            LogicalPlan::Sort { input, .. } => self.rows(input),
            LogicalPlan::Limit { input, limit, .. } => {
                let rows = self.rows(input);
                match limit {
                    Some(Expr::Literal(Literal::Number(n))) => match n.parse::<f64>() {
                        Ok(cap) if cap >= 0.0 => rows.min(cap),
                        _ => rows,
                    },
                    _ => rows,
                }
            }
            LogicalPlan::SetOp { left, right, .. } => {
                self.rows(&left.root) + self.rows(&right.root)
            }
            LogicalPlan::Nested(sub) => self.rows(&sub.root),
        }
    }

    /// Estimated output rows of a whole query plan.
    pub(crate) fn query_rows(&self, plan: &QueryPlan) -> f64 {
        self.rows(&plan.root)
    }

    /// Estimated selectivity of `predicate` over the rows of `input`,
    /// resolving column references against `input`'s bindings.
    pub(crate) fn selectivity(&self, predicate: &Expr, input: &LogicalPlan) -> f64 {
        match predicate {
            Expr::Nested(inner) => self.selectivity(inner, input),
            Expr::BinaryOp {
                left,
                op: BinaryOperator::And,
                right,
            } => {
                // Independence assumption: conjuncts multiply.
                self.selectivity(left, input) * self.selectivity(right, input)
            }
            Expr::BinaryOp {
                left,
                op: BinaryOperator::Or,
                right,
            } => {
                let a = self.selectivity(left, input);
                let b = self.selectivity(right, input);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            Expr::UnaryOp {
                op: UnaryOperator::Not,
                expr,
            } => (1.0 - self.selectivity(expr, input)).clamp(0.0, 1.0),
            Expr::IsNull { expr, negated } => {
                let frac = sarg_column(expr, input.bindings())
                    .and_then(|col| self.column_stats(input, col))
                    .map(|(cs, rows)| cs.null_fraction(rows))
                    .unwrap_or(DEFAULT_POINT_SELECTIVITY);
                if *negated {
                    (1.0 - frac).clamp(0.0, 1.0)
                } else {
                    frac
                }
            }
            Expr::Like { negated, .. } => {
                if *negated {
                    1.0 - LIKE_SELECTIVITY
                } else {
                    LIKE_SELECTIVITY
                }
            }
            _ => match sargable_atom(predicate, input.bindings()) {
                Some(atom) => {
                    let stats = self.column_stats(input, atom.col());
                    atom_selectivity(stats.as_ref().map(|(cs, rows)| (cs, *rows)), &atom)
                }
                None => DEFAULT_PREDICATE_SELECTIVITY,
            },
        }
    }

    fn join_rows(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        operator: JoinOperator,
        equi_keys: &[(usize, usize)],
        residual: Option<&Expr>,
    ) -> f64 {
        let lr = self.rows(left);
        let rr = self.rows(right);
        let mut out = lr * rr;
        for &(lk, rk) in equi_keys {
            let ndv_l = self.ndv(left, lk).unwrap_or_else(|| lr.max(1.0));
            let ndv_r = self.ndv(right, rk).unwrap_or_else(|| rr.max(1.0));
            out /= ndv_l.max(ndv_r).max(1.0);
        }
        if residual.is_some() {
            out *= DEFAULT_PREDICATE_SELECTIVITY;
        }
        // Outer joins preserve at least the null-extended side(s).
        match operator {
            JoinOperator::LeftOuter => out.max(lr),
            JoinOperator::RightOuter => out.max(rr),
            JoinOperator::FullOuter => out.max(lr).max(rr),
            JoinOperator::Inner | JoinOperator::Cross => out,
        }
    }

    /// Number of distinct non-NULL values of `ordinal` in `plan`'s output,
    /// when the column traces back to a base-table column with stats.
    fn ndv(&self, plan: &LogicalPlan, ordinal: usize) -> Option<f64> {
        let (cs, _) = self.column_stats(plan, ordinal)?;
        (cs.ndv > 0).then_some(cs.ndv as f64)
    }

    /// The base-table column statistics behind `ordinal` of `plan`'s
    /// output, together with that base table's row count — traced through
    /// filters, sorts, limits and join concatenation. Stops at projections
    /// (the column is computed) and non-table scans.
    fn column_stats(&self, plan: &LogicalPlan, ordinal: usize) -> Option<(ColumnStats, usize)> {
        match plan {
            LogicalPlan::Scan(Scan {
                source: ScanSource::Table(name),
                ..
            }) => {
                let stats = self.db.table(name)?.stats();
                Some((stats.column(ordinal)?.clone(), stats.row_count))
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => self.column_stats(input, ordinal),
            LogicalPlan::Join { left, right, .. } => {
                let lw = left.bindings().len();
                if ordinal < lw {
                    self.column_stats(left, ordinal)
                } else {
                    self.column_stats(right, ordinal - lw)
                }
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Association-only join reordering
// ---------------------------------------------------------------------

/// How one ON-clause fact constrains the spine: an equi-key pair or a
/// benign residual conjunct, with its leaf span and estimated selectivity.
struct Pred {
    /// Smallest leaf index referenced.
    lo: usize,
    /// Largest leaf index referenced.
    hi: usize,
    /// Estimated selectivity (filled after leaves are sized).
    sel: f64,
    kind: PredKind,
}

enum PredKind {
    /// Equi-join key pair, as absolute ordinals into the spine bindings
    /// (`l` in a strictly earlier leaf than `r`).
    Equi { l: usize, r: usize },
    /// Benign non-key conjunct, re-attached at the join node that first
    /// spans all its references.
    Residual { expr: Expr, refs: Vec<RefCheck> },
}

/// One column reference of a residual, with the absolute ordinal it
/// resolved to at its original join node. Re-attachment is only legal if
/// the reference resolves to the *same* column at the new node (first-match
/// name resolution can differ when the new node spans extra leaves).
struct RefCheck {
    qualifier: Option<String>,
    name: String,
    abs: usize,
}

/// Whether this node can be flattened into an association spine: an
/// `INNER`/`CROSS` join whose residual (if any) is benign, so evaluating it
/// on a different intermediate — but identical final — pair set is
/// unobservable.
fn spine_member(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Join {
            operator: JoinOperator::Inner | JoinOperator::Cross,
            residual,
            ..
        } => residual.as_ref().is_none_or(benign),
        _ => false,
    }
}

/// Count the leaves a spine rooted at `plan` would flatten into.
fn spine_leaves(plan: &LogicalPlan) -> usize {
    if spine_member(plan) {
        if let LogicalPlan::Join { left, right, .. } = plan {
            return spine_leaves(left) + spine_leaves(right);
        }
    }
    1
}

/// Borrow-flatten a qualifying spine: collect leaf subtrees (in syntactic
/// left-to-right order) and predicates with absolute ordinals. Returns
/// `false` if a residual reference fails to resolve (cannot happen for
/// benign residuals, but handled without panicking).
fn collect<'p>(
    node: &'p LogicalPlan,
    base: usize,
    leaves: &mut Vec<&'p LogicalPlan>,
    preds: &mut Vec<Pred>,
) -> bool {
    if spine_member(node) {
        if let LogicalPlan::Join {
            left,
            right,
            equi_keys,
            residual,
            bindings,
            ..
        } = node
        {
            let lw = left.bindings().len();
            if !collect(left, base, leaves, preds) || !collect(right, base + lw, leaves, preds) {
                return false;
            }
            for &(oa, ob) in equi_keys {
                preds.push(Pred {
                    lo: 0,
                    hi: 0,
                    sel: 1.0,
                    kind: PredKind::Equi {
                        l: base + oa,
                        r: base + lw + ob,
                    },
                });
            }
            if let Some(r) = residual {
                let mut refs = Vec::new();
                collect_column_refs(r, &mut refs);
                let mut checks = Vec::with_capacity(refs.len());
                for cr in &refs {
                    let qualifier = cr.qualifier.as_ref().map(|i| i.value.as_str());
                    match resolve_binding(bindings, qualifier, &cr.column.value) {
                        Some(local) => checks.push(RefCheck {
                            qualifier: qualifier.map(str::to_string),
                            name: cr.column.value.clone(),
                            abs: base + local,
                        }),
                        None => return false,
                    }
                }
                preds.push(Pred {
                    lo: 0,
                    hi: 0,
                    sel: 1.0,
                    kind: PredKind::Residual {
                        expr: r.clone(),
                        refs: checks,
                    },
                });
            }
            return true;
        }
    }
    leaves.push(node);
    true
}

/// Consuming counterpart of [`collect`]: same traversal, handing out owned
/// leaf subtrees in the same order.
fn take_leaves(node: LogicalPlan, leaves: &mut Vec<LogicalPlan>) {
    if spine_member(&node) {
        if let LogicalPlan::Join { left, right, .. } = node {
            take_leaves(*left, leaves);
            take_leaves(*right, leaves);
            return;
        }
    }
    leaves.push(node);
}

/// Reorder the join spines of a FROM tree (joins, pushed-down filters and
/// scans — the state of the plan between predicate pushdown and
/// projection). `enabled = false` keeps syntactic order everywhere and
/// only counts fallbacks.
pub(crate) fn reorder(
    est: &Estimator,
    plan: LogicalPlan,
    enabled: bool,
    stats: &mut OptimizerStats,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(reorder(est, *input, enabled, stats)),
            predicate,
        },
        node @ LogicalPlan::Join { .. } => {
            if enabled && spine_member(&node) && spine_leaves(&node) > 2 {
                match reorder_spine(est, node, enabled, stats) {
                    Ok(rebuilt) => {
                        stats.cost_based += 1;
                        rebuilt
                    }
                    Err(original) => {
                        stats.syntactic_fallback += 1;
                        original
                    }
                }
            } else if let LogicalPlan::Join {
                left,
                right,
                operator,
                equi_keys,
                residual,
                bindings,
            } = node
            {
                stats.syntactic_fallback += 1;
                LogicalPlan::Join {
                    left: Box::new(reorder(est, *left, enabled, stats)),
                    right: Box::new(reorder(est, *right, enabled, stats)),
                    operator,
                    equi_keys,
                    residual,
                    bindings,
                }
            } else {
                unreachable!("guarded by the Join pattern")
            }
        }
        other => other,
    }
}

/// Analyze and rebuild one qualifying spine (≥ 3 leaves). Returns the
/// original node unchanged if a residual cannot be re-attached safely.
// Err is the caller's own node handed back by value — boxing it would add
// an allocation on the fallback path just to quiet the size lint.
#[allow(clippy::result_large_err)]
fn reorder_spine(
    est: &Estimator,
    node: LogicalPlan,
    enabled: bool,
    stats: &mut OptimizerStats,
) -> Result<LogicalPlan, LogicalPlan> {
    // ---- analysis pass (borrowed) ----
    let full_bindings = node.bindings().to_vec();
    let mut leaf_refs: Vec<&LogicalPlan> = Vec::new();
    let mut preds: Vec<Pred> = Vec::new();
    if !collect(&node, 0, &mut leaf_refs, &mut preds) {
        return Err(node);
    }
    let n = leaf_refs.len();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for leaf in &leaf_refs {
        offsets.push(offsets.last().copied().unwrap_or(0) + leaf.bindings().len());
    }
    let leaf_of = |abs: usize| offsets.partition_point(|&o| o <= abs).saturating_sub(1);

    // Leaf spans and selectivities.
    let leaf_rows: Vec<f64> = leaf_refs.iter().map(|l| est.rows(l)).collect();
    for pred in &mut preds {
        match &pred.kind {
            PredKind::Equi { l, r } => {
                pred.lo = leaf_of(*l);
                pred.hi = leaf_of(*r);
                let li = pred.lo;
                let ri = pred.hi;
                let ndv_l = est
                    .ndv(leaf_refs[li], l - offsets[li])
                    .unwrap_or_else(|| leaf_rows[li].max(1.0));
                let ndv_r = est
                    .ndv(leaf_refs[ri], r - offsets[ri])
                    .unwrap_or_else(|| leaf_rows[ri].max(1.0));
                pred.sel = 1.0 / ndv_l.max(ndv_r).max(1.0);
            }
            PredKind::Residual { expr, refs } => {
                if refs.is_empty() {
                    // Constant conjunct: evaluate once, on the first leaf.
                    pred.lo = 0;
                    pred.hi = 0;
                } else {
                    pred.lo = refs.iter().map(|r| leaf_of(r.abs)).min().unwrap_or(0);
                    pred.hi = refs.iter().map(|r| leaf_of(r.abs)).max().unwrap_or(0);
                }
                let anchor = leaf_refs[pred.lo];
                pred.sel = if pred.lo == pred.hi {
                    est.selectivity(expr, anchor)
                } else {
                    DEFAULT_PREDICATE_SELECTIVITY
                };
            }
        }
    }

    // Estimated rows of the join of leaves [i..=j]: the product of leaf
    // cardinalities times the selectivity of every predicate contained in
    // the span — independent of association, which is what makes the DP
    // objective well-defined.
    let span_rows = |i: usize, j: usize| -> f64 {
        let mut rows: f64 = leaf_rows[i..=j].iter().product();
        for p in &preds {
            if p.lo >= i && p.hi <= j {
                rows *= p.sel;
            }
        }
        rows
    };

    // ---- association choice: split[i][j] = last leaf of the left child ----
    let mut split = vec![vec![0usize; n]; n];
    if n <= DP_MAX_LEAVES {
        // Interval DP minimizing total intermediate size (C_out). Strict
        // `<` keeps the smallest split on ties, deterministically.
        let mut cost = vec![vec![f64::INFINITY; n]; n];
        let mut rows = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            cost[i][i] = 0.0;
            rows[i][i] = leaf_rows[i];
        }
        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                rows[i][j] = span_rows(i, j);
                for m in i..j {
                    let c = cost[i][m] + cost[m + 1][j] + rows[i][m] + rows[m + 1][j];
                    if c < cost[i][j] {
                        cost[i][j] = c;
                        split[i][j] = m;
                    }
                }
            }
        }
    } else {
        // Greedy adjacent-pair merge: repeatedly join the neighboring pair
        // with the smallest merged estimate (leftmost on ties), recording
        // the same split table the DP would.
        let mut segments: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        while segments.len() > 1 {
            let mut best = (f64::INFINITY, 0usize);
            for k in 0..segments.len() - 1 {
                let merged = span_rows(segments[k].0, segments[k + 1].1);
                if merged < best.0 {
                    best = (merged, k);
                }
            }
            let k = best.1;
            let (lo, mid) = segments[k];
            let (_, hi) = segments[k + 1];
            split[lo][hi] = mid;
            segments.splice(k..=k + 1, [(lo, hi)]);
        }
    }

    // ---- safety check: residuals must re-resolve at their new nodes ----
    for pred in &preds {
        if let PredKind::Residual { refs, .. } = &pred.kind {
            // Walk the split tree to the node this pred attaches at: the
            // first span whose split separates lo from hi (or the leaf,
            // for single-leaf residuals).
            let (mut i, mut j) = (0usize, n - 1);
            while i < j {
                let m = split[i][j];
                if pred.hi <= m {
                    j = m;
                } else if pred.lo > m {
                    i = m + 1;
                } else {
                    break;
                }
            }
            let slice = &full_bindings[offsets[i]..offsets[j + 1]];
            for r in refs {
                let resolved = resolve_binding(slice, r.qualifier.as_deref(), &r.name);
                if resolved != Some(r.abs - offsets[i]) {
                    // First-match resolution at the new node would bind a
                    // different column — keep syntactic order.
                    return Err(node);
                }
            }
        }
    }

    // ---- rebuild (consuming) ----
    let mut owned: Vec<LogicalPlan> = Vec::with_capacity(n);
    take_leaves(node, &mut owned);
    let mut leaves: Vec<Option<LogicalPlan>> = owned
        .into_iter()
        .map(|leaf| Some(reorder(est, leaf, enabled, stats)))
        .collect();
    Ok(build(
        &mut leaves,
        &preds,
        &split,
        &offsets,
        &full_bindings,
        0,
        n - 1,
    ))
}

/// Rebuild the association tree over leaves `[i..=j]` from the split
/// table, attaching each predicate at the node where its span first
/// crosses the split (keys and residual conjuncts in original order).
fn build(
    leaves: &mut [Option<LogicalPlan>],
    preds: &[Pred],
    split: &[Vec<usize>],
    offsets: &[usize],
    full_bindings: &[ColumnBinding],
    i: usize,
    j: usize,
) -> LogicalPlan {
    if i == j {
        let mut node = leaves[i].take().unwrap_or(LogicalPlan::Scan(Scan {
            source: ScanSource::Empty,
            bindings: Vec::new(),
        }));
        // Single-leaf residuals become filters on their leaf.
        for p in preds {
            if p.lo == i && p.hi == i {
                if let PredKind::Residual { expr, .. } = &p.kind {
                    node = LogicalPlan::Filter {
                        input: Box::new(node),
                        predicate: expr.clone(),
                    };
                }
            }
        }
        return node;
    }
    let m = split[i][j];
    let left = build(leaves, preds, split, offsets, full_bindings, i, m);
    let right = build(leaves, preds, split, offsets, full_bindings, m + 1, j);
    let mut keys = Vec::new();
    let mut residuals = Vec::new();
    for p in preds {
        if p.lo >= i && p.hi <= j && p.lo <= m && p.hi > m {
            match &p.kind {
                PredKind::Equi { l, r } => keys.push((l - offsets[i], r - offsets[m + 1])),
                PredKind::Residual { expr, .. } => residuals.push(expr.clone()),
            }
        }
    }
    LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        operator: JoinOperator::Inner,
        equi_keys: keys,
        residual: and_join(residuals),
        bindings: full_bindings[offsets[i]..offsets[j + 1]].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::plan::Planner;
    use crate::schema::{Column, TableSchema};
    use bp_sql::{parse_query, DataType};

    /// big (4096 rows) ⋈ mid (512) ⋈ tiny (8), with a selective filter on
    /// tiny — syntactic order pays for |big ⋈ mid| first.
    fn chain_db() -> Database {
        let mut db = Database::new("cost");
        db.create_table(TableSchema::new(
            "big",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("mid_id", DataType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "mid",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("tiny_id", DataType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "tiny",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("tag", DataType::Text),
            ],
        ))
        .unwrap();
        let rows = |n: i64, f: fn(i64) -> crate::table::Row| -> Vec<crate::table::Row> {
            (0..n).map(f).collect()
        };
        db.insert_into("big", rows(4096, |i| vec![i.into(), (i % 512).into()]))
            .unwrap();
        db.insert_into("mid", rows(512, |i| vec![i.into(), (i % 8).into()]))
            .unwrap();
        db.insert_into("tiny", rows(8, |i| vec![i.into(), format!("t{i}").into()]))
            .unwrap();
        db
    }

    fn plan_with(db: &Database, sql: &str, cost_based: bool) -> QueryPlan {
        let query = parse_query(sql).unwrap();
        let snapshot = db.snapshot();
        Planner::new(&snapshot)
            .with_cost_based(cost_based)
            .plan(&query)
            .unwrap()
    }

    #[test]
    fn estimator_tracks_table_sizes_and_filters() {
        let db = chain_db();
        let snapshot = db.snapshot();
        let est = Estimator::new(&snapshot);
        let plan = plan_with(&db, "SELECT id FROM big WHERE id = 7", false);
        // Root is Project over Filter over Scan.
        if let LogicalPlan::Project { input, .. } = &plan.root {
            let rows = est.rows(input);
            assert!(
                rows > 0.5 && rows < 3.0,
                "point lookup on a unique key should estimate ~1 row, got {rows}"
            );
        } else {
            panic!("unexpected plan shape: {plan}");
        }
    }

    #[test]
    fn spine_reorder_joins_small_relations_first() {
        let db = chain_db();
        let sql = "SELECT big.id, tiny.tag FROM big \
                   JOIN mid ON big.mid_id = mid.id \
                   JOIN tiny ON mid.tiny_id = tiny.id \
                   WHERE tiny.tag = 't3'";
        let syntactic = plan_with(&db, sql, false);
        let reordered = plan_with(&db, sql, true);
        // Syntactic order: (big ⋈ mid) ⋈ tiny — the expensive pair first.
        // Cost-based must re-associate to big ⋈ (mid ⋈ tiny).
        let syn = syntactic.to_string();
        let opt = reordered.to_string();
        assert_ne!(syn, opt, "reorder should change the association");
        // In the reordered plan the root's *left* child is the big scan and
        // the right subtree is itself a join (right-deep association).
        let spine = match &reordered.root {
            LogicalPlan::Project { input, .. } => &**input,
            other => other,
        };
        if let LogicalPlan::Join {
            left,
            right,
            bindings,
            ..
        } = spine
        {
            assert!(
                matches!(&**left, LogicalPlan::Scan(_) | LogicalPlan::Filter { .. }),
                "left child should be the big leaf, plan:\n{opt}"
            );
            assert!(
                matches!(&**right, LogicalPlan::Join { .. }),
                "right child should be the (mid ⋈ tiny) join, plan:\n{opt}"
            );
            // Output bindings are unchanged by association.
            assert_eq!(bindings.len(), 6, "2 + 2 + 2 columns");
        } else {
            panic!("expected a join at the spine root, plan:\n{opt}");
        }
    }

    #[test]
    fn outer_joins_and_two_way_spines_stay_syntactic() {
        let db = chain_db();
        let sql2 = "SELECT big.id FROM big JOIN mid ON big.mid_id = mid.id";
        let with = plan_with(&db, sql2, true);
        let without = plan_with(&db, sql2, false);
        assert_eq!(with.to_string(), without.to_string());
        let outer = "SELECT big.id FROM big \
                     LEFT JOIN mid ON big.mid_id = mid.id \
                     LEFT JOIN tiny ON mid.tiny_id = tiny.id";
        let with = plan_with(&db, outer, true);
        let without = plan_with(&db, outer, false);
        assert_eq!(with.to_string(), without.to_string());
    }
}
