//! Static plan verification — a MIR-validator-style pass over logical and
//! compiled physical plans.
//!
//! Seven PRs of rewrites (filter pushdown, Top-K fusion, columnar kernels,
//! index fast paths) are guarded dynamically by the differential suite: a
//! miscompiled plan is caught — if at all — when a corpus happens to
//! execute it. This module turns the engine's load-bearing compile-time
//! invariants into a checkable contract that runs *before* anything
//! executes:
//!
//! * every compiled column ordinal is in bounds for its operator's input
//!   arity (including `LIMIT`/`OFFSET` expressions, which are compiled in
//!   an empty scope and may therefore never contain a resolved column), and
//!   every correlated reference names an enclosing scope and an ordinal in
//!   bounds for that scope's arity, and every CTE scan names an enclosing
//!   plan and a CTE that plan has already materialized;
//! * column-pruning masks (a scan's table columns, a join's emitted
//!   joined-row columns) are strictly ascending and in range, and a pruned
//!   operator's arity is its mask's length, so an ordinal that reads past
//!   a too-narrow input is out of bounds here, not a runtime panic;
//! * index fast paths meet their preconditions: the accessed column
//!   exists, probe keys share the declared column's type family (the
//!   compiler declines family-confused probes — see
//!   [`value_family`]/[`type_family`]), and no index path of any kind
//!   (point, IN-list, IN-subquery and range scans, index aggregates) sits
//!   on a NaN-poisoned column, where `total_cmp` order and `group_key`
//!   equality diverge from the scan kernels' per-row semantics — the
//!   executor has no fallback, so this precondition is what keeps it exact;
//! * join and aggregate structure is sound: hash-join key lists have equal
//!   non-zero arity with in-bounds ordinals on each side, every recorded
//!   width (a join's output and right widths, an aggregate's input width)
//!   equals the arity its inputs produce, sort keys are in bounds, and
//!   `visible` never exceeds the projected item count;
//! * names agree where they still exist, in the logical plan: a join's
//!   output bindings are its children's bindings, concatenated.
//!
//! Both walkers carry only each operator's output *arity* up the tree: no
//! check needs more than a column's position, and the probe-family check
//! reads the declared column type. No expression types are inferred.
//! **Runtime type errors are not violations**: arithmetic on text,
//! division by zero, scalar-subquery cardinality and set-operation width
//! mismatches are legal, differential-tested semantics that the compiler
//! is allowed — required — to emit plans for. The verifier rejects only
//! trees the compiler can never produce from legal SQL.
//!
//! Wiring: [`super::compile_query`] runs [`verify_logical`] on every
//! compile in every build and fails with
//! [`crate::StorageError::PlanVerification`], and asserts [`verify_plan`]
//! in debug builds (so the whole differential suite doubles as a verifier
//! stress test); [`crate::prepared::PreparedQuery`] runs [`verify_plan`]
//! always-on at first compile inside the plan cache, and the public entry
//! points below serve external callers and tests.

use std::collections::HashMap;
use std::fmt;

use bp_sql::DataType;

use crate::plan::{ColumnBinding, LogicalPlan, QueryPlan, SargAtom, Scan, ScanSource, SortKey};
use crate::snapshot::Snapshot;
use crate::value::Value;

use super::expr::{PhysExpr, SubPlan};
use super::{AggSpec, IndexAccess, PhysNode, PhysQueryPlan};

// ---------------------------------------------------------------------
// Type families
// ---------------------------------------------------------------------

/// The comparison family of a declared column type, mirroring
/// `Value::total_cmp`'s ordering families: every non-text type compares in
/// the numeric family, text compares in its own.
pub(crate) fn type_family(dt: DataType) -> u8 {
    match dt {
        DataType::Text => 2,
        _ => 1,
    }
}

/// The comparison family of a runtime value (`0` = NULL, `1` = numeric,
/// `2` = text), mirroring `Value::total_cmp`.
pub(crate) fn value_family(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Text(_) => 2,
        _ => 1,
    }
}

fn family_name(f: u8) -> &'static str {
    match f {
        0 => "null",
        2 => "text",
        _ => "numeric",
    }
}

// ---------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------

/// One invariant breach found by [`verify_plan`] or [`verify_logical`].
///
/// Every variant carries the operator `path` from the plan root down to
/// the offending node (e.g. `root.Project.Filter.IndexScan`) plus enough
/// context to explain the breach without re-walking the plan. A violation
/// means the plan is *miscompiled* — not that the query is wrong: runtime
/// errors (arithmetic on text, division by zero, set-operation width
/// mismatches) are legal semantics and never reported here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanViolation {
    /// A compiled column ordinal is out of bounds for the operator's input
    /// arity. Inside `LIMIT`/`OFFSET` (compiled in an empty scope, arity
    /// 0) *any* resolved column is a miscompile.
    ColumnOutOfBounds {
        /// Operator path from the plan root.
        path: String,
        /// The offending ordinal.
        ordinal: usize,
        /// The input arity it must stay below.
        arity: usize,
    },
    /// A column-pruning mask (a scan's or a join's) is not strictly
    /// ascending, or names a column its operator does not have.
    BadPruneMask {
        /// Operator path from the plan root.
        path: String,
        /// What exactly is wrong with the mask or its position.
        detail: String,
    },
    /// A scan names a table missing from the snapshot's catalog.
    UnknownTable {
        /// Operator path from the plan root.
        path: String,
        /// The unresolved table name.
        name: String,
    },
    /// A logical CTE scan names a CTE no enclosing plan defines.
    UnknownCte {
        /// Operator path from the plan root.
        path: String,
        /// The unresolved CTE name.
        name: String,
    },
    /// A physical CTE scan reads past the CTEs around it: no plan sits
    /// `depth` plans out, or that plan has not materialized CTE `idx` by the
    /// time the scan runs.
    CteOutOfBounds {
        /// Operator path from the plan root.
        path: String,
        /// How many plans out the scan reads.
        depth: usize,
        /// The CTE's position in that plan's CTE list.
        idx: usize,
    },
    /// An index access path targets a column ordinal outside the table's
    /// schema.
    IndexColumnOutOfBounds {
        /// Operator path from the plan root.
        path: String,
        /// The table whose index is accessed.
        table: String,
        /// The offending column ordinal.
        ordinal: usize,
        /// The table's column count.
        arity: usize,
    },
    /// An index access (any `IndexScan` access path, or an `IndexAgg`
    /// spec column) sits on a NaN-poisoned column. NaN breaks the
    /// coincidence between `total_cmp` order / `group_key` equality and the
    /// scan kernels' per-row semantics, and the executor trusts the index
    /// unconditionally, so the compiler must decline these paths at compile
    /// time.
    IndexOnNanColumn {
        /// Operator path from the plan root.
        path: String,
        /// The table whose index is accessed.
        table: String,
        /// The NaN-poisoned column's name.
        column: String,
    },
    /// An index probe key's type family differs from the declared column
    /// type's family — the probe compares values `total_cmp` would never
    /// order into the same family, so the compiler must fall back to a
    /// scan + filter instead.
    TypeConfusedComparison {
        /// Operator path from the plan root.
        path: String,
        /// The table whose index is accessed.
        table: String,
        /// The probed column's name.
        column: String,
        /// The declared column family.
        expected: &'static str,
        /// The probe key's family.
        found: &'static str,
    },
    /// A hash join's key lists differ in length.
    JoinKeyArityMismatch {
        /// Operator path from the plan root.
        path: String,
        /// Left key-list length.
        left: usize,
        /// Right key-list length.
        right: usize,
    },
    /// A join's recorded `right_width` disagrees with its right input's
    /// actual arity.
    JoinWidthMismatch {
        /// Operator path from the plan root.
        path: String,
        /// The right input's actual arity.
        expected: usize,
        /// The width the join recorded.
        found: usize,
    },
    /// A logical join's output bindings are not the concatenation of its
    /// children's bindings. Every join algorithm emits left columns then
    /// right columns, so this must hold for *any* association tree over the
    /// same leaf sequence — it is the join-order-independent invariant that
    /// catches a reorder which rewired children without rebuilding bindings
    /// to match.
    JoinBindingMismatch {
        /// Operator path from the plan root.
        path: String,
        /// Position in the join's output bindings.
        ordinal: usize,
        /// The child's binding at that position (rendered).
        expected: String,
        /// The join's binding at that position (rendered).
        found: String,
    },
    /// An operator's recorded width disagrees with the arity its inputs
    /// produce: a logical scan's or join's name bindings, or a physical
    /// join's output `width` or aggregate's `input_width`.
    BindingWidthMismatch {
        /// Operator path from the plan root.
        path: String,
        /// The recorded width (the binding count, in a logical plan).
        bindings: usize,
        /// The operator's input arity.
        arity: usize,
    },
    /// A sort / Top-K key ordinal is out of bounds for the operator's
    /// input. (`ordinal: None` — a constant NULL key — is always legal.)
    SortKeyOutOfBounds {
        /// Operator path from the plan root.
        path: String,
        /// The offending key ordinal.
        ordinal: usize,
        /// The input arity it must stay below.
        arity: usize,
    },
    /// A projection's `visible` count exceeds its item count (hidden sort
    /// keys extend `items` beyond `visible`, never the other way round).
    VisibleOutOfBounds {
        /// Operator path from the plan root.
        path: String,
        /// The recorded visible count.
        visible: usize,
        /// The number of projected items.
        items: usize,
    },
    /// A correlated column reference points past the rows around it: no
    /// enclosing scope sits `depth` levels out (`arity` 0), or `ordinal` is
    /// out of bounds for that scope's arity. The subquery of an `IN
    /// (subquery)` index probe runs with an empty outer row, so any
    /// reference to its innermost scope is out of bounds.
    OuterColumnOutOfBounds {
        /// Operator path from the plan root.
        path: String,
        /// How many scopes out the reference reads.
        depth: usize,
        /// The offending ordinal in that scope's row.
        ordinal: usize,
        /// The arity of the scope `depth` levels out.
        arity: usize,
    },
    /// A plan promises more output columns than its root operator
    /// produces.
    OutputWidthMismatch {
        /// Operator path from the plan root.
        path: String,
        /// Number of named output columns.
        columns: usize,
        /// The root operator's arity.
        arity: usize,
    },
}

impl PlanViolation {
    /// The operator path from the plan root to the offending node.
    pub fn path(&self) -> &str {
        match self {
            PlanViolation::ColumnOutOfBounds { path, .. }
            | PlanViolation::OuterColumnOutOfBounds { path, .. }
            | PlanViolation::BadPruneMask { path, .. }
            | PlanViolation::UnknownTable { path, .. }
            | PlanViolation::UnknownCte { path, .. }
            | PlanViolation::CteOutOfBounds { path, .. }
            | PlanViolation::IndexColumnOutOfBounds { path, .. }
            | PlanViolation::IndexOnNanColumn { path, .. }
            | PlanViolation::TypeConfusedComparison { path, .. }
            | PlanViolation::JoinKeyArityMismatch { path, .. }
            | PlanViolation::JoinWidthMismatch { path, .. }
            | PlanViolation::JoinBindingMismatch { path, .. }
            | PlanViolation::BindingWidthMismatch { path, .. }
            | PlanViolation::SortKeyOutOfBounds { path, .. }
            | PlanViolation::VisibleOutOfBounds { path, .. }
            | PlanViolation::OutputWidthMismatch { path, .. } => path,
        }
    }
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::ColumnOutOfBounds {
                path,
                ordinal,
                arity,
            } => write!(
                f,
                "{path}: column ordinal {ordinal} out of bounds for input arity {arity}"
            ),
            PlanViolation::OuterColumnOutOfBounds {
                path,
                depth,
                ordinal,
                arity,
            } => write!(
                f,
                "{path}: outer column {ordinal} at depth {depth} out of bounds for scope arity {arity}"
            ),
            PlanViolation::BadPruneMask { path, detail } => {
                write!(f, "{path}: bad column-pruning mask: {detail}")
            }
            PlanViolation::UnknownTable { path, name } => {
                write!(f, "{path}: unknown table {name}")
            }
            PlanViolation::UnknownCte { path, name } => {
                write!(f, "{path}: unknown CTE {name}")
            }
            PlanViolation::CteOutOfBounds { path, depth, idx } => {
                write!(f, "{path}: no CTE {idx} in the plan {depth} out")
            }
            PlanViolation::IndexColumnOutOfBounds {
                path,
                table,
                ordinal,
                arity,
            } => write!(
                f,
                "{path}: index access on {table} column {ordinal}, but the table has {arity} columns"
            ),
            PlanViolation::IndexOnNanColumn {
                path,
                table,
                column,
            } => write!(
                f,
                "{path}: index path on NaN-poisoned column {table}.{column}"
            ),
            PlanViolation::TypeConfusedComparison {
                path,
                table,
                column,
                expected,
                found,
            } => write!(
                f,
                "{path}: index probe on {table}.{column} compares a {found} key against a {expected} column"
            ),
            PlanViolation::JoinKeyArityMismatch { path, left, right } => write!(
                f,
                "{path}: hash-join key lists disagree (left {left}, right {right})"
            ),
            PlanViolation::JoinWidthMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path}: join records right_width {found}, but the right input has arity {expected}"
            ),
            PlanViolation::JoinBindingMismatch {
                path,
                ordinal,
                expected,
                found,
            } => write!(
                f,
                "{path}: join binding {ordinal} is `{found}`, but the child provides `{expected}` at that position"
            ),
            PlanViolation::BindingWidthMismatch {
                path,
                bindings,
                arity,
            } => write!(
                f,
                "{path}: width {bindings} recorded over an input of arity {arity}"
            ),
            PlanViolation::SortKeyOutOfBounds {
                path,
                ordinal,
                arity,
            } => write!(
                f,
                "{path}: sort key ordinal {ordinal} out of bounds for input arity {arity}"
            ),
            PlanViolation::VisibleOutOfBounds {
                path,
                visible,
                items,
            } => write!(
                f,
                "{path}: visible count {visible} exceeds {items} projected items"
            ),
            PlanViolation::OutputWidthMismatch {
                path,
                columns,
                arity,
            } => write!(
                f,
                "{path}: plan promises {columns} output columns but the root produces {arity}"
            ),
        }
    }
}

/// Render a violation list for assertion messages.
pub(crate) fn render_violations(violations: &[PlanViolation]) -> String {
    violations
        .iter()
        .map(|v| format!("  - {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------
// Verifier counters
// ---------------------------------------------------------------------

/// Counters for plan-verification coverage, exposed through
/// [`crate::PlanCache::verifier_stats`] so coverage is
/// observable, not inferred. Mirrors [`super::AccessPathStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VerifierStats {
    /// Compiled plans that ran through [`verify_plan`] (counted once per
    /// compile, not per execution).
    pub plans_verified: u64,
    /// Total violations those runs reported (0 for a healthy compiler).
    pub violations: u64,
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Verify a compiled physical plan against the snapshot it was compiled
/// for. Returns every invariant breach found (empty = the plan is sound).
/// Walks CTE plans, set-operation branches, nested plans and every
/// expression subquery.
pub fn verify_plan(db: &Snapshot, plan: &PhysQueryPlan) -> Vec<PlanViolation> {
    let mut v = Verifier {
        db,
        violations: Vec::new(),
        path: vec![PathSeg::Op("root")],
        cte_arities: Vec::new(),
        scopes: Vec::new(),
    };
    v.check_plan(plan);
    v.violations
}

/// Verify a logical plan before compilation: scan binding widths match
/// their sources, a join's bindings are exactly its children's,
/// concatenated, equi-key and sort-key ordinals are in bounds, and
/// projection name lists never exceed their items. Expressions are still
/// raw AST at this layer, so expression-level checks live in
/// [`verify_plan`].
pub fn verify_logical(db: &Snapshot, plan: &QueryPlan) -> Vec<PlanViolation> {
    let mut v = LogicalVerifier {
        db,
        violations: Vec::new(),
        path: vec![PathSeg::Op("root")],
        frames: Vec::new(),
    };
    v.check_plan(plan);
    v.violations
}

// ---------------------------------------------------------------------
// Physical walker
// ---------------------------------------------------------------------

/// One step of an operator path: an operator, or a CTE of the plan being
/// walked. Steps borrow their text; [`render_path`] joins them only when a
/// violation is reported.
enum PathSeg<'a> {
    Op(&'static str),
    Cte(&'a str),
}

/// Join a path's steps with `.`, a CTE step as `cte(<name>)`.
fn render_path(path: &[PathSeg<'_>]) -> String {
    let steps: Vec<String> = path
        .iter()
        .map(|seg| match seg {
            PathSeg::Op(op) => op.to_string(),
            PathSeg::Cte(name) => format!("cte({name})"),
        })
        .collect();
    steps.join(".")
}

struct Verifier<'a> {
    db: &'a Snapshot,
    violations: Vec<PlanViolation>,
    path: Vec<PathSeg<'a>>,
    /// One frame per enclosing plan, innermost last: the output arities of
    /// the CTEs that plan has materialized so far, in definition order.
    cte_arities: Vec<Vec<usize>>,
    /// Arities of the row scopes enclosing the current subquery, innermost
    /// last: what a correlated reference may read.
    scopes: Vec<usize>,
}

impl<'a> Verifier<'a> {
    fn path(&self) -> String {
        render_path(&self.path)
    }

    fn report(&mut self, violation: PlanViolation) {
        self.violations.push(violation);
    }

    /// Verify one (sub-)plan and return its visible output arity
    /// (truncated to the declared column list, exactly like execution).
    fn check_plan(&mut self, plan: &'a PhysQueryPlan) -> usize {
        self.cte_arities.push(Vec::new());
        for (name, sub) in &plan.ctes {
            self.path.push(PathSeg::Cte(name));
            let arity = self.check_plan(sub);
            self.path.pop();
            self.cte_arities
                .last_mut()
                .expect("frame pushed above")
                .push(arity);
        }
        let root_arity = self.check_node(&plan.root);
        if plan.columns.len() > root_arity {
            self.report(PlanViolation::OutputWidthMismatch {
                path: self.path(),
                columns: plan.columns.len(),
                arity: root_arity,
            });
        }
        self.cte_arities.pop();
        plan.columns.len().min(root_arity)
    }

    /// Verify one operator and return its output arity.
    fn check_node(&mut self, node: &'a PhysNode) -> usize {
        match node {
            PhysNode::ScanTable { name, cols } => {
                self.path.push(PathSeg::Op("ScanTable"));
                let arity = self.check_table_scan(name, cols.as_deref());
                self.path.pop();
                arity
            }
            PhysNode::IndexScan { name, access, cols } => {
                self.path.push(PathSeg::Op("IndexScan"));
                let arity = self.check_table_scan(name, cols.as_deref());
                self.check_index_access(name, access);
                self.path.pop();
                arity
            }
            PhysNode::IndexAgg { name, specs } => {
                self.path.push(PathSeg::Op("IndexAgg"));
                let out = self.check_index_agg(name, specs);
                self.path.pop();
                out
            }
            PhysNode::ScanCte { depth, idx } => {
                let frame = self.cte_arities.iter().rev().nth(*depth);
                let found = frame.and_then(|ctes| ctes.get(*idx)).copied();
                found.unwrap_or_else(|| {
                    self.path.push(PathSeg::Op("ScanCte"));
                    let v = PlanViolation::CteOutOfBounds {
                        path: self.path(),
                        depth: *depth,
                        idx: *idx,
                    };
                    self.report(v);
                    self.path.pop();
                    0
                })
            }
            PhysNode::ScanDerived { plan } => {
                self.path.push(PathSeg::Op("ScanDerived"));
                let arity = self.check_plan(plan);
                self.path.pop();
                arity
            }
            PhysNode::ScanEmpty => 0,
            PhysNode::Filter { input, predicate } => {
                self.path.push(PathSeg::Op("Filter"));
                let arity = self.check_node(input);
                self.check_expr(predicate, arity);
                self.path.pop();
                arity
            }
            PhysNode::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                width,
                right_width,
                cols,
                ..
            } => {
                self.path.push(PathSeg::Op("HashJoin"));
                self.path.push(PathSeg::Op("left"));
                let left_arity = self.check_node(left);
                self.path.pop();
                self.path.push(PathSeg::Op("right"));
                let right_arity = self.check_node(right);
                self.path.pop();
                if *right_width != right_arity {
                    self.report(PlanViolation::JoinWidthMismatch {
                        path: self.path(),
                        expected: right_arity,
                        found: *right_width,
                    });
                }
                let joined = left_arity + right_arity;
                self.check_width(*width, joined);
                // Key lists pair up; both are empty for a cross or non-equi
                // join.
                if left_keys.len() != right_keys.len() {
                    self.report(PlanViolation::JoinKeyArityMismatch {
                        path: self.path(),
                        left: left_keys.len(),
                        right: right_keys.len(),
                    });
                }
                for (side, keys, arity) in [
                    ("left_keys", left_keys, left_arity),
                    ("right_keys", right_keys, right_arity),
                ] {
                    for &k in keys.iter().filter(|&&k| k >= arity) {
                        self.report(PlanViolation::ColumnOutOfBounds {
                            path: format!("{}.{side}", self.path()),
                            ordinal: k,
                            arity,
                        });
                    }
                }
                if let Some(residual) = residual {
                    self.check_expr(residual, joined);
                }
                let out = self.check_mask(cols.as_deref(), joined, "the joined row");
                self.path.pop();
                out
            }
            PhysNode::Project {
                input,
                items,
                visible,
                ..
            } => {
                self.path.push(PathSeg::Op("Project"));
                let arity = self.check_node(input);
                if *visible > items.len() {
                    self.report(PlanViolation::VisibleOutOfBounds {
                        path: self.path(),
                        visible: *visible,
                        items: items.len(),
                    });
                }
                for item in items {
                    self.check_expr(item, arity);
                }
                self.path.pop();
                items.len()
            }
            PhysNode::HashAggregate {
                input,
                group_by,
                having,
                items,
                visible,
                input_width,
                ..
            } => {
                self.path.push(PathSeg::Op("HashAggregate"));
                let arity = self.check_node(input);
                self.check_width(*input_width, arity);
                if *visible > items.len() {
                    self.report(PlanViolation::VisibleOutOfBounds {
                        path: self.path(),
                        visible: *visible,
                        items: items.len(),
                    });
                }
                for expr in group_by.iter().chain(having).chain(items) {
                    self.check_expr(expr, arity);
                }
                self.path.pop();
                items.len()
            }
            PhysNode::Sort { input, keys } => {
                self.path.push(PathSeg::Op("Sort"));
                let arity = self.check_node(input);
                self.check_sort_keys(keys, arity);
                self.path.pop();
                arity
            }
            PhysNode::TopK {
                input,
                keys,
                limit,
                offset,
            } => {
                self.path.push(PathSeg::Op("TopK"));
                let arity = self.check_node(input);
                self.check_sort_keys(keys, arity);
                for expr in std::iter::once(limit).chain(offset) {
                    self.check_expr(expr, 0);
                }
                self.path.pop();
                arity
            }
            PhysNode::Limit {
                input,
                limit,
                offset,
            } => {
                self.path.push(PathSeg::Op("Limit"));
                let arity = self.check_node(input);
                // LIMIT/OFFSET are compiled in an empty scope: identifiers
                // resolve to outer references, never to columns, so any
                // `Column` here is a miscompile (flagged as out of bounds
                // against arity 0).
                for expr in limit.iter().chain(offset) {
                    self.check_expr(expr, 0);
                }
                self.path.pop();
                arity
            }
            PhysNode::SetOp { left, right, .. } => {
                // A width mismatch between the branches is a *legal runtime
                // error* (differential-tested), so only the branches
                // themselves are verified here.
                self.path.push(PathSeg::Op("SetOp.left"));
                let arity = self.check_plan(left);
                self.path.pop();
                self.path.push(PathSeg::Op("SetOp.right"));
                self.check_plan(right);
                self.path.pop();
                arity
            }
        }
    }

    /// Schema lookup + mask validation shared by table and index scans.
    /// Returns the scan's output arity: its mask's length when pruned.
    fn check_table_scan(&mut self, name: &str, cols: Option<&[usize]>) -> usize {
        let Some(table) = self.db.table(name) else {
            let v = PlanViolation::UnknownTable {
                path: self.path(),
                name: name.to_string(),
            };
            self.report(v);
            return 0;
        };
        let arity = table.schema.column_count();
        self.check_mask(cols, arity, "the table")
    }

    /// A pruning mask over an operator's `arity` unpruned columns (`what`
    /// names them) must be strictly ascending and in range. Returns the
    /// emitted arity: the mask's length, or `arity` without one.
    fn check_mask(&mut self, cols: Option<&[usize]>, arity: usize, what: &str) -> usize {
        let Some(mask) = cols else {
            return arity;
        };
        if !mask.windows(2).all(|w| w[0] < w[1]) {
            let v = PlanViolation::BadPruneMask {
                path: self.path(),
                detail: format!("mask {mask:?} is not strictly ascending"),
            };
            self.report(v);
        }
        if let Some(&c) = mask.iter().find(|&&c| c >= arity) {
            let v = PlanViolation::BadPruneMask {
                path: self.path(),
                detail: format!("mask names column {c}, but {what} has {arity} columns"),
            };
            self.report(v);
        }
        mask.len()
    }

    /// Index fast-path preconditions: in-bounds column, family-compatible
    /// probe keys, and no index path of any kind on a NaN-poisoned column.
    fn check_index_access(&mut self, table: &str, access: &'a IndexAccess) {
        let Some(t) = self.db.table(table) else {
            return; // UnknownTable already reported by check_table_scan.
        };
        let arity = t.schema.column_count();
        let (col, keys): (usize, Vec<&Value>) = match access {
            IndexAccess::Atom(SargAtom::Point { col, key }) => (*col, vec![key]),
            IndexAccess::Atom(SargAtom::InList { col, keys }) => (*col, keys.iter().collect()),
            IndexAccess::Atom(SargAtom::Range { col, lower, upper }) => (
                *col,
                lower.iter().chain(upper.iter()).map(|(v, _)| v).collect(),
            ),
            // The probe keys come from the subquery, so their family is
            // unknowable at compile time.
            IndexAccess::InSubquery { col, .. } => (*col, Vec::new()),
        };
        if col >= arity {
            let v = PlanViolation::IndexColumnOutOfBounds {
                path: self.path(),
                table: table.to_string(),
                ordinal: col,
                arity,
            };
            self.report(v);
        } else {
            self.check_key_family(table, col, &keys);
            self.check_not_nan(table, col);
        }
        if let IndexAccess::InSubquery { plan, .. } = access {
            // The probe runs its subquery with an empty outer row.
            self.check_subplan(plan, 0);
        }
    }

    /// Probe keys must share the declared column's `total_cmp` family.
    fn check_key_family(&mut self, table: &str, col: usize, keys: &[&Value]) {
        let Some(t) = self.db.table(table) else {
            return;
        };
        let column = &t.schema.columns[col];
        let expected = type_family(column.data_type);
        for key in keys {
            let found = value_family(key);
            if found != expected {
                let v = PlanViolation::TypeConfusedComparison {
                    path: self.path(),
                    table: table.to_string(),
                    column: column.name.clone(),
                    expected: family_name(expected),
                    found: family_name(found),
                };
                self.report(v);
            }
        }
    }

    /// Index paths are forbidden on NaN-poisoned columns.
    fn check_not_nan(&mut self, table: &str, col: usize) {
        let Some(t) = self.db.table(table) else {
            return;
        };
        if t.secondary_index(col).has_nan() {
            let v = PlanViolation::IndexOnNanColumn {
                path: self.path(),
                table: table.to_string(),
                column: t.schema.columns[col].name.clone(),
            };
            self.report(v);
        }
    }

    /// Index-aggregate columns are in bounds and free of NaN. Returns the
    /// output arity: one column per spec.
    fn check_index_agg(&mut self, name: &str, specs: &[AggSpec]) -> usize {
        let Some(table) = self.db.table(name) else {
            let v = PlanViolation::UnknownTable {
                path: self.path(),
                name: name.to_string(),
            };
            self.report(v);
            return 0;
        };
        let arity = table.schema.column_count();
        for spec in specs {
            let col = match spec {
                AggSpec::CountStar => continue,
                AggSpec::Count { col, .. } | AggSpec::Min(col) | AggSpec::Max(col) => *col,
            };
            if col >= arity {
                let v = PlanViolation::IndexColumnOutOfBounds {
                    path: self.path(),
                    table: name.to_string(),
                    ordinal: col,
                    arity,
                };
                self.report(v);
            } else {
                self.check_not_nan(name, col);
            }
        }
        specs.len()
    }

    fn check_width(&mut self, width: usize, arity: usize) {
        if width != arity {
            self.report(PlanViolation::BindingWidthMismatch {
                path: self.path(),
                bindings: width,
                arity,
            });
        }
    }

    fn check_sort_keys(&mut self, keys: &[SortKey], arity: usize) {
        for key in keys {
            if let Some(ordinal) = key.ordinal {
                if ordinal >= arity {
                    self.report(PlanViolation::SortKeyOutOfBounds {
                        path: self.path(),
                        ordinal,
                        arity,
                    });
                }
            }
        }
    }

    /// Verify a subquery that runs for rows of arity `row_arity`.
    fn check_subplan(&mut self, plan: &'a SubPlan, row_arity: usize) {
        self.path.push(PathSeg::Op("subquery"));
        self.scopes.push(row_arity);
        self.check_plan(&plan.plan);
        self.scopes.pop();
        self.path.pop();
    }

    /// Walk an expression: check each resolved column against the input
    /// arity and each correlated one against its enclosing scope, then the
    /// node's children, then the subplan it holds (if any). Runtime type
    /// errors are legal semantics, so nothing about an expression's type is
    /// checked here.
    fn check_expr(&mut self, expr: &'a PhysExpr, arity: usize) {
        match *expr {
            PhysExpr::Column(idx) if idx >= arity => {
                self.report(PlanViolation::ColumnOutOfBounds {
                    path: self.path(),
                    ordinal: idx,
                    arity,
                });
            }
            PhysExpr::OuterColumn { depth, idx } => {
                let scope = self.scopes.len().checked_sub(depth + 1);
                let scope_arity = scope.map_or(0, |scope| self.scopes[scope]);
                if idx >= scope_arity {
                    self.report(PlanViolation::OuterColumnOutOfBounds {
                        path: self.path(),
                        depth,
                        ordinal: idx,
                        arity: scope_arity,
                    });
                }
            }
            _ => {}
        }
        expr.for_each_child(|child| self.check_expr(child, arity));
        if let PhysExpr::Exists { plan, .. }
        | PhysExpr::ScalarSubquery { plan }
        | PhysExpr::InSubquery { plan, .. } = expr
        {
            self.check_subplan(plan, arity);
        }
    }
}

// ---------------------------------------------------------------------
// Logical walker
// ---------------------------------------------------------------------

struct LogicalVerifier<'a> {
    db: &'a Snapshot,
    violations: Vec<PlanViolation>,
    path: Vec<PathSeg<'a>>,
    /// CTE scopes, innermost last: name → output width.
    frames: Vec<HashMap<&'a str, usize>>,
}

impl<'a> LogicalVerifier<'a> {
    fn path(&self) -> String {
        render_path(&self.path)
    }

    fn report(&mut self, violation: PlanViolation) {
        self.violations.push(violation);
    }

    fn check_plan(&mut self, plan: &'a QueryPlan) -> usize {
        self.frames.push(HashMap::new());
        for (name, sub) in &plan.ctes {
            self.path.push(PathSeg::Cte(name));
            let width = self.check_plan(sub);
            self.path.pop();
            self.frames
                .last_mut()
                .expect("frame pushed above")
                .insert(name, width);
        }
        let root_width = self.check_node(&plan.root);
        if plan.columns.len() > root_width {
            self.report(PlanViolation::OutputWidthMismatch {
                path: self.path(),
                columns: plan.columns.len(),
                arity: root_width,
            });
        }
        self.frames.pop();
        plan.columns.len().min(root_width)
    }

    fn check_node(&mut self, node: &'a LogicalPlan) -> usize {
        match node {
            LogicalPlan::Scan(Scan { source, bindings }) => {
                self.path.push(PathSeg::Op("Scan"));
                let expected = match source {
                    ScanSource::Table(name) => match self.db.table(name) {
                        Some(table) => Some(table.schema.column_count()),
                        None => {
                            let v = PlanViolation::UnknownTable {
                                path: self.path(),
                                name: name.clone(),
                            };
                            self.report(v);
                            None
                        }
                    },
                    ScanSource::Cte { name, .. } => {
                        let found = self
                            .frames
                            .iter()
                            .rev()
                            .find_map(|frame| frame.get(name.as_str()))
                            .copied();
                        if found.is_none() {
                            let v = PlanViolation::UnknownCte {
                                path: self.path(),
                                name: name.clone(),
                            };
                            self.report(v);
                        }
                        found
                    }
                    ScanSource::Derived(sub) => Some(self.check_plan(sub)),
                    ScanSource::Empty => Some(0),
                };
                if let Some(expected) = expected {
                    if bindings.len() != expected {
                        let v = PlanViolation::BindingWidthMismatch {
                            path: self.path(),
                            bindings: bindings.len(),
                            arity: expected,
                        };
                        self.report(v);
                    }
                }
                self.path.pop();
                bindings.len()
            }
            LogicalPlan::Filter { input, .. } => {
                self.path.push(PathSeg::Op("Filter"));
                let width = self.check_node(input);
                self.path.pop();
                width
            }
            LogicalPlan::Join {
                left,
                right,
                equi_keys,
                bindings,
                ..
            } => {
                self.path.push(PathSeg::Op("Join"));
                let left_width = self.check_node(left);
                let right_width = self.check_node(right);
                if bindings.len() != left_width + right_width {
                    let v = PlanViolation::BindingWidthMismatch {
                        path: self.path(),
                        bindings: bindings.len(),
                        arity: left_width + right_width,
                    };
                    self.report(v);
                }
                // Join-order-independent output-binding invariant: every
                // join algorithm emits left columns then right columns, so
                // the output bindings must be the children's, concatenated,
                // for any association tree — the check that catches a
                // reordered plan whose bindings were not rebuilt to match
                // the rewired children.
                let render = |b: &ColumnBinding| match &b.qualifier {
                    Some(q) => format!("{q}.{}", b.name),
                    None => b.name.clone(),
                };
                for (child, offset) in [(left, 0), (right, left_width)] {
                    for (i, cb) in child.bindings().iter().enumerate() {
                        if bindings.get(offset + i).is_some_and(|b| b != cb) {
                            let v = PlanViolation::JoinBindingMismatch {
                                path: self.path(),
                                ordinal: offset + i,
                                expected: render(cb),
                                found: render(&bindings[offset + i]),
                            };
                            self.report(v);
                            break; // one mismatch per side explains the breach
                        }
                    }
                }
                for &(l, r) in equi_keys {
                    if l >= left_width {
                        let v = PlanViolation::ColumnOutOfBounds {
                            path: format!("{}.left_keys", self.path()),
                            ordinal: l,
                            arity: left_width,
                        };
                        self.report(v);
                    }
                    if r >= right_width {
                        let v = PlanViolation::ColumnOutOfBounds {
                            path: format!("{}.right_keys", self.path()),
                            ordinal: r,
                            arity: right_width,
                        };
                        self.report(v);
                    }
                }
                self.path.pop();
                left_width + right_width
            }
            LogicalPlan::Project {
                input,
                items,
                names,
                ..
            }
            | LogicalPlan::Aggregate {
                input,
                items,
                names,
                ..
            } => {
                self.path.push(PathSeg::Op(
                    if matches!(node, LogicalPlan::Project { .. }) {
                        "Project"
                    } else {
                        "Aggregate"
                    },
                ));
                self.check_node(input);
                if names.len() > items.len() {
                    let v = PlanViolation::VisibleOutOfBounds {
                        path: self.path(),
                        visible: names.len(),
                        items: items.len(),
                    };
                    self.report(v);
                }
                self.path.pop();
                items.len()
            }
            LogicalPlan::Sort { input, keys } => {
                self.path.push(PathSeg::Op("Sort"));
                let width = self.check_node(input);
                for key in keys {
                    if let Some(ordinal) = key.ordinal {
                        if ordinal >= width {
                            let v = PlanViolation::SortKeyOutOfBounds {
                                path: self.path(),
                                ordinal,
                                arity: width,
                            };
                            self.report(v);
                        }
                    }
                }
                self.path.pop();
                width
            }
            LogicalPlan::Limit { input, .. } => {
                self.path.push(PathSeg::Op("Limit"));
                let width = self.check_node(input);
                self.path.pop();
                width
            }
            LogicalPlan::SetOp { left, right, .. } => {
                self.path.push(PathSeg::Op("SetOp.left"));
                let left_width = self.check_plan(left);
                self.path.pop();
                self.path.push(PathSeg::Op("SetOp.right"));
                self.check_plan(right);
                self.path.pop();
                left_width
            }
            LogicalPlan::Nested(sub) => {
                self.path.push(PathSeg::Op("Nested"));
                let width = self.check_plan(sub);
                self.path.pop();
                width
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::plan::ColumnBinding;
    use crate::schema::{Column, TableSchema};
    use bp_sql::JoinOperator;

    /// A table with an Integer key, an Integer payload, and a NaN-poisoned
    /// Float column — enough surface for every corrupted-plan fixture.
    fn db() -> Database {
        let mut db = Database::new("verify");
        db.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("v", DataType::Integer),
                Column::new("f", DataType::Float),
            ],
        ))
        .unwrap();
        db.insert_into(
            "t",
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Float(0.5)],
                vec![Value::Int(2), Value::Int(20), Value::Float(f64::NAN)],
            ],
        )
        .unwrap();
        db
    }

    fn scan_t() -> PhysNode {
        PhysNode::ScanTable {
            name: "T".into(),
            cols: None,
        }
    }

    #[test]
    fn rejects_out_of_bounds_column_ordinal() {
        let db = db();
        // A projection reading column 7 of a 3-column scan: the classic
        // miscompile a corpus only catches if an engine panics.
        let corrupt = PhysQueryPlan::of(
            PhysNode::Project {
                input: Box::new(scan_t()),
                items: vec![PhysExpr::Column(7)],
                visible: 1,
                distinct: false,
            },
            &["x"],
        );
        let violations = verify_plan(&db.snapshot(), &corrupt);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                PlanViolation::ColumnOutOfBounds {
                    ordinal: 7,
                    arity: 3,
                    ..
                }
            )),
            "expected ColumnOutOfBounds, got:\n{}",
            render_violations(&violations)
        );
        let first = &violations[0];
        assert!(first.path().starts_with("root.Project"), "{first}");
    }

    #[test]
    fn rejects_type_confused_index_probe() {
        let db = db();
        // A hash-point probe of a text key against the Integer key column:
        // total_cmp never orders these into the same family, so the
        // compiler must have fallen back to scan + filter.
        let corrupt = PhysQueryPlan::of(
            PhysNode::IndexScan {
                name: "T".into(),
                access: IndexAccess::Atom(SargAtom::Point {
                    col: 0,
                    key: Value::Text("seven".into()),
                }),
                cols: None,
            },
            &["id", "v", "f"],
        );
        let violations = verify_plan(&db.snapshot(), &corrupt);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                PlanViolation::TypeConfusedComparison {
                    expected: "numeric",
                    found: "text",
                    ..
                }
            )),
            "expected TypeConfusedComparison, got:\n{}",
            render_violations(&violations)
        );
    }

    #[test]
    fn rejects_index_paths_on_nan_poisoned_columns() {
        let db = db();
        let snapshot = db.snapshot();
        // Every index shape on the NaN-poisoned Float column must be
        // rejected: point, IN-list, IN-subquery and range scans, and index
        // aggregates (COUNT included).
        let scan = |access: IndexAccess| {
            PhysQueryPlan::of(
                PhysNode::IndexScan {
                    name: "T".into(),
                    access,
                    cols: None,
                },
                &["id", "v", "f"],
            )
        };
        let agg = |spec: AggSpec| {
            PhysQueryPlan::of(
                PhysNode::IndexAgg {
                    name: "T".into(),
                    specs: vec![spec],
                },
                &["m"],
            )
        };
        let cases = [
            (
                "point",
                scan(IndexAccess::Atom(SargAtom::Point {
                    col: 2,
                    key: Value::Float(0.5),
                })),
            ),
            (
                "in-list",
                scan(IndexAccess::Atom(SargAtom::InList {
                    col: 2,
                    keys: vec![Value::Float(0.5), Value::Float(1.5)],
                })),
            ),
            (
                "in-subquery",
                scan(IndexAccess::InSubquery {
                    col: 2,
                    plan: Box::new(SubPlan::new(
                        PhysQueryPlan::of(PhysNode::ScanEmpty, &[]),
                        false,
                        false,
                    )),
                }),
            ),
            (
                "range",
                scan(IndexAccess::Atom(SargAtom::Range {
                    col: 2,
                    lower: Some((Value::Float(0.0), true)),
                    upper: None,
                })),
            ),
            ("index-agg min", agg(AggSpec::Min(2))),
            (
                "index-agg count",
                agg(AggSpec::Count {
                    col: 2,
                    distinct: false,
                }),
            ),
        ];
        for (label, corrupt) in cases {
            let violations = verify_plan(&snapshot, &corrupt);
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, PlanViolation::IndexOnNanColumn { .. })),
                "{label}: expected IndexOnNanColumn, got:\n{}",
                render_violations(&violations)
            );
        }
        // The same shapes on the NaN-free Integer column are sound.
        let clean = [
            scan(IndexAccess::Atom(SargAtom::Range {
                col: 1,
                lower: Some((Value::Int(0), true)),
                upper: None,
            })),
            scan(IndexAccess::Atom(SargAtom::Point {
                col: 1,
                key: Value::Int(10),
            })),
            agg(AggSpec::Count {
                col: 1,
                distinct: true,
            }),
        ];
        for plan in clean {
            let violations = verify_plan(&snapshot, &plan);
            assert!(violations.is_empty(), "{}", render_violations(&violations));
        }
    }

    #[test]
    fn rejects_outer_columns_past_their_scopes() {
        let db = db();
        let snapshot = db.snapshot();
        let outer = |depth, idx| PhysExpr::OuterColumn { depth, idx };
        // `SELECT <item>` with no FROM, as a subplan.
        let select = |item: PhysExpr| {
            let root = PhysNode::Project {
                input: Box::new(PhysNode::ScanEmpty),
                items: vec![item],
                visible: 1,
                distinct: false,
            };
            Box::new(SubPlan::new(PhysQueryPlan::of(root, &["x"]), false, true))
        };
        // `SELECT (<subplan>) FROM t`: the subplan runs for rows of arity 3.
        let scalar_over_t = |plan: Box<SubPlan>| {
            let root = PhysNode::Project {
                input: Box::new(scan_t()),
                items: vec![PhysExpr::ScalarSubquery { plan }],
                visible: 1,
                distinct: false,
            };
            PhysQueryPlan::of(root, &["s"])
        };
        // `SELECT * FROM t WHERE v IN (<subplan>)` as an index probe, whose
        // subplan runs with an empty outer row.
        let probe = |plan: Box<SubPlan>| {
            let root = PhysNode::IndexScan {
                name: "T".into(),
                access: IndexAccess::InSubquery { col: 1, plan },
                cols: None,
            };
            PhysQueryPlan::of(root, &["id", "v", "f"])
        };
        // (label, plan, depth, ordinal, arity of the scope it names).
        let cases = [
            (
                "depth past the scopes",
                scalar_over_t(select(outer(1, 0))),
                1,
                0,
                0,
            ),
            (
                "ordinal past the arity",
                scalar_over_t(select(outer(0, 3))),
                0,
                3,
                3,
            ),
            (
                "depth 0 in an index probe",
                probe(select(outer(0, 0))),
                0,
                0,
                0,
            ),
        ];
        for (label, corrupt, depth, ordinal, arity) in cases {
            let violations = verify_plan(&snapshot, &corrupt);
            assert!(
                matches!(
                    violations.as_slice(),
                    [PlanViolation::OuterColumnOutOfBounds { depth: d, ordinal: o, arity: a, .. }]
                        if (*d, *o, *a) == (depth, ordinal, arity)
                ),
                "{label}: expected one OuterColumnOutOfBounds, got:\n{}",
                render_violations(&violations)
            );
        }
        // The last column of the row the subplan runs for is in bounds.
        let sound = scalar_over_t(select(outer(0, 2)));
        let violations = verify_plan(&snapshot, &sound);
        assert!(violations.is_empty(), "{}", render_violations(&violations));
    }

    #[test]
    fn rejects_mismatched_join_key_arity() {
        let db = db();
        // Two left keys against one right key: the build/probe encodings
        // would zip unequal-length key tuples.
        let corrupt = PhysQueryPlan::of(
            PhysNode::HashJoin {
                left: Box::new(scan_t()),
                right: Box::new(scan_t()),
                operator: JoinOperator::Inner,
                left_keys: vec![0, 1],
                right_keys: vec![0],
                residual: None,
                width: 6,
                right_width: 3,
                build_left: false,
                cols: None,
            },
            &["a", "b", "c", "d", "e", "f"],
        );
        let violations = verify_plan(&db.snapshot(), &corrupt);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                PlanViolation::JoinKeyArityMismatch {
                    left: 2,
                    right: 1,
                    ..
                }
            )),
            "expected JoinKeyArityMismatch, got:\n{}",
            render_violations(&violations)
        );
        // Empty key lists pair up: a cross or non-equi join is a hash join
        // with no keys.
        let empty = PhysQueryPlan::of(
            PhysNode::HashJoin {
                left: Box::new(scan_t()),
                right: Box::new(scan_t()),
                operator: JoinOperator::Inner,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                width: 6,
                right_width: 3,
                build_left: false,
                cols: None,
            },
            &["a", "b", "c", "d", "e", "f"],
        );
        let violations = verify_plan(&db.snapshot(), &empty);
        assert!(violations.is_empty(), "{}", render_violations(&violations));
    }

    #[test]
    fn rejects_reordered_join_whose_bindings_do_not_match_children() {
        // A genuinely reordered plan (the cost model re-associates the
        // chain), hand-corrupted so the top join's output bindings no
        // longer concatenate its children's bindings — the failure mode
        // of a reorder that rewires children without rebuilding bindings.
        let mut db = Database::new("verify-reorder");
        for (name, key) in [("a", "x"), ("b", "y"), ("c", "z")] {
            db.create_table(TableSchema::new(
                name,
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new(key, DataType::Integer),
                ],
            ))
            .unwrap();
        }
        db.insert_into("a", (0..64).map(|i| vec![Value::Int(i), Value::Int(i % 8)]))
            .unwrap();
        db.insert_into("b", (0..16).map(|i| vec![Value::Int(i), Value::Int(i % 4)]))
            .unwrap();
        db.insert_into("c", (0..4).map(|i| vec![Value::Int(i), Value::Int(i)]))
            .unwrap();
        let snapshot = db.snapshot();
        let query = bp_sql::parse_query(
            "SELECT a.id, c.id FROM a JOIN b ON a.x = b.id JOIN c ON b.y = c.id",
        )
        .unwrap();
        let mut planner = crate::plan::Planner::new(&snapshot);
        let mut plan = planner.plan(&query).unwrap();
        assert_eq!(
            planner.optimizer_stats().cost_based,
            1,
            "the three-leaf inner chain must go through the cost-based reorder"
        );
        assert!(
            verify_logical(&snapshot, &plan).is_empty(),
            "the real reordered plan verifies cleanly"
        );
        fn first_join_bindings_mut(node: &mut LogicalPlan) -> Option<&mut Vec<ColumnBinding>> {
            match node {
                LogicalPlan::Join { bindings, .. } => Some(bindings),
                LogicalPlan::Project { input, .. } | LogicalPlan::Filter { input, .. } => {
                    first_join_bindings_mut(input)
                }
                _ => None,
            }
        }
        let join_bindings = first_join_bindings_mut(&mut plan.root).expect("plan contains a join");
        // Positions 2 and 3 sit over the inner join child in either
        // association ((a⋈b)⋈c or a⋈(b⋈c)), and over a scan child when
        // that child is a leaf, so the swap always disagrees with a child.
        join_bindings.swap(2, 3);
        let violations = verify_logical(&snapshot, &plan);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, PlanViolation::JoinBindingMismatch { ordinal: 2, .. })),
            "expected JoinBindingMismatch, got:\n{}",
            render_violations(&violations)
        );
    }

    #[test]
    fn rejects_cte_references_past_their_frames() {
        let db = db();
        let snapshot = db.snapshot();
        let cte = |depth, idx| PhysNode::ScanCte { depth, idx };
        // `WITH c AS (<body>) <root>`. No plan promises an output column,
        // so a bad reference (arity 0) reports nothing else.
        let with = |body: PhysNode, root: PhysNode| {
            let mut plan = PhysQueryPlan::of(root, &[]);
            plan.ctes = vec![("C".into(), PhysQueryPlan::of(body, &[]))];
            plan
        };
        let derived = |root: PhysNode| PhysNode::ScanDerived {
            plan: Box::new(PhysQueryPlan::of(root, &[])),
        };
        // (label, plan, depth, idx and path of the out-of-bounds reference).
        let cases = [
            (
                "depth past the frames",
                with(scan_t(), cte(1, 0)),
                1,
                0,
                "root.ScanCte",
            ),
            (
                "depth past the frames, from a derived table",
                with(scan_t(), derived(cte(2, 0))),
                2,
                0,
                "root.ScanDerived.ScanCte",
            ),
            (
                "idx past the frame's CTEs",
                with(scan_t(), cte(0, 1)),
                0,
                1,
                "root.ScanCte",
            ),
            // A CTE body runs before its own result exists.
            (
                "a CTE reading itself",
                with(cte(1, 0), cte(0, 0)),
                1,
                0,
                "root.cte(C).ScanCte",
            ),
        ];
        for (label, corrupt, depth, idx, path) in cases {
            let violations = verify_plan(&snapshot, &corrupt);
            assert!(
                matches!(
                    violations.as_slice(),
                    [v @ PlanViolation::CteOutOfBounds { depth: d, idx: i, .. }]
                        if (*d, *i) == (depth, idx) && v.path() == path
                ),
                "{label}: expected one CteOutOfBounds, got:\n{}",
                render_violations(&violations)
            );
        }
        // The same CTE read from its own plan and from a derived table.
        for sound in [
            with(scan_t(), cte(0, 0)),
            with(scan_t(), derived(cte(1, 0))),
        ] {
            let violations = verify_plan(&snapshot, &sound);
            assert!(violations.is_empty(), "{}", render_violations(&violations));
        }
    }

    #[test]
    fn rejects_reads_past_a_too_narrow_input() {
        let db = db();
        let snapshot = db.snapshot();
        let narrow_scan = |cols: Vec<usize>| PhysNode::ScanTable {
            name: "T".into(),
            cols: Some(cols),
        };
        // The scan emits only column 0, but the projection reads ordinal
        // 1 of it: the plan's arity check catches the too-narrow scan.
        let corrupt = PhysQueryPlan::of(
            PhysNode::Project {
                input: Box::new(narrow_scan(vec![0])),
                items: vec![PhysExpr::Column(1)],
                visible: 1,
                distinct: false,
            },
            &["v"],
        );
        let violations = verify_plan(&snapshot, &corrupt);
        assert!(
            matches!(
                violations.as_slice(),
                [PlanViolation::ColumnOutOfBounds {
                    ordinal: 1,
                    arity: 1,
                    ..
                }]
            ),
            "expected one ColumnOutOfBounds, got:\n{}",
            render_violations(&violations)
        );
        // A join that emits one column of its joined row, read at ordinal
        // 1 by a sort above it.
        let join = |cols: Vec<usize>| PhysNode::HashJoin {
            left: Box::new(narrow_scan(vec![0, 1])),
            right: Box::new(narrow_scan(vec![0])),
            operator: JoinOperator::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
            width: 3,
            right_width: 1,
            build_left: false,
            cols: Some(cols),
        };
        let sorted = |cols: Vec<usize>| {
            let root = PhysNode::Sort {
                input: Box::new(join(cols)),
                keys: vec![SortKey {
                    ordinal: Some(1),
                    asc: true,
                }],
            };
            PhysQueryPlan::of(root, &[])
        };
        let violations = verify_plan(&snapshot, &sorted(vec![2]));
        assert!(
            matches!(
                violations.as_slice(),
                [PlanViolation::SortKeyOutOfBounds {
                    ordinal: 1,
                    arity: 1,
                    ..
                }]
            ),
            "expected one SortKeyOutOfBounds, got:\n{}",
            render_violations(&violations)
        );
        // Pruned scans and joins are legal under any operator, a sort
        // included, as long as every ordinal stays in bounds.
        let violations = verify_plan(&snapshot, &sorted(vec![0, 2]));
        assert!(violations.is_empty(), "{}", render_violations(&violations));
        // Masks must be strictly ascending and name existing columns.
        for bad in [
            PhysQueryPlan::of(narrow_scan(vec![1, 0]), &[]),
            PhysQueryPlan::of(narrow_scan(vec![0, 3]), &[]),
            sorted(vec![2, 0]),
            sorted(vec![0, 3]),
        ] {
            let violations = verify_plan(&snapshot, &bad);
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, PlanViolation::BadPruneMask { .. })),
                "expected BadPruneMask, got:\n{}",
                render_violations(&violations)
            );
        }
    }

    #[test]
    fn rejects_structural_width_lies() {
        let db = db();
        let snapshot = db.snapshot();
        // Unknown table.
        let ghost = PhysQueryPlan::of(
            PhysNode::ScanTable {
                name: "GHOST".into(),
                cols: None,
            },
            &[],
        );
        assert!(verify_plan(&snapshot, &ghost)
            .iter()
            .any(|v| matches!(v, PlanViolation::UnknownTable { .. })));
        // right_width that disagrees with the right input's arity.
        let lying_join = PhysQueryPlan::of(
            PhysNode::HashJoin {
                left: Box::new(scan_t()),
                right: Box::new(scan_t()),
                operator: JoinOperator::Cross,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                width: 6,
                right_width: 2,
                build_left: false,
                cols: None,
            },
            &["a", "b", "c", "d", "e", "f"],
        );
        assert!(verify_plan(&snapshot, &lying_join).iter().any(|v| matches!(
            v,
            PlanViolation::JoinWidthMismatch {
                expected: 3,
                found: 2,
                ..
            }
        )));
        // An output width, or an aggregate's input width, that disagrees
        // with the arity its inputs produce.
        let wide_join = PhysQueryPlan::of(
            PhysNode::HashJoin {
                left: Box::new(scan_t()),
                right: Box::new(scan_t()),
                operator: JoinOperator::Cross,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                width: 5,
                right_width: 3,
                build_left: false,
                cols: None,
            },
            &["a"],
        );
        let narrow_agg = PhysQueryPlan::of(
            PhysNode::HashAggregate {
                input: Box::new(scan_t()),
                group_by: Vec::new(),
                having: None,
                items: vec![PhysExpr::Literal(Value::Int(1))],
                visible: 1,
                distinct: false,
                input_width: 2,
            },
            &["one"],
        );
        for (plan, width, arity) in [(wide_join, 5, 6), (narrow_agg, 2, 3)] {
            let violations = verify_plan(&snapshot, &plan);
            assert!(
                matches!(
                    violations.as_slice(),
                    [PlanViolation::BindingWidthMismatch { bindings: w, arity: a, .. }]
                        if (*w, *a) == (width, arity)
                ),
                "expected one BindingWidthMismatch, got:\n{}",
                render_violations(&violations)
            );
        }
        // A plan that promises more output columns than its root produces.
        let wide = PhysQueryPlan::of(scan_t(), &["a", "b", "c", "d"]);
        assert!(verify_plan(&snapshot, &wide)
            .iter()
            .any(|v| matches!(v, PlanViolation::OutputWidthMismatch { .. })));
        // Sort key past the input arity.
        let bad_sort = PhysQueryPlan::of(
            PhysNode::Sort {
                input: Box::new(scan_t()),
                keys: vec![SortKey {
                    ordinal: Some(9),
                    asc: true,
                }],
            },
            &["id", "v", "f"],
        );
        assert!(verify_plan(&snapshot, &bad_sort)
            .iter()
            .any(|v| matches!(v, PlanViolation::SortKeyOutOfBounds { ordinal: 9, .. })));
    }

    #[test]
    fn compiled_plans_verify_cleanly() {
        let db = db();
        let snapshot = db.snapshot();
        for sql in [
            "SELECT v FROM t WHERE id = 1",
            "SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v",
            "SELECT a.id, b.v FROM t a JOIN t b ON a.id = b.id WHERE b.f > 0",
            "WITH big AS (SELECT id FROM t WHERE v > 5) SELECT COUNT(*) FROM big",
            "SELECT id FROM t ORDER BY v LIMIT 1",
        ] {
            let query = bp_sql::parse_query(sql).unwrap();
            let plan = super::super::compile_query(&snapshot, &query, Default::default()).unwrap();
            let violations = verify_plan(&snapshot, &plan);
            assert!(
                violations.is_empty(),
                "{sql}:\n{}",
                render_violations(&violations)
            );
        }
    }
}
