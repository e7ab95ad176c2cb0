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
//!   an empty scope and may therefore never contain a resolved column);
//! * projection-pruned scans appear only where the compiler may legally
//!   place them, and every consumer expression is vectorizable and reads
//!   only unpruned columns (a pruned "loud placeholder" slot read by a
//!   live expression is a verifier error here, not a runtime panic);
//! * index fast paths meet their preconditions: the accessed column
//!   exists, probe keys share the declared column's type family (the
//!   compiler declines family-confused probes — see
//!   [`value_family`]/[`type_family`]), and **ordered**-index paths
//!   (range scans, `MIN`/`MAX` index aggregates, `IndexTopK`) never sit
//!   on a NaN-poisoned column, where `total_cmp` order diverges from the
//!   scan kernels' per-row semantics;
//! * join and aggregate structure is sound: hash-join key lists have equal
//!   non-zero arity with in-bounds ordinals on each side, output bindings
//!   cover exactly the combined input arity, sort keys are in bounds, and
//!   `visible` never exceeds the projected item count.
//!
//! The pass also infers expression types and nullability bottom-up from
//! the table schemas ([`TypeInfo`]); the inference deliberately stays
//! conservative. **Runtime type errors are not violations**: arithmetic on
//! text, division by zero, scalar-subquery cardinality and set-operation
//! width mismatches are legal, differential-tested semantics that the
//! compiler is allowed — required — to emit plans for. The verifier
//! rejects only trees the compiler can never produce from legal SQL.
//!
//! Wiring: [`super::compile_query`] asserts both passes on every
//! compile in debug builds (so the whole differential suite doubles as a
//! verifier stress test), [`crate::prepared::PreparedQuery`] runs
//! [`verify_plan`] always-on at first compile inside the plan cache, and
//! the public entry points below serve external callers and tests.

use std::collections::HashMap;
use std::fmt;

use bp_sql::{DataType, JoinOperator};

use crate::plan::{ColumnBinding, LogicalPlan, QueryPlan, Scan, ScanSource, SortKey};
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
    /// A live expression over a projection-pruned scan reads a column the
    /// compiler pruned out — at runtime the columnar engine would hand it
    /// a loud placeholder.
    PrunedColumnRead {
        /// Operator path from the plan root.
        path: String,
        /// The pruned ordinal that is still read.
        ordinal: usize,
    },
    /// A pruned scan mask is malformed (unsorted / out of range) or the
    /// scan sits somewhere the compiler never prunes (pruning applies only
    /// directly under a projection, optionally through one filter, with
    /// every consumer expression vectorizable).
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
    /// A CTE scan names a CTE no enclosing plan defines.
    UnknownCte {
        /// Operator path from the plan root.
        path: String,
        /// The unresolved CTE name.
        name: String,
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
    /// An **ordered**-index access (range scan, `MIN`/`MAX` aggregate,
    /// `IndexTopK` prefix read) sits on a NaN-poisoned column. NaN breaks
    /// the coincidence between `total_cmp` order and the scan kernels'
    /// per-row comparison semantics, so the compiler must decline these
    /// paths at compile time.
    OrderedIndexOnNanColumn {
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
    /// A hash join's key lists differ in length, or are empty (an empty
    /// key list must compile to a nested-loop join instead).
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
    /// A join's output bindings are not the concatenation of its children's
    /// bindings. Every join algorithm emits left columns then right columns,
    /// so this must hold for *any* association tree over the same leaf
    /// sequence — it is the join-order-independent invariant that catches a
    /// reorder which rewired children without rebuilding bindings to match.
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
    /// An operator's name-resolution bindings don't cover its input arity
    /// (correlated subqueries resolve outer references positionally
    /// through these bindings, so the lengths must agree exactly).
    BindingWidthMismatch {
        /// Operator path from the plan root.
        path: String,
        /// Number of bindings recorded.
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
    /// An `IndexTopK`'s sort-key position is outside its own output list.
    TopKKeyOutOfBounds {
        /// Operator path from the plan root.
        path: String,
        /// The recorded key position.
        key_ordinal: usize,
        /// The output list length.
        outputs: usize,
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
            | PlanViolation::PrunedColumnRead { path, .. }
            | PlanViolation::BadPruneMask { path, .. }
            | PlanViolation::UnknownTable { path, .. }
            | PlanViolation::UnknownCte { path, .. }
            | PlanViolation::IndexColumnOutOfBounds { path, .. }
            | PlanViolation::OrderedIndexOnNanColumn { path, .. }
            | PlanViolation::TypeConfusedComparison { path, .. }
            | PlanViolation::JoinKeyArityMismatch { path, .. }
            | PlanViolation::JoinWidthMismatch { path, .. }
            | PlanViolation::JoinBindingMismatch { path, .. }
            | PlanViolation::BindingWidthMismatch { path, .. }
            | PlanViolation::SortKeyOutOfBounds { path, .. }
            | PlanViolation::TopKKeyOutOfBounds { path, .. }
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
            PlanViolation::PrunedColumnRead { path, ordinal } => write!(
                f,
                "{path}: live expression reads column {ordinal}, which the scan pruned"
            ),
            PlanViolation::BadPruneMask { path, detail } => {
                write!(f, "{path}: bad projection-pruning mask: {detail}")
            }
            PlanViolation::UnknownTable { path, name } => {
                write!(f, "{path}: unknown table {name}")
            }
            PlanViolation::UnknownCte { path, name } => {
                write!(f, "{path}: unknown CTE {name}")
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
            PlanViolation::OrderedIndexOnNanColumn {
                path,
                table,
                column,
            } => write!(
                f,
                "{path}: ordered-index path on NaN-poisoned column {table}.{column}"
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
                "{path}: {bindings} name bindings over an input of arity {arity}"
            ),
            PlanViolation::SortKeyOutOfBounds {
                path,
                ordinal,
                arity,
            } => write!(
                f,
                "{path}: sort key ordinal {ordinal} out of bounds for input arity {arity}"
            ),
            PlanViolation::TopKKeyOutOfBounds {
                path,
                key_ordinal,
                outputs,
            } => write!(
                f,
                "{path}: IndexTopK key position {key_ordinal} outside its {outputs} outputs"
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

/// Render one binding as it appears in a violation message.
fn render_binding(b: &ColumnBinding) -> String {
    match &b.qualifier {
        Some(q) => format!("{q}.{}", b.name),
        None => b.name.clone(),
    }
}

/// The output bindings a physical node carries, when its variant records
/// them verbatim: filters pass their input's bindings through unchanged and
/// joins record their concatenated output — exactly the shapes a reordered
/// spine is rebuilt from. Other variants (projections compute new columns,
/// scans carry none) return `None` and are skipped by the concat check.
fn node_bindings(node: &PhysNode) -> Option<&[ColumnBinding]> {
    match node {
        PhysNode::Filter { bindings, .. }
        | PhysNode::HashJoin { bindings, .. }
        | PhysNode::NestedLoopJoin { bindings, .. } => Some(bindings),
        _ => None,
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
// Type inference
// ---------------------------------------------------------------------

/// Inferred static type + nullability of an expression or column, derived
/// bottom-up from the table schemas. `data_type: None` means statically
/// unknown (NULL literals, outer references, mixed CASE branches) — the
/// inference is deliberately conservative because runtime type errors are
/// legal semantics, not miscompiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TypeInfo {
    /// Statically known type, if any.
    pub data_type: Option<DataType>,
    /// Whether NULL can surface here.
    pub nullable: bool,
}

impl TypeInfo {
    const UNKNOWN: TypeInfo = TypeInfo {
        data_type: None,
        nullable: true,
    };

    fn known(dt: DataType, nullable: bool) -> TypeInfo {
        TypeInfo {
            data_type: Some(dt),
            nullable,
        }
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Verify a compiled physical plan against the snapshot it was compiled
/// for. Returns every invariant breach found (empty = the plan is sound).
/// Walks CTE plans, set-operation branches, nested plans and every
/// expression subquery; subqueries whose compilation failed (lazy `Fail`
/// plans) are skipped — deferred compile errors are legal.
pub fn verify_plan(db: &Snapshot, plan: &PhysQueryPlan) -> Vec<PlanViolation> {
    let mut v = Verifier {
        db,
        violations: Vec::new(),
        path: vec!["root".to_string()],
        frames: Vec::new(),
    };
    v.check_plan(plan);
    v.violations
}

/// Verify a logical plan before compilation: scan binding widths match
/// their sources, join bindings cover both inputs, equi-key and sort-key
/// ordinals are in bounds, and projection name lists never exceed their
/// items. Expressions are still raw AST at this layer, so expression-level
/// checks live in [`verify_plan`].
pub fn verify_logical(db: &Snapshot, plan: &QueryPlan) -> Vec<PlanViolation> {
    let mut v = LogicalVerifier {
        db,
        violations: Vec::new(),
        path: vec!["root".to_string()],
        frames: Vec::new(),
    };
    v.check_plan(plan);
    v.violations
}

// ---------------------------------------------------------------------
// Physical walker
// ---------------------------------------------------------------------

struct Verifier<'a> {
    db: &'a Snapshot,
    violations: Vec<PlanViolation>,
    path: Vec<String>,
    /// CTE scopes, innermost last: name → output column types.
    frames: Vec<HashMap<String, Vec<TypeInfo>>>,
}

impl Verifier<'_> {
    fn path(&self) -> String {
        self.path.join(".")
    }

    fn report(&mut self, violation: PlanViolation) {
        self.violations.push(violation);
    }

    /// Verify one (sub-)plan and return its visible output types
    /// (truncated to the declared column list, exactly like execution).
    fn check_plan(&mut self, plan: &PhysQueryPlan) -> Vec<TypeInfo> {
        self.frames.push(HashMap::new());
        for (name, sub) in &plan.ctes {
            self.path.push(format!("cte({name})"));
            let types = self.check_plan(sub);
            self.path.pop();
            self.frames
                .last_mut()
                .expect("frame pushed above")
                .insert(name.clone(), types);
        }
        let root_types = self.check_node(&plan.root, 0);
        if plan.columns.len() > root_types.len() {
            self.report(PlanViolation::OutputWidthMismatch {
                path: self.path(),
                columns: plan.columns.len(),
                arity: root_types.len(),
            });
        }
        self.frames.pop();
        let visible = plan.columns.len().min(root_types.len());
        root_types[..visible].to_vec()
    }

    /// Verify one operator and return its output types. `prune_levels` is
    /// the number of remaining operator levels through which a
    /// projection-pruned scan is still legal: a projection grants its
    /// input 2 (scan directly below, or through exactly one filter), a
    /// filter passes its allowance down minus one, everything else grants
    /// 0.
    fn check_node(&mut self, node: &PhysNode, prune_levels: usize) -> Vec<TypeInfo> {
        match node {
            PhysNode::ScanTable { name, cols } => {
                self.path.push("ScanTable".into());
                let types = self.check_table_scan(name, cols.as_deref(), prune_levels);
                self.path.pop();
                types
            }
            PhysNode::IndexScan { name, access, cols } => {
                self.path.push("IndexScan".into());
                let types = self.check_table_scan(name, cols.as_deref(), prune_levels);
                self.check_index_access(name, access);
                self.path.pop();
                types
            }
            PhysNode::IndexAgg { name, specs } => {
                self.path.push("IndexAgg".into());
                let out = self.check_index_agg(name, specs);
                self.path.pop();
                out
            }
            PhysNode::IndexTopK {
                name,
                key_ordinal,
                output,
                limit,
                offset,
            } => {
                self.path.push("IndexTopK".into());
                let out = self.check_index_top_k(name, *key_ordinal, output);
                self.check_expr(limit, &[]);
                if let Some(offset) = offset {
                    self.check_expr(offset, &[]);
                }
                self.path.pop();
                out
            }
            PhysNode::ScanCte { name } => {
                let found = self
                    .frames
                    .iter()
                    .rev()
                    .find_map(|frame| frame.get(name))
                    .cloned();
                match found {
                    Some(types) => types,
                    None => {
                        self.path.push("ScanCte".into());
                        let v = PlanViolation::UnknownCte {
                            path: self.path(),
                            name: name.clone(),
                        };
                        self.report(v);
                        self.path.pop();
                        Vec::new()
                    }
                }
            }
            PhysNode::ScanDerived { plan } => {
                self.path.push("ScanDerived".into());
                let types = self.check_plan(plan);
                self.path.pop();
                types
            }
            PhysNode::ScanEmpty => Vec::new(),
            PhysNode::Filter {
                input,
                predicate,
                bindings,
            } => {
                self.path.push("Filter".into());
                let input_types = self.check_node(input, prune_levels.saturating_sub(1));
                self.check_bindings(bindings.len(), input_types.len());
                self.check_expr(predicate, &input_types);
                self.path.pop();
                input_types
            }
            PhysNode::NestedLoopJoin {
                left,
                right,
                operator,
                on,
                bindings,
                right_width,
            } => {
                self.path.push("NestedLoopJoin".into());
                let out = self.check_join_common(
                    left,
                    right,
                    *operator,
                    on.as_ref(),
                    bindings,
                    *right_width,
                    None,
                );
                self.path.pop();
                out
            }
            PhysNode::HashJoin {
                left,
                right,
                operator,
                left_keys,
                right_keys,
                residual,
                bindings,
                right_width,
                build_left: _,
            } => {
                self.path.push("HashJoin".into());
                let out = self.check_join_common(
                    left,
                    right,
                    *operator,
                    residual.as_ref(),
                    bindings,
                    *right_width,
                    Some((left_keys, right_keys)),
                );
                self.path.pop();
                out
            }
            PhysNode::Project {
                input,
                items,
                visible,
                bindings,
                ..
            } => {
                self.path.push("Project".into());
                let input_types = self.check_node(input, 2);
                self.check_bindings(bindings.len(), input_types.len());
                if *visible > items.len() {
                    self.report(PlanViolation::VisibleOutOfBounds {
                        path: self.path(),
                        visible: *visible,
                        items: items.len(),
                    });
                }
                self.check_prune_consumers(input, items);
                let out = items
                    .iter()
                    .map(|item| self.check_expr(item, &input_types))
                    .collect();
                self.path.pop();
                out
            }
            PhysNode::HashAggregate {
                input,
                group_by,
                having,
                items,
                visible,
                bindings,
                ..
            } => {
                self.path.push("HashAggregate".into());
                let input_types = self.check_node(input, 0);
                self.check_bindings(bindings.len(), input_types.len());
                if *visible > items.len() {
                    self.report(PlanViolation::VisibleOutOfBounds {
                        path: self.path(),
                        visible: *visible,
                        items: items.len(),
                    });
                }
                for g in group_by {
                    self.check_expr(g, &input_types);
                }
                if let Some(having) = having {
                    self.check_expr(having, &input_types);
                }
                let out = items
                    .iter()
                    .map(|item| self.check_expr(item, &input_types))
                    .collect();
                self.path.pop();
                out
            }
            PhysNode::Sort { input, keys } => {
                self.path.push("Sort".into());
                let input_types = self.check_node(input, 0);
                self.check_sort_keys(keys, input_types.len());
                self.path.pop();
                input_types
            }
            PhysNode::TopK {
                input,
                keys,
                limit,
                offset,
            } => {
                self.path.push("TopK".into());
                let input_types = self.check_node(input, 0);
                self.check_sort_keys(keys, input_types.len());
                self.check_expr(limit, &[]);
                if let Some(offset) = offset {
                    self.check_expr(offset, &[]);
                }
                self.path.pop();
                input_types
            }
            PhysNode::Limit {
                input,
                limit,
                offset,
            } => {
                self.path.push("Limit".into());
                let input_types = self.check_node(input, 0);
                // LIMIT/OFFSET are compiled in an empty scope: identifiers
                // resolve to outer references, never to columns, so any
                // `Column` here is a miscompile (flagged as out of bounds
                // against arity 0).
                if let Some(limit) = limit {
                    self.check_expr(limit, &[]);
                }
                if let Some(offset) = offset {
                    self.check_expr(offset, &[]);
                }
                self.path.pop();
                input_types
            }
            PhysNode::SetOp { left, right, .. } => {
                // A width mismatch between the branches is a *legal runtime
                // error* (differential-tested), so only the branches
                // themselves are verified here.
                self.path.push("SetOp.left".into());
                let left_types = self.check_plan(left);
                self.path.pop();
                self.path.push("SetOp.right".into());
                self.check_plan(right);
                self.path.pop();
                left_types
            }
            PhysNode::Nested(plan) => {
                self.path.push("Nested".into());
                let types = self.check_plan(plan);
                self.path.pop();
                types
            }
        }
    }

    /// Schema lookup + prune-mask validation shared by table and index
    /// scans. Returns the scan's output types (always full table arity:
    /// pruned slots still occupy their position as placeholders).
    fn check_table_scan(
        &mut self,
        name: &str,
        cols: Option<&[usize]>,
        prune_levels: usize,
    ) -> Vec<TypeInfo> {
        let Some(table) = self.db.table(name) else {
            let v = PlanViolation::UnknownTable {
                path: self.path(),
                name: name.to_string(),
            };
            self.report(v);
            return Vec::new();
        };
        let arity = table.schema.column_count();
        if let Some(mask) = cols {
            if prune_levels == 0 {
                let v = PlanViolation::BadPruneMask {
                    path: self.path(),
                    detail: "pruned scan is not directly under a projection \
                             (optionally through one filter)"
                        .to_string(),
                };
                self.report(v);
            }
            if !mask.windows(2).all(|w| w[0] < w[1]) {
                let v = PlanViolation::BadPruneMask {
                    path: self.path(),
                    detail: format!("mask {mask:?} is not strictly ascending"),
                };
                self.report(v);
            }
            for &c in mask {
                if c >= arity {
                    let v = PlanViolation::BadPruneMask {
                        path: self.path(),
                        detail: format!("mask names column {c}, but the table has {arity} columns"),
                    };
                    self.report(v);
                }
            }
        }
        table
            .schema
            .columns
            .iter()
            .map(|c| TypeInfo {
                data_type: Some(c.data_type),
                nullable: c.nullable,
            })
            .collect()
    }

    /// Index fast-path preconditions: in-bounds column, family-compatible
    /// probe keys, no ordered access on a NaN-poisoned column.
    fn check_index_access(&mut self, table: &str, access: &IndexAccess) {
        let Some(t) = self.db.table(table) else {
            return; // UnknownTable already reported by check_table_scan.
        };
        let arity = t.schema.column_count();
        let check_col = |me: &mut Self, col: usize| -> bool {
            if col >= arity {
                let v = PlanViolation::IndexColumnOutOfBounds {
                    path: me.path(),
                    table: table.to_string(),
                    ordinal: col,
                    arity,
                };
                me.report(v);
                return false;
            }
            true
        };
        match access {
            IndexAccess::Point { col, key } => {
                if check_col(self, *col) {
                    self.check_key_family(table, *col, std::slice::from_ref(key));
                }
            }
            IndexAccess::InList { col, keys } => {
                if check_col(self, *col) {
                    self.check_key_family(table, *col, keys);
                }
            }
            IndexAccess::Range { col, lower, upper } => {
                if check_col(self, *col) {
                    let bounds: Vec<Value> = lower
                        .iter()
                        .chain(upper.iter())
                        .map(|(v, _)| v.clone())
                        .collect();
                    self.check_key_family(table, *col, &bounds);
                    self.check_not_nan(table, *col);
                }
            }
            IndexAccess::InSubquery { col, plan } => {
                // Hash probe with runtime fallback; the probe keys come
                // from the subquery so their family is unknowable at
                // compile time.
                check_col(self, *col);
                self.check_subplan(plan);
            }
        }
    }

    /// Probe keys must share the declared column's `total_cmp` family.
    fn check_key_family(&mut self, table: &str, col: usize, keys: &[Value]) {
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

    /// Ordered-index paths are forbidden on NaN-poisoned columns.
    fn check_not_nan(&mut self, table: &str, col: usize) {
        let Some(t) = self.db.table(table) else {
            return;
        };
        if t.secondary_index(col).has_nan() {
            let v = PlanViolation::OrderedIndexOnNanColumn {
                path: self.path(),
                table: table.to_string(),
                column: t.schema.columns[col].name.clone(),
            };
            self.report(v);
        }
    }

    fn check_index_agg(&mut self, name: &str, specs: &[AggSpec]) -> Vec<TypeInfo> {
        let Some(table) = self.db.table(name) else {
            let v = PlanViolation::UnknownTable {
                path: self.path(),
                name: name.to_string(),
            };
            self.report(v);
            return Vec::new();
        };
        let arity = table.schema.column_count();
        specs
            .iter()
            .map(|spec| match spec {
                AggSpec::CountStar => TypeInfo::known(DataType::Integer, false),
                AggSpec::Count { col, .. } => {
                    if *col >= arity {
                        let v = PlanViolation::IndexColumnOutOfBounds {
                            path: self.path(),
                            table: name.to_string(),
                            ordinal: *col,
                            arity,
                        };
                        self.report(v);
                    }
                    TypeInfo::known(DataType::Integer, false)
                }
                AggSpec::Min(col) | AggSpec::Max(col) => {
                    if *col >= arity {
                        let v = PlanViolation::IndexColumnOutOfBounds {
                            path: self.path(),
                            table: name.to_string(),
                            ordinal: *col,
                            arity,
                        };
                        self.report(v);
                        return TypeInfo::UNKNOWN;
                    }
                    self.check_not_nan(name, *col);
                    TypeInfo {
                        data_type: Some(table.schema.columns[*col].data_type),
                        nullable: true, // empty table → NULL
                    }
                }
            })
            .collect()
    }

    fn check_index_top_k(
        &mut self,
        name: &str,
        key_ordinal: usize,
        output: &[usize],
    ) -> Vec<TypeInfo> {
        let Some(table) = self.db.table(name) else {
            let v = PlanViolation::UnknownTable {
                path: self.path(),
                name: name.to_string(),
            };
            self.report(v);
            return Vec::new();
        };
        let arity = table.schema.column_count();
        for &c in output {
            if c >= arity {
                let v = PlanViolation::IndexColumnOutOfBounds {
                    path: self.path(),
                    table: name.to_string(),
                    ordinal: c,
                    arity,
                };
                self.report(v);
            }
        }
        if key_ordinal >= output.len() {
            let v = PlanViolation::TopKKeyOutOfBounds {
                path: self.path(),
                key_ordinal,
                outputs: output.len(),
            };
            self.report(v);
        } else if output[key_ordinal] < arity {
            // The prefix read trusts the ordered index: NaN poisoning
            // forbids it.
            self.check_not_nan(name, output[key_ordinal]);
        }
        output
            .iter()
            .map(|&c| {
                if c < arity {
                    let col = &table.schema.columns[c];
                    TypeInfo {
                        data_type: Some(col.data_type),
                        nullable: col.nullable,
                    }
                } else {
                    TypeInfo::UNKNOWN
                }
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn check_join_common(
        &mut self,
        left: &PhysNode,
        right: &PhysNode,
        operator: JoinOperator,
        residual: Option<&PhysExpr>,
        bindings: &[ColumnBinding],
        right_width: usize,
        keys: Option<(&[usize], &[usize])>,
    ) -> Vec<TypeInfo> {
        self.path.push("left".into());
        let left_types = self.check_node(left, 0);
        self.path.pop();
        self.path.push("right".into());
        let right_types = self.check_node(right, 0);
        self.path.pop();
        if right_width != right_types.len() {
            self.report(PlanViolation::JoinWidthMismatch {
                path: self.path(),
                expected: right_types.len(),
                found: right_width,
            });
        }
        let combined = left_types.len() + right_types.len();
        self.check_bindings(bindings.len(), combined);
        // Join-order-independent output-binding invariant: every join
        // algorithm emits left columns then right columns, so the output
        // bindings must be the concatenation of the children's bindings for
        // any association tree — the check that catches a reordered plan
        // whose bindings were not rebuilt to match the rewired children.
        for (child, offset) in [(left, 0), (right, left_types.len())] {
            let Some(child_bindings) = node_bindings(child) else {
                continue;
            };
            for (i, cb) in child_bindings.iter().enumerate() {
                if bindings.get(offset + i).is_some_and(|b| b != cb) {
                    self.report(PlanViolation::JoinBindingMismatch {
                        path: self.path(),
                        ordinal: offset + i,
                        expected: render_binding(cb),
                        found: render_binding(&bindings[offset + i]),
                    });
                    break; // one mismatch per side explains the breach
                }
            }
        }
        if let Some((left_keys, right_keys)) = keys {
            if left_keys.len() != right_keys.len() || left_keys.is_empty() {
                self.report(PlanViolation::JoinKeyArityMismatch {
                    path: self.path(),
                    left: left_keys.len(),
                    right: right_keys.len(),
                });
            }
            for &k in left_keys {
                if k >= left_types.len() {
                    self.report(PlanViolation::ColumnOutOfBounds {
                        path: format!("{}.left_keys", self.path()),
                        ordinal: k,
                        arity: left_types.len(),
                    });
                }
            }
            for &k in right_keys {
                if k >= right_types.len() {
                    self.report(PlanViolation::ColumnOutOfBounds {
                        path: format!("{}.right_keys", self.path()),
                        ordinal: k,
                        arity: right_types.len(),
                    });
                }
            }
        }
        // Outer joins pad the unmatched side with NULLs.
        let (left_nullable, right_nullable) = match operator {
            JoinOperator::LeftOuter => (false, true),
            JoinOperator::RightOuter => (true, false),
            JoinOperator::FullOuter => (true, true),
            JoinOperator::Inner | JoinOperator::Cross => (false, false),
        };
        let mut out: Vec<TypeInfo> = left_types
            .iter()
            .map(|t| TypeInfo {
                nullable: t.nullable || left_nullable,
                ..*t
            })
            .collect();
        out.extend(right_types.iter().map(|t| TypeInfo {
            nullable: t.nullable || right_nullable,
            ..*t
        }));
        if let Some(on) = residual {
            self.check_expr(on, &out);
        }
        out
    }

    fn check_bindings(&mut self, bindings: usize, arity: usize) {
        if bindings != arity {
            self.report(PlanViolation::BindingWidthMismatch {
                path: self.path(),
                bindings,
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

    /// If `input` is a pruned scan (directly, or through one filter),
    /// every consumer expression must be vectorizable — the batch fallback
    /// materializes whole rows and would read placeholder slots — and may
    /// read only unpruned columns.
    fn check_prune_consumers(&mut self, input: &PhysNode, items: &[PhysExpr]) {
        let (mask, predicate) = match input {
            PhysNode::ScanTable { cols: Some(m), .. }
            | PhysNode::IndexScan { cols: Some(m), .. } => (m, None),
            PhysNode::Filter {
                input: inner,
                predicate,
                ..
            } => match inner.as_ref() {
                PhysNode::ScanTable { cols: Some(m), .. }
                | PhysNode::IndexScan { cols: Some(m), .. } => (m, Some(predicate)),
                _ => return,
            },
            _ => return,
        };
        let mut needed = std::collections::BTreeSet::new();
        for item in items {
            if !item.vectorizable() {
                let v = PlanViolation::BadPruneMask {
                    path: self.path(),
                    detail: "non-vectorizable consumer expression over a pruned scan".to_string(),
                };
                self.report(v);
                return;
            }
            item.collect_columns(&mut needed);
        }
        if let Some(predicate) = predicate {
            if !predicate.vectorizable() {
                let v = PlanViolation::BadPruneMask {
                    path: self.path(),
                    detail: "non-vectorizable filter predicate over a pruned scan".to_string(),
                };
                self.report(v);
                return;
            }
            predicate.collect_columns(&mut needed);
        }
        for ordinal in needed {
            if !mask.contains(&ordinal) {
                let v = PlanViolation::PrunedColumnRead {
                    path: self.path(),
                    ordinal,
                };
                self.report(v);
            }
        }
    }

    fn check_subplan(&mut self, plan: &SubPlan) {
        // A failed compilation is a *lazy* error, raised only if the
        // subquery is evaluated — legal, and nothing to verify.
        if let Ok(sub) = &plan.plan {
            self.path.push("subquery".into());
            self.check_plan(sub);
            self.path.pop();
        }
    }

    /// Walk an expression: check every resolved column against the input
    /// arity, verify nested subqueries, and infer the result type
    /// bottom-up. Runtime type errors are legal, so the inference never
    /// reports "ill-typed arithmetic" — it exists to type the plan's
    /// output columns and power the index family checks.
    fn check_expr(&mut self, expr: &PhysExpr, input: &[TypeInfo]) -> TypeInfo {
        use bp_sql::BinaryOperator as B;
        match expr {
            PhysExpr::Column(idx) => {
                if *idx >= input.len() {
                    self.report(PlanViolation::ColumnOutOfBounds {
                        path: self.path(),
                        ordinal: *idx,
                        arity: input.len(),
                    });
                    TypeInfo::UNKNOWN
                } else {
                    input[*idx]
                }
            }
            PhysExpr::Outer { .. } => TypeInfo::UNKNOWN,
            PhysExpr::Literal(v) => TypeInfo {
                data_type: v.data_type(),
                nullable: matches!(v, Value::Null),
            },
            PhysExpr::Binary { left, op, right } => {
                let lt = self.check_expr(left, input);
                let rt = self.check_expr(right, input);
                match op {
                    B::Eq | B::NotEq | B::Lt | B::LtEq | B::Gt | B::GtEq | B::And | B::Or => {
                        TypeInfo::known(DataType::Boolean, true)
                    }
                    B::Concat => TypeInfo::known(DataType::Text, true),
                    B::Plus | B::Minus | B::Multiply | B::Divide | B::Modulo => TypeInfo {
                        data_type: match (lt.data_type, rt.data_type) {
                            (Some(DataType::Integer), Some(DataType::Integer)) => {
                                Some(DataType::Integer)
                            }
                            (Some(DataType::Float), Some(dt))
                            | (Some(dt), Some(DataType::Float))
                                if type_family(dt) == 1 =>
                            {
                                Some(DataType::Float)
                            }
                            _ => None,
                        },
                        nullable: true,
                    },
                }
            }
            PhysExpr::Unary { op, expr } => {
                let t = self.check_expr(expr, input);
                match op {
                    bp_sql::UnaryOperator::Not => TypeInfo::known(DataType::Boolean, true),
                    bp_sql::UnaryOperator::Minus | bp_sql::UnaryOperator::Plus => TypeInfo {
                        data_type: t.data_type.filter(|dt| type_family(*dt) == 1),
                        nullable: true,
                    },
                }
            }
            PhysExpr::ScalarFn { name, args } => {
                let arg_types: Vec<TypeInfo> =
                    args.iter().map(|a| self.check_expr(a, input)).collect();
                let data_type = match *name {
                    "UPPER" | "LOWER" | "TRIM" | "SUBSTR" | "SUBSTRING" => Some(DataType::Text),
                    "LENGTH" | "LEN" => Some(DataType::Integer),
                    "ABS" | "ROUND" => arg_types.first().and_then(|t| t.data_type),
                    "COALESCE" => arg_types.first().and_then(|t| t.data_type),
                    _ => None,
                };
                TypeInfo {
                    data_type,
                    nullable: true,
                }
            }
            PhysExpr::Aggregate { name, arg, .. } => {
                let arg_type = arg.as_ref().map(|a| self.check_expr(a, input));
                match *name {
                    "COUNT" => TypeInfo::known(DataType::Integer, false),
                    "AVG" => TypeInfo::known(DataType::Float, true),
                    "MIN" | "MAX" | "SUM" => TypeInfo {
                        data_type: arg_type.and_then(|t| t.data_type),
                        nullable: true,
                    },
                    _ => TypeInfo::UNKNOWN,
                }
            }
            PhysExpr::Case {
                operand,
                conditions,
                else_result,
            } => {
                if let Some(operand) = operand {
                    self.check_expr(operand, input);
                }
                let mut branch: Option<TypeInfo> = None;
                let mut merge = |t: TypeInfo| {
                    branch = Some(match branch {
                        None => t,
                        Some(prev) if prev.data_type == t.data_type => TypeInfo {
                            data_type: prev.data_type,
                            nullable: prev.nullable || t.nullable,
                        },
                        Some(_) => TypeInfo::UNKNOWN,
                    });
                };
                for (cond, result) in conditions {
                    self.check_expr(cond, input);
                    let t = self.check_expr(result, input);
                    merge(t);
                }
                if let Some(else_result) = else_result {
                    let t = self.check_expr(else_result, input);
                    merge(t);
                }
                TypeInfo {
                    data_type: branch.and_then(|t| t.data_type),
                    nullable: true, // no ELSE → NULL
                }
            }
            PhysExpr::Exists { plan, .. } => {
                self.check_subplan(plan);
                TypeInfo::known(DataType::Boolean, false)
            }
            PhysExpr::ScalarSubquery { plan } => {
                let mut first = TypeInfo::UNKNOWN;
                if let Ok(sub) = &plan.plan {
                    self.path.push("subquery".into());
                    let types = self.check_plan(sub);
                    self.path.pop();
                    if let Some(t) = types.first() {
                        first = TypeInfo {
                            data_type: t.data_type,
                            nullable: true, // empty result → NULL
                        };
                    }
                }
                first
            }
            PhysExpr::InSubquery { expr, plan, .. } => {
                self.check_expr(expr, input);
                self.check_subplan(plan);
                TypeInfo::known(DataType::Boolean, true)
            }
            PhysExpr::InList { expr, list, .. } => {
                self.check_expr(expr, input);
                for item in list {
                    self.check_expr(item, input);
                }
                TypeInfo::known(DataType::Boolean, true)
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                self.check_expr(expr, input);
                self.check_expr(low, input);
                self.check_expr(high, input);
                TypeInfo::known(DataType::Boolean, true)
            }
            PhysExpr::IsNull { expr, .. } => {
                self.check_expr(expr, input);
                TypeInfo::known(DataType::Boolean, false)
            }
            PhysExpr::Like { expr, pattern, .. } => {
                self.check_expr(expr, input);
                self.check_expr(pattern, input);
                TypeInfo::known(DataType::Boolean, true)
            }
            PhysExpr::Cast { expr, data_type } => {
                self.check_expr(expr, input);
                TypeInfo {
                    data_type: Some(*data_type),
                    nullable: true, // failed casts yield NULL
                }
            }
            PhysExpr::Fail(_) => TypeInfo::UNKNOWN, // lazy error — legal
        }
    }
}

// ---------------------------------------------------------------------
// Logical walker
// ---------------------------------------------------------------------

struct LogicalVerifier<'a> {
    db: &'a Snapshot,
    violations: Vec<PlanViolation>,
    path: Vec<String>,
    /// CTE scopes, innermost last: name → output width.
    frames: Vec<HashMap<String, usize>>,
}

impl LogicalVerifier<'_> {
    fn path(&self) -> String {
        self.path.join(".")
    }

    fn report(&mut self, violation: PlanViolation) {
        self.violations.push(violation);
    }

    fn check_plan(&mut self, plan: &QueryPlan) -> usize {
        self.frames.push(HashMap::new());
        for (name, sub) in &plan.ctes {
            self.path.push(format!("cte({name})"));
            let width = self.check_plan(sub);
            self.path.pop();
            self.frames
                .last_mut()
                .expect("frame pushed above")
                .insert(name.clone(), width);
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

    fn check_node(&mut self, node: &LogicalPlan) -> usize {
        match node {
            LogicalPlan::Scan(Scan { source, bindings }) => {
                self.path.push("Scan".into());
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
                            .find_map(|frame| frame.get(name))
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
                self.path.push("Filter".into());
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
                self.path.push("Join".into());
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
                self.path.push(
                    if matches!(node, LogicalPlan::Project { .. }) {
                        "Project"
                    } else {
                        "Aggregate"
                    }
                    .into(),
                );
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
                self.path.push("Sort".into());
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
                self.path.push("Limit".into());
                let width = self.check_node(input);
                self.path.pop();
                width
            }
            LogicalPlan::SetOp { left, right, .. } => {
                self.path.push("SetOp.left".into());
                let left_width = self.check_plan(left);
                self.path.pop();
                self.path.push("SetOp.right".into());
                self.check_plan(right);
                self.path.pop();
                left_width
            }
            LogicalPlan::Nested(sub) => {
                self.path.push("Nested".into());
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
    use crate::physical::AccessPathStats;
    use crate::plan::ColumnBinding;
    use crate::schema::{Column, TableSchema};

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

    fn bindings(n: usize) -> Vec<ColumnBinding> {
        (0..n)
            .map(|i| ColumnBinding {
                qualifier: None,
                name: format!("C{i}"),
            })
            .collect()
    }

    fn plan_of(root: PhysNode, columns: &[&str]) -> PhysQueryPlan {
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
        let corrupt = plan_of(
            PhysNode::Project {
                input: Box::new(scan_t()),
                items: vec![PhysExpr::Column(7)],
                visible: 1,
                distinct: false,
                bindings: bindings(3),
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
        let corrupt = plan_of(
            PhysNode::IndexScan {
                name: "T".into(),
                access: IndexAccess::Point {
                    col: 0,
                    key: Value::Text("seven".into()),
                },
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
    fn rejects_ordered_index_paths_on_nan_poisoned_columns() {
        let db = db();
        let snapshot = db.snapshot();
        // Every ordered-index shape on the NaN-poisoned Float column must
        // be rejected: range scan, MIN/MAX index aggregate, Top-K fusion.
        let range = plan_of(
            PhysNode::IndexScan {
                name: "T".into(),
                access: IndexAccess::Range {
                    col: 2,
                    lower: Some((Value::Float(0.0), true)),
                    upper: None,
                },
                cols: None,
            },
            &["id", "v", "f"],
        );
        let agg = plan_of(
            PhysNode::IndexAgg {
                name: "T".into(),
                specs: vec![AggSpec::Min(2)],
            },
            &["m"],
        );
        let top_k = plan_of(
            PhysNode::IndexTopK {
                name: "T".into(),
                key_ordinal: 0,
                output: vec![2],
                limit: PhysExpr::Literal(Value::Int(5)),
                offset: None,
            },
            &["f"],
        );
        for (label, corrupt) in [("range", range), ("index-agg", agg), ("top-k", top_k)] {
            let violations = verify_plan(&snapshot, &corrupt);
            assert!(
                violations
                    .iter()
                    .any(|v| matches!(v, PlanViolation::OrderedIndexOnNanColumn { .. })),
                "{label}: expected OrderedIndexOnNanColumn, got:\n{}",
                render_violations(&violations)
            );
        }
        // The same shapes on the NaN-free Integer column are sound.
        let clean = plan_of(
            PhysNode::IndexScan {
                name: "T".into(),
                access: IndexAccess::Range {
                    col: 1,
                    lower: Some((Value::Int(0), true)),
                    upper: None,
                },
                cols: None,
            },
            &["id", "v", "f"],
        );
        assert!(verify_plan(&snapshot, &clean).is_empty());
    }

    #[test]
    fn rejects_mismatched_join_key_arity() {
        let db = db();
        // Two left keys against one right key: the build/probe encodings
        // would zip unequal-length key tuples.
        let corrupt = plan_of(
            PhysNode::HashJoin {
                left: Box::new(scan_t()),
                right: Box::new(scan_t()),
                operator: JoinOperator::Inner,
                left_keys: vec![0, 1],
                right_keys: vec![0],
                residual: None,
                bindings: bindings(6),
                right_width: 3,
                build_left: false,
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
        // Empty key lists are a miscompile too (must be a nested-loop join).
        let empty = plan_of(
            PhysNode::HashJoin {
                left: Box::new(scan_t()),
                right: Box::new(scan_t()),
                operator: JoinOperator::Inner,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                bindings: bindings(6),
                right_width: 3,
                build_left: false,
            },
            &["a", "b", "c", "d", "e", "f"],
        );
        assert!(!verify_plan(&db.snapshot(), &empty).is_empty());
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
        let mut plan = crate::physical::compile_query(
            &snapshot,
            &query,
            crate::physical::CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(
            plan.optimizer.cost_based, 1,
            "the three-leaf inner chain must go through the cost-based reorder"
        );
        assert!(
            verify_plan(&snapshot, &plan).is_empty(),
            "the real reordered plan verifies cleanly"
        );
        fn first_join_bindings_mut(node: &mut PhysNode) -> Option<&mut Vec<ColumnBinding>> {
            match node {
                PhysNode::HashJoin { bindings, .. } | PhysNode::NestedLoopJoin { bindings, .. } => {
                    Some(bindings)
                }
                PhysNode::Project { input, .. } | PhysNode::Filter { input, .. } => {
                    first_join_bindings_mut(input)
                }
                _ => None,
            }
        }
        let join_bindings = first_join_bindings_mut(&mut plan.root).expect("plan contains a join");
        // Positions 2 and 3 sit over the inner join child in either
        // association ((a⋈b)⋈c or a⋈(b⋈c)), so the swap always disagrees
        // with a child that carries bindings.
        join_bindings.swap(2, 3);
        let violations = verify_plan(&snapshot, &plan);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, PlanViolation::JoinBindingMismatch { ordinal: 2, .. })),
            "expected JoinBindingMismatch, got:\n{}",
            render_violations(&violations)
        );
    }

    #[test]
    fn rejects_live_reads_of_pruned_scan_slots() {
        let db = db();
        // The scan decodes only column 0, but the projection reads column 1
        // — at runtime the columnar engine would hand it a loud
        // placeholder.
        let corrupt = plan_of(
            PhysNode::Project {
                input: Box::new(PhysNode::ScanTable {
                    name: "T".into(),
                    cols: Some(vec![0]),
                }),
                items: vec![PhysExpr::Column(1)],
                visible: 1,
                distinct: false,
                bindings: bindings(3),
            },
            &["v"],
        );
        let violations = verify_plan(&db.snapshot(), &corrupt);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, PlanViolation::PrunedColumnRead { ordinal: 1, .. })),
            "expected PrunedColumnRead, got:\n{}",
            render_violations(&violations)
        );
        // A pruned scan outside a projection context is equally malformed.
        let stray = plan_of(
            PhysNode::Sort {
                input: Box::new(PhysNode::ScanTable {
                    name: "T".into(),
                    cols: Some(vec![0]),
                }),
                keys: vec![SortKey {
                    ordinal: Some(0),
                    asc: true,
                }],
            },
            &["id", "v", "f"],
        );
        assert!(verify_plan(&db.snapshot(), &stray)
            .iter()
            .any(|v| matches!(v, PlanViolation::BadPruneMask { .. })));
    }

    #[test]
    fn rejects_structural_width_lies() {
        let db = db();
        let snapshot = db.snapshot();
        // Unknown table.
        let ghost = plan_of(
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
        let lying_join = plan_of(
            PhysNode::NestedLoopJoin {
                left: Box::new(scan_t()),
                right: Box::new(scan_t()),
                operator: JoinOperator::Cross,
                on: None,
                bindings: bindings(6),
                right_width: 2,
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
        // A plan that promises more output columns than its root produces.
        let wide = plan_of(scan_t(), &["a", "b", "c", "d"]);
        assert!(verify_plan(&snapshot, &wide)
            .iter()
            .any(|v| matches!(v, PlanViolation::OutputWidthMismatch { .. })));
        // Sort key past the input arity.
        let bad_sort = plan_of(
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
