//! Lowering from logical plans to physical operator trees.
//!
//! Compilation resolves every name exactly once: a column reference to an
//! ordinal (see [`super::expr`]), a CTE reference to the (plan depth,
//! position) of its definition. It records widths, not binding lists,
//! compiles every join to a hash join on the logical plan's extracted
//! equi-keys (none for a cross or non-equi join, whose whole ON is the
//! residual), plans + compiles expression subqueries recursively, and
//! computes each subquery's cacheability (uncorrelated and free of reads
//! from enclosing CTE scopes). A last top-down pass over each compiled
//! plan prunes the columns no operator reads (see [`prune`]).
//!
//! Every static error is a compile error wherever it sits, as SQLite and
//! PostgreSQL reject such a statement at prepare: a column reference that
//! no enclosing row scope binds ([`StorageError::UnknownColumn`]), an
//! unknown function or a wrong argument count (`scalar::check_call`), a
//! bare `*` outside `COUNT(*)`, and a subquery whose table does not
//! resolve. A correlated reference compiles to the depth of the innermost
//! enclosing scope that binds it and its ordinal there.

use std::collections::BTreeSet;

use bp_sql::{column_ref, split_conjuncts, Expr, Query};

use crate::error::{StorageError, StorageResult};
use crate::plan::{
    and_join, benign, resolve_binding, sarg_column, sargable_atom, ColumnBinding, CteScope,
    LogicalPlan, Planner, QueryPlan, SargAtom, Scan, ScanSource,
};
use crate::scalar::{check_call, is_aggregate_name, is_count_star, literal_value};
use crate::snapshot::Snapshot;
use crate::table::Table;
use crate::value::Value;

use super::expr::{PhysExpr, SubPlan};
use super::verify::{type_family, value_family};
use super::{AccessPathStats, AggSpec, IndexAccess, PhysNode, PhysQueryPlan};

pub(crate) struct Compiler<'a> {
    db: &'a Snapshot,
    /// One CTE scope per plan being compiled, innermost last, mirroring
    /// the planner's: a CTE scan resolves here to (frames out, position),
    /// and subqueries discovered inside expressions are planned against it.
    frames: Vec<CteScope>,
    /// Row scopes of the expressions enclosing the subquery being
    /// compiled, outermost first: where a correlated reference may bind.
    scopes: Vec<Vec<ColumnBinding>>,
    /// Whether any outer (correlated) column reference was compiled since
    /// the current subplan boundary.
    contains_outer: bool,
    /// Minimum CTE definition depth referenced since the current subplan
    /// boundary (`usize::MAX` = none).
    min_cte_depth: usize,
    /// Whether to emit index-backed access paths and prune unread columns
    /// (`false` forces whole full scans — the differential baseline).
    fast_paths: bool,
    /// Whether statistics drive physical choices (build-side selection,
    /// access-path arbitration). `false` is the syntactic baseline: fixed
    /// preference order, always build right.
    cost_based: bool,
    /// Running access-path tally over the whole compilation.
    index_scans: u64,
    full_scans: u64,
}

impl<'a> Compiler<'a> {
    #[cfg(test)]
    pub(crate) fn with_fast_paths(db: &'a Snapshot, fast_paths: bool) -> Self {
        Self::with_options(
            db,
            super::CompileOptions {
                fast_paths,
                ..super::CompileOptions::default()
            },
        )
    }

    pub(crate) fn with_options(db: &'a Snapshot, options: super::CompileOptions) -> Self {
        Compiler {
            db,
            frames: Vec::new(),
            scopes: Vec::new(),
            contains_outer: false,
            min_cte_depth: usize::MAX,
            fast_paths: options.fast_paths,
            cost_based: options.cost_based,
            index_scans: 0,
            full_scans: 0,
        }
    }

    pub(crate) fn compile(&mut self, plan: &QueryPlan) -> StorageResult<PhysQueryPlan> {
        let mut phys = self.compile_query_plan(plan)?;
        phys.access = AccessPathStats {
            index_scan: self.index_scans,
            full_scan: self.full_scans,
        };
        Ok(phys)
    }

    fn compile_query_plan(&mut self, plan: &QueryPlan) -> StorageResult<PhysQueryPlan> {
        self.frames.push(Vec::new());
        let result = self.compile_query_plan_inner(plan);
        self.frames.pop();
        result
    }

    fn compile_query_plan_inner(&mut self, plan: &QueryPlan) -> StorageResult<PhysQueryPlan> {
        let mut ctes = Vec::new();
        for (name, sub) in &plan.ctes {
            let phys = self.compile_query_plan(sub)?;
            self.frames
                .last_mut()
                .expect("frame pushed by compile_query_plan")
                .push((name.clone(), sub.columns.clone()));
            ctes.push((name.clone(), phys));
        }
        let mut root = self.compile_node(&plan.root)?;
        if self.fast_paths {
            // The plan's output is read whole; pruning stops at the plan
            // boundary, so nested plans were pruned when they compiled.
            prune(&mut root, None);
        }
        Ok(PhysQueryPlan {
            ctes,
            root,
            columns: plan.columns.clone(),
            ordered: plan.ordered,
            access: AccessPathStats::default(),
            est_rows: None,
            optimizer: crate::cost::OptimizerStats::default(),
        })
    }

    fn compile_node(&mut self, node: &LogicalPlan) -> StorageResult<PhysNode> {
        match node {
            LogicalPlan::Scan(Scan { source, .. }) => match source {
                ScanSource::Table(name) => {
                    self.full_scans += 1;
                    Ok(PhysNode::ScanTable {
                        name: name.clone(),
                        cols: None,
                    })
                }
                ScanSource::Cte { name, depth } => {
                    self.min_cte_depth = self.min_cte_depth.min(*depth);
                    // Innermost frame first, and within a frame the last
                    // definition: the planner's shadowing rule.
                    let (depth, idx) = self
                        .frames
                        .iter()
                        .rev()
                        .enumerate()
                        .find_map(|(depth, frame)| {
                            let idx = frame.iter().rposition(|(cte, _)| cte == name)?;
                            Some((depth, idx))
                        })
                        .ok_or_else(|| StorageError::UnknownTable(name.clone()))?;
                    Ok(PhysNode::ScanCte { depth, idx })
                }
                ScanSource::Derived(sub) => Ok(PhysNode::ScanDerived {
                    plan: Box::new(self.compile_query_plan(sub)?),
                }),
                ScanSource::Empty => Ok(PhysNode::ScanEmpty),
            },
            LogicalPlan::Filter { input, predicate } => {
                let bindings = input.bindings();
                if self.fast_paths {
                    if let LogicalPlan::Scan(Scan {
                        source: ScanSource::Table(name),
                        ..
                    }) = input.as_ref()
                    {
                        if let Some(node) = self.try_index_filter(name, predicate, bindings)? {
                            return Ok(node);
                        }
                    }
                }
                let compiled_input = self.compile_node(input)?;
                let predicate = self.compile_expr(predicate, bindings)?;
                Ok(PhysNode::Filter {
                    input: Box::new(compiled_input),
                    predicate,
                })
            }
            LogicalPlan::Join {
                left,
                right,
                operator,
                equi_keys,
                residual,
                bindings,
            } => {
                let (width, right_width) = (bindings.len(), right.bindings().len());
                let compiled_left = self.compile_node(left)?;
                let compiled_right = self.compile_node(right)?;
                // A join without equi-keys (a cross join or a non-equi ON)
                // is a hash join with no keys and its whole ON as residual.
                let residual = residual
                    .as_ref()
                    .map(|e| self.compile_expr(e, bindings))
                    .transpose()?;
                let (left_keys, right_keys) = equi_keys.iter().copied().unzip();
                // Cost-based build-side selection: group the smaller
                // estimated input. Inner joins with keys only: the
                // outer-join padding logic is side-specific, and without
                // keys every left row shares one group, so flattening the
                // left side to group it buys nothing. Output is
                // byte-identical either way — a wrong estimate can only
                // change speed, never answers.
                let build_left = self.cost_based
                    && !equi_keys.is_empty()
                    && matches!(operator, bp_sql::JoinOperator::Inner)
                    && {
                        let est = crate::cost::Estimator::new(self.db);
                        est.rows(left) < est.rows(right)
                    };
                Ok(PhysNode::HashJoin {
                    left: Box::new(compiled_left),
                    right: Box::new(compiled_right),
                    operator: *operator,
                    left_keys,
                    right_keys,
                    residual,
                    width,
                    right_width,
                    build_left,
                    cols: None,
                })
            }
            LogicalPlan::Project {
                input,
                items,
                names,
                distinct,
            } => {
                let bindings = input.bindings();
                let compiled_input = self.compile_node(input)?;
                let items = items
                    .iter()
                    .map(|e| self.compile_expr(e, bindings))
                    .collect::<StorageResult<Vec<_>>>()?;
                Ok(PhysNode::Project {
                    input: Box::new(compiled_input),
                    items,
                    visible: names.len(),
                    distinct: *distinct,
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                having,
                items,
                names,
                distinct,
            } => {
                let bindings = input.bindings();
                if self.fast_paths
                    && group_by.is_empty()
                    && having.is_none()
                    && !*distinct
                    && items.len() == names.len()
                {
                    if let LogicalPlan::Scan(Scan {
                        source: ScanSource::Table(name),
                        ..
                    }) = input.as_ref()
                    {
                        if let Some(specs) = index_agg_specs(items, bindings) {
                            // A NaN-poisoned spec column declines the whole
                            // fast path: the hash aggregate is the exact
                            // semantics.
                            let nan_free = self.db.table(name).is_some_and(|table| {
                                specs.iter().all(|spec| match spec {
                                    AggSpec::Min(col)
                                    | AggSpec::Max(col)
                                    | AggSpec::Count { col, .. } => {
                                        !table.secondary_index(*col).has_nan()
                                    }
                                    AggSpec::CountStar => true,
                                })
                            });
                            if nan_free {
                                self.index_scans += 1;
                                return Ok(PhysNode::IndexAgg {
                                    name: name.clone(),
                                    specs,
                                });
                            }
                        }
                    }
                }
                let compiled_input = self.compile_node(input)?;
                let group_by = group_by
                    .iter()
                    .map(|e| self.compile_expr(e, bindings))
                    .collect::<StorageResult<Vec<_>>>()?;
                let having = having
                    .as_ref()
                    .map(|e| self.compile_expr(e, bindings))
                    .transpose()?;
                let items = items
                    .iter()
                    .map(|e| self.compile_expr(e, bindings))
                    .collect::<StorageResult<Vec<_>>>()?;
                Ok(PhysNode::HashAggregate {
                    input: Box::new(compiled_input),
                    group_by,
                    having,
                    items,
                    visible: names.len(),
                    distinct: *distinct,
                    input_width: bindings.len(),
                })
            }
            LogicalPlan::Sort { input, keys } => Ok(PhysNode::Sort {
                input: Box::new(self.compile_node(input)?),
                keys: keys.clone(),
            }),
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let compiled_input = self.compile_node(input)?;
                // LIMIT/OFFSET evaluate in an empty row scope (identifiers
                // resolve only through enclosing scopes, as in the oracle).
                let limit = limit
                    .as_ref()
                    .map(|e| self.compile_expr(e, &[]))
                    .transpose()?;
                let offset = offset
                    .as_ref()
                    .map(|e| self.compile_expr(e, &[]))
                    .transpose()?;
                // Fuse `ORDER BY … LIMIT n` into a bounded Top-K: the heap
                // keeps `n + offset` rows instead of sorting everything.
                // Plain `Sort` stays for unlimited queries, and OFFSET-only
                // limits keep the full sort (every row may still surface).
                match (compiled_input, limit) {
                    (PhysNode::Sort { input, keys }, Some(limit)) => Ok(PhysNode::TopK {
                        input,
                        keys,
                        limit,
                        offset,
                    }),
                    (compiled_input, limit) => Ok(PhysNode::Limit {
                        input: Box::new(compiled_input),
                        limit,
                        offset,
                    }),
                }
            }
            LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
            } => Ok(PhysNode::SetOp {
                op: *op,
                all: *all,
                left: Box::new(self.compile_query_plan(left)?),
                right: Box::new(self.compile_query_plan(right)?),
            }),
            LogicalPlan::Nested(sub) => Ok(PhysNode::ScanDerived {
                plan: Box::new(self.compile_query_plan(sub)?),
            }),
        }
    }

    // -----------------------------------------------------------------
    // Index-backed access paths
    // -----------------------------------------------------------------

    /// Try to lower `Filter(Scan(name), predicate)` onto a secondary
    /// index. Returns `None` when no sargable shape applies; the caller
    /// then falls back to the ordinary scan + filter pair.
    fn try_index_filter(
        &mut self,
        name: &str,
        predicate: &Expr,
        bindings: &[ColumnBinding],
    ) -> StorageResult<Option<PhysNode>> {
        let conjuncts = split_conjuncts(predicate);
        // An `IN (subquery)` probe only applies when it is the *entire*
        // predicate: with residual conjuncts, per-row evaluation may raise
        // another conjunct's run-time error before it runs the subquery,
        // while the probe would run it first — the two would disagree on
        // which run-time error, if any, surfaces.
        if let [only] = conjuncts.as_slice() {
            if let Some(node) = self.try_in_subquery_probe(name, only, bindings)? {
                return Ok(Some(node));
            }
        }
        // Every conjunct must be benign (cannot raise on any row): the
        // index path never evaluates the chosen conjunct on non-matching
        // rows, so anything that could error must not be skipped.
        if !conjuncts.iter().all(|c| benign(c)) {
            return Ok(None);
        }
        let Some(table) = self.db.table(name) else {
            return Ok(None);
        };
        let atoms: Vec<Option<SargAtom>> = conjuncts
            .iter()
            .map(|c| sargable_atom(c, bindings).filter(|a| atom_usable(table, a)))
            .collect();
        // Shape-preference order: point, then IN-list, then range — the
        // syntactic baseline picks the first match outright; the cost-based
        // arbiter walks the same order but keeps the atom with the lowest
        // estimated selectivity (strict `<`, so ties fall back to the
        // baseline's choice) and declines the index entirely when even the
        // best atom keeps most of the table (see
        // [`crate::cost::INDEX_CROSSOVER_SELECTIVITY`]).
        let preference: Vec<usize> = atoms
            .iter()
            .position(|a| matches!(a, Some(SargAtom::Point { .. })))
            .into_iter()
            .chain(
                atoms
                    .iter()
                    .position(|a| matches!(a, Some(SargAtom::InList { .. }))),
            )
            .chain(
                atoms
                    .iter()
                    .position(|a| matches!(a, Some(SargAtom::Range { .. }))),
            )
            .collect();
        let chosen = if self.cost_based {
            let mut best: Option<(usize, f64)> = None;
            let stats = table.stats();
            for &i in &preference {
                if let Some(atom) = &atoms[i] {
                    let column = stats.column(atom.col()).map(|cs| (cs, stats.row_count));
                    let sel = crate::cost::atom_selectivity(column, atom);
                    if best.is_none_or(|(_, s)| sel < s) {
                        best = Some((i, sel));
                    }
                }
            }
            match best {
                Some((_, sel)) if sel > crate::cost::INDEX_CROSSOVER_SELECTIVITY => None,
                Some((i, _)) => Some(i),
                None => None,
            }
        } else {
            preference.first().copied()
        };
        let Some(chosen) = chosen else {
            return Ok(None);
        };
        let atom = atoms[chosen].clone().expect("chosen atom exists");
        let col = atom.col();
        // NaN breaks the coincidence between index order / `group_key`
        // equality and the scan kernels, and the executor has no fallback:
        // a NaN-poisoned column keeps the scan + filter plan.
        if table.secondary_index(col).has_nan() {
            return Ok(None);
        }
        self.index_scans += 1;
        let scan = PhysNode::IndexScan {
            name: name.to_string(),
            access: IndexAccess::Atom(atom),
            cols: None,
        };
        // Conjuncts the index does not answer stay as a residual filter
        // over the (already narrowed) index output.
        let residual: Vec<Expr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != chosen)
            .map(|(_, c)| (*c).clone())
            .collect();
        match and_join(residual) {
            Some(rest) => {
                let predicate = self.compile_expr(&rest, bindings)?;
                Ok(Some(PhysNode::Filter {
                    input: Box::new(scan),
                    predicate,
                }))
            }
            None => Ok(Some(scan)),
        }
    }

    /// Recognise `col IN (uncorrelated subquery)` as a hash-index probe.
    /// `conjunct` is the filter's whole predicate. Once the subquery has
    /// compiled, a declined probe (a correlated or CTE-bound subquery)
    /// returns the ordinary scan + filter pair built around that same
    /// subplan, so the subquery compiles, and tallies its scans, once.
    fn try_in_subquery_probe(
        &mut self,
        name: &str,
        conjunct: &Expr,
        bindings: &[ColumnBinding],
    ) -> StorageResult<Option<PhysNode>> {
        let mut expr = conjunct;
        while let Expr::Nested(inner) = expr {
            expr = inner;
        }
        let Expr::InSubquery {
            expr: needle,
            subquery,
            negated: false,
        } = expr
        else {
            return Ok(None);
        };
        let Some(col) = sarg_column(needle, bindings) else {
            return Ok(None);
        };
        // A NaN-poisoned probe column keeps the scan + filter plan. This is
        // decided before the subquery compiles, so a declined probe leaves
        // no trace (access-path tally, correlation flags) behind.
        if self
            .db
            .table(name)
            .is_some_and(|t| t.secondary_index(col).has_nan())
        {
            return Ok(None);
        }
        let logical = self.plan_subquery(subquery)?;
        let plan = self.compile_subplan(&logical, bindings)?;
        if !plan.cacheable {
            // Correlated or CTE-entangled subqueries cannot probe: their
            // result depends on the enclosing scope.
            self.full_scans += 1;
            return Ok(Some(PhysNode::Filter {
                input: Box::new(PhysNode::ScanTable {
                    name: name.to_string(),
                    cols: None,
                }),
                predicate: PhysExpr::InSubquery {
                    expr: Box::new(self.compile_expr(needle, bindings)?),
                    plan: Box::new(plan),
                    negated: false,
                },
            }));
        }
        self.index_scans += 1;
        Ok(Some(PhysNode::IndexScan {
            name: name.to_string(),
            access: IndexAccess::InSubquery {
                col,
                plan: Box::new(plan),
            },
            cols: None,
        }))
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn compile_expr(&mut self, expr: &Expr, bindings: &[ColumnBinding]) -> StorageResult<PhysExpr> {
        match expr {
            Expr::Identifier(_) | Expr::CompoundIdentifier(_) => {
                let Some(cr) = column_ref(expr) else {
                    return Err(StorageError::UnknownColumn("<empty>".into()));
                };
                let qualifier = cr.qualifier.as_ref().map(|i| i.value.as_str());
                let name = cr.column.value.as_str();
                if let Some(idx) = resolve_binding(bindings, qualifier, name) {
                    return Ok(PhysExpr::Column(idx));
                }
                // The innermost enclosing scope that binds the name wins.
                let outer = self
                    .scopes
                    .iter()
                    .rev()
                    .enumerate()
                    .find_map(|(depth, scope)| {
                        resolve_binding(scope, qualifier, name).map(|idx| (depth, idx))
                    });
                let Some((depth, idx)) = outer else {
                    return Err(StorageError::UnknownColumn(match qualifier {
                        Some(q) => format!("{q}.{name}"),
                        None => name.to_string(),
                    }));
                };
                self.contains_outer = true;
                Ok(PhysExpr::OuterColumn { depth, idx })
            }
            Expr::Literal(lit) => Ok(PhysExpr::Literal(literal_value(lit))),
            Expr::BinaryOp { left, op, right } => Ok(PhysExpr::Binary {
                left: Box::new(self.compile_expr(left, bindings)?),
                op: *op,
                right: Box::new(self.compile_expr(right, bindings)?),
            }),
            Expr::UnaryOp { op, expr } => Ok(PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.compile_expr(expr, bindings)?),
            }),
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                let canonical = check_call(&name.value, args)?;
                if is_aggregate_name(canonical) {
                    let arg = if is_count_star(canonical, args) {
                        None
                    } else {
                        Some(Box::new(self.compile_expr(&args[0], bindings)?))
                    };
                    Ok(PhysExpr::Aggregate {
                        name: canonical,
                        arg,
                        distinct: *distinct,
                    })
                } else {
                    let args = args
                        .iter()
                        .map(|a| self.compile_expr(a, bindings))
                        .collect::<StorageResult<Vec<_>>>()?;
                    Ok(PhysExpr::ScalarFn {
                        name: canonical,
                        args,
                    })
                }
            }
            Expr::Case {
                operand,
                conditions,
                else_result,
            } => Ok(PhysExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.compile_expr(o, bindings).map(Box::new))
                    .transpose()?,
                conditions: conditions
                    .iter()
                    .map(|(c, r)| {
                        Ok((
                            self.compile_expr(c, bindings)?,
                            self.compile_expr(r, bindings)?,
                        ))
                    })
                    .collect::<StorageResult<Vec<_>>>()?,
                else_result: else_result
                    .as_ref()
                    .map(|e| self.compile_expr(e, bindings).map(Box::new))
                    .transpose()?,
            }),
            Expr::Exists { subquery, negated } => {
                let logical = self.plan_subquery(subquery)?;
                Ok(PhysExpr::Exists {
                    plan: Box::new(self.compile_subplan(&logical, bindings)?),
                    negated: *negated,
                })
            }
            Expr::Subquery(subquery) => {
                let logical = self.plan_subquery(subquery)?;
                Ok(PhysExpr::ScalarSubquery {
                    plan: Box::new(self.compile_subplan(&logical, bindings)?),
                })
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let needle = Box::new(self.compile_expr(expr, bindings)?);
                let logical = self.plan_subquery(subquery)?;
                Ok(PhysExpr::InSubquery {
                    expr: needle,
                    plan: Box::new(self.compile_subplan(&logical, bindings)?),
                    negated: *negated,
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(PhysExpr::InList {
                expr: Box::new(self.compile_expr(expr, bindings)?),
                list: list
                    .iter()
                    .map(|e| self.compile_expr(e, bindings))
                    .collect::<StorageResult<Vec<_>>>()?,
                negated: *negated,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(PhysExpr::Between {
                expr: Box::new(self.compile_expr(expr, bindings)?),
                low: Box::new(self.compile_expr(low, bindings)?),
                high: Box::new(self.compile_expr(high, bindings)?),
                negated: *negated,
            }),
            Expr::IsNull { expr, negated } => Ok(PhysExpr::IsNull {
                expr: Box::new(self.compile_expr(expr, bindings)?),
                negated: *negated,
            }),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(PhysExpr::Like {
                expr: Box::new(self.compile_expr(expr, bindings)?),
                pattern: Box::new(self.compile_expr(pattern, bindings)?),
                negated: *negated,
            }),
            Expr::Cast { expr, data_type } => Ok(PhysExpr::Cast {
                expr: Box::new(self.compile_expr(expr, bindings)?),
                data_type: *data_type,
            }),
            Expr::Nested(inner) => self.compile_expr(inner, bindings),
            Expr::Wildcard => Err(StorageError::Unsupported(
                "bare '*' outside COUNT(*) cannot be evaluated".into(),
            )),
        }
    }

    /// Plan an expression subquery against the enclosing CTE frames.
    fn plan_subquery(&self, query: &Query) -> StorageResult<QueryPlan> {
        Planner::with_frames(self.db, self.frames.clone()).plan(query)
    }

    /// Compile a planned expression subquery that is evaluated against rows
    /// of `bindings`, deciding cacheability: a subplan may cache its result
    /// iff nothing it compiled (including nested subqueries, CTE bodies and
    /// derived tables) referenced an outer column or a CTE defined outside
    /// the subplan itself.
    fn compile_subplan(
        &mut self,
        logical: &QueryPlan,
        bindings: &[ColumnBinding],
    ) -> StorageResult<SubPlan> {
        let entry_depth = self.frames.len();
        let saved_outer = std::mem::replace(&mut self.contains_outer, false);
        let saved_depth = std::mem::replace(&mut self.min_cte_depth, usize::MAX);
        self.scopes.push(bindings.to_vec());
        let result = self.compile_query_plan(logical);
        self.scopes.pop();
        let correlated = self.contains_outer;
        let cacheable = !correlated && self.min_cte_depth >= entry_depth;
        self.contains_outer |= saved_outer;
        self.min_cte_depth = self.min_cte_depth.min(saved_depth);

        Ok(SubPlan::new(result?, cacheable, correlated))
    }
}

/// Whether an index can answer this sargable atom exactly. Every probe
/// key must share the declared column's `total_cmp` family: a
/// family-confused probe (`int_col = 'abc'`, `col = NULL`) compares
/// values the index orders into disjoint runs, so the compiler falls back
/// to the scan + filter plan, whose per-row evaluation is the exact
/// semantics. A range atom on a NaN-poisoned column is unusable too, so
/// another atom may still win; point and IN-list atoms are checked for
/// NaN only once chosen, so compiling never builds an index that
/// execution would not read. `verify.rs` enforces the same preconditions
/// as hard invariants on every compiled plan.
fn atom_usable(table: &Table, atom: &SargAtom) -> bool {
    let expected = |col: usize| type_family(table.schema.columns[col].data_type);
    let matches_family = |col: usize, key: &Value| value_family(key) == expected(col);
    match atom {
        SargAtom::Point { col, key } => matches_family(*col, key),
        SargAtom::InList { col, keys } => keys.iter().all(|k| matches_family(*col, k)),
        SargAtom::Range { col, lower, upper } => {
            lower
                .iter()
                .chain(upper.iter())
                .all(|(v, _)| matches_family(*col, v))
                && !table.secondary_index(*col).has_nan()
        }
    }
}

/// Recognise an aggregate item list where every item is answerable from a
/// secondary index or the row count alone: `COUNT(*)`,
/// `COUNT([DISTINCT] col)`, `MIN(col)`, `MAX(col)`. `MIN`/`MAX` with
/// DISTINCT are excluded because dedup can change which tied
/// representative surfaces (e.g. MAX over `[1, 1.0]`).
fn index_agg_specs(items: &[Expr], bindings: &[ColumnBinding]) -> Option<Vec<AggSpec>> {
    items
        .iter()
        .map(|item| {
            let mut expr = item;
            while let Expr::Nested(inner) = expr {
                expr = inner;
            }
            let Expr::Function {
                name,
                args,
                distinct,
            } = expr
            else {
                return None;
            };
            // A call that fails `check_call` declines the fast path, so the
            // hash aggregate's compile raises its error.
            match check_call(&name.value, args).ok()? {
                "COUNT" => {
                    if is_count_star("COUNT", args) {
                        // COUNT(*) ignores DISTINCT, matching both row
                        // and columnar evaluators.
                        Some(AggSpec::CountStar)
                    } else {
                        let col = sarg_column(args.first()?, bindings)?;
                        Some(AggSpec::Count {
                            col,
                            distinct: *distinct,
                        })
                    }
                }
                "MIN" if !*distinct => Some(AggSpec::Min(sarg_column(args.first()?, bindings)?)),
                "MAX" if !*distinct => Some(AggSpec::Max(sarg_column(args.first()?, bindings)?)),
                _ => None,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Column pruning
// ---------------------------------------------------------------------

/// The ordinals of a node's unpruned output that its pruned output keeps,
/// ascending: position `i` holds unpruned ordinal `layout[i]`. `None` is
/// the whole output, in place.
type Layout = Option<Vec<usize>>;

/// Top-down column pruning: narrow `node` so that it emits at least the
/// output ordinals in `need` (`None` = all of them), remap every ordinal
/// its operators read to their inputs' narrowed layouts, and return the
/// layout it emits. Scans decode, and joins gather, only what is needed;
/// filters, sorts and limits pass their input's layout through. A
/// projection or aggregate reads only the columns its expressions name
/// and emits its items whole. Plan boundaries (CTE, derived, nested and
/// set-operation plans, index aggregates) are never narrowed.
///
/// An operator whose expressions hold a correlated subplan keeps its
/// input whole: the subplan reads the row it runs for by unpruned
/// ordinals. A node given `need = None` always returns `None`.
fn prune(node: &mut PhysNode, need: Option<BTreeSet<usize>>) -> Layout {
    match node {
        PhysNode::ScanTable { cols, .. } | PhysNode::IndexScan { cols, .. } => {
            *cols = need.map(|need| need.into_iter().collect());
            cols.clone()
        }
        PhysNode::Filter { input, predicate } => {
            let layout = prune(input, widen(need, [&*predicate]));
            remap(predicate, &layout);
            layout
        }
        PhysNode::Sort { input, keys } | PhysNode::TopK { input, keys, .. } => {
            let need = need.map(|mut need| {
                need.extend(keys.iter().filter_map(|k| k.ordinal));
                need
            });
            let layout = prune(input, need);
            for key in keys {
                key.ordinal = key.ordinal.map(|o| position(&layout, o));
            }
            layout
        }
        PhysNode::Limit { input, .. } => prune(input, need),
        PhysNode::Project { input, items, .. } => {
            let layout = prune(input, reads(items.iter()));
            items.iter_mut().for_each(|item| remap(item, &layout));
            None
        }
        PhysNode::HashAggregate {
            input,
            group_by,
            having,
            items,
            input_width,
            ..
        } => {
            let layout = prune(input, reads(group_by.iter().chain(&*having).chain(&*items)));
            for expr in group_by.iter_mut().chain(having).chain(items) {
                remap(expr, &layout);
            }
            if let Some(layout) = &layout {
                *input_width = layout.len();
            }
            None
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
            // Each input supplies its share of `need`, its join keys and
            // what the residual reads. The residual is evaluated on the
            // joined row before the emit step, so its columns are read from
            // the inputs but not emitted.
            let split = *width - *right_width;
            let read = widen(need.clone(), residual.iter());
            let left_need = read.as_ref().map(|read| {
                let own = read.range(..split).copied();
                own.chain(left_keys.iter().copied()).collect()
            });
            let right_need = read.as_ref().map(|read| {
                let own = read.range(split..).map(|o| o - split);
                own.chain(right_keys.iter().copied()).collect()
            });
            let left_layout = prune(left, left_need);
            let right_layout = prune(right, right_need);
            for key in left_keys.iter_mut() {
                *key = position(&left_layout, *key);
            }
            for key in right_keys.iter_mut() {
                *key = position(&right_layout, *key);
            }
            // The joined row is the two narrowed inputs side by side.
            let combined: Layout = match (&left_layout, &right_layout) {
                (None, None) => None,
                _ => {
                    let left = left_layout.unwrap_or_else(|| (0..split).collect());
                    let right = right_layout.unwrap_or_else(|| (0..*right_width).collect());
                    *right_width = right.len();
                    Some(
                        left.into_iter()
                            .chain(right.into_iter().map(|o| o + split))
                            .collect(),
                    )
                }
            };
            if let Some(residual) = residual {
                remap(residual, &combined);
            }
            if let Some(combined) = &combined {
                *width = combined.len();
            }
            // The join emits only the `need` ordinals of the joined row.
            let need = need?;
            if need.len() < *width {
                *cols = Some(need.iter().map(|&o| position(&combined, o)).collect());
            }
            Some(need.into_iter().collect())
        }
        PhysNode::IndexAgg { .. }
        | PhysNode::ScanCte { .. }
        | PhysNode::ScanDerived { .. }
        | PhysNode::ScanEmpty
        | PhysNode::SetOp { .. } => None,
    }
}

/// Where unpruned ordinal `o` sits in `layout`. An ordinal the layout
/// lacks maps one past its end, so the verifier reports the miscompile as
/// out of bounds rather than execution reading the wrong column.
fn position(layout: &Layout, o: usize) -> usize {
    match layout {
        None => o,
        Some(layout) => layout.binary_search(&o).unwrap_or(layout.len()),
    }
}

/// Rewrite the `Column` ordinals of `expr` onto its input's `layout`.
fn remap(expr: &mut PhysExpr, layout: &Layout) {
    if layout.is_some() {
        expr.remap_columns(&|o| position(layout, o));
    }
}

/// The input ordinals `exprs` read, or `None` (the whole input) when one
/// of them holds a correlated subplan.
fn reads<'e>(exprs: impl IntoIterator<Item = &'e PhysExpr>) -> Option<BTreeSet<usize>> {
    let mut cols = BTreeSet::new();
    for expr in exprs {
        if expr.holds_correlated_subplan() {
            return None;
        }
        expr.collect_columns(&mut cols);
    }
    Some(cols)
}

/// `need` plus the ordinals `exprs` read (`None` stays `None`).
fn widen<'e>(
    need: Option<BTreeSet<usize>>,
    exprs: impl IntoIterator<Item = &'e PhysExpr>,
) -> Option<BTreeSet<usize>> {
    let mut need = need?;
    need.extend(reads(exprs)?);
    Some(need)
}
