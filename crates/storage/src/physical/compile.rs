//! Lowering from logical plans to physical operator trees.
//!
//! Compilation resolves every column reference to an ordinal exactly once
//! (see [`super::expr`]), chooses hash vs nested-loop joins from the
//! logical plan's extracted equi-keys, plans + compiles expression
//! subqueries recursively, and computes each subquery's cacheability
//! (uncorrelated and free of reads from enclosing CTE scopes).

use crate::sync::Mutex;
use std::collections::{BTreeSet, HashMap};

use bp_sql::{column_ref, split_conjuncts, Expr, Query};

use crate::error::{StorageError, StorageResult};
use crate::plan::{
    and_join, benign, resolve_binding, sarg_column, sargable_atom, ColumnBinding, LogicalPlan,
    Planner, QueryPlan, SargAtom, Scan, ScanSource, SortKey,
};
use crate::scalar::{canonical_function_name, is_aggregate_name, literal_value, missing_arg_error};
use crate::snapshot::Snapshot;
use crate::table::Table;
use crate::value::Value;

use super::expr::{PhysExpr, SubPlan};
use super::verify::{type_family, value_family};
use super::{AccessPathStats, AggSpec, IndexAccess, PhysNode, PhysQueryPlan};

pub(crate) struct Compiler<'a> {
    db: &'a Snapshot,
    /// CTE name frames mirrored from the planner: name → output columns.
    /// Needed to plan subqueries discovered inside expressions.
    frames: Vec<HashMap<String, Vec<String>>>,
    /// Whether any outer (correlated) column reference was compiled since
    /// the current subplan boundary.
    contains_outer: bool,
    /// Minimum CTE definition depth referenced since the current subplan
    /// boundary (`usize::MAX` = none).
    min_cte_depth: usize,
    /// Whether to emit index-backed access paths (`false` forces full
    /// scans — the differential baseline).
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
        self.frames.push(HashMap::new());
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
                .insert(name.clone(), sub.columns.clone());
            ctes.push((name.clone(), phys));
        }
        let root = self.compile_node(&plan.root)?;
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
                    Ok(PhysNode::ScanCte { name: name.clone() })
                }
                ScanSource::Derived(sub) => Ok(PhysNode::ScanDerived {
                    plan: Box::new(self.compile_query_plan(sub)?),
                }),
                ScanSource::Empty => Ok(PhysNode::ScanEmpty),
            },
            LogicalPlan::Filter { input, predicate } => {
                let bindings = input.bindings().to_vec();
                if self.fast_paths {
                    if let LogicalPlan::Scan(Scan {
                        source: ScanSource::Table(name),
                        ..
                    }) = input.as_ref()
                    {
                        if let Some(node) = self.try_index_filter(name, predicate, &bindings)? {
                            return Ok(node);
                        }
                    }
                }
                let compiled_input = self.compile_node(input)?;
                let predicate = self.compile_expr(predicate, &bindings)?;
                Ok(PhysNode::Filter {
                    input: Box::new(compiled_input),
                    predicate,
                    bindings,
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
                let right_width = right.bindings().len();
                let compiled_left = self.compile_node(left)?;
                let compiled_right = self.compile_node(right)?;
                let bindings = bindings.clone();
                if equi_keys.is_empty() {
                    let on = residual
                        .as_ref()
                        .map(|e| self.compile_expr(e, &bindings))
                        .transpose()?;
                    Ok(PhysNode::NestedLoopJoin {
                        left: Box::new(compiled_left),
                        right: Box::new(compiled_right),
                        operator: *operator,
                        on,
                        bindings,
                        right_width,
                    })
                } else {
                    let residual = residual
                        .as_ref()
                        .map(|e| self.compile_expr(e, &bindings))
                        .transpose()?;
                    let (left_keys, right_keys) = equi_keys.iter().copied().unzip();
                    // Cost-based build-side selection: build the hash table
                    // on the smaller estimated input. Inner joins only (the
                    // outer-join padding logic is side-specific), and output
                    // is byte-identical either way — a wrong estimate can
                    // only change speed, never answers.
                    let build_left =
                        self.cost_based && matches!(operator, bp_sql::JoinOperator::Inner) && {
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
                        bindings,
                        right_width,
                        build_left,
                    })
                }
            }
            LogicalPlan::Project {
                input,
                items,
                names,
                distinct,
            } => {
                let bindings = input.bindings().to_vec();
                let mut compiled_input = self.compile_node(input)?;
                let items = items
                    .iter()
                    .map(|e| self.compile_expr(e, &bindings))
                    .collect::<StorageResult<Vec<_>>>()?;
                if self.fast_paths {
                    prune_scan_columns(&mut compiled_input, &items);
                }
                Ok(PhysNode::Project {
                    input: Box::new(compiled_input),
                    items,
                    visible: names.len(),
                    distinct: *distinct,
                    bindings,
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
                let bindings = input.bindings().to_vec();
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
                        if let Some(specs) = index_agg_specs(items, &bindings) {
                            // MIN/MAX read the *ordered* index, which NaN
                            // poisoning invalidates: decline the whole
                            // fast path and fall back to the hash
                            // aggregate (the exact semantics the runtime
                            // fallback would have reproduced anyway).
                            let ordered_ok = self.db.table(name).is_some_and(|table| {
                                specs.iter().all(|spec| match spec {
                                    AggSpec::Min(col) | AggSpec::Max(col) => {
                                        !table.secondary_index(*col).has_nan()
                                    }
                                    AggSpec::CountStar | AggSpec::Count { .. } => true,
                                })
                            });
                            if ordered_ok {
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
                    .map(|e| self.compile_expr(e, &bindings))
                    .collect::<StorageResult<Vec<_>>>()?;
                let having = having
                    .as_ref()
                    .map(|e| self.compile_expr(e, &bindings))
                    .transpose()?;
                let items = items
                    .iter()
                    .map(|e| self.compile_expr(e, &bindings))
                    .collect::<StorageResult<Vec<_>>>()?;
                Ok(PhysNode::HashAggregate {
                    input: Box::new(compiled_input),
                    group_by,
                    having,
                    items,
                    visible: names.len(),
                    distinct: *distinct,
                    bindings,
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
                    (PhysNode::Sort { input, keys }, Some(limit)) => {
                        if self.fast_paths {
                            match try_fuse_index_top_k(self.db, input, keys, limit, offset) {
                                Ok(node) => {
                                    // The scan under the fused Sort+Project was
                                    // already tallied as a full scan; reclassify.
                                    self.full_scans -= 1;
                                    self.index_scans += 1;
                                    return Ok(node);
                                }
                                Err((input, keys, limit, offset)) => {
                                    return Ok(PhysNode::TopK {
                                        input,
                                        keys,
                                        limit,
                                        offset,
                                    });
                                }
                            }
                        }
                        Ok(PhysNode::TopK {
                            input,
                            keys,
                            limit,
                            offset,
                        })
                    }
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
            LogicalPlan::Nested(sub) => {
                Ok(PhysNode::Nested(Box::new(self.compile_query_plan(sub)?)))
            }
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
        // predicate: with residual conjuncts per-row evaluation may skip the
        // subquery for every row (short-circuiting on an earlier false
        // conjunct), while the probe would run it eagerly — the two
        // would disagree on which error, if any, surfaces.
        if let [only] = conjuncts.as_slice() {
            if let Some(node) = self.try_in_subquery_probe(name, only, bindings)? {
                return Ok(Some(node));
            }
        }
        // Every conjunct must be benign (cannot raise on any row): the
        // index path never evaluates the chosen conjunct on non-matching
        // rows, so anything that could error must not be skipped.
        if !conjuncts.iter().all(|c| benign(c, bindings)) {
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
            for &i in &preference {
                if let Some(atom) = &atoms[i] {
                    let sel = crate::cost::table_atom_selectivity(table, atom);
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
        let access = match atoms[chosen].clone().expect("chosen atom exists") {
            SargAtom::Point { col, key } => IndexAccess::Point { col, key },
            SargAtom::Range { col, lower, upper } => IndexAccess::Range { col, lower, upper },
            SargAtom::InList { col, keys } => IndexAccess::InList { col, keys },
        };
        self.index_scans += 1;
        let scan = PhysNode::IndexScan {
            name: name.to_string(),
            access,
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
                    bindings: bindings.to_vec(),
                }))
            }
            None => Ok(Some(scan)),
        }
    }

    /// Recognise `col IN (uncorrelated subquery)` as a hash-index probe.
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
        let plan = match self.compile_subplan(subquery) {
            // Correlated or CTE-entangled subqueries cannot probe: their
            // result depends on the enclosing scope.
            Ok(plan) if plan.cacheable => plan,
            Ok(_) => return Ok(None),
            // Plan/compile failures stay lazy, exactly like the scalar
            // path: execution raises them only when the probe actually
            // runs (an all-NULL needle column never does).
            Err(e) => SubPlan::failing(e),
        };
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
                    return Ok(PhysExpr::Fail(StorageError::UnknownColumn(
                        "<empty>".into(),
                    )));
                };
                let qualifier = cr.qualifier.as_ref().map(|i| i.value.as_str());
                let name = cr.column.value.as_str();
                match resolve_binding(bindings, qualifier, name) {
                    Some(idx) => Ok(PhysExpr::Column(idx)),
                    None => {
                        self.contains_outer = true;
                        let display = match qualifier {
                            Some(q) => format!("{q}.{name}"),
                            None => name.to_string(),
                        };
                        Ok(PhysExpr::Outer {
                            qualifier: qualifier.map(|q| q.to_ascii_uppercase()),
                            name: name.to_ascii_uppercase(),
                            display,
                        })
                    }
                }
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
                // Function-level problems (unknown name, bad arity) only
                // surface when the interpreter *evaluates* the call, so they
                // compile to lazy `Fail` nodes, not compile errors.
                let Some(canonical) = canonical_function_name(&name.value) else {
                    return Ok(PhysExpr::Fail(StorageError::Unsupported(format!(
                        "function {} is not supported",
                        name.value.to_ascii_uppercase()
                    ))));
                };
                if is_aggregate_name(canonical) {
                    let count_star =
                        canonical == "COUNT" && matches!(args.first(), Some(Expr::Wildcard) | None);
                    let arg = if count_star {
                        None
                    } else {
                        let Some(arg0) = args.first() else {
                            return Ok(PhysExpr::Fail(missing_arg_error(canonical, 0)));
                        };
                        Some(Box::new(self.compile_expr(arg0, bindings)?))
                    };
                    Ok(PhysExpr::Aggregate {
                        name: canonical,
                        arg,
                        distinct: *distinct,
                    })
                } else {
                    let required = match canonical {
                        "UPPER" | "LOWER" | "LENGTH" | "LEN" | "ABS" | "ROUND" => 1,
                        "SUBSTR" | "SUBSTRING" => 2,
                        _ => 0,
                    };
                    if args.len() < required {
                        return Ok(PhysExpr::Fail(missing_arg_error(canonical, args.len())));
                    }
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
            Expr::Exists { subquery, negated } => match self.compile_subplan(subquery) {
                Ok(plan) => Ok(PhysExpr::Exists {
                    plan: Box::new(plan),
                    negated: *negated,
                }),
                Err(e) => Ok(PhysExpr::Fail(e)),
            },
            Expr::Subquery(subquery) => match self.compile_subplan(subquery) {
                Ok(plan) => Ok(PhysExpr::ScalarSubquery {
                    plan: Box::new(plan),
                }),
                Err(e) => Ok(PhysExpr::Fail(e)),
            },
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let needle = Box::new(self.compile_expr(expr, bindings)?);
                match self.compile_subplan(subquery) {
                    Ok(plan) => Ok(PhysExpr::InSubquery {
                        expr: needle,
                        plan: Box::new(plan),
                        negated: *negated,
                    }),
                    // The interpreter evaluates the needle before running
                    // the subquery, and returns NULL for a NULL needle
                    // without ever touching the subquery — preserve that.
                    Err(e) => Ok(PhysExpr::InSubquery {
                        expr: needle,
                        plan: Box::new(SubPlan::failing(e)),
                        negated: *negated,
                    }),
                }
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
            Expr::Wildcard => Ok(PhysExpr::Fail(StorageError::Unsupported(
                "bare '*' outside COUNT(*) cannot be evaluated".into(),
            ))),
        }
    }

    /// Plan and compile an expression subquery, deciding cacheability: a
    /// subplan may cache its result iff nothing it compiled (including
    /// nested subqueries, CTE bodies and derived tables) referenced an
    /// outer column or a CTE defined outside the subplan itself.
    fn compile_subplan(&mut self, query: &Query) -> StorageResult<SubPlan> {
        let entry_depth = self.frames.len();
        let logical = Planner::with_frames(self.db, self.frames.clone()).plan(query)?;

        let saved_outer = std::mem::replace(&mut self.contains_outer, false);
        let saved_depth = std::mem::replace(&mut self.min_cte_depth, usize::MAX);
        let result = self.compile_query_plan(&logical);
        let cacheable = !self.contains_outer && self.min_cte_depth >= entry_depth;
        self.contains_outer |= saved_outer;
        self.min_cte_depth = self.min_cte_depth.min(saved_depth);

        Ok(SubPlan {
            plan: Ok(result?),
            cacheable,
            cache: Mutex::new(None),
        })
    }
}

/// Whether an index can answer this sargable atom exactly. Every probe
/// key must share the declared column's `total_cmp` family: a
/// family-confused probe (`int_col = 'abc'`, `col = NULL`) compares
/// values the index orders into disjoint runs, so the compiler falls back
/// to the scan + filter plan, whose per-row evaluation is the exact
/// semantics. **Ordered** access (range scans) is additionally declined
/// when the column is NaN-poisoned. `verify.rs` enforces the same
/// preconditions as hard invariants on every compiled plan.
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
            match canonical_function_name(&name.value)? {
                "COUNT" => {
                    if matches!(args.first(), Some(Expr::Wildcard) | None) {
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

/// Try to fuse `Sort(Project(ScanTable), [single ascending column key])`
/// plus a LIMIT into an ordered-index prefix read. On failure the parts
/// are handed back so the caller can build the ordinary Top-K. A
/// NaN-poisoned key column declines the fusion outright: the prefix read
/// trusts the *ordered* index, which NaN invalidates (the heap-based
/// Top-K it falls back to is the exact semantics).
#[allow(clippy::type_complexity, clippy::result_large_err)]
fn try_fuse_index_top_k(
    db: &Snapshot,
    input: Box<PhysNode>,
    keys: Vec<SortKey>,
    limit: PhysExpr,
    offset: Option<PhysExpr>,
) -> Result<PhysNode, (Box<PhysNode>, Vec<SortKey>, PhysExpr, Option<PhysExpr>)> {
    let key_ordinal = match keys.as_slice() {
        [SortKey {
            ordinal: Some(k),
            asc: true,
        }] => *k,
        _ => return Err((input, keys, limit, offset)),
    };
    let fusable = match input.as_ref() {
        PhysNode::Project {
            input: inner,
            items,
            distinct: false,
            ..
        } => {
            matches!(inner.as_ref(), PhysNode::ScanTable { .. })
                && key_ordinal < items.len()
                && items.iter().all(|i| matches!(i, PhysExpr::Column(_)))
                && match (inner.as_ref(), &items[key_ordinal]) {
                    (PhysNode::ScanTable { name, .. }, PhysExpr::Column(col)) => db
                        .table(name)
                        .is_some_and(|t| !t.secondary_index(*col).has_nan()),
                    _ => false,
                }
        }
        _ => false,
    };
    if !fusable {
        return Err((input, keys, limit, offset));
    }
    let PhysNode::Project {
        input: inner,
        items,
        ..
    } = *input
    else {
        unreachable!("fusable checked the shape above")
    };
    let PhysNode::ScanTable { name, .. } = *inner else {
        unreachable!("fusable checked the shape above")
    };
    let output = items
        .iter()
        .map(|i| match i {
            PhysExpr::Column(c) => *c,
            _ => unreachable!("fusable checked the shape above"),
        })
        .collect();
    Ok(PhysNode::IndexTopK {
        name,
        key_ordinal,
        output,
        limit,
        offset,
    })
}

/// Narrow a scan directly under a projection (optionally through one
/// filter) so the columnar engine decodes only the columns the projection
/// and filter actually touch. Applies only when every consumer expression
/// is vectorizable: the batch fallback path materialises whole rows and
/// would read the pruned placeholder slots.
fn prune_scan_columns(node: &mut PhysNode, items: &[PhysExpr]) {
    if !items.iter().all(PhysExpr::vectorizable) {
        return;
    }
    let mut needed = BTreeSet::new();
    for item in items {
        item.collect_columns(&mut needed);
    }
    let slot = match node {
        PhysNode::ScanTable { cols, .. } => cols,
        PhysNode::IndexScan { cols, .. } => cols,
        PhysNode::Filter {
            input, predicate, ..
        } => {
            if !predicate.vectorizable() {
                return;
            }
            predicate.collect_columns(&mut needed);
            match input.as_mut() {
                PhysNode::ScanTable { cols, .. } => cols,
                PhysNode::IndexScan { cols, .. } => cols,
                _ => return,
            }
        }
        _ => return,
    };
    *slot = Some(needed.into_iter().collect());
}
