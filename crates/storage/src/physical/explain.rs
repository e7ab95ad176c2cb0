//! `EXPLAIN`-style rendering of compiled physical plans.
//!
//! [`PhysQueryPlan::explain`] prints the operator tree with the choices the
//! optimizer actually made — access paths (index point/range/IN probes vs
//! full scans), join order after any cost-based re-association, hash-join
//! build sides, and what column pruning left: the columns each scan decodes
//! (`cols=[…]`) and the width each join and aggregate emits (`width=`) —
//! annotated with the cost model's per-node estimated row counts. The plans
//! of `EXISTS`, `IN` and scalar subqueries, and an index probe's `IN`
//! subquery, render nested under the operator that holds them. The
//! estimates are re-derived here from the same table statistics the
//! optimizer read, so the rendering shows *why* a choice was made, not just
//! which one. A CTE scan compiles to an ordinal; its name is read back
//! from the CTE lists of the plans the renderer walks through.
//!
//! The renderer is the debugging surface for the optimizer test suites:
//! differential and benchmark assertions include `explain()` output in their
//! failure messages so a byte-identity break immediately shows the plan
//! shape that produced it. Estimates are advisory (`est=` lines); callers
//! that executed the plan can thread the observed row count through
//! [`PhysQueryPlan::explain_with_actual`] to print estimated-vs-actual drift
//! in the header.

use std::fmt::Write as _;

use crate::cost;
use crate::plan::SargAtom;
use crate::snapshot::Snapshot;

use super::expr::{PhysExpr, SubPlan};
use super::{IndexAccess, PhysNode, PhysQueryPlan};

impl PhysQueryPlan {
    /// Render the plan as an indented operator tree with access paths, join
    /// order, build sides and estimated row counts.
    pub fn explain(&self, db: &Snapshot) -> String {
        self.explain_with_actual(db, None)
    }

    /// Like [`Self::explain`], with the observed output row count (from an
    /// execution of this plan) printed next to the estimate in the header.
    pub fn explain_with_actual(&self, db: &Snapshot, actual_rows: Option<u64>) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "plan est_rows={} cost_based={} syntactic_fallback={}",
            self.est_rows.map_or_else(|| "?".into(), |n| n.to_string()),
            self.optimizer.cost_based,
            self.optimizer.syntactic_fallback,
        );
        if let Some(actual) = actual_rows {
            let _ = write!(out, " actual_rows={actual}");
        }
        out.push('\n');
        let mut out = Out {
            text: out,
            frames: Vec::new(),
        };
        render_plan(self, db, 0, &mut out);
        out.text
    }
}

/// The rendering so far, and the CTE lists of the plans enclosing the node
/// being rendered, innermost last: what a [`PhysNode::ScanCte`] ordinal
/// names.
struct Out<'p> {
    text: String,
    frames: Vec<&'p [(String, PhysQueryPlan)]>,
}

fn render_plan<'p>(plan: &'p PhysQueryPlan, db: &Snapshot, depth: usize, out: &mut Out<'p>) {
    out.frames.push(&plan.ctes);
    for (name, cte) in &plan.ctes {
        line(out, depth, &format!("cte {name}"));
        render_plan(cte, db, depth + 1, out);
    }
    render_node(&plan.root, db, depth, out);
    out.frames.pop();
}

fn render_node<'p>(node: &'p PhysNode, db: &Snapshot, depth: usize, out: &mut Out<'p>) {
    let est = match node_est(node, db) {
        Some(rows) => format!(" est={}", rows.round().max(0.0)),
        None => String::new(),
    };
    match node {
        PhysNode::ScanTable { name, cols } => {
            line(out, depth, &format!("ScanTable {name}{}{est}", mask(cols)));
        }
        PhysNode::IndexScan { name, access, cols } => {
            line(
                out,
                depth,
                &format!(
                    "IndexScan {name} {}{}{est}",
                    render_access(access),
                    mask(cols)
                ),
            );
            if let IndexAccess::InSubquery { plan, .. } = access {
                render_subplan("InSubquery", plan, db, depth + 1, out);
            }
        }
        PhysNode::IndexAgg { name, specs } => {
            line(
                out,
                depth,
                &format!("IndexAgg {name} specs={}", specs.len()),
            );
        }
        PhysNode::ScanCte { depth: up, idx } => {
            let frame = out.frames.iter().rev().nth(*up);
            let name = frame.and_then(|ctes| ctes.get(*idx));
            let name = name.map_or("?", |(name, _)| name.as_str());
            line(out, depth, &format!("ScanCte {name}"));
        }
        PhysNode::ScanDerived { plan } => {
            line(out, depth, "ScanDerived");
            render_plan(plan, db, depth + 1, out);
        }
        PhysNode::ScanEmpty => line(out, depth, "ScanEmpty"),
        PhysNode::Filter { input, predicate } => {
            line(out, depth, &format!("Filter{est}"));
            render_subplans([predicate], db, depth + 1, out);
            render_node(input, db, depth + 1, out);
        }
        PhysNode::HashJoin {
            left,
            right,
            operator,
            left_keys,
            right_keys,
            residual,
            build_left,
            width,
            cols,
            ..
        } => {
            let keys: Vec<String> = left_keys
                .iter()
                .zip(right_keys)
                .map(|(l, r)| format!("{l}={r}"))
                .collect();
            line(
                out,
                depth,
                &format!(
                    "HashJoin {} build={} keys=[{}] width={}{est}",
                    operator.as_sql(),
                    if *build_left { "left" } else { "right" },
                    keys.join(","),
                    emitted_width(cols, *width),
                ),
            );
            render_subplans(residual, db, depth + 1, out);
            render_node(left, db, depth + 1, out);
            render_node(right, db, depth + 1, out);
        }
        PhysNode::Project {
            input,
            items,
            visible,
            distinct,
            ..
        } => {
            line(
                out,
                depth,
                &format!(
                    "Project items={} visible={visible}{}",
                    items.len(),
                    if *distinct { " distinct" } else { "" }
                ),
            );
            render_subplans(items, db, depth + 1, out);
            render_node(input, db, depth + 1, out);
        }
        PhysNode::HashAggregate {
            input,
            group_by,
            having,
            items,
            input_width,
            ..
        } => {
            line(
                out,
                depth,
                &format!(
                    "HashAggregate group_by={} input_width={input_width} width={}{est}",
                    group_by.len(),
                    items.len()
                ),
            );
            render_subplans(
                group_by.iter().chain(having).chain(items),
                db,
                depth + 1,
                out,
            );
            render_node(input, db, depth + 1, out);
        }
        PhysNode::Sort { input, keys } => {
            line(out, depth, &format!("Sort keys={}", keys.len()));
            render_node(input, db, depth + 1, out);
        }
        PhysNode::TopK {
            input,
            keys,
            limit,
            offset,
        } => {
            line(out, depth, &format!("TopK keys={}", keys.len()));
            render_subplans(std::iter::once(limit).chain(offset), db, depth + 1, out);
            render_node(input, db, depth + 1, out);
        }
        PhysNode::Limit {
            input,
            limit,
            offset,
        } => {
            line(out, depth, "Limit");
            render_subplans(limit.iter().chain(offset), db, depth + 1, out);
            render_node(input, db, depth + 1, out);
        }
        PhysNode::SetOp {
            op,
            all,
            left,
            right,
        } => {
            line(
                out,
                depth,
                &format!("SetOp {}{}", op.as_str(), if *all { " ALL" } else { "" }),
            );
            render_plan(left, db, depth + 1, out);
            render_plan(right, db, depth + 1, out);
        }
    }
}

/// Render the subquery plans inside an operator's expressions, in source
/// order, each under a line naming its kind (and `correlated` when it
/// reads an enclosing row).
fn render_subplans<'p>(
    exprs: impl IntoIterator<Item = &'p PhysExpr>,
    db: &Snapshot,
    depth: usize,
    out: &mut Out<'p>,
) {
    fn walk<'p>(expr: &'p PhysExpr, db: &Snapshot, depth: usize, out: &mut Out<'p>) {
        match expr {
            PhysExpr::Exists { plan, .. } => render_subplan("Exists", plan, db, depth, out),
            PhysExpr::ScalarSubquery { plan } => {
                render_subplan("ScalarSubquery", plan, db, depth, out)
            }
            PhysExpr::InSubquery { plan, .. } => render_subplan("InSubquery", plan, db, depth, out),
            _ => {}
        }
        expr.for_each_child(|child| walk(child, db, depth, out));
    }
    for expr in exprs {
        walk(expr, db, depth, out);
    }
}

fn render_subplan<'p>(
    kind: &str,
    sub: &'p SubPlan,
    db: &Snapshot,
    depth: usize,
    out: &mut Out<'p>,
) {
    let correlated = if sub.correlated { " correlated" } else { "" };
    line(out, depth, &format!("{kind}{correlated}"));
    render_plan(&sub.plan, db, depth + 1, out);
}

fn line(out: &mut Out<'_>, depth: usize, text: &str) {
    for _ in 0..depth {
        out.text.push_str("  ");
    }
    out.text.push_str(text);
    out.text.push('\n');
}

/// The number of columns a join emits: its pruning mask's, or its whole
/// joined row's.
fn emitted_width(cols: &Option<Vec<usize>>, width: usize) -> String {
    cols.as_ref().map_or(width, Vec::len).to_string()
}

fn mask(cols: &Option<Vec<usize>>) -> String {
    match cols {
        Some(cols) => format!(
            " cols=[{}]",
            cols.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
        None => String::new(),
    }
}

fn render_access(access: &IndexAccess) -> String {
    match access {
        IndexAccess::Atom(SargAtom::Point { col, .. }) => format!("Point(col {col})"),
        IndexAccess::Atom(SargAtom::Range { col, lower, upper }) => format!(
            "Range(col {col}, {}..{})",
            if lower.is_some() { "lo" } else { "" },
            if upper.is_some() { "hi" } else { "" }
        ),
        IndexAccess::Atom(SargAtom::InList { col, keys }) => {
            format!("InList(col {col}, {} keys)", keys.len())
        }
        IndexAccess::InSubquery { col, .. } => format!("InSubquery(col {col})"),
    }
}

/// Per-node estimated output rows, re-derived from table statistics with
/// the cost model's selectivities. Conservative: `None` wherever a node's
/// cardinality depends on data the statistics don't describe (CTE bodies
/// are estimated at their definition site, computed columns, subqueries).
fn node_est(node: &PhysNode, db: &Snapshot) -> Option<f64> {
    match node {
        PhysNode::ScanTable { name, .. } => Some(db.table(name)?.row_count() as f64),
        PhysNode::IndexScan { name, access, .. } => {
            let IndexAccess::Atom(atom) = access else {
                return None;
            };
            let table = db.table(name)?;
            let stats = table.stats();
            let column = stats.column(atom.col()).map(|cs| (cs, stats.row_count));
            Some(table.row_count() as f64 * cost::atom_selectivity(column, atom))
        }
        PhysNode::IndexAgg { .. } => Some(1.0),
        PhysNode::Filter { input, .. } => {
            Some(node_est(input, db)? * cost::DEFAULT_PREDICATE_SELECTIVITY)
        }
        PhysNode::HashJoin {
            left,
            right,
            left_keys,
            ..
        } => {
            // Unique-key heuristic: |L ⋈ R| ≈ max(|L|, |R|) when the key is
            // unique on the smaller side — the common equi-join shape.
            // Without keys every pair is a candidate.
            let l = node_est(left, db)?;
            let r = node_est(right, db)?;
            Some(if left_keys.is_empty() {
                l * r
            } else {
                l.max(r)
            })
        }
        // As `cost::Estimator::rows`: one row without GROUP BY, else 10:1.
        PhysNode::HashAggregate { group_by, .. } if group_by.is_empty() => Some(1.0),
        PhysNode::HashAggregate { input, .. } => Some((node_est(input, db)? / 10.0).max(1.0)),
        PhysNode::Project { input, .. }
        | PhysNode::Sort { input, .. }
        | PhysNode::TopK { input, .. }
        | PhysNode::Limit { input, .. } => node_est(input, db),
        PhysNode::ScanDerived { plan } => node_est(&plan.root, db),
        PhysNode::SetOp { left, right, .. } => {
            Some(node_est(&left.root, db)? + node_est(&right.root, db)?)
        }
        PhysNode::ScanCte { .. } | PhysNode::ScanEmpty => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::database::Database;
    use crate::physical::{compile_query, CompileOptions};
    use crate::schema::{Column, TableSchema};
    use crate::value::Value;
    use bp_sql::{parse_query, DataType};

    #[test]
    fn explain_shows_access_paths_join_order_and_build_sides() {
        let mut db = Database::new("explain");
        for (name, n) in [("small", 8i64), ("large", 256i64)] {
            db.create_table(TableSchema::new(
                name,
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("k", DataType::Integer),
                ],
            ))
            .unwrap();
            db.insert_into(name, (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 8)]))
                .unwrap();
        }
        let snapshot = db.snapshot();
        let query = parse_query(
            "SELECT small.id, large.id FROM small JOIN large ON small.k = large.k \
             WHERE large.id = 3",
        )
        .unwrap();
        let plan = compile_query(&snapshot, &query, CompileOptions::default()).unwrap();
        let rendered = plan.explain(&snapshot);
        assert!(
            rendered.starts_with("plan est_rows="),
            "header line:\n{rendered}"
        );
        assert!(
            rendered.contains("HashJoin JOIN build="),
            "join line with a build side:\n{rendered}"
        );
        assert!(rendered.contains("est="), "per-node estimates:\n{rendered}");
        let with_actual = plan.explain_with_actual(&snapshot, Some(41));
        assert!(
            with_actual.contains("actual_rows=41"),
            "actual row count in header:\n{with_actual}"
        );
    }

    #[test]
    fn keyless_join_builds_right_even_when_left_is_smaller() {
        let mut db = Database::new("explain-keyless");
        for (name, n) in [("small", 8i64), ("large", 256i64)] {
            db.create_table(TableSchema::new(
                name,
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("k", DataType::Integer),
                ],
            ))
            .unwrap();
            db.insert_into(name, (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 8)]))
                .unwrap();
        }
        let snapshot = db.snapshot();
        let explain = |on: &str| {
            let sql = format!("SELECT small.id, large.id FROM small JOIN large ON {on}");
            let query = parse_query(&sql).unwrap();
            let plan = compile_query(&snapshot, &query, CompileOptions::default()).unwrap();
            plan.explain(&snapshot)
        };
        // With keys the cost model builds on the smaller (left) input;
        // without keys a left build would list every right row per left
        // row, so the join builds right.
        let keyed = explain("small.k = large.k");
        assert!(keyed.contains("build=left keys=[1=1]"), "{keyed}");
        let keyless = explain("small.k < large.k");
        assert!(keyless.contains("build=right keys=[]"), "{keyless}");
        // Every pair is a candidate: 8 × 256.
        assert!(keyless.contains("est=2048"), "{keyless}");
    }

    #[test]
    fn explain_renders_subquery_plans_under_their_operator() {
        let mut db = Database::new("explain-subplans");
        for name in ["outer_t", "inner_t"] {
            db.create_table(TableSchema::new(
                name,
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("k", DataType::Integer),
                ],
            ))
            .unwrap();
            db.insert_into(
                name,
                (0..16).map(|i| vec![Value::Int(i), Value::Int(i % 4)]),
            )
            .unwrap();
        }
        let snapshot = db.snapshot();
        for (sql, kind) in [
            (
                "SELECT id FROM outer_t o WHERE EXISTS \
                 (SELECT 1 FROM inner_t i WHERE i.k = o.k)",
                "Exists correlated",
            ),
            (
                "SELECT id, (SELECT MAX(k) FROM inner_t) FROM outer_t",
                "ScalarSubquery",
            ),
            (
                "SELECT id FROM outer_t WHERE k + 0 IN (SELECT k FROM inner_t)",
                "InSubquery",
            ),
            (
                "SELECT id FROM outer_t WHERE id IN (SELECT k FROM inner_t)",
                "InSubquery",
            ),
        ] {
            let query = parse_query(sql).unwrap();
            let plan = compile_query(&snapshot, &query, CompileOptions::default()).unwrap();
            let rendered = plan.explain(&snapshot);
            let lines: Vec<&str> = rendered.lines().collect();
            let at = lines.iter().position(|l| l.trim_start().starts_with(kind));
            let at = at.unwrap_or_else(|| panic!("{sql}: no {kind} line:\n{rendered}"));
            let indent = |l: &str| l.len() - l.trim_start().len();
            // The subquery's own scan renders one level under its line.
            let scan = lines[at + 1..]
                .iter()
                .find(|l| l.contains("INNER_T"))
                .unwrap_or_else(|| panic!("{sql}: no INNER_T scan:\n{rendered}"));
            assert!(indent(scan) > indent(lines[at]), "{sql}:\n{rendered}");
        }
    }

    #[test]
    fn aggregate_root_estimate_matches_the_header() {
        let mut db = Database::new("explain-agg");
        db.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("v", DataType::Integer),
            ],
        ))
        .unwrap();
        db.insert_into(
            "t",
            (0..4096).map(|i| vec![Value::Int(i), Value::Int(i % 64)]),
        )
        .unwrap();
        let snapshot = db.snapshot();
        // No GROUP BY (one row), and GROUP BY over 4,096 and 1,024 input
        // rows (409.6 and 102.4: the estimate rounds, like the header).
        for sql in [
            "SELECT COUNT(*) FROM t WHERE v + 1 > 3",
            "SELECT v, COUNT(*) FROM t GROUP BY v",
            "SELECT v, COUNT(*) FROM t WHERE v + 1 > 3 GROUP BY v",
        ] {
            let query = parse_query(sql).unwrap();
            let plan = compile_query(&snapshot, &query, CompileOptions::default()).unwrap();
            let rendered = plan.explain(&snapshot);
            let mut lines = rendered.lines();
            let header = lines.next().unwrap();
            let root = lines.next().unwrap();
            assert!(root.starts_with("HashAggregate"), "{sql}:\n{rendered}");
            let field = |line: &str, key: &str| {
                let value = line.split(key).nth(1).unwrap_or_default();
                value.split(' ').next().unwrap_or_default().to_string()
            };
            assert_eq!(
                field(header, "est_rows="),
                field(root, " est="),
                "{sql}:\n{rendered}"
            );
        }
    }
}
