//! `EXPLAIN`-style rendering of compiled physical plans.
//!
//! [`PhysQueryPlan::explain`] prints the operator tree with the choices the
//! optimizer actually made — access paths (index point/range/IN probes vs
//! full scans), join order after any cost-based re-association, and hash-join
//! build sides — annotated with the cost model's per-node estimated row
//! counts. The estimates are re-derived here from the same table statistics
//! the optimizer read, so the rendering shows *why* a choice was made, not
//! just which one.
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
        render_plan(self, db, 0, &mut out);
        out
    }
}

fn render_plan(plan: &PhysQueryPlan, db: &Snapshot, depth: usize, out: &mut String) {
    for (name, cte) in &plan.ctes {
        line(out, depth, &format!("cte {name}"));
        render_plan(cte, db, depth + 1, out);
    }
    render_node(&plan.root, db, depth, out);
}

fn render_node(node: &PhysNode, db: &Snapshot, depth: usize, out: &mut String) {
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
        }
        PhysNode::IndexAgg { name, specs } => {
            line(
                out,
                depth,
                &format!("IndexAgg {name} specs={}", specs.len()),
            );
        }
        PhysNode::IndexTopK {
            name, key_ordinal, ..
        } => {
            line(out, depth, &format!("IndexTopK {name} key={key_ordinal}"));
        }
        PhysNode::ScanCte { name } => line(out, depth, &format!("ScanCte {name}")),
        PhysNode::ScanDerived { plan } => {
            line(out, depth, "ScanDerived");
            render_plan(plan, db, depth + 1, out);
        }
        PhysNode::ScanEmpty => line(out, depth, "ScanEmpty"),
        PhysNode::Filter { input, .. } => {
            line(out, depth, &format!("Filter{est}"));
            render_node(input, db, depth + 1, out);
        }
        PhysNode::NestedLoopJoin {
            left,
            right,
            operator,
            ..
        } => {
            line(
                out,
                depth,
                &format!("NestedLoopJoin {}{est}", operator.as_sql()),
            );
            render_node(left, db, depth + 1, out);
            render_node(right, db, depth + 1, out);
        }
        PhysNode::HashJoin {
            left,
            right,
            operator,
            left_keys,
            right_keys,
            build_left,
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
                    "HashJoin {} build={} keys=[{}]{est}",
                    operator.as_sql(),
                    if *build_left { "left" } else { "right" },
                    keys.join(","),
                ),
            );
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
            render_node(input, db, depth + 1, out);
        }
        PhysNode::HashAggregate {
            input, group_by, ..
        } => {
            line(
                out,
                depth,
                &format!("HashAggregate group_by={}{est}", group_by.len()),
            );
            render_node(input, db, depth + 1, out);
        }
        PhysNode::Sort { input, keys } => {
            line(out, depth, &format!("Sort keys={}", keys.len()));
            render_node(input, db, depth + 1, out);
        }
        PhysNode::TopK { input, keys, .. } => {
            line(out, depth, &format!("TopK keys={}", keys.len()));
            render_node(input, db, depth + 1, out);
        }
        PhysNode::Limit { input, .. } => {
            line(out, depth, "Limit");
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
        PhysNode::Nested(plan) => {
            line(out, depth, "Nested");
            render_plan(plan, db, depth + 1, out);
        }
    }
}

fn line(out: &mut String, depth: usize, text: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(text);
    out.push('\n');
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
        IndexAccess::Point { col, .. } => format!("Point(col {col})"),
        IndexAccess::Range { col, lower, upper } => format!(
            "Range(col {col}, {}..{})",
            if lower.is_some() { "lo" } else { "" },
            if upper.is_some() { "hi" } else { "" }
        ),
        IndexAccess::InList { col, keys } => format!("InList(col {col}, {} keys)", keys.len()),
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
            let table = db.table(name)?;
            let rows = table.row_count() as f64;
            let atom = match access {
                IndexAccess::Point { col, key } => SargAtom::Point {
                    col: *col,
                    key: key.clone(),
                },
                IndexAccess::Range { col, lower, upper } => SargAtom::Range {
                    col: *col,
                    lower: lower.clone(),
                    upper: upper.clone(),
                },
                IndexAccess::InList { col, keys } => SargAtom::InList {
                    col: *col,
                    keys: keys.clone(),
                },
                IndexAccess::InSubquery { .. } => return None,
            };
            Some(rows * cost::table_atom_selectivity(table, &atom))
        }
        PhysNode::IndexAgg { .. } => Some(1.0),
        PhysNode::Filter { input, .. } => {
            Some(node_est(input, db)? * cost::DEFAULT_PREDICATE_SELECTIVITY)
        }
        PhysNode::HashJoin { left, right, .. } => {
            // Unique-key heuristic: |L ⋈ R| ≈ max(|L|, |R|) when the key is
            // unique on the smaller side — the common equi-join shape.
            let l = node_est(left, db)?;
            let r = node_est(right, db)?;
            Some(l.max(r))
        }
        PhysNode::NestedLoopJoin { left, right, .. } => {
            Some(node_est(left, db)? * node_est(right, db)?)
        }
        PhysNode::HashAggregate { input, .. } => {
            Some((node_est(input, db)? / 10.0).max(1.0).floor())
        }
        PhysNode::Project { input, .. }
        | PhysNode::Sort { input, .. }
        | PhysNode::TopK { input, .. }
        | PhysNode::Limit { input, .. } => node_est(input, db),
        PhysNode::ScanDerived { plan } | PhysNode::Nested(plan) => node_est(&plan.root, db),
        PhysNode::SetOp { left, right, .. } => {
            Some(node_est(&left.root, db)? + node_est(&right.root, db)?)
        }
        PhysNode::IndexTopK { .. } | PhysNode::ScanCte { .. } | PhysNode::ScanEmpty => None,
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
}
