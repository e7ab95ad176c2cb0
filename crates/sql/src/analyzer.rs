//! Structural analysis of SQL queries.
//!
//! [`analyze`] walks a query's AST once and records structural facts: the
//! tables and columns it references, aggregate calls, nesting depth, joins,
//! predicates, grouping, ordering and set operations. The simulated LLM,
//! the annotator model, decomposition and the plan cache's per-table
//! invalidation read these facts, and Table 1 of the paper reports four of
//! them as workload means (#Tables, #Columns, #Agg, #Nestings). It never
//! renders or lexes the query, so its result does not depend on how the
//! query text was formatted.
//!
//! Table 1's two lexical columns (#Keywords, #Tokens) come from
//! [`canonical_token_counts`], which tokenizes the query's canonical
//! rendering. Only Table 1 reads them.

use crate::ast::*;
use crate::lexer::tokenize;
use crate::token::Token;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Structural summary of a single SQL query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct QueryAnalysis {
    /// Distinct table names referenced anywhere in the query, normalized.
    /// A reference to a CTE is recorded under the CTE's name like any other
    /// table (the analyzer does not resolve WITH scopes), so this is a
    /// superset of the base tables read. A prepared query's per-table
    /// invalidation relies on it: a CTE name that shadows a base table
    /// still counts as reading that table.
    pub tables: BTreeSet<String>,
    /// Distinct column names referenced anywhere in the query.
    pub columns: BTreeSet<String>,
    /// Number of aggregate function calls (COUNT/SUM/AVG/MIN/MAX).
    pub aggregate_count: usize,
    /// Maximum query nesting depth: 0 for a flat query, +1 for each level of
    /// subquery/derived table/CTE nesting.
    pub nesting_depth: usize,
    /// Total number of subqueries (scalar, IN, EXISTS, derived tables, CTEs).
    pub subquery_count: usize,
    /// Number of explicit JOIN clauses.
    pub join_count: usize,
    /// Number of comparison/membership/null/like predicates.
    pub predicate_count: usize,
    /// Whether any SELECT in the query has a GROUP BY.
    pub has_group_by: bool,
    /// Whether the outermost query has an ORDER BY.
    pub has_order_by: bool,
    /// Whether the outermost query has a LIMIT.
    pub has_limit: bool,
    /// Whether any SELECT uses DISTINCT.
    pub has_distinct: bool,
    /// Number of set operations (UNION/INTERSECT/EXCEPT).
    pub set_operation_count: usize,
    /// Number of CTEs declared in WITH clauses.
    pub cte_count: usize,
    /// Names of aggregate functions used, in encounter order (with repeats).
    pub aggregate_functions: Vec<String>,
    /// String literals appearing in predicates (domain terms often live here).
    pub literal_terms: Vec<String>,
}

impl QueryAnalysis {
    /// Number of distinct tables referenced.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of distinct columns referenced.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Whether the query contains any nesting at all (subqueries or CTEs).
    pub fn is_nested(&self) -> bool {
        self.nesting_depth > 0
    }

    /// A scalar "difficulty" proxy combining the Table 1 dimensions. Used by
    /// the annotator behaviour model and the simulated LLM to scale error
    /// probability with compositional depth.
    pub fn difficulty_score(&self) -> f64 {
        let tables = self.table_count() as f64;
        let columns = self.column_count() as f64;
        let aggregates = self.aggregate_count as f64;
        let nesting = self.nesting_depth as f64;
        let joins = self.join_count as f64;
        let predicates = self.predicate_count as f64;
        // Weighted sum; weights chosen so public-benchmark-style queries land
        // around 1-4 and enterprise (Beaver-like) queries around 8-20.
        0.8 * tables
            + 0.25 * columns
            + 0.9 * aggregates
            + 2.0 * nesting
            + 0.6 * joins
            + 0.3 * predicates
    }
}

/// Analyze a parsed query's structure with one walk over its AST.
pub fn analyze(query: &Query) -> QueryAnalysis {
    let mut analysis = QueryAnalysis::default();
    walk_query(query, 0, &mut analysis);
    analysis.has_order_by = !query.order_by.is_empty();
    analysis.has_limit = query.limit.is_some();
    analysis
}

/// Table 1's lexical counts, `(tokens, keywords)`: the number of tokens in
/// the query's canonical rendering, and how many of them are structural
/// keywords ([`crate::Keyword::is_structural`]). Both are 0 if the
/// rendering does not tokenize.
pub fn canonical_token_counts(query: &Query) -> (usize, usize) {
    match tokenize(&query.to_string()) {
        Ok(tokens) => {
            let keywords = tokens
                .iter()
                .filter(|t| matches!(t, Token::Keyword(k) if k.is_structural()))
                .count();
            (tokens.len(), keywords)
        }
        Err(_) => (0, 0),
    }
}

fn walk_query(query: &Query, depth: usize, a: &mut QueryAnalysis) {
    a.nesting_depth = a.nesting_depth.max(depth);
    if let Some(with) = &query.with {
        a.cte_count += with.ctes.len();
        for cte in &with.ctes {
            a.subquery_count += 1;
            walk_query(&cte.query, depth + 1, a);
        }
    }
    walk_set_expr(&query.body, depth, a);
    for item in &query.order_by {
        walk_expr(&item.expr, depth, a);
    }
    if let Some(limit) = &query.limit {
        walk_expr(limit, depth, a);
    }
    if let Some(offset) = &query.offset {
        walk_expr(offset, depth, a);
    }
}

fn walk_set_expr(body: &SetExpr, depth: usize, a: &mut QueryAnalysis) {
    match body {
        SetExpr::Select(select) => walk_select(select, depth, a),
        SetExpr::Query(query) => walk_query(query, depth, a),
        SetExpr::SetOperation { left, right, .. } => {
            a.set_operation_count += 1;
            walk_set_expr(left, depth, a);
            walk_set_expr(right, depth, a);
        }
    }
}

fn walk_select(select: &Select, depth: usize, a: &mut QueryAnalysis) {
    if select.distinct {
        a.has_distinct = true;
    }
    if !select.group_by.is_empty() {
        a.has_group_by = true;
    }
    for item in &select.projection {
        match item {
            SelectItem::Expr { expr, .. } => walk_expr(expr, depth, a),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {}
        }
    }
    for twj in &select.from {
        walk_table_factor(&twj.relation, depth, a);
        for join in &twj.joins {
            a.join_count += 1;
            walk_table_factor(&join.relation, depth, a);
            if let JoinConstraint::On(expr) = &join.constraint {
                walk_expr(expr, depth, a);
            }
        }
    }
    if let Some(selection) = &select.selection {
        walk_expr(selection, depth, a);
    }
    for expr in &select.group_by {
        walk_expr(expr, depth, a);
    }
    if let Some(having) = &select.having {
        walk_expr(having, depth, a);
    }
}

fn walk_table_factor(factor: &TableFactor, depth: usize, a: &mut QueryAnalysis) {
    match factor {
        TableFactor::Table { name, .. } => {
            a.tables.insert(name.base().normalized());
        }
        TableFactor::Derived { subquery, .. } => {
            a.subquery_count += 1;
            walk_query(subquery, depth + 1, a);
        }
    }
}

fn record_column(a: &mut QueryAnalysis, name: &Ident) {
    a.columns.insert(name.normalized());
}

fn walk_expr(expr: &Expr, depth: usize, a: &mut QueryAnalysis) {
    match expr {
        Expr::Identifier(ident) => record_column(a, ident),
        Expr::CompoundIdentifier(parts) => {
            if let Some(last) = parts.last() {
                record_column(a, last);
            }
        }
        Expr::Literal(Literal::String(s)) => a.literal_terms.push(s.clone()),
        Expr::BinaryOp { op, .. } if op.is_comparison() => a.predicate_count += 1,
        Expr::Function { name, .. } if expr.is_aggregate_call() => {
            a.aggregate_count += 1;
            a.aggregate_functions.push(name.value.to_ascii_uppercase());
        }
        Expr::Exists { .. }
        | Expr::InSubquery { .. }
        | Expr::InList { .. }
        | Expr::Between { .. }
        | Expr::IsNull { .. }
        | Expr::Like { .. } => a.predicate_count += 1,
        _ => {}
    }
    expr.for_each_child(|child| walk_expr(child, depth, a));
    if let Some(subquery) = own_subquery(expr) {
        a.subquery_count += 1;
        walk_query(subquery, depth + 1, a);
    }
}

/// The subquery an expression node itself holds (`EXISTS`, scalar and
/// `IN` subqueries), if any.
fn own_subquery(expr: &Expr) -> Option<&Query> {
    match expr {
        Expr::Exists { subquery, .. }
        | Expr::Subquery(subquery)
        | Expr::InSubquery { subquery, .. } => Some(subquery),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Predicate structure analysis: conjunct splitting, column references and
// equi-join key extraction.
//
// These helpers are shared by query *decomposition* (correlation checks on
// subqueries) and by `bp-storage`'s query *planner* (predicate pushdown and
// hash-join key selection), so the two layers agree on what counts as a
// column reference and as an equi-join predicate.
// ---------------------------------------------------------------------

/// A column reference extracted from an expression: an optional qualifier
/// (table alias) and the column identifier. Mirrors how the executor
/// interprets compound identifiers: for `a.b.c` the qualifier is the
/// second-to-last part and the column the last.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Qualifier identifier (e.g. the `t` of `t.x`), if present.
    pub qualifier: Option<Ident>,
    /// The column identifier.
    pub column: Ident,
}

impl ColumnRef {
    /// Case-normalized qualifier, if present.
    pub fn normalized_qualifier(&self) -> Option<String> {
        self.qualifier.as_ref().map(|q| q.normalized())
    }

    /// Case-normalized column name.
    pub fn normalized_column(&self) -> String {
        self.column.normalized()
    }
}

/// Interpret an expression as a bare column reference, unwrapping
/// parentheses. Returns `None` for anything that is not a plain (possibly
/// qualified) identifier.
pub fn column_ref(expr: &Expr) -> Option<ColumnRef> {
    match expr {
        Expr::Identifier(ident) => Some(ColumnRef {
            qualifier: None,
            column: ident.clone(),
        }),
        Expr::CompoundIdentifier(parts) => match parts.len() {
            0 => None,
            1 => Some(ColumnRef {
                qualifier: None,
                column: parts[0].clone(),
            }),
            n => Some(ColumnRef {
                qualifier: Some(parts[n - 2].clone()),
                column: parts[n - 1].clone(),
            }),
        },
        Expr::Nested(inner) => column_ref(inner),
        _ => None,
    }
}

/// Split a predicate into its top-level `AND`-ed conjuncts, unwrapping
/// parentheses around conjunctions. `a AND (b AND c)` yields `[a, b, c]`.
pub fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        match expr {
            Expr::BinaryOp {
                left,
                op: BinaryOperator::And,
                right,
            } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Nested(inner)
                if matches!(
                    inner.as_ref(),
                    Expr::BinaryOp {
                        op: BinaryOperator::And,
                        ..
                    } | Expr::Nested(_)
                ) =>
            {
                walk(inner, out)
            }
            other => out.push(other),
        }
    }
    walk(expr, &mut out);
    out
}

/// Collect every column reference in an expression, in source order,
/// *without* descending into subqueries (their references belong to their
/// own scopes; the tested expression of `x IN (SELECT ...)` is still
/// collected). The planner's pushdown and the cost estimator use it to
/// decide which relations a predicate reads; decomposition uses it for its
/// correlation check.
pub fn collect_column_refs(expr: &Expr, out: &mut Vec<ColumnRef>) {
    match expr {
        Expr::Identifier(_) | Expr::CompoundIdentifier(_) => out.extend(column_ref(expr)),
        _ => expr.for_each_child(|child| collect_column_refs(child, out)),
    }
}

/// The subqueries that belong to an expression's own scope, in source
/// order: every `EXISTS`, scalar and `IN` subquery reachable through its
/// sub-expressions, but none nested inside those subqueries.
pub fn expr_subqueries(expr: &Expr) -> Vec<&Query> {
    fn walk<'e>(expr: &'e Expr, out: &mut Vec<&'e Query>) {
        expr.for_each_child(|child| walk(child, out));
        out.extend(own_subquery(expr));
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Result of analyzing a join predicate for hash-joinable keys.
#[derive(Debug, Clone)]
pub struct JoinKeyExtraction<'a> {
    /// `col = col` conjuncts: the two column references plus the original
    /// conjunct (kept so callers that cannot use a pair can fall back to
    /// evaluating it).
    pub pairs: Vec<(ColumnRef, ColumnRef, &'a Expr)>,
    /// Conjuncts that are not bare column equalities.
    pub residual: Vec<&'a Expr>,
}

/// Extract candidate equi-join keys from a join predicate: every top-level
/// conjunct of the form `<column> = <column>`. Which side each column
/// belongs to is left to the caller (the planner resolves the references
/// against its relation bindings).
pub fn equi_join_keys(on: &Expr) -> JoinKeyExtraction<'_> {
    let mut extraction = JoinKeyExtraction {
        pairs: Vec::new(),
        residual: Vec::new(),
    };
    for conjunct in split_conjuncts(on) {
        if let Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } = conjunct
        {
            if let (Some(l), Some(r)) = (column_ref(left), column_ref(right)) {
                extraction.pairs.push((l, r, conjunct));
                continue;
            }
        }
        extraction.residual.push(conjunct);
    }
    extraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn analyze_sql(sql: &str) -> QueryAnalysis {
        analyze(&parse_query(sql).expect("parse"))
    }

    #[test]
    fn flat_query_statistics() {
        let q = parse_query("SELECT name, gpa FROM students WHERE gpa > 3.5").unwrap();
        let a = analyze(&q);
        assert_eq!(a.table_count(), 1);
        assert_eq!(a.column_count(), 2);
        assert_eq!(a.aggregate_count, 0);
        assert_eq!(a.nesting_depth, 0);
        assert_eq!(a.predicate_count, 1);
        assert!(!a.has_group_by);
        let (tokens, keywords) = canonical_token_counts(&q);
        assert!(tokens > 5);
        assert!(keywords >= 3); // SELECT FROM WHERE
    }

    #[test]
    fn aggregation_and_grouping() {
        let a = analyze_sql(
            "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept HAVING AVG(salary) > 100 ORDER BY dept LIMIT 5",
        );
        assert_eq!(a.aggregate_count, 3);
        assert_eq!(a.aggregate_functions, vec!["COUNT", "AVG", "AVG"]);
        assert!(a.has_group_by);
        assert!(a.has_order_by);
        assert!(a.has_limit);
    }

    #[test]
    fn nesting_depth_counts_levels() {
        let a = analyze_sql(
            "SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE c IN (SELECT d FROM v))",
        );
        assert_eq!(a.nesting_depth, 2);
        assert_eq!(a.subquery_count, 2);
        assert_eq!(a.table_count(), 3);
    }

    #[test]
    fn cte_counts_as_nesting() {
        let a = analyze_sql("WITH c AS (SELECT a FROM t) SELECT * FROM c");
        assert_eq!(a.cte_count, 1);
        assert_eq!(a.nesting_depth, 1);
        // `t` is the only base table, but the reference to the CTE `c` is
        // recorded too: the analyzer does not resolve CTE scope.
        assert_eq!(a.tables, BTreeSet::from(["C".to_string(), "T".to_string()]));
    }

    #[test]
    fn join_counting() {
        let a = analyze_sql(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y JOIN d ON d.z = c.z",
        );
        assert_eq!(a.join_count, 3);
        assert_eq!(a.table_count(), 4);
        assert_eq!(a.predicate_count, 3);
    }

    #[test]
    fn literal_terms_are_collected() {
        let a = analyze_sql(
            "SELECT * FROM terms WHERE term_name = 'J-term' AND street_type = 'STREET'",
        );
        assert_eq!(a.literal_terms, vec!["J-term", "STREET"]);
    }

    #[test]
    fn literal_and_aggregate_order_follows_source_order() {
        let a = analyze_sql(
            "SELECT CASE WHEN MAX(a) > 1 THEN 'hi' ELSE 'lo' END, SUM(AVG(b)) FROM t \
             WHERE c IN ('x', 'y') AND d BETWEEN 'm' AND 'n' \
             AND e IN (SELECT MIN(f) FROM u WHERE g = 'z') \
             GROUP BY h HAVING COUNT(*) IN (SELECT MAX(k) FROM v WHERE k <> 'w')",
        );
        assert_eq!(
            a.literal_terms,
            vec!["hi", "lo", "x", "y", "m", "n", "z", "w"]
        );
        assert_eq!(
            a.aggregate_functions,
            vec!["MAX", "SUM", "AVG", "MIN", "COUNT", "MAX"]
        );
        assert_eq!(a.subquery_count, 2);
        assert_eq!(a.nesting_depth, 1);
    }

    #[test]
    fn set_operations_counted() {
        let a = analyze_sql("SELECT a FROM t UNION SELECT a FROM u INTERSECT SELECT a FROM v");
        assert_eq!(a.set_operation_count, 2);
    }

    #[test]
    fn distinct_detected() {
        let a = analyze_sql("SELECT DISTINCT a FROM t");
        assert!(a.has_distinct);
        let b = analyze_sql("SELECT COUNT(DISTINCT a) FROM t");
        assert!(!b.has_distinct); // DISTINCT inside aggregate is not SELECT DISTINCT
        assert_eq!(b.aggregate_count, 1);
    }

    #[test]
    fn difficulty_grows_with_complexity() {
        let simple = analyze_sql("SELECT a FROM t");
        let complex = analyze_sql(
            "WITH x AS (SELECT dept, COUNT(*) AS n FROM emp JOIN dept ON emp.d = dept.id GROUP BY dept) SELECT * FROM x WHERE n > (SELECT AVG(n) FROM x)",
        );
        assert!(complex.difficulty_score() > simple.difficulty_score() * 2.0);
    }

    #[test]
    fn token_counts_use_canonical_rendering() {
        let q = parse_query("SELECT   a    FROM    t").unwrap();
        assert_eq!(canonical_token_counts(&q), (4, 2));
    }

    #[test]
    fn columns_deduplicated_case_insensitively() {
        let a = analyze_sql("SELECT Name, NAME, name FROM t WHERE name = 'x'");
        assert_eq!(a.column_count(), 1);
    }

    fn parse_where(sql: &str) -> Expr {
        parse_query(sql)
            .unwrap()
            .top_select()
            .unwrap()
            .selection
            .clone()
            .unwrap()
    }

    #[test]
    fn split_conjuncts_flattens_and_tree() {
        let e = parse_where("SELECT 1 FROM t WHERE a = 1 AND (b = 2 AND c > 3) AND d < 4");
        let conjuncts = split_conjuncts(&e);
        assert_eq!(conjuncts.len(), 4);
        // OR is not split.
        let e2 = parse_where("SELECT 1 FROM t WHERE a = 1 OR b = 2");
        assert_eq!(split_conjuncts(&e2).len(), 1);
    }

    #[test]
    fn column_ref_unwraps_nesting_and_qualifiers() {
        let cr = column_ref(&Expr::qcol("t", "x")).unwrap();
        assert_eq!(cr.normalized_qualifier(), Some("T".into()));
        assert_eq!(cr.normalized_column(), "X");
        let bare = column_ref(&Expr::col("y")).unwrap();
        assert_eq!(bare.qualifier, None);
        let nested = column_ref(&Expr::Nested(Box::new(Expr::col("z")))).unwrap();
        assert_eq!(nested.normalized_column(), "Z");
        assert!(column_ref(&Expr::number(1)).is_none());
    }

    #[test]
    fn equi_join_keys_separates_pairs_from_residual() {
        let on =
            parse_where("SELECT 1 FROM t WHERE a.x = b.y AND a.k = b.k AND a.z > 3 AND a.w = 1");
        let extraction = equi_join_keys(&on);
        assert_eq!(extraction.pairs.len(), 2);
        assert_eq!(extraction.pairs[0].0.normalized_column(), "X");
        assert_eq!(
            extraction.pairs[0].1.normalized_qualifier(),
            Some("B".into())
        );
        // `a.z > 3` (not Eq) and `a.w = 1` (literal side) are residual.
        assert_eq!(extraction.residual.len(), 2);
    }

    #[test]
    fn collect_column_refs_skips_subqueries() {
        let e =
            parse_where("SELECT 1 FROM t WHERE a + b > 1 AND c IN (SELECT d FROM u WHERE e = 1)");
        let mut refs = Vec::new();
        collect_column_refs(&e, &mut refs);
        let names: Vec<String> = refs.iter().map(|r| r.normalized_column()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
        let subs: Vec<_> = split_conjuncts(&e)
            .into_iter()
            .flat_map(expr_subqueries)
            .collect();
        assert_eq!(subs.len(), 1);
    }
}
