//! Abstract syntax tree for the SQL subset used throughout BenchPress.
//!
//! The AST intentionally mirrors the shape of well-known SQL ASTs
//! (sqlparser-rs, sqlglot) but only covers the constructs that appear in
//! text-to-SQL workloads: `SELECT` queries with CTEs, joins, subqueries,
//! aggregation, set operations, and `CREATE TABLE` statements used for
//! schema ingestion.

use serde::{Deserialize, Serialize};

/// An identifier such as a table, column, or alias name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ident {
    /// The identifier text as written (without quotes).
    pub value: String,
    /// Whether the identifier was double-quoted in the source.
    pub quoted: bool,
}

impl Ident {
    /// Create an unquoted identifier.
    pub fn new(value: impl Into<String>) -> Self {
        Ident {
            value: value.into(),
            quoted: false,
        }
    }

    /// Create a quoted identifier.
    pub fn quoted(value: impl Into<String>) -> Self {
        Ident {
            value: value.into(),
            quoted: true,
        }
    }

    /// Case-normalized form used for name resolution (unquoted identifiers
    /// are case-insensitive in SQL).
    pub fn normalized(&self) -> String {
        if self.quoted {
            self.value.clone()
        } else {
            self.value.to_ascii_uppercase()
        }
    }
}

/// A possibly-qualified name, e.g. `warehouse.FAC_BUILDING`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjectName(pub Vec<Ident>);

impl ObjectName {
    /// Build an object name from dot-separated parts.
    pub fn new(parts: &[&str]) -> Self {
        ObjectName(parts.iter().map(|p| Ident::new(*p)).collect())
    }

    /// The final (unqualified) component of the name.
    pub fn base(&self) -> &Ident {
        self.0.last().expect("object name has at least one part")
    }

    /// Dot-joined normalized name used as a map key.
    pub fn normalized(&self) -> String {
        self.0
            .iter()
            .map(|i| i.normalized())
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// Top-level SQL statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// A `SELECT`/`WITH` query.
    Query(Query),
    /// A `CREATE TABLE` definition (used for schema ingestion only).
    CreateTable(CreateTable),
}

impl Statement {
    /// Returns the inner query if this statement is a query.
    pub fn as_query(&self) -> Option<&Query> {
        match self {
            Statement::Query(q) => Some(q),
            Statement::CreateTable(_) => None,
        }
    }
}

/// A `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CreateTable {
    /// Table name.
    pub name: ObjectName,
    /// Column definitions in declaration order.
    pub columns: Vec<ColumnDef>,
}

/// One column in a `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: Ident,
    /// Declared data type.
    pub data_type: DataType,
    /// Whether the column carries a `PRIMARY KEY` constraint.
    pub primary_key: bool,
    /// Whether the column is nullable (`NOT NULL` absent).
    pub nullable: bool,
    /// Referenced table/column when a `REFERENCES` clause is present.
    pub references: Option<(ObjectName, Ident)>,
}

/// SQL data types recognized by the schema subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Any integer type (`INT`, `INTEGER`, `BIGINT`, `SMALLINT`).
    Integer,
    /// Floating point or `NUMBER`/`DECIMAL` types.
    Float,
    /// Character types (`VARCHAR`, `CHAR`, `TEXT`).
    Text,
    /// Boolean.
    Boolean,
    /// Calendar date.
    Date,
    /// Timestamp.
    Timestamp,
}

impl DataType {
    /// Canonical SQL spelling used by the pretty-printer.
    pub fn as_sql(&self) -> &'static str {
        match self {
            DataType::Integer => "INTEGER",
            DataType::Float => "NUMBER",
            DataType::Text => "VARCHAR",
            DataType::Boolean => "BOOLEAN",
            DataType::Date => "DATE",
            DataType::Timestamp => "TIMESTAMP",
        }
    }
}

/// A full query: optional `WITH` clause, body, ordering and limits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Optional `WITH` clause.
    pub with: Option<With>,
    /// The set-expression body (a bare select or set operation).
    pub body: SetExpr,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByExpr>,
    /// `LIMIT` expression.
    pub limit: Option<Expr>,
    /// `OFFSET` expression.
    pub offset: Option<Expr>,
}

impl Query {
    /// Wrap a bare select into a query with no WITH/ORDER BY/LIMIT.
    pub fn from_select(select: Select) -> Self {
        Query {
            with: None,
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// The top-level select, if the body is a plain select.
    pub fn top_select(&self) -> Option<&Select> {
        match &self.body {
            SetExpr::Select(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable access to the top-level select.
    pub fn top_select_mut(&mut self) -> Option<&mut Select> {
        match &mut self.body {
            SetExpr::Select(s) => Some(s),
            _ => None,
        }
    }
}

/// `WITH` clause holding one or more common table expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct With {
    /// The CTEs in declaration order.
    pub ctes: Vec<Cte>,
}

/// A single common table expression: `name AS (query)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cte {
    /// CTE alias/name.
    pub name: Ident,
    /// The query the CTE evaluates.
    pub query: Query,
    /// Optional comment attached during decomposition (semantic note).
    pub comment: Option<String>,
}

/// Query body: either a select, a parenthesized query, or a set operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SetExpr {
    /// Plain `SELECT ...`.
    Select(Box<Select>),
    /// Parenthesized sub-query used as a set operand.
    Query(Box<Query>),
    /// `UNION` / `INTERSECT` / `EXCEPT`.
    SetOperation {
        /// The operator.
        op: SetOperator,
        /// Whether `ALL` was specified.
        all: bool,
        /// Left operand.
        left: Box<SetExpr>,
        /// Right operand.
        right: Box<SetExpr>,
    },
}

/// Set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetOperator {
    /// `UNION`
    Union,
    /// `INTERSECT`
    Intersect,
    /// `EXCEPT`
    Except,
}

impl SetOperator {
    /// Keyword spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            SetOperator::Union => "UNION",
            SetOperator::Intersect => "INTERSECT",
            SetOperator::Except => "EXCEPT",
        }
    }
}

/// A `SELECT` clause with its FROM/WHERE/GROUP BY/HAVING parts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Select {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// FROM clause (empty for `SELECT 1`-style queries).
    pub from: Vec<TableWithJoins>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
}

impl Select {
    /// An empty select with nothing projected; useful as a builder seed.
    pub fn empty() -> Self {
        Select {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One item in a projection list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// Expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS alias`.
        alias: Option<Ident>,
    },
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(ObjectName),
}

impl SelectItem {
    /// Convenience constructor for an un-aliased expression item.
    pub fn expr(expr: Expr) -> Self {
        SelectItem::Expr { expr, alias: None }
    }

    /// Convenience constructor for an aliased expression item.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem::Expr {
            expr,
            alias: Some(Ident::new(alias)),
        }
    }
}

/// A FROM-clause element: a base relation plus trailing joins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableWithJoins {
    /// The left-most relation.
    pub relation: TableFactor,
    /// Joins applied left-to-right.
    pub joins: Vec<Join>,
}

impl TableWithJoins {
    /// A bare table reference with no joins.
    pub fn table(name: ObjectName, alias: Option<Ident>) -> Self {
        TableWithJoins {
            relation: TableFactor::Table { name, alias },
            joins: Vec::new(),
        }
    }
}

/// A relation appearing in FROM: a named table or a derived subquery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableFactor {
    /// Base table (or CTE) reference.
    Table {
        /// Table name, possibly qualified.
        name: ObjectName,
        /// Optional alias.
        alias: Option<Ident>,
    },
    /// Derived table `(SELECT ...) alias`.
    Derived {
        /// The subquery.
        subquery: Box<Query>,
        /// Optional alias (usually required by dialects, optional here).
        alias: Option<Ident>,
    },
}

impl TableFactor {
    /// The name used to refer to this relation in scope (alias if present).
    pub fn scope_name(&self) -> Option<String> {
        match self {
            TableFactor::Table { name, alias } => Some(
                alias
                    .as_ref()
                    .map(|a| a.normalized())
                    .unwrap_or_else(|| name.base().normalized()),
            ),
            TableFactor::Derived { alias, .. } => alias.as_ref().map(|a| a.normalized()),
        }
    }
}

/// A join between two relations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Join {
    /// The right-hand relation.
    pub relation: TableFactor,
    /// Join type.
    pub operator: JoinOperator,
    /// Join condition.
    pub constraint: JoinConstraint,
}

/// Supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinOperator {
    /// `INNER JOIN` (or bare `JOIN`).
    Inner,
    /// `LEFT [OUTER] JOIN`.
    LeftOuter,
    /// `RIGHT [OUTER] JOIN`.
    RightOuter,
    /// `FULL [OUTER] JOIN`.
    FullOuter,
    /// `CROSS JOIN`.
    Cross,
}

impl JoinOperator {
    /// SQL spelling of the join keyword sequence.
    pub fn as_sql(&self) -> &'static str {
        match self {
            JoinOperator::Inner => "JOIN",
            JoinOperator::LeftOuter => "LEFT JOIN",
            JoinOperator::RightOuter => "RIGHT JOIN",
            JoinOperator::FullOuter => "FULL JOIN",
            JoinOperator::Cross => "CROSS JOIN",
        }
    }
}

/// Join condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JoinConstraint {
    /// `ON <expr>`.
    On(Expr),
    /// No condition (cross join / comma join).
    None,
}

/// An `ORDER BY` item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderByExpr {
    /// Sort key expression.
    pub expr: Expr,
    /// Ascending (`true`) or descending (`false`).
    pub asc: bool,
}

/// Scalar literal values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// Numeric literal preserved as text.
    Number(String),
    /// String literal.
    String(String),
    /// Boolean literal.
    Boolean(bool),
    /// `NULL`.
    Null,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOperator {
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/`
    Divide,
    /// `%`
    Modulo,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `||`
    Concat,
}

impl BinaryOperator {
    /// SQL spelling.
    pub fn as_sql(&self) -> &'static str {
        match self {
            BinaryOperator::Plus => "+",
            BinaryOperator::Minus => "-",
            BinaryOperator::Multiply => "*",
            BinaryOperator::Divide => "/",
            BinaryOperator::Modulo => "%",
            BinaryOperator::Eq => "=",
            BinaryOperator::NotEq => "<>",
            BinaryOperator::Lt => "<",
            BinaryOperator::LtEq => "<=",
            BinaryOperator::Gt => ">",
            BinaryOperator::GtEq => ">=",
            BinaryOperator::And => "AND",
            BinaryOperator::Or => "OR",
            BinaryOperator::Concat => "||",
        }
    }

    /// Whether the operator is a comparison (used by the analyzer).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOperator::Eq
                | BinaryOperator::NotEq
                | BinaryOperator::Lt
                | BinaryOperator::LtEq
                | BinaryOperator::Gt
                | BinaryOperator::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOperator {
    /// `NOT`
    Not,
    /// Unary `-`
    Minus,
    /// Unary `+`
    Plus,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Bare column reference `a`.
    Identifier(Ident),
    /// Qualified column reference `t.a` (or deeper).
    CompoundIdentifier(Vec<Ident>),
    /// Literal value.
    Literal(Literal),
    /// Binary operation.
    BinaryOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOperator,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOperator,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function call, including aggregates.
    Function {
        /// Function name.
        name: Ident,
        /// Arguments (a single `Expr::Wildcard` for `COUNT(*)`).
        args: Vec<Expr>,
        /// `DISTINCT` inside the call, e.g. `COUNT(DISTINCT x)`.
        distinct: bool,
    },
    /// `CASE WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Optional operand for simple CASE.
        operand: Option<Box<Expr>>,
        /// WHEN/THEN pairs.
        conditions: Vec<(Expr, Expr)>,
        /// ELSE result.
        else_result: Option<Box<Expr>>,
    },
    /// `EXISTS (subquery)`.
    Exists {
        /// The subquery.
        subquery: Box<Query>,
        /// Whether the EXISTS is negated.
        negated: bool,
    },
    /// Scalar subquery `(SELECT ...)`.
    Subquery(Box<Query>),
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery.
        subquery: Box<Query>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (list...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List items.
        list: Vec<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Expression being cast.
        expr: Box<Expr>,
        /// Target type.
        data_type: DataType,
    },
    /// Parenthesized expression.
    Nested(Box<Expr>),
    /// `*` used inside `COUNT(*)`.
    Wildcard,
}

impl Expr {
    /// Column reference helper.
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Identifier(Ident::new(name))
    }

    /// Qualified column reference helper (`table.column`).
    pub fn qcol(table: impl Into<String>, column: impl Into<String>) -> Self {
        Expr::CompoundIdentifier(vec![Ident::new(table), Ident::new(column)])
    }

    /// Numeric literal helper.
    pub fn number(n: impl ToString) -> Self {
        Expr::Literal(Literal::Number(n.to_string()))
    }

    /// String literal helper.
    pub fn string(s: impl Into<String>) -> Self {
        Expr::Literal(Literal::String(s.into()))
    }

    /// Build `left op right`.
    pub fn binary(left: Expr, op: BinaryOperator, right: Expr) -> Self {
        Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Build an equality comparison.
    pub fn eq(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinaryOperator::Eq, right)
    }

    /// Conjunction of two expressions.
    pub fn and(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinaryOperator::And, right)
    }

    /// Aggregate/function call helper.
    pub fn func(name: impl Into<String>, args: Vec<Expr>) -> Self {
        Expr::Function {
            name: Ident::new(name),
            args,
            distinct: false,
        }
    }

    /// `COUNT(*)` helper.
    pub fn count_star() -> Self {
        Expr::Function {
            name: Ident::new("COUNT"),
            args: vec![Expr::Wildcard],
            distinct: false,
        }
    }

    /// Call `f` on each direct sub-expression, in source order (for `CASE`:
    /// operand, then each WHEN/THEN pair, then ELSE). Subqueries are never
    /// entered: `InSubquery` yields only its tested expression, and
    /// `Exists`/`Subquery` yield nothing — callers handle subqueries
    /// themselves.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::BinaryOp { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::UnaryOp { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Nested(expr) => f(expr),
            Expr::Function { args, .. } => args.iter().for_each(f),
            Expr::Case {
                operand,
                conditions,
                else_result,
            } => {
                if let Some(operand) = operand {
                    f(operand);
                }
                for (cond, result) in conditions {
                    f(cond);
                    f(result);
                }
                if let Some(else_result) = else_result {
                    f(else_result);
                }
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Identifier(_)
            | Expr::CompoundIdentifier(_)
            | Expr::Literal(_)
            | Expr::Exists { .. }
            | Expr::Subquery(_)
            | Expr::Wildcard => {}
        }
    }

    /// Whether this expression node is an aggregate function call.
    pub fn is_aggregate_call(&self) -> bool {
        match self {
            Expr::Function { name, .. } => {
                matches!(
                    name.value.to_ascii_uppercase().as_str(),
                    "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
                )
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_normalization() {
        assert_eq!(Ident::new("foo").normalized(), "FOO");
        assert_eq!(Ident::quoted("Foo Bar").normalized(), "Foo Bar");
    }

    #[test]
    fn object_name_base_and_key() {
        let name = ObjectName::new(&["warehouse", "fac_building"]);
        assert_eq!(name.base().value, "fac_building");
        assert_eq!(name.normalized(), "WAREHOUSE.FAC_BUILDING");
    }

    #[test]
    fn expr_builders() {
        let e = Expr::and(
            Expr::eq(Expr::qcol("t", "a"), Expr::number(1)),
            Expr::col("b"),
        );
        match e {
            Expr::BinaryOp { op, .. } => assert_eq!(op, BinaryOperator::And),
            _ => panic!("expected binary op"),
        }
    }

    #[test]
    fn aggregate_detection() {
        assert!(Expr::count_star().is_aggregate_call());
        assert!(Expr::func("sum", vec![Expr::col("x")]).is_aggregate_call());
        assert!(!Expr::func("UPPER", vec![Expr::col("x")]).is_aggregate_call());
        assert!(!Expr::col("count").is_aggregate_call());
    }

    #[test]
    fn for_each_child_yields_direct_children_in_source_order() {
        let cases: &[(&str, &[&str])] = &[
            ("a + b", &["a", "b"]),
            ("NOT a", &["a"]),
            ("f(a, b, c)", &["a", "b", "c"]),
            ("COUNT(*)", &["*"]),
            (
                "CASE a WHEN b THEN c WHEN d THEN e ELSE f END",
                &["a", "b", "c", "d", "e", "f"],
            ),
            ("CASE WHEN b THEN c END", &["b", "c"]),
            ("a IN (SELECT b FROM t WHERE c = 1)", &["a"]),
            ("a NOT IN (b, c)", &["a", "b", "c"]),
            ("a BETWEEN b AND c", &["a", "b", "c"]),
            ("a IS NOT NULL", &["a"]),
            ("a LIKE b", &["a", "b"]),
            ("CAST(a AS INTEGER)", &["a"]),
            ("(a + b)", &["a + b"]),
            // Leaves, and subqueries, which are never yielded.
            ("EXISTS (SELECT b FROM t)", &[]),
            ("(SELECT b FROM t)", &[]),
            ("t.a", &[]),
            ("'x'", &[]),
        ];
        for (sql, expected) in cases {
            let query = crate::parser::parse_query(&format!("SELECT {sql}")).unwrap();
            let Some(SelectItem::Expr { expr, .. }) =
                query.top_select().unwrap().projection.first()
            else {
                panic!("no projected expression in {sql}");
            };
            let mut children = Vec::new();
            expr.for_each_child(|child| children.push(child.to_string()));
            assert_eq!(children, *expected, "children of {sql}");
        }
    }

    #[test]
    fn scope_name_prefers_alias() {
        let t = TableFactor::Table {
            name: ObjectName::new(&["ACADEMIC_TERMS_ALL"]),
            alias: Some(Ident::new("a")),
        };
        assert_eq!(t.scope_name(), Some("A".to_string()));
        let t2 = TableFactor::Table {
            name: ObjectName::new(&["ACADEMIC_TERMS_ALL"]),
            alias: None,
        };
        assert_eq!(t2.scope_name(), Some("ACADEMIC_TERMS_ALL".to_string()));
    }

    #[test]
    fn query_from_select_roundtrip() {
        let q = Query::from_select(Select::empty());
        assert!(q.top_select().is_some());
        assert!(q.with.is_none());
        assert!(q.order_by.is_empty());
    }

    #[test]
    fn statement_as_query() {
        let q = Statement::Query(Query::from_select(Select::empty()));
        assert!(q.as_query().is_some());
        let c = Statement::CreateTable(CreateTable {
            name: ObjectName::new(&["T"]),
            columns: vec![],
        });
        assert!(c.as_query().is_none());
    }
}
