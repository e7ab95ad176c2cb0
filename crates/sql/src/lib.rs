//! # bp-sql — SQL toolkit for the BenchPress reproduction
//!
//! This crate is the SQL substrate used throughout the BenchPress
//! reproduction: a lexer, recursive-descent parser, AST, pretty-printer,
//! structural analyzer, and the CTE decomposition / recomposition rewrites
//! that implement steps 3.5 and 5.5 of the paper's annotation loop.
//!
//! It plays the role `sqlglot` plays in the original system: extracting the
//! tables and columns a query touches (for schema retrieval), measuring
//! query complexity (Table 1 of the paper), and rewriting nested queries
//! into annotatable CTE units (Figure 3).
//!
//! ## Quick example
//!
//! ```
//! use bp_sql::{parse_query, analyze, decompose};
//!
//! let query = parse_query(
//!     "SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments)",
//! ).unwrap();
//! let analysis = analyze(&query);
//! assert_eq!(analysis.table_count(), 2);
//! assert!(analysis.is_nested());
//!
//! let decomposition = decompose(&query);
//! assert!(decomposition.was_decomposed);
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod ast;
pub mod decompose;
pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod recompose;
pub mod token;

pub use analyzer::{
    analyze, canonical_token_counts, collect_column_refs, column_ref, equi_join_keys,
    expr_subqueries, split_conjuncts, ColumnRef, JoinKeyExtraction, QueryAnalysis,
};
pub use ast::{
    BinaryOperator, ColumnDef, CreateTable, Cte, DataType, Expr, Ident, Join, JoinConstraint,
    JoinOperator, Literal, ObjectName, OrderByExpr, Query, Select, SelectItem, SetExpr,
    SetOperator, Statement, TableFactor, TableWithJoins, UnaryOperator, With,
};
pub use decompose::{decompose, should_decompose, AnnotationUnit, Decomposition, UnitRole};
pub use error::{SqlError, SqlResult};
pub use lexer::tokenize;
pub use parser::{parse_query, parse_statement, parse_statements, Parser};
pub use recompose::{recompose, RecomposeError, UnitDescription};
pub use token::{Keyword, Token};
