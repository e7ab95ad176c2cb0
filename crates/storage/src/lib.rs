//! # bp-storage — in-memory relational engine for BenchPress
//!
//! This crate provides the data substrate of the reproduction: a schema
//! catalog, typed in-memory tables, a SQL executor for the `bp-sql` AST,
//! result comparison for execution accuracy (Figure 1 of the paper), and a
//! data profiler computing the Table 2 statistics (columns/rows per table,
//! uniqueness, sparsity, data-type diversity).
//!
//! ## Quick example
//!
//! ```
//! use bp_storage::{Column, Database, ExecOptions, TableSchema, Value};
//! use bp_sql::DataType;
//!
//! let mut db = Database::new("demo");
//! db.create_table(TableSchema::new(
//!     "students",
//!     vec![
//!         Column::new("id", DataType::Integer).primary_key(),
//!         Column::new("name", DataType::Text),
//!     ],
//! )).unwrap();
//! db.insert_into("students", vec![vec![1.into(), "alice".into()]]).unwrap();
//!
//! let result = db.execute_sql("SELECT COUNT(*) FROM students", ExecOptions::default()).unwrap();
//! assert_eq!(result.scalar(), Some(&Value::Int(1)));
//! ```

#![warn(missing_docs)]

pub(crate) mod cost;
pub mod database;
pub mod error;
pub(crate) mod exec;
pub mod physical;
pub mod plan;
pub mod prepared;
pub mod profiler;
pub mod result;
mod scalar;
pub mod schema;
pub mod service;
pub mod snapshot;
pub(crate) mod stats;
pub mod sync;
pub mod table;
pub mod value;

pub use cost::OptimizerStats;
pub use database::Database;
pub use error::{StorageError, StorageResult};
pub use physical::{
    available_threads, batch_map, compile_query, exec_compiled, verify_logical, verify_plan,
    AccessPathStats, CompileOptions, ExecOptions, ExecStrategy, PhysQueryPlan, PlanViolation,
    VerifierStats,
};
pub use plan::{LogicalPlan, Planner, QueryPlan};
pub use prepared::{
    CardinalityStats, PlanCache, PlanCacheStats, PreparedQuery, DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use profiler::{profile_database, profile_table, DatabaseProfile, TableProfile};
pub use result::{results_match, QueryResult};
pub use schema::{Catalog, Column, TableSchema};
pub use service::{AnnotationService, AnnotationSession};
pub use snapshot::Snapshot;
pub use table::{Row, Table};
pub use value::{like_match, Value};

#[cfg(test)]
mod executor_tests {
    use super::*;

    /// Run `sql` on `db` with the default options.
    fn run(db: &Database, sql: &str) -> StorageResult<QueryResult> {
        db.execute_sql(sql, ExecOptions::default())
    }

    /// A small campus database exercising joins, grouping, subqueries and
    /// enterprise-style naming (Moira lists from the paper's running example).
    fn campus_db() -> Database {
        let mut db = Database::new("campus");
        db.ingest_ddl(
            "CREATE TABLE students (id INT PRIMARY KEY, name VARCHAR(50), gpa NUMBER, dept VARCHAR(20));
             CREATE TABLE enrollments (student_id INT, course VARCHAR(20), term VARCHAR(20), grade NUMBER);
             CREATE TABLE MOIRA_LIST (MOIRA_LIST_KEY INT PRIMARY KEY, MOIRA_LIST_NAME VARCHAR(50), DEPT VARCHAR(20));
             CREATE TABLE MOIRA_MEMBER (MOIRA_LIST_KEY INT, MIT_ID INT);",
        )
        .unwrap();
        db.insert_into(
            "students",
            vec![
                vec![1.into(), "alice".into(), 3.9.into(), "EECS".into()],
                vec![2.into(), "bob".into(), 3.1.into(), "EECS".into()],
                vec![3.into(), "carol".into(), 3.7.into(), "MATH".into()],
                vec![4.into(), "dave".into(), 2.8.into(), "MATH".into()],
            ],
        )
        .unwrap();
        db.insert_into(
            "enrollments",
            vec![
                vec![1.into(), "6.033".into(), "J-term".into(), 95.into()],
                vec![1.into(), "6.172".into(), "Fall".into(), 88.into()],
                vec![2.into(), "6.033".into(), "Fall".into(), 71.into()],
                vec![3.into(), "18.06".into(), "J-term".into(), 90.into()],
            ],
        )
        .unwrap();
        db.insert_into(
            "MOIRA_LIST",
            vec![
                vec![10.into(), "BIO-GRADS".into(), "BIO".into()],
                vec![11.into(), "BITS".into(), "EECS".into()],
                vec![12.into(), "BUILDERS".into(), "EECS".into()],
                vec![13.into(), "CHESS".into(), "EECS".into()],
            ],
        )
        .unwrap();
        db.insert_into(
            "MOIRA_MEMBER",
            vec![
                vec![11.into(), 100.into()],
                vec![11.into(), 101.into()],
                vec![11.into(), 102.into()],
                vec![12.into(), 100.into()],
                vec![12.into(), 103.into()],
                vec![13.into(), 104.into()],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn projection_and_filter() {
        let db = campus_db();
        let r = run(
            &db,
            "SELECT name, gpa FROM students WHERE dept = 'EECS' AND gpa >= 3.5",
        )
        .unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows[0][0], Value::Text("alice".into()));
    }

    #[test]
    fn select_star_and_qualified_star() {
        let db = campus_db();
        let r = run(&db, "SELECT * FROM students").unwrap();
        assert_eq!(r.column_count(), 4);
        assert_eq!(r.row_count(), 4);
        let r2 = run(&db, "SELECT s.* FROM students AS s WHERE s.id = 1").unwrap();
        assert_eq!(r2.column_count(), 4);
        assert_eq!(r2.row_count(), 1);
    }

    #[test]
    fn inner_join() {
        let db = campus_db();
        let r = run(&db, "SELECT s.name, e.course FROM students s JOIN enrollments e ON s.id = e.student_id ORDER BY s.name, e.course")
            .unwrap();
        assert_eq!(r.row_count(), 4);
        assert_eq!(r.rows[0][0], Value::Text("alice".into()));
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = campus_db();
        let r = run(&db, "SELECT s.name, e.course FROM students s LEFT JOIN enrollments e ON s.id = e.student_id WHERE e.course IS NULL")
            .unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows[0][0], Value::Text("dave".into()));
    }

    #[test]
    fn group_by_with_aggregates_and_having() {
        let db = campus_db();
        let r = run(&db, "SELECT dept, COUNT(*) AS n, AVG(gpa) AS avg_gpa FROM students GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY dept")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.columns, vec!["dept", "n", "avg_gpa"]);
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert!((r.rows[0][2].as_f64().unwrap() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn count_distinct() {
        let db = campus_db();
        let r = run(&db, "SELECT COUNT(DISTINCT dept) FROM students").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn aggregate_over_empty_input() {
        let db = campus_db();
        let r = run(
            &db,
            "SELECT COUNT(*), MAX(gpa) FROM students WHERE dept = 'PHYSICS'",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[0][1], Value::Null);
    }

    #[test]
    fn order_by_ordinal_alias_and_expression() {
        let db = campus_db();
        let by_ordinal = run(
            &db,
            "SELECT name, gpa FROM students ORDER BY 2 DESC LIMIT 1",
        )
        .unwrap();
        assert_eq!(by_ordinal.rows[0][0], Value::Text("alice".into()));
        let by_alias = run(
            &db,
            "SELECT name, gpa AS grade_point FROM students ORDER BY grade_point LIMIT 1",
        )
        .unwrap();
        assert_eq!(by_alias.rows[0][0], Value::Text("dave".into()));
        let by_expr = run(&db, "SELECT name FROM students ORDER BY gpa * -1 LIMIT 1").unwrap();
        assert_eq!(by_expr.rows[0][0], Value::Text("alice".into()));
    }

    #[test]
    fn limit_and_offset() {
        let db = campus_db();
        let r = run(
            &db,
            "SELECT name FROM students ORDER BY name LIMIT 2 OFFSET 1",
        )
        .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Text("bob".into())],
                vec![Value::Text("carol".into())]
            ]
        );
    }

    #[test]
    fn distinct_rows() {
        let db = campus_db();
        let r = run(&db, "SELECT DISTINCT dept FROM students").unwrap();
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn uncorrelated_scalar_and_in_subqueries() {
        let db = campus_db();
        let r = run(
            &db,
            "SELECT name FROM students WHERE gpa > (SELECT AVG(gpa) FROM students) ORDER BY name",
        )
        .unwrap();
        assert_eq!(r.row_count(), 2);
        let r2 = run(&db, "SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments WHERE term = 'J-term') ORDER BY name")
            .unwrap();
        assert_eq!(
            r2.rows,
            vec![
                vec![Value::Text("alice".into())],
                vec![Value::Text("carol".into())]
            ]
        );
    }

    #[test]
    fn correlated_subquery() {
        let db = campus_db();
        // Students with the best gpa within their department.
        let r = run(&db, "SELECT name FROM students s WHERE gpa = (SELECT MAX(gpa) FROM students x WHERE x.dept = s.dept) ORDER BY name")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Text("alice".into())],
                vec![Value::Text("carol".into())]
            ]
        );
    }

    #[test]
    fn exists_and_not_exists() {
        let db = campus_db();
        let r = run(&db, "SELECT name FROM students s WHERE NOT EXISTS (SELECT 1 FROM enrollments e WHERE e.student_id = s.id)")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Text("dave".into())]]);
    }

    #[test]
    fn cte_pipeline_matches_paper_example_shape() {
        let db = campus_db();
        // The paper's Figure 3 query shape: per-list distinct member counts,
        // then the list with the most members.
        let r = run(&db, "WITH DistinctLists AS (
                     SELECT l.MOIRA_LIST_NAME AS name, COUNT(DISTINCT m.MIT_ID) AS member_count
                     FROM MOIRA_LIST l JOIN MOIRA_MEMBER m ON l.MOIRA_LIST_KEY = m.MOIRA_LIST_KEY
                     WHERE l.MOIRA_LIST_NAME LIKE 'B%' AND l.DEPT = 'EECS'
                     GROUP BY l.MOIRA_LIST_NAME
                 ),
                 Top AS (SELECT * FROM DistinctLists ORDER BY member_count DESC LIMIT 1)
                 SELECT COUNT(DISTINCT dl.name), (SELECT name FROM Top), (SELECT member_count FROM Top)
                 FROM DistinctLists dl")
            .unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.rows[0][0], Value::Int(2)); // BITS and BUILDERS
        assert_eq!(r.rows[0][1], Value::Text("BITS".into()));
        assert_eq!(r.rows[0][2], Value::Int(3));
    }

    #[test]
    fn derived_table() {
        let db = campus_db();
        let r = run(&db, "SELECT dept, n FROM (SELECT dept, COUNT(*) AS n FROM students GROUP BY dept) AS d WHERE n > 1 ORDER BY dept")
            .unwrap();
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn set_operations() {
        let db = campus_db();
        let union = run(
            &db,
            "SELECT dept FROM students UNION SELECT DEPT FROM MOIRA_LIST",
        )
        .unwrap();
        assert_eq!(union.row_count(), 3); // EECS, MATH, BIO
        let union_all = run(
            &db,
            "SELECT dept FROM students UNION ALL SELECT DEPT FROM MOIRA_LIST",
        )
        .unwrap();
        assert_eq!(union_all.row_count(), 8);
        let intersect = run(
            &db,
            "SELECT dept FROM students INTERSECT SELECT DEPT FROM MOIRA_LIST",
        )
        .unwrap();
        assert_eq!(intersect.row_count(), 1);
        let except = run(
            &db,
            "SELECT DEPT FROM MOIRA_LIST EXCEPT SELECT dept FROM students",
        )
        .unwrap();
        assert_eq!(except.rows, vec![vec![Value::Text("BIO".into())]]);
    }

    #[test]
    fn case_expression_and_functions() {
        let db = campus_db();
        let r = run(&db, "SELECT name, CASE WHEN gpa >= 3.5 THEN 'high' ELSE 'normal' END AS band, UPPER(dept), LENGTH(name) FROM students WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][1], Value::Text("high".into()));
        assert_eq!(r.rows[0][2], Value::Text("EECS".into()));
        assert_eq!(r.rows[0][3], Value::Int(5));
    }

    #[test]
    fn between_like_in_list() {
        let db = campus_db();
        let r = run(&db, "SELECT name FROM students WHERE gpa BETWEEN 3.0 AND 3.8 AND name LIKE '%o%' AND dept IN ('EECS', 'MATH') ORDER BY name")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Text("bob".into())],
                vec![Value::Text("carol".into())]
            ]
        );
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let db = campus_db();
        let r = run(&db, "SELECT 3 + 4 * 2, 10 / 4").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(11));
        assert_eq!(r.rows[0][1], Value::Float(2.5));
        assert!(run(&db, "SELECT 1 / 0").is_err());
    }

    #[test]
    fn error_on_unknown_table_and_column() {
        let db = campus_db();
        assert!(matches!(
            run(&db, "SELECT * FROM missing"),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(matches!(
            run(&db, "SELECT nonexistent FROM students"),
            Err(StorageError::UnknownColumn(_))
        ));
    }

    #[test]
    fn execution_accuracy_comparison_between_semantically_equal_queries() {
        let db = campus_db();
        let gold = run(&db, "SELECT dept, COUNT(*) FROM students GROUP BY dept").unwrap();
        let predicted = run(
            &db,
            "SELECT dept, COUNT(id) AS how_many FROM students GROUP BY dept ORDER BY dept",
        )
        .unwrap();
        assert!(results_match(&gold, &predicted));
        let wrong = run(
            &db,
            "SELECT dept, COUNT(*) FROM students WHERE gpa > 3.0 GROUP BY dept",
        )
        .unwrap();
        assert!(!results_match(&gold, &wrong));
    }

    /// An aggregate on the left of `IN (subquery)` makes the SELECT an
    /// aggregate query: one row, not one `IN` test per input row.
    #[test]
    fn aggregate_tested_by_in_subquery_aggregates() {
        let mut db = Database::new("agg_in");
        db.ingest_ddl("CREATE TABLE t (id INT PRIMARY KEY, x INT); CREATE TABLE u (id INT);")
            .unwrap();
        db.insert_into(
            "t",
            vec![
                vec![1.into(), 1.into()],
                vec![2.into(), 2.into()],
                vec![3.into(), 3.into()],
            ],
        )
        .unwrap();
        db.insert_into("u", vec![vec![3.into()]]).unwrap();
        for sql in [
            "SELECT COUNT(*) IN (SELECT id FROM u) FROM t",
            "SELECT MAX(x) IN (SELECT id FROM u) FROM t",
        ] {
            for strategy in [ExecStrategy::Planned, ExecStrategy::Legacy] {
                let r = db
                    .execute_sql(sql, ExecOptions::new(strategy))
                    .unwrap_or_else(|e| panic!("{strategy:?} fails on {sql}: {e}"));
                assert_eq!(r.rows, vec![vec![Value::Bool(true)]], "{strategy:?}: {sql}");
            }
        }
    }

    /// Targeted differential suite: the planned engine must produce the
    /// exact same `QueryResult` (columns, row order, ordered flag) as the
    /// legacy interpreter on every construct, including the corners the
    /// rewrite passes touch. The broad generated-workload differential
    /// suite lives in the workspace `differential` proptest.
    mod differential {
        use super::*;

        fn assert_engines_agree(sql: &str) {
            let db = campus_db();
            let legacy = db.execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy));
            let planned = db.execute_sql(sql, ExecOptions::new(ExecStrategy::Planned));
            match (legacy, planned) {
                (Ok(l), Ok(p)) => assert_eq!(l, p, "engines disagree on: {sql}"),
                (Err(_), Err(_)) => {}
                (l, p) => panic!("ok/err divergence on {sql}: legacy={l:?} planned={p:?}"),
            }
        }

        #[test]
        fn outer_joins_with_residual_on_conjuncts() {
            assert_engines_agree(
                "SELECT s.name, e.course FROM students s LEFT JOIN enrollments e \
                 ON s.id = e.student_id AND e.grade > 80 ORDER BY s.name, e.course",
            );
            assert_engines_agree(
                "SELECT s.name, e.course FROM students s RIGHT JOIN enrollments e \
                 ON s.id = e.student_id AND s.gpa > 3.5",
            );
            assert_engines_agree(
                "SELECT s.name, e.course FROM students s FULL JOIN enrollments e \
                 ON s.id = e.student_id AND e.term = 'Fall'",
            );
        }

        #[test]
        fn where_pushdown_around_outer_joins() {
            assert_engines_agree(
                "SELECT s.name FROM students s LEFT JOIN enrollments e ON s.id = e.student_id \
                 WHERE e.course IS NULL",
            );
            assert_engines_agree(
                "SELECT s.name, e.course FROM students s LEFT JOIN enrollments e \
                 ON s.id = e.student_id WHERE s.gpa > 3.0 AND e.grade > 80",
            );
        }

        #[test]
        fn comma_join_cross_product() {
            assert_engines_agree(
                "SELECT s.name, l.MOIRA_LIST_NAME FROM students s, MOIRA_LIST l \
                 WHERE s.dept = l.DEPT ORDER BY 1, 2",
            );
        }

        #[test]
        fn set_operations_with_ordering_and_limits() {
            assert_engines_agree(
                "SELECT dept FROM students UNION SELECT DEPT FROM MOIRA_LIST ORDER BY dept DESC",
            );
            assert_engines_agree(
                "SELECT dept FROM students UNION ALL SELECT DEPT FROM MOIRA_LIST ORDER BY 1 LIMIT 3 OFFSET 1",
            );
            assert_engines_agree("SELECT dept FROM students INTERSECT SELECT DEPT FROM MOIRA_LIST");
            assert_engines_agree(
                "SELECT DEPT FROM MOIRA_LIST EXCEPT ALL SELECT dept FROM students",
            );
        }

        #[test]
        fn correlated_and_uncorrelated_subqueries() {
            assert_engines_agree(
                "SELECT name FROM students s WHERE gpa = \
                 (SELECT MAX(gpa) FROM students x WHERE x.dept = s.dept) ORDER BY name",
            );
            assert_engines_agree(
                "SELECT name FROM students WHERE gpa > (SELECT AVG(gpa) FROM students)",
            );
            assert_engines_agree(
                "SELECT name FROM students s WHERE EXISTS \
                 (SELECT 1 FROM enrollments e WHERE e.student_id = s.id AND e.grade > 90)",
            );
            assert_engines_agree(
                "SELECT name FROM students WHERE id NOT IN \
                 (SELECT student_id FROM enrollments WHERE term = 'Fall') ORDER BY name",
            );
        }

        #[test]
        fn cte_scoping_and_shadowing() {
            assert_engines_agree(
                "WITH students AS (SELECT dept FROM MOIRA_LIST) SELECT * FROM students",
            );
            assert_engines_agree(
                "WITH a AS (SELECT dept, COUNT(*) AS n FROM students GROUP BY dept), \
                      b AS (SELECT * FROM a WHERE n > 1) \
                 SELECT (SELECT MAX(n) FROM b), dept FROM a ORDER BY dept",
            );
        }

        #[test]
        fn distinct_order_by_and_hidden_keys() {
            assert_engines_agree("SELECT DISTINCT dept FROM students ORDER BY dept");
            assert_engines_agree("SELECT name FROM students ORDER BY gpa * -1, name");
            assert_engines_agree(
                "SELECT dept, COUNT(*) AS n FROM students GROUP BY dept ORDER BY COUNT(*) DESC, dept",
            );
            assert_engines_agree("SELECT name, gpa AS g FROM students ORDER BY g DESC LIMIT 2");
            // Out-of-range ordinal degenerates to a constant key.
            assert_engines_agree("SELECT name FROM students ORDER BY 7");
        }

        #[test]
        fn aggregates_in_odd_positions() {
            let db = campus_db();
            // Aggregate in WHERE: one-row-group semantics.
            assert_engines_agree("SELECT name FROM students WHERE SUM(gpa) > 3.0 ORDER BY name");
            // HAVING without aggregates or GROUP BY is ignored by both
            // engines, names and calls in it included.
            for sql in [
                "SELECT name FROM students HAVING gpa > 100",
                "SELECT name FROM students HAVING bogus > 1",
                "SELECT name FROM students HAVING UNSUPPORTED_FN(gpa) > 1",
            ] {
                let legacy = db.execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy));
                let planned = db.execute_sql(sql, ExecOptions::default());
                assert!(legacy.is_ok(), "{sql}: {legacy:?}");
                assert_eq!(legacy, planned, "{sql}");
            }
            // Aggregate-only HAVING forces a global group.
            assert_engines_agree("SELECT COUNT(*) FROM students HAVING COUNT(*) > 2");
        }

        #[test]
        fn derived_tables_and_qualified_wildcards() {
            assert_engines_agree(
                "SELECT d.* FROM (SELECT dept, COUNT(*) AS n FROM students GROUP BY dept) AS d \
                 WHERE d.n > 1 ORDER BY d.dept",
            );
            assert_engines_agree(
                "SELECT s.*, e.course FROM students s JOIN enrollments e ON s.id = e.student_id \
                 ORDER BY s.id, e.course",
            );
        }

        #[test]
        fn error_paths_agree() {
            assert_engines_agree("SELECT 1 / 0");
            assert_engines_agree("SELECT * FROM missing");
            assert_engines_agree("SELECT nonexistent FROM students");
            assert_engines_agree("SELECT name FROM students LIMIT -1");
            assert_engines_agree("SELECT UNSUPPORTED_FN(name) FROM students");
        }

        /// Static errors fail at prepare in both engines, wherever they sit:
        /// over an empty input, in a dead `CASE` arm, in a skipped
        /// `COALESCE` tail, inside a subquery that never runs. Run-time
        /// errors stay lazy: only an evaluated expression raises one.
        #[test]
        fn static_error_paths_agree() {
            let db = campus_db();
            let snapshot = db.snapshot();
            for sql in [
                "SELECT UNSUPPORTED_FN(name) FROM students WHERE 1 = 0",
                "SELECT CASE WHEN 1 = 0 THEN UNSUPPORTED_FN(name) ELSE 1 END FROM students",
                "SELECT COALESCE(1, UNSUPPORTED_FN(name)) FROM students",
                "SELECT CASE WHEN 1 = 0 THEN (SELECT x FROM missing) ELSE 2 END FROM students",
                "SELECT SUBSTR(name) FROM students WHERE 1 = 0",
                "SELECT name FROM students WHERE id IN (SELECT x FROM missing) AND 1 = 0",
                "SELECT name FROM students WHERE bogus = 1 AND gpa > 100",
                "SELECT s.name FROM students s JOIN enrollments e \
                 ON s.id = e.student_id AND bogus = 1",
                "SELECT dept, SUM(*) FROM students WHERE id > 100 GROUP BY dept",
                "SELECT SUM(id, gpa) FROM students",
            ] {
                let query = bp_sql::parse_query(sql).unwrap();
                let compiled = compile_query(&snapshot, &query, CompileOptions::default());
                let Err(error) = compiled.map(drop) else {
                    panic!("compiler accepts {sql}");
                };
                for strategy in [ExecStrategy::Planned, ExecStrategy::Legacy] {
                    let result = db.execute_sql(sql, ExecOptions::new(strategy));
                    assert_eq!(result, Err(error.clone()), "{strategy:?}: {sql}");
                }
            }
            // Run-time errors are raised only where evaluation reaches them.
            for sql in [
                "SELECT 1 / 0 FROM students WHERE 1 = 0",
                "SELECT CASE WHEN 1 = 0 THEN 1 / 0 ELSE 1 END FROM students",
                "SELECT COALESCE(1, 1 / 0) FROM students",
                "SELECT CASE WHEN 1 = 0 THEN (SELECT name FROM students) ELSE 2 END \
                 FROM students",
            ] {
                let legacy = db
                    .execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy))
                    .unwrap();
                let planned = db
                    .execute_sql(sql, ExecOptions::new(ExecStrategy::Planned))
                    .unwrap();
                assert_eq!(legacy, planned, "engines disagree on: {sql}");
            }
            assert_engines_agree("SELECT CASE WHEN 1 = 1 THEN 1 / 0 ELSE 1 END FROM students");
            assert_engines_agree("SELECT (SELECT name FROM students) FROM students");
        }

        /// Joins (inner and outer), grouping, DISTINCT, correlated
        /// subqueries and set operations: the planned engine must match
        /// the oracle byte for byte.
        #[test]
        fn planned_execution_matches_the_oracle() {
            let db = campus_db();
            let queries = [
                "SELECT s.name, e.course FROM students s JOIN enrollments e ON s.id = e.student_id ORDER BY s.name, e.course",
                "SELECT dept, COUNT(*) AS n, AVG(gpa) FROM students GROUP BY dept",
                "SELECT s.name, e.course FROM students s LEFT JOIN enrollments e ON s.id = e.student_id AND e.grade > 80",
                "SELECT s.name, e.course FROM students s FULL JOIN enrollments e ON s.id = e.student_id AND e.term = 'Fall'",
                "SELECT DISTINCT dept FROM students",
                "SELECT name FROM students s WHERE gpa = (SELECT MAX(gpa) FROM students x WHERE x.dept = s.dept)",
                "SELECT dept FROM students UNION SELECT DEPT FROM MOIRA_LIST",
            ];
            for sql in queries {
                let planned = db
                    .execute_sql(sql, ExecOptions::default())
                    .unwrap_or_else(|e| panic!("planned fails on {sql}: {e}"));
                let legacy = db
                    .execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy))
                    .unwrap();
                assert_eq!(planned, legacy, "planned diverges from oracle on: {sql}");
            }
        }

        /// The same check over inputs that span several batches, so every
        /// operator carries rows, groups and join matches across batch
        /// boundaries (the campus tables fit in one batch).
        #[test]
        fn planned_execution_matches_the_oracle_across_batches() {
            let mut db = Database::new("wide");
            db.ingest_ddl(
                "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, amount NUMBER, region VARCHAR(10));
                 CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(30), region VARCHAR(10));",
            )
            .unwrap();
            let regions = ["north", "south", "east", "west"];
            db.insert_into(
                "customers",
                (0..600i64).map(|i| {
                    vec![
                        i.into(),
                        format!("customer_{i}").into(),
                        regions[(i % 4) as usize].into(),
                    ]
                }),
            )
            .unwrap();
            db.insert_into(
                "orders",
                (0..1200i64).map(|i| {
                    vec![
                        i.into(),
                        // Some orders reference no customer (join misses).
                        (i % 800).into(),
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            ((i % 90) as f64 * 1.5).into()
                        },
                        regions[(i % 4) as usize].into(),
                    ]
                }),
            )
            .unwrap();
            let queries = [
                "SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id",
                "SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.customer_id = c.id",
                "SELECT o.id, c.name FROM orders o FULL JOIN customers c ON o.customer_id = c.id AND o.amount > 50",
                "SELECT region, COUNT(*), SUM(amount), AVG(amount) FROM orders GROUP BY region",
                "SELECT c.region, COUNT(DISTINCT c.id) FROM orders o JOIN customers c ON o.customer_id = c.id WHERE o.amount > 30 GROUP BY c.region HAVING COUNT(*) > 5",
                "SELECT DISTINCT customer_id FROM orders WHERE amount IS NOT NULL",
                "SELECT id, amount FROM orders WHERE amount > (SELECT AVG(amount) FROM orders) ORDER BY id LIMIT 50",
            ];
            for sql in queries {
                let planned = db
                    .execute_sql(sql, ExecOptions::default())
                    .unwrap_or_else(|e| panic!("planned fails on {sql}: {e}"));
                let legacy = db
                    .execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy))
                    .unwrap();
                assert_eq!(planned, legacy, "planned diverges from oracle on: {sql}");
            }
            // Error paths agree too: the first failing row in row order.
            let err_sql = "SELECT 1 / (id - 700) FROM orders";
            let planned_err = db.execute_sql(err_sql, ExecOptions::default());
            let legacy_err = db.execute_sql(err_sql, ExecOptions::new(ExecStrategy::Legacy));
            assert!(planned_err.is_err());
            assert_eq!(planned_err, legacy_err);
        }

        #[test]
        fn uncorrelated_subquery_cache_is_transparent() {
            let db = campus_db();
            let sql = "SELECT name FROM students WHERE gpa > (SELECT AVG(gpa) FROM students) \
                       AND id IN (SELECT student_id FROM enrollments) ORDER BY name";
            let legacy = db
                .execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy))
                .unwrap();
            let planned = db
                .execute_sql(sql, ExecOptions::new(ExecStrategy::Planned))
                .unwrap();
            assert_eq!(legacy, planned);
        }
    }
}
