//! A database: a catalog plus the tables' row data, with a convenience
//! execution API.
//!
//! Storage follows MVCC-lite snapshot semantics: the catalog and the table
//! map live behind `Arc`s, so [`Database::snapshot`] is a couple of
//! refcount bumps, and every mutation goes through [`Arc::make_mut`] —
//! copying the map (and, per table, the row payload) only when a snapshot
//! still pins it. Readers of a snapshot are never blocked by, and never
//! observe, concurrent writes; writers never wait for readers.

use crate::sync::Arc;
use std::collections::BTreeMap;

use crate::error::{StorageError, StorageResult};
use crate::physical::ExecOptions;
use crate::result::QueryResult;
use crate::schema::{Catalog, TableSchema};
use crate::snapshot::Snapshot;
use crate::table::{Row, Table};
use serde::{Deserialize, Serialize};

/// An in-memory database instance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    /// Human-readable database name (e.g. the benchmark or project name).
    pub name: String,
    catalog: Arc<Catalog>,
    tables: Arc<BTreeMap<String, Table>>,
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            catalog: Arc::new(Catalog::new()),
            tables: Arc::new(BTreeMap::new()),
        }
    }

    /// Borrow the schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Take a consistent point-in-time view of the database. Cheap (two
    /// refcount bumps plus the name); the snapshot pins every table's
    /// current version, and later writes to `self` copy-on-write new
    /// versions instead of touching the pinned ones.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(
            self.name.clone(),
            Arc::clone(&self.catalog),
            Arc::clone(&self.tables),
        )
    }

    /// Create a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> StorageResult<()> {
        let key = schema.normalized_name();
        Arc::make_mut(&mut self.catalog).add_table(schema.clone())?;
        Arc::make_mut(&mut self.tables).insert(key, Table::new(schema));
        Ok(())
    }

    /// Ingest `CREATE TABLE` DDL text, creating empty tables.
    pub fn ingest_ddl(&mut self, ddl: &str) -> StorageResult<usize> {
        let statements = bp_sql::parse_statements(ddl)?;
        let mut added = 0;
        for stmt in statements {
            if let bp_sql::Statement::CreateTable(ct) = stmt {
                self.create_table(TableSchema::from(&ct))?;
                added += 1;
            }
        }
        Ok(added)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_uppercase())
    }

    /// Mutable table lookup. Copy-on-write: if any snapshot pins the
    /// current table map, the map (cheap handles, not row data) is copied
    /// first, and the table's own payload copies lazily on its first write.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let key = name.to_ascii_uppercase();
        if !self.tables.contains_key(&key) {
            return None;
        }
        Arc::make_mut(&mut self.tables).get_mut(&key)
    }

    /// Iterate over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Insert rows into a table. In-flight snapshots keep reading the
    /// pre-insert version.
    pub fn insert_into<I: IntoIterator<Item = Row>>(
        &mut self,
        table: &str,
        rows: I,
    ) -> StorageResult<usize> {
        let table = self
            .table_mut(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
        table.insert_all(rows)
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Execute a parsed query against a fresh [`Snapshot`] with the default
    /// options: the planned engine, parallel across all available hardware
    /// threads. Explicit options go through
    /// `self.snapshot().execute(query, options)`.
    pub fn execute(&self, query: &bp_sql::Query) -> StorageResult<QueryResult> {
        self.snapshot().execute(query, ExecOptions::default())
    }

    /// Parse and execute SQL text against a fresh [`Snapshot`] — the one
    /// text convenience. `options` picks the engine and the planned
    /// engine's worker-thread budget; the result is byte-identical at every
    /// thread count. Executing against a snapshot is also what makes `&self`
    /// execution safe alongside other threads holding older snapshots.
    pub fn execute_sql(&self, sql: &str, options: ExecOptions) -> StorageResult<QueryResult> {
        let query = bp_sql::parse_query(sql)?;
        self.snapshot().execute(&query, options)
    }

    /// Build (without executing) the logical plan for a query, for
    /// inspection and testing of the rewrite passes.
    pub fn plan(&self, query: &bp_sql::Query) -> StorageResult<crate::plan::QueryPlan> {
        self.snapshot().plan(query)
    }

    /// Parse `sql` once into a reusable [`crate::prepared::PreparedQuery`]
    /// (planned + compiled lazily at its first planned execution, so the
    /// legacy interpreter path never pays for or fails on compilation).
    /// The prepared query owns a [`Snapshot`] taken here, so it keeps
    /// executing against a frozen view — its compiled ordinals and cached
    /// subquery results stay valid — no matter how this database is
    /// mutated afterwards. Batch workloads that revisit SQL texts should
    /// prefer a [`crate::prepared::PlanCache`].
    pub fn prepare(&self, sql: &str) -> StorageResult<crate::prepared::PreparedQuery> {
        crate::prepared::PreparedQuery::new(self.snapshot(), sql)
    }

    /// The full schema as a DDL script (one `CREATE TABLE` per line), the
    /// format BenchPress shows to the LLM as schema context.
    pub fn schema_ddl(&self) -> String {
        self.catalog
            .tables()
            .map(|t| format!("{};", t.to_create_table_sql()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::ExecStrategy;
    use crate::schema::Column;
    use crate::value::Value;
    use bp_sql::DataType;

    fn sample_db() -> Database {
        let mut db = Database::new("campus");
        db.create_table(TableSchema::new(
            "students",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("name", DataType::Text),
                Column::new("gpa", DataType::Float),
                Column::new("dept", DataType::Text),
            ],
        ))
        .unwrap();
        db.insert_into(
            "students",
            vec![
                vec![1.into(), "alice".into(), 3.9.into(), "EECS".into()],
                vec![2.into(), "bob".into(), 3.1.into(), "EECS".into()],
                vec![3.into(), "carol".into(), 3.7.into(), "MATH".into()],
                vec![4.into(), "dave".into(), Value::Null, "MATH".into()],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_insert() {
        let db = sample_db();
        assert_eq!(db.table_count(), 1);
        assert_eq!(db.total_rows(), 4);
        assert_eq!(db.table("STUDENTS").unwrap().row_count(), 4);
    }

    #[test]
    fn insert_into_unknown_table_fails() {
        let mut db = sample_db();
        assert!(matches!(
            db.insert_into("missing", vec![vec![]]),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn execute_sql_end_to_end() {
        let db = sample_db();
        let result = db
            .execute_sql(
                "SELECT name FROM students WHERE gpa > 3.5 ORDER BY name",
                ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(result.columns, vec!["name"]);
        assert_eq!(
            result.rows,
            vec![
                vec![Value::Text("alice".into())],
                vec![Value::Text("carol".into())]
            ]
        );
        assert!(result.ordered);
    }

    #[test]
    fn schema_ddl_round_trips() {
        let db = sample_db();
        let ddl = db.schema_ddl();
        let mut db2 = Database::new("copy");
        assert_eq!(db2.ingest_ddl(&ddl).unwrap(), 1);
        assert!(db2.table("students").is_some());
    }

    #[test]
    fn ingest_ddl_creates_empty_tables() {
        let mut db = Database::new("x");
        db.ingest_ddl("CREATE TABLE a (id INT); CREATE TABLE b (id INT);")
            .unwrap();
        assert_eq!(db.table_count(), 2);
        assert!(db.table("a").unwrap().is_empty());
    }

    #[test]
    fn snapshot_pins_data_across_inserts_and_ddl() {
        let mut db = sample_db();
        let snap = db.snapshot();
        assert!(snap.same_tables(&db.snapshot()));
        db.insert_into(
            "students",
            vec![vec![5.into(), "eve".into(), 4.0.into(), "EECS".into()]],
        )
        .unwrap();
        db.ingest_ddl("CREATE TABLE extra (id INT);").unwrap();
        // The snapshot still sees the pre-write world...
        assert_eq!(snap.total_rows(), 4);
        assert_eq!(snap.table_count(), 1);
        assert!(snap.catalog().table("extra").is_none());
        assert!(!snap.same_tables(&db.snapshot()));
        // ...and the live database sees everything.
        assert_eq!(db.total_rows(), 5);
        assert_eq!(db.table_count(), 2);
        let count_sql = bp_sql::parse_query("SELECT COUNT(*) FROM students").unwrap();
        let count = snap.execute(&count_sql, ExecOptions::default()).unwrap();
        assert_eq!(count.scalar(), Some(&Value::Int(4)));
        let live = db
            .execute_sql("SELECT COUNT(*) FROM students", ExecOptions::default())
            .unwrap();
        assert_eq!(live.scalar(), Some(&Value::Int(5)));
    }

    #[test]
    fn snapshot_reads_match_database_reads_on_every_engine() {
        let db = sample_db();
        let snap = db.snapshot();
        let sql = "SELECT dept, COUNT(*) FROM students GROUP BY dept ORDER BY dept";
        let query = bp_sql::parse_query(sql).unwrap();
        for strategy in [ExecStrategy::Planned, ExecStrategy::Legacy] {
            for threads in [1usize, 2, 8] {
                let options = ExecOptions::new(strategy).with_threads(threads);
                let direct = db.execute_sql(sql, options).unwrap();
                let via_snapshot = snap.execute(&query, options).unwrap();
                assert_eq!(
                    direct, via_snapshot,
                    "snapshot diverges under {strategy:?} at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn database_serde_round_trips_through_snapshot_storage() {
        let db = sample_db();
        let json = serde_json::to_string(&db).unwrap();
        let back: Database = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, db.name);
        assert_eq!(back.total_rows(), db.total_rows());
        assert_eq!(
            back.table("students").unwrap(),
            db.table("students").unwrap()
        );
        assert_eq!(back.table("students").unwrap().version(), 4);
    }
}
