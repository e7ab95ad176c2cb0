//! Consistent point-in-time views of a database.
//!
//! A [`Snapshot`] is what every read path of the engine actually executes
//! against: an `Arc` of the table map (each entry an `Arc`-shared,
//! versioned payload — see [`crate::table::Table`]) plus an `Arc` of the
//! catalog. Taking one is two refcount bumps and a name copy; holding one
//! pins exactly the table versions that were current at that instant.
//! Writers never block readers and readers never block writers: a write
//! copy-on-write-installs a new table version (and a new table map) in the
//! owning [`crate::Database`], while every in-flight snapshot keeps reading
//! the versions it pinned. A snapshot's view is immutable by construction, so
//! scans, the cached columnar decode, and the uncorrelated-subquery caches
//! inside compiled plans all key off it safely.

use crate::sync::Arc;
use std::collections::BTreeMap;

use crate::error::StorageResult;
use crate::exec::Executor;
use crate::physical::{compile_query, exec_compiled, CompileOptions, ExecOptions, ExecStrategy};
use crate::result::QueryResult;
use crate::schema::Catalog;
use crate::table::Table;

/// An immutable, cheaply clonable view of a [`Database`] at one instant.
///
/// Both execution engines ([`ExecStrategy::Planned`] and
/// [`ExecStrategy::Legacy`]) read the same snapshot, and
/// [`crate::prepared::PreparedQuery`] owns one — which is what makes
/// compile-once/execute-many safe under concurrent writers.
///
/// [`Database`]: crate::database::Database
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    catalog: Arc<Catalog>,
    tables: Arc<BTreeMap<String, Table>>,
}

impl Snapshot {
    pub(crate) fn new(
        name: String,
        catalog: Arc<Catalog>,
        tables: Arc<BTreeMap<String, Table>>,
    ) -> Self {
        Snapshot {
            name,
            catalog,
            tables,
        }
    }

    /// The owning database's name at snapshot time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Borrow the pinned schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Look up a pinned table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_uppercase())
    }

    /// Iterate over all pinned tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Number of pinned tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across all pinned tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Whether `self` and `other` pin the identical table map (the
    /// whole-database "nothing changed" fast path; exact because a shared
    /// map is never mutated in place).
    pub fn same_tables(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// Execute a parsed query against this snapshot — the one engine
    /// dispatch every read path funnels into. [`ExecStrategy::Planned`]
    /// plans, compiles and runs the query through
    /// [`crate::physical::compile_query`]; [`ExecStrategy::Legacy`]
    /// interprets the AST directly. The result is byte-identical at every
    /// thread count, and — because the snapshot is immutable —
    /// byte-identical no matter what writers do to the owning database in
    /// the meantime. Repeated SQL texts should go through
    /// [`Snapshot::prepare`] or a [`crate::PlanCache`] instead, which
    /// compile once.
    pub fn execute(
        &self,
        query: &bp_sql::Query,
        options: ExecOptions,
    ) -> StorageResult<QueryResult> {
        match options.strategy {
            ExecStrategy::Planned => {
                let physical = compile_query(self, query, CompileOptions::default())?;
                exec_compiled(self, &physical, options)
            }
            ExecStrategy::Legacy => Executor::new(self).execute(query),
        }
    }

    /// Build (without executing) the logical plan for a query against this
    /// snapshot.
    pub fn plan(&self, query: &bp_sql::Query) -> StorageResult<crate::plan::QueryPlan> {
        crate::plan::Planner::new(self).plan(query)
    }

    /// Parse `sql` once into a reusable [`crate::prepared::PreparedQuery`]
    /// that owns a clone of this snapshot.
    pub fn prepare(&self, sql: &str) -> StorageResult<crate::prepared::PreparedQuery> {
        crate::prepared::PreparedQuery::new(self.clone(), sql)
    }
}
