//! A long-lived, multi-session annotation-service front over snapshot
//! storage.
//!
//! The paper's system is an interactive curation service: many annotators
//! read (grade, preview, backtranslate) while the corpus keeps growing.
//! [`AnnotationService`] is that front in-process: it owns the live
//! [`Database`] behind an `RwLock` held only long enough to take a
//! [`Snapshot`] or install a write — never during query execution — plus a
//! shared, version-invalidating [`PlanCache`]. Concurrent
//! [`AnnotationSession`]s each pin a snapshot and submit read batches
//! through [`batch_map`], so a session's results are **byte-identical to
//! a serial run against its pinned snapshot at every thread count**, no
//! matter how fast the writer streams inserts: writers copy-on-write new
//! table versions and never touch pinned ones.
//!
//! Error semantics inside a batch follow the batch driver: results come
//! back in input order and per-statement errors stay per-statement, so the
//! first error *in input order* is the same one a serial loop would have
//! reported — even while the database is being written to.

use crate::sync::RwLock;

use crate::database::Database;
use crate::error::{StorageError, StorageResult};
use crate::physical::{batch_map, ExecOptions};
use crate::prepared::{PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::result::QueryResult;
use crate::schema::TableSchema;
use crate::snapshot::Snapshot;
use crate::table::Row;

/// A concurrent front over one live database: non-blocking snapshot reads
/// for any number of sessions, serialized copy-on-write installs for
/// writers, and a shared plan cache with per-table-version invalidation.
pub struct AnnotationService {
    live: RwLock<Database>,
    cache: PlanCache,
}

impl AnnotationService {
    /// Wrap an existing database.
    pub fn new(db: Database) -> Self {
        AnnotationService {
            live: RwLock::new(db),
            cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
        }
    }

    /// Pin the current state. The lock is held only for the two refcount
    /// bumps a snapshot costs; execution against the snapshot runs outside
    /// any lock.
    pub fn snapshot(&self) -> Snapshot {
        self.live.read().expect("service lock").snapshot()
    }

    /// Open a session pinned to the current state. The session keeps
    /// reading that state until [`AnnotationSession::refresh`] re-pins.
    pub fn open_session(&self) -> AnnotationSession<'_> {
        AnnotationSession {
            service: self,
            snapshot: self.snapshot(),
        }
    }

    /// Stream rows into a table: copy-on-write installs a new table version
    /// visible to snapshots taken afterwards. Sessions already holding a
    /// snapshot are unaffected (and unblocked — the write lock only guards
    /// the handle swap, not their reads).
    pub fn insert(&self, table: &str, rows: Vec<Row>) -> StorageResult<usize> {
        self.live
            .write()
            .expect("service lock")
            .insert_into(table, rows)
    }

    /// Create a table from a schema.
    pub fn create_table(&self, schema: TableSchema) -> StorageResult<()> {
        self.live
            .write()
            .expect("service lock")
            .create_table(schema)
    }

    /// Ingest `CREATE TABLE` DDL text.
    pub fn ingest_ddl(&self, ddl: &str) -> StorageResult<usize> {
        self.live.write().expect("service lock").ingest_ddl(ddl)
    }

    /// The shared plan cache every session executes through. Its counters
    /// cover every statement the service's sessions ran: hit/miss/
    /// invalidation ([`PlanCache::stats`]), access paths and cardinality
    /// drift per *execution*, and verifier and optimizer outcomes per
    /// *compile* — so `verifier_stats().violations` staying at 0 is the
    /// observable proof that no miscompiled plan ever reached execution.
    /// The raw-cache grading paths (see `bp_metrics::grade_cached`) report
    /// through the same counters.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Total rows currently in the live database.
    pub fn total_rows(&self) -> usize {
        self.live.read().expect("service lock").total_rows()
    }
}

/// One annotator's session: a pinned [`Snapshot`] plus access to the
/// service's shared plan cache. All reads go to the pinned snapshot —
/// consistent, repeatable, and immune to the writer — until
/// [`AnnotationSession::refresh`].
pub struct AnnotationSession<'s> {
    service: &'s AnnotationService,
    snapshot: Snapshot,
}

impl AnnotationSession<'_> {
    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Re-pin to the service's current state (the explicit visibility
    /// point: writes land in a session only when it asks).
    pub fn refresh(&mut self) {
        self.snapshot = self.service.snapshot();
    }

    /// Execute one SQL text against the pinned snapshot, through the shared
    /// plan cache ([`PlanCache::execute`]).
    pub fn execute_sql(&self, sql: &str, options: ExecOptions) -> StorageResult<QueryResult> {
        self.service.cache.execute(&self.snapshot, sql, options)
    }

    /// Execute a batch of SQL texts against the pinned snapshot, fanned out
    /// over `threads` [`batch_map`] workers, stopping at the first error
    /// **in input order** (exactly what a serial loop would report). Each
    /// statement runs on the worker that claimed it; results come back in
    /// input order and are byte-identical at every thread count.
    pub fn batch_execute<S: AsRef<str> + Sync>(
        &self,
        sqls: &[S],
        threads: usize,
    ) -> StorageResult<Vec<QueryResult>> {
        batch_map(threads, sqls.len(), |i| {
            self.execute_sql(sqls[i].as_ref(), ExecOptions::default())
        })
    }

    /// Like [`AnnotationSession::batch_execute`], but collecting every
    /// statement's individual outcome instead of stopping at the first
    /// error — the shape grading pipelines want (an invalid prediction is
    /// an outcome, not a batch failure).
    pub fn batch_outcomes<S: AsRef<str> + Sync>(
        &self,
        sqls: &[S],
        threads: usize,
    ) -> Vec<StorageResult<QueryResult>> {
        batch_map(threads, sqls.len(), |i| {
            Ok::<_, StorageError>(self.execute_sql(sqls[i].as_ref(), ExecOptions::default()))
        })
        .expect("outcome collection is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OptimizerStats;
    use crate::physical::{AccessPathStats, ExecStrategy, VerifierStats};
    use crate::prepared::CardinalityStats;
    use crate::schema::Column;
    use crate::value::Value;
    use bp_sql::DataType;

    fn corpus_db() -> Database {
        let mut db = Database::new("service");
        db.create_table(TableSchema::new(
            "log",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("grp", DataType::Integer),
                Column::new("score", DataType::Float),
            ],
        ))
        .unwrap();
        db.insert_into(
            "log",
            (0..400i64).map(|i| vec![i.into(), (i % 5).into(), ((i % 13) as f64).into()]),
        )
        .unwrap();
        db
    }

    /// Run `sql` through `session` with the default options.
    fn run(session: &AnnotationSession<'_>, sql: &str) -> StorageResult<QueryResult> {
        session.execute_sql(sql, ExecOptions::default())
    }

    fn reader_sqls() -> Vec<String> {
        vec![
            "SELECT COUNT(*) FROM log".into(),
            "SELECT grp, COUNT(*) FROM log GROUP BY grp ORDER BY grp".into(),
            "SELECT MAX(score) FROM log WHERE grp = 3".into(),
            "SELECT COUNT(*) FROM log WHERE score > (SELECT AVG(score) FROM log)".into(),
        ]
    }

    #[test]
    fn sessions_pin_a_snapshot_until_refresh() {
        let service = AnnotationService::new(corpus_db());
        let mut session = service.open_session();
        let before = run(&session, "SELECT COUNT(*) FROM log").unwrap();
        assert_eq!(before.scalar(), Some(&Value::Int(400)));
        service
            .insert("log", vec![vec![400.into(), 0.into(), 1.0.into()]])
            .unwrap();
        // Still pinned...
        let pinned = run(&session, "SELECT COUNT(*) FROM log").unwrap();
        assert_eq!(pinned.scalar(), Some(&Value::Int(400)));
        // ...until the session opts in to the new state.
        session.refresh();
        let fresh = run(&session, "SELECT COUNT(*) FROM log").unwrap();
        assert_eq!(fresh.scalar(), Some(&Value::Int(401)));
        assert_eq!(service.total_rows(), 401);
    }

    #[test]
    fn concurrent_sessions_read_consistently_under_a_streaming_writer() {
        // N reader sessions each batch-execute against their pinned
        // snapshot while a writer streams inserts. Every reader's batch
        // must be byte-identical to a serial re-run against its snapshot —
        // at every thread count — and identical across repeats.
        let service = AnnotationService::new(corpus_db());
        let sqls = reader_sqls();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..200i64 {
                    service
                        .insert(
                            "log",
                            vec![vec![(1000 + i).into(), (i % 5).into(), 0.5.into()]],
                        )
                        .expect("writer inserts");
                }
            });
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let session = service.open_session();
                        let parallel = session.batch_execute(&sqls, 4).expect("batch executes");
                        // Byte-identical to a serial run against the same
                        // pinned snapshot, while the writer races.
                        let serial: Vec<QueryResult> = sqls
                            .iter()
                            .map(|sql| {
                                let query = bp_sql::parse_query(sql).expect("parses");
                                session
                                    .snapshot()
                                    .execute(&query, ExecOptions::serial())
                                    .expect("serial executes")
                            })
                            .collect();
                        assert_eq!(parallel, serial);
                        // Repeatable: the same session re-reads identically.
                        let again = session.batch_execute(&sqls, 2).expect("re-executes");
                        assert_eq!(parallel, again);
                    })
                })
                .collect();
            for reader in readers {
                reader.join().expect("reader panics propagate");
            }
            writer.join().expect("writer panics propagate");
        });
        assert_eq!(service.total_rows(), 600);
        let stats = service.plan_cache().stats();
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn batch_errors_surface_first_in_input_order_under_writes() {
        let service = AnnotationService::new(corpus_db());
        let sqls = vec![
            "SELECT COUNT(*) FROM log".to_string(),
            "SELECT missing_col FROM log".to_string(), // first error, index 1
            "SELECT COUNT(*) FROM log WHERE grp = 1".to_string(),
            "SELECT also_missing FROM log".to_string(), // later error, index 3
        ];
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..50i64 {
                    service
                        .insert("log", vec![vec![(2000 + i).into(), 0.into(), 0.0.into()]])
                        .expect("writer inserts");
                }
            });
            for _ in 0..8 {
                let session = service.open_session();
                for threads in [1usize, 4] {
                    let err = session
                        .batch_execute(&sqls, threads)
                        .expect_err("batch contains an invalid statement");
                    assert!(
                        err.to_string().contains("missing_col"),
                        "first error in input order must win (threads={threads}), got: {err}"
                    );
                }
                // The per-outcome shape keeps both errors, in place.
                let outcomes = session.batch_outcomes(&sqls, 4);
                assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
                assert!(outcomes[1].is_err() && outcomes[3].is_err());
            }
            writer.join().expect("writer panics propagate");
        });
    }

    #[test]
    fn access_path_counters_split_indexed_from_scanned() {
        let service = AnnotationService::new(corpus_db());
        let session = service.open_session();
        assert_eq!(
            service.plan_cache().access_stats(),
            AccessPathStats::default()
        );
        // A point lookup compiles onto the hash index...
        run(&session, "SELECT score FROM log WHERE id = 7").unwrap();
        assert_eq!(
            service.plan_cache().access_stats(),
            AccessPathStats {
                index_scan: 1,
                full_scan: 0
            }
        );
        // ...an unsargable predicate (arithmetic can overflow, so the
        // conjunct is not benign) walks the table...
        run(&session, "SELECT score FROM log WHERE id + 1 = 8").unwrap();
        assert_eq!(
            service.plan_cache().access_stats(),
            AccessPathStats {
                index_scan: 1,
                full_scan: 1
            }
        );
        // ...and a cached plan re-counts on every execution: the split
        // reflects executed work, not compile events.
        run(&session, "SELECT score FROM log WHERE id = 7").unwrap();
        assert_eq!(
            service.plan_cache().access_stats(),
            AccessPathStats {
                index_scan: 2,
                full_scan: 1
            }
        );
    }

    #[test]
    fn verifier_counters_count_compiles_not_executions() {
        let service = AnnotationService::new(corpus_db());
        let session = service.open_session();
        assert_eq!(
            service.plan_cache().verifier_stats(),
            VerifierStats::default()
        );
        // First planned execution compiles → one verified plan.
        run(&session, "SELECT COUNT(*) FROM log").unwrap();
        assert_eq!(
            service.plan_cache().verifier_stats(),
            VerifierStats {
                plans_verified: 1,
                violations: 0
            }
        );
        // Re-executing the cached plan must not re-count: verification is
        // per compile, not per execution.
        run(&session, "SELECT COUNT(*) FROM log").unwrap();
        assert_eq!(service.plan_cache().verifier_stats().plans_verified, 1);
        // A second distinct statement compiles (and verifies) its own plan.
        run(&session, "SELECT MAX(score) FROM log WHERE grp = 3").unwrap();
        assert_eq!(
            service.plan_cache().verifier_stats(),
            VerifierStats {
                plans_verified: 2,
                violations: 0
            }
        );
        // A legacy run never compiles, so it never verifies.
        session
            .execute_sql(
                "SELECT grp FROM log WHERE id = 1",
                ExecOptions::new(ExecStrategy::Legacy),
            )
            .unwrap();
        assert_eq!(service.plan_cache().verifier_stats().plans_verified, 2);
        // A parse error produces no plan to verify.
        assert!(run(&session, "NOT REAL SQL").is_err());
        assert_eq!(
            service.plan_cache().verifier_stats(),
            VerifierStats {
                plans_verified: 2,
                violations: 0
            }
        );
    }

    #[test]
    fn optimizer_and_cardinality_counters_track_compiles_and_executions() {
        let mut db = corpus_db();
        // A second table so a multi-join spine exists for the reorderer.
        db.create_table(TableSchema::new(
            "tags",
            vec![
                Column::new("grp", DataType::Integer).primary_key(),
                Column::new("label", DataType::Text),
            ],
        ))
        .unwrap();
        db.insert_into(
            "tags",
            (0..5i64).map(|i| vec![i.into(), Value::Text(format!("g{i}"))]),
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "extra",
            vec![
                Column::new("grp", DataType::Integer).primary_key(),
                Column::new("w", DataType::Integer),
            ],
        ))
        .unwrap();
        db.insert_into("extra", (0..5i64).map(|i| vec![i.into(), (i * 2).into()]))
            .unwrap();
        let service = AnnotationService::new(db);
        let session = service.open_session();
        assert_eq!(
            service.plan_cache().optimizer_stats(),
            OptimizerStats::default()
        );
        assert_eq!(
            service.plan_cache().cardinality_stats(),
            CardinalityStats::default()
        );
        // A single-table query executes with an estimate but no join spine.
        run(&session, "SELECT COUNT(*) FROM log").unwrap();
        let card = service.plan_cache().cardinality_stats();
        assert_eq!(card.estimated_executions, 1);
        assert_eq!(card.actual_rows, 1);
        // A three-way join spine goes through the cost-based reorderer.
        let join_sql = "SELECT log.id, tags.label, extra.w FROM log \
                        JOIN tags ON log.grp = tags.grp \
                        JOIN extra ON tags.grp = extra.grp \
                        WHERE log.id < 3";
        run(&session, join_sql).unwrap();
        let opt = service.plan_cache().optimizer_stats();
        assert_eq!(
            opt.cost_based, 1,
            "the three-way spine must be cost-based reordered: {opt:?}"
        );
        // Re-executing the cached plan must not re-count the compile-side
        // optimizer tally, but it does tally another execution's drift.
        run(&session, join_sql).unwrap();
        assert_eq!(service.plan_cache().optimizer_stats(), opt);
        let card = service.plan_cache().cardinality_stats();
        assert_eq!(card.estimated_executions, 3);
        assert_eq!(card.actual_rows, 1 + 2 * 3);
        assert!(card.estimated_rows > 0);
    }

    #[test]
    fn pinned_snapshots_answer_from_their_own_index_after_writes() {
        let service = AnnotationService::new(corpus_db());
        let session = service.open_session();
        let sql = "SELECT grp FROM log WHERE id = 399";
        // Build the pinned version's lazy index...
        let before = run(&session, sql).unwrap();
        assert_eq!(before.rows, vec![vec![Value::Int(4)]]);
        // ...then install a new version: copy-on-write resets the *new*
        // version's caches and never touches the pinned one's, so the old
        // session keeps answering from the index it already built.
        service
            .insert("log", vec![vec![500.into(), 9.into(), 0.0.into()]])
            .unwrap();
        let pinned = run(&session, sql).unwrap();
        assert_eq!(pinned, before);
        // The pinned index must not see the new row...
        let missing = run(&session, "SELECT grp FROM log WHERE id = 500").unwrap();
        assert!(missing.rows.is_empty());
        // ...while a fresh session indexes the new version (and the plan
        // cache invalidates the entry pinned to the old one).
        let fresh = service.open_session();
        let found = run(&fresh, "SELECT grp FROM log WHERE id = 500").unwrap();
        assert_eq!(found.rows, vec![vec![Value::Int(9)]]);
    }

    #[test]
    fn service_reads_agree_with_the_differential_oracles() {
        let service = AnnotationService::new(corpus_db());
        service
            .insert("log", vec![vec![777.into(), 2.into(), 3.25.into()]])
            .unwrap();
        let session = service.open_session();
        for sql in reader_sqls() {
            let planned = run(&session, &sql).unwrap();
            let query = bp_sql::parse_query(&sql).unwrap();
            let oracle = session
                .snapshot()
                .execute(&query, ExecOptions::new(ExecStrategy::Legacy))
                .unwrap();
            assert_eq!(planned, oracle, "legacy oracle diverges on {sql}");
        }
    }
}
