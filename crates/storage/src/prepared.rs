//! Prepared queries and the LRU plan cache — the parse-once /
//! run-once layer behind inter-query batch evaluation.
//!
//! Grading a corpus executes thousands of queries, and many of them share
//! SQL text (every item's gold query, and every prediction that reproduces
//! its gold). The per-query pipeline cost — lex + parse, logical planning +
//! rewrites, ordinal resolution and subquery compilation — is pure overhead
//! after the first time a given SQL text is seen, and so is re-running a
//! plan whose snapshot cannot change. [`PreparedQuery`] runs that pipeline
//! once and keeps both the compiled physical plan and its result;
//! [`PlanCache`] memoizes prepared queries by SQL text with LRU eviction,
//! and is `Sync` so one cache can serve every worker of a
//! [`batch_map`](crate::batch_map) fan-out.
//!
//! Both types are **borrow-free**: a [`PreparedQuery`] owns the
//! [`Snapshot`] it was prepared against instead of borrowing the database.
//! The snapshot pins every referenced table version, so the compiled
//! ordinals and the cached uncorrelated-subquery results stay valid no
//! matter how the live database is mutated — writers copy-on-write new
//! versions and never touch pinned ones. Compile-once/execute-many
//! therefore survives a concurrent insert stream, which is what the
//! annotation service (see [`crate::service`]) is built on. The [`PlanCache`]
//! in turn invalidates **per table version**: a cached plan is reused only
//! while every table it references is unchanged in the caller's snapshot,
//! so an insert into one table never evicts plans that only read others.

use std::collections::HashMap;

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bp_sql::Query;

use crate::cost::OptimizerStats;
use crate::error::{StorageError, StorageResult};
use crate::physical::{
    compile_query, exec_compiled, verify_plan, AccessPathStats, CompileOptions, ExecOptions,
    ExecStrategy, PhysQueryPlan, VerifierStats,
};
use crate::result::QueryResult;
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};

/// A query prepared against a pinned [`Snapshot`]: parsed **once** at
/// prepare time, planned + compiled **once** at the first planned call,
/// and — for results up to 4,096 cells — run **once** by the
/// planned engine, however many times (and from however many threads)
/// [`PreparedQuery::execute`] is called. Every call reads the pinned
/// snapshot, so results are byte-identical no matter what concurrent
/// writers do to the database the snapshot came from.
///
/// Compilation is lazy so that [`ExecStrategy::Legacy`] executions — which
/// re-interpret the stored AST and never touch a physical plan — neither
/// pay for compilation nor can fail on a query the interpreter would have
/// executed (keeping the legacy differential oracle exactly as strong as
/// direct interpretation). Parse errors still surface at prepare time;
/// plan/compile errors (and their cached outcome) surface at the first
/// planned execution.
///
/// Uncorrelated subquery results cached inside the compiled plan persist
/// across executions — safe because the owned snapshot is immutable, and a
/// deliberate win for batch grading (a `WHERE x > (SELECT AVG(..) ..)`
/// gold query computes its subquery once for the whole corpus, not once
/// per item). The planned outcome itself is memoized the same way; see
/// [`PreparedQuery::execute`].
pub struct PreparedQuery {
    snapshot: Snapshot,
    sql: String,
    query: Query,
    /// Normalized names of every table the query may read (a conservative
    /// superset from the SQL analyzer: CTE names that shadow base tables
    /// are included). Drives the plan cache's per-table invalidation.
    tables: Vec<String>,
    /// Lazily-compiled physical plan (or the planning/compilation error it
    /// raised, cached so repeats fail fast without recompiling).
    plan: OnceLock<StorageResult<PhysQueryPlan>>,
    /// Verifier outcome of the one compile this query performs (set exactly
    /// when `plan` is filled with a compiler result that was verified).
    verification: OnceLock<VerifierStats>,
    /// Whether [`PreparedQuery::take_verification`] already handed the
    /// outcome to a counter sink — verification is per *compile*, so
    /// cache-wide tallies must fold it once, not once per execution.
    verification_taken: AtomicBool,
    /// Whether [`PreparedQuery::take_optimizer`] already handed the
    /// optimizer's reorder/fallback tally to a counter sink — like
    /// verification, the optimizer runs per *compile*.
    optimizer_taken: AtomicBool,
    /// The planned engine's outcome, filled by the first planned call:
    /// `Some` holds it for later calls to clone, `None` records that the
    /// result exceeded `MEMO_MAX_CELLS`, so every call re-runs the plan.
    planned: OnceLock<Option<StorageResult<QueryResult>>>,
}

/// The largest planned result, in cells (rows × columns), that a
/// [`PreparedQuery`] keeps for later calls. A larger result is returned
/// and not kept. Results grading sees are small: over a seed-2026
/// `text2sql_eval` run of the pipeline benchmark the largest is 9,598
/// cells, the 99.9th percentile 2,730 and the 99th 192, so this bound
/// keeps almost every result while capping what one cached entry can hold.
const MEMO_MAX_CELLS: usize = 4096;

fn cells(result: &QueryResult) -> usize {
    result.rows.len().saturating_mul(result.columns.len())
}

impl PreparedQuery {
    /// Parse `sql` and pin `snapshot`. Parse errors surface here; planning
    /// and compilation are deferred to the first planned execution.
    pub fn new(snapshot: Snapshot, sql: &str) -> StorageResult<Self> {
        let query = bp_sql::parse_query(sql)?;
        let tables = bp_sql::analyze(&query).tables.into_iter().collect();
        Ok(PreparedQuery {
            snapshot,
            sql: sql.to_string(),
            query,
            tables,
            plan: OnceLock::new(),
            verification: OnceLock::new(),
            verification_taken: AtomicBool::new(false),
            optimizer_taken: AtomicBool::new(false),
            planned: OnceLock::new(),
        })
    }

    /// The SQL text this query was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The snapshot every execution reads.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Normalized names of the tables this query may read (conservative
    /// superset; sorted).
    pub fn referenced_tables(&self) -> &[String] {
        &self.tables
    }

    /// Whether executing against the pinned snapshot is indistinguishable
    /// from executing against `latest`: every table this query may read is
    /// the same version (the identical payload instance) in both. This is
    /// the plan cache's per-table invalidation test. Exact, not heuristic:
    /// shared payloads are never mutated in place, so payload identity ⇔
    /// same contents.
    pub fn is_current_for(&self, latest: &Snapshot) -> bool {
        if self.snapshot.same_tables(latest) {
            return true;
        }
        self.tables.iter().all(|name| {
            match (self.snapshot.table(name), latest.table(name)) {
                (Some(pinned), Some(current)) => pinned.same_version(current),
                (None, None) => true,
                // Created or dropped since prepare time — e.g. a compile
                // error cached against a missing table must re-resolve.
                _ => false,
            }
        })
    }

    /// The compiled physical plan, built — and statically verified — on
    /// first use. Verification is **always on** (not just under
    /// `debug_assertions`): every plan the prepared path can ever execute
    /// has passed [`verify_plan`], and a rejected plan surfaces as
    /// [`StorageError::PlanVerification`] instead of executing. The
    /// outcome is recorded once per compile for
    /// [`PreparedQuery::take_verification`].
    fn compiled(&self) -> StorageResult<&PhysQueryPlan> {
        self.plan
            .get_or_init(|| {
                let plan = compile_query(&self.snapshot, &self.query, CompileOptions::default())?;
                let violations = verify_plan(&self.snapshot, &plan);
                let _ = self.verification.set(VerifierStats {
                    plans_verified: 1,
                    violations: violations.len() as u64,
                });
                if violations.is_empty() {
                    Ok(plan)
                } else {
                    Err(StorageError::PlanVerification(
                        crate::physical::verify::render_violations(&violations),
                    ))
                }
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The verifier outcome for this query's one compile: `None` until the
    /// first planned execution compiles (legacy-only usage, or a
    /// parse/plan error that never produced a plan to verify).
    pub fn verification(&self) -> Option<VerifierStats> {
        self.verification.get().copied()
    }

    /// Like [`PreparedQuery::verification`], but **take-once**: the first
    /// call after compilation returns the outcome, every later call
    /// returns `None`. Counter sinks ([`PlanCache::record_verification`])
    /// call this after each execution so verification is tallied per
    /// compile, never inflated by re-executions of a cached plan.
    pub fn take_verification(&self) -> Option<VerifierStats> {
        let stats = *self.verification.get()?;
        // Relaxed is safe: exactly-once rests on the swap's RMW atomicity
        // (one caller sees false), and the value itself is published by the
        // OnceLock's own acquire/release — the flag orders nothing.
        if self.verification_taken.swap(true, Ordering::Relaxed) {
            None
        } else {
            Some(stats)
        }
    }

    /// The compiler's access-path tally for the compiled plan: how many
    /// table accesses it lowered onto a secondary index vs a full scan.
    /// `None` until the first planned execution compiles the plan, and for
    /// plans whose compilation failed.
    pub fn access_paths(&self) -> Option<AccessPathStats> {
        self.plan.get()?.as_ref().ok().map(|p| p.access_paths())
    }

    /// The optimizer's reorder/fallback tally for this query's one
    /// compile: how many join spines the cost model re-associated and how
    /// many join nodes stayed in syntactic order. `None` until the first
    /// planned execution compiles the plan, and for plans whose
    /// compilation failed.
    pub fn optimizer(&self) -> Option<OptimizerStats> {
        self.plan.get()?.as_ref().ok().map(|p| p.optimizer_stats())
    }

    /// Like [`PreparedQuery::optimizer`], but **take-once** (mirroring
    /// [`PreparedQuery::take_verification`]): the optimizer runs per
    /// compile, so cache-wide tallies fold its outcome exactly once no
    /// matter how many times the cached plan re-executes.
    pub fn take_optimizer(&self) -> Option<OptimizerStats> {
        let stats = self.optimizer()?;
        // Relaxed for the same reason as `take_verification`: the swap's
        // atomicity alone guarantees a single taker.
        if self.optimizer_taken.swap(true, Ordering::Relaxed) {
            None
        } else {
            Some(stats)
        }
    }

    /// The cost model's estimated output row count for the compiled plan.
    /// `None` until the plan compiles, for failed compiles, and for plan
    /// shapes the estimator declines to score.
    pub fn estimated_rows(&self) -> Option<u64> {
        self.plan
            .get()?
            .as_ref()
            .ok()
            .and_then(|p| p.estimated_rows())
    }

    /// Execute the prepared query against its pinned snapshot.
    ///
    /// [`ExecStrategy::Planned`] runs the (lazily) compiled physical plan
    /// **at most once**: the first call keeps its outcome, `Ok` or `Err`,
    /// and every later call returns a clone of it. A worker racing on a
    /// query no call has run yet waits for the first run instead of
    /// repeating it. The memo is exact, not a heuristic, because:
    ///
    /// * the query owns its pinned snapshot, which never changes;
    /// * one query always runs on the calling thread, so
    ///   [`ExecOptions::threads`] cannot change its result;
    /// * [`StorageError`] is a deterministic `Clone` value, so a kept
    ///   error is the error a re-run would raise.
    ///
    /// Any future [`ExecOptions`] field that can change a result (a row
    /// budget such as a `max_rows` limit, say) must become part of the
    /// memo's validity. A result over 4,096 cells (rows × columns) is
    /// returned and not kept, and every call re-runs it.
    ///
    /// [`ExecStrategy::Legacy`] re-interprets the stored AST with the
    /// tree-walking oracle on every call and never reads or fills the memo,
    /// so differential checks of a batch pipeline still run both engines
    /// independently.
    pub fn execute(&self, options: ExecOptions) -> StorageResult<QueryResult> {
        match options.strategy {
            ExecStrategy::Planned => {
                let run = || exec_compiled(&self.snapshot, self.compiled()?);
                let mut unkept = None;
                let memo = self.planned.get_or_init(|| {
                    let outcome = run();
                    match &outcome {
                        Ok(result) if cells(result) > MEMO_MAX_CELLS => {
                            unkept = Some(outcome);
                            None
                        }
                        _ => Some(outcome),
                    }
                });
                match (unkept, memo) {
                    (Some(outcome), _) => outcome,
                    (None, Some(outcome)) => outcome.clone(),
                    (None, None) => run(),
                }
            }
            ExecStrategy::Legacy => self.snapshot.execute(&self.query, options),
        }
    }
}

/// How many distinct SQL texts [`PlanCache::with_default_capacity`] keeps
/// compiled at once.
///
/// Sized to hold one Figure-1-shaped sweep: an 800-item corpus graded by
/// the four Figure 1 models through one shared cache looks up its gold
/// queries plus each model's distinct predictions, at most 1,785 distinct
/// texts over the benchmark's 16 corpora at two seeds. LRU is at its
/// worst when such a sweep cycles through a smaller cache once per model,
/// and no admission policy recovers the reuse a bound below the working
/// set loses; at this bound every text is prepared once per sweep. One
/// entry (plan, compiled form and cached subquery results) costs about
/// 12–15 KB of resident memory, plus its kept planned result (see
/// [`PreparedQuery::execute`]): at most 4,096 cells, at most 32 bytes per
/// value and 24 per row, so under 230 KB before text payloads. Grading
/// results are far smaller (99th percentile 192 cells; a full
/// `text2sql_eval` run of the pipeline benchmark peaks at about 85 MB
/// resident), but the adversarial worst case — 4,096 entries each holding
/// a 4,096-cell result — is about 1 GB plus text.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

/// Observable [`PlanCache`] behavior counters.
///
/// `hits + misses` equals the number of [`PlanCache::get`] calls and is
/// deterministic for a given workload; the hit/miss *split* (and the
/// miss-side duplicate compiles) can vary run to run under a parallel
/// fan-out, because two workers racing on the same cold key both miss.
/// `invalidations` counts cached entries discarded because a referenced
/// table changed version — the per-table invalidation satellite's
/// observability hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups served from a cached entry that was still current.
    pub hits: u64,
    /// Lookups that had to prepare (no entry, or just invalidated).
    pub misses: u64,
    /// Cached entries discarded because a referenced table's version moved.
    pub invalidations: u64,
}

/// Cardinality-drift counters: the cost model's estimated output rows vs
/// the rows executions actually produced, summed over every successful
/// call whose plan carried an estimate (a call answered from a kept result
/// counts like a fresh run). The totals are the
/// observability hook for the statistics layer — a healthy cost model
/// keeps the two sums the same order of magnitude; a drifting one shows up
/// here long before it shows up as a bad join order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CardinalityStats {
    /// Calls that carried an estimate (legacy runs, failed compiles and
    /// unestimated plan shapes contribute nothing).
    pub estimated_executions: u64,
    /// Sum of the cost model's estimated output rows over those executions.
    pub estimated_rows: u64,
    /// Sum of the rows those executions actually returned.
    pub actual_rows: u64,
}

/// One cache slot: the prepared query (or the parse error preparing it
/// raised, cached so a corrupt SQL text repeated across a corpus is not
/// re-parsed per occurrence; compile errors cache inside the prepared
/// query's lazy plan slot) plus its last-touched stamp for LRU eviction.
struct Slot {
    prepared: Result<Arc<PreparedQuery>, crate::error::StorageError>,
    last_used: u64,
}

/// A thread-safe LRU cache of [`PreparedQuery`]s keyed on SQL text, with
/// **per-table-version invalidation**.
///
/// The cache is borrow-free: each [`PlanCache::get`] takes the caller's
/// current [`Snapshot`], and a cached plan is returned only if every table
/// it references is the same version there ([`PreparedQuery::is_current_for`]).
/// A stale entry is discarded (counted in
/// [`PlanCacheStats::invalidations`]) and re-prepared against the caller's
/// snapshot — so the guarantee callers rely on is: **the returned prepared
/// query always reads exactly the tables of the snapshot passed in**.
/// Parse-error entries depend only on the SQL text and are never
/// invalidated.
///
/// The cache is a throughput optimization only: hits and misses return
/// byte-identical plans (and therefore byte-identical results) for a given
/// snapshot, so cache capacity and eviction order can never change what a
/// batch evaluation reports — only how fast it reports it.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

struct CacheInner {
    slots: HashMap<String, Slot>,
    clock: u64,
    stats: PlanCacheStats,
    counters: Counters,
}

/// The execution-side tallies folded in by [`PlanCache::execute`] (or the
/// individual `record_*` calls), summed with saturating adds: an estimate
/// saturated at `u64::MAX` pins its sum there instead of wrapping.
#[derive(Default)]
struct Counters {
    /// Per call: the split counts the plan's accesses once for every call
    /// that asked for its result, whether the call ran the plan or read
    /// the prepared query's kept result, so it is the same at every thread
    /// count.
    access: AccessPathStats,
    /// Per compile (take-once): `plans_verified` counts distinct compiles.
    verifier: VerifierStats,
    /// Per compile (take-once), like verification.
    optimizer: OptimizerStats,
    /// Per call, like the access split.
    cardinality: CardinalityStats,
}

impl Counters {
    fn add_access(&mut self, access: Option<AccessPathStats>) {
        if let Some(access) = access {
            let sum = &mut self.access;
            sum.index_scan = sum.index_scan.saturating_add(access.index_scan);
            sum.full_scan = sum.full_scan.saturating_add(access.full_scan);
        }
    }

    fn add_verification(&mut self, outcome: Option<VerifierStats>) {
        if let Some(stats) = outcome {
            let sum = &mut self.verifier;
            sum.plans_verified = sum.plans_verified.saturating_add(stats.plans_verified);
            sum.violations = sum.violations.saturating_add(stats.violations);
        }
    }

    fn add_optimizer(&mut self, outcome: Option<OptimizerStats>) {
        if let Some(stats) = outcome {
            let sum = &mut self.optimizer;
            sum.cost_based = sum.cost_based.saturating_add(stats.cost_based);
            sum.syntactic_fallback = sum
                .syntactic_fallback
                .saturating_add(stats.syntactic_fallback);
        }
    }

    fn add_cardinality(&mut self, estimated: Option<u64>, actual_rows: u64) {
        if let Some(estimated) = estimated {
            let sum = &mut self.cardinality;
            sum.estimated_executions = sum.estimated_executions.saturating_add(1);
            sum.estimated_rows = sum.estimated_rows.saturating_add(estimated);
            sum.actual_rows = sum.actual_rows.saturating_add(actual_rows);
        }
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` distinct SQL texts
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                slots: HashMap::new(),
                clock: 0,
                stats: PlanCacheStats::default(),
                counters: Counters::default(),
            }),
        }
    }

    /// An empty cache with [`DEFAULT_PLAN_CACHE_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Look up (or prepare and insert) the plan for `sql`, valid for
    /// `snapshot`. A cached entry is reused only if every table it
    /// references is unchanged in `snapshot`; otherwise it is invalidated
    /// and re-prepared, so the returned prepared query always reads
    /// `snapshot`'s table versions. Preparation errors are cached and
    /// re-returned just like successes. The lock is not held while
    /// compiling, so a slow compilation never stalls other workers' hits;
    /// two workers racing on the same missing key both compile
    /// (deterministically identical plans for equal snapshots) and the
    /// first insert wins.
    pub fn get(&self, snapshot: &Snapshot, sql: &str) -> StorageResult<Arc<PreparedQuery>> {
        {
            let mut inner = self.lock();
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(slot) = inner.slots.get(sql) {
                let current = match &slot.prepared {
                    Ok(prepared) => prepared.is_current_for(snapshot),
                    // Parse errors depend only on the text.
                    Err(_) => true,
                };
                if current {
                    let hit = slot.prepared.clone();
                    inner.slots.get_mut(sql).expect("slot exists").last_used = stamp;
                    inner.stats.hits += 1;
                    return hit;
                }
                inner.slots.remove(sql);
                inner.stats.invalidations += 1;
            }
            inner.stats.misses += 1;
        }
        let prepared = PreparedQuery::new(snapshot.clone(), sql).map(Arc::new);
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        let result = match inner.slots.get_mut(sql) {
            // A racing worker inserted first. Reuse its entry only if it is
            // current for *our* snapshot — callers must never receive a
            // plan pinning table versions other than the ones they asked
            // for — and overwrite it with ours otherwise.
            Some(slot) => {
                slot.last_used = stamp;
                let reusable = match &slot.prepared {
                    Ok(racer) => racer.is_current_for(snapshot),
                    Err(_) => true,
                };
                if !reusable {
                    slot.prepared = prepared;
                }
                slot.prepared.clone()
            }
            None => {
                inner.slots.insert(
                    sql.to_string(),
                    Slot {
                        prepared: prepared.clone(),
                        last_used: stamp,
                    },
                );
                prepared
            }
        };
        if inner.slots.len() > self.capacity {
            // Evict the least-recently-used entry (never the one just
            // touched: it carries the freshest stamp).
            if let Some(victim) = inner
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            {
                inner.slots.remove(&victim);
            }
        }
        result
    }

    /// Run `sql` against `snapshot` through the cache: [`PlanCache::get`],
    /// [`PreparedQuery::execute`], then fold every execution-side counter
    /// under one lock acquisition, once per call. A call answered from the
    /// prepared query's kept result folds exactly what a fresh run would,
    /// so no counter depends on which call ran the plan. Tallies are taken
    /// *after* the call so lazily-compiled plans report, and on the error
    /// path too (a failing residual predicate chose its access path at
    /// compile time all the same); cardinality drift is folded only for
    /// successful calls.
    /// Parse errors return before anything is folded. Session reads
    /// ([`crate::AnnotationSession::execute_sql`]) and backtranslation
    /// grading (`bp_metrics::grade_cached`) both run through here.
    pub fn execute(
        &self,
        snapshot: &Snapshot,
        sql: &str,
        options: ExecOptions,
    ) -> StorageResult<QueryResult> {
        let prepared = self.get(snapshot, sql)?;
        let result = prepared.execute(options);
        let mut inner = self.lock();
        let counters = &mut inner.counters;
        counters.add_access(prepared.access_paths());
        counters.add_verification(prepared.take_verification());
        counters.add_optimizer(prepared.take_optimizer());
        if let Ok(result) = &result {
            counters.add_cardinality(prepared.estimated_rows(), result.row_count() as u64);
        }
        result
    }

    /// A point-in-time copy of the hit/miss/invalidation counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.lock().stats
    }

    /// Fold one executed statement's access-path tally into the cache-wide
    /// counters, as [`PlanCache::execute`] does, for callers that drive
    /// [`PlanCache::get`] and [`PreparedQuery::execute`] themselves. Pass
    /// [`PreparedQuery::access_paths`]'s output after execution: `None`
    /// (never compiled: legacy strategy, parse/plan failure) contributes
    /// nothing.
    pub fn record_access(&self, access: Option<AccessPathStats>) {
        self.lock().counters.add_access(access);
    }

    /// How many table accesses the executed statements answered from a
    /// secondary index vs a full scan. Each call re-counts its plan's tally
    /// (cached plans and kept results included — the split counts calls,
    /// not compile events or engine runs).
    pub fn access_stats(&self) -> AccessPathStats {
        self.lock().counters.access
    }

    /// Fold one prepared query's **take-once** verifier outcome into the
    /// cache-wide counters. Pass [`PreparedQuery::take_verification`]'s
    /// output directly: `None` (not yet compiled, already tallied, or
    /// never produced a plan to verify) contributes nothing, so calling
    /// this after every execution still counts each compile exactly once.
    pub fn record_verification(&self, outcome: Option<VerifierStats>) {
        self.lock().counters.add_verification(outcome);
    }

    /// How many compiled plans the always-on verifier checked (once per
    /// compile, however often a cached plan re-executes), and how many
    /// violations it raised — always 0 unless a compiler bug slipped
    /// through, and a violation also fails the offending statement with
    /// [`StorageError::PlanVerification`].
    pub fn verifier_stats(&self) -> VerifierStats {
        self.lock().counters.verifier
    }

    /// Fold one prepared query's **take-once** optimizer outcome into the
    /// cache-wide counters. Pass [`PreparedQuery::take_optimizer`]'s
    /// output directly: `None` (not yet compiled, already tallied, legacy
    /// run, failed compile) contributes nothing.
    pub fn record_optimizer(&self, outcome: Option<OptimizerStats>) {
        self.lock().counters.add_optimizer(outcome);
    }

    /// How many join spines the cost model re-associated vs how many join
    /// nodes compiled in syntactic order, over every distinct compile the
    /// cache's statements forced.
    pub fn optimizer_stats(&self) -> OptimizerStats {
        self.lock().counters.optimizer
    }

    /// Fold one executed statement's estimated-vs-actual output row counts
    /// into the cache-wide drift counters. Call after each successful
    /// execution, passing [`PreparedQuery::estimated_rows`]'s output
    /// directly — `None` (no compiled plan, or a shape the estimator
    /// declines to score) contributes nothing.
    pub fn record_cardinality(&self, estimated: Option<u64>, actual_rows: u64) {
        self.lock().counters.add_cardinality(estimated, actual_rows);
    }

    /// Estimated vs actually-returned output rows, summed per *call* over
    /// every successful statement whose plan carried an estimate.
    pub fn cardinality_stats(&self) -> CardinalityStats {
        self.lock().counters.cardinality
    }

    /// Number of currently cached SQL texts (successes and cached errors).
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("plan cache lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::schema::{Column, TableSchema};
    use crate::value::Value;
    use bp_sql::DataType;

    fn db() -> Database {
        let mut db = Database::new("prep");
        db.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("v", DataType::Integer),
            ],
        ))
        .unwrap();
        db.insert_into("t", (0..50i64).map(|i| vec![i.into(), (i % 7).into()]))
            .unwrap();
        db
    }

    #[test]
    fn prepared_execution_matches_direct_execution_on_every_strategy() {
        let db = db();
        let sql =
            "SELECT v, COUNT(*) FROM t WHERE id > (SELECT AVG(id) FROM t) GROUP BY v ORDER BY v";
        let prepared = db.prepare(sql).expect("prepares");
        assert_eq!(prepared.sql(), sql);
        assert_eq!(prepared.referenced_tables(), ["T"]);
        for strategy in [ExecStrategy::Planned, ExecStrategy::Legacy] {
            let options = ExecOptions::new(strategy);
            let direct = db.execute_sql(sql, options).expect("direct executes");
            // Execute twice: the second run exercises the warmed subquery
            // cache inside the stored plan.
            for round in 0..2 {
                let via_prepared = prepared.execute(options).expect("prepared executes");
                assert_eq!(
                    direct, via_prepared,
                    "round {round} diverges under {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn prepared_query_survives_concurrent_inserts_on_every_strategy() {
        let mut db = db();
        let sql = "SELECT COUNT(*), MAX(v) FROM t";
        let prepared = db.prepare(sql).expect("prepares");
        let before: Vec<_> = [ExecStrategy::Planned, ExecStrategy::Legacy]
            .iter()
            .map(|s| prepared.execute(ExecOptions::new(*s)).expect("executes"))
            .collect();
        // The classic staleness hazard: a write while the prepared query is
        // alive. The snapshot pins the old version, so nothing changes.
        db.insert_into("t", vec![vec![100.into(), 999.into()]])
            .unwrap();
        for (i, strategy) in [ExecStrategy::Planned, ExecStrategy::Legacy]
            .iter()
            .enumerate()
        {
            let after = prepared
                .execute(ExecOptions::new(*strategy))
                .expect("executes");
            assert_eq!(before[i], after, "pinned read changed under {strategy:?}");
            assert_eq!(after.rows[0][0], Value::Int(50));
        }
        // A *fresh* prepare sees the write.
        let fresh = db.prepare(sql).expect("prepares");
        assert_eq!(
            fresh.execute(ExecOptions::default()).unwrap().rows[0][0],
            Value::Int(51)
        );
    }

    #[test]
    fn prepare_surfaces_parse_errors_and_defers_compile_errors() {
        let db = db();
        assert!(db.prepare("NOT REAL SQL").is_err());
        // An unplannable (but parseable) query prepares fine and fails at
        // the first *planned* execution — while the legacy interpreter,
        // which never needs a plan, reports its own error untouched by the
        // compiler. (Here both error; what matters is that Legacy's answer
        // comes from the interpreter, proven by the Planned error being
        // raised only on demand.)
        let prepared = db.prepare("SELECT x FROM missing").expect("parses");
        assert!(prepared
            .execute(ExecOptions::new(ExecStrategy::Planned))
            .is_err());
        let legacy = prepared.execute(ExecOptions::new(ExecStrategy::Legacy));
        let direct = db.execute_sql(
            "SELECT x FROM missing",
            ExecOptions::new(ExecStrategy::Legacy),
        );
        assert_eq!(legacy.is_err(), direct.is_err());
    }

    #[test]
    fn legacy_execution_never_compiles_a_plan() {
        let db = db();
        let prepared = db.prepare("SELECT COUNT(*) FROM t").expect("parses");
        prepared
            .execute(ExecOptions::new(ExecStrategy::Legacy))
            .expect("interpreter executes");
        assert!(
            prepared.plan.get().is_none(),
            "Legacy execution must not trigger plan compilation"
        );
        prepared
            .execute(ExecOptions::new(ExecStrategy::Planned))
            .expect("planned executes");
        assert!(prepared.plan.get().is_some());
    }

    #[test]
    fn planned_calls_return_the_kept_result() {
        let db = db();
        let prepared = db.prepare("SELECT COUNT(*) FROM t").expect("parses");
        assert!(prepared.planned.get().is_none(), "nothing runs at prepare");
        let first = prepared.execute(ExecOptions::serial()).expect("executes");
        assert_eq!(first.scalar(), Some(&Value::Int(50)));
        assert_eq!(prepared.planned.get(), Some(&Some(Ok(first.clone()))));
        assert_eq!(prepared.execute(ExecOptions::default()), Ok(first));
        // Later calls read the slot, not the engine: a planted outcome is
        // what they return.
        let planted = db.prepare("SELECT MAX(v) FROM t").expect("parses");
        let sentinel = QueryResult::empty(vec!["planted".into()]);
        assert!(planted.planned.set(Some(Ok(sentinel.clone()))).is_ok());
        assert_eq!(planted.execute(ExecOptions::serial()), Ok(sentinel));
    }

    #[test]
    fn legacy_calls_never_read_or_fill_the_memo() {
        let db = db();
        let prepared = db.prepare("SELECT MAX(v) FROM t").expect("parses");
        let legacy = ExecOptions::new(ExecStrategy::Legacy);
        let result = prepared.execute(legacy).expect("interprets");
        assert!(prepared.planned.get().is_none(), "Legacy filled the memo");
        let sentinel = QueryResult::empty(vec!["planted".into()]);
        assert!(prepared.planned.set(Some(Ok(sentinel))).is_ok());
        assert_eq!(prepared.execute(legacy), Ok(result.clone()));
        assert_eq!(result.scalar(), Some(&Value::Int(6)));
    }

    #[test]
    fn results_over_the_bound_are_returned_and_not_kept() {
        let db = db();
        // 2,500 rows × 4 columns = 10,000 cells.
        let prepared = db.prepare("SELECT * FROM t a, t b").expect("parses");
        let direct = db
            .execute_sql(prepared.sql(), ExecOptions::new(ExecStrategy::Legacy))
            .expect("interprets");
        assert!(cells(&direct) > MEMO_MAX_CELLS);
        for _ in 0..2 {
            assert_eq!(prepared.execute(ExecOptions::serial()), Ok(direct.clone()));
            assert_eq!(prepared.planned.get(), Some(&None), "the result was kept");
        }
    }

    #[test]
    fn a_kept_error_is_returned_unchanged() {
        let db = db();
        // Plans fine, fails at run time: the scalar subquery has 50 rows.
        let prepared = db
            .prepare("SELECT (SELECT id FROM t) FROM t")
            .expect("parses");
        let first = prepared
            .execute(ExecOptions::serial())
            .expect_err("a multi-row scalar subquery fails");
        assert_eq!(prepared.planned.get(), Some(&Some(Err(first.clone()))));
        assert_eq!(prepared.execute(ExecOptions::serial()), Err(first));
    }

    #[test]
    fn verification_runs_once_per_compile_and_is_taken_once() {
        let db = db();
        let prepared = db.prepare("SELECT COUNT(*) FROM t").expect("parses");
        // Nothing compiled yet → nothing verified, nothing to take.
        assert!(prepared.verification().is_none());
        assert!(prepared.take_verification().is_none());
        // Legacy execution never compiles, so it never verifies.
        prepared
            .execute(ExecOptions::new(ExecStrategy::Legacy))
            .unwrap();
        assert!(prepared.verification().is_none());
        // The first planned execution compiles and verifies exactly once.
        prepared.execute(ExecOptions::serial()).unwrap();
        let expected = VerifierStats {
            plans_verified: 1,
            violations: 0,
        };
        assert_eq!(prepared.verification(), Some(expected));
        assert_eq!(prepared.take_verification(), Some(expected));
        // Taken: later folds (e.g. after a re-execution) see None...
        prepared.execute(ExecOptions::serial()).unwrap();
        assert!(prepared.take_verification().is_none());
        // ...while the non-consuming accessor still reports.
        assert_eq!(prepared.verification(), Some(expected));
    }

    #[test]
    fn plan_cache_folds_verification_per_compile() {
        let db = db();
        let cache = PlanCache::new(8);
        let snapshot = db.snapshot();
        assert_eq!(cache.verifier_stats(), VerifierStats::default());
        let prepared = cache
            .get(&snapshot, "SELECT MAX(v) FROM t WHERE id > 10")
            .expect("prepares");
        prepared.execute(ExecOptions::serial()).unwrap();
        cache.record_verification(prepared.take_verification());
        // A second execution of the cached plan folds nothing new.
        prepared.execute(ExecOptions::serial()).unwrap();
        cache.record_verification(prepared.take_verification());
        assert_eq!(
            cache.verifier_stats(),
            VerifierStats {
                plans_verified: 1,
                violations: 0
            }
        );
    }

    #[test]
    fn plan_cache_hits_and_caches_errors() {
        let db = db();
        let cache = PlanCache::new(8);
        let snapshot = db.snapshot();
        let first = cache
            .get(&snapshot, "SELECT COUNT(*) FROM t")
            .expect("prepares");
        let second = cache
            .get(&snapshot, "SELECT COUNT(*) FROM t")
            .expect("hits");
        // Same compiled plan instance, not a recompile.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        // Errors cache too (one slot, same error each time).
        assert!(cache.get(&snapshot, "NOT REAL SQL").is_err());
        assert!(cache.get(&snapshot, "NOT REAL SQL").is_err());
        assert_eq!(cache.len(), 2);
        let result = first.execute(ExecOptions::serial()).expect("executes");
        assert_eq!(result.scalar(), Some(&Value::Int(50)));
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 2,
                misses: 2,
                invalidations: 0
            }
        );
    }

    #[test]
    fn plan_cache_invalidates_per_table_version() {
        let mut db = db();
        db.create_table(TableSchema::new(
            "other",
            vec![Column::new("id", DataType::Integer)],
        ))
        .unwrap();
        let cache = PlanCache::new(8);
        let on_t = cache
            .get(&db.snapshot(), "SELECT COUNT(*) FROM t")
            .expect("prepares");
        // A write to an *unrelated* table must not invalidate plans on t,
        // even though the whole-map fast path no longer applies.
        db.insert_into("other", vec![vec![1.into()]]).unwrap();
        let still_on_t = cache
            .get(&db.snapshot(), "SELECT COUNT(*) FROM t")
            .expect("hits");
        assert!(
            Arc::ptr_eq(&on_t, &still_on_t),
            "write to another table must not invalidate"
        );
        assert_eq!(cache.stats().invalidations, 0);
        // A write to t itself must.
        db.insert_into("t", vec![vec![100.into(), 0.into()]])
            .unwrap();
        let recompiled = cache
            .get(&db.snapshot(), "SELECT COUNT(*) FROM t")
            .expect("re-prepares");
        assert!(
            !Arc::ptr_eq(&on_t, &recompiled),
            "write to a referenced table must invalidate"
        );
        assert_eq!(
            recompiled.execute(ExecOptions::serial()).unwrap().scalar(),
            Some(&Value::Int(51)),
            "re-prepared plan reads the new version"
        );
        assert_eq!(
            on_t.execute(ExecOptions::serial()).unwrap().scalar(),
            Some(&Value::Int(50)),
            "the old prepared query still reads its pinned version"
        );
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 2,
                invalidations: 1
            }
        );
    }

    #[test]
    fn plan_cache_revalidates_compile_errors_when_the_table_appears() {
        let mut db = db();
        let cache = PlanCache::new(8);
        let sql = "SELECT id FROM latecomer";
        let prepared = cache.get(&db.snapshot(), sql).expect("parses fine");
        assert!(prepared.execute(ExecOptions::default()).is_err());
        // The table arrives; the cached compile failure must not stick.
        db.ingest_ddl("CREATE TABLE latecomer (id INT);").unwrap();
        db.insert_into("latecomer", vec![vec![7.into()]]).unwrap();
        let fresh = cache.get(&db.snapshot(), sql).expect("re-prepares");
        assert_eq!(
            fresh.execute(ExecOptions::default()).unwrap().rows,
            vec![vec![Value::Int(7)]]
        );
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let db = db();
        let snapshot = db.snapshot();
        let cache = PlanCache::new(2);
        cache.get(&snapshot, "SELECT 1").expect("a");
        cache.get(&snapshot, "SELECT 2").expect("b");
        // Touch "SELECT 1" so "SELECT 2" is the LRU victim.
        cache.get(&snapshot, "SELECT 1").expect("a again");
        cache.get(&snapshot, "SELECT 3").expect("c evicts b");
        assert_eq!(cache.len(), 2);
        let warm = cache.get(&snapshot, "SELECT 1").expect("still cached");
        let recompiled = cache
            .get(&snapshot, "SELECT 2")
            .expect("recompiled after eviction");
        assert_eq!(
            warm.execute(ExecOptions::serial()).unwrap().scalar(),
            Some(&Value::Int(1))
        );
        assert_eq!(
            recompiled.execute(ExecOptions::serial()).unwrap().scalar(),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn plan_cache_is_shareable_across_batch_workers() {
        let db = db();
        let snapshot = db.snapshot();
        let cache = PlanCache::with_default_capacity();
        let sqls = [
            "SELECT COUNT(*) FROM t",
            "SELECT MAX(v) FROM t",
            "SELECT COUNT(*) FROM t",
            "SELECT MIN(id) FROM t WHERE v = 3",
        ];
        let results = crate::physical::batch_map(4, 64, |i| {
            let prepared = cache.get(&snapshot, sqls[i % sqls.len()])?;
            prepared.execute(ExecOptions::serial())
        })
        .expect("all items execute");
        assert_eq!(results.len(), 64);
        assert_eq!(results[0].scalar(), Some(&Value::Int(50)));
        assert_eq!(results[1].scalar(), Some(&Value::Int(6)));
        assert!(cache.len() <= 3);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 64, "one get per item");
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn counter_sums_saturate_instead_of_wrapping() {
        // A saturated estimate must pin the sum at u64::MAX, not wrap it.
        let cache = PlanCache::with_default_capacity();
        cache.record_cardinality(Some(u64::MAX), 0);
        cache.record_cardinality(Some(u64::MAX), 0);
        let card = cache.cardinality_stats();
        assert_eq!(card.estimated_rows, u64::MAX);
        assert_eq!(card.estimated_executions, 2);
    }
}
