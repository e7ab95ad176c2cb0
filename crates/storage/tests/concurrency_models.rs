//! Sanitized concurrency model tests (`--features bp_sanitize`).
//!
//! Each test hands a small multi-threaded protocol body to the bp-sync
//! schedule explorer, which serializes the participating threads and
//! deterministically permutes which thread runs at every sync point. The
//! positive tests assert both "no SyncViolation across every explored
//! schedule" *and* the protocol's documented outcome on every schedule;
//! the negative tests plant a race / a lock-order inversion and assert the
//! sanitizer finds it at a pinned seed with both access sites reported.
//!
//! Knobs (used by ci.sh's sanitized sweep):
//! - `BP_SANITIZE_SEED`: base exploration seed (default pinned below).
//! - `BP_SANITIZE_ITERS`: schedules per protocol test (default 24).

#![cfg(feature = "bp_sanitize")]

use bp_storage::sync::atomic::{AtomicBool, Ordering};
use bp_storage::sync::sanitize::{explore, replay, ViolationKind};
use bp_storage::sync::{scope, Mutex};
use bp_storage::{
    batch_map, AnnotationService, Database, ExecOptions, PlanCache, Value, VerifierStats,
};

/// Base seed for the positive protocol sweeps; ci.sh overrides it per
/// sweep pass so fresh schedule prefixes keep being explored.
const DEFAULT_SEED: u64 = 0xb9_cafe;
/// Negative tests pin their own seed so the "found at a pinned seed"
/// acceptance assertions hold no matter what the sweep passes in.
const PINNED_SEED: u64 = 0xdead_beef;

fn sweep_seed() -> u64 {
    match std::env::var("BP_SANITIZE_SEED") {
        Ok(s) => {
            let seed = s.parse().expect("BP_SANITIZE_SEED must be a u64");
            eprintln!("bp-sync sweep: BP_SANITIZE_SEED={seed}");
            seed
        }
        Err(_) => DEFAULT_SEED,
    }
}

fn sweep_iters() -> usize {
    match std::env::var("BP_SANITIZE_ITERS") {
        Ok(s) => s.parse().expect("BP_SANITIZE_ITERS must be a usize"),
        Err(_) => 24,
    }
}

fn small_db() -> Database {
    let mut db = Database::new("model");
    db.ingest_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
        .expect("ddl");
    db.insert_into("t", (0..8i64).map(|i| vec![i.into(), (i % 3).into()]))
        .expect("rows");
    db
}

fn int_scalar(result: &bp_storage::QueryResult) -> i64 {
    match result.scalar() {
        Some(Value::Int(n)) => *n,
        other => panic!("expected integer scalar, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Protocol 1: PlanCache get/insert/evict/revalidate under concurrent get
// ---------------------------------------------------------------------------

#[test]
fn plan_cache_insert_evict_revalidate_under_concurrent_get() {
    let report = explore(sweep_seed(), sweep_iters(), || {
        let mut db = small_db();
        let snap_v1 = db.snapshot();
        db.insert_into("t", vec![vec![100.into(), 1.into()]])
            .expect("insert");
        let snap_v2 = db.snapshot();
        // Capacity 2 with three texts forces eviction; two snapshot
        // versions force invalidation/revalidation of shared entries.
        let cache = PlanCache::new(2);
        let sqls = [
            "SELECT COUNT(*) FROM t",
            "SELECT MAX(v) FROM t",
            "SELECT MIN(id) FROM t",
        ];
        scope(|s| {
            let old_reader = s.spawn(|| {
                for sql in sqls {
                    let prepared = cache.get(&snap_v1, sql).expect("prepares");
                    let result = prepared.execute(ExecOptions::serial()).expect("executes");
                    cache.record_access(prepared.access_paths());
                    cache.record_verification(prepared.take_verification());
                    assert_eq!(
                        int_scalar(&result),
                        match sql {
                            "SELECT COUNT(*) FROM t" => 8,
                            "SELECT MAX(v) FROM t" => 2,
                            _ => 0,
                        },
                        "v1 snapshot answer changed under concurrency: {sql}"
                    );
                }
            });
            let new_reader = s.spawn(|| {
                for sql in sqls {
                    let prepared = cache.get(&snap_v2, sql).expect("prepares");
                    let result = prepared.execute(ExecOptions::serial()).expect("executes");
                    cache.record_access(prepared.access_paths());
                    cache.record_verification(prepared.take_verification());
                    assert_eq!(
                        int_scalar(&result),
                        match sql {
                            "SELECT COUNT(*) FROM t" => 9,
                            "SELECT MAX(v) FROM t" => 2,
                            _ => 0,
                        },
                        "v2 snapshot answer changed under concurrency: {sql}"
                    );
                }
            });
            old_reader.join().expect("old reader");
            new_reader.join().expect("new reader");
        });
        // Capacity is a hard bound on every schedule.
        assert!(cache.len() <= 2, "LRU bound violated: {}", cache.len());
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 6, "one lookup per get");
    });
    report.assert_clean();
}

// ---------------------------------------------------------------------------
// Protocol 2: AnnotationSession::refresh vs a streaming writer install
// ---------------------------------------------------------------------------

#[test]
fn session_refresh_vs_streaming_writer() {
    let report = explore(sweep_seed() ^ 1, sweep_iters(), || {
        let service = AnnotationService::new(small_db());
        scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..3i64 {
                    service
                        .insert("t", vec![vec![(200 + i).into(), 1.into()]])
                        .expect("streamed insert");
                }
            });
            let reader = s.spawn(|| {
                let mut session = service.open_session();
                let before = int_scalar(
                    &session
                        .execute_sql("SELECT COUNT(*) FROM t", ExecOptions::default())
                        .expect("pinned read"),
                );
                // The pinned snapshot must be immune to the writer.
                let again = int_scalar(
                    &session
                        .execute_sql("SELECT COUNT(*) FROM t", ExecOptions::default())
                        .expect("pinned re-read"),
                );
                assert_eq!(before, again, "pinned snapshot moved under a writer");
                session.refresh();
                let after = int_scalar(
                    &session
                        .execute_sql("SELECT COUNT(*) FROM t", ExecOptions::default())
                        .expect("refreshed read"),
                );
                (before, after)
            });
            writer.join().expect("writer");
            let (before, after) = reader.join().expect("reader");
            // Monotone prefix of the insert stream, never a torn count.
            assert!(
                (8..=11).contains(&before) && after >= before && after <= 11,
                "non-monotone or torn counts: before={before} after={after}"
            );
        });
        // Quiescent state: everything installed is visible.
        let final_count = int_scalar(
            &service
                .open_session()
                .execute_sql("SELECT COUNT(*) FROM t", ExecOptions::default())
                .expect("final read"),
        );
        assert_eq!(final_count, 11);
    });
    report.assert_clean();
}

// ---------------------------------------------------------------------------
// Protocol 3: lazy index/stats OnceLock construction under parallel scans
// ---------------------------------------------------------------------------

#[test]
fn lazy_index_and_stats_caches_under_parallel_scans() {
    let report = explore(sweep_seed() ^ 2, sweep_iters(), || {
        let db = small_db();
        // Point lookup builds the per-column index lazily; the aggregates
        // build table stats / ordered indexes. Run both from two threads
        // against the same table version so the OnceLock fills race.
        scope(|s| {
            let probes = |tag: &'static str| {
                let point = int_scalar(
                    &db.execute_sql("SELECT v FROM t WHERE id = 3", ExecOptions::serial())
                        .expect("point lookup"),
                );
                assert_eq!(point, 0, "{tag}: point lookup wrong");
                let min = int_scalar(
                    &db.execute_sql("SELECT MIN(v) FROM t", ExecOptions::serial())
                        .expect("min aggregate"),
                );
                assert_eq!(min, 0, "{tag}: MIN wrong");
                let maxid = int_scalar(
                    &db.execute_sql("SELECT MAX(id) FROM t", ExecOptions::serial())
                        .expect("max aggregate"),
                );
                assert_eq!(maxid, 7, "{tag}: MAX wrong");
            };
            let a = s.spawn(move || probes("thread a"));
            let b = s.spawn(move || probes("thread b"));
            a.join().expect("thread a");
            b.join().expect("thread b");
        });
    });
    report.assert_clean();
}

// ---------------------------------------------------------------------------
// Protocol 4: batch_map first-error-in-input-order
// ---------------------------------------------------------------------------

#[test]
fn batch_map_reports_first_error_in_input_order() {
    let report = explore(sweep_seed() ^ 3, sweep_iters(), || {
        let ok: Vec<usize> = batch_map(2, 5, |i| Ok::<_, usize>(i * 2)).expect("no errors");
        assert_eq!(ok, vec![0, 2, 4, 6, 8], "task order broken");
        let err = batch_map::<usize, usize, _>(2, 6, |i| if i >= 3 { Err(i) } else { Ok(i) })
            .expect_err("tasks fail from 3");
        assert_eq!(err, 3, "not the first error in input order");
    });
    report.assert_clean();
}

// ---------------------------------------------------------------------------
// Satellite regression: the take-once counter pattern is exactly-once
// ---------------------------------------------------------------------------

#[test]
fn take_once_verification_is_exactly_once_under_concurrent_draining() {
    let report = explore(sweep_seed() ^ 4, sweep_iters(), || {
        let db = small_db();
        let prepared = db.prepare("SELECT COUNT(*) FROM t").expect("prepares");
        let taken: Vec<Option<VerifierStats>> = scope(|s| {
            let drain = || {
                prepared.execute(ExecOptions::serial()).expect("executes");
                prepared.take_verification()
            };
            let a = s.spawn(drain);
            let b = s.spawn(drain);
            vec![a.join().expect("a"), b.join().expect("b")]
        });
        let takers = taken.iter().flatten().count();
        assert_eq!(takers, 1, "take-once drained {takers} times: {taken:?}");
        assert_eq!(
            taken.iter().flatten().next(),
            Some(&VerifierStats {
                plans_verified: 1,
                violations: 0
            }),
            "the single drain lost the tally"
        );
    });
    report.assert_clean();
}

// ---------------------------------------------------------------------------
// Negative: a planted Relaxed read-then-act race is found at a pinned seed
// ---------------------------------------------------------------------------

#[test]
fn planted_relaxed_race_is_found_and_replays_at_a_pinned_seed() {
    // This is the pattern the `relaxed` audit promoted out of
    // `run_tasks`: a flag stored Relaxed on one thread and read Relaxed
    // on another, with the reader acting on what it saw.
    let body = || {
        let flag = AtomicBool::new(false);
        let data = Mutex::new(0u32);
        scope(|s| {
            let producer = s.spawn(|| {
                *data.lock().expect("data lock") = 42;
                flag.store(true, Ordering::Relaxed);
            });
            let consumer = s.spawn(|| {
                if flag.load(Ordering::Relaxed) {
                    assert_eq!(*data.lock().expect("data lock"), 42);
                }
            });
            producer.join().expect("producer");
            consumer.join().expect("consumer");
        });
    };
    let report = explore(PINNED_SEED, 32, body);
    assert!(
        !report.is_clean(),
        "the planted Relaxed race must be detected"
    );
    let race = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::Race)
        .expect("a Race violation is reported");
    // Both access sites point into this file, with the clocks attached.
    assert!(
        race.first.site.contains("concurrency_models.rs"),
        "first site missing: {race}"
    );
    assert!(
        race.second.site.contains("concurrency_models.rs"),
        "second site missing: {race}"
    );
    assert!(
        race.primitive.contains("AtomicBool"),
        "wrong primitive: {race}"
    );
    assert_ne!(race.first.thread, race.second.thread, "sites on one thread");
    assert!(
        !race.first.clock.is_empty() && !race.second.clock.is_empty(),
        "clocks missing: {race}"
    );
    // The failing schedule replays: the exact seed reproduces the race.
    let failing = report.failing_seed.expect("failing seed recorded");
    let replayed = replay(failing, body);
    assert!(
        replayed
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Race),
        "replay({failing:#x}) did not reproduce the race"
    );
}

// ---------------------------------------------------------------------------
// Negative: an AB-BA lock-order inversion is reported as a cycle
// ---------------------------------------------------------------------------

#[test]
fn ab_ba_lock_order_inversion_is_detected() {
    let report = explore(PINNED_SEED ^ 7, 32, || {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        scope(|s| {
            let t1 = s.spawn(|| {
                let ga = a.lock().expect("a");
                let gb = b.lock().expect("b");
                drop(gb);
                drop(ga);
            });
            let t2 = s.spawn(|| {
                let gb = b.lock().expect("b");
                let ga = a.lock().expect("a");
                drop(ga);
                drop(gb);
            });
            t1.join().expect("t1");
            t2.join().expect("t2");
        });
    });
    let cycle = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::LockOrderCycle)
        .expect("a LockOrderCycle violation is reported");
    assert!(
        cycle.primitive.contains("Mutex"),
        "wrong primitive: {cycle}"
    );
    assert!(
        cycle.detail.contains("acquisition-order cycle"),
        "cycle path missing: {cycle}"
    );
    // Schedules that actually wedge are reported (and survived) too.
    assert!(
        report.deadlocked_schedules <= report.schedules_run,
        "bookkeeping broke"
    );
}

// ---------------------------------------------------------------------------
// Determinism: the same seed replays the same interleavings and findings
// ---------------------------------------------------------------------------

#[test]
fn same_seed_produces_identical_reports() {
    let body = || {
        let flag = AtomicBool::new(false);
        scope(|s| {
            let t1 = s.spawn(|| flag.store(true, Ordering::Relaxed));
            let t2 = s.spawn(|| {
                let _ = flag.load(Ordering::Relaxed);
            });
            t1.join().expect("t1");
            t2.join().expect("t2");
        });
    };
    let first = explore(PINNED_SEED ^ 21, 16, body);
    let second = explore(PINNED_SEED ^ 21, 16, body);
    assert_eq!(first.schedules_run, second.schedules_run);
    assert_eq!(first.failing_seed, second.failing_seed);
    assert_eq!(
        first.violations, second.violations,
        "non-deterministic findings"
    );
    assert_eq!(first.deadlocked_schedules, second.deadlocked_schedules);
    // And a different seed explores a different schedule set (the planted
    // race is still found, but through its own derivation chain).
    let other = explore(PINNED_SEED ^ 22, 16, body);
    assert_eq!(other.schedules_run, 16);
}

// ---------------------------------------------------------------------------
// Informational: instrumentation overhead probe for BENCH_exec.json
// ---------------------------------------------------------------------------

/// Times the plan-cache protocol body plain (no session: the fast-path
/// short-circuit) vs schedule-explored, and writes the fragment that
/// `exec_bench` folds into `BENCH_exec.json` as `sanitizer_overhead`
/// (informational, `meets_target: null`) when
/// `BP_SANITIZER_OVERHEAD_OUT` is set (ci.sh sets it).
#[test]
fn sanitizer_overhead_probe() {
    let body = || {
        let db = small_db();
        let snapshot = db.snapshot();
        let cache = PlanCache::new(2);
        scope(|s| {
            let worker = |tag: &'static str| {
                for sql in ["SELECT COUNT(*) FROM t", "SELECT MAX(v) FROM t"] {
                    let prepared = cache.get(&snapshot, sql).expect("prepares");
                    let result = prepared.execute(ExecOptions::serial()).expect("executes");
                    assert!(int_scalar(&result) >= 2, "{tag}: bad scalar");
                }
            };
            let a = s.spawn(move || worker("a"));
            let b = s.spawn(move || worker("b"));
            a.join().expect("a");
            b.join().expect("b");
        });
    };
    let iterations = 8u32;
    let plain_start = std::time::Instant::now();
    for _ in 0..iterations {
        body();
    }
    let plain_ms = plain_start.elapsed().as_secs_f64() * 1e3;
    let instrumented_start = std::time::Instant::now();
    explore(sweep_seed() ^ 5, iterations as usize, body).assert_clean();
    let instrumented_ms = instrumented_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "sanitizer overhead: plain {plain_ms:.1}ms vs instrumented {instrumented_ms:.1}ms \
         over {iterations} runs"
    );
    if let Ok(path) = std::env::var("BP_SANITIZER_OVERHEAD_OUT") {
        let fragment = format!(
            "instrumented_ms={instrumented_ms:.3}\nplain_ms={plain_ms:.3}\niterations={iterations}\n"
        );
        std::fs::write(&path, fragment).expect("write overhead fragment");
        eprintln!("sanitizer overhead fragment written to {path}");
    }
}
