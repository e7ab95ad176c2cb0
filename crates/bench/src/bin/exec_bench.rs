//! `exec_bench` — wall-clock comparison of the planned query engine vs the
//! legacy tree-walking interpreter and of parallel vs serial planned
//! execution, recorded as `BENCH_exec.json`.
//!
//! Six headline measurements:
//!
//! 1. **Planned vs legacy**: a two-table foreign-key equi-join over a
//!    corpus generated at the `CorpusScale::Large` setting (32× rows),
//!    where the interpreter's nested loop is quadratic and the planned
//!    engine's hash join is linear; the acceptance target is a ≥5×
//!    speedup.
//! 2. **Parallel vs serial planned**: the full Large-scale equi-join
//!    workload (every foreign-key join in the corpus, wide projection) run
//!    single-threaded and then on the morsel-driven parallel executor at
//!    the machine's hardware parallelism. On ≥4 cores the acceptance
//!    target is a ≥1.5× speedup, measured **uniformly best-of-3** like
//!    every enforced gate in this binary (absorbing transient load on
//!    shared runners; only a miss on every round fails the binary, and
//!    `measure_rounds` records the same N for every enforced gate). Below
//!    4 cores the comparison still runs and is recorded, but the gate is
//!    skipped (there is no parallelism to win) and `meets_target` is
//!    recorded as `null` — an unenforced gate is "not measured", never a
//!    regression.
//! 3. **Batch vs serial grading** (`pipeline_throughput`): execution-
//!    accuracy grading of a Large-scale item set through `bp_llm`'s
//!    inter-query batch pipeline (prepared-plan LRU cache + deterministic
//!    work-stealing fan-out over items) at full parallelism vs the same
//!    pipeline pinned to one worker. Reports are asserted byte-identical
//!    across thread counts before timing. On ≥4 cores the acceptance
//!    target is a ≥2× speedup (best-of-3 rounds); below 4 cores the
//!    comparison is recorded with the gate skipped and `meets_target:
//!    null`.
//! 4. **Grading under a streaming writer** (`concurrent_read_write`): the
//!    same session-based grading pass through the `AnnotationService` —
//!    snapshot-pinned reads via the shared version-invalidating plan cache
//!    — timed alone (baseline) and with a writer streaming single-row
//!    inserts into the hottest corpus table for the whole pass. The gated
//!    quantity is the throughput *ratio* (baseline / under-writer): on ≥4
//!    cores sustained grading must keep ≥0.5× of its uncontended
//!    throughput (i.e. the writer may cost at most 2×), best-of-3 rounds;
//!    p99 per-statement latency under the writer is recorded alongside.
//!    Below 4 cores readers and the writer time-slice the same core, so
//!    the gate is skipped and `meets_target` recorded as `null`. Before
//!    timing, a batch executed under the racing writer is asserted
//!    byte-identical to a serial run against the session's pinned
//!    snapshot. The service's access-path counters (index-answered vs
//!    full-scan table accesses across every graded statement) are recorded
//!    alongside the plan-cache counters.
//! 5. **Index point lookups vs forced full scans**
//!    (`index_point_lookup`): primary-key point lookups over every corpus
//!    table at Large scale, each query compiled twice against the same
//!    snapshot — once with plan-time fast paths (hash-index probe) and
//!    once with fast paths disabled (full columnar scan + filter kernel).
//!    Both compilations execute byte-identically before timing; the
//!    acceptance target is a ≥10× speedup for the indexed side. The gate
//!    is core-count independent (the probes run single-threaded), so it is
//!    always enforced — `meets_target` is never `null` here.
//! 6. **Cost-based vs syntactic join order** (`join_order_workload`): a
//!    three-table equi-join chain written in a pathological syntactic
//!    order — the first two tables join on a low-cardinality key (a 64-way
//!    fan-out producing a ~262k-row intermediate) while the third table is
//!    tiny and would shrink the chain to 8 rows if joined first. The same
//!    query is compiled twice against the same snapshot: once with the
//!    statistics-driven join reorderer (`cost_based: true`) and once
//!    pinned to syntactic order (`cost_based: false`). Both plans execute
//!    byte-identically before timing (association-only reordering
//!    preserves output order exactly). The acceptance target is a ≥3×
//!    speedup for the cost-based plan; the comparison is single-threaded,
//!    so the gate is core-count independent and always enforced.
//!
//! Results from every engine/thread-count combination are asserted
//! identical before timings are trusted. Every enforced gate measures
//! uniformly best-of-N (see `measure_gated`).
//!
//! Run with: `cargo run --release -p bp-bench --bin exec_bench`
//! (CI runs this and archives `BENCH_exec.json`; see `ci.sh`.)

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bp_datasets::{BenchmarkKind, CorpusScale, GeneratedBenchmark};
use bp_llm::{evaluate_execution_accuracy_opts, EvalItem, ModelKind};
use bp_sql::{DataType, Query};
use bp_storage::{
    available_threads, batch_map, compile_query_opts, compile_query_with, exec_compiled,
    verify_plan, AnnotationService, Column, CompileOptions, Database, ExecOptions, ExecStrategy,
    PhysQueryPlan, TableSchema, Value,
};
use serde::Serialize;

#[derive(Serialize)]
struct JoinMeasurement {
    sql: String,
    rows_per_table: usize,
    output_rows: usize,
    legacy_ms: f64,
    planned_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct WorkloadMeasurement {
    kind: String,
    scale: String,
    queries: usize,
    legacy_ms: f64,
    planned_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ParallelMeasurement {
    scale: String,
    queries: usize,
    threads: usize,
    cores: usize,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    speedup_target: f64,
    /// Whether the ≥4-core gate was enforced on this machine.
    gate_applied: bool,
    /// Measurement rounds taken: uniform best-of-N whether or not the
    /// gate applies, so recorded-only runs stay comparable to gated ones.
    measure_rounds: usize,
    /// Gate outcome; `null` whenever `gate_applied` is false (the skip is
    /// "not measured", not a miss, so BENCH trajectories on small runners
    /// never read as regressions).
    meets_target: Option<bool>,
}

/// Batch vs serial execution-accuracy grading through the prepared-query
/// pipeline (`pipeline_throughput`).
#[derive(Serialize)]
struct PipelineMeasurement {
    scale: String,
    /// Number of evaluation items graded per pass.
    items: usize,
    threads: usize,
    cores: usize,
    /// The simulated model profile being graded.
    model: String,
    /// One batch worker (inter-query fan-out disabled).
    serial_ms: f64,
    /// Full worker pool.
    batch_ms: f64,
    speedup: f64,
    speedup_target: f64,
    /// Whether the ≥4-core gate was enforced on this machine.
    gate_applied: bool,
    /// Measurement rounds taken for the gated comparison (best-of-N).
    measure_rounds: usize,
    /// Gate outcome; `null` whenever `gate_applied` is false (the skip is
    /// "not measured", never a regression).
    meets_target: Option<bool>,
}

/// Session-based grading throughput with and without a concurrent writer
/// streaming inserts through the `AnnotationService`
/// (`concurrent_read_write`).
#[derive(Serialize)]
struct ConcurrentMeasurement {
    scale: String,
    /// Statements graded per pass.
    statements: usize,
    threads: usize,
    cores: usize,
    /// One grading pass, no writer (best round), milliseconds.
    baseline_ms: f64,
    /// The same pass with the writer streaming (best round), milliseconds.
    under_writer_ms: f64,
    /// `baseline_ms / under_writer_ms` — the gated quantity: the fraction
    /// of uncontended throughput sustained under the writer.
    throughput_ratio: f64,
    /// Grading statements per second under the writer (best round).
    grading_qps_under_writer: f64,
    /// p99 per-statement latency under the writer, milliseconds.
    p99_latency_ms: f64,
    /// Rows the writer streamed during the best round's timed passes.
    writer_rows: usize,
    /// Plan-cache counters accumulated by the service across the whole
    /// benchmark (hits/misses/invalidations; invalidations are the
    /// per-table-version recompiles the writer forced).
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    /// Access-path counters the service accumulated across the whole
    /// benchmark: table accesses answered from a secondary index vs full
    /// scans, per executed statement (cached plans re-count per execution).
    access_index_scans: u64,
    access_full_scans: u64,
    ratio_target: f64,
    /// Whether the ≥4-core gate was enforced on this machine.
    gate_applied: bool,
    /// Measurement rounds taken (best-of-N).
    measure_rounds: usize,
    /// Gate outcome; `null` whenever `gate_applied` is false.
    meets_target: Option<bool>,
}

/// Index-backed point lookups vs the same queries with fast paths
/// disabled (`index_point_lookup`).
#[derive(Serialize)]
struct IndexMeasurement {
    scale: String,
    /// Point-lookup queries in the set (spread over every corpus table's
    /// integer primary key).
    lookups: usize,
    rows_per_table: usize,
    /// Rows the whole lookup set returns (sanity: the probes hit).
    output_rows: usize,
    /// The lookup set compiled with fast paths disabled — full columnar
    /// scan + filter kernel per query (best round), milliseconds.
    full_scan_ms: f64,
    /// The same queries compiled onto the hash index (best round),
    /// milliseconds.
    index_ms: f64,
    speedup: f64,
    speedup_target: f64,
    /// Always true: the probes run single-threaded, so the gate does not
    /// depend on core count.
    gate_applied: bool,
    /// Measurement rounds taken (uniform best-of-N).
    measure_rounds: usize,
    /// Gate outcome (never `null`: the gate always applies).
    meets_target: Option<bool>,
}

/// Cost-based join reordering vs syntactic join order on a pathological
/// multi-join chain (`join_order_workload`).
#[derive(Serialize)]
struct JoinOrderMeasurement {
    sql: String,
    /// Rows in each of the two large chain tables (the third is tiny by
    /// construction — that asymmetry is what the reorderer exploits).
    rows_per_large_table: usize,
    /// Rows in the deliberately tiny tail table.
    rows_in_tiny_table: usize,
    /// Rows the query returns (identical for both plans, asserted).
    output_rows: usize,
    /// The query compiled in syntactic order (best round), milliseconds.
    syntactic_ms: f64,
    /// The same query compiled with the cost-based reorderer (best
    /// round), milliseconds.
    cost_based_ms: f64,
    speedup: f64,
    speedup_target: f64,
    /// Always true: the comparison runs single-threaded, so the gate does
    /// not depend on core count.
    gate_applied: bool,
    /// Measurement rounds taken (uniform best-of-N).
    measure_rounds: usize,
    /// Gate outcome (never `null`: the gate always applies).
    meets_target: Option<bool>,
}

/// Per-plan cost of the always-on plan verifier (`verify_plan`), measured
/// over the compiled plans this benchmark already built. Informational
/// only — there is no speedup to gate, just an overhead number to watch —
/// so `meets_target` is always `null` and the entry never fails the build.
#[derive(Serialize)]
struct VerifyMeasurement {
    /// Plans verified per timed pass (workload + point-lookup plans, both
    /// fast-path and forced-scan compilations).
    plans: usize,
    /// One full pass over every plan (median of several), milliseconds.
    pass_ms: f64,
    /// `pass_ms / plans`, microseconds — the per-compile overhead the
    /// prepared-query path pays for verification.
    per_plan_us: f64,
    /// Violations seen across all plans: always 0 on a healthy build (a
    /// non-zero count here means the compiler shipped a miscompile).
    violations: usize,
    /// Never gated; recorded for shape-compatibility with gated entries.
    meets_target: Option<bool>,
}

/// Wall-clock cost of the `bp_sanitize` schedule explorer relative to the
/// same protocol body run plain, as measured by the sanitized model-test
/// lane (`sanitizer_overhead_probe`) and handed over through a small
/// `key=value` fragment file. Informational only — the sanitizer never
/// runs in release builds, so there is nothing to gate — but recording it
/// keeps instrumentation creep observable, and `fragment_found: false`
/// makes a skipped sanitized lane visible instead of silent.
#[derive(Serialize)]
struct SanitizerMeasurement {
    /// Whether the fragment written by the sanitized model tests was found
    /// (ci.sh runs them with `BP_SANITIZER_OVERHEAD_OUT` before this bench).
    fragment_found: bool,
    /// Schedule-explored runs of the plan-cache model protocol, total ms.
    instrumented_ms: Option<f64>,
    /// The same runs through the transparent fast path, total ms.
    plain_ms: Option<f64>,
    /// `instrumented_ms / plain_ms`.
    overhead_ratio: Option<f64>,
    /// Protocol runs timed on each side.
    iterations: Option<u64>,
    /// What the numbers mean, or why they are absent.
    note: String,
    /// Never gated; recorded for shape-compatibility with gated entries.
    meets_target: Option<bool>,
}

#[derive(Serialize)]
struct ExecBenchReport {
    bench: String,
    unix_time: u64,
    join_scale: String,
    two_table_equi_join: JoinMeasurement,
    workload: WorkloadMeasurement,
    parallel_equi_join_workload: ParallelMeasurement,
    pipeline_throughput: PipelineMeasurement,
    concurrent_read_write: ConcurrentMeasurement,
    index_point_lookup: IndexMeasurement,
    join_order_workload: JoinOrderMeasurement,
    plan_verification: VerifyMeasurement,
    sanitizer_overhead: SanitizerMeasurement,
    speedup_target: f64,
    meets_target: bool,
}

/// Parse the overhead fragment the sanitized model tests leave at
/// `target/sanitizer_overhead.txt` (plain `key=value` lines — the fragment
/// is written by a test binary, so no JSON round-trip to depend on).
fn read_sanitizer_overhead() -> SanitizerMeasurement {
    let absent = |note: String| SanitizerMeasurement {
        fragment_found: false,
        instrumented_ms: None,
        plain_ms: None,
        overhead_ratio: None,
        iterations: None,
        note,
        meets_target: None,
    };
    let path = std::path::Path::new("target/sanitizer_overhead.txt");
    let Ok(text) = std::fs::read_to_string(path) else {
        return absent(
            "no target/sanitizer_overhead.txt — run the sanitized model tests with \
             BP_SANITIZER_OVERHEAD_OUT set (ci.sh does) before this bench"
                .into(),
        );
    };
    let mut instrumented_ms = None;
    let mut plain_ms = None;
    let mut iterations = None;
    for line in text.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        match key.trim() {
            "instrumented_ms" => instrumented_ms = value.trim().parse::<f64>().ok(),
            "plain_ms" => plain_ms = value.trim().parse::<f64>().ok(),
            "iterations" => iterations = value.trim().parse::<u64>().ok(),
            _ => {}
        }
    }
    let overhead_ratio = match (instrumented_ms, plain_ms) {
        (Some(i), Some(p)) if p > 0.0 => Some(i / p),
        _ => None,
    };
    if instrumented_ms.is_none() || plain_ms.is_none() {
        return absent("target/sanitizer_overhead.txt exists but is malformed".into());
    }
    SanitizerMeasurement {
        fragment_found: true,
        instrumented_ms,
        plain_ms,
        overhead_ratio,
        iterations,
        note: "schedule-explored vs plain wall time of the plan-cache model protocol \
               (informational, ungated; sanitizer code never runs in release builds)"
            .into(),
        meets_target: None,
    }
}

/// Median wall-clock milliseconds over `iters` runs of `f`, after one
/// untimed warm-up run. For even sample counts the lower median is used so
/// a single slow outlier cannot inflate the reported time.
fn time_ms<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[(samples.len() - 1) / 2]
}

/// Outcome of a best-of-N gated speedup measurement.
struct GatedMeasurement {
    /// Baseline (slow side) of the best round, milliseconds.
    baseline_ms: f64,
    /// Contender (fast side) of the best round, milliseconds.
    contender_ms: f64,
    /// Best observed speedup (`baseline / contender`).
    speedup: f64,
    /// Rounds actually taken.
    rounds: usize,
    /// Gate outcome; `None` when the gate did not apply.
    meets_target: Option<bool>,
}

/// Run `round()` (returning `(baseline_ms, contender_ms)`) `max_rounds`
/// times, keeping the round with the best speedup — **uniform best-of-N**:
/// every comparison, enforced or merely recorded, takes the same number of
/// rounds, so a `measure_rounds` entry in `BENCH_exec.json` cannot flip
/// between 1 and N on first-round luck and recorded ratios on small
/// runners are exactly as robust to transient load as the enforced gates
/// they will be compared against once the machine grows cores. Shared by
/// every gated comparison so the retry/skip semantics cannot drift apart.
fn measure_gated(
    label: &str,
    target: f64,
    max_rounds: usize,
    gate_applied: bool,
    mut round: impl FnMut() -> (f64, f64),
) -> GatedMeasurement {
    let (mut baseline_ms, mut contender_ms) = (f64::INFINITY, f64::INFINITY);
    let mut best_speedup = 0.0;
    let mut rounds = 0;
    while rounds < max_rounds {
        rounds += 1;
        let (baseline, contender) = round();
        let speedup = baseline / contender.max(1e-6);
        if speedup > best_speedup {
            baseline_ms = baseline;
            contender_ms = contender;
            best_speedup = speedup;
        }
        if gate_applied && rounds < max_rounds && best_speedup < target {
            println!(
                "{label} speedup {speedup:.2}x below {target}x after round \
                 {rounds}/{max_rounds}; re-measuring"
            );
        }
    }
    GatedMeasurement {
        baseline_ms,
        contender_ms,
        speedup: best_speedup,
        rounds,
        // Only an *enforced* gate records an outcome: on <4-core machines
        // the comparison is informational and `meets_target` stays null,
        // so BENCH trajectories on small runners never read as regressions.
        meets_target: gate_applied.then_some(best_speedup >= target),
    }
}

/// The first two-table foreign-key equi-join over the corpus schema.
fn equi_join_query(db: &Database) -> (String, Query) {
    for table in db.tables() {
        for column in &table.schema.columns {
            if let Some((parent, pk)) = &column.references {
                let sql = format!(
                    "SELECT c.{fk}, p.{pk} FROM {child} c JOIN {parent} p ON c.{fk} = p.{pk}",
                    fk = column.name,
                    child = table.schema.name,
                );
                let query = bp_sql::parse_query(&sql).expect("generated join SQL parses");
                return (sql, query);
            }
        }
    }
    panic!("generated corpus always has foreign keys");
}

/// Every foreign-key equi-join in the corpus with a wide (`c.*, p.*`)
/// projection — the parallel executor's workload: enough per-row
/// materialization work for the morsel pool to amortize.
fn equi_join_workload(db: &Database) -> Vec<Query> {
    let mut queries = Vec::new();
    for table in db.tables() {
        for column in &table.schema.columns {
            if let Some((parent, pk)) = &column.references {
                let sql = format!(
                    "SELECT c.*, p.* FROM {child} c JOIN {parent} p ON c.{fk} = p.{pk}",
                    fk = column.name,
                    child = table.schema.name,
                );
                queries.push(bp_sql::parse_query(&sql).expect("generated join SQL parses"));
            }
        }
    }
    assert!(
        !queries.is_empty(),
        "generated corpus always has foreign keys"
    );
    queries
}

fn main() {
    const TARGET: f64 = 5.0;
    const PARALLEL_TARGET: f64 = 1.5;
    const PARALLEL_GATE_MIN_CORES: usize = 4;
    const PARALLEL_GATE_ROUNDS: usize = 3;

    // --- Headline 1: two-table equi-join, planned vs legacy -------------
    let join_scale = CorpusScale::Large;
    println!(
        "generating Spider corpus at scale '{}' ({}x rows)...",
        join_scale.name(),
        join_scale.row_factor()
    );
    let large = GeneratedBenchmark::generate_scaled(BenchmarkKind::Spider, 4, 7, join_scale);
    let (join_sql, join_query) = equi_join_query(&large.database);
    println!("join query: {join_sql}");

    let planned_result = large
        .database
        .execute_opts(&join_query, ExecOptions::serial())
        .expect("planned join executes");
    let legacy_result = large
        .database
        .execute_with(&join_query, ExecStrategy::Legacy)
        .expect("legacy join executes");
    assert_eq!(
        legacy_result, planned_result,
        "engines must agree before timings mean anything"
    );

    let planned_ms = time_ms(9, || {
        large
            .database
            .execute_opts(&join_query, ExecOptions::serial())
            .unwrap()
    });
    // The nested loop is quadratic here; one timed run after the warm-up
    // keeps the binary's runtime bounded.
    let legacy_ms = time_ms(1, || {
        large
            .database
            .execute_with(&join_query, ExecStrategy::Legacy)
            .unwrap()
    });
    let join_speedup = legacy_ms / planned_ms.max(1e-6);
    println!(
        "two-table equi-join @ {} rows/table: legacy {legacy_ms:.1} ms, planned {planned_ms:.1} ms -> {join_speedup:.0}x",
        large.profile.rows_per_table
    );

    // --- Headline 2: Large equi-join workload, parallel vs serial -------
    let threads = available_threads();
    let cores = threads;
    let workload_queries = equi_join_workload(&large.database);
    let serial_opts = ExecOptions::serial();
    let parallel_opts = ExecOptions::default().with_threads(threads);
    for query in &workload_queries {
        let serial = large
            .database
            .execute_opts(query, serial_opts)
            .expect("serial planned executes workload join");
        let parallel = large
            .database
            .execute_opts(query, parallel_opts)
            .expect("parallel planned executes workload join");
        assert_eq!(
            serial, parallel,
            "parallel output must be byte-identical to serial"
        );
    }
    let gate_applied = cores >= PARALLEL_GATE_MIN_CORES;
    // Every round is a full median-of-5 measurement of both engines (see
    // `measure_gated` for the best-of-N retry semantics).
    let parallel_gate = measure_gated(
        "parallel",
        PARALLEL_TARGET,
        PARALLEL_GATE_ROUNDS,
        gate_applied,
        || {
            let serial = time_ms(5, || {
                for query in &workload_queries {
                    large.database.execute_opts(query, serial_opts).unwrap();
                }
            });
            let parallel = time_ms(5, || {
                for query in &workload_queries {
                    large.database.execute_opts(query, parallel_opts).unwrap();
                }
            });
            (serial, parallel)
        },
    );
    let (serial_ms, parallel_ms) = (parallel_gate.baseline_ms, parallel_gate.contender_ms);
    let parallel_speedup = parallel_gate.speedup;
    let parallel_meets = parallel_gate.meets_target;
    println!(
        "Large equi-join workload ({} joins): serial {serial_ms:.1} ms, parallel({threads}) {parallel_ms:.1} ms -> {parallel_speedup:.2}x{}",
        workload_queries.len(),
        if gate_applied {
            ""
        } else {
            " (gate skipped: <4 cores)"
        }
    );

    // --- Headline 3: batch vs serial grading (pipeline throughput) ------
    const PIPELINE_TARGET: f64 = 2.0;
    const PIPELINE_ITEMS: usize = 48;
    const PIPELINE_SEED: u64 = 2026;
    // Cycle the Large corpus's gold queries into a 48-item set: repeated
    // SQL texts are exactly what the prepared-plan LRU cache exists for,
    // and each repetition grades under a different per-item RNG (the item
    // index salts the seed), so predictions still vary.
    let base_items = large.eval_items();
    let pipeline_items: Vec<EvalItem> = (0..PIPELINE_ITEMS)
        .map(|i| base_items[i % base_items.len()].clone())
        .collect();
    let pipeline_profile = ModelKind::Gpt4o.profile();
    let grade = |threads: usize| {
        evaluate_execution_accuracy_opts(
            &pipeline_profile,
            &pipeline_items,
            &large.database,
            PIPELINE_SEED,
            ExecOptions::default().with_threads(threads),
        )
    };
    // Reports must be byte-identical across thread counts before the
    // timings mean anything. (Deduplicated: on <=2-core machines `threads`
    // collapses into the 2-worker check.)
    let serial_report = grade(1);
    let mut check_threads = vec![2];
    if threads > 2 {
        check_threads.push(threads);
    }
    for t in check_threads {
        assert_eq!(
            serial_report,
            grade(t),
            "batch grading diverges from serial at {t} threads"
        );
    }
    let pipeline_gate = measure_gated(
        "pipeline",
        PIPELINE_TARGET,
        PARALLEL_GATE_ROUNDS,
        gate_applied,
        || {
            let serial = time_ms(3, || grade(1));
            let batch = time_ms(3, || grade(threads));
            (serial, batch)
        },
    );
    let (grade_serial_ms, grade_batch_ms) = (pipeline_gate.baseline_ms, pipeline_gate.contender_ms);
    let pipeline_speedup = pipeline_gate.speedup;
    let pipeline_meets = pipeline_gate.meets_target;
    println!(
        "pipeline grading ({} items @ {}): serial {grade_serial_ms:.1} ms, batch({threads}) {grade_batch_ms:.1} ms -> {pipeline_speedup:.2}x{}",
        pipeline_items.len(),
        join_scale.name(),
        if gate_applied {
            ""
        } else {
            " (gate skipped: <4 cores)"
        }
    );

    // --- Headline 4: grading under a streaming writer --------------------
    const CONCURRENT_TARGET: f64 = 0.5;
    const CONCURRENT_STATEMENTS: usize = 32;
    let service = AnnotationService::new(large.database.clone());
    // Cycle the corpus's gold queries into a fixed-size grading pass: the
    // steady-state shape of an annotation session re-grading its corpus.
    let grading_sqls: Vec<String> = (0..CONCURRENT_STATEMENTS)
        .map(|i| large.log[i % large.log.len()].sql.clone())
        .collect();
    let (victim_name, victim_schema) = {
        let snapshot = service.snapshot();
        let table = snapshot.tables().next().expect("corpus has tables");
        (table.schema.name.clone(), table.schema.clone())
    };
    // Writer rows get ids far above the corpus range so streaming inserts
    // never trip primary-key collisions, across all rounds. The writer is
    // paced to ~10k rows/s: an unpaced loop is a CPU-saturation test of the
    // insert path (it appends in place whenever no snapshot pins the table,
    // reaching millions of rows per pass), not a model of an annotation
    // service ingesting labels — and on few-core machines it starves the
    // readers of the very thing being measured.
    const WRITER_PACE: Duration = Duration::from_micros(100);
    let next_writer_id = AtomicI64::new(100_000_000);
    let writer_row = || -> Vec<Value> {
        let id = next_writer_id.fetch_add(64, Ordering::Relaxed);
        victim_schema
            .columns
            .iter()
            .enumerate()
            .map(|(c, column)| match column.data_type {
                DataType::Integer => Value::Int(id + c as i64),
                DataType::Float => Value::Float(id as f64),
                _ => Value::Text(format!("writer_{id}_{c}")),
            })
            .collect()
    };
    // Correctness before timing: a batch executed while the writer streams
    // must be byte-identical to a serial run against the session's pinned
    // snapshot.
    {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    service
                        .insert(&victim_name, vec![writer_row()])
                        .expect("writer inserts");
                    std::thread::sleep(WRITER_PACE);
                }
            });
            let session = service.open_session();
            let parallel = session
                .batch_execute(&grading_sqls, threads)
                .expect("grading batch executes under writer");
            let serial: Vec<_> = grading_sqls
                .iter()
                .map(|sql| {
                    session
                        .snapshot()
                        .execute_sql_opts(sql, ExecOptions::serial())
                        .expect("serial grading executes")
                })
                .collect();
            assert_eq!(
                parallel, serial,
                "grading under the writer must be byte-identical to a serial \
                 run against the pinned snapshot"
            );
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread");
        });
    }
    let mut concurrent_best_ratio = 0.0_f64;
    let mut concurrent_p99_ms = 0.0_f64;
    let mut concurrent_writer_rows = 0_usize;
    let concurrent_gate = measure_gated(
        "concurrent",
        CONCURRENT_TARGET,
        PARALLEL_GATE_ROUNDS,
        gate_applied,
        || {
            // Baseline: the grading pass with no writer in sight.
            let baseline = time_ms(3, || {
                let session = service.open_session();
                session
                    .batch_execute(&grading_sqls, threads)
                    .expect("grading pass executes");
            });
            // Contender: the identical pass while the writer streams
            // single-row inserts as fast as the service lets it.
            let latencies = Mutex::new(Vec::new());
            let stop = AtomicBool::new(false);
            let inserted = AtomicUsize::new(0);
            let under_writer = std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        service
                            .insert(&victim_name, vec![writer_row()])
                            .expect("writer inserts");
                        inserted.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(WRITER_PACE);
                    }
                });
                let elapsed = time_ms(3, || {
                    let session = service.open_session();
                    let pass_latencies = batch_map(threads, grading_sqls.len(), |i| {
                        let start = Instant::now();
                        session
                            .execute_sql(&grading_sqls[i])
                            .expect("grading query executes");
                        Ok::<_, std::convert::Infallible>(start.elapsed().as_secs_f64() * 1e3)
                    })
                    .expect("latency collection is infallible");
                    latencies
                        .lock()
                        .expect("latency lock")
                        .extend(pass_latencies);
                });
                stop.store(true, Ordering::Relaxed);
                writer.join().expect("writer thread");
                elapsed
            });
            let ratio = baseline / under_writer.max(1e-6);
            if ratio > concurrent_best_ratio {
                concurrent_best_ratio = ratio;
                let samples = latencies.into_inner().expect("latency lock");
                concurrent_p99_ms = bp_metrics::percentile(&samples, 99.0);
                concurrent_writer_rows = inserted.load(Ordering::Relaxed);
            }
            (baseline, under_writer)
        },
    );
    let (concurrent_baseline_ms, concurrent_under_writer_ms) =
        (concurrent_gate.baseline_ms, concurrent_gate.contender_ms);
    let concurrent_ratio = concurrent_gate.speedup;
    let concurrent_meets = concurrent_gate.meets_target;
    let concurrent_qps =
        CONCURRENT_STATEMENTS as f64 / (concurrent_under_writer_ms / 1e3).max(1e-9);
    let service_cache_stats = service.cache_stats();
    let service_access_stats = service.access_path_stats();
    println!(
        "grading under streaming writer ({CONCURRENT_STATEMENTS} statements @ {}): alone {concurrent_baseline_ms:.1} ms, \
         under writer {concurrent_under_writer_ms:.1} ms -> {concurrent_ratio:.2}x of uncontended throughput \
         ({concurrent_qps:.0} stmt/s, p99 {concurrent_p99_ms:.2} ms, {concurrent_writer_rows} rows streamed){}",
        join_scale.name(),
        if gate_applied {
            ""
        } else {
            " (gate skipped: <4 cores)"
        }
    );

    // --- Headline 5: index point lookups vs forced full scans ------------
    const INDEX_TARGET: f64 = 10.0;
    const INDEX_LOOKUPS: usize = 48;
    // One snapshot for the whole comparison: both compilations pin the
    // same table versions, so the indexed and scanned sides read the same
    // lazily-built columnar cache (and the indexed side additionally the
    // lazily-built per-column secondary index).
    let lookup_snapshot = large.database.snapshot();
    let lookup_tables: Vec<(String, String)> = large
        .database
        .tables()
        .filter_map(|table| {
            table
                .schema
                .columns
                .iter()
                .find(|c| c.primary_key && c.data_type == DataType::Integer)
                .map(|pk| (table.schema.name.clone(), pk.name.clone()))
        })
        .collect();
    assert!(
        !lookup_tables.is_empty(),
        "generated corpus always has integer primary keys"
    );
    // Spread the probed keys across the sequential primary-key range so
    // the hash buckets touched vary; every probe hits (generated ids are
    // 0..rows_per_table).
    let rows_per_table = large.profile.rows_per_table;
    let mut lookup_output_rows = 0usize;
    let lookup_plans: Vec<(PhysQueryPlan, PhysQueryPlan)> = (0..INDEX_LOOKUPS)
        .map(|i| {
            let (table, pk) = &lookup_tables[i % lookup_tables.len()];
            let key = (i * rows_per_table / INDEX_LOOKUPS).min(rows_per_table - 1);
            let sql = format!("SELECT * FROM {table} WHERE {pk} = {key}");
            let query = bp_sql::parse_query(&sql).expect("lookup SQL parses");
            let fast = compile_query_with(&lookup_snapshot, &query, true).expect("lookup compiles");
            let slow = compile_query_with(&lookup_snapshot, &query, false)
                .expect("lookup compiles scanned");
            // The access-path split is the point of the comparison: assert
            // it rather than hoping.
            assert_eq!(
                fast.access_paths().index_scan,
                1,
                "{sql} must probe the index"
            );
            assert_eq!(
                slow.access_paths().index_scan,
                0,
                "{sql} must be forced to scan"
            );
            let indexed = exec_compiled(&lookup_snapshot, &fast, serial_opts)
                .expect("indexed lookup executes");
            let scanned = exec_compiled(&lookup_snapshot, &slow, serial_opts)
                .expect("scanned lookup executes");
            assert_eq!(
                indexed, scanned,
                "indexed lookup must be byte-identical to the full scan for {sql}"
            );
            let parallel = exec_compiled(&lookup_snapshot, &fast, parallel_opts)
                .expect("indexed lookup executes in parallel");
            assert_eq!(indexed, parallel, "thread count must not change {sql}");
            lookup_output_rows += indexed.row_count();
            (fast, slow)
        })
        .collect();
    assert!(
        lookup_output_rows > 0,
        "point lookups over sequential primary keys must hit"
    );
    let index_gate = measure_gated(
        "index",
        INDEX_TARGET,
        PARALLEL_GATE_ROUNDS,
        // Single-threaded probes: no core-count dependence, always gated.
        true,
        || {
            let scanned = time_ms(5, || {
                for (_, slow) in &lookup_plans {
                    exec_compiled(&lookup_snapshot, slow, serial_opts).unwrap();
                }
            });
            let indexed = time_ms(5, || {
                for (fast, _) in &lookup_plans {
                    exec_compiled(&lookup_snapshot, fast, serial_opts).unwrap();
                }
            });
            (scanned, indexed)
        },
    );
    let (lookup_full_ms, lookup_index_ms) = (index_gate.baseline_ms, index_gate.contender_ms);
    let index_speedup = index_gate.speedup;
    let index_meets = index_gate.meets_target;
    println!(
        "index point lookups ({INDEX_LOOKUPS} queries @ {} rows/table): full scan {lookup_full_ms:.2} ms, indexed {lookup_index_ms:.3} ms -> {index_speedup:.0}x",
        rows_per_table
    );

    // --- Headline 6: cost-based vs syntactic join order -------------------
    const JOIN_ORDER_TARGET: f64 = 3.0;
    const JOIN_ORDER_ROWS: usize = 4096;
    const JOIN_ORDER_TINY_ROWS: usize = 8;
    // A hand-built pathological chain: `a` and `b` share a 64-value join
    // key (so a JOIN b alone fans out to 4096 * 64 rows), while `c` is
    // tiny and keyed on `b`'s unique column — joining it first collapses
    // the chain to 8 rows before the fan-out. Written syntactically in the
    // worst order; the statistics-driven reorderer must find the good one.
    let join_order_db = {
        let mut db = Database::new("join_order_bench");
        db.create_table(TableSchema::new(
            "jo_a",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("x", DataType::Integer),
            ],
        ))
        .expect("jo_a schema");
        db.create_table(TableSchema::new(
            "jo_b",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("x", DataType::Integer),
                Column::new("y", DataType::Integer),
            ],
        ))
        .expect("jo_b schema");
        db.create_table(TableSchema::new(
            "jo_c",
            vec![
                Column::new("y", DataType::Integer).primary_key(),
                Column::new("z", DataType::Integer),
            ],
        ))
        .expect("jo_c schema");
        db.insert_into(
            "jo_a",
            (0..JOIN_ORDER_ROWS as i64).map(|i| vec![Value::Int(i), Value::Int(i % 64)]),
        )
        .expect("jo_a rows");
        db.insert_into(
            "jo_b",
            (0..JOIN_ORDER_ROWS as i64)
                .map(|i| vec![Value::Int(i), Value::Int(i % 64), Value::Int(i)]),
        )
        .expect("jo_b rows");
        db.insert_into(
            "jo_c",
            (0..JOIN_ORDER_TINY_ROWS as i64).map(|i| vec![Value::Int(i), Value::Int(i * 100)]),
        )
        .expect("jo_c rows");
        db
    };
    let join_order_sql = "SELECT jo_a.id, jo_b.id, jo_c.z FROM jo_a \
                          JOIN jo_b ON jo_a.x = jo_b.x \
                          JOIN jo_c ON jo_b.y = jo_c.y";
    let join_order_query = bp_sql::parse_query(join_order_sql).expect("join-order SQL parses");
    let join_order_snapshot = join_order_db.snapshot();
    let cost_based_plan = compile_query_opts(
        &join_order_snapshot,
        &join_order_query,
        CompileOptions::default(),
    )
    .expect("cost-based compile");
    let syntactic_plan = compile_query_opts(
        &join_order_snapshot,
        &join_order_query,
        CompileOptions {
            cost_based: false,
            ..CompileOptions::default()
        },
    )
    .expect("syntactic compile");
    // The reorderer must have actually fired — otherwise the comparison
    // below times the same plan against itself.
    assert!(
        cost_based_plan.optimizer_stats().cost_based >= 1,
        "the pathological chain must be cost-based reordered; plan:\n{}",
        cost_based_plan.explain(&join_order_snapshot)
    );
    // Byte-identity before timing: association-only reordering preserves
    // output order exactly, and the legacy interpreter agrees too.
    let cost_based_result = exec_compiled(&join_order_snapshot, &cost_based_plan, serial_opts)
        .expect("cost-based plan executes");
    let syntactic_result = exec_compiled(&join_order_snapshot, &syntactic_plan, serial_opts)
        .expect("syntactic plan executes");
    assert_eq!(
        cost_based_result,
        syntactic_result,
        "cost-based join order must be byte-identical to syntactic; cost-based plan:\n{}\nsyntactic plan:\n{}",
        cost_based_plan.explain(&join_order_snapshot),
        syntactic_plan.explain(&join_order_snapshot)
    );
    let join_order_legacy = join_order_db
        .execute_with(&join_order_query, ExecStrategy::Legacy)
        .expect("legacy executes join-order query");
    assert_eq!(
        cost_based_result, join_order_legacy,
        "cost-based join order must be byte-identical to the legacy interpreter"
    );
    let join_order_gate = measure_gated(
        "join-order",
        JOIN_ORDER_TARGET,
        PARALLEL_GATE_ROUNDS,
        // Single-threaded comparison: no core-count dependence, always
        // gated.
        true,
        || {
            let syntactic = time_ms(5, || {
                exec_compiled(&join_order_snapshot, &syntactic_plan, serial_opts).unwrap()
            });
            let cost_based = time_ms(5, || {
                exec_compiled(&join_order_snapshot, &cost_based_plan, serial_opts).unwrap()
            });
            (syntactic, cost_based)
        },
    );
    let (join_order_syntactic_ms, join_order_cost_ms) =
        (join_order_gate.baseline_ms, join_order_gate.contender_ms);
    let join_order_speedup = join_order_gate.speedup;
    let join_order_meets = join_order_gate.meets_target;
    println!(
        "join-order workload ({JOIN_ORDER_ROWS} rows x2 + {JOIN_ORDER_TINY_ROWS}-row tail): \
         syntactic {join_order_syntactic_ms:.2} ms, cost-based {join_order_cost_ms:.3} ms -> {join_order_speedup:.1}x"
    );

    // --- Secondary: a full mixed workload at medium scale ----------------
    let workload_scale = CorpusScale::Medium;
    let medium = GeneratedBenchmark::generate_scaled(BenchmarkKind::Spider, 12, 19, workload_scale);
    let queries: Vec<Query> = medium
        .log
        .iter()
        .map(|e| bp_sql::parse_query(&e.sql).expect("generated SQL parses"))
        .collect();
    for query in &queries {
        let l = medium
            .database
            .execute_with(query, ExecStrategy::Legacy)
            .expect("legacy executes workload query");
        let p = medium
            .database
            .execute_opts(query, parallel_opts)
            .expect("planned executes workload query");
        assert_eq!(l, p, "workload divergence");
    }
    let workload_planned_ms = time_ms(3, || {
        for query in &queries {
            medium
                .database
                .execute_opts(query, ExecOptions::serial())
                .unwrap();
        }
    });
    let workload_legacy_ms = time_ms(1, || {
        for query in &queries {
            medium
                .database
                .execute_with(query, ExecStrategy::Legacy)
                .unwrap();
        }
    });
    let workload_speedup = workload_legacy_ms / workload_planned_ms.max(1e-6);
    println!(
        "Spider 12-query workload @ {}: legacy {workload_legacy_ms:.1} ms, planned {workload_planned_ms:.1} ms -> {workload_speedup:.1}x",
        workload_scale.name()
    );

    // --- Informational: per-plan verification overhead -------------------
    // Every compile in the prepared-query path runs `verify_plan` before
    // the plan may execute; this measures what that costs per plan, over
    // the plans this benchmark already built (the medium mixed workload at
    // both fast-path settings, plus the indexed and forced-scan point
    // lookups). Informational only: no gate, no exit-code contribution.
    let verify_snapshot = medium.database.snapshot();
    let verify_workload_plans: Vec<PhysQueryPlan> = queries
        .iter()
        .flat_map(|query| {
            [true, false].into_iter().map(|fast| {
                compile_query_with(&verify_snapshot, query, fast).expect("workload compiles")
            })
        })
        .collect();
    let verify_plans_total = verify_workload_plans.len() + 2 * lookup_plans.len();
    let mut verify_violations = 0usize;
    for plan in &verify_workload_plans {
        verify_violations += verify_plan(&verify_snapshot, plan).len();
    }
    for (fast, slow) in &lookup_plans {
        verify_violations += verify_plan(&lookup_snapshot, fast).len();
        verify_violations += verify_plan(&lookup_snapshot, slow).len();
    }
    let verify_pass_ms = time_ms(5, || {
        for plan in &verify_workload_plans {
            std::hint::black_box(verify_plan(&verify_snapshot, plan));
        }
        for (fast, slow) in &lookup_plans {
            std::hint::black_box(verify_plan(&lookup_snapshot, fast));
            std::hint::black_box(verify_plan(&lookup_snapshot, slow));
        }
    });
    let verify_per_plan_us = verify_pass_ms * 1e3 / verify_plans_total.max(1) as f64;
    println!(
        "plan verification ({verify_plans_total} plans): {verify_pass_ms:.3} ms/pass -> {verify_per_plan_us:.1} us/plan, {verify_violations} violation(s) (informational, ungated)"
    );

    // --- Informational: sanitizer instrumentation overhead ---------------
    let sanitizer_overhead = read_sanitizer_overhead();
    match (
        sanitizer_overhead.overhead_ratio,
        sanitizer_overhead.instrumented_ms,
        sanitizer_overhead.plain_ms,
    ) {
        (Some(ratio), Some(instrumented), Some(plain)) => println!(
            "sanitizer overhead: instrumented {instrumented:.1} ms vs plain {plain:.1} ms -> {ratio:.1}x (informational, ungated)"
        ),
        _ => println!("sanitizer overhead: {}", sanitizer_overhead.note),
    }

    // --- Record --------------------------------------------------------
    let meets_target = join_speedup >= TARGET;
    let report = ExecBenchReport {
        bench: "exec".into(),
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        join_scale: join_scale.name().into(),
        two_table_equi_join: JoinMeasurement {
            sql: join_sql,
            rows_per_table: large.profile.rows_per_table,
            output_rows: planned_result.row_count(),
            legacy_ms,
            planned_ms,
            speedup: join_speedup,
        },
        workload: WorkloadMeasurement {
            kind: medium.kind.name().into(),
            scale: workload_scale.name().into(),
            queries: queries.len(),
            legacy_ms: workload_legacy_ms,
            planned_ms: workload_planned_ms,
            speedup: workload_speedup,
        },
        parallel_equi_join_workload: ParallelMeasurement {
            scale: join_scale.name().into(),
            queries: workload_queries.len(),
            threads,
            cores,
            serial_ms,
            parallel_ms,
            speedup: parallel_speedup,
            speedup_target: PARALLEL_TARGET,
            gate_applied,
            measure_rounds: parallel_gate.rounds,
            meets_target: parallel_meets,
        },
        pipeline_throughput: PipelineMeasurement {
            scale: join_scale.name().into(),
            items: pipeline_items.len(),
            threads,
            cores,
            model: pipeline_profile.kind.name().into(),
            serial_ms: grade_serial_ms,
            batch_ms: grade_batch_ms,
            speedup: pipeline_speedup,
            speedup_target: PIPELINE_TARGET,
            gate_applied,
            measure_rounds: pipeline_gate.rounds,
            meets_target: pipeline_meets,
        },
        concurrent_read_write: ConcurrentMeasurement {
            scale: join_scale.name().into(),
            statements: CONCURRENT_STATEMENTS,
            threads,
            cores,
            baseline_ms: concurrent_baseline_ms,
            under_writer_ms: concurrent_under_writer_ms,
            throughput_ratio: concurrent_ratio,
            grading_qps_under_writer: concurrent_qps,
            p99_latency_ms: concurrent_p99_ms,
            writer_rows: concurrent_writer_rows,
            cache_hits: service_cache_stats.hits,
            cache_misses: service_cache_stats.misses,
            cache_invalidations: service_cache_stats.invalidations,
            access_index_scans: service_access_stats.index_scan,
            access_full_scans: service_access_stats.full_scan,
            ratio_target: CONCURRENT_TARGET,
            gate_applied,
            measure_rounds: concurrent_gate.rounds,
            meets_target: concurrent_meets,
        },
        index_point_lookup: IndexMeasurement {
            scale: join_scale.name().into(),
            lookups: INDEX_LOOKUPS,
            rows_per_table,
            output_rows: lookup_output_rows,
            full_scan_ms: lookup_full_ms,
            index_ms: lookup_index_ms,
            speedup: index_speedup,
            speedup_target: INDEX_TARGET,
            gate_applied: true,
            measure_rounds: index_gate.rounds,
            meets_target: index_meets,
        },
        join_order_workload: JoinOrderMeasurement {
            sql: join_order_sql.into(),
            rows_per_large_table: JOIN_ORDER_ROWS,
            rows_in_tiny_table: JOIN_ORDER_TINY_ROWS,
            output_rows: cost_based_result.row_count(),
            syntactic_ms: join_order_syntactic_ms,
            cost_based_ms: join_order_cost_ms,
            speedup: join_order_speedup,
            speedup_target: JOIN_ORDER_TARGET,
            gate_applied: true,
            measure_rounds: join_order_gate.rounds,
            meets_target: join_order_meets,
        },
        plan_verification: VerifyMeasurement {
            plans: verify_plans_total,
            pass_ms: verify_pass_ms,
            per_plan_us: verify_per_plan_us,
            violations: verify_violations,
            meets_target: None,
        },
        sanitizer_overhead,
        speedup_target: TARGET,
        meets_target,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_exec.json", format!("{json}\n")).expect("write BENCH_exec.json");
    println!("wrote BENCH_exec.json");
    println!(
        "shape check: hash join {} the >= {TARGET:.0}x target over the nested loop ({join_speedup:.0}x)",
        if meets_target { "MEETS" } else { "MISSES" }
    );
    if gate_applied {
        println!(
            "parallel gate: parallel planned {} the >= {PARALLEL_TARGET}x target over serial planned ({parallel_speedup:.2}x on {cores} cores)",
            if parallel_meets == Some(true) { "MEETS" } else { "MISSES" }
        );
        println!(
            "pipeline gate: batch grading {} the >= {PIPELINE_TARGET}x target over serial grading ({pipeline_speedup:.2}x on {cores} cores)",
            if pipeline_meets == Some(true) { "MEETS" } else { "MISSES" }
        );
        println!(
            "concurrent gate: grading under the streaming writer {} the >= {CONCURRENT_TARGET}x throughput-ratio target ({concurrent_ratio:.2}x on {cores} cores, p99 {concurrent_p99_ms:.2} ms)",
            if concurrent_meets == Some(true) { "MEETS" } else { "MISSES" }
        );
    } else {
        println!(
            "parallel + pipeline + concurrent gates: skipped ({cores} core(s) < {PARALLEL_GATE_MIN_CORES}); comparisons recorded anyway"
        );
    }
    // The index and join-order gates never skip: they have no core-count
    // dependence.
    println!(
        "index gate: point lookups {} the >= {INDEX_TARGET:.0}x target over forced full scans ({index_speedup:.0}x)",
        if index_meets == Some(true) { "MEET" } else { "MISS" }
    );
    println!(
        "join-order gate: cost-based join order {} the >= {JOIN_ORDER_TARGET:.0}x target over syntactic order ({join_order_speedup:.1}x)",
        if join_order_meets == Some(true) { "MEETS" } else { "MISSES" }
    );
    if !meets_target
        || parallel_meets == Some(false)
        || pipeline_meets == Some(false)
        || concurrent_meets == Some(false)
        || index_meets == Some(false)
        || join_order_meets == Some(false)
    {
        std::process::exit(1);
    }
}
