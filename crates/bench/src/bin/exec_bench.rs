//! `exec_bench` — the engine mechanisms behind execution-accuracy grading
//! (hash join, indexes, join order, batch grading), recorded as
//! `BENCH_exec.json`.
//!
//! The binary is a table of entries (`main`) and one runner (`run`). An
//! entry records its facts (SQL, scale, row counts, …) and up to two timed
//! sides, baseline then contender, each with the JSON key of its time and
//! its timed runs per round. A side's time is the lower median of its timed
//! runs after one untimed warm-up; a two-sided entry records `baseline /
//! contender` under its ratio key and keeps its median round by that
//! ratio, a one-sided entry its median round by time. Every byte-identity
//! check runs while its entry is built, before any timing.
//!
//! Gate kinds: `Always(target)` is enforced on every machine;
//! `MinCores(target, 4)` only on ≥4 cores, and below that the ratio is
//! recorded with `gate_applied: false` and `meets_target: null` ("not
//! measured", never a miss); `Info` is never judged. The counts in an
//! entry's `checks` must be zero on every machine. The binary prints one
//! line per gate and count and exits non-zero when an enforced one fails.
//!
//! Run with: `cargo run --release -p bp-bench --bin exec_bench`
//! (CI runs this and archives `BENCH_exec.json`; see `ci.sh`.)

use std::convert::Infallible;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use bp_datasets::{BenchmarkKind, CorpusScale, GeneratedBenchmark};
use bp_llm::{evaluate_execution_accuracy_cached as grade_cached, EvalItem, ModelKind};
use bp_sql::DataType;
use bp_storage::{
    available_threads, batch_map, compile_query, exec_compiled, verify_plan, AnnotationService,
    CompileOptions, Database, ExecOptions, ExecStrategy, PhysQueryPlan, PlanCache, Snapshot,
    TableSchema, Value,
};
use serde::{Serialize, Value as Json};

/// `facts!(key: value, …)`: JSON facts in order, keyed by the identifiers.
macro_rules! facts {
    ($($key:ident: $value:expr),* $(,)?) => {
        vec![$((stringify!($key), $value.to_value())),*]
    };
}

const SCALE: CorpusScale = CorpusScale::Large;
/// Core count below which the core-dependent gates are not enforced.
const MIN_CORES: usize = 4;
/// The headline gate: hash join over the interpreter's nested loop.
const HEADLINE_TARGET: f64 = 5.0;
/// The streaming writer's pace (~10k rows/s). An unpaced loop measures the
/// insert path's CPU saturation, not a service ingesting labels, and on
/// few-core machines it starves the readers being measured.
const WRITER_PACE: Duration = Duration::from_micros(100);
/// The join-order chain: `jo_a` and `jo_b` share a 64-value key (a ~262k-row
/// fan-out when joined first), while the 8-row `jo_c`, keyed on `jo_b`'s
/// unique column, collapses the chain to 8 rows if joined first. The SQL
/// names the tables in the worst order.
const JO_ROWS: [i64; 2] = [4096, 8];
const JO_SQL: &str = "SELECT jo_a.id, jo_b.id, jo_c.z FROM jo_a \
                      JOIN jo_b ON jo_a.x = jo_b.x JOIN jo_c ON jo_b.y = jo_c.y";

type Facts = Vec<(&'static str, Json)>;
type Derive<'a> = Box<dyn Fn(&Round) -> Facts + 'a>;

/// How an entry's ratio is judged.
enum Gate {
    Always(f64),
    /// Enforced only on machines with at least this many cores.
    MinCores(f64, usize),
    Info,
}

/// What one timed run saw besides its wall time: per-statement latencies
/// (ms) and rows a concurrent writer streamed.
#[derive(Default)]
struct Observed(Vec<f64>, usize);

/// One timed side: the JSON key of its time, its timed runs per round, and
/// its body.
type Side<'a> = (&'static str, usize, Box<dyn FnMut() -> Observed + 'a>);

/// One row of the table.
struct Entry<'a> {
    name: &'static str,
    /// Recorded first, in order.
    facts: Facts,
    /// None (facts only), one timed pass, or baseline then contender.
    sides: Vec<Side<'a>>,
    rounds: usize,
    /// JSON key of `baseline / contender`.
    ratio_key: &'static str,
    /// JSON key of the target. When set, the entry also records
    /// `gate_applied`, `measure_rounds` and `meets_target`.
    target_key: Option<&'static str>,
    gate: Gate,
    /// Facts computed from the kept round, recorded after the ratio.
    derived: Option<Derive<'a>>,
    /// `(label, count)` pairs that must be zero on every machine.
    checks: Vec<(&'static str, u64)>,
}

impl Entry<'_> {
    /// An untimed, ungated entry; table rows override the other fields.
    fn new(name: &'static str, facts: Facts) -> Self {
        Entry {
            name,
            facts,
            sides: Vec::new(),
            rounds: 3,
            ratio_key: "speedup",
            target_key: Some("speedup_target"),
            gate: Gate::Info,
            derived: None,
            checks: Vec::new(),
        }
    }
}

/// One round: each side's time, the ratio, and what the last side's timed
/// runs (never its warm-up) observed.
struct Round {
    ms: Vec<f64>,
    ratio: f64,
    observed: Observed,
}

/// A timed side whose runs observe nothing beyond their wall time.
fn side<'a, T: 'a>(key: &'static str, runs: usize, mut body: impl FnMut() -> T + 'a) -> Side<'a> {
    let body = move || {
        black_box(body());
        Observed::default()
    };
    (key, runs, Box::new(body))
}

/// Time and judge one entry against the millisecond clock `now`: in each
/// round every side runs once untimed, then `runs` times timed, and the
/// (lower) median round is kept, by ratio for a two-sided entry and by
/// time for a one-sided one, so noise cannot lift a gate the way keeping
/// the best round would. Prints one line per gate and count; returns the
/// entry's JSON and their outcomes (`None`: not enforced).
fn run(mut entry: Entry<'_>, cores: usize, now: &dyn Fn() -> f64) -> (Json, Vec<Option<bool>>) {
    let (target, applied) = match entry.gate {
        Gate::Always(target) => (Some(target), true),
        Gate::MinCores(target, min) => (Some(target), cores >= min),
        Gate::Info => (None, false),
    };
    let mut rounds = Vec::with_capacity(entry.rounds);
    for _ in 0..entry.rounds.max(1) {
        let (mut ms, mut observed) = (Vec::new(), Observed::default());
        for (_, runs, body) in &mut entry.sides {
            body();
            let mut samples = Vec::new();
            observed = Observed::default();
            for _ in 0..*runs {
                let start = now();
                let seen = body();
                samples.push(now() - start);
                observed.0.extend(seen.0);
                observed.1 += seen.1;
            }
            samples.sort_by(f64::total_cmp);
            ms.push(samples[(samples.len() - 1) / 2]);
        }
        let ratio = match ms[..] {
            [baseline, contender] => baseline / contender.max(1e-6),
            _ => 0.0,
        };
        rounds.push(Round {
            ms,
            ratio,
            observed,
        });
    }
    let order = |round: &Round| match round.ms[..] {
        [_, _] => round.ratio,
        [ms] => ms,
        _ => 0.0,
    };
    rounds.sort_by(|a, b| order(a).total_cmp(&order(b)));
    let kept = rounds.swap_remove((rounds.len() - 1) / 2);
    let mut facts = entry.facts;
    for ((key, ..), ms) in entry.sides.iter().zip(&kept.ms) {
        facts.push((key, ms.to_value()));
    }
    if kept.ms.len() == 2 {
        facts.push((entry.ratio_key, kept.ratio.to_value()));
    }
    facts.extend(entry.derived.map_or(Vec::new(), |derive| derive(&kept)));
    let mut outcomes = Vec::new();
    let mut report = |line: String, outcome: Option<bool>| {
        let verdict = match outcome {
            Some(true) => "MEETS",
            Some(false) => "MISSES",
            None => "recorded, unenforced on this runner",
        };
        println!("gate {}: {line} -> {verdict}", entry.name);
        outcomes.push(outcome);
    };
    if let Some(target) = target {
        let (meets, rounds) = (applied.then_some(kept.ratio >= target), entry.rounds);
        if let Some(key) = entry.target_key {
            facts.push((key, target.to_value()));
            facts
                .extend(facts!(gate_applied: applied, measure_rounds: rounds, meets_target: meets));
        }
        let ratio = format!("{} {:.2}x", entry.ratio_key, kept.ratio);
        report(format!("{ratio}, target {target}x"), meets);
    }
    for (label, count) in entry.checks {
        report(format!("{label} = {count}, must be 0"), Some(count == 0));
    }
    (json_map(facts), outcomes)
}

fn json_map(facts: Facts) -> Json {
    Json::Map(facts.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn parse(sql: &str) -> bp_sql::Query {
    bp_sql::parse_query(sql).expect("generated SQL parses")
}

/// Default compile options with index fast paths on or off.
fn fast_paths(fast_paths: bool) -> CompileOptions {
    CompileOptions {
        fast_paths,
        ..CompileOptions::default()
    }
}

/// The first foreign-key equi-join of the corpus schema, projecting the
/// key pair.
fn fk_join(db: &Database) -> String {
    db.tables()
        .find_map(|table| {
            let column = table
                .schema
                .columns
                .iter()
                .find(|c| c.references.is_some())?;
            let (parent, pk) = column.references.as_ref()?;
            let (child, fk) = (&table.schema.name, &column.name);
            Some(format!(
                "SELECT c.{fk}, p.{pk} FROM {child} c JOIN {parent} p ON c.{fk} = p.{pk}"
            ))
        })
        .expect("corpus has foreign keys")
}

/// Two timed sides, each `(json_key, runs, options)`, executing `sqls`;
/// every query is first asserted byte-identical under both.
fn query_sides<'a>(
    db: &'a Database,
    sqls: &[String],
    sides: [(&'static str, usize, ExecOptions); 2],
) -> Vec<Side<'a>> {
    let queries: Vec<_> = sqls.iter().map(|sql| parse(sql)).collect();
    for query in &queries {
        let [a, b] = sides.map(|(.., opts)| db.snapshot().execute(query, opts));
        assert!(a == b, "engines disagree");
    }
    let timed = |(key, runs, opts): (&'static str, usize, ExecOptions)| {
        let queries = queries.clone();
        side(key, runs, move || {
            for query in &queries {
                black_box(db.snapshot().execute(query, opts).expect("executes"));
            }
        })
    };
    sides.map(timed).into()
}

/// A timed side executing each plan against `snapshot` on one thread.
fn plans_side<'a>(
    key: &'static str,
    snapshot: &'a Snapshot,
    plans: &'a [PhysQueryPlan],
) -> Side<'a> {
    side(key, 5, move || {
        for plan in plans {
            black_box(exec_compiled(snapshot, plan).expect("executes"));
        }
    })
}

/// Batch vs one-worker execution-accuracy grading of 48 Large items through
/// the prepared-plan pipeline. Cycling the corpus's gold queries repeats
/// SQL texts, which the plan cache exists for; each item's RNG is salted by
/// its index, so predictions still vary.
fn pipeline_throughput(large: &GeneratedBenchmark, threads: usize) -> Entry<'_> {
    const ITEMS: usize = 48;
    let base = large.eval_items();
    let items: Vec<EvalItem> = base.iter().cycle().take(ITEMS).cloned().collect();
    let profile = ModelKind::Gpt4o.profile();
    let model = profile.kind.name();
    let grade = move |threads: usize, cache: &PlanCache| {
        let options = ExecOptions::default().with_threads(threads);
        grade_cached(&profile, &items, &large.database, 2026, options, cache)
    };
    // A serial pass compiles each distinct SQL text once; a second pass at
    // full width through the same cache must compile nothing.
    let fresh = PlanCache::with_default_capacity;
    let cache = fresh();
    let serial = grade(1, &cache);
    let cold = cache.stats();
    assert_eq!(serial, grade(threads, &cache), "warm cache diverges");
    let warm = cache.stats();
    let recompiles = warm.misses - cold.misses + warm.invalidations - cold.invalidations;
    for t in std::iter::once(2).chain((threads > 2).then_some(threads)) {
        let report = grade(t, &fresh());
        assert_eq!(serial, report, "grading diverges at {t} threads");
    }
    let timed = |key, threads| {
        let grade = grade.clone();
        side(key, 3, move || grade(threads, &fresh()))
    };
    let (compiles, lookups) = (cold.misses, cold.hits + cold.misses);
    Entry {
        sides: vec![timed("serial_ms", 1), timed("batch_ms", threads)],
        gate: Gate::MinCores(2.0, MIN_CORES),
        checks: vec![("plan recompiles in a warm-cache pass", recompiles)],
        ..Entry::new(
            "pipeline_throughput",
            facts!(scale: SCALE.name(), items: ITEMS, threads: threads, cores: threads,
                   model: model, plan_compiles: compiles, plan_lookups: lookups),
        )
    }
}

/// Insert one row into `table` of `service`, keyed by the next id of
/// `next_id`.
fn insert_row(service: &AnnotationService, table: &TableSchema, next_id: &AtomicI64) {
    // Ids far above the corpus range never collide with a key.
    let id = next_id.fetch_add(64, Ordering::Relaxed);
    let row = table.columns.iter().enumerate();
    let row = row.map(|(c, column)| match column.data_type {
        DataType::Integer => Value::Int(id + c as i64),
        DataType::Float => Value::Float(id as f64),
        _ => Value::Text(format!("writer_{id}_{c}")),
    });
    let inserted = service.insert(&table.name, vec![row.collect()]);
    inserted.expect("writer inserts");
}

/// Run `work` while a paced writer streams single-row inserts into `table`
/// of `service`; returns its output and the rows streamed meanwhile.
fn with_writer<T>(
    service: &AnnotationService,
    table: &TableSchema,
    next_id: &AtomicI64,
    work: impl FnOnce() -> T,
) -> (T, usize) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut rows = 0;
            while !stop.load(Ordering::Relaxed) {
                insert_row(service, table, next_id);
                rows += 1;
                std::thread::sleep(WRITER_PACE);
            }
            rows
        });
        // Stop the writer even if `work` panics, or the scope never joins.
        let out = panic::catch_unwind(AssertUnwindSafe(work));
        stop.store(true, Ordering::Relaxed);
        let rows = writer.join().expect("writer thread");
        (out.unwrap_or_else(|p| panic::resume_unwind(p)), rows)
    })
}

/// Session-based grading through the `AnnotationService`, alone vs while a
/// writer streams inserts into the table its statements read most. Each
/// pass on either side follows a write to that table, so it invalidates
/// the kept plans and results, re-prepares and re-runs its statements.
/// The gated ratio is baseline / under-writer: the writer may cost at most
/// 2×. Below 4 cores readers and writer time-slice one core, so the gate
/// is not enforced.
fn concurrent_read_write(
    service: &AnnotationService,
    log: Vec<String>,
    threads: usize,
) -> Entry<'_> {
    const STATEMENTS: usize = 32;
    let sqls: Vec<String> = log.iter().cycle().take(STATEMENTS).cloned().collect();
    let reads = |name: &str| {
        let reads_table = |sql: &&String| {
            let tables = bp_sql::analyze(&parse(sql)).tables;
            tables.iter().any(|t| t.eq_ignore_ascii_case(name))
        };
        sqls.iter().filter(reads_table).count()
    };
    let snapshot = service.snapshot();
    let tables = snapshot.tables();
    let table = tables.max_by_key(|t| reads(&t.schema.name));
    let table = table.expect("a table").schema.clone();
    let table_name = table.name.clone();
    // Release the pin: a pinned table is copied on every insert.
    drop(snapshot);
    let next_id = Arc::new(AtomicI64::new(100_000_000));
    let serial = ExecOptions::serial();
    let ((batch, pinned), _) = with_writer(service, &table, &next_id, || {
        let session = service.open_session();
        let pinned = sqls
            .iter()
            .map(|sql| session.snapshot().execute(&parse(sql), serial));
        let pinned: Result<Vec<_>, _> = pinned.collect();
        (session.batch_execute(&sqls, threads), pinned)
    });
    assert!(batch.is_ok() && batch == pinned, "a session saw the writer");
    // One grading pass through a fresh session, timing every statement.
    let pass = move || {
        let session = service.open_session();
        let latencies = batch_map(threads, sqls.len(), |i| {
            let start = Instant::now();
            session.execute_sql(&sqls[i], serial).expect("grades");
            Ok::<_, Infallible>(start.elapsed().as_secs_f64() * 1e3)
        });
        latencies.expect("latency collection is infallible")
    };
    // Alone: one write, then the pass.
    let baseline = {
        let (pass, table, next_id) = (pass.clone(), table.clone(), Arc::clone(&next_id));
        move || {
            insert_row(service, &table, &next_id);
            pass()
        }
    };
    // The statements must read the written table: otherwise a pass after
    // a write answers them from kept results and the entry times nothing
    // the gate bounds.
    let invalidations = || service.plan_cache().stats().invalidations;
    let before = invalidations();
    baseline();
    let blind_passes = u64::from(invalidations() == before);
    let under_writer = move || {
        let (latencies, writer_rows) = with_writer(service, &table, &next_id, &pass);
        Observed(latencies, writer_rows)
    };
    // The service's counters cover the whole entry; invalidations are the
    // recompiles the writer forced.
    let derived = move |round: &Round| {
        let cache = service.plan_cache();
        let (cache, access) = (cache.stats(), cache.access_stats());
        let latencies = &round.observed.0;
        let qps = STATEMENTS as f64 / (round.ms[1] / 1e3).max(1e-9);
        let p99 = bp_metrics::percentile(latencies, 99.0);
        facts!(grading_qps_under_writer: qps, p99_latency_ms: p99, latency_samples: latencies.len(),
               writer_rows: round.observed.1, cache_hits: cache.hits, cache_misses: cache.misses,
               cache_invalidations: cache.invalidations, access_index_scans: access.index_scan,
               access_full_scans: access.full_scan)
    };
    Entry {
        sides: vec![
            side("baseline_ms", 3, baseline),
            ("under_writer_ms", 3, Box::new(under_writer)),
        ],
        ratio_key: "throughput_ratio",
        target_key: Some("ratio_target"),
        gate: Gate::MinCores(0.5, MIN_CORES),
        derived: Some(Box::new(derived)),
        checks: vec![("passes after a write that invalidate no plan", blind_passes)],
        ..Entry::new(
            "concurrent_read_write",
            facts!(scale: SCALE.name(), statements: STATEMENTS, threads: threads, cores: threads,
                   written_table: table_name),
        )
    }
}

/// Primary-key point lookups over every Large corpus table, each compiled
/// against one snapshot onto the hash index (first) and with fast paths
/// disabled, i.e. a full columnar scan + filter (second).
struct Lookups {
    snapshot: Snapshot,
    fast: Vec<PhysQueryPlan>,
    scan: Vec<PhysQueryPlan>,
    output_rows: usize,
}

fn point_lookups(large: &GeneratedBenchmark) -> Lookups {
    const LOOKUPS: usize = 48;
    let snapshot = large.database.snapshot();
    let mut keys = Vec::new();
    for table in large.database.tables() {
        let mut columns = table.schema.columns.iter();
        if let Some(pk) = columns.find(|c| c.primary_key && c.data_type == DataType::Integer) {
            keys.push((table.schema.name.clone(), pk.name.clone()));
        }
    }
    assert!(!keys.is_empty(), "corpus has integer primary keys");
    // Keys spread over the sequential id range, so every probe hits.
    let rows = large.profile.rows_per_table;
    let (mut lookups, mut output_rows) = (Vec::new(), 0);
    for i in 0..LOOKUPS {
        let (table, pk) = &keys[i % keys.len()];
        let key = (i * rows / LOOKUPS).min(rows - 1);
        let sql = format!("SELECT * FROM {table} WHERE {pk} = {key}");
        let compile = |fast| compile_query(&snapshot, &parse(&sql), fast_paths(fast));
        let [fast, scan] = [true, false].map(|fast| compile(fast).expect("compiles"));
        let paths = [&fast, &scan].map(|plan| plan.access_paths().index_scan);
        assert_eq!(paths, [1, 0], "{sql}: wrong access paths");
        let exec = |plan| exec_compiled(&snapshot, plan);
        let indexed = exec(&fast).expect("lookup executes");
        assert_eq!(
            Ok(&indexed),
            exec(&scan).as_ref(),
            "{sql}: index and scan differ"
        );
        output_rows += indexed.row_count();
        lookups.push((fast, scan));
    }
    assert!(output_rows > 0, "point lookups must hit");
    let (fast, scan) = lookups.into_iter().unzip();
    Lookups {
        snapshot,
        fast,
        scan,
        output_rows,
    }
}

/// The join-order chain (`JO_SQL`) compiled in syntactic order and by the
/// cost-based reorderer, against one snapshot, with its output rows.
fn join_order() -> (Snapshot, [PhysQueryPlan; 2], usize) {
    let mut db = Database::new("join_order_bench");
    db.ingest_ddl(
        "CREATE TABLE jo_a (id INT PRIMARY KEY, x INT);
         CREATE TABLE jo_b (id INT PRIMARY KEY, x INT, y INT);
         CREATE TABLE jo_c (y INT PRIMARY KEY, z INT);",
    )
    .expect("join-order schema");
    let [rows, tiny] = JO_ROWS;
    let rows: [(&str, Vec<Vec<i64>>); 3] = [
        ("jo_a", (0..rows).map(|i| vec![i, i % 64]).collect()),
        ("jo_b", (0..rows).map(|i| vec![i, i % 64, i]).collect()),
        ("jo_c", (0..tiny).map(|i| vec![i, i * 100]).collect()),
    ];
    for (table, rows) in rows {
        let rows = rows.into_iter().map(|row| row.into_iter().map(Value::Int));
        db.insert_into(table, rows.map(Vec::from_iter))
            .expect("rows");
    }
    let (query, snapshot) = (parse(JO_SQL), db.snapshot());
    let plans = [false, true].map(|cost_based| {
        let options = CompileOptions {
            cost_based,
            ..CompileOptions::default()
        };
        compile_query(&snapshot, &query, options).expect("compiles")
    });
    let explain = plans.each_ref().map(|plan| plan.explain(&snapshot));
    // The reorderer must fire, or the comparison times a plan against itself.
    let reordered = plans[1].optimizer_stats().cost_based >= 1;
    assert!(reordered, "not reordered:\n{}", explain[1]);
    // Association-only reordering preserves output order exactly.
    let [syntactic, cost_based] = plans.each_ref().map(|p| exec_compiled(&snapshot, p));
    let legacy = snapshot.execute(&query, ExecOptions::new(ExecStrategy::Legacy));
    let agree = syntactic == cost_based && cost_based == legacy;
    assert!(agree, "join orders differ:\n{}\n{}", explain[0], explain[1]);
    let output_rows = cost_based.expect("executes").row_count();
    (snapshot, plans, output_rows)
}

/// Per-plan cost of the verifier the prepared-query path runs on every
/// compile, over the Medium workload's plans at both fast-path settings
/// plus the point-lookup plans: the median round of 11, each round the
/// median of 5 passes. Its violation count must be zero: anything else
/// means the compiler shipped a miscompile.
fn plan_verification<'a>(medium: &GeneratedBenchmark, lookups: &'a Lookups) -> Entry<'a> {
    let snapshot = medium.database.snapshot();
    let mut workload = Vec::new();
    for entry in &medium.log {
        let query = parse(&entry.sql);
        for fast in [true, false] {
            let plan = compile_query(&snapshot, &query, fast_paths(fast));
            workload.push(plan.expect("compiles"));
        }
    }
    let plans = workload.len() + lookups.fast.len() + lookups.scan.len();
    let verify_all = move || {
        let lookup_plans = lookups.fast.iter().chain(&lookups.scan);
        let lookup = lookup_plans.map(|plan| verify_plan(&lookups.snapshot, plan).len());
        let workload = workload
            .iter()
            .map(|plan| verify_plan(&snapshot, plan).len());
        workload.chain(lookup).sum::<usize>()
    };
    let violations = verify_all();
    let derived = move |round: &Round| {
        let per_plan_us = round.ms[0] * 1e3 / plans as f64;
        facts!(per_plan_us: per_plan_us, violations: violations, meets_target: Json::Null)
    };
    // One pass takes well under a millisecond, so a single round swings
    // about 2x between runs; the median of many rounds does not.
    let rounds = 11;
    Entry {
        sides: vec![side("pass_ms", 5, verify_all)],
        rounds,
        derived: Some(Box::new(derived)),
        checks: vec![("plan verifier violations", violations as u64)],
        ..Entry::new(
            "plan_verification",
            facts!(plans: plans, measure_rounds: rounds),
        )
    }
}

/// The `bp_sanitize` schedule explorer's wall time vs the same protocol
/// run plain, from the `key=value` fragment the sanitized model tests write
/// (`BP_SANITIZER_OVERHEAD_OUT`). The sanitizer never runs in release
/// builds, so this is informational; `fragment_found: false` makes a
/// skipped sanitized lane visible.
fn sanitizer_overhead() -> Entry<'static> {
    let text = std::fs::read_to_string("target/sanitizer_overhead.txt").ok();
    let lines = text.iter().flat_map(|text| text.lines());
    let pairs: Vec<_> = lines.filter_map(|line| line.split_once('=')).collect();
    let field = |key: &str| {
        pairs
            .iter()
            .find(|(k, _)| k.trim() == key)
            .map(|kv| kv.1.trim())
    };
    let ms = |key| field(key)?.parse::<f64>().ok();
    let found = ms("instrumented_ms").zip(ms("plain_ms"));
    let iterations = found
        .and(field("iterations"))
        .and_then(|n| n.parse::<u64>().ok());
    let note = match (&text, found) {
        (None, _) => {
            "no target/sanitizer_overhead.txt — run the sanitized model tests with \
                      BP_SANITIZER_OVERHEAD_OUT set (ci.sh does) before this bench"
        }
        (Some(_), None) => "target/sanitizer_overhead.txt exists but is malformed",
        (Some(_), Some(_)) => {
            "schedule-explored vs plain wall time of the plan-cache model \
                               protocol (informational, ungated; sanitizer code never runs in \
                               release builds)"
        }
    };
    let (instrumented, plain) = found.unzip();
    let ratio = found.and_then(|(i, p)| (p > 0.0).then(|| i / p));
    let facts = facts!(fragment_found: found.is_some(), instrumented_ms: instrumented,
                       plain_ms: plain, overhead_ratio: ratio, iterations: iterations,
                       note: note, meets_target: Json::Null);
    Entry::new("sanitizer_overhead", facts)
}

fn main() {
    let threads = available_threads();
    println!("generating the Large and Medium Spider corpora...");
    let generate = |queries, seed, scale| {
        GeneratedBenchmark::generate_scaled(BenchmarkKind::Spider, queries, seed, scale)
    };
    let (large, medium) = (generate(4, 7, SCALE), generate(12, 19, CorpusScale::Medium));
    let (db, rows_per_table) = (&large.database, large.profile.rows_per_table);
    let service = AnnotationService::new(db.clone());
    let log: Vec<String> = large.log.iter().map(|entry| entry.sql.clone()).collect();
    let lookups = point_lookups(&large);
    let (jo_snapshot, jo_plans, jo_output_rows) = join_order();
    let serial = ExecOptions::serial();
    let legacy = ExecOptions::new(ExecStrategy::Legacy);
    let join = [fk_join(db)];
    let join_result = db.execute_sql(&join[0], serial);
    let workload: Vec<String> = medium.log.iter().map(|entry| entry.sql.clone()).collect();
    let headline_sides = [("legacy_ms", 1, legacy), ("planned_ms", 9, serial)];
    let workload_sides = [("legacy_ms", 1, legacy), ("planned_ms", 3, serial)];
    // Building an entry runs its identity checks, so all of them pass before
    // the first timing.
    let table = [
        // The headline: planned hash join vs the interpreter's quadratic
        // nested loop. One round (a legacy run takes ~10 s); its target and
        // outcome are the report's top-level keys.
        Entry {
            sides: query_sides(db, &join, headline_sides),
            rounds: 1,
            target_key: None,
            gate: Gate::Always(HEADLINE_TARGET),
            ..Entry::new(
                "two_table_equi_join",
                facts!(sql: join[0], rows_per_table: rows_per_table,
                       output_rows: join_result.expect("join").row_count()),
            )
        },
        // The Medium workload's mixed shapes: filters, aggregates, subqueries.
        Entry {
            sides: query_sides(&medium.database, &workload, workload_sides),
            rounds: 1,
            target_key: None,
            ..Entry::new(
                "workload",
                facts!(kind: medium.kind.name(), scale: "medium", queries: workload.len()),
            )
        },
        pipeline_throughput(&large, threads),
        concurrent_read_write(&service, log, threads),
        // Point lookups through the hash index vs forced full scans; one
        // query runs on one thread, so the gate holds on any core count.
        Entry {
            sides: vec![
                plans_side("full_scan_ms", &lookups.snapshot, &lookups.scan),
                plans_side("index_ms", &lookups.snapshot, &lookups.fast),
            ],
            gate: Gate::Always(10.0),
            ..Entry::new(
                "index_point_lookup",
                facts!(scale: SCALE.name(), lookups: lookups.fast.len(),
                       rows_per_table: rows_per_table, output_rows: lookups.output_rows),
            )
        },
        // Cost-based vs syntactic join order (`JO_SQL`) on one thread, so
        // the gate holds on any core count.
        Entry {
            sides: vec![
                plans_side("syntactic_ms", &jo_snapshot, &jo_plans[..1]),
                plans_side("cost_based_ms", &jo_snapshot, &jo_plans[1..]),
            ],
            gate: Gate::Always(3.0),
            ..Entry::new(
                "join_order_workload",
                facts!(sql: JO_SQL, rows_per_large_table: JO_ROWS[0],
                       rows_in_tiny_table: JO_ROWS[1], output_rows: jo_output_rows),
            )
        },
        plan_verification(&medium, &lookups),
        sanitizer_overhead(),
    ];
    let start = Instant::now();
    let clock = || start.elapsed().as_secs_f64() * 1e3;
    let unix_time = SystemTime::now().duration_since(UNIX_EPOCH);
    let unix_time = unix_time.map_or(0, |since| since.as_secs());
    let mut report = facts!(bench: "exec", unix_time: unix_time, join_scale: SCALE.name());
    let (mut headline, mut failed) = (None, false);
    for entry in table {
        let name = entry.name;
        let (json, outcomes) = run(entry, threads, &clock);
        println!("{name}: {}", serde_json::to_string(&json).expect("JSON"));
        report.push((name, json));
        if name == "two_table_equi_join" {
            headline = outcomes[0];
        }
        failed |= outcomes.contains(&Some(false));
    }
    report.extend(facts!(speedup_target: HEADLINE_TARGET, meets_target: headline));
    let json = serde_json::to_string_pretty(&json_map(report)).expect("JSON");
    std::fs::write("BENCH_exec.json", format!("{json}\n")).expect("write BENCH_exec.json");
    println!("wrote BENCH_exec.json");
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A side of two timed runs that advances `clock` by `ms[round]` per
    /// run; every run, its warm-up included, observes one latency.
    fn ticking<'c>(clock: &'c Cell<f64>, key: &'static str, ms: &[f64]) -> Side<'c> {
        let (ms, mut calls) = (ms.to_vec(), 0);
        let body = move || {
            clock.set(clock.get() + ms[calls / 3]);
            calls += 1;
            Observed(vec![1.0], 0)
        };
        (key, 2, Box::new(body))
    }

    /// Runs a two-sided entry on a fake clock, `ms[side][round]` per run.
    fn judge(ms: [&[f64]; 2], gate: Gate, cores: usize) -> (Json, Vec<Option<bool>>) {
        let clock = Cell::new(0.0);
        let entry = Entry {
            sides: vec![
                ticking(&clock, "baseline_ms", ms[0]),
                ticking(&clock, "contender_ms", ms[1]),
            ],
            rounds: ms[0].len(),
            gate,
            derived: Some(Box::new(|round| facts!(samples: round.observed.0.len()))),
            ..Entry::new("fake", Vec::new())
        };
        run(entry, cores, &|| clock.get())
    }

    #[test]
    fn gates_are_enforced_by_kind_and_counts_everywhere() {
        let (json, outcomes) = judge([&[10.0], &[10.0]], Gate::MinCores(1.5, 4), 2);
        assert_eq!(json.get("speedup"), Some(&Json::Float(1.0)));
        assert_eq!(json.get("gate_applied"), Some(&Json::Bool(false)));
        assert_eq!(json.get("meets_target"), Some(&Json::Null));
        assert_eq!(outcomes, [None]);
        let (json, outcomes) = judge([&[10.0], &[10.0]], Gate::MinCores(1.5, 4), 4);
        assert_eq!(json.get("gate_applied"), Some(&Json::Bool(true)));
        assert_eq!(outcomes, [Some(false)]);
        let (json, outcomes) = judge([&[50.0], &[10.0]], Gate::Always(5.0), 1);
        assert_eq!(json.get("meets_target"), Some(&Json::Bool(true)));
        assert_eq!(outcomes, [Some(true)]);
        let (_, outcomes) = judge([&[40.0], &[10.0]], Gate::Always(5.0), 1);
        assert_eq!(outcomes, [Some(false)]);
        let checked = |count| Entry {
            checks: vec![("violations", count)],
            ..Entry::new("checked", Vec::new())
        };
        assert_eq!(run(checked(1), 64, &|| 0.0).1, [Some(false)]);
        assert_eq!(run(checked(0), 1, &|| 0.0).1, [Some(true)]);
    }

    #[test]
    fn median_of_n_keeps_the_median_round_and_only_its_timed_runs() {
        // Ratios 2, 10 and 6: the median round is the last, not the best.
        let (json, _) = judge(
            [&[20.0, 20.0, 24.0], &[10.0, 2.0, 4.0]],
            Gate::Always(1.0),
            1,
        );
        assert_eq!(json.get("baseline_ms"), Some(&Json::Float(24.0)));
        assert_eq!(json.get("contender_ms"), Some(&Json::Float(4.0)));
        assert_eq!(json.get("speedup"), Some(&Json::Float(6.0)));
        assert_eq!(json.get("measure_rounds"), Some(&Json::UInt(3)));
        // The contender's two timed runs; its warm-up observed a latency
        // too, but does not count.
        assert_eq!(json.get("samples"), Some(&Json::UInt(2)));
    }

    #[test]
    fn one_sided_entries_keep_the_median_round_by_time() {
        let clock = Cell::new(0.0);
        let entry = Entry {
            sides: vec![ticking(&clock, "pass_ms", &[30.0, 10.0, 20.0])],
            ..Entry::new("one_sided", Vec::new())
        };
        let (json, _) = run(entry, 1, &|| clock.get());
        assert_eq!(json.get("pass_ms"), Some(&Json::Float(20.0)));
    }
}
