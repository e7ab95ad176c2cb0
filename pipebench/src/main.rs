//! `pipebench` — one run of one BenchPress pipeline workload.
//!
//! ```text
//! pipebench --workload <annotate_session|study_grading|text2sql_eval>
//!           --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//!           [--spans <file>]
//! ```
//!
//! With `--trace 0` the run sets up its inputs several times (reporting
//! the median set-up time), then repeats untraced passes over the public
//! API until `--seconds` have been measured and prints the end-to-end
//! metrics, taken from each step's fastest repetition over the passes.
//! With `--trace 1` it alternates untraced passes with traced passes
//! over the replays in `replay.rs` and prints the per-layer
//! metrics, taking the median of each over the traced passes. Either way
//! every pass must produce the same output digest. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `run.py` builds this program and runs it in a child
//! process under a memory ceiling.

mod replay;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use bp_study::StudyConfig;
use trace::{ratio, Profile, Tracer};
use workloads::{Pass, Sizes};

/// Set-ups per `--trace 0` run: at least `MIN_SETUP_REPS`, then more
/// until they have taken `SETUP_BUDGET_S` or `MAX_SETUP_REPS` ran, so a
/// cheap set-up is sampled often enough for a steady median. `setup_s` is
/// their median.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 15;
const SETUP_BUDGET_S: f64 = 4.0;

/// The workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["annotate_session", "study_grading", "text2sql_eval"];

/// The layers (workspace crates) spans are booked to.
const LAYERS: [&str; 9] = [
    "datasets", "sql", "embed", "llm", "storage", "metrics", "core", "study", "pool",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let take = |name: &str| flags.get(name).cloned().ok_or(format!("missing {name}"));
    let workload = take("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let number = |name: &str| -> Result<f64, String> {
        take(name)?
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let sizes = match flags.get("--size").map(String::as_str) {
        None | Some("full") => Sizes::FULL,
        Some("tiny") => Sizes::TINY,
        Some(other) => return Err(format!("unknown size {other}")),
    };
    Ok(Args {
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds")?,
        trace: number("--trace")? != 0.0,
        workload,
        sizes,
        spans: flags.get("--spans").cloned(),
    })
}

/// A workload's inputs, made once per set-up.
enum Inputs {
    Session(Box<workloads::SessionInputs>),
    Study(workloads::StudyInputs),
    T2s(workloads::T2sInputs),
}

impl Inputs {
    /// Generate the inputs; `studies` are the study configurations
    /// `workloads::study_configs` chose (empty for the other workloads).
    fn setup(t: &mut Tracer, args: &Args, studies: &[StudyConfig]) -> Inputs {
        match args.workload.as_str() {
            "annotate_session" => Inputs::Session(Box::new(workloads::session_setup(
                t,
                args.seed,
                &args.sizes,
            ))),
            "study_grading" => Inputs::Study(workloads::study_setup(t, studies)),
            _ => Inputs::T2s(workloads::t2s_setup(t, args.seed, &args.sizes)),
        }
    }

    fn pass(&self) -> Pass {
        match self {
            Inputs::Session(inputs) => workloads::session_pass(inputs),
            Inputs::Study(inputs) => workloads::study_pass(inputs),
            Inputs::T2s(inputs) => workloads::t2s_pass(inputs),
        }
    }

    fn traced(&self, t: &mut Tracer) -> Pass {
        match self {
            Inputs::Session(inputs) => workloads::session_traced(t, inputs),
            Inputs::Study(inputs) => workloads::study_traced(t, inputs),
            Inputs::T2s(inputs) => workloads::t2s_traced(t, inputs),
        }
    }

    /// Operations one pass attempts.
    fn ops_per_pass(&self) -> usize {
        match self {
            Inputs::Session(inputs) => inputs.ops_per_pass(),
            Inputs::Study(inputs) => inputs.ops_per_pass(),
            Inputs::T2s(inputs) => inputs.ops_per_pass(),
        }
    }

    /// Whether passes leave lazily built state behind (per-table indexes
    /// and statistics), so one untimed pass belongs to set-up.
    fn warms_up(&self) -> bool {
        matches!(self, Inputs::T2s(_))
    }
}

/// Metric name → (value, unit), in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Each position's fastest repetition over `series`. Every pass repeats
/// the same steps and calls, so the element-wise minimum keeps the spread
/// across a pass's inputs and drops the phases in which the shared host
/// runs the whole process slower.
fn fastest<'a>(mut series: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best = series.next().map(<[f64]>::to_vec).unwrap_or_default();
    for values in series {
        for (best, value) in best.iter_mut().zip(values) {
            *best = best.min(*value);
        }
    }
    best
}

/// Nearest-rank percentile `p` (0..=100).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What every run checks and counts, whatever it measures.
#[derive(Default)]
struct Tally {
    pass_ops: usize,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    digest: Option<String>,
}

impl Tally {
    /// Tell `run.py` how far the run got, so that a child that dies
    /// mid-pass still has its attempted and failed operations counted.
    fn report_progress(&self) {
        eprintln!(
            "pipebench-progress attempted={} failed={} pass_ops={}",
            self.attempted, self.failed, self.pass_ops
        );
    }

    fn start(&mut self, inputs: &Inputs) {
        self.pass_ops = inputs.ops_per_pass();
        self.report_progress();
    }

    fn absorb(&mut self, label: &str, pass: &Pass) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
        self.report_progress();
        self.problems.extend(pass.problems.iter().cloned());
        match &self.digest {
            None => self.digest = Some(pass.digest.clone()),
            Some(first) if *first != pass.digest => self.problems.push(format!(
                "{label} pass digest {} differs from the first pass's {first}",
                pass.digest
            )),
            Some(_) => {}
        }
    }
}

fn print_facts(pass: &Pass) {
    let mut facts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (name, value) in &pass.facts {
        facts.entry(name).or_default().push(*value);
    }
    for (name, values) in facts {
        let total: f64 = values.iter().sum();
        let max = values.iter().copied().fold(0.0, f64::max);
        println!(
            "fact {name}: total {total} max {max} over {} value(s)",
            values.len()
        );
    }
}

/// Workload-specific names for the generic end-to-end metrics.
fn aliases(workload: &str) -> (&'static str, &'static str, &'static str) {
    match workload {
        "annotate_session" => ("annotate_items_per_s", "annotate_p50_ms", "annotate_p99_ms"),
        "study_grading" => (
            "study_outcomes_per_s",
            "study_run_p50_ms",
            "study_run_p99_ms",
        ),
        _ => ("t2s_items_per_s", "t2s_call_p50_ms", "t2s_call_p99_ms"),
    }
}

/// The study configurations of a `study_grading` run (empty otherwise).
fn choose_studies(args: &Args) -> Vec<StudyConfig> {
    if args.workload != "study_grading" {
        return Vec::new();
    }
    let start = Instant::now();
    let studies = workloads::study_configs(args.seed, &args.sizes);
    println!(
        "study seed selection (untimed input selection): {:.3}s",
        start.elapsed().as_secs_f64()
    );
    studies
}

fn end_to_end(args: &Args, tally: &mut Tally) -> Metrics {
    let studies = choose_studies(args);
    let mut setups: Vec<f64> = Vec::with_capacity(MAX_SETUP_REPS);
    let mut inputs = None;
    while setups.len() < MIN_SETUP_REPS
        || (setups.len() < MAX_SETUP_REPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(Inputs::setup(&mut Tracer::default(), args, &studies));
        setups.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up ran");
    tally.start(&inputs);
    let mut warm_up_s = 0.0;
    if inputs.warms_up() {
        let start = Instant::now();
        tally.absorb("warm-up", &inputs.pass());
        warm_up_s = start.elapsed().as_secs_f64();
    }
    let setup_s = median(&setups) + warm_up_s;
    println!(
        "setup: median {:.3}s of {} set-ups {setups:?} + warm-up pass {warm_up_s:.3}s",
        median(&setups),
        setups.len()
    );
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured_ns = 0u64;
    while passes.is_empty() || (measured_ns as f64) < args.seconds * 1e9 {
        let pass = inputs.pass();
        measured_ns += pass.wall_ns;
        tally.absorb("measured", &pass);
        passes.push(pass);
    }
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let pass_rates: Vec<f64> = passes
        .iter()
        .map(|p| ratio((p.ops - p.failed) as f64, p.wall_ns as f64 / 1e9))
        .collect();
    let listing: Vec<String> = pass_rates.iter().map(|r| format!("{r:.1}")).collect();
    println!(
        "per-pass rates (1/s): {} (median {:.3})",
        listing.join(" "),
        median(&pass_rates)
    );
    let best_steps_s: f64 = fastest(passes.iter().map(|p| p.steps_ms.as_slice()))
        .iter()
        .sum::<f64>()
        / 1e3;
    let items_per_s = ratio((passes[0].ops - passes[0].failed) as f64, best_steps_s);
    let p50 = median(&fastest(passes.iter().map(|p| p.latencies_ms.as_slice())));
    if passes[0].latencies_ms.len() <= 64 {
        let calls: Vec<String> = passes[0]
            .latencies_ms
            .iter()
            .map(|l| format!("{l:.0}"))
            .collect();
        println!("first pass call latencies (ms): {}", calls.join(" "));
    }
    let p99 = percentile(&latencies, 99.0);
    let (rate_name, p50_name, p99_name) = aliases(&args.workload);
    println!(
        "measured {} pass(es), {:.3}s, {} latency samples ({} per pass)",
        passes.len(),
        measured_ns as f64 / 1e9,
        latencies.len(),
        passes[0].latencies_ms.len()
    );
    println!("{rate_name} = {items_per_s:.3} 1/s");
    println!("{p50_name} = {p50:.3} ms (median over calls of each call's fastest pass)");
    println!("{p99_name} = {p99:.3} ms ({} samples)", latencies.len());
    println!("peak_rss_mb = {:.1} MB", peak_rss_mb());
    print_facts(&passes[0]);
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("items_per_s".into(), items_per_s, "1/s"),
        ("latency_p50_ms".into(), p50, "ms"),
    ]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Every per-layer metric of one traced pass but `trace.overhead`, which
/// compares passes.
fn layer_metrics(profile: &Profile, setup: &Profile) -> Metrics {
    let mut m: Metrics = Vec::new();
    let calls = |name: &str| profile.name(name).calls as f64;
    let busy = |name: &str| ms(profile.name(name).busy_ns);
    let own = |name: &str| ms(profile.name(name).self_ns);
    m.push((
        "datasets.generate.busy_ms".into(),
        busy("datasets.generate") + ms(setup.name("datasets.generate").busy_ns),
        "ms",
    ));
    for (name, kind) in [
        ("sql.parse", "calls"),
        ("sql.parse", "busy"),
        ("sql.analyze", "busy"),
        ("sql.decompose", "busy"),
        ("sql.recompose", "busy"),
        ("embed.search", "calls"),
        ("embed.search", "busy"),
        ("embed.add", "calls"),
        ("embed.add", "busy"),
        ("llm.prompt", "busy"),
        ("llm.sql2nl", "calls"),
        ("llm.sql2nl", "busy"),
        ("llm.nl2sql", "calls"),
        ("llm.nl2sql", "busy"),
        ("llm.text2sql", "calls"),
        ("llm.text2sql", "busy"),
        ("storage.prepare", "calls"),
        ("storage.prepare", "busy"),
        ("storage.execute", "calls"),
        ("storage.execute", "busy"),
        ("storage.compare", "busy"),
        ("metrics.grade", "calls"),
        ("metrics.grade", "busy"),
        ("metrics.coverage", "busy"),
        ("core.annotate", "self"),
        ("core.feedback", "busy"),
        ("core.finalize", "busy"),
        ("study.simulate", "self"),
    ] {
        m.push(match kind {
            "calls" => (format!("{name}.calls"), calls(name), "count"),
            "busy" => (format!("{name}.busy_ms"), busy(name), "ms"),
            _ => (format!("{name}.self_ms"), own(name), "ms"),
        });
    }
    let scored = profile.counter("embed.search.docs_scored");
    m.push(("embed.search.docs_scored".into(), scored, "count"));
    m.push((
        "embed.search.docs_per_hit".into(),
        ratio(scored, profile.counter("embed.search.hits")),
        "ratio",
    ));
    let hits = profile.counter("storage.cache.hits");
    let misses = profile.counter("storage.cache.misses");
    m.push(("storage.cache.hits".into(), hits, "count"));
    m.push(("storage.cache.misses".into(), misses, "count"));
    m.push((
        "storage.cache.hit_rate".into(),
        ratio(hits, hits + misses),
        "ratio",
    ));
    for counter in [
        "storage.execute.rows_out",
        "storage.execute.errors",
        "storage.access.index_scans",
        "storage.access.full_scans",
    ] {
        m.push((counter.into(), profile.counter(counter), "count"));
    }
    m.push((
        "storage.execute.max_item_ms".into(),
        ms(profile.name("storage.execute").max_ns),
        "ms",
    ));
    m.push((
        "storage.estimate.rows_ratio".into(),
        ratio(
            profile.counter("storage.estimate.estimated_rows"),
            profile.counter("storage.estimate.actual_rows"),
        ),
        "ratio",
    ));
    m.push(("pool.idle_frac".into(), profile.pool_idle_frac(), "ratio"));
    let by_layer = profile.self_ns_by_layer();
    for layer in LAYERS {
        let value = ms(by_layer.get(layer).copied().unwrap_or(0));
        m.push((format!("layer.{layer}.self_ms"), value, "ms"));
    }
    m.push(("trace.coverage".into(), profile.coverage(), "ratio"));
    m
}

fn per_layer(args: &Args, tally: &mut Tally) -> Metrics {
    let mut setup_tracer = Tracer::default();
    let inputs = Inputs::setup(&mut setup_tracer, args, &choose_studies(args));
    let setup = setup_tracer.profile(setup_tracer.elapsed_ns());
    tally.start(&inputs);
    if inputs.warms_up() {
        tally.absorb("warm-up", &inputs.pass());
    }
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut runs: Vec<Metrics> = Vec::new();
    let mut last: Option<(Tracer, Profile)> = None;
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let untraced = inputs.pass();
        tally.absorb("untraced", &untraced);
        untraced_walls.push(untraced.wall_ns as f64);
        let mut tracer = Tracer::default();
        let traced = inputs.traced(&mut tracer);
        tally.absorb("traced", &traced);
        traced_walls.push(traced.wall_ns as f64);
        let profile = tracer.profile(tracer.elapsed_ns());
        runs.push(layer_metrics(&profile, &setup));
        last = Some((tracer, profile));
    }
    let (tracer, profile) = last.expect("at least one traced pass ran");
    if let Some(path) = &args.spans {
        if let Err(error) = std::fs::write(path, tracer.spans_tsv()) {
            tally
                .problems
                .push(format!("writing spans to {path}: {error}"));
        }
    }
    println!(
        "traced {} pass pair(s): untraced median {:.3}s, traced median {:.3}s",
        runs.len(),
        median(&untraced_walls) / 1e9,
        median(&traced_walls) / 1e9
    );
    println!("replayed through lower layers: Project::annotate, grade_cached, evaluate_execution_accuracy_cached, run_study, clarity_histograms_detailed (nothing booked to an outer layer)");
    let by_layer = profile.self_ns_by_layer();
    let total: u64 = by_layer.values().sum();
    let mut shares: Vec<(&str, u64)> = by_layer.into_iter().collect();
    shares.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    let listing: Vec<String> = shares
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", 100.0 * ratio(*ns as f64, total as f64)))
        .collect();
    println!("self time by layer: {}", listing.join(", "));
    if let Some((layer, _)) = shares.first() {
        println!("largest share of self time: {layer}");
    }
    let coverage = profile.coverage();
    println!(
        "trace coverage {coverage:.3}{}",
        if coverage < 0.9 {
            " — under-attributed (named layers cover < 90% of the traced lane time)"
        } else {
            ""
        }
    );
    let mut metrics = runs.swap_remove(0);
    for (index, (_, value, _)) in metrics.iter_mut().enumerate() {
        let values: Vec<f64> = std::iter::once(*value)
            .chain(runs.iter().map(|run| run[index].1))
            .collect();
        *value = median(&values);
    }
    let overhead = ratio(median(&traced_walls), median(&untraced_walls)) - 1.0;
    metrics.push(("trace.overhead".into(), overhead, "ratio"));
    metrics
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("pipebench: {error}");
            return ExitCode::from(2);
        }
    };
    println!(
        "pipebench workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bp_storage::available_threads()
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    println!(
        "digest {} {}",
        args.workload,
        tally.digest.as_deref().unwrap_or("none")
    );
    println!(
        "failed_frac = {} ({} of {} operations)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    for problem in &tally.problems {
        println!("check failed: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.problems.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
