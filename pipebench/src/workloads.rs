//! The three workloads: inputs made from the seed, one untraced pass over
//! the public API, and one traced pass over the replays.
//!
//! A pass is a fixed amount of work, so every pass of a run produces the
//! same output digest, and the traced pass must produce the digest of the
//! untraced one. Failed operations (an `Err` or a panic) are counted, not
//! fatal.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bp_core::{AnnotationDraft, AnnotationRecord, CoreError, FeedbackAction, Project, TaskConfig};
use bp_datasets::{
    generate_database, generate_workload, lexicon_for, BenchmarkKind, GeneratedBenchmark,
};
use bp_llm::{
    evaluate_execution_accuracy_cached, EvalItem, ExecOptions, ExecutionAccuracyReport, ModelKind,
};
use bp_storage::{Database, PlanCache};
use bp_study::{run_study, Condition, StudyConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::replay::{self, is_known, ReplayProject, StudyGrades};
use crate::trace::{Digest, Tracer};

/// How much work one pass does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Beaver queries in the annotation session (the final knowledge-base
    /// size in annotations).
    pub session_queries: usize,
    /// Study runs per pass, each with its own seed.
    pub studies: usize,
    /// Participants per study run.
    pub participants: usize,
    /// Beaver (and, again, Bird) queries in each study's shared set.
    pub study_queries: usize,
    /// Corpora per benchmark kind in the text-to-SQL evaluation.
    pub t2s_corpora: usize,
    /// Log entries per text-to-SQL corpus.
    pub t2s_items: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` documents.
    pub const FULL: Sizes = Sizes {
        session_queries: 1000,
        studies: 4,
        participants: 12,
        study_queries: 15,
        t2s_corpora: 4,
        t2s_items: 800,
    };

    /// A seconds-long size for the benchmark's self-test.
    pub const TINY: Sizes = Sizes {
        session_queries: 24,
        studies: 1,
        participants: 6,
        study_queries: 4,
        t2s_corpora: 1,
        t2s_items: 12,
    };
}

/// The session and text-to-SQL corpora use a Laptop-scale profile whose
/// `rows_per_table` is divided by this. At full Laptop scale a star join
/// over skewed foreign keys can materialize millions of rows, in the
/// generator's own validation run or in a prediction the grader executes
/// (the unbounded many-to-many join), so one query would set a run's time
/// and memory, or abort it.
pub const ROW_DIVISOR: usize = 8;

/// The models plotted in Figure 1.
pub const FIGURE1_MODELS: [ModelKind; 4] = [
    ModelKind::Gpt4o,
    ModelKind::Llama70B,
    ModelKind::Llama8B,
    ModelKind::ContextModel,
];

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted.
    pub ops: usize,
    /// Operations that returned an error or panicked.
    pub failed: usize,
    /// Latency of each user-facing call, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time of each step of the timed part (one loop iteration or
    /// one batch call), in milliseconds. Every pass repeats the same steps.
    pub steps_ms: Vec<f64>,
    /// Wall time of the timed part of the pass.
    pub wall_ns: u64,
    /// Digest of every output of the pass.
    pub digest: String,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Sizes worth reporting (knowledge-base size, cache lookups, ...).
    pub facts: Vec<(&'static str, f64)>,
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn millis_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Mix a run seed with a stream index into an independent sub-seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------
// annotate_session
// ---------------------------------------------------------------------

/// One annotator's session over a long Beaver log.
pub struct SessionInputs {
    corpus: GeneratedBenchmark,
    task: TaskConfig,
    annotator_seed: u64,
}

impl SessionInputs {
    /// One annotate → feedback → finalize loop per log entry.
    pub fn ops_per_pass(&self) -> usize {
        self.corpus.log.len()
    }
}

/// Generate a Laptop-scale corpus with `rows_per_table` divided by
/// [`ROW_DIVISOR`].
fn generate_corpus(kind: BenchmarkKind, queries: usize, seed: u64) -> GeneratedBenchmark {
    let mut profile = kind.profile();
    profile.rows_per_table = (profile.rows_per_table / ROW_DIVISOR).max(8);
    let database = generate_database(&profile, seed);
    let lexicon = lexicon_for(kind);
    let log = generate_workload(&database, &profile, &lexicon, queries, seed ^ 0xbeef);
    GeneratedBenchmark {
        kind,
        profile,
        database,
        log,
        lexicon,
    }
}

/// Generate the session's Beaver corpus.
pub fn session_setup(t: &mut Tracer, seed: u64, sizes: &Sizes) -> SessionInputs {
    let corpus = t.span("datasets.generate", |_| {
        generate_corpus(
            BenchmarkKind::Beaver,
            sizes.session_queries,
            sub_seed(seed, 1),
        )
    });
    SessionInputs {
        corpus,
        task: TaskConfig::default().with_seed(sub_seed(seed, 2)),
        annotator_seed: sub_seed(seed, 3),
    }
}

/// What the simulated annotator does with a draft after feeding back
/// knowledge: accept a candidate, or edit one.
enum Choice {
    Select(usize),
    Edit(usize),
}

fn annotator_choice(rng: &mut ChaCha8Rng) -> Choice {
    let pick = rng.gen_range(0..bp_llm::CANDIDATES_PER_QUERY);
    if rng.gen_bool(0.2) {
        Choice::Edit(pick)
    } else {
        Choice::Select(pick)
    }
}

fn edited(candidate: &str) -> String {
    format!("{candidate} (Reviewed by the annotator.)")
}

/// Fold one session step's outputs into the digest and the checks.
fn record_step(
    pass: &mut Pass,
    digest: &mut Digest,
    id: usize,
    step: std::thread::Result<Result<(AnnotationDraft, AnnotationRecord), CoreError>>,
) {
    pass.ops += 1;
    match step {
        Ok(Ok((draft, record))) => {
            if draft.candidates.len() != bp_llm::CANDIDATES_PER_QUERY {
                pass.problems.push(format!(
                    "query {id}: {} candidates in the draft",
                    draft.candidates.len()
                ));
            }
            let _ = write!(digest, "{draft:?}{record:?}");
        }
        Ok(Err(error)) => {
            pass.failed += 1;
            let _ = write!(digest, "query {id} failed: {error}");
        }
        Err(_) => {
            pass.failed += 1;
            let _ = write!(digest, "query {id} panicked");
        }
    }
}

fn check_session_size(pass: &mut Pass, annotations: usize, notes: usize, expected: usize) {
    if annotations + pass.failed != expected {
        pass.problems.push(format!(
            "knowledge base holds {annotations} annotations after {expected} queries"
        ));
    }
    pass.facts.push(("kb_annotations", annotations as f64));
    pass.facts.push(("kb_knowledge_notes", notes as f64));
}

/// The session through `bp_core::Project`.
pub fn session_pass(inputs: &SessionInputs) -> Pass {
    let mut project = Project::new("session", inputs.task.clone());
    project.ingest_benchmark(&inputs.corpus);
    let mut rng = ChaCha8Rng::seed_from_u64(inputs.annotator_seed);
    let mut pass = Pass::default();
    let mut steps = Vec::with_capacity(inputs.corpus.log.len());
    let start = Instant::now();
    for (id, entry) in inputs.corpus.log.iter().enumerate() {
        let choice = annotator_choice(&mut rng);
        let step_start = Instant::now();
        let step = catch_unwind(AssertUnwindSafe(|| {
            let asked = Instant::now();
            let draft = project.annotate(id)?;
            pass.latencies_ms.push(millis_since(asked));
            for term in inputs.corpus.lexicon.terms_in(&entry.sql) {
                if !is_known(&project.knowledge().knowledge_texts(), &term.term) {
                    project.apply_feedback(
                        id,
                        FeedbackAction::AddKnowledge {
                            topic: term.term.clone(),
                            note: term.explanation.clone(),
                        },
                    )?;
                }
            }
            let action = match choice {
                Choice::Select(pick) => FeedbackAction::SelectCandidate(pick),
                Choice::Edit(pick) => FeedbackAction::Edit(edited(&draft.candidates[pick])),
            };
            project.apply_feedback(id, action)?;
            let record = project.finalize(id)?;
            Ok((draft, record))
        }));
        pass.steps_ms.push(millis_since(step_start));
        steps.push(step);
    }
    pass.wall_ns = nanos_since(start);
    let mut digest = Digest::default();
    for (id, step) in steps.into_iter().enumerate() {
        record_step(&mut pass, &mut digest, id, step);
    }
    let knowledge = project.knowledge();
    check_session_size(
        &mut pass,
        knowledge.annotation_count(),
        knowledge.knowledge_notes().len(),
        inputs.corpus.log.len(),
    );
    pass.digest = digest.hex();
    pass
}

/// The session through [`ReplayProject`], traced.
pub fn session_traced(t: &mut Tracer, inputs: &SessionInputs) -> Pass {
    let mut project = ReplayProject::new(inputs.task.clone(), &inputs.corpus);
    let mut rng = ChaCha8Rng::seed_from_u64(inputs.annotator_seed);
    let mut pass = Pass::default();
    let mut steps = Vec::with_capacity(inputs.corpus.log.len());
    let start = Instant::now();
    for (id, entry) in inputs.corpus.log.iter().enumerate() {
        t.set_item(id);
        let choice = annotator_choice(&mut rng);
        let step = catch_unwind(AssertUnwindSafe(|| {
            let draft = project.annotate(t, id)?;
            for term in inputs.corpus.lexicon.terms_in(&entry.sql) {
                if !is_known(&project.knowledge_texts(), &term.term) {
                    project.add_knowledge(t, id, term.term.clone(), term.explanation.clone())?;
                }
            }
            match choice {
                Choice::Select(pick) => project.select(t, id, pick)?,
                Choice::Edit(pick) => project.edit(t, id, edited(&draft.candidates[pick]))?,
            }
            let record = project.finalize(t, id)?;
            Ok((draft, record))
        }));
        steps.push(step);
    }
    pass.wall_ns = nanos_since(start);
    let mut digest = Digest::default();
    for (id, step) in steps.into_iter().enumerate() {
        record_step(&mut pass, &mut digest, id, step);
    }
    let notes = project.knowledge_texts().len();
    check_session_size(
        &mut pass,
        project.annotation_count(),
        notes,
        inputs.corpus.log.len(),
    );
    pass.digest = digest.hex();
    pass
}

// ---------------------------------------------------------------------
// study_grading
// ---------------------------------------------------------------------

/// The user-study configurations of one pass, with each study's query
/// set (Beaver then Bird SQL) to check outcomes against.
pub struct StudyInputs {
    configs: Vec<StudyConfig>,
    query_sets: Vec<Vec<String>>,
}

impl StudyInputs {
    /// One graded outcome per participant and query of every study.
    pub fn ops_per_pass(&self) -> usize {
        self.configs
            .iter()
            .map(|config| config.participants * config.total_queries())
            .sum()
    }
}

/// Whether a generated log holds a star join: the shape whose
/// many-to-many fan-out at Laptop scale can take seconds and gigabytes for
/// one query (see [`ROW_DIVISOR`]).
fn has_star_join(corpus: &GeneratedBenchmark) -> bool {
    corpus
        .log
        .iter()
        .any(|entry| entry.sql.contains(" hub ON "))
}

/// The two corpora `run_study` generates for `config`.
fn study_corpora(config: &StudyConfig) -> (GeneratedBenchmark, GeneratedBenchmark) {
    (
        GeneratedBenchmark::generate(BenchmarkKind::Beaver, config.beaver_queries, config.seed),
        GeneratedBenchmark::generate(BenchmarkKind::Bird, config.bird_queries, config.seed ^ 0x51),
    )
}

/// Choose the studies of a run. `run_study` generates its corpora at
/// Laptop scale from the study seed, so each study takes the next sub-seed
/// whose Beaver and Bird query sets hold no star join. This is input
/// selection, done once per run and not timed as set-up: how long it takes
/// depends on how many rejected candidates hold an expensive join.
pub fn study_configs(seed: u64, sizes: &Sizes) -> Vec<StudyConfig> {
    let mut configs = Vec::with_capacity(sizes.studies);
    let mut stream = 10;
    while configs.len() < sizes.studies {
        stream += 1;
        let config = StudyConfig {
            participants: sizes.participants,
            beaver_queries: sizes.study_queries,
            bird_queries: sizes.study_queries,
            seed: sub_seed(seed, stream),
            model: ModelKind::Gpt4o,
        };
        let (beaver, bird) = study_corpora(&config);
        if !has_star_join(&beaver) && !has_star_join(&bird) {
            configs.push(config);
        }
    }
    configs
}

/// Generate each chosen study's query set, to check its outcomes against.
pub fn study_setup(t: &mut Tracer, configs: &[StudyConfig]) -> StudyInputs {
    let query_sets = configs
        .iter()
        .map(|config| {
            let (beaver, bird) = t.span("datasets.generate", |_| study_corpora(config));
            beaver
                .log
                .iter()
                .chain(&bird.log)
                .map(|entry| entry.sql.clone())
                .collect()
        })
        .collect();
    StudyInputs {
        configs: configs.to_vec(),
        query_sets,
    }
}

fn record_study(
    pass: &mut Pass,
    digest: &mut Digest,
    config: &StudyConfig,
    expected_sql: &[String],
    study: Result<(Vec<bp_study::AnnotationOutcome>, StudyGrades), String>,
) {
    let expected = config.participants * config.total_queries();
    pass.ops += expected;
    let (outcomes, grades) = match study {
        Ok(study) => study,
        Err(reason) => {
            pass.failed += expected;
            let _ = write!(digest, "study {} failed: {reason}", config.seed);
            return;
        }
    };
    let graded: usize = grades.histograms.iter().map(|(_, h)| h.total()).sum();
    if outcomes.len() != expected || graded != expected {
        pass.problems.push(format!(
            "study {}: {} outcomes and {graded} graded, expected {expected}",
            config.seed,
            outcomes.len()
        ));
    }
    if outcomes.iter().any(|o| !expected_sql.contains(&o.sql)) {
        pass.problems.push(format!(
            "study {}: an outcome annotates SQL outside the query set",
            config.seed
        ));
    }
    if grades.verifier.violations != 0 {
        pass.problems.push(format!(
            "study {}: {} plan-verifier violations",
            config.seed, grades.verifier.violations
        ));
    }
    let lookups = grades.cache.hits + grades.cache.misses;
    let outcome_count = outcomes.len() as u64;
    if lookups < outcome_count || lookups > 2 * outcome_count {
        pass.problems.push(format!(
            "study {}: {lookups} plan-cache lookups for {outcome_count} outcomes",
            config.seed
        ));
    }
    for outcome in &outcomes {
        let _ = write!(digest, "{outcome:?}");
    }
    let _ = write!(
        digest,
        "{:?}{lookups}{:?}{:?}",
        grades.histograms, grades.access, grades.cardinality
    );
    pass.facts.push(("plan_cache_lookups", lookups as f64));
    pass.facts
        .push(("plan_cache_hits", grades.cache.hits as f64));
}

/// Every study through `run_study` and `clarity_histograms_detailed`.
pub fn study_pass(inputs: &StudyInputs) -> Pass {
    let mut pass = Pass::default();
    let mut studies = Vec::with_capacity(inputs.configs.len());
    let start = Instant::now();
    for config in &inputs.configs {
        let asked = Instant::now();
        studies.push(
            catch_unwind(AssertUnwindSafe(|| {
                let run = run_study(config);
                let (histograms, cache, access, verifier, _, cardinality) =
                    run.clarity_histograms_detailed(ModelKind::Gpt4o);
                let grades = StudyGrades {
                    histograms: Condition::all()
                        .iter()
                        .map(|c| (*c, histograms.get(c).cloned().unwrap_or_default()))
                        .collect(),
                    cache,
                    access,
                    verifier,
                    cardinality,
                };
                (run.outcomes, grades)
            }))
            .map_err(|_| "panicked".to_string()),
        );
        pass.latencies_ms.push(millis_since(asked));
        pass.steps_ms.push(millis_since(asked));
    }
    pass.wall_ns = nanos_since(start);
    let mut digest = Digest::default();
    let checked = inputs.configs.iter().zip(&inputs.query_sets);
    for ((config, expected), study) in checked.zip(studies) {
        record_study(&mut pass, &mut digest, config, expected, study);
    }
    pass.digest = digest.hex();
    pass
}

/// Every study through the replays, traced.
pub fn study_traced(t: &mut Tracer, inputs: &StudyInputs) -> Pass {
    let mut pass = Pass::default();
    let mut studies = Vec::with_capacity(inputs.configs.len());
    let start = Instant::now();
    for config in &inputs.configs {
        let study = catch_unwind(AssertUnwindSafe(|| {
            let run = replay::run_study(t, config)?;
            let grades = replay::clarity_histograms(t, &run, ModelKind::Gpt4o)?;
            t.count("storage.cache.hits", grades.cache.hits as f64);
            t.count("storage.cache.misses", grades.cache.misses as f64);
            Ok((run.outcomes, grades))
        }));
        studies.push(study.unwrap_or_else(|_| Err("panicked".to_string())));
    }
    pass.wall_ns = nanos_since(start);
    let mut digest = Digest::default();
    let checked = inputs.configs.iter().zip(&inputs.query_sets);
    for ((config, expected), study) in checked.zip(studies) {
        record_study(&mut pass, &mut digest, config, expected, study);
    }
    pass.digest = digest.hex();
    pass
}

// ---------------------------------------------------------------------
// text2sql_eval
// ---------------------------------------------------------------------

/// One corpus of the Figure 1 evaluation.
pub struct T2sCorpus {
    kind: BenchmarkKind,
    database: Database,
    items: Vec<EvalItem>,
}

/// The Figure 1 corpora of one pass and the evaluation seed.
pub struct T2sInputs {
    corpora: Vec<T2sCorpus>,
    eval_seed: u64,
}

impl T2sInputs {
    /// One (item, model) pair per log entry and Figure 1 model.
    pub fn ops_per_pass(&self) -> usize {
        let items: usize = self.corpora.iter().map(|c| c.items.len()).sum();
        items * FIGURE1_MODELS.len()
    }
}

/// Generate `t2s_corpora` corpora of every benchmark kind.
pub fn t2s_setup(t: &mut Tracer, seed: u64, sizes: &Sizes) -> T2sInputs {
    let mut corpora = Vec::new();
    for (kind_index, kind) in BenchmarkKind::all().iter().enumerate() {
        for copy in 0..sizes.t2s_corpora {
            let corpus_seed = sub_seed(seed, 100 + (kind_index * 64 + copy) as u64);
            corpora.push(t.span("datasets.generate", |_| {
                let corpus = generate_corpus(*kind, sizes.t2s_items, corpus_seed);
                T2sCorpus {
                    kind: *kind,
                    items: corpus.eval_items(),
                    database: corpus.database,
                }
            }));
        }
    }
    T2sInputs {
        corpora,
        eval_seed: sub_seed(seed, 4),
    }
}

fn record_report(
    pass: &mut Pass,
    digest: &mut Digest,
    corpus: &T2sCorpus,
    report: std::thread::Result<ExecutionAccuracyReport>,
) {
    pass.ops += corpus.items.len();
    match report {
        Ok(report) => {
            if report.total != corpus.items.len()
                || report.correct + report.invalid > report.gradable()
            {
                pass.problems.push(format!(
                    "{}: inconsistent report {report:?}",
                    corpus.kind.name()
                ));
            }
            let _ = write!(digest, "{}{report:?}", corpus.kind.name());
        }
        Err(_) => {
            pass.failed += corpus.items.len();
            let _ = write!(digest, "{} panicked", corpus.kind.name());
        }
    }
}

fn record_cache(pass: &mut Pass, cache: &PlanCache) {
    let stats = cache.stats();
    let lookups = (stats.hits + stats.misses) as f64;
    pass.facts.push(("plan_cache_lookups", lookups));
    pass.facts.push(("plan_cache_misses", stats.misses as f64));
}

/// Every corpus × model through `evaluate_execution_accuracy_cached`, one
/// plan cache per corpus.
pub fn t2s_pass(inputs: &T2sInputs) -> Pass {
    let mut pass = Pass::default();
    let mut reports = Vec::new();
    let start = Instant::now();
    for corpus in &inputs.corpora {
        let cache = PlanCache::with_default_capacity();
        for model in FIGURE1_MODELS {
            let asked = Instant::now();
            reports.push(catch_unwind(AssertUnwindSafe(|| {
                evaluate_execution_accuracy_cached(
                    &model.profile(),
                    &corpus.items,
                    &corpus.database,
                    inputs.eval_seed,
                    ExecOptions::default(),
                    &cache,
                )
            })));
            pass.latencies_ms.push(millis_since(asked));
            pass.steps_ms.push(millis_since(asked));
        }
        record_cache(&mut pass, &cache);
    }
    pass.wall_ns = nanos_since(start);
    let mut digest = Digest::default();
    let per_corpus = FIGURE1_MODELS.len();
    for (index, report) in reports.into_iter().enumerate() {
        record_report(
            &mut pass,
            &mut digest,
            &inputs.corpora[index / per_corpus],
            report,
        );
    }
    pass.digest = digest.hex();
    pass
}

/// Every corpus × model through the replayed evaluation, traced.
pub fn t2s_traced(t: &mut Tracer, inputs: &T2sInputs) -> Pass {
    let mut pass = Pass::default();
    let mut reports = Vec::new();
    let start = Instant::now();
    for corpus in &inputs.corpora {
        let cache = PlanCache::with_default_capacity();
        let snapshot = corpus.database.snapshot();
        for model in FIGURE1_MODELS {
            reports.push(catch_unwind(AssertUnwindSafe(|| {
                replay::evaluate_execution_accuracy(
                    t,
                    &model.profile(),
                    &corpus.items,
                    &snapshot,
                    inputs.eval_seed,
                    &cache,
                )
            })));
        }
        let stats = cache.stats();
        t.count("storage.cache.hits", stats.hits as f64);
        t.count("storage.cache.misses", stats.misses as f64);
        record_cache(&mut pass, &cache);
    }
    pass.wall_ns = nanos_since(start);
    let mut digest = Digest::default();
    let per_corpus = FIGURE1_MODELS.len();
    for (index, report) in reports.into_iter().enumerate() {
        record_report(
            &mut pass,
            &mut digest,
            &inputs.corpora[index / per_corpus],
            report,
        );
    }
    pass.digest = digest.hex();
    pass
}
