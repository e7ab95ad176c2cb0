//! Criterion micro-benchmarks of the BenchPress pipeline hot paths:
//! SQL parsing + analysis, decomposition, embedding + retrieval, candidate
//! generation, the end-to-end annotation loop, and backtranslation grading.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

use bp_core::{FeedbackAction, Project, TaskConfig};
use bp_datasets::{BenchmarkKind, GeneratedBenchmark};
use bp_embed::{DocumentKind, VectorStore};
use bp_llm::{generate_candidates, GenerationRequest, ModelKind, PromptBuilder};

const ENTERPRISE_SQL: &str = "SELECT p.DEPARTMENT_NAME, COUNT(DISTINCT c.MOIRA_LIST_KEY), MAX(c.MOIRA_LIST_COUNT) \
     FROM MOIRA_LIST c JOIN EMPLOYEE_DIRECTORY p ON c.PERSON_ID = p.PERSON_ID \
     WHERE p.STATUS_CODE = 'ACTIVE' AND c.MOIRA_LIST_COUNT > (SELECT AVG(MOIRA_LIST_COUNT) FROM MOIRA_LIST) \
     GROUP BY p.DEPARTMENT_NAME HAVING COUNT(*) >= 1 ORDER BY 2 DESC LIMIT 5";

fn bench_parse_and_analyze(c: &mut Criterion) {
    c.bench_function("sql/parse+analyze enterprise query", |b| {
        b.iter(|| {
            let query = bp_sql::parse_query(ENTERPRISE_SQL).unwrap();
            bp_sql::analyze(&query)
        })
    });
}

fn bench_decompose(c: &mut Criterion) {
    let query = bp_sql::parse_query(ENTERPRISE_SQL).unwrap();
    c.bench_function("sql/decompose nested query", |b| {
        b.iter(|| bp_sql::decompose(&query))
    });
}

fn bench_retrieval(c: &mut Criterion) {
    let mut store = VectorStore::new();
    let corpus = GeneratedBenchmark::generate(BenchmarkKind::Beaver, 60, 7);
    for entry in &corpus.log {
        store.add(
            entry.sql.clone(),
            Some(entry.question.clone()),
            DocumentKind::Annotation,
        );
    }
    c.bench_function("embed/top-3 retrieval over 60 annotations", |b| {
        b.iter(|| store.search(ENTERPRISE_SQL, 3, Some(DocumentKind::Annotation)))
    });
}

fn bench_candidate_generation(c: &mut Criterion) {
    let query = bp_sql::parse_query(ENTERPRISE_SQL).unwrap();
    let prompt = PromptBuilder::new(ENTERPRISE_SQL)
        .schema_table(
            "CREATE TABLE MOIRA_LIST (MOIRA_LIST_KEY INT, MOIRA_LIST_COUNT INT, PERSON_ID INT)",
        )
        .example(
            "SELECT COUNT(*) FROM MOIRA_LIST",
            "How many Moira lists exist?",
            0.9,
        )
        .build();
    let profile = ModelKind::Gpt4o.profile();
    c.bench_function("llm/generate 4 candidates", |b| {
        b.iter(|| {
            let request = GenerationRequest {
                query: &query,
                prompt: &prompt,
                unresolved_domain_terms: 1,
                seed: 3,
            };
            generate_candidates(&profile, &request)
        })
    });
}

fn bench_annotation_loop(c: &mut Criterion) {
    let corpus = GeneratedBenchmark::generate(BenchmarkKind::Bird, 10, 13);
    c.bench_function("core/annotation loop (annotate+feedback+finalize)", |b| {
        b.iter_batched(
            || {
                let mut project = Project::new("bench", TaskConfig::default().with_seed(1));
                project.ingest_benchmark(&corpus);
                project
            },
            |mut project| {
                project.annotate(0).unwrap();
                project
                    .apply_feedback(0, FeedbackAction::SelectCandidate(0))
                    .unwrap();
                project.finalize(0).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_backtranslation(c: &mut Criterion) {
    let corpus = GeneratedBenchmark::generate(BenchmarkKind::Bird, 5, 17);
    let translator =
        bp_llm::Backtranslator::new(corpus.database.catalog(), ModelKind::Gpt4o.profile());
    let entry = &corpus.log[0];
    c.bench_function("llm/backtranslate + rubric grade", |b| {
        b.iter(|| {
            let regenerated = translator.backtranslate(&entry.question);
            bp_metrics::grade_sql(&entry.sql, &regenerated, Some(&corpus.database)).unwrap()
        })
    });
}

fn bench_execution(c: &mut Criterion) {
    let corpus = GeneratedBenchmark::generate(BenchmarkKind::Spider, 5, 23);
    let entry = &corpus.log[0];
    c.bench_function("storage/execute generated query", |b| {
        b.iter(|| corpus.database.execute_sql(&entry.sql).unwrap())
    });
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_parse_and_analyze, bench_decompose, bench_retrieval,
        bench_candidate_generation, bench_annotation_loop, bench_backtranslation,
        bench_execution
}
criterion_main!(benches);
