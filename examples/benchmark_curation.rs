//! Benchmark curation end-to-end: generate an enterprise-like corpus, curate
//! a text-to-SQL benchmark from its SQL log with BenchPress, export it, and
//! then use the curated benchmark to evaluate text-to-SQL models (the
//! workflow the paper positions BenchPress for).
//!
//! Run with: `cargo run --example benchmark_curation`

use benchpress_suite::core::{
    execution_accuracy_cached, export_records, review_metrics, FeedbackAction, Project, TaskConfig,
};
use benchpress_suite::datasets::{BenchmarkKind, GeneratedBenchmark};
use benchpress_suite::llm::ModelKind;
use benchpress_suite::storage::{ExecOptions, PlanCache};

fn main() {
    // An enterprise SQL log (Beaver-like): ambiguous schema, domain terms.
    let corpus = GeneratedBenchmark::generate(BenchmarkKind::Beaver, 12, 7);
    println!(
        "Generated enterprise corpus: {} tables, {} queries in the log.",
        corpus.database.table_count(),
        corpus.log.len()
    );

    // Curate: annotate every log entry with the BenchPress loop, accepting
    // the first candidate (a real deployment would review each one).
    let mut project = Project::new("enterprise-benchmark", TaskConfig::default().with_seed(11));
    project.ingest_benchmark(&corpus);
    for query_id in 0..project.log().len() {
        project.annotate(query_id).expect("annotation runs");
        project
            .apply_feedback(query_id, FeedbackAction::SelectCandidate(0))
            .expect("feedback applies");
        project.finalize(query_id).expect("finalizes");
    }
    println!("Curated {} annotations.", project.finalized_count());

    // Review metrics against the gold questions the generator produced.
    let metrics = review_metrics(&project);
    println!(
        "Review metrics vs gold: exact match {:.0}%, BLEU {:.2}, ROUGE-L {:.2} over {} pairs.",
        metrics.exact_match_rate * 100.0,
        metrics.mean_bleu,
        metrics.mean_rouge_l,
        metrics.compared
    );

    // Export: the benchmark-ready records.
    let records = export_records(&project);
    println!(
        "Exported {} records; first entry:\n  question: {}\n  query:    {}",
        records.len(),
        records[0].question,
        records[0].query
    );

    // Use the curated benchmark to evaluate text-to-SQL models on *your* workload.
    // One plan cache serves every model, so each gold query compiles once.
    println!("\nExecution accuracy of text-to-SQL models on the curated workload:");
    let cache = PlanCache::with_default_capacity();
    for model in [ModelKind::Gpt4o, ModelKind::Llama70B, ModelKind::Llama8B] {
        let report = execution_accuracy_cached(
            &project,
            model,
            corpus.profile.schema_ambiguity,
            3,
            ExecOptions::default(),
            &cache,
        );
        println!(
            "  {:<18} {:>5.1}%  ({} / {} correct, {} invalid)",
            model.name(),
            report.accuracy_percent(),
            report.correct,
            report.total,
            report.invalid
        );
    }
}
