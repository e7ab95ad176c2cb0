//! Figure 1 — execution accuracy of text-to-SQL models on the public
//! benchmarks (Spider, Bird, Fiben) versus the enterprise benchmark
//! (Beaver).
//!
//! For each benchmark corpus the harness runs every Figure 1 model through
//! the simulated text-to-SQL inference and reports execution accuracy
//! (predicted result set equals gold result set). The paper's headline shape
//! is the collapse on Beaver: public benchmarks land in the 60–95% range
//! while the enterprise corpus drops to (near) zero for general models, with
//! only the enterprise-tuned "contextModel" recovering a little.
//!
//! Grading runs `bp_llm`'s inter-query batch pipeline: items fan out across
//! a work-stealing worker pool sharing one LRU plan cache per corpus, which
//! every model grades through, so each gold query is prepared once per
//! corpus, not once per model. The reported numbers are byte-identical at
//! every thread count and to a fresh cache per model. Items whose *gold* SQL
//! fails to run are corpus defects, reported separately (`gold-invalid`)
//! and excluded from the accuracy denominator.

use bp_bench::{
    f1, figure1_models, generate_all_benchmarks, print_header, HARNESS_SEED, QUERIES_PER_BENCHMARK,
};
use bp_llm::evaluate_execution_accuracy_cached;
use bp_storage::{available_threads, ExecOptions, PlanCache};

fn main() {
    print_header(
        "Figure 1: execution accuracy by benchmark and model",
        "Figure 1",
    );
    println!(
        "(batch grading pipeline: {} worker thread(s), {} items per corpus)\n",
        available_threads(),
        QUERIES_PER_BENCHMARK
    );
    // Paper values (read off the figure): per benchmark, best model ~86-92%
    // on public benchmarks, ~2% on Beaver; weaker models lower.
    println!(
        "{:<10} {:>18} {:>12} {:>12}",
        "Benchmark", "Model", "Paper(~%)", "Measured(%)"
    );
    let paper_reference: &[(&str, &[(&str, f64)])] = &[
        (
            "Spider",
            &[
                ("GPT-4o", 86.0),
                ("Llama3.1-70B-lt", 78.0),
                ("Llama3.1-8B-lt", 62.0),
                ("best model", 91.2),
            ],
        ),
        (
            "Bird",
            &[
                ("GPT-4o", 61.0),
                ("Llama3.1-70B-lt", 50.0),
                ("Llama3.1-8B-lt", 35.0),
                ("best model", 67.2),
            ],
        ),
        (
            "Fiben",
            &[
                ("GPT-4o", 45.0),
                ("Llama3.1-70B-lt", 35.0),
                ("Llama3.1-8B-lt", 20.0),
                ("best model", 54.0),
            ],
        ),
        (
            "Beaver",
            &[
                ("GPT-4o", 2.0),
                ("Llama3.1-70B-lt", 0.0),
                ("Llama3.1-8B-lt", 0.0),
                ("best model", 21.0),
            ],
        ),
    ];

    let corpora = generate_all_benchmarks(QUERIES_PER_BENCHMARK, HARNESS_SEED);
    let models = figure1_models();
    let mut gold_invalid_total = 0usize;
    for corpus in &corpora {
        let paper_rows = paper_reference
            .iter()
            .find(|(name, _)| *name == corpus.kind.name())
            .map(|(_, rows)| *rows)
            .unwrap_or(&[]);
        let items = corpus.eval_items();
        let cache = PlanCache::with_default_capacity();
        for (index, model) in models.iter().enumerate() {
            let report = evaluate_execution_accuracy_cached(
                &model.profile(),
                &items,
                &corpus.database,
                HARNESS_SEED,
                ExecOptions::default(),
                &cache,
            );
            let paper_value = paper_rows
                .get(index)
                .map(|(_, value)| f1(*value))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{:<10} {:>18} {:>12} {:>12}",
                corpus.kind.name(),
                model.name(),
                paper_value,
                f1(report.accuracy_percent()),
            );
            // Gold-side validity is model-independent: count each
            // corpus's defects once, not once per model.
            if index == 0 {
                gold_invalid_total += report.gold_invalid;
            }
        }
        println!();
    }
    if gold_invalid_total > 0 {
        println!(
            "gold-invalid items (corpus defects, excluded from denominators): {gold_invalid_total}"
        );
    }
    println!("Shape check: all models should collapse on Beaver relative to Spider/Bird/Fiben.");
}
