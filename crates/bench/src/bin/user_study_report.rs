//! Combined user-study report: runs the simulated study once and prints
//! Table 3, Table 4, and Figure 4 from the same run (convenient for
//! reproducing the README section "Reproducing the paper's tables and
//! figures" in a single pass).

use bp_bench::{print_header, HARNESS_SEED};
use bp_llm::ModelKind;
use bp_study::{run_study, Condition, StudyConfig};

fn main() {
    print_header(
        "User study report: Tables 3-4 and Figure 4 from one simulated run",
        "Tables 3-4, Figure 4",
    );
    let config = StudyConfig {
        seed: HARNESS_SEED,
        ..StudyConfig::default()
    };
    println!(
        "participants = {}, queries = {} ({} Beaver + {} Bird), model = {}",
        config.participants,
        config.total_queries(),
        config.beaver_queries,
        config.bird_queries,
        config.model.name()
    );
    let run = run_study(&config);

    println!("\n--- Table 3: annotation accuracy (%) ---");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "Dataset", "BenchPress", "VanillaLLM", "Manual"
    );
    for row in run.accuracy_table() {
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1}",
            row.label, row.benchpress, row.vanilla_llm, row.manual
        );
    }

    println!("\n--- Table 4: average annotation latency (minutes per participant) ---");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "Dataset", "BenchPress", "VanillaLLM", "Manual"
    );
    for row in run.latency_table() {
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1}",
            row.label, row.benchpress, row.vanilla_llm, row.manual
        );
    }

    println!("\n--- Figure 4: backtranslation clarity histogram ---");
    let (histograms, cache_stats, access_stats, verifier_stats, optimizer_stats, cardinality) =
        run.clarity_histograms_detailed(ModelKind::Gpt4o);
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>12}",
        "Condition", "L1", "L2", "L3", "L4", "L5", "mean level"
    );
    for condition in Condition::all() {
        let histogram = histograms.get(condition).cloned().unwrap_or_default();
        println!(
            "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>12.2}",
            condition.name(),
            histogram.counts[0],
            histogram.counts[1],
            histogram.counts[2],
            histogram.counts[3],
            histogram.counts[4],
            histogram.mean_level(),
        );
    }
    println!(
        "\nplan cache during grading: {} hits, {} misses, {} invalidations ({} graded outcomes)",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.invalidations,
        run.outcomes.len()
    );
    println!(
        "access paths during grading: {} index scans, {} full scans",
        access_stats.index_scan, access_stats.full_scan
    );
    println!(
        "plan verification during grading: {} plans verified, {} violations",
        verifier_stats.plans_verified, verifier_stats.violations
    );
    println!(
        "join optimization during grading: {} cost-based spines, {} syntactic fallbacks",
        optimizer_stats.cost_based, optimizer_stats.syntactic_fallback
    );
    println!(
        "cardinality drift during grading: {} estimated executions, {} estimated rows vs {} actual rows",
        cardinality.estimated_executions, cardinality.estimated_rows, cardinality.actual_rows
    );
}
