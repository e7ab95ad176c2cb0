//! # bp-bench — experiment harnesses for the BenchPress reproduction
//!
//! One runnable binary per table/figure of the paper's evaluation (see the
//! README's "Reproducing the paper's tables and figures" for the experiment
//! index). The library part holds the shared formatting and
//! workload-construction helpers the binaries use.

#![warn(missing_docs)]

use bp_datasets::{BenchmarkKind, GeneratedBenchmark};
use bp_llm::ModelKind;

/// Default number of log queries generated per benchmark for the
/// execution-accuracy and complexity harnesses.
pub const QUERIES_PER_BENCHMARK: usize = 40;

/// Default seed shared by all harnesses so the numbers the README's
/// "Reproducing the paper's tables and figures" section describes are
/// reproducible with a plain `cargo run`.
pub const HARNESS_SEED: u64 = 2026;

/// The models plotted in Figure 1.
pub fn figure1_models() -> Vec<ModelKind> {
    vec![
        ModelKind::Gpt4o,
        ModelKind::Llama70B,
        ModelKind::Llama8B,
        ModelKind::ContextModel,
    ]
}

/// Generate the four benchmark corpora used across harnesses.
pub fn generate_all_benchmarks(queries: usize, seed: u64) -> Vec<GeneratedBenchmark> {
    BenchmarkKind::all()
        .iter()
        .map(|kind| GeneratedBenchmark::generate(*kind, queries, seed))
        .collect()
}

/// Render one formatted table row: a label followed by right-aligned values.
pub fn format_row(label: &str, values: &[String], width: usize) -> String {
    let mut out = format!("{label:<22}");
    for value in values {
        out.push_str(&format!("{value:>width$}"));
    }
    out
}

/// Format a float with one decimal place.
pub fn f1(value: f64) -> String {
    format!("{value:.1}")
}

/// Format a percentage with one decimal place.
pub fn pct(value: f64) -> String {
    format!("{value:.1}%")
}

/// Print a standard harness header.
pub fn print_header(title: &str, paper_reference: &str) {
    println!("=================================================================");
    println!("{title}");
    println!("(reproduces {paper_reference}; paper values shown for comparison)");
    println!("=================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_format_consistently() {
        assert_eq!(f1(12.345), "12.3");
        assert_eq!(pct(86.123), "86.1%");
        let row = format_row("Beaver", &["1.0".into(), "2.0".into()], 8);
        assert!(row.starts_with("Beaver"));
        assert!(row.contains("1.0"));
    }

    #[test]
    fn figure1_models_match_paper_legend() {
        let models = figure1_models();
        assert_eq!(models.len(), 4);
        assert!(models.contains(&ModelKind::Gpt4o));
        assert!(models.contains(&ModelKind::ContextModel));
    }

    #[test]
    fn all_benchmarks_generate() {
        let corpora = generate_all_benchmarks(3, 1);
        assert_eq!(corpora.len(), 4);
        assert!(corpora.iter().all(|c| c.log.len() == 3));
    }
}
