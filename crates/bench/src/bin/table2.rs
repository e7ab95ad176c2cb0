//! Table 2 — data-level complexity metrics across benchmarks
//! (columns/table, rows/table, tables/DB, uniqueness, sparsity, data types).
//!
//! Generated databases are scaled down in absolute row count (see the
//! README section "Reproducing the paper's tables and figures"); the
//! harness therefore reports measured values alongside the paper's absolute
//! numbers and compares the *relative* shape (which benchmark is wider,
//! sparser, more repetitive).

use bp_bench::{f1, generate_all_benchmarks, print_header, HARNESS_SEED, QUERIES_PER_BENCHMARK};
use bp_datasets::BenchmarkKind;
use bp_metrics::DataComplexity;
use bp_storage::profile_database;

fn main() {
    print_header("Table 2: data-level complexity metrics", "Table 2");
    let corpora = generate_all_benchmarks(QUERIES_PER_BENCHMARK.min(5), HARNESS_SEED);

    let paper: &[(&str, [f64; 6])] = &[
        ("BEAVER (DW)", [15.6, 128_000.0, 99.0, 45.9, 15.0, 4.0]),
        ("Spider", [5.4, 2_048.0, 5.2, 73.2, 0.0, 4.0]),
        ("FIBEN", [2.5, 76_032.0, 152.0, 58.8, 0.0, 8.0]),
        ("BIRD", [6.8, 549_000.0, 44.8, 79.3, 0.0, 7.0]),
    ];

    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>12} {:>10} {:>11}",
        "Data set", "Cols/Table", "Rows/Table", "Table/DB", "Uniqueness", "Sparsity", "Data Types"
    );
    for kind in [
        BenchmarkKind::Beaver,
        BenchmarkKind::Spider,
        BenchmarkKind::Fiben,
        BenchmarkKind::Bird,
    ] {
        let corpus = corpora.iter().find(|c| c.kind == kind).expect("generated");
        let profile = profile_database(&corpus.database);
        let complexity = DataComplexity::from_profile(&profile);
        let paper_row = paper
            .iter()
            .find(|(name, _)| name.to_uppercase().contains(&kind.name().to_uppercase()))
            .map(|(_, values)| *values)
            .unwrap_or([0.0; 6]);
        println!(
            "{:<14} {:>12} {:>12} {:>10} {:>12} {:>10} {:>11}   <- paper",
            kind.name(),
            f1(paper_row[0]),
            f1(paper_row[1]),
            f1(paper_row[2]),
            format!("{:.1}%", paper_row[3]),
            format!("{:.1}%", paper_row[4]),
            f1(paper_row[5]),
        );
        println!(
            "{:<14} {:>12} {:>12} {:>10} {:>12} {:>10} {:>11}   <- measured (rows scaled down)",
            "",
            f1(complexity.columns_per_table),
            f1(complexity.rows_per_table),
            f1(complexity.tables_per_db),
            format!("{:.1}%", complexity.uniqueness * 100.0),
            format!("{:.1}%", complexity.sparsity * 100.0),
            f1(complexity.data_types),
        );
    }
    println!();
    println!("Shape check: Beaver should have the widest tables, the lowest uniqueness,");
    println!("and the only non-zero sparsity; public benchmarks should be clean and narrow.");
}
