//! Table 1 — query-level complexity metrics across benchmarks
//! (#Keywords, #Tokens, #Tables, #Columns, #Agg, #Nestings), reported as
//! absolute values for Beaver (DW) and relative deltas for the others.

use bp_bench::{f1, generate_all_benchmarks, print_header, HARNESS_SEED, QUERIES_PER_BENCHMARK};
use bp_datasets::{BenchmarkKind, GeneratedBenchmark};
use bp_metrics::QueryComplexity;

/// One row of Table 1: the complexity means over a corpus's SQL log.
fn complexity(corpus: &GeneratedBenchmark) -> QueryComplexity {
    let queries: Vec<_> = corpus
        .log
        .iter()
        .map(|entry| bp_sql::parse_query(&entry.sql).expect("log entries parse"))
        .collect();
    QueryComplexity::from_queries(corpus.kind.name(), &queries)
}

fn main() {
    print_header("Table 1: query-level complexity metrics", "Table 1");
    let corpora = generate_all_benchmarks(QUERIES_PER_BENCHMARK, HARNESS_SEED);

    let complexity_of = |kind: BenchmarkKind| -> QueryComplexity {
        complexity(corpora.iter().find(|c| c.kind == kind).expect("generated"))
    };

    let beaver = complexity_of(BenchmarkKind::Beaver);
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>10} {:>8} {:>10}",
        "Query set", "#Keywords", "#Tokens", "#Tables", "#Columns", "#Agg", "#Nestings"
    );
    let paper_beaver = [15.6, 99.8, 4.2, 11.9, 5.5, 2.05];
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>10} {:>8} {:>10}   <- paper",
        "BEAVER (DW)",
        f1(paper_beaver[0]),
        f1(paper_beaver[1]),
        f1(paper_beaver[2]),
        f1(paper_beaver[3]),
        f1(paper_beaver[4]),
        format!("{:.2}", paper_beaver[5]),
    );
    let row = beaver.as_row();
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>10} {:>8} {:>10}   <- measured",
        "BEAVER (DW)",
        f1(row[0]),
        f1(row[1]),
        f1(row[2]),
        f1(row[3]),
        f1(row[4]),
        format!("{:.2}", row[5]),
    );
    println!();

    let paper_deltas: &[(&str, [&str; 6])] = &[
        (
            "Spider",
            ["↓80.8%", "↓81.5%", "↓64.3%", "↓75.6%", "↓83.6%", "↓45.5%"],
        ),
        (
            "FIBEN",
            ["↓39.1%", "↑62.2%", "↓9.5%", "↓18.5%", "↓63.6%", "↓23.8%"],
        ),
        (
            "BIRD",
            ["↓73.1%", "↓68.7%", "↓54.7%", "↓63.0%", "↓87.3%", "↓45.5%"],
        ),
    ];
    for (kind, paper_label) in [
        (BenchmarkKind::Spider, 0usize),
        (BenchmarkKind::Fiben, 1),
        (BenchmarkKind::Bird, 2),
    ] {
        let complexity = complexity_of(kind);
        let deltas = complexity.relative_to(&beaver);
        let (name, paper_row) = paper_deltas[paper_label];
        let measured: Vec<String> = deltas.iter().map(|d| d.arrow_notation()).collect();
        println!("{name:<14} paper:    {}", paper_row.join("  "));
        println!("{name:<14} measured: {}", measured.join("  "));
        println!();
    }
    println!("Shape check: every public benchmark should be ↓ vs Beaver on keywords, tables,");
    println!("columns, aggregations, and nestings (token counts may vary by corpus style).");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 as this program prints it. Each mean is a column total over
    /// the corpus's 40 queries, divided by 40.
    #[test]
    fn rows_are_pinned_at_the_harness_seed() {
        let row = |kind| {
            complexity(&GeneratedBenchmark::generate(
                kind,
                QUERIES_PER_BENCHMARK,
                HARNESS_SEED,
            ))
        };
        let means = |totals: [usize; 6]| totals.map(|t| t as f64 / QUERIES_PER_BENCHMARK as f64);
        let beaver = row(BenchmarkKind::Beaver);
        let spider = row(BenchmarkKind::Spider);
        assert_eq!(beaver.query_count, QUERIES_PER_BENCHMARK);
        assert_eq!(beaver.as_row(), means([433, 1694, 82, 146, 65, 22]));
        assert_eq!(spider.as_row(), means([209, 653, 51, 92, 14, 5]));
        let deltas: Vec<_> = spider
            .relative_to(&beaver)
            .iter()
            .map(|d| d.arrow_notation())
            .collect();
        assert_eq!(
            deltas,
            ["↓51.7%", "↓61.5%", "↓37.8%", "↓37.0%", "↓78.5%", "↓77.3%"]
        );
    }
}
