//! Benchmark profiles: the knobs that make a generated corpus look like
//! Spider, Bird, Fiben, or Beaver.
//!
//! Each profile carries (a) the query-level complexity targets of Table 1,
//! (b) the data-level targets of Table 2, and (c) the generator parameters
//! (schema size, naming ambiguity, null rate, domain-term usage, query
//! template mix) that make the generated corpus land near those targets. The
//! absolute row counts are scaled down by a configurable factor so that
//! benchmarks run at laptop scale; the scaling preserves all cross-benchmark
//! ratios (see the README section "Reproducing the paper's tables and
//! figures").

use serde::{Deserialize, Serialize};

/// The four benchmarks BenchPress ships with (paper §4.1, Dataset Ingestion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchmarkKind {
    /// Spider: clean academic cross-domain benchmark.
    Spider,
    /// Bird: larger academic benchmark with bigger databases.
    Bird,
    /// Fiben: financial benchmark with nested analytical queries.
    Fiben,
    /// Beaver: the private enterprise (data-warehouse) benchmark.
    Beaver,
}

impl BenchmarkKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkKind::Spider => "Spider",
            BenchmarkKind::Bird => "Bird",
            BenchmarkKind::Fiben => "Fiben",
            BenchmarkKind::Beaver => "Beaver",
        }
    }

    /// All benchmark kinds, public benchmarks first.
    pub fn all() -> &'static [BenchmarkKind] {
        &[
            BenchmarkKind::Spider,
            BenchmarkKind::Bird,
            BenchmarkKind::Fiben,
            BenchmarkKind::Beaver,
        ]
    }

    /// Whether this is the private enterprise benchmark.
    pub fn is_enterprise(&self) -> bool {
        matches!(self, BenchmarkKind::Beaver)
    }

    /// The generator profile for this benchmark.
    pub fn profile(&self) -> BenchmarkProfile {
        match self {
            BenchmarkKind::Spider => BenchmarkProfile {
                kind: *self,
                // Table 1 paper targets (Beaver minus the reported deltas).
                target_keywords: 3.0,
                target_tokens: 18.5,
                target_tables: 1.5,
                target_columns: 2.9,
                target_aggregations: 0.9,
                target_nestings: 1.1,
                // Table 2 paper targets.
                target_columns_per_table: 5.4,
                target_rows_per_table: 2_048.0,
                target_tables_per_db: 5.0,
                target_uniqueness: 0.73,
                target_sparsity: 0.0,
                target_data_types: 4,
                // Generator parameters.
                schema_tables: 6,
                columns_per_table: 5,
                rows_per_table: 128,
                null_rate: 0.0,
                distinct_fraction: 0.73,
                duplicate_column_rate: 0.05,
                domain_term_rate: 0.0,
                schema_ambiguity: 0.08,
                query_mix: QueryMix {
                    simple: 0.45,
                    aggregate: 0.30,
                    join: 0.20,
                    nested: 0.05,
                    deep_enterprise: 0.0,
                },
            },
            BenchmarkKind::Bird => BenchmarkProfile {
                kind: *self,
                target_keywords: 4.2,
                target_tokens: 31.2,
                target_tables: 1.9,
                target_columns: 4.4,
                target_aggregations: 0.7,
                target_nestings: 1.1,
                target_columns_per_table: 6.8,
                target_rows_per_table: 549_000.0,
                target_tables_per_db: 45.0,
                target_uniqueness: 0.79,
                target_sparsity: 0.0,
                target_data_types: 6,
                schema_tables: 12,
                columns_per_table: 7,
                rows_per_table: 512,
                null_rate: 0.0,
                distinct_fraction: 0.79,
                duplicate_column_rate: 0.10,
                domain_term_rate: 0.05,
                schema_ambiguity: 0.15,
                query_mix: QueryMix {
                    simple: 0.35,
                    aggregate: 0.35,
                    join: 0.22,
                    nested: 0.08,
                    deep_enterprise: 0.0,
                },
            },
            BenchmarkKind::Fiben => BenchmarkProfile {
                kind: *self,
                target_keywords: 9.5,
                target_tokens: 161.9,
                target_tables: 3.8,
                target_columns: 9.7,
                target_aggregations: 2.0,
                target_nestings: 1.56,
                target_columns_per_table: 2.5,
                target_rows_per_table: 76_000.0,
                target_tables_per_db: 152.0,
                target_uniqueness: 0.59,
                target_sparsity: 0.0,
                target_data_types: 6,
                schema_tables: 24,
                columns_per_table: 3,
                rows_per_table: 256,
                null_rate: 0.0,
                distinct_fraction: 0.59,
                duplicate_column_rate: 0.25,
                domain_term_rate: 0.15,
                schema_ambiguity: 0.30,
                query_mix: QueryMix {
                    simple: 0.10,
                    aggregate: 0.30,
                    join: 0.30,
                    nested: 0.30,
                    deep_enterprise: 0.0,
                },
            },
            BenchmarkKind::Beaver => BenchmarkProfile {
                kind: *self,
                target_keywords: 15.6,
                target_tokens: 99.8,
                target_tables: 4.2,
                target_columns: 11.9,
                target_aggregations: 5.5,
                target_nestings: 2.05,
                target_columns_per_table: 15.6,
                target_rows_per_table: 128_000.0,
                target_tables_per_db: 99.0,
                target_uniqueness: 0.459,
                target_sparsity: 0.15,
                target_data_types: 4,
                schema_tables: 40,
                columns_per_table: 15,
                rows_per_table: 384,
                null_rate: 0.15,
                distinct_fraction: 0.459,
                duplicate_column_rate: 0.55,
                domain_term_rate: 0.6,
                schema_ambiguity: 0.70,
                query_mix: QueryMix {
                    simple: 0.03,
                    aggregate: 0.17,
                    join: 0.25,
                    nested: 0.25,
                    deep_enterprise: 0.30,
                },
            },
        }
    }
}

/// Distribution over query-generation templates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryMix {
    /// Single-table select/filter queries.
    pub simple: f64,
    /// Single-table aggregation with GROUP BY.
    pub aggregate: f64,
    /// Multi-table join queries.
    pub join: f64,
    /// Queries with one nested subquery.
    pub nested: f64,
    /// Deep enterprise queries: joins + aggregation + nested subquery +
    /// domain-specific filters (the Beaver style of Figure 3).
    pub deep_enterprise: f64,
}

impl QueryMix {
    /// Normalized cumulative distribution used for sampling.
    pub fn cumulative(&self) -> [f64; 5] {
        let total = self.simple + self.aggregate + self.join + self.nested + self.deep_enterprise;
        let total = if total <= 0.0 { 1.0 } else { total };
        let mut acc = 0.0;
        let mut out = [0.0; 5];
        for (i, w) in [
            self.simple,
            self.aggregate,
            self.join,
            self.nested,
            self.deep_enterprise,
        ]
        .iter()
        .enumerate()
        {
            acc += w / total;
            out[i] = acc.min(1.0);
        }
        out[4] = 1.0;
        out
    }
}

/// Data-volume scale for generated corpora. The default profiles target
/// laptop-scale row counts; larger settings multiply `rows_per_table` so
/// that asymptotic engine behavior (hash join vs nested loop, pushdown)
/// becomes measurable. All cross-benchmark ratios are preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CorpusScale {
    /// 1× rows (the historical default).
    #[default]
    Laptop,
    /// 8× rows.
    Medium,
    /// 32× rows — large enough that nested-loop joins are visibly
    /// quadratic while the planned engine stays near-linear.
    Large,
}

impl CorpusScale {
    /// The row-count multiplier applied to `rows_per_table`.
    pub fn row_factor(&self) -> usize {
        match self {
            CorpusScale::Laptop => 1,
            CorpusScale::Medium => 8,
            CorpusScale::Large => 32,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CorpusScale::Laptop => "laptop",
            CorpusScale::Medium => "medium",
            CorpusScale::Large => "large",
        }
    }
}

/// Generator parameters plus paper targets for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Which benchmark this profile describes.
    pub kind: BenchmarkKind,
    /// Table 1 target: mean structural keywords per query.
    pub target_keywords: f64,
    /// Table 1 target: mean tokens per query.
    pub target_tokens: f64,
    /// Table 1 target: mean distinct tables per query.
    pub target_tables: f64,
    /// Table 1 target: mean distinct columns per query.
    pub target_columns: f64,
    /// Table 1 target: mean aggregate calls per query.
    pub target_aggregations: f64,
    /// Table 1 target: mean nesting depth per query.
    pub target_nestings: f64,
    /// Table 2 target: mean columns per table.
    pub target_columns_per_table: f64,
    /// Table 2 target: mean rows per table (paper scale).
    pub target_rows_per_table: f64,
    /// Table 2 target: tables per database.
    pub target_tables_per_db: f64,
    /// Table 2 target: mean value uniqueness (0..1).
    pub target_uniqueness: f64,
    /// Table 2 target: mean sparsity / NULL fraction (0..1).
    pub target_sparsity: f64,
    /// Table 2 target: distinct data types.
    pub target_data_types: usize,
    /// Number of tables the generator creates (scaled-down schema).
    pub schema_tables: usize,
    /// Columns per generated table (mean).
    pub columns_per_table: usize,
    /// Rows per generated table (scaled down; ratios across benchmarks are
    /// preserved).
    pub rows_per_table: usize,
    /// Probability that any generated cell is NULL.
    pub null_rate: f64,
    /// Fraction of distinct values per column (drives uniqueness).
    pub distinct_fraction: f64,
    /// Probability that a non-key column reuses a name that already exists in
    /// another table (drives schema ambiguity).
    pub duplicate_column_rate: f64,
    /// Probability that a query filter uses a domain-specific term.
    pub domain_term_rate: f64,
    /// Overall schema ambiguity in `[0, 1]` fed to the text-to-SQL simulator.
    pub schema_ambiguity: f64,
    /// Query template mix.
    pub query_mix: QueryMix,
}

impl BenchmarkProfile {
    /// Scale the generated data volume by multiplying `rows_per_table`.
    pub fn with_row_scale(mut self, factor: usize) -> Self {
        self.rows_per_table = self.rows_per_table.saturating_mul(factor.max(1));
        self
    }

    /// Apply a [`CorpusScale`] setting.
    pub fn scaled(self, scale: CorpusScale) -> Self {
        self.with_row_scale(scale.row_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_multiplies_rows_and_preserves_ratios() {
        let base = BenchmarkKind::Spider.profile();
        let large = BenchmarkKind::Spider.profile().scaled(CorpusScale::Large);
        assert_eq!(large.rows_per_table, base.rows_per_table * 32);
        assert_eq!(
            BenchmarkKind::Beaver
                .profile()
                .scaled(CorpusScale::Medium)
                .rows_per_table,
            BenchmarkKind::Beaver.profile().rows_per_table * 8
        );
        assert_eq!(base.scaled(CorpusScale::Laptop).rows_per_table, 128);
        assert_eq!(CorpusScale::Large.name(), "large");
    }

    #[test]
    fn all_profiles_exist_and_are_consistent() {
        for kind in BenchmarkKind::all() {
            let p = kind.profile();
            assert_eq!(p.kind, *kind);
            assert!(p.schema_tables > 0);
            assert!(p.columns_per_table > 0);
            assert!(p.rows_per_table > 0);
            assert!((0.0..=1.0).contains(&p.null_rate));
            assert!((0.0..=1.0).contains(&p.distinct_fraction));
            assert!((0.0..=1.0).contains(&p.schema_ambiguity));
            let cumulative = p.query_mix.cumulative();
            assert!((cumulative[4] - 1.0).abs() < 1e-9);
            for pair in cumulative.windows(2) {
                assert!(pair[1] >= pair[0]);
            }
        }
    }

    #[test]
    fn beaver_is_the_hardest_benchmark() {
        let beaver = BenchmarkKind::Beaver.profile();
        for kind in [
            BenchmarkKind::Spider,
            BenchmarkKind::Bird,
            BenchmarkKind::Fiben,
        ] {
            let other = kind.profile();
            assert!(beaver.target_keywords > other.target_keywords);
            assert!(beaver.target_aggregations > other.target_aggregations);
            assert!(beaver.target_nestings > other.target_nestings);
            assert!(beaver.schema_ambiguity > other.schema_ambiguity);
            assert!(beaver.domain_term_rate > other.domain_term_rate);
            assert!(beaver.null_rate > other.null_rate);
        }
    }

    #[test]
    fn only_beaver_is_enterprise() {
        assert!(BenchmarkKind::Beaver.is_enterprise());
        assert!(!BenchmarkKind::Spider.is_enterprise());
        assert!(!BenchmarkKind::Bird.is_enterprise());
        assert!(!BenchmarkKind::Fiben.is_enterprise());
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            BenchmarkKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn query_mix_handles_zero_total() {
        let mix = QueryMix {
            simple: 0.0,
            aggregate: 0.0,
            join: 0.0,
            nested: 0.0,
            deep_enterprise: 0.0,
        };
        let c = mix.cumulative();
        assert_eq!(c[4], 1.0);
    }
}
