//! Workload- and database-level complexity metrics (Tables 1 and 2 of the
//! paper), including the relative-difference presentation the paper uses
//! ("↓80.8%" means 80.8% lower than the Beaver data-warehouse baseline).

use bp_sql::{analyze, canonical_token_counts, Query};
use bp_storage::DatabaseProfile;
use serde::{Deserialize, Serialize};

/// Mean query-level complexity of a workload (one row of Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct QueryComplexity {
    /// Workload name (benchmark name).
    pub workload: String,
    /// Mean number of structural SQL keywords per query.
    pub keywords: f64,
    /// Mean number of lexical tokens per query.
    pub tokens: f64,
    /// Mean number of distinct tables per query.
    pub tables: f64,
    /// Mean number of distinct columns per query.
    pub columns: f64,
    /// Mean number of aggregate calls per query.
    pub aggregations: f64,
    /// Mean nesting depth per query.
    pub nestings: f64,
    /// Number of queries summarized.
    pub query_count: usize,
}

impl QueryComplexity {
    /// Workload means over `queries`: the structural columns from
    /// [`bp_sql::analyze`], the lexical ones from
    /// [`bp_sql::canonical_token_counts`].
    pub fn from_queries(workload: impl Into<String>, queries: &[Query]) -> Self {
        let mut sums = [0usize; 6];
        for query in queries {
            let analysis = analyze(query);
            let (tokens, keywords) = canonical_token_counts(query);
            let row = [
                keywords,
                tokens,
                analysis.table_count(),
                analysis.column_count(),
                analysis.aggregate_count,
                analysis.nesting_depth,
            ];
            for (sum, value) in sums.iter_mut().zip(row) {
                *sum += value;
            }
        }
        let n = queries.len();
        // An empty workload has all-zero sums, hence all-zero means.
        let [keywords, tokens, tables, columns, aggregations, nestings] =
            sums.map(|sum| sum as f64 / n.max(1) as f64);
        QueryComplexity {
            workload: workload.into(),
            keywords,
            tokens,
            tables,
            columns,
            aggregations,
            nestings,
            query_count: n,
        }
    }

    /// The six metric values in Table 1 column order.
    pub fn as_row(&self) -> [f64; 6] {
        [
            self.keywords,
            self.tokens,
            self.tables,
            self.columns,
            self.aggregations,
            self.nestings,
        ]
    }

    /// Relative differences versus a baseline workload, in Table 1 column
    /// order. Positive = higher than baseline.
    pub fn relative_to(&self, baseline: &QueryComplexity) -> [RelativeDelta; 6] {
        let own = self.as_row();
        let base = baseline.as_row();
        std::array::from_fn(|i| RelativeDelta::new(base[i], own[i]))
    }
}

/// Data-level complexity of a database (one row of Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DataComplexity {
    /// Dataset name.
    pub dataset: String,
    /// Mean columns per table.
    pub columns_per_table: f64,
    /// Mean rows per table.
    pub rows_per_table: f64,
    /// Number of tables per database.
    pub tables_per_db: f64,
    /// Mean column uniqueness (distinct / rows), as a fraction 0..1.
    pub uniqueness: f64,
    /// Mean sparsity (fraction of NULL cells), 0..1.
    pub sparsity: f64,
    /// Number of distinct data types across the database.
    pub data_types: f64,
}

impl DataComplexity {
    /// Build from a database profile.
    pub fn from_profile(profile: &DatabaseProfile) -> Self {
        DataComplexity {
            dataset: profile.name.clone(),
            columns_per_table: profile.avg_columns_per_table,
            rows_per_table: profile.avg_rows_per_table,
            tables_per_db: profile.table_count as f64,
            uniqueness: profile.uniqueness,
            sparsity: profile.sparsity,
            data_types: profile.data_type_count as f64,
        }
    }

    /// The six metric values in Table 2 column order.
    pub fn as_row(&self) -> [f64; 6] {
        [
            self.columns_per_table,
            self.rows_per_table,
            self.tables_per_db,
            self.uniqueness,
            self.sparsity,
            self.data_types,
        ]
    }

    /// Relative differences versus a baseline dataset, in Table 2 column order.
    pub fn relative_to(&self, baseline: &DataComplexity) -> [RelativeDelta; 6] {
        let own = self.as_row();
        let base = baseline.as_row();
        std::array::from_fn(|i| RelativeDelta::new(base[i], own[i]))
    }
}

/// A relative difference versus a baseline, as displayed in the paper's
/// Tables 1 and 2 (e.g. `↓80.8%`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelativeDelta {
    /// Baseline value.
    pub baseline: f64,
    /// Observed value.
    pub value: f64,
}

impl RelativeDelta {
    /// Create a delta from baseline and observed values.
    pub fn new(baseline: f64, value: f64) -> Self {
        RelativeDelta { baseline, value }
    }

    /// Percentage change relative to the baseline (positive = increase).
    /// Returns 0 when the baseline is zero and the value is zero, and 100 *
    /// value when the baseline is zero but the value is not (matching the
    /// paper's "↑100%" convention for appearing-from-zero quantities).
    pub fn percent(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.value == 0.0 {
                0.0
            } else {
                100.0
            }
        } else {
            (self.value - self.baseline) / self.baseline * 100.0
        }
    }

    /// Whether the observed value decreased relative to the baseline.
    pub fn is_decrease(&self) -> bool {
        self.percent() < 0.0
    }

    /// Render like the paper: `↓80.8%` or `↑62.2%`.
    pub fn arrow_notation(&self) -> String {
        let pct = self.percent();
        if pct < 0.0 {
            format!("↓{:.1}%", pct.abs())
        } else if pct > 0.0 {
            format!("↑{:.1}%", pct)
        } else {
            "0.0%".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_sql::parse_query;

    fn queries(sqls: &[&str]) -> Vec<Query> {
        sqls.iter().map(|s| parse_query(s).unwrap()).collect()
    }

    #[test]
    fn query_complexity_means() {
        let c = QueryComplexity::from_queries(
            "demo",
            &queries(&[
                "SELECT a FROM t",
                "SELECT a, b FROM t JOIN u ON t.id = u.id WHERE a > 1",
            ]),
        );
        assert_eq!(c.query_count, 2);
        assert!((c.tables - 1.5).abs() < 1e-9);
        assert!(c.tokens > 3.0);
        assert_eq!(c.nestings, 0.0);
    }

    #[test]
    fn empty_workload_is_zeroed() {
        let c = QueryComplexity::from_queries("empty", &[]);
        assert_eq!(c.query_count, 0);
        assert_eq!(c.as_row(), [0.0; 6]);
    }

    #[test]
    fn relative_delta_percentages() {
        assert!((RelativeDelta::new(100.0, 20.0).percent() + 80.0).abs() < 1e-9);
        assert!((RelativeDelta::new(50.0, 75.0).percent() - 50.0).abs() < 1e-9);
        assert_eq!(RelativeDelta::new(0.0, 0.0).percent(), 0.0);
        assert_eq!(RelativeDelta::new(0.0, 3.0).percent(), 100.0);
    }

    #[test]
    fn arrow_notation_matches_paper_style() {
        assert_eq!(RelativeDelta::new(100.0, 19.2).arrow_notation(), "↓80.8%");
        assert_eq!(RelativeDelta::new(100.0, 162.2).arrow_notation(), "↑62.2%");
        assert_eq!(RelativeDelta::new(5.0, 5.0).arrow_notation(), "0.0%");
    }

    #[test]
    fn complexity_relative_rows() {
        let beaver = QueryComplexity {
            workload: "beaver".into(),
            keywords: 15.6,
            tokens: 99.8,
            tables: 4.2,
            columns: 11.9,
            aggregations: 5.5,
            nestings: 2.05,
            query_count: 100,
        };
        let spider = QueryComplexity {
            workload: "spider".into(),
            keywords: 3.0,
            tokens: 18.5,
            tables: 1.5,
            columns: 2.9,
            aggregations: 0.9,
            nestings: 1.1,
            query_count: 100,
        };
        let deltas = spider.relative_to(&beaver);
        assert!(deltas.iter().all(|d| d.is_decrease()));
        assert!(deltas[0].percent() < -75.0);
    }

    #[test]
    fn data_complexity_from_profile() {
        use bp_sql::DataType;
        use bp_storage::{Column, Database, TableSchema};
        let mut db = Database::new("demo");
        db.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Integer),
                Column::new("b", DataType::Text),
            ],
        ))
        .unwrap();
        db.insert_into(
            "t",
            vec![vec![1.into(), "x".into()], vec![2.into(), "x".into()]],
        )
        .unwrap();
        let profile = bp_storage::profile_database(&db);
        let dc = DataComplexity::from_profile(&profile);
        assert_eq!(dc.tables_per_db, 1.0);
        assert_eq!(dc.columns_per_table, 2.0);
        assert_eq!(dc.rows_per_table, 2.0);
        assert!(dc.uniqueness > 0.7 && dc.uniqueness < 0.8);
    }
}
