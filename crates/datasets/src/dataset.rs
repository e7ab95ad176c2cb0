//! Assembled benchmark corpora: database + SQL log + lexicon in one value.

use crate::profile::{BenchmarkKind, BenchmarkProfile, CorpusScale};
use crate::query_gen::{generate_workload, LogEntry};
use crate::schema_gen::{generate_database, lexicon_for};
use crate::vocab::DomainLexicon;
use bp_llm::EvalItem;
use bp_storage::Database;

/// A fully generated benchmark corpus.
#[derive(Debug, Clone)]
pub struct GeneratedBenchmark {
    /// Which benchmark this is.
    pub kind: BenchmarkKind,
    /// The generator profile used.
    pub profile: BenchmarkProfile,
    /// The populated database.
    pub database: Database,
    /// The SQL log (queries + gold questions + difficulty).
    pub log: Vec<LogEntry>,
    /// The domain lexicon (empty for public benchmarks).
    pub lexicon: DomainLexicon,
}

impl GeneratedBenchmark {
    /// Generate a benchmark corpus with `query_count` log entries at the
    /// default laptop scale.
    pub fn generate(kind: BenchmarkKind, query_count: usize, seed: u64) -> Self {
        Self::generate_scaled(kind, query_count, seed, CorpusScale::Laptop)
    }

    /// Generate a benchmark corpus at an explicit data-volume scale. Larger
    /// scales multiply per-table row counts (see [`CorpusScale`]), producing
    /// corpora big enough to expose asymptotic engine behavior; everything
    /// else (schema, query mix, determinism per seed) is unchanged.
    pub fn generate_scaled(
        kind: BenchmarkKind,
        query_count: usize,
        seed: u64,
        scale: CorpusScale,
    ) -> Self {
        let profile = kind.profile().scaled(scale);
        let database = generate_database(&profile, seed);
        let lexicon = lexicon_for(kind);
        let log = generate_workload(&database, &profile, &lexicon, query_count, seed ^ 0xbeef);
        GeneratedBenchmark {
            kind,
            profile,
            database,
            log,
            lexicon,
        }
    }

    /// The log as text-to-SQL evaluation items (question → gold SQL), the
    /// form consumed by the Figure 1 execution-accuracy harness.
    pub fn eval_items(&self) -> Vec<EvalItem> {
        self.log
            .iter()
            .map(|entry| EvalItem {
                question: entry.question.clone(),
                gold_sql: entry.sql.clone(),
                difficulty: entry.difficulty,
            })
            .collect()
    }

    /// The raw SQL log text (one statement per line), the format a BenchPress
    /// user would upload during dataset ingestion.
    pub fn log_text(&self) -> String {
        self.log
            .iter()
            .map(|entry| format!("{};", entry.sql))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The schema as a DDL script, the other ingestion artifact.
    pub fn schema_text(&self) -> String {
        self.database.schema_ddl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::ExecOptions;

    #[test]
    fn generate_produces_consistent_corpus() {
        let corpus = GeneratedBenchmark::generate(BenchmarkKind::Spider, 15, 42);
        assert_eq!(corpus.kind, BenchmarkKind::Spider);
        assert_eq!(corpus.log.len(), 15);
        assert_eq!(corpus.eval_items().len(), 15);
        assert_eq!(corpus.database.table_count(), corpus.profile.schema_tables);
        assert!(corpus.lexicon.is_empty());
    }

    #[test]
    fn log_text_and_schema_text_are_ingestible() {
        let corpus = GeneratedBenchmark::generate(BenchmarkKind::Bird, 5, 1);
        let statements = bp_sql::parse_statements(&corpus.log_text()).unwrap();
        assert_eq!(statements.len(), 5);
        let mut fresh = bp_storage::Database::new("reingest");
        let created = fresh.ingest_ddl(&corpus.schema_text()).unwrap();
        assert_eq!(created, corpus.database.table_count());
    }

    #[test]
    fn beaver_corpus_has_lexicon() {
        let corpus = GeneratedBenchmark::generate(BenchmarkKind::Beaver, 3, 9);
        assert!(!corpus.lexicon.is_empty());
    }

    #[test]
    fn scaled_corpus_multiplies_rows_but_keeps_schema() {
        let base = GeneratedBenchmark::generate(BenchmarkKind::Spider, 4, 7);
        let medium =
            GeneratedBenchmark::generate_scaled(BenchmarkKind::Spider, 4, 7, CorpusScale::Medium);
        assert_eq!(medium.database.table_count(), base.database.table_count());
        assert_eq!(medium.schema_text(), base.schema_text());
        assert!(
            medium.database.total_rows() >= base.database.total_rows() * 7,
            "medium scale should hold ~8x the rows: {} vs {}",
            medium.database.total_rows(),
            base.database.total_rows()
        );
        for entry in &medium.log {
            medium
                .database
                .execute_sql(&entry.sql, ExecOptions::default())
                .unwrap();
        }
    }

    #[test]
    fn same_seed_same_corpus() {
        let a = GeneratedBenchmark::generate(BenchmarkKind::Fiben, 8, 5);
        let b = GeneratedBenchmark::generate(BenchmarkKind::Fiben, 8, 5);
        assert_eq!(a.log, b.log);
        assert_eq!(a.schema_text(), b.schema_text());
    }
}
