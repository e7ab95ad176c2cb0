//! # bp-datasets — synthetic benchmark corpora for the BenchPress reproduction
//!
//! The paper works with four text-to-SQL benchmarks: the public Spider, Bird
//! and Fiben corpora and the private enterprise Beaver corpus (MIT data
//! warehouse SQL logs). None can be redistributed here, so this crate
//! generates synthetic stand-ins whose *statistics* are calibrated to the
//! paper's Table 1 (query-level complexity) and Table 2 (data-level
//! complexity): schema size, column-name duplication, value uniqueness, NULL
//! sparsity, query nesting/aggregation mix, and enterprise domain vocabulary.
//!
//! ## Quick example
//!
//! ```
//! use bp_datasets::{BenchmarkKind, GeneratedBenchmark};
//! use bp_storage::ExecOptions;
//!
//! let corpus = GeneratedBenchmark::generate(BenchmarkKind::Spider, 10, 42);
//! assert_eq!(corpus.log.len(), 10);
//! // Every generated query executes against the generated database.
//! for entry in &corpus.log {
//!     corpus.database.execute_sql(&entry.sql, ExecOptions::default()).unwrap();
//! }
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod profile;
pub mod query_gen;
pub mod schema_gen;
pub mod vocab;

pub use dataset::GeneratedBenchmark;
pub use profile::{BenchmarkKind, BenchmarkProfile, CorpusScale, QueryMix};
pub use query_gen::{generate_workload, LogEntry};
pub use schema_gen::{generate_database, lexicon_for};
pub use vocab::{DomainLexicon, DomainTerm};
