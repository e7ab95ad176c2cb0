//! # bp-core — the BenchPress human-in-the-loop annotation system
//!
//! This crate is the reproduction of the paper's contribution: a workflow
//! that accelerates SQL-to-NL annotation of enterprise SQL logs by combining
//! retrieval-augmented candidate generation with human feedback.
//!
//! The pieces map one-to-one onto the paper's workflow (Figure 2):
//!
//! | Paper step | API |
//! |---|---|
//! | 1. Project setup | [`Workspace`], [`Credential`], [`TaskConfig`] |
//! | 2. Dataset ingestion | [`Project::ingest_schema`], [`Project::ingest_log`], [`Project::ingest_benchmark`] |
//! | 3. Task configuration | [`TaskConfig`] (direction, model, top-k) |
//! | 3.5 Decomposition | automatic inside [`Project::annotate`] (via `bp-sql::decompose`) |
//! | 4. Context retrieval | [`KnowledgeBase`] + schema linking inside [`Project::annotate`] |
//! | 5. Candidate generation | [`Project::annotate`] (four candidates per unit) |
//! | 5.5 Recomposition | automatic inside [`Project::annotate`] |
//! | 6. Feedback | [`Project::apply_feedback`] with [`FeedbackAction`] |
//! | 7. Review & export | [`Project::finalize`], [`export::export_json`], [`export::review_metrics`] |
//!
//! The evaluation harnesses used by the paper's §5 study live in
//! [`evaluation`]: the backtranslation clarity study (Figure 4) and the
//! execution-accuracy experiment (Figure 1).
//!
//! ## Quick example
//!
//! ```
//! use bp_core::{Project, TaskConfig, FeedbackAction};
//!
//! let mut project = Project::new("demo", TaskConfig::default());
//! project.ingest_schema("CREATE TABLE students (id INT PRIMARY KEY, name VARCHAR(40), dept VARCHAR(10));").unwrap();
//! project.ingest_log("SELECT name FROM students WHERE dept = 'EECS';");
//!
//! let draft = project.annotate(0).unwrap();
//! assert_eq!(draft.candidates.len(), 4);
//!
//! project.apply_feedback(0, FeedbackAction::SelectCandidate(0)).unwrap();
//! let record = project.finalize(0).unwrap();
//! assert!(!record.description.is_empty());
//! ```

#![warn(missing_docs)]

pub mod annotation;
pub mod config;
pub mod error;
pub mod evaluation;
pub mod export;
pub mod knowledge;
pub mod project;

pub use annotation::{
    AnnotationDraft, AnnotationRecord, AnnotationStatus, FeedbackAction, UnitDraft,
};
pub use config::{AnnotationDirection, Credential, TaskConfig};
pub use error::{CoreError, CoreResult};
pub use evaluation::{
    backtranslation_study, execution_accuracy, execution_accuracy_cached, BacktranslationResult,
    BacktranslationStudy,
};
pub use export::{
    export_json, export_records, import_json, review_metrics, ExportedAnnotation, ReviewMetrics,
};
pub use knowledge::{KnowledgeBase, KnowledgeNote};
pub use project::{LogItem, Project, Workspace};
