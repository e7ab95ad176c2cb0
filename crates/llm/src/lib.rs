//! # bp-llm — deterministic simulated LLM backend for BenchPress
//!
//! The original BenchPress calls hosted models (GPT-4o, GPT-3.5 Turbo,
//! DeepSeek, Llama 3.1) for three things: proposing natural-language
//! descriptions of SQL queries, regenerating SQL from descriptions
//! (backtranslation), and — in the motivating Figure 1 experiment —
//! translating questions into SQL. This crate simulates all three with
//! deterministic, capability-profiled components so the full pipeline can be
//! reproduced offline:
//!
//! * [`model`] — model registry and capability profiles.
//! * [`prompt`] — the retrieval-augmented few-shot prompt and its
//!   context-quality score.
//! * [`sql2nl`] — schema-aware candidate generation (4 candidates/query).
//! * [`nl2sql`] — schema-grounded backtranslation used by the Figure 4
//!   clarity study.
//! * [`text2sql`] — the execution-accuracy simulation behind Figure 1.
//! * [`corrupt`] — the failure-mode operators shared by the simulators.

#![warn(missing_docs)]

pub mod corrupt;
pub mod model;
pub mod nl2sql;
pub mod prompt;
pub mod sql2nl;
pub mod text2sql;

pub use bp_storage::{ExecOptions, ExecStrategy};
pub use corrupt::{apply as apply_corruption, Corruption};
pub use model::{ModelKind, ModelProfile};
pub use nl2sql::Backtranslator;
pub use prompt::{default_instruction, FewShotExample, Prompt, PromptBuilder};
pub use sql2nl::{
    describe_query, generate_candidates, plan_query, DescriptionPlan, GenerationRequest,
    NlCandidate, CANDIDATES_PER_QUERY,
};
pub use text2sql::{
    evaluate_execution_accuracy, evaluate_execution_accuracy_cached, predict_sql, EvalItem,
    ExecutionAccuracyReport, Text2SqlPrediction, WorkloadDifficulty,
};

#[cfg(test)]
mod round_trip_tests {
    //! End-to-end checks that the SQL→NL generator and the NL→SQL
    //! backtranslator compose the way the paper's backtranslation study
    //! assumes: complete descriptions round-trip to high rubric levels,
    //! impoverished descriptions do not.

    use super::*;
    use bp_sql::parse_query;
    use bp_storage::Catalog;

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog
            .ingest_ddl(
                "CREATE TABLE students (id INT PRIMARY KEY, name VARCHAR(40), gpa NUMBER, dept VARCHAR(20));
                 CREATE TABLE enrollments (student_id INT REFERENCES students(id), term VARCHAR(20), course VARCHAR(20));",
            )
            .unwrap();
        catalog
    }

    #[test]
    fn faithful_description_round_trips_structurally() {
        let catalog = catalog();
        let gold =
            parse_query("SELECT dept, COUNT(*) FROM students WHERE dept = 'EECS' GROUP BY dept")
                .unwrap();
        let description = describe_query(&gold);
        let regenerated =
            Backtranslator::new(&catalog, ModelKind::Gpt4o.profile()).backtranslate(&description);
        let regenerated_query = parse_query(&regenerated).expect("regenerated SQL parses");
        let gold_analysis = bp_sql::analyze(&gold);
        let regen_analysis = bp_sql::analyze(&regenerated_query);
        assert_eq!(gold_analysis.tables, regen_analysis.tables);
        assert_eq!(regen_analysis.aggregate_functions, vec!["COUNT"]);
        assert!(regen_analysis.has_group_by);
        assert!(regenerated.contains("'EECS'"));
    }

    #[test]
    fn incomplete_description_loses_information() {
        let catalog = catalog();
        // A description missing the filter cannot regenerate it.
        let description = "For each dept, report the number of students.";
        let regenerated =
            Backtranslator::new(&catalog, ModelKind::Gpt4o.profile()).backtranslate(description);
        assert!(!regenerated.to_uppercase().contains("WHERE"));
    }
}
