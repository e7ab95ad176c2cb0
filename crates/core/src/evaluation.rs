//! Evaluation harnesses built on top of a project: backtranslation fidelity
//! (paper §5.2 / Figure 4) and text-to-SQL execution accuracy (Figure 1).

use crate::project::Project;
use bp_llm::{Backtranslator, EvalItem, ExecOptions, ExecutionAccuracyReport, ModelKind};
use bp_metrics::{grade, ClarityHistogram, ClarityLevel, RubricOutcome};
use serde::{Deserialize, Serialize};

/// One backtranslation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BacktranslationResult {
    /// The log entry id.
    pub query_id: usize,
    /// The description that was backtranslated.
    pub description: String,
    /// The regenerated SQL.
    pub regenerated_sql: String,
    /// The graded rubric outcome.
    pub outcome: RubricOutcome,
}

/// The full backtranslation study over a project's finalized annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct BacktranslationStudy {
    /// Per-annotation results.
    pub results: Vec<BacktranslationResult>,
    /// Histogram over the five clarity levels (the Figure 4 series).
    pub histogram: ClarityHistogram,
}

impl BacktranslationStudy {
    /// Mean clarity level.
    pub fn mean_level(&self) -> f64 {
        self.histogram.mean_level()
    }

    /// Proportion of fully correct (level 5) backtranslations.
    pub fn fully_correct_rate(&self) -> f64 {
        self.histogram.proportion(ClarityLevel::FullyCorrect)
    }
}

/// Run the backtranslation study on every finalized annotation of a project.
///
/// Following the paper, a *vanilla* model (no retrieval, no feedback, no
/// project context) regenerates SQL from each accepted description; the
/// result is graded against the original query with the 5-level rubric,
/// executing both on the project database when possible.
pub fn backtranslation_study(project: &Project, model: ModelKind) -> BacktranslationStudy {
    let catalog = project.database().catalog();
    let backtranslator = Backtranslator::new(catalog, model.profile());
    let mut study = BacktranslationStudy::default();
    for record in project.records() {
        let regenerated_sql = backtranslator.backtranslate(&record.description);
        let outcome = match bp_sql::parse_query(&record.sql) {
            Ok(original) => grade(&original, &regenerated_sql, Some(project.database())),
            Err(e) => RubricOutcome {
                level: ClarityLevel::Invalid,
                reason: format!("original SQL failed to parse: {e}"),
            },
        };
        study.histogram.record(outcome.level);
        study.results.push(BacktranslationResult {
            query_id: record.query_id,
            description: record.description.clone(),
            regenerated_sql,
            outcome,
        });
    }
    study
}

/// Evaluate a text-to-SQL model's execution accuracy on a project's log,
/// using the gold questions ingested with the log. This is the per-project
/// form of the Figure 1 experiment; grading runs with the default options
/// (the planned engine across all hardware threads) through a fresh plan
/// cache.
pub fn execution_accuracy(
    project: &Project,
    model: ModelKind,
    schema_ambiguity: f64,
    seed: u64,
) -> ExecutionAccuracyReport {
    let cache = bp_storage::PlanCache::with_default_capacity();
    let options = ExecOptions::default();
    execution_accuracy_cached(project, model, schema_ambiguity, seed, options, &cache)
}

/// [`execution_accuracy`] with full [`ExecOptions`] control (engine choice
/// plus worker-thread budget), grading through a caller-supplied
/// [`bp_storage::PlanCache`]. `options.threads` sizes the inter-query batch
/// pipeline's worker pool (see
/// [`bp_llm::evaluate_execution_accuracy_cached`]): items fan out across
/// workers sharing the cache while each item executes serially, and
/// grading is deterministic — byte-identical reports — at every thread
/// count. Repeated evaluations of a growing project — the annotation
/// service's steady state — reuse compiled plans for every query whose
/// tables have not changed since the last run; writes in between
/// invalidate exactly the affected entries (per table version, not the
/// whole cache). The report itself is identical to the uncached path.
pub fn execution_accuracy_cached(
    project: &Project,
    model: ModelKind,
    schema_ambiguity: f64,
    seed: u64,
    options: ExecOptions,
    cache: &bp_storage::PlanCache,
) -> ExecutionAccuracyReport {
    let lexicon = project.lexicon();
    let items: Vec<EvalItem> = project
        .log()
        .iter()
        .map(|item| EvalItem {
            question: item.gold_question.clone().unwrap_or_default(),
            gold_sql: item.sql.clone(),
            difficulty: bp_llm::WorkloadDifficulty {
                schema_ambiguity,
                domain_terms: lexicon.terms_in(&item.sql).len(),
            },
        })
        .collect();
    bp_llm::evaluate_execution_accuracy_cached(
        &model.profile(),
        &items,
        project.database(),
        seed,
        options,
        cache,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::FeedbackAction;
    use crate::config::TaskConfig;
    use bp_datasets::{BenchmarkKind, GeneratedBenchmark};
    use bp_llm::ExecStrategy;

    fn finalized_project(accept_best: bool) -> Project {
        let corpus = GeneratedBenchmark::generate(BenchmarkKind::Spider, 6, 31);
        let mut project = Project::new("eval", TaskConfig::default().with_seed(11));
        project.ingest_benchmark(&corpus);
        for query_id in 0..project.log().len() {
            project.annotate(query_id).unwrap();
            if accept_best {
                // Accept the gold question itself (an ideal annotator), so the
                // descriptions carry maximal information.
                let gold = project.log()[query_id].gold_question.clone().unwrap();
                project
                    .apply_feedback(query_id, FeedbackAction::Edit(gold))
                    .unwrap();
            } else {
                // Accept a deliberately vague description.
                project
                    .apply_feedback(
                        query_id,
                        FeedbackAction::Edit("Show some information from the database.".into()),
                    )
                    .unwrap();
            }
            project.finalize(query_id).unwrap();
        }
        project
    }

    #[test]
    fn backtranslation_rewards_informative_descriptions() {
        let good = backtranslation_study(&finalized_project(true), ModelKind::Gpt4o);
        let bad = backtranslation_study(&finalized_project(false), ModelKind::Gpt4o);
        assert_eq!(good.results.len(), 6);
        assert_eq!(good.histogram.total(), 6);
        assert!(
            good.mean_level() > bad.mean_level(),
            "informative descriptions should backtranslate better: {} vs {}",
            good.mean_level(),
            bad.mean_level()
        );
    }

    #[test]
    fn backtranslation_study_serializes() {
        let study = backtranslation_study(&finalized_project(true), ModelKind::Gpt35Turbo);
        let json = serde_json::to_string(&study).unwrap();
        assert!(json.contains("histogram"));
    }

    #[test]
    fn execution_accuracy_runs_on_project_log() {
        let project = finalized_project(true);
        let report = execution_accuracy(&project, ModelKind::Gpt4o, 0.1, 3);
        assert_eq!(report.total, 6);
        assert!(report.accuracy_percent() >= 0.0 && report.accuracy_percent() <= 100.0);
        // Deterministic.
        let again = execution_accuracy(&project, ModelKind::Gpt4o, 0.1, 3);
        assert_eq!(report, again);
    }

    #[test]
    fn execution_accuracy_batch_pipeline_is_thread_count_independent() {
        let project = finalized_project(true);
        let serial = grade(&project, ExecOptions::serial());
        for threads in [2usize, 4] {
            let batched = grade(&project, ExecOptions::default().with_threads(threads));
            assert_eq!(serial, batched, "report diverges at threads={threads}");
        }
    }

    #[test]
    fn execution_accuracy_is_engine_independent() {
        let project = finalized_project(true);
        let planned = grade(&project, ExecOptions::new(ExecStrategy::Planned));
        let legacy = grade(&project, ExecOptions::new(ExecStrategy::Legacy));
        assert_eq!(planned, legacy);
    }

    /// GPT-4o accuracy on `project` through a fresh plan cache.
    fn grade(project: &Project, options: ExecOptions) -> ExecutionAccuracyReport {
        let cache = bp_storage::PlanCache::with_default_capacity();
        execution_accuracy_cached(project, ModelKind::Gpt4o, 0.1, 3, options, &cache)
    }
}
