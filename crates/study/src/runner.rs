//! The study runner: generates the shared query set, runs every participant
//! through their condition, and aggregates the Table 3 / Table 4 / Figure 4
//! results.

use std::collections::HashMap;

use bp_core::{FeedbackAction, Project, TaskConfig};
use bp_datasets::{BenchmarkKind, DomainLexicon, GeneratedBenchmark};
use bp_llm::{generate_candidates, GenerationRequest, ModelKind, PromptBuilder};
use bp_metrics::{coverage, grade_cached, ClarityHistogram, DEFAULT_ACCURACY_THRESHOLD};
use bp_storage::{
    available_threads, batch_map, AccessPathStats, CardinalityStats, Database, OptimizerStats,
    PlanCache, PlanCacheStats, VerifierStats,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::annotator::{annotation_minutes, review_candidates, write_manual, BehaviourParams};
use crate::assign::assign_participants;
use crate::types::{AnnotationOutcome, Condition, Participant, StudyConfig, StudyDataset};

/// One query of the shared study set.
#[derive(Debug, Clone)]
pub struct StudyQuery {
    /// Which dataset the query came from.
    pub dataset: StudyDataset,
    /// Index within the study set.
    pub index: usize,
    /// The SQL text.
    pub sql: String,
}

/// A completed study run.
#[derive(Debug)]
pub struct StudyRun {
    /// The configuration used.
    pub config: StudyConfig,
    /// The assigned participants.
    pub participants: Vec<Participant>,
    /// The shared query set every participant annotated.
    pub queries: Vec<StudyQuery>,
    /// All per-annotation outcomes.
    pub outcomes: Vec<AnnotationOutcome>,
    /// The Beaver-like database (used for backtranslation grading).
    pub beaver_db: Database,
    /// The Bird-like database.
    pub bird_db: Database,
    /// The enterprise lexicon used for the Beaver portion.
    pub lexicon: DomainLexicon,
}

/// One row of the accuracy (Table 3) or latency (Table 4) summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionRow {
    /// Row label: "Beaver", "Bird", or "Overall"/"Total".
    pub label: String,
    /// Value for the BenchPress condition.
    pub benchpress: f64,
    /// Value for the vanilla-LLM condition.
    pub vanilla_llm: f64,
    /// Value for the manual condition.
    pub manual: f64,
}

impl ConditionRow {
    /// Value for a condition.
    pub fn get(&self, condition: Condition) -> f64 {
        match condition {
            Condition::BenchPress => self.benchpress,
            Condition::VanillaLlm => self.vanilla_llm,
            Condition::Manual => self.manual,
        }
    }
}

/// Run the full study.
pub fn run_study(config: &StudyConfig) -> StudyRun {
    // Shared query set: the same queries for every participant (§5.1).
    let beaver =
        GeneratedBenchmark::generate(BenchmarkKind::Beaver, config.beaver_queries, config.seed);
    let bird =
        GeneratedBenchmark::generate(BenchmarkKind::Bird, config.bird_queries, config.seed ^ 0x51);
    let mut queries = Vec::with_capacity(config.total_queries());
    for entry in &beaver.log {
        queries.push(StudyQuery {
            dataset: StudyDataset::Beaver,
            index: queries.len(),
            sql: entry.sql.clone(),
        });
    }
    for entry in &bird.log {
        queries.push(StudyQuery {
            dataset: StudyDataset::Bird,
            index: queries.len(),
            sql: entry.sql.clone(),
        });
    }

    let participants = assign_participants(config.participants, config.seed);
    // Participants are independent by design — each gets a cold-start
    // project and an RNG seeded from (config.seed, participant id) — so
    // the study fans them out across the deterministic batch driver and
    // merges the per-participant outcome lists in participant order. The
    // run is byte-identical at every thread count.
    let per_participant = batch_map(available_threads(), participants.len(), |i| {
        Ok::<_, std::convert::Infallible>(run_participant(
            config,
            &participants[i],
            &queries,
            &beaver,
            &bird,
        ))
    })
    .expect("participant simulation is infallible");
    let mut outcomes = Vec::with_capacity(participants.len() * queries.len());
    for participant_outcomes in per_participant {
        outcomes.extend(participant_outcomes);
    }
    StudyRun {
        config: config.clone(),
        participants,
        queries,
        outcomes,
        beaver_db: beaver.database,
        bird_db: bird.database,
        lexicon: beaver.lexicon,
    }
}

fn empty_lexicon() -> DomainLexicon {
    DomainLexicon::default()
}

fn run_participant(
    config: &StudyConfig,
    participant: &Participant,
    queries: &[StudyQuery],
    beaver: &GeneratedBenchmark,
    bird: &GeneratedBenchmark,
) -> Vec<AnnotationOutcome> {
    let params = BehaviourParams::for_expertise(participant.expertise);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ (participant.id as u64) << 8);
    let mut outcomes = Vec::with_capacity(queries.len());

    // BenchPress participants get a cold-start project per dataset (the
    // knowledge base grows within their session, not across participants).
    let mut benchpress_projects: HashMap<StudyDataset, Project> = HashMap::new();
    if participant.condition == Condition::BenchPress {
        for (dataset, corpus) in [(StudyDataset::Beaver, beaver), (StudyDataset::Bird, bird)] {
            let mut project = Project::new(
                format!("study-p{}-{}", participant.id, dataset.name()),
                TaskConfig::default()
                    .with_model(config.model)
                    .with_seed(config.seed ^ participant.id as u64),
            );
            project.ingest_benchmark(corpus);
            benchpress_projects.insert(dataset, project);
        }
    }

    for query in queries {
        let parsed = bp_sql::parse_query(&query.sql).expect("study queries parse");
        let lexicon = match query.dataset {
            StudyDataset::Beaver => &beaver.lexicon,
            StudyDataset::Bird => &bird.lexicon,
        };
        let (description, minutes) = match participant.condition {
            Condition::BenchPress => {
                let project = benchpress_projects
                    .get_mut(&query.dataset)
                    .expect("project created above");
                // The project log mirrors the corpus log order; map the study
                // query back to its position within its dataset.
                let local_index = project
                    .log()
                    .iter()
                    .position(|item| item.sql == query.sql)
                    .expect("study query comes from the corpus log");
                let draft = project.annotate(local_index).expect("annotation succeeds");
                let human = review_candidates(
                    &parsed,
                    &draft.candidates,
                    Condition::BenchPress,
                    &params,
                    lexicon,
                    &mut rng,
                );
                // Feedback loop: capture domain knowledge the first time an
                // unexplained term shows up, so later prompts improve.
                for term in lexicon.terms_in(&query.sql) {
                    let already_known = project
                        .knowledge()
                        .knowledge_texts()
                        .iter()
                        .any(|note| note.to_lowercase().contains(&term.term.to_lowercase()));
                    if !already_known {
                        project
                            .apply_feedback(
                                local_index,
                                FeedbackAction::AddKnowledge {
                                    topic: term.term.clone(),
                                    note: term.explanation.clone(),
                                },
                            )
                            .expect("knowledge feedback succeeds");
                    }
                }
                let minutes = annotation_minutes(
                    Condition::BenchPress,
                    &params,
                    &parsed,
                    draft.units.len(),
                    draft.candidates.len(),
                    human.fixes,
                );
                project
                    .apply_feedback(local_index, FeedbackAction::Edit(human.description.clone()))
                    .expect("edit feedback succeeds");
                project.finalize(local_index).expect("finalize succeeds");
                (human.description, minutes)
            }
            Condition::VanillaLlm => {
                // A general-purpose LLM without retrieval or schema grounding:
                // bare prompt, and the participant only looks at two outputs.
                let prompt = PromptBuilder::new(query.sql.clone()).build();
                let unresolved = lexicon.terms_in(&query.sql).len();
                let request = GenerationRequest {
                    query: &parsed,
                    prompt: &prompt,
                    unresolved_domain_terms: unresolved,
                    seed: config.seed
                        ^ bp_llm::sql2nl::stable_hash(&query.sql)
                        ^ participant.id as u64,
                };
                let candidates: Vec<String> =
                    generate_candidates(&config.model.profile(), &request)
                        .into_iter()
                        .take(2)
                        .map(|c| c.text)
                        .collect();
                let human = review_candidates(
                    &parsed,
                    &candidates,
                    Condition::VanillaLlm,
                    &params,
                    lexicon,
                    &mut rng,
                );
                let minutes = annotation_minutes(
                    Condition::VanillaLlm,
                    &params,
                    &parsed,
                    1,
                    candidates.len(),
                    human.fixes,
                );
                (human.description, minutes)
            }
            Condition::Manual => {
                let human = write_manual(&parsed, &params, lexicon, &mut rng);
                let minutes =
                    annotation_minutes(Condition::Manual, &params, &parsed, 1, 0, human.fixes);
                (human.description, minutes)
            }
        };
        let score = coverage(&parsed, &description).score();
        outcomes.push(AnnotationOutcome {
            participant: participant.id,
            condition: participant.condition,
            expertise: participant.expertise,
            dataset: query.dataset,
            query_index: query.index,
            sql: query.sql.clone(),
            description,
            coverage: score,
            accurate: score >= DEFAULT_ACCURACY_THRESHOLD,
            minutes,
        });
    }
    let _ = empty_lexicon();
    outcomes
}

impl StudyRun {
    fn outcomes_for(
        &self,
        dataset: Option<StudyDataset>,
        condition: Condition,
    ) -> impl Iterator<Item = &AnnotationOutcome> {
        self.outcomes.iter().filter(move |o| {
            o.condition == condition && dataset.map(|d| o.dataset == d).unwrap_or(true)
        })
    }

    /// Annotation accuracy (percent of accurate annotations) per dataset and
    /// condition — the reproduction of Table 3.
    pub fn accuracy_table(&self) -> Vec<ConditionRow> {
        let accuracy = |dataset: Option<StudyDataset>, condition: Condition| -> f64 {
            let outcomes: Vec<_> = self.outcomes_for(dataset, condition).collect();
            if outcomes.is_empty() {
                return 0.0;
            }
            outcomes.iter().filter(|o| o.accurate).count() as f64 / outcomes.len() as f64 * 100.0
        };
        let mut rows = Vec::new();
        for dataset in StudyDataset::all() {
            rows.push(ConditionRow {
                label: dataset.name().to_string(),
                benchpress: accuracy(Some(*dataset), Condition::BenchPress),
                vanilla_llm: accuracy(Some(*dataset), Condition::VanillaLlm),
                manual: accuracy(Some(*dataset), Condition::Manual),
            });
        }
        rows.push(ConditionRow {
            label: "Overall".to_string(),
            benchpress: accuracy(None, Condition::BenchPress),
            vanilla_llm: accuracy(None, Condition::VanillaLlm),
            manual: accuracy(None, Condition::Manual),
        });
        rows
    }

    /// Average annotation latency in minutes per participant, per dataset and
    /// condition — the reproduction of Table 4. The value for a dataset is
    /// the mean over participants of their *total* time on that dataset's
    /// queries, matching the paper's presentation.
    pub fn latency_table(&self) -> Vec<ConditionRow> {
        let latency = |dataset: Option<StudyDataset>, condition: Condition| -> f64 {
            // BTreeMap, not HashMap: the totals are summed below, and f64
            // addition is order-sensitive in the last ulp — hash order would
            // make the reported mean depend on the process's hash seed.
            let mut per_participant: std::collections::BTreeMap<usize, f64> =
                std::collections::BTreeMap::new();
            for outcome in self.outcomes_for(dataset, condition) {
                *per_participant.entry(outcome.participant).or_insert(0.0) += outcome.minutes;
            }
            if per_participant.is_empty() {
                return 0.0;
            }
            per_participant.values().sum::<f64>() / per_participant.len() as f64
        };
        let mut rows = Vec::new();
        for dataset in StudyDataset::all() {
            rows.push(ConditionRow {
                label: dataset.name().to_string(),
                benchpress: latency(Some(*dataset), Condition::BenchPress),
                vanilla_llm: latency(Some(*dataset), Condition::VanillaLlm),
                manual: latency(Some(*dataset), Condition::Manual),
            });
        }
        rows.push(ConditionRow {
            label: "Total".to_string(),
            benchpress: latency(None, Condition::BenchPress),
            vanilla_llm: latency(None, Condition::VanillaLlm),
            manual: latency(None, Condition::Manual),
        });
        rows
    }

    /// Backtranslation clarity histograms per condition — the reproduction of
    /// Figure 4. Every final description is backtranslated by a vanilla model
    /// and graded with the 5-level rubric against its original query,
    /// executing on the corresponding generated database.
    ///
    /// Each outcome's backtranslation + grading is independent, so the loop
    /// fans out across the deterministic batch driver; grades are recorded
    /// into the histograms in outcome order, making the result identical at
    /// every thread count.
    pub fn clarity_histograms(
        &self,
        backtranslation_model: ModelKind,
    ) -> HashMap<Condition, ClarityHistogram> {
        self.clarity_histograms_detailed(backtranslation_model).0
    }

    /// [`StudyRun::clarity_histograms`] plus the plan-cache and
    /// access-path counters the grading sweep accumulated. Grading executes
    /// every original query and every regenerated query through
    /// [`PlanCache::execute`] (inside `bp_metrics::grade_cached`), which
    /// folds every counter below, on one [`PlanCache`] per dataset keyed
    /// on a snapshot per database pinned up front — a
    /// corpus whose descriptions backtranslate to a handful of distinct SQL
    /// texts compiles each text once, not once per participant — and the
    /// counters quantify exactly that reuse. The histograms never depend on
    /// the cache (only compile frequency does); the hit/miss *split* can
    /// shift between runs when workers race on a cold key, but `hits +
    /// misses` is always two per graded outcome whose regeneration parses
    /// (original + regenerated), plus one for each that does not parse.
    ///
    /// The [`AccessPathStats`] tally how many table accesses across the
    /// sweep the compiler answered from a secondary index versus a full
    /// scan (per execution, cached plans included) — fast-path coverage of
    /// the grading workload, observed rather than inferred.
    ///
    /// The [`VerifierStats`] tally the always-on plan verifier's coverage:
    /// every distinct compile the sweep performed was statically verified
    /// (counted once per compile, not per execution), and `violations`
    /// staying at 0 is the observable proof that no miscompiled plan
    /// reached execution.
    ///
    /// The [`OptimizerStats`] tally the cost-based optimizer's coverage
    /// per compile — join spines whose association the cost model chose vs
    /// join nodes compiled in syntactic order — and the
    /// [`CardinalityStats`] tally per execution how many output rows the
    /// cost model predicted vs how many actually came back, the study-side
    /// view of estimator drift.
    pub fn clarity_histograms_detailed(
        &self,
        backtranslation_model: ModelKind,
    ) -> (
        HashMap<Condition, ClarityHistogram>,
        PlanCacheStats,
        AccessPathStats,
        VerifierStats,
        OptimizerStats,
        CardinalityStats,
    ) {
        let beaver_translator =
            bp_llm::Backtranslator::new(self.beaver_db.catalog(), backtranslation_model.profile());
        let bird_translator =
            bp_llm::Backtranslator::new(self.bird_db.catalog(), backtranslation_model.profile());
        let beaver_snapshot = self.beaver_db.snapshot();
        let bird_snapshot = self.bird_db.snapshot();
        // One cache per dataset: the cache is keyed by SQL text, and the two
        // corpora reuse table names, so sharing one would make the same text
        // ping-pong between snapshots as invalidations.
        let beaver_cache = PlanCache::with_default_capacity();
        let bird_cache = PlanCache::with_default_capacity();
        let graded = batch_map(available_threads(), self.outcomes.len(), |i| {
            let outcome = &self.outcomes[i];
            let (translator, snapshot, cache) = match outcome.dataset {
                StudyDataset::Beaver => (&beaver_translator, &beaver_snapshot, &beaver_cache),
                StudyDataset::Bird => (&bird_translator, &bird_snapshot, &bird_cache),
            };
            let regenerated = translator.backtranslate(&outcome.description);
            let graded = grade_cached(&outcome.sql, &regenerated, snapshot, cache)
                .expect("study queries parse");
            Ok::<_, std::convert::Infallible>((outcome.condition, graded.level))
        })
        .expect("backtranslation grading is infallible");
        let mut histograms: HashMap<Condition, ClarityHistogram> = HashMap::new();
        for (condition, level) in graded {
            histograms.entry(condition).or_default().record(level);
        }
        let beaver_stats = beaver_cache.stats();
        let bird_stats = bird_cache.stats();
        let stats = PlanCacheStats {
            hits: beaver_stats.hits + bird_stats.hits,
            misses: beaver_stats.misses + bird_stats.misses,
            invalidations: beaver_stats.invalidations + bird_stats.invalidations,
        };
        let beaver_access = beaver_cache.access_stats();
        let bird_access = bird_cache.access_stats();
        let access = AccessPathStats {
            index_scan: beaver_access.index_scan + bird_access.index_scan,
            full_scan: beaver_access.full_scan + bird_access.full_scan,
        };
        let beaver_verified = beaver_cache.verifier_stats();
        let bird_verified = bird_cache.verifier_stats();
        let verified = VerifierStats {
            plans_verified: beaver_verified.plans_verified + bird_verified.plans_verified,
            violations: beaver_verified.violations + bird_verified.violations,
        };
        let beaver_opt = beaver_cache.optimizer_stats();
        let bird_opt = bird_cache.optimizer_stats();
        let optimizer = OptimizerStats {
            cost_based: beaver_opt.cost_based + bird_opt.cost_based,
            syntactic_fallback: beaver_opt.syntactic_fallback + bird_opt.syntactic_fallback,
        };
        let beaver_card = beaver_cache.cardinality_stats();
        let bird_card = bird_cache.cardinality_stats();
        let cardinality = CardinalityStats {
            estimated_executions: beaver_card.estimated_executions + bird_card.estimated_executions,
            // Estimates saturate at u64::MAX; so does their sum.
            estimated_rows: beaver_card
                .estimated_rows
                .saturating_add(bird_card.estimated_rows),
            actual_rows: beaver_card.actual_rows + bird_card.actual_rows,
        };
        (histograms, stats, access, verified, optimizer, cardinality)
    }

    /// Mean coverage per condition (a finer-grained quality view than the
    /// accurate/inaccurate split of Table 3).
    pub fn mean_coverage(&self, condition: Condition) -> f64 {
        let outcomes: Vec<_> = self.outcomes_for(None, condition).collect();
        if outcomes.is_empty() {
            return 0.0;
        }
        outcomes.iter().map(|o| o.coverage).sum::<f64>() / outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> StudyRun {
        run_study(&StudyConfig::small(7))
    }

    #[test]
    fn study_produces_outcomes_for_every_participant_and_query() {
        let run = small_run();
        assert_eq!(run.participants.len(), 6);
        assert_eq!(run.queries.len(), 10);
        assert_eq!(run.outcomes.len(), 60);
        // Every condition is represented.
        for condition in Condition::all() {
            assert!(run.outcomes.iter().any(|o| o.condition == *condition));
        }
    }

    #[test]
    fn accuracy_and_latency_tables_have_expected_shape() {
        let run = small_run();
        let accuracy = run.accuracy_table();
        let latency = run.latency_table();
        assert_eq!(accuracy.len(), 3);
        assert_eq!(latency.len(), 3);
        assert_eq!(accuracy[0].label, "Beaver");
        assert_eq!(accuracy[2].label, "Overall");
        assert_eq!(latency[2].label, "Total");
        for row in &accuracy {
            for condition in Condition::all() {
                let value = row.get(*condition);
                assert!((0.0..=100.0).contains(&value));
            }
        }
        for row in &latency {
            assert!(row.manual > 0.0);
        }
    }

    #[test]
    fn benchpress_beats_baselines_on_the_enterprise_portion() {
        let run = run_study(&StudyConfig {
            participants: 12,
            beaver_queries: 8,
            bird_queries: 4,
            seed: 99,
            model: ModelKind::Gpt4o,
        });
        let accuracy = run.accuracy_table();
        let beaver_row = &accuracy[0];
        assert!(
            beaver_row.benchpress >= beaver_row.vanilla_llm,
            "BenchPress {} should be at least Vanilla {}",
            beaver_row.benchpress,
            beaver_row.vanilla_llm
        );
        assert!(
            beaver_row.benchpress > beaver_row.manual,
            "BenchPress {} should beat Manual {}",
            beaver_row.benchpress,
            beaver_row.manual
        );
        let latency = run.latency_table();
        let total = &latency[2];
        assert!(total.manual > 2.0 * total.benchpress);
        assert!(total.manual > 2.0 * total.vanilla_llm);
    }

    #[test]
    fn clarity_histograms_cover_all_annotations() {
        let run = small_run();
        let histograms = run.clarity_histograms(ModelKind::Gpt4o);
        let total: usize = histograms.values().map(|h| h.total()).sum();
        assert_eq!(total, run.outcomes.len());
        // BenchPress should not be worse than Manual on mean clarity.
        let benchpress = histograms[&Condition::BenchPress].mean_level();
        let manual = histograms[&Condition::Manual].mean_level();
        assert!(
            benchpress + 0.3 >= manual,
            "BenchPress clarity {benchpress} vs manual {manual}"
        );
    }

    #[test]
    fn detailed_clarity_histograms_agree_and_report_cache_reuse() {
        let run = small_run();
        let plain = run.clarity_histograms(ModelKind::Gpt4o);
        let (detailed, stats, access, verified, optimizer, cardinality) =
            run.clarity_histograms_detailed(ModelKind::Gpt4o);
        assert_eq!(plain, detailed);
        // Every graded outcome touches the cache at least once (regenerated
        // side), at most twice (plus the original).
        assert!(stats.hits + stats.misses >= run.outcomes.len() as u64);
        assert!(stats.hits + stats.misses <= 2 * run.outcomes.len() as u64);
        // 6 participants annotate the same 10 queries: plans must be reused.
        assert!(stats.hits > 0, "repeated SQL texts must hit the cache");
        assert_eq!(stats.invalidations, 0, "nothing writes during grading");
        // Every successful execution chose an access path; the sweep as a
        // whole must have scanned *something*.
        assert!(
            access.index_scan + access.full_scan > 0,
            "graded executions must tally access paths"
        );
        // Every distinct compile was statically verified (once per compile,
        // so verified ≤ misses), and none of them was a miscompile.
        assert!(
            verified.plans_verified > 0,
            "graded compiles must tally verifier coverage"
        );
        assert!(verified.plans_verified <= stats.misses);
        assert_eq!(verified.violations, 0, "no plan may fail verification");
        // Optimizer coverage is per compile too: every compiled join node
        // either went through the cost model or fell back, so the combined
        // tally is bounded by the compile count times plan size — and the
        // cardinality counters saw every successful estimated execution.
        assert!(
            optimizer.cost_based + optimizer.syntactic_fallback <= 4 * verified.plans_verified,
            "optimizer tallies are per compile: {optimizer:?}"
        );
        assert!(
            cardinality.estimated_executions > 0,
            "graded executions must tally estimated-vs-actual rows"
        );
        assert!(cardinality.estimated_rows > 0 || cardinality.actual_rows > 0);
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_study(&StudyConfig::small(3));
        let b = run_study(&StudyConfig::small(3));
        assert_eq!(a.outcomes, b.outcomes);
    }
}
