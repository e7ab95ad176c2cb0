//! The traced run's replays of the public calls that span several layers.
//!
//! `Project::annotate`, `grade_cached` and
//! `evaluate_execution_accuracy_cached` each cross several workspace
//! crates, so timing them from outside would book all their work to one
//! layer. The traced run instead replays each of them step by step through
//! the lower layers' public functions, one span per call, and the workload
//! asserts that the replay's outputs digest byte-identically to the
//! untraced calls'. `run_study` and `clarity_histograms_detailed` are
//! replayed the same way, because they are the loops that make those
//! calls. Nothing is booked to an outer layer.

use bp_core::{AnnotationDraft, AnnotationRecord, CoreError, TaskConfig, UnitDraft};
use bp_datasets::{BenchmarkKind, DomainLexicon, GeneratedBenchmark};
use bp_embed::{DocumentKind, VectorStore};
use bp_llm::{
    generate_candidates, predict_sql, Backtranslator, EvalItem, ExecutionAccuracyReport,
    FewShotExample, GenerationRequest, ModelKind, ModelProfile, PromptBuilder,
};
use bp_metrics::{coverage, ClarityHistogram, ClarityLevel, RubricOutcome};
use bp_sql::{decompose, should_decompose, Decomposition, UnitDescription};
use bp_storage::sync::Arc;
use bp_storage::{
    results_match, AccessPathStats, CardinalityStats, Catalog, ExecOptions, PlanCache,
    PlanCacheStats, QueryResult, Snapshot, StorageError, VerifierStats,
};
use bp_study::{
    annotation_minutes, assign_participants, review_candidates, write_manual, AnnotationOutcome,
    BehaviourParams, Condition, Participant, StudyConfig, StudyDataset, StudyQuery, StudyRun,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;

/// One log entry's annotation state in a [`ReplayProject`].
#[derive(Debug, Default)]
struct Entry {
    candidates: Option<Vec<String>>,
    regenerations: Option<usize>,
    pending: Option<String>,
    feedback_actions: usize,
    human_edited: bool,
}

/// `bp_core::Project` replayed over its lower layers for one ingested
/// benchmark: the knowledge base is a `bp_embed::VectorStore` plus the
/// note list, exactly as `bp_core::KnowledgeBase` keeps them. Priorities
/// are not replayed; no workload adds one.
pub struct ReplayProject<'a> {
    config: TaskConfig,
    corpus: &'a GeneratedBenchmark,
    store: VectorStore,
    notes: Vec<(String, String)>,
    annotations: usize,
    entries: Vec<Entry>,
}

impl<'a> ReplayProject<'a> {
    /// `Project::new` followed by `Project::ingest_benchmark(corpus)`.
    pub fn new(config: TaskConfig, corpus: &'a GeneratedBenchmark) -> Self {
        ReplayProject {
            config,
            corpus,
            store: VectorStore::new(),
            notes: Vec::new(),
            annotations: 0,
            entries: corpus.log.iter().map(|_| Entry::default()).collect(),
        }
    }

    /// Stored annotation examples (`KnowledgeBase::annotation_count`).
    pub fn annotation_count(&self) -> usize {
        self.annotations
    }

    /// `KnowledgeBase::knowledge_texts`.
    pub fn knowledge_texts(&self) -> Vec<String> {
        self.notes
            .iter()
            .map(|(topic, note)| format!("{topic}: {note}"))
            .collect()
    }

    fn search(
        &self,
        t: &mut Tracer,
        sql: &str,
        k: usize,
        kind: DocumentKind,
    ) -> Vec<bp_embed::SearchHit> {
        let stored = match kind {
            DocumentKind::Knowledge => self.notes.len(),
            _ => self.annotations,
        };
        let hits = t.span("embed.search", |_| self.store.search(sql, k, Some(kind)));
        t.count("embed.search.docs_scored", stored as f64);
        t.count("embed.search.hits", hits.len() as f64);
        hits
    }

    fn schema_context(&self, t: &mut Tracer, unit_sql: &str) -> Vec<String> {
        let catalog: &Catalog = self.corpus.database.catalog();
        let mut context = Vec::new();
        if let Ok(query) = t.span("sql.parse", |_| bp_sql::parse_query(unit_sql)) {
            let analysis = t.span("sql.analyze", |_| bp_sql::analyze(&query));
            for table in &analysis.tables {
                if let Some(schema) = catalog.table(table) {
                    context.push(schema.to_create_table_sql());
                }
            }
        }
        if context.is_empty() {
            context = catalog
                .tables()
                .take(self.config.top_k_tables)
                .map(|t| t.to_create_table_sql())
                .collect();
        }
        context.truncate(self.config.top_k_tables.max(1));
        context
    }

    /// `Project::annotate` (the span `core.annotate`; its self time is the
    /// glue between the lower-layer calls).
    pub fn annotate(
        &mut self,
        t: &mut Tracer,
        query_id: usize,
    ) -> Result<AnnotationDraft, CoreError> {
        t.span("core.annotate", |t| self.annotate_inner(t, query_id))
    }

    fn annotate_inner(
        &mut self,
        t: &mut Tracer,
        query_id: usize,
    ) -> Result<AnnotationDraft, CoreError> {
        let sql = self
            .corpus
            .log
            .get(query_id)
            .map(|entry| entry.sql.clone())
            .ok_or(CoreError::UnknownQuery(query_id))?;
        let query = t.span("sql.parse", |_| bp_sql::parse_query(&sql))?;
        let decomposition: Decomposition = t.span("sql.decompose", |_| {
            if self.config.auto_decompose && should_decompose(&query) {
                decompose(&query)
            } else {
                decompose_flat(&query)
            }
        });
        let profile = self.config.model.profile();
        let knowledge_texts = self.knowledge_texts();
        let mut units = Vec::with_capacity(decomposition.units.len());
        for unit in &decomposition.units {
            let examples: Vec<FewShotExample> = self
                .search(
                    t,
                    &unit.sql,
                    self.config.top_k_examples,
                    DocumentKind::Annotation,
                )
                .into_iter()
                .filter_map(|hit| {
                    let document = self.store.get(hit.id)?;
                    Some(FewShotExample {
                        sql: document.text.clone(),
                        description: document.payload.clone().unwrap_or_default(),
                        similarity: hit.score,
                    })
                })
                .collect();
            let schema_context = self.schema_context(t, &unit.sql);
            let notes: Vec<String> = self
                .search(t, &unit.sql, 3, DocumentKind::Knowledge)
                .into_iter()
                .filter_map(|hit| self.store.get(hit.id).map(|d| d.text.clone()))
                .collect();
            let prompt = t.span("llm.prompt", |_| {
                let mut builder = PromptBuilder::new(unit.sql.clone());
                for ddl in &schema_context {
                    builder = builder.schema_table(ddl.clone());
                }
                for example in &examples {
                    builder = builder.example(
                        example.sql.clone(),
                        example.description.clone(),
                        example.similarity,
                    );
                }
                for note in notes {
                    builder = builder.knowledge(note);
                }
                builder.build()
            });
            let unresolved = t.span("datasets.lexicon", |_| {
                self.corpus
                    .lexicon
                    .unresolved_terms_in(&unit.sql, &knowledge_texts)
            });
            let request = GenerationRequest {
                query: &unit.query,
                prompt: &prompt,
                unresolved_domain_terms: unresolved,
                seed: self.config.seed ^ bp_llm::sql2nl::stable_hash(&unit.sql),
            };
            let candidates = t.span("llm.sql2nl", |_| generate_candidates(&profile, &request));
            units.push(UnitDraft {
                unit_name: unit.name.clone(),
                sql: unit.sql.clone(),
                context_quality: prompt.context_quality(),
                examples_used: prompt.example_count(),
                candidates,
            });
        }
        let candidate_count = units
            .first()
            .map(|u| u.candidates.len())
            .unwrap_or(bp_llm::CANDIDATES_PER_QUERY);
        let mut candidates = Vec::with_capacity(candidate_count);
        for index in 0..candidate_count {
            let descriptions: Vec<UnitDescription> = units
                .iter()
                .map(|u| {
                    let text = u
                        .candidates
                        .get(index)
                        .or_else(|| u.candidates.first())
                        .map(|c| c.text.clone())
                        .unwrap_or_default();
                    UnitDescription::new(u.unit_name.clone(), text)
                })
                .collect();
            let merged = t
                .span("sql.recompose", |_| {
                    bp_sql::recompose(&decomposition, &descriptions)
                })
                .map_err(|e| CoreError::Invalid(e.to_string()))?;
            candidates.push(merged);
        }
        let entry = self
            .entries
            .get_mut(query_id)
            .ok_or(CoreError::UnknownQuery(query_id))?;
        let regeneration_count = entry.regenerations.map_or(0, |n| n + 1);
        entry.regenerations = Some(regeneration_count);
        entry.candidates = Some(candidates.clone());
        Ok(AnnotationDraft {
            query_id,
            sql,
            was_decomposed: decomposition.was_decomposed,
            decomposition,
            units,
            candidates,
            regeneration_count,
        })
    }

    fn entry(&mut self, query_id: usize) -> Result<&mut Entry, CoreError> {
        self.entries
            .get_mut(query_id)
            .ok_or(CoreError::UnknownQuery(query_id))
    }

    /// `Project::apply_feedback(AddKnowledge { topic, note })`.
    pub fn add_knowledge(
        &mut self,
        t: &mut Tracer,
        query_id: usize,
        topic: String,
        note: String,
    ) -> Result<(), CoreError> {
        t.span("core.feedback", |t| {
            let text = format!("{topic}: {note}");
            t.span("embed.add", |_| {
                self.store.add(text, None, DocumentKind::Knowledge)
            });
            self.notes.push((topic, note));
            self.entry(query_id)?.feedback_actions += 1;
            Ok(())
        })
    }

    /// `Project::apply_feedback(SelectCandidate(index))`.
    pub fn select(
        &mut self,
        t: &mut Tracer,
        query_id: usize,
        index: usize,
    ) -> Result<(), CoreError> {
        t.span("core.feedback", |_| {
            let entry = self.entry(query_id)?;
            entry.feedback_actions += 1;
            let text = entry
                .candidates
                .as_ref()
                .ok_or(CoreError::NoDraft(query_id))?
                .get(index)
                .cloned()
                .ok_or(CoreError::UnknownCandidate(index))?;
            entry.pending = Some(text);
            entry.human_edited = false;
            Ok(())
        })
    }

    /// `Project::apply_feedback(Edit(text))`.
    pub fn edit(&mut self, t: &mut Tracer, query_id: usize, text: String) -> Result<(), CoreError> {
        t.span("core.feedback", |_| {
            let entry = self.entry(query_id)?;
            entry.feedback_actions += 1;
            if entry.candidates.is_none() {
                return Err(CoreError::NoDraft(query_id));
            }
            entry.pending = Some(text);
            entry.human_edited = true;
            Ok(())
        })
    }

    /// `Project::finalize`: the record, and the annotation stored as a
    /// retrievable example.
    pub fn finalize(
        &mut self,
        t: &mut Tracer,
        query_id: usize,
    ) -> Result<AnnotationRecord, CoreError> {
        t.span("core.finalize", |t| {
            let model = self.config.model.name().to_string();
            let sql = self
                .corpus
                .log
                .get(query_id)
                .map(|entry| entry.sql.clone())
                .ok_or(CoreError::UnknownQuery(query_id))?;
            let entry = self.entry(query_id)?;
            let description = entry
                .pending
                .clone()
                .ok_or(CoreError::NotFinalized(query_id))?;
            let record = AnnotationRecord {
                query_id,
                sql: sql.clone(),
                description: description.clone(),
                model,
                feedback_actions: entry.feedback_actions,
                human_edited: entry.human_edited,
            };
            t.span("embed.add", |_| {
                self.store
                    .add(sql, Some(description), DocumentKind::Annotation)
            });
            self.annotations += 1;
            Ok(record)
        })
    }
}

/// Whether a knowledge note already explains `term`: the check the study's
/// simulated annotator makes before feeding a lexicon term back.
pub fn is_known(knowledge_texts: &[String], term: &str) -> bool {
    let term = term.to_lowercase();
    knowledge_texts
        .iter()
        .any(|note| note.to_lowercase().contains(&term))
}

/// The single-unit decomposition `Project::annotate` builds for flat
/// queries when decomposition is off.
fn decompose_flat(query: &bp_sql::Query) -> Decomposition {
    Decomposition {
        units: vec![bp_sql::AnnotationUnit {
            name: "FINAL".to_string(),
            sql: query.to_string(),
            query: query.clone(),
            role: bp_sql::UnitRole::Final,
        }],
        rewritten: query.clone(),
        was_decomposed: false,
    }
}

// ---------------------------------------------------------------------
// The user study: `run_study` and `clarity_histograms_detailed`
// ---------------------------------------------------------------------

/// `bp_study::run_study`, one `study.simulate` span per participant on the
/// worker pool. Where `run_study` panics, this returns the reason.
pub fn run_study(t: &mut Tracer, config: &StudyConfig) -> Result<StudyRun, String> {
    let beaver = t.span("datasets.generate", |_| {
        GeneratedBenchmark::generate(BenchmarkKind::Beaver, config.beaver_queries, config.seed)
    });
    let bird = t.span("datasets.generate", |_| {
        GeneratedBenchmark::generate(BenchmarkKind::Bird, config.bird_queries, config.seed ^ 0x51)
    });
    let mut queries = Vec::with_capacity(config.total_queries());
    for (dataset, corpus) in [(StudyDataset::Beaver, &beaver), (StudyDataset::Bird, &bird)] {
        for entry in &corpus.log {
            queries.push(StudyQuery {
                dataset,
                index: queries.len(),
                sql: entry.sql.clone(),
            });
        }
    }
    let participants = t.span("study.assign", |_| {
        assign_participants(config.participants, config.seed)
    });
    let per_participant = t.batch(participants.len(), |i, t| {
        t.span("study.simulate", |t| {
            run_participant(t, config, &participants[i], &queries, &beaver, &bird)
        })
    });
    let mut outcomes = Vec::with_capacity(participants.len() * queries.len());
    for participant_outcomes in per_participant {
        outcomes.extend(participant_outcomes?);
    }
    Ok(StudyRun {
        config: config.clone(),
        participants,
        queries,
        outcomes,
        beaver_db: beaver.database,
        bird_db: bird.database,
        lexicon: beaver.lexicon,
    })
}

fn run_participant(
    t: &mut Tracer,
    config: &StudyConfig,
    participant: &Participant,
    queries: &[StudyQuery],
    beaver: &GeneratedBenchmark,
    bird: &GeneratedBenchmark,
) -> Result<Vec<AnnotationOutcome>, String> {
    let params = BehaviourParams::for_expertise(participant.expertise);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ (participant.id as u64) << 8);
    let mut outcomes = Vec::with_capacity(queries.len());
    // BenchPress participants get a cold-start project per dataset:
    // Beaver first, Bird second.
    let mut projects: Vec<ReplayProject<'_>> = Vec::new();
    if participant.condition == Condition::BenchPress {
        for corpus in [beaver, bird] {
            let task = TaskConfig::default()
                .with_model(config.model)
                .with_seed(config.seed ^ participant.id as u64);
            projects.push(ReplayProject::new(task, corpus));
        }
    }
    for query in queries {
        let parsed = t
            .span("sql.parse", |_| bp_sql::parse_query(&query.sql))
            .map_err(|e| format!("study query does not parse: {e}"))?;
        let lexicon: &DomainLexicon = match query.dataset {
            StudyDataset::Beaver => &beaver.lexicon,
            StudyDataset::Bird => &bird.lexicon,
        };
        let (description, minutes) = match participant.condition {
            Condition::BenchPress => {
                let slot = usize::from(query.dataset == StudyDataset::Bird);
                let project = projects
                    .get_mut(slot)
                    .ok_or("BenchPress participant without a project")?;
                let local_index = project
                    .corpus
                    .log
                    .iter()
                    .position(|entry| entry.sql == query.sql)
                    .ok_or("study query is not in the corpus log")?;
                let draft = project
                    .annotate(t, local_index)
                    .map_err(|e| e.to_string())?;
                let human = review_candidates(
                    &parsed,
                    &draft.candidates,
                    Condition::BenchPress,
                    &params,
                    lexicon,
                    &mut rng,
                );
                for term in lexicon.terms_in(&query.sql) {
                    if !is_known(&project.knowledge_texts(), &term.term) {
                        project
                            .add_knowledge(
                                t,
                                local_index,
                                term.term.clone(),
                                term.explanation.clone(),
                            )
                            .map_err(|e| e.to_string())?;
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
                    .edit(t, local_index, human.description.clone())
                    .map_err(|e| e.to_string())?;
                project
                    .finalize(t, local_index)
                    .map_err(|e| e.to_string())?;
                (human.description, minutes)
            }
            Condition::VanillaLlm => {
                let prompt = t.span("llm.prompt", |_| {
                    PromptBuilder::new(query.sql.clone()).build()
                });
                let request = GenerationRequest {
                    query: &parsed,
                    prompt: &prompt,
                    unresolved_domain_terms: lexicon.terms_in(&query.sql).len(),
                    seed: config.seed
                        ^ bp_llm::sql2nl::stable_hash(&query.sql)
                        ^ participant.id as u64,
                };
                let profile = config.model.profile();
                let candidates: Vec<String> = t
                    .span("llm.sql2nl", |_| generate_candidates(&profile, &request))
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
        let score = t.span("metrics.coverage", |_| {
            coverage(&parsed, &description).score()
        });
        outcomes.push(AnnotationOutcome {
            participant: participant.id,
            condition: participant.condition,
            expertise: participant.expertise,
            dataset: query.dataset,
            query_index: query.index,
            sql: query.sql.clone(),
            description,
            coverage: score,
            accurate: score >= bp_metrics::DEFAULT_ACCURACY_THRESHOLD,
            minutes,
        });
    }
    Ok(outcomes)
}

/// What `StudyRun::clarity_histograms_detailed` returns, minus the
/// optimizer tallies no check reads.
#[derive(Debug, Clone, Default)]
pub struct StudyGrades {
    /// Clarity histogram per condition, in `Condition::all()` order.
    pub histograms: Vec<(Condition, ClarityHistogram)>,
    /// Plan-cache tallies over both datasets' caches.
    pub cache: PlanCacheStats,
    /// Access paths over both caches.
    pub access: AccessPathStats,
    /// Verifier tallies over both caches.
    pub verifier: VerifierStats,
    /// Estimated-vs-actual rows over both caches.
    pub cardinality: CardinalityStats,
}

impl StudyGrades {
    /// Merge the two datasets' caches into one set of tallies.
    pub fn from_caches(
        histogram: impl Fn(Condition) -> ClarityHistogram,
        caches: [&PlanCache; 2],
    ) -> Self {
        let mut grades = StudyGrades {
            histograms: Condition::all()
                .iter()
                .map(|condition| (*condition, histogram(*condition)))
                .collect(),
            ..StudyGrades::default()
        };
        for cache in caches {
            let stats = cache.stats();
            grades.cache.hits += stats.hits;
            grades.cache.misses += stats.misses;
            grades.cache.invalidations += stats.invalidations;
            let access = cache.access_stats();
            grades.access.index_scan += access.index_scan;
            grades.access.full_scan += access.full_scan;
            let verifier = cache.verifier_stats();
            grades.verifier.plans_verified += verifier.plans_verified;
            grades.verifier.violations += verifier.violations;
            let rows = cache.cardinality_stats();
            grades.cardinality.estimated_executions += rows.estimated_executions;
            grades.cardinality.estimated_rows += rows.estimated_rows;
            grades.cardinality.actual_rows += rows.actual_rows;
        }
        grades
    }
}

/// `StudyRun::clarity_histograms_detailed`: one `study.grade` span per
/// outcome on the worker pool.
pub fn clarity_histograms(
    t: &mut Tracer,
    run: &StudyRun,
    model: ModelKind,
) -> Result<StudyGrades, String> {
    let beaver_translator = Backtranslator::new(run.beaver_db.catalog(), model.profile());
    let bird_translator = Backtranslator::new(run.bird_db.catalog(), model.profile());
    let beaver_snapshot = run.beaver_db.snapshot();
    let bird_snapshot = run.bird_db.snapshot();
    let beaver_cache = PlanCache::with_default_capacity();
    let bird_cache = PlanCache::with_default_capacity();
    let graded = t.batch(run.outcomes.len(), |i, t| {
        t.span("study.grade", |t| {
            let outcome = &run.outcomes[i];
            let (translator, snapshot, cache) = match outcome.dataset {
                StudyDataset::Beaver => (&beaver_translator, &beaver_snapshot, &beaver_cache),
                StudyDataset::Bird => (&bird_translator, &bird_snapshot, &bird_cache),
            };
            let regenerated = t.span("llm.nl2sql", |_| {
                translator.backtranslate(&outcome.description)
            });
            grade_cached(t, &outcome.sql, &regenerated, snapshot, cache)
                .map(|graded| (outcome.condition, graded.level))
                .map_err(|e| format!("study query does not parse: {e}"))
        })
    });
    let graded = graded.into_iter().collect::<Result<Vec<_>, String>>()?;
    let histogram = |condition: Condition| {
        let mut histogram = ClarityHistogram::default();
        for (graded_condition, level) in &graded {
            if *graded_condition == condition {
                histogram.record(*level);
            }
        }
        histogram
    };
    Ok(StudyGrades::from_caches(
        histogram,
        [&beaver_cache, &bird_cache],
    ))
}

/// `bp_metrics::grade_cached`: parse both sides, run both through the
/// cache (tallying exactly what it tallies), compare results, and take the
/// structural levels from `bp_metrics::grade` without a database.
fn grade_cached(
    t: &mut Tracer,
    original_sql: &str,
    regenerated_sql: &str,
    snapshot: &Snapshot,
    cache: &PlanCache,
) -> Result<RubricOutcome, bp_sql::SqlError> {
    t.span("metrics.grade", |t| {
        let original = t.span("sql.parse", |_| bp_sql::parse_query(original_sql))?;
        if let Err(e) = t.span("sql.parse", |_| bp_sql::parse_query(regenerated_sql)) {
            return Ok(RubricOutcome {
                level: ClarityLevel::Invalid,
                reason: format!("regenerated SQL does not parse: {e}"),
            });
        }
        let run = |t: &mut Tracer, sql: &str| {
            let prepared = prepare(t, cache, snapshot, sql)?;
            let result = execute(t, &prepared);
            cache.record_access(prepared.access_paths());
            cache.record_verification(prepared.take_verification());
            cache.record_optimizer(prepared.take_optimizer());
            if let Ok(result) = &result {
                cache.record_cardinality(prepared.estimated_rows(), result.row_count() as u64);
            }
            result
        };
        let mut execution_matches = None;
        match run(t, regenerated_sql) {
            Err(e) => {
                return Ok(RubricOutcome {
                    level: ClarityLevel::Invalid,
                    reason: format!("regenerated SQL fails to execute: {e}"),
                })
            }
            Ok(predicted) => {
                if let Ok(gold) = run(t, original_sql) {
                    let matches = t.span("storage.compare", |_| results_match(&gold, &predicted));
                    execution_matches = Some(matches);
                }
            }
        }
        Ok(structural_grade(
            &original,
            regenerated_sql,
            execution_matches,
        ))
    })
}

/// Levels 2–5 of the rubric with the execution comparison folded in:
/// `bp_metrics::grade` without a database grades structure alone, and a
/// known execution result only turns "fully correct" into "minor issues"
/// (or names the result in the minor-issues reason).
fn structural_grade(
    original: &bp_sql::Query,
    regenerated_sql: &str,
    execution_matches: Option<bool>,
) -> RubricOutcome {
    let structural = bp_metrics::grade(original, regenerated_sql, None);
    let aligned = match (structural.level, execution_matches) {
        (ClarityLevel::FullyCorrect, Some(false)) => true,
        (ClarityLevel::MinorIssues, Some(_)) => false,
        _ => return structural,
    };
    RubricOutcome {
        level: ClarityLevel::MinorIssues,
        reason: format!(
            "minor deviations: ordering/limit/distinct aligned = {aligned}, execution match = {execution_matches:?}"
        ),
    }
}

fn prepare(
    t: &mut Tracer,
    cache: &PlanCache,
    snapshot: &Snapshot,
    sql: &str,
) -> Result<Arc<bp_storage::PreparedQuery>, StorageError> {
    t.span("storage.prepare", |_| cache.get(snapshot, sql))
}

fn execute(
    t: &mut Tracer,
    prepared: &bp_storage::PreparedQuery,
) -> Result<QueryResult, StorageError> {
    let result = t.span("storage.execute", |_| {
        prepared.execute(ExecOptions::serial())
    });
    match &result {
        Ok(rows) => {
            let actual = rows.row_count() as f64;
            t.count("storage.execute.rows_out", actual);
            if let Some(estimated) = prepared.estimated_rows() {
                t.count("storage.estimate.estimated_rows", estimated as f64);
                t.count("storage.estimate.actual_rows", actual);
            }
        }
        Err(_) => t.count("storage.execute.errors", 1.0),
    }
    if let Some(access) = prepared.access_paths() {
        t.count("storage.access.index_scans", access.index_scan as f64);
        t.count("storage.access.full_scans", access.full_scan as f64);
    }
    result
}

// ---------------------------------------------------------------------
// Figure 1: `evaluate_execution_accuracy_cached`
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemOutcome {
    Correct,
    Incorrect,
    InvalidPrediction,
    GoldInvalid,
}

/// `bp_llm::evaluate_execution_accuracy_cached` at the machine's thread
/// count: one `llm.evaluate` span per item on the worker pool.
pub fn evaluate_execution_accuracy(
    t: &mut Tracer,
    profile: &ModelProfile,
    items: &[EvalItem],
    snapshot: &Snapshot,
    seed: u64,
    cache: &PlanCache,
) -> ExecutionAccuracyReport {
    let outcomes = t.batch(items.len(), |index, t| {
        t.span("llm.evaluate", |t| {
            grade_item(t, profile, &items[index], index, snapshot, seed, cache)
        })
    });
    let mut report = ExecutionAccuracyReport {
        model: profile.kind.name().to_string(),
        total: items.len(),
        correct: 0,
        invalid: 0,
        gold_invalid: 0,
    };
    for outcome in outcomes {
        match outcome {
            ItemOutcome::Correct => report.correct += 1,
            ItemOutcome::Incorrect => {}
            ItemOutcome::InvalidPrediction => report.invalid += 1,
            ItemOutcome::GoldInvalid => report.gold_invalid += 1,
        }
    }
    report
}

fn grade_item(
    t: &mut Tracer,
    profile: &ModelProfile,
    item: &EvalItem,
    index: usize,
    snapshot: &Snapshot,
    seed: u64,
    cache: &PlanCache,
) -> ItemOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ bp_llm::sql2nl::stable_hash(&item.gold_sql)
            ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15),
    );
    let Ok(gold) = prepare(t, cache, snapshot, &item.gold_sql) else {
        return ItemOutcome::GoldInvalid;
    };
    let Ok(gold_result) = execute(t, &gold) else {
        return ItemOutcome::GoldInvalid;
    };
    let prediction = t.span("llm.text2sql", |_| {
        predict_sql(
            profile,
            gold.query(),
            item.difficulty,
            snapshot.catalog(),
            &mut rng,
        )
    });
    let predicted_result =
        match prepare(t, cache, snapshot, &prediction.sql).and_then(|p| execute(t, &p)) {
            Ok(result) => result,
            Err(_) => return ItemOutcome::InvalidPrediction,
        };
    if t.span("storage.compare", |_| {
        results_match(&gold_result, &predicted_result)
    }) {
        ItemOutcome::Correct
    } else {
        ItemOutcome::Incorrect
    }
}
