//! Projects and the annotation loop.
//!
//! A [`Project`] holds everything BenchPress keeps server-side for one
//! annotation effort: the ingested schema and SQL log, the task
//! configuration, the knowledge base that grows with accepted annotations
//! and injected domain knowledge, and the annotation state of every log
//! entry. [`Project::annotate`] runs the paper's annotation loop
//! (steps 3.5–5.5): optional decomposition into CTE units, retrieval of
//! similar examples and relevant schema tables, candidate generation with
//! the configured model, and recomposition into whole-query candidates.
//! [`Project::apply_feedback`] and [`Project::finalize`] implement step 6
//! and the review/export handoff.

use std::collections::BTreeMap;

use bp_datasets::{DomainLexicon, GeneratedBenchmark};
use bp_llm::{generate_candidates, GenerationRequest, ModelProfile, PromptBuilder};
use bp_sql::{decompose, should_decompose, Decomposition, UnitDescription};
use bp_storage::Database;

use crate::annotation::{
    AnnotationDraft, AnnotationRecord, AnnotationStatus, FeedbackAction, UnitDraft,
};
use crate::config::TaskConfig;
use crate::error::{CoreError, CoreResult};
use crate::knowledge::KnowledgeBase;

/// One entry of the ingested SQL log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogItem {
    /// Sequential id.
    pub id: usize,
    /// The SQL text.
    pub sql: String,
    /// Optional gold question (available when ingesting a benchmark; used by
    /// the review step's automatic metrics).
    pub gold_question: Option<String>,
}

/// Per-entry annotation state.
#[derive(Debug, Clone, Default)]
struct EntryState {
    status: AnnotationStatus,
    draft: Option<AnnotationDraft>,
    pending_description: Option<String>,
    feedback_actions: usize,
    human_edited: bool,
    record: Option<AnnotationRecord>,
}

/// A BenchPress annotation project.
#[derive(Debug, Default)]
pub struct Project {
    /// Project name (unique within a workspace).
    pub name: String,
    config: TaskConfig,
    database: Database,
    lexicon: DomainLexicon,
    log: Vec<LogItem>,
    knowledge: KnowledgeBase,
    entries: BTreeMap<usize, EntryState>,
}

impl Project {
    /// Create an empty project with the given task configuration.
    pub fn new(name: impl Into<String>, config: TaskConfig) -> Self {
        Project {
            name: name.into(),
            config,
            ..Project::default()
        }
    }

    // -----------------------------------------------------------------
    // Dataset ingestion (paper step 2)
    // -----------------------------------------------------------------

    /// Ingest a schema DDL script (CREATE TABLE statements).
    pub fn ingest_schema(&mut self, ddl: &str) -> CoreResult<usize> {
        Ok(self.database.ingest_ddl(ddl)?)
    }

    /// Replace the project database wholesale (used when the data itself is
    /// available, e.g. for execution-based evaluation).
    pub fn ingest_database(&mut self, database: Database) {
        self.database = database;
    }

    /// Attach a domain lexicon (the enterprise vocabulary of the workload).
    pub fn set_lexicon(&mut self, lexicon: DomainLexicon) {
        self.lexicon = lexicon;
    }

    /// Ingest a SQL log: one statement per `;`. Returns the number of
    /// queries added. Statements that fail to parse are skipped (real logs
    /// contain fragments), and the count of skipped statements is returned
    /// alongside.
    pub fn ingest_log(&mut self, log_text: &str) -> (usize, usize) {
        let mut added = 0;
        let mut skipped = 0;
        for raw in log_text.split(';') {
            let trimmed = raw.trim();
            if trimmed.is_empty() {
                continue;
            }
            match bp_sql::parse_query(trimmed) {
                Ok(query) => {
                    self.push_log_item(query.to_string(), None);
                    added += 1;
                }
                Err(_) => skipped += 1,
            }
        }
        (added, skipped)
    }

    /// Ingest one of the supported benchmarks (Spider, Bird, Fiben, Beaver):
    /// its database, SQL log, gold questions and domain lexicon.
    pub fn ingest_benchmark(&mut self, benchmark: &GeneratedBenchmark) {
        self.database = benchmark.database.clone();
        self.lexicon = benchmark.lexicon.clone();
        for entry in &benchmark.log {
            self.push_log_item(entry.sql.clone(), Some(entry.question.clone()));
        }
    }

    fn push_log_item(&mut self, sql: String, gold_question: Option<String>) {
        let id = self.log.len();
        self.log.push(LogItem {
            id,
            sql,
            gold_question,
        });
        self.entries.insert(id, EntryState::default());
    }

    // -----------------------------------------------------------------
    // Accessors
    // -----------------------------------------------------------------

    /// The ingested log.
    pub fn log(&self) -> &[LogItem] {
        &self.log
    }

    /// The task configuration.
    pub fn config(&self) -> &TaskConfig {
        &self.config
    }

    /// The project database (schema + any ingested data).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The knowledge base.
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// The domain lexicon.
    pub fn lexicon(&self) -> &DomainLexicon {
        &self.lexicon
    }

    /// Status of a log entry.
    pub fn status(&self, query_id: usize) -> CoreResult<AnnotationStatus> {
        self.entries
            .get(&query_id)
            .map(|e| e.status)
            .ok_or(CoreError::UnknownQuery(query_id))
    }

    /// All finalized annotation records, in log order.
    pub fn records(&self) -> Vec<&AnnotationRecord> {
        self.entries
            .values()
            .filter_map(|e| e.record.as_ref())
            .collect()
    }

    /// Number of finalized annotations.
    pub fn finalized_count(&self) -> usize {
        self.records().len()
    }

    // -----------------------------------------------------------------
    // The annotation loop (steps 3.5 - 5.5)
    // -----------------------------------------------------------------

    fn model_profile(&self) -> ModelProfile {
        self.config.model.profile()
    }

    /// Schema context for a unit: the `CREATE TABLE` statements of the tables
    /// the unit's parsed query references (the way the paper uses sqlglot),
    /// falling back to the whole catalog when nothing resolves.
    fn schema_context(&self, unit: &bp_sql::Query) -> Vec<String> {
        let mut context = Vec::new();
        for table in &bp_sql::analyze(unit).tables {
            if let Some(schema) = self.database.catalog().table(table) {
                context.push(schema.to_create_table_sql());
            }
        }
        if context.is_empty() {
            context = self
                .database
                .catalog()
                .tables()
                .take(self.config.top_k_tables)
                .map(|t| t.to_create_table_sql())
                .collect();
        }
        context.truncate(self.config.top_k_tables.max(1));
        context
    }

    /// Run the annotation loop for one log entry, producing (or replacing)
    /// its draft.
    pub fn annotate(&mut self, query_id: usize) -> CoreResult<AnnotationDraft> {
        let item = self
            .log
            .get(query_id)
            .cloned()
            .ok_or(CoreError::UnknownQuery(query_id))?;
        let query = bp_sql::parse_query(&item.sql)?;

        // Step 3.5: optional decomposition of nested queries.
        let decomposition: Decomposition = if self.config.auto_decompose && should_decompose(&query)
        {
            decompose(&query)
        } else {
            decompose_flat(&query)
        };

        let profile = self.model_profile();
        let knowledge_texts = self.knowledge.knowledge_texts();
        let mut units = Vec::with_capacity(decomposition.units.len());
        for unit in &decomposition.units {
            // Step 4: context retrieval (examples + schema + knowledge).
            let embedded = self.knowledge.embed(&unit.sql);
            let examples = self
                .knowledge
                .retrieve_examples(&embedded, self.config.top_k_examples);
            let schema_context = self.schema_context(&unit.query);
            let mut prompt_builder = PromptBuilder::new(unit.sql.clone());
            for ddl in &schema_context {
                prompt_builder = prompt_builder.schema_table(ddl.clone());
            }
            for example in &examples {
                prompt_builder = prompt_builder.example(
                    example.sql.clone(),
                    example.description.clone(),
                    example.similarity,
                );
            }
            for note in self.knowledge.retrieve_knowledge(&embedded, 3) {
                prompt_builder = prompt_builder.knowledge(note);
            }
            for priority in self.knowledge.priorities() {
                prompt_builder = prompt_builder.priority(priority.clone());
            }
            let prompt = prompt_builder.build();

            // Step 5: candidate generation.
            let unresolved = self
                .lexicon
                .unresolved_terms_in(&unit.sql, &knowledge_texts);
            let request = GenerationRequest {
                query: &unit.query,
                prompt: &prompt,
                unresolved_domain_terms: unresolved,
                seed: self.config.seed ^ bp_llm::sql2nl::stable_hash(&unit.sql),
            };
            let candidates = generate_candidates(&profile, &request);
            units.push(UnitDraft {
                unit_name: unit.name.clone(),
                sql: unit.sql.clone(),
                context_quality: prompt.context_quality(),
                examples_used: prompt.example_count(),
                candidates,
            });
        }

        // Step 5.5: recomposition into whole-query candidates.
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
            let merged = bp_sql::recompose(&decomposition, &descriptions)
                .map_err(|e| CoreError::Invalid(e.to_string()))?;
            candidates.push(merged);
        }

        let regeneration_count = self
            .entries
            .get(&query_id)
            .and_then(|e| e.draft.as_ref())
            .map(|d| d.regeneration_count + 1)
            .unwrap_or(0);
        let draft = AnnotationDraft {
            query_id,
            sql: item.sql.clone(),
            was_decomposed: decomposition.was_decomposed,
            decomposition,
            units,
            candidates,
            regeneration_count,
        };
        let entry = self
            .entries
            .get_mut(&query_id)
            .ok_or(CoreError::UnknownQuery(query_id))?;
        entry.draft = Some(draft.clone());
        entry.status = AnnotationStatus::Drafted;
        Ok(draft)
    }

    // -----------------------------------------------------------------
    // Feedback and finalization (steps 6 - 7)
    // -----------------------------------------------------------------

    /// Apply a feedback action to a drafted entry.
    ///
    /// Knowledge and priority injections affect the *project*, so subsequent
    /// calls to [`Project::annotate`] — for this or any other query — benefit
    /// from them (the paper's accumulating feedback loop).
    pub fn apply_feedback(&mut self, query_id: usize, action: FeedbackAction) -> CoreResult<()> {
        // Knowledge/priority feedback mutates the knowledge base and does not
        // need a draft.
        match &action {
            FeedbackAction::AddKnowledge { topic, note } => {
                self.knowledge.add_knowledge(topic.clone(), note.clone());
            }
            FeedbackAction::AddPriority(priority) => {
                self.knowledge.add_priority(priority.clone());
            }
            _ => {}
        }
        let entry = self
            .entries
            .get_mut(&query_id)
            .ok_or(CoreError::UnknownQuery(query_id))?;
        entry.feedback_actions += 1;
        match action {
            FeedbackAction::SelectCandidate(index) => {
                let draft = entry.draft.as_ref().ok_or(CoreError::NoDraft(query_id))?;
                let text = draft
                    .candidates
                    .get(index)
                    .cloned()
                    .ok_or(CoreError::UnknownCandidate(index))?;
                entry.pending_description = Some(text);
                entry.human_edited = false;
                entry.status = AnnotationStatus::InReview;
            }
            FeedbackAction::Rank(order) => {
                let draft = entry.draft.as_ref().ok_or(CoreError::NoDraft(query_id))?;
                let best = *order.first().ok_or(CoreError::Invalid(
                    "ranking must contain at least one candidate index".into(),
                ))?;
                let text = draft
                    .candidates
                    .get(best)
                    .cloned()
                    .ok_or(CoreError::UnknownCandidate(best))?;
                entry.pending_description = Some(text);
                entry.human_edited = false;
                entry.status = AnnotationStatus::InReview;
            }
            FeedbackAction::Edit(text) => {
                if entry.draft.is_none() {
                    return Err(CoreError::NoDraft(query_id));
                }
                entry.pending_description = Some(text);
                entry.human_edited = true;
                entry.status = AnnotationStatus::InReview;
            }
            FeedbackAction::Discard => {
                entry.draft = None;
                entry.pending_description = None;
                entry.status = AnnotationStatus::Discarded;
            }
            FeedbackAction::AddKnowledge { .. } | FeedbackAction::AddPriority(_) => {}
        }
        Ok(())
    }

    /// Finalize the annotation for an entry: the pending description (from
    /// `SelectCandidate`, `Rank`, or `Edit`) becomes the accepted annotation,
    /// is recorded for export, and is added to the knowledge base so future
    /// retrievals can use it.
    pub fn finalize(&mut self, query_id: usize) -> CoreResult<AnnotationRecord> {
        let model = self.config.model.name().to_string();
        let entry = self
            .entries
            .get_mut(&query_id)
            .ok_or(CoreError::UnknownQuery(query_id))?;
        let description = entry
            .pending_description
            .clone()
            .ok_or(CoreError::NotFinalized(query_id))?;
        let sql = self
            .log
            .get(query_id)
            .map(|item| item.sql.clone())
            .ok_or(CoreError::UnknownQuery(query_id))?;
        let record = AnnotationRecord {
            query_id,
            sql: sql.clone(),
            description: description.clone(),
            model,
            feedback_actions: entry.feedback_actions,
            human_edited: entry.human_edited,
        };
        entry.record = Some(record.clone());
        entry.status = AnnotationStatus::Finalized;
        self.knowledge.add_annotation(sql, description);
        Ok(record)
    }
}

/// Build a single-unit "decomposition" for flat queries so the rest of the
/// pipeline can treat every query uniformly.
fn decompose_flat(query: &bp_sql::Query) -> Decomposition {
    // `decompose` already returns a single FINAL unit for flat queries; for
    // nested queries with auto_decompose disabled we still want a single
    // unit, so build it directly.
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

/// A user workspace: the username is a local workspace identifier under
/// which annotation projects are organized (paper §4.1, step 1).
#[derive(Debug, Default)]
pub struct Workspace {
    /// The workspace owner's username.
    pub username: String,
    projects: BTreeMap<String, Project>,
}

impl Workspace {
    /// Create a workspace for a user.
    pub fn new(username: impl Into<String>) -> Self {
        Workspace {
            username: username.into(),
            projects: BTreeMap::new(),
        }
    }

    /// Create a project; returns an error if the name is taken.
    pub fn create_project(
        &mut self,
        name: impl Into<String>,
        config: TaskConfig,
    ) -> CoreResult<&mut Project> {
        let name = name.into();
        if self.projects.contains_key(&name) {
            return Err(CoreError::Invalid(format!(
                "project '{name}' already exists"
            )));
        }
        self.projects
            .insert(name.clone(), Project::new(name.clone(), config));
        Ok(self.projects.get_mut(&name).expect("just inserted"))
    }

    /// Borrow a project by name.
    pub fn project(&self, name: &str) -> CoreResult<&Project> {
        self.projects
            .get(name)
            .ok_or_else(|| CoreError::UnknownProject(name.to_string()))
    }

    /// Mutably borrow a project by name.
    pub fn project_mut(&mut self, name: &str) -> CoreResult<&mut Project> {
        self.projects
            .get_mut(name)
            .ok_or_else(|| CoreError::UnknownProject(name.to_string()))
    }

    /// Names of all projects, sorted.
    pub fn project_names(&self) -> Vec<&str> {
        self.projects.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_llm::ModelKind;

    fn schema() -> &'static str {
        "CREATE TABLE students (id INT PRIMARY KEY, name VARCHAR(40), gpa NUMBER, dept VARCHAR(20));
         CREATE TABLE enrollments (student_id INT REFERENCES students(id), term VARCHAR(20), course VARCHAR(20));"
    }

    fn project_with_log() -> Project {
        let mut project = Project::new("demo", TaskConfig::default().with_seed(5));
        project.ingest_schema(schema()).unwrap();
        let (added, skipped) = project.ingest_log(
            "SELECT name FROM students WHERE dept = 'EECS';
             SELECT dept, COUNT(*) FROM students GROUP BY dept;
             SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments WHERE term = 'J-term');
             this is not sql;",
        );
        assert_eq!(added, 3);
        assert_eq!(skipped, 1);
        project
    }

    #[test]
    fn ingestion_populates_log_and_schema() {
        let project = project_with_log();
        assert_eq!(project.log().len(), 3);
        assert_eq!(project.database().table_count(), 2);
        assert_eq!(project.status(0).unwrap(), AnnotationStatus::Pending);
        assert!(project.status(9).is_err());
    }

    #[test]
    fn annotate_produces_four_candidates() {
        let mut project = project_with_log();
        let draft = project.annotate(0).unwrap();
        assert_eq!(draft.candidates.len(), bp_llm::CANDIDATES_PER_QUERY);
        assert_eq!(draft.units.len(), 1);
        assert!(!draft.was_decomposed);
        assert_eq!(project.status(0).unwrap(), AnnotationStatus::Drafted);
        // Schema context was attached (students is in the catalog).
        assert!(draft.units[0].context_quality > 0.0);
    }

    #[test]
    fn nested_query_is_decomposed_and_recomposed() {
        let mut project = project_with_log();
        let draft = project.annotate(2).unwrap();
        assert!(draft.was_decomposed);
        assert!(draft.units.len() >= 2);
        assert_eq!(draft.units.last().unwrap().unit_name, "FINAL");
        // Recomposed candidates narrate the steps.
        assert!(draft.candidates[0].contains("First, "));
        assert!(draft.candidates[0].contains("Finally, "));
    }

    #[test]
    fn decomposition_can_be_disabled() {
        let mut project = Project::new(
            "flat",
            TaskConfig::default().without_decomposition().with_seed(5),
        );
        project.ingest_schema(schema()).unwrap();
        project.ingest_log(
            "SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments);",
        );
        let draft = project.annotate(0).unwrap();
        assert!(!draft.was_decomposed);
        assert_eq!(draft.units.len(), 1);
    }

    #[test]
    fn feedback_select_and_finalize_grows_knowledge_base() {
        let mut project = project_with_log();
        assert!(project.knowledge().is_cold());
        project.annotate(0).unwrap();
        project
            .apply_feedback(0, FeedbackAction::SelectCandidate(0))
            .unwrap();
        assert_eq!(project.status(0).unwrap(), AnnotationStatus::InReview);
        let record = project.finalize(0).unwrap();
        assert!(!record.human_edited);
        assert_eq!(record.feedback_actions, 1);
        assert_eq!(project.status(0).unwrap(), AnnotationStatus::Finalized);
        assert_eq!(project.finalized_count(), 1);
        assert!(!project.knowledge().is_cold());

        // The next annotation retrieves the stored example as context.
        let draft = project.annotate(1).unwrap();
        assert!(draft.units[0].examples_used >= 1);
    }

    #[test]
    fn edit_feedback_marks_human_edited() {
        let mut project = project_with_log();
        project.annotate(0).unwrap();
        project
            .apply_feedback(0, FeedbackAction::Edit("Names of EECS students.".into()))
            .unwrap();
        let record = project.finalize(0).unwrap();
        assert!(record.human_edited);
        assert_eq!(record.description, "Names of EECS students.");
    }

    #[test]
    fn rank_feedback_uses_top_choice() {
        let mut project = project_with_log();
        let draft = project.annotate(0).unwrap();
        project
            .apply_feedback(0, FeedbackAction::Rank(vec![2, 0, 1, 3]))
            .unwrap();
        let record = project.finalize(0).unwrap();
        assert_eq!(record.description, draft.candidates[2]);
    }

    #[test]
    fn discard_clears_draft() {
        let mut project = project_with_log();
        project.annotate(0).unwrap();
        project.apply_feedback(0, FeedbackAction::Discard).unwrap();
        assert_eq!(project.status(0).unwrap(), AnnotationStatus::Discarded);
        assert!(project.finalize(0).is_err());
    }

    #[test]
    fn knowledge_feedback_improves_later_prompts() {
        let mut project = project_with_log();
        let before = project.annotate(2).unwrap();
        project
            .apply_feedback(
                2,
                FeedbackAction::AddKnowledge {
                    topic: "J-term".into(),
                    note: "The one-month January term at MIT.".into(),
                },
            )
            .unwrap();
        project
            .apply_feedback(
                2,
                FeedbackAction::AddPriority("mention the term filter".into()),
            )
            .unwrap();
        let after = project.annotate(2).unwrap();
        assert!(after.regeneration_count > before.regeneration_count);
        let before_quality: f64 = before.units.iter().map(|u| u.context_quality).sum();
        let after_quality: f64 = after.units.iter().map(|u| u.context_quality).sum();
        assert!(after_quality > before_quality);
    }

    #[test]
    fn feedback_errors() {
        let mut project = project_with_log();
        assert!(matches!(
            project.apply_feedback(0, FeedbackAction::SelectCandidate(0)),
            Err(CoreError::NoDraft(0))
        ));
        project.annotate(0).unwrap();
        assert!(matches!(
            project.apply_feedback(0, FeedbackAction::SelectCandidate(99)),
            Err(CoreError::UnknownCandidate(99))
        ));
        assert!(matches!(
            project.finalize(0),
            Err(CoreError::NotFinalized(0))
        ));
        assert!(matches!(
            project.annotate(42),
            Err(CoreError::UnknownQuery(42))
        ));
    }

    #[test]
    fn benchmark_ingestion() {
        use bp_datasets::{BenchmarkKind, GeneratedBenchmark};
        let corpus = GeneratedBenchmark::generate(BenchmarkKind::Spider, 5, 3);
        let mut project = Project::new("spider", TaskConfig::default());
        project.ingest_benchmark(&corpus);
        assert_eq!(project.log().len(), 5);
        assert!(project.log()[0].gold_question.is_some());
        assert_eq!(
            project.database().table_count(),
            corpus.database.table_count()
        );
    }

    #[test]
    fn workspace_manages_projects() {
        let mut workspace = Workspace::new("fabian");
        workspace
            .create_project("warehouse", TaskConfig::default())
            .unwrap();
        workspace
            .create_project(
                "network-logs",
                TaskConfig::default().with_model(ModelKind::DeepSeek),
            )
            .unwrap();
        assert_eq!(workspace.project_names(), vec!["network-logs", "warehouse"]);
        assert!(workspace
            .create_project("warehouse", TaskConfig::default())
            .is_err());
        assert!(workspace.project("warehouse").is_ok());
        assert!(workspace.project("missing").is_err());
        assert_eq!(
            workspace.project("network-logs").unwrap().config().model,
            ModelKind::DeepSeek
        );
    }

    #[test]
    fn different_models_are_usable() {
        for model in ModelKind::annotation_models() {
            let mut project = Project::new(
                format!("p-{}", model.name()),
                TaskConfig::default().with_model(*model).with_seed(9),
            );
            project.ingest_schema(schema()).unwrap();
            project.ingest_log("SELECT COUNT(*) FROM students;");
            let draft = project.annotate(0).unwrap();
            assert_eq!(draft.candidates.len(), 4);
        }
    }
}
