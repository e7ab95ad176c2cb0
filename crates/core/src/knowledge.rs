//! The project knowledge base: prior annotations, injected domain knowledge,
//! and annotator priorities.
//!
//! This is the state that makes the annotation loop improve over time
//! (paper §4.2 "Human-in-the-loop Feedback" and §6 "Privacy and
//! Confidentiality Constraints"): every accepted annotation becomes a
//! retrievable example for later queries, and every piece of domain
//! knowledge captured once is reused automatically in future prompts.

use bp_embed::{DocumentKind, Embedding, VectorStore};
use bp_llm::FewShotExample;
use serde::{Deserialize, Serialize};

/// A domain-knowledge note captured through the feedback loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnowledgeNote {
    /// The term or topic the note explains (e.g. "J-term").
    pub topic: String,
    /// The explanation itself.
    pub note: String,
}

/// The per-project knowledge base.
#[derive(Debug, Default)]
pub struct KnowledgeBase {
    store: VectorStore,
    annotations: usize,
    knowledge: Vec<KnowledgeNote>,
    priorities: Vec<String>,
}

impl KnowledgeBase {
    /// Create an empty knowledge base (the cold-start condition of the user
    /// study: no prior annotations exist).
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// Number of stored annotation examples.
    pub fn annotation_count(&self) -> usize {
        self.annotations
    }

    /// Whether the knowledge base has no examples yet (cold start).
    pub fn is_cold(&self) -> bool {
        self.annotations == 0
    }

    /// Record an accepted (SQL, NL) annotation pair so it can be retrieved
    /// as a few-shot example for subsequent queries.
    pub fn add_annotation(&mut self, sql: impl Into<String>, description: impl Into<String>) {
        let sql = sql.into();
        let description = description.into();
        self.store
            .add(sql, Some(description), DocumentKind::Annotation);
        self.annotations += 1;
    }

    /// Inject a domain-knowledge note (feedback-loop step 6).
    pub fn add_knowledge(&mut self, topic: impl Into<String>, note: impl Into<String>) {
        let topic = topic.into();
        let note = note.into();
        self.store
            .add(format!("{topic}: {note}"), None, DocumentKind::Knowledge);
        self.knowledge.push(KnowledgeNote { topic, note });
    }

    /// Add an annotator priority ("emphasize the filtering logic").
    pub fn add_priority(&mut self, priority: impl Into<String>) {
        self.priorities.push(priority.into());
    }

    /// All knowledge notes, oldest first.
    pub fn knowledge_notes(&self) -> &[KnowledgeNote] {
        &self.knowledge
    }

    /// Knowledge notes rendered as the strings embedded in prompts.
    pub fn knowledge_texts(&self) -> Vec<String> {
        self.knowledge
            .iter()
            .map(|k| format!("{}: {}", k.topic, k.note))
            .collect()
    }

    /// All priorities, oldest first.
    pub fn priorities(&self) -> &[String] {
        &self.priorities
    }

    /// Embed a SQL unit for [`KnowledgeBase::retrieve_examples`] and
    /// [`KnowledgeBase::retrieve_knowledge`], so both retrievals share one
    /// embedding.
    pub fn embed(&self, sql: &str) -> Embedding {
        self.store.embedder().embed(sql)
    }

    /// Retrieve the `k` most similar prior annotations for an embedded SQL
    /// unit.
    pub fn retrieve_examples(&self, unit: &Embedding, k: usize) -> Vec<FewShotExample> {
        self.store
            .search_embedded(unit, k, Some(DocumentKind::Annotation))
            .into_iter()
            .filter_map(|hit| {
                let document = self.store.get(hit.id)?;
                Some(FewShotExample {
                    sql: document.text.clone(),
                    description: document.payload.clone().unwrap_or_default(),
                    similarity: hit.score,
                })
            })
            .collect()
    }

    /// Retrieve the knowledge notes most relevant to an embedded SQL unit
    /// (used when a project has accumulated many notes and the prompt
    /// should include only the pertinent ones).
    pub fn retrieve_knowledge(&self, unit: &Embedding, k: usize) -> Vec<String> {
        self.store
            .search_embedded(unit, k, Some(DocumentKind::Knowledge))
            .into_iter()
            .filter_map(|hit| self.store.get(hit.id).map(|d| d.text.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_then_growth() {
        let mut kb = KnowledgeBase::new();
        assert!(kb.is_cold());
        assert!(kb
            .retrieve_examples(&kb.embed("SELECT COUNT(*) FROM students"), 3)
            .is_empty());
        kb.add_annotation(
            "SELECT COUNT(*) FROM students",
            "How many students are there?",
        );
        kb.add_annotation("SELECT name FROM buildings", "List the building names");
        assert!(!kb.is_cold());
        assert_eq!(kb.annotation_count(), 2);
        let unit = kb.embed("SELECT COUNT(DISTINCT id) FROM students");
        let examples = kb.retrieve_examples(&unit, 2);
        assert_eq!(examples.len(), 2);
        assert!(examples[0].sql.contains("students"));
        assert!(examples[0].similarity >= examples[1].similarity);
    }

    #[test]
    fn knowledge_and_priorities_accumulate() {
        let mut kb = KnowledgeBase::new();
        kb.add_knowledge("J-term", "The one-month January term");
        kb.add_knowledge("Moira", "MIT's mailing list system");
        kb.add_priority("describe the filtering logic");
        assert_eq!(kb.knowledge_notes().len(), 2);
        assert_eq!(kb.priorities().len(), 1);
        assert_eq!(
            kb.knowledge_texts()[0],
            "J-term: The one-month January term"
        );
        let relevant = kb.retrieve_knowledge(&kb.embed("SELECT * FROM MOIRA_LIST"), 1);
        assert_eq!(relevant.len(), 1);
        assert!(relevant[0].contains("Moira"));
    }

    #[test]
    fn retrieval_is_kind_scoped() {
        let mut kb = KnowledgeBase::new();
        kb.add_knowledge("students", "students are people enrolled at MIT");
        // Knowledge notes must not come back as few-shot examples.
        let unit = kb.embed("SELECT * FROM students");
        assert!(kb.retrieve_examples(&unit, 3).is_empty());
    }
}
