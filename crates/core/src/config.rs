//! Project setup and task configuration (paper §4.1, steps 1 and 3).

use bp_llm::ModelKind;
use serde::{Deserialize, Serialize};

/// The annotation direction. The current system, like the paper's, supports
/// SQL-to-NL only; the enum exists so the planned text-to-SQL validation
/// direction has a place to land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AnnotationDirection {
    /// Annotate SQL queries with natural-language descriptions.
    #[default]
    SqlToNl,
}

/// A client-held credential. The paper stresses that the API key never
/// leaves the user's browser storage; correspondingly this type is kept out
/// of any serialized project state — `serde` is deliberately not derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    key: String,
}

impl Credential {
    /// Wrap an API key.
    pub fn new(key: impl Into<String>) -> Self {
        Credential { key: key.into() }
    }

    /// Whether a non-empty key is present.
    pub fn is_configured(&self) -> bool {
        !self.key.is_empty()
    }

    /// A redacted form safe to show in logs/UI (`sk-…1234`). Counts
    /// characters, not bytes, so a non-ASCII key neither panics nor shows
    /// more of itself than an ASCII one.
    pub fn redacted(&self) -> String {
        let len = self.key.chars().count();
        if len <= 4 {
            "****".to_string()
        } else {
            format!("…{}", self.key.chars().skip(len - 4).collect::<String>())
        }
    }
}

/// Task configuration for a project (paper §4.1, step 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskConfig {
    /// Annotation direction (SQL-to-NL only today).
    pub direction: AnnotationDirection,
    /// Which model generates candidates.
    pub model: ModelKind,
    /// How many retrieved examples are suggested to the user / included in
    /// the prompt (the paper's "top-k retrieved examples").
    pub top_k_examples: usize,
    /// How many relevant schema tables are attached to the prompt.
    pub top_k_tables: usize,
    /// Whether nested queries are automatically decomposed into CTE units
    /// (paper step 3.5).
    pub auto_decompose: bool,
    /// Seed that makes candidate generation reproducible.
    pub seed: u64,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            direction: AnnotationDirection::SqlToNl,
            model: ModelKind::Gpt4o,
            top_k_examples: 3,
            top_k_tables: 4,
            auto_decompose: true,
            seed: 0xB5,
        }
    }
}

impl TaskConfig {
    /// Use a different model.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Use a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disable automatic decomposition of nested queries.
    pub fn without_decomposition(mut self) -> Self {
        self.auto_decompose = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_setup() {
        let config = TaskConfig::default();
        assert_eq!(config.direction, AnnotationDirection::SqlToNl);
        assert!(config.auto_decompose);
        assert!(config.top_k_examples >= 1);
        assert!(ModelKind::annotation_models().contains(&config.model));
    }

    #[test]
    fn builders_apply() {
        let config = TaskConfig::default()
            .with_model(ModelKind::DeepSeek)
            .with_seed(7)
            .without_decomposition();
        assert_eq!(config.model, ModelKind::DeepSeek);
        assert_eq!(config.seed, 7);
        assert!(!config.auto_decompose);
    }

    #[test]
    fn credential_redaction_never_reveals_key() {
        let credential = Credential::new("sk-very-secret-key-1234");
        assert!(credential.is_configured());
        assert_eq!(credential.redacted(), "…1234");
        assert!(!credential.redacted().contains("secret"));
        let short = Credential::new("abc");
        assert_eq!(short.redacted(), "****");
        // Multi-byte keys redact by character: no panic on a char
        // boundary, and a four-character key still shows nothing.
        assert_eq!(Credential::new("sk-€€").redacted(), "…k-€€");
        assert_eq!(Credential::new("€€€€").redacted(), "****");
        assert!(!Credential::new("").is_configured());
    }
}
