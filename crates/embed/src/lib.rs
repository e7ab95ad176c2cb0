//! # bp-embed — deterministic embeddings and vector retrieval for BenchPress
//!
//! The original system retrieves semantically similar SQL queries, prior
//! annotations, and relevant schema tables with Sentence-BERT dense vectors
//! (paper §4.2, "Retrieval-Augmented Generation"). This crate substitutes a
//! deterministic hashed n-gram embedder plus an in-memory vector store with
//! exact kNN search. See the README ("Retrieval kernel") for why the
//! substitution preserves the behaviour the evaluation depends on, and for
//! the store's lane layout and bit-identity contract.
//!
//! ## Quick example
//!
//! ```
//! use bp_embed::{VectorStore, DocumentKind};
//!
//! let mut store = VectorStore::new();
//! store.add(
//!     "SELECT COUNT(*) FROM students",
//!     Some("How many students are there?".into()),
//!     DocumentKind::Annotation,
//! );
//! store.add("SELECT * FROM buildings", None, DocumentKind::SqlQuery);
//!
//! let hits = store.search("count the students", 1, None);
//! assert_eq!(hits[0].id, 0);
//! ```

#![warn(missing_docs)]

pub mod embedder;
pub mod store;
pub mod tokenizer;

pub use embedder::{Embedder, EmbedderConfig, Embedding, DEFAULT_DIM};
pub use store::{Document, DocumentKind, SearchHit, VectorStore};
pub use tokenizer::{bigrams, char_trigrams, tokenize};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Embeddings are always unit-length (or zero for empty feature sets).
        #[test]
        fn embeddings_are_normalized(text in "[ -~]{0,200}") {
            let embedder = Embedder::new();
            let e = embedder.embed(&text);
            let norm = e.norm();
            prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-4);
        }

        /// Cosine similarity is symmetric and bounded.
        #[test]
        fn cosine_is_symmetric_and_bounded(a in "[a-zA-Z0-9_ ]{0,80}", b in "[a-zA-Z0-9_ ]{0,80}") {
            let embedder = Embedder::new();
            let sab = embedder.similarity(&a, &b);
            let sba = embedder.similarity(&b, &a);
            prop_assert!((sab - sba).abs() < 1e-5);
            prop_assert!((-1.0001..=1.0001).contains(&sab));
        }

        /// Self-similarity of non-empty texts is 1.
        #[test]
        fn self_similarity_is_one(text in "[a-zA-Z][a-zA-Z0-9_ ]{0,80}") {
            let embedder = Embedder::new();
            let s = embedder.similarity(&text, &text);
            prop_assert!((s - 1.0).abs() < 1e-4);
        }

        /// Search never returns more than k hits and scores are sorted.
        #[test]
        fn search_respects_k_and_ordering(
            docs in proptest::collection::vec("[a-z ]{1,40}", 1..20),
            query in "[a-z ]{1,40}",
            k in 1usize..10
        ) {
            let mut store = VectorStore::new();
            for d in &docs {
                store.add(d.clone(), None, DocumentKind::SqlQuery);
            }
            let hits = store.search(&query, k, None);
            prop_assert!(hits.len() <= k);
            prop_assert!(hits.len() <= docs.len());
            for pair in hits.windows(2) {
                prop_assert!(pair[0].score >= pair[1].score);
            }
        }
    }
}
