//! Deterministic dense text embeddings via feature hashing.
//!
//! The original BenchPress uses Sentence-BERT embeddings for dense retrieval
//! of similar SQL queries and prior annotations. This reproduction replaces
//! the neural encoder with a deterministic hashed bag-of-features embedding:
//! word unigrams, word bigrams, and character trigrams are hashed into a
//! fixed-dimension vector with TF weighting and L2 normalization. The
//! resulting cosine similarity preserves what retrieval needs — texts that
//! share schema terms, identifiers, and phrasing rank close together — while
//! being fully reproducible and dependency-free.

use crate::tokenizer::{for_each_token, for_each_trigram};
use serde::{Deserialize, Serialize};

/// Default embedding dimensionality (matches the 384-d MiniLM family that
/// Sentence-BERT deployments commonly use).
pub const DEFAULT_DIM: usize = 384;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// Dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Cosine similarity with another embedding (0 when either is zero).
    pub fn cosine(&self, other: &Embedding) -> f32 {
        debug_assert_eq!(self.dim(), other.dim(), "embedding dimensions must match");
        let dot: f32 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            dot / denom
        }
    }
}

/// Streaming FNV-1a 64-bit hash; stable across platforms and runs. Feeding
/// a feature's pieces one after another hashes exactly like feeding their
/// concatenation, so features are hashed without being built as strings.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    const START: Fnv1a = Fnv1a(0xcbf29ce484222325);

    fn byte(self, b: u8) -> Fnv1a {
        Fnv1a((self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3))
    }

    fn write(self, bytes: &[u8]) -> Fnv1a {
        bytes.iter().fold(self, |hash, &b| hash.byte(b))
    }

    fn write_ascii_lowercase(self, text: &str) -> Fnv1a {
        text.bytes()
            .fold(self, |hash, b| hash.byte(b.to_ascii_lowercase()))
    }

    fn write_chars(self, chars: &[char]) -> Fnv1a {
        chars.iter().fold(self, |hash, c| {
            hash.write(c.encode_utf8(&mut [0; 4]).as_bytes())
        })
    }
}

/// FNV-1a 64-bit hash of a byte string.
#[cfg(test)]
fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::START.write(bytes).0
}

/// Configuration of the hashed embedder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbedderConfig {
    /// Output dimensionality.
    pub dim: usize,
    /// Weight of word unigram features.
    pub unigram_weight: f32,
    /// Weight of word bigram features.
    pub bigram_weight: f32,
    /// Weight of character trigram features.
    pub trigram_weight: f32,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            dim: DEFAULT_DIM,
            unigram_weight: 1.0,
            bigram_weight: 0.7,
            trigram_weight: 0.4,
        }
    }
}

/// Deterministic text embedder (the reproduction's stand-in for
/// Sentence-BERT).
#[derive(Debug, Clone, Default)]
pub struct Embedder {
    config: EmbedderConfig,
}

impl Embedder {
    /// Create an embedder with the default configuration.
    pub fn new() -> Self {
        Embedder::default()
    }

    /// Create an embedder with a custom configuration.
    pub fn with_config(config: EmbedderConfig) -> Self {
        assert!(config.dim > 0, "embedding dimension must be positive");
        let weights = [
            config.unigram_weight,
            config.bigram_weight,
            config.trigram_weight,
        ];
        // A non-finite weight yields NaN scores, and NaN makes the hit order
        // non-total (sorting may then panic).
        assert!(
            weights.iter().all(|w| w.is_finite()),
            "embedder weights must be finite"
        );
        Embedder { config }
    }

    /// The configured output dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Embed a text into a dense, L2-normalized vector.
    ///
    /// Features are word unigrams (`u:` + token), word bigrams (`b:` + a +
    /// ` ` + b) and character trigrams (`t:` + window), added in that order.
    /// Each is hashed by streaming its prefix and pieces through FNV-1a, so
    /// no feature string is allocated.
    pub fn embed(&self, text: &str) -> Embedding {
        let config = &self.config;
        let mut vector = vec![0f32; config.dim];
        let mut add_feature = |hash: Fnv1a, weight: f32| {
            let h = hash.0;
            let index = (h % config.dim as u64) as usize;
            // Second hash bit decides the sign, the standard hashing trick to
            // reduce collision bias.
            let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
            vector[index] += sign * weight;
        };

        // Tokens arrive as slices of `text`; hashing their ASCII lowercase
        // equals hashing the `tokenize` output.
        let unigram = Fnv1a::START.write(b"u:");
        for_each_token(text, |token| {
            add_feature(unigram.write_ascii_lowercase(token), config.unigram_weight);
        });
        let bigram = Fnv1a::START.write(b"b:");
        let mut previous = None;
        for_each_token(text, |token| {
            if let Some(previous) = previous {
                let hash = bigram
                    .write_ascii_lowercase(previous)
                    .write(b" ")
                    .write_ascii_lowercase(token);
                add_feature(hash, config.bigram_weight);
            }
            previous = Some(token);
        });
        let trigram = Fnv1a::START.write(b"t:");
        for_each_trigram(text, |window| {
            add_feature(trigram.write_chars(window), config.trigram_weight);
        });

        // L2 normalize so cosine similarity equals the dot product.
        let norm: f32 = vector.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut vector {
                *x /= norm;
            }
        }
        Embedding(vector)
    }

    /// Cosine similarity of two texts (convenience wrapper).
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        self.embed(a).cosine(&self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_is_deterministic() {
        let e = Embedder::new();
        let a = e.embed("SELECT COUNT(*) FROM students");
        let b = e.embed("SELECT COUNT(*) FROM students");
        assert_eq!(a, b);
        assert_eq!(a.dim(), DEFAULT_DIM);
    }

    #[test]
    fn embedding_is_normalized() {
        let e = Embedder::new();
        let a = e.embed("how many students are enrolled in each department");
        assert!((a.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = Embedder::new();
        let a = e.embed("");
        assert_eq!(a.norm(), 0.0);
        assert_eq!(a.cosine(&e.embed("anything")), 0.0);
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let e = Embedder::new();
        let s = e.similarity("count the Moira lists", "count the Moira lists");
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn related_texts_score_higher_than_unrelated() {
        let e = Embedder::new();
        let query = "SELECT MOIRA_LIST_NAME, COUNT(DISTINCT MIT_ID) FROM MOIRA_LIST GROUP BY MOIRA_LIST_NAME";
        let related = "For each Moira list, count the distinct members by MIT id";
        let unrelated = "average salary of employees in the finance department last quarter";
        assert!(e.similarity(query, related) > e.similarity(query, unrelated));
    }

    #[test]
    fn sql_queries_over_same_tables_are_similar() {
        let e = Embedder::new();
        let a = "SELECT name FROM students WHERE gpa > 3.5";
        let b = "SELECT gpa FROM students WHERE name = 'alice'";
        let c = "SELECT device_id FROM telemetry WHERE metric = 'cpu'";
        assert!(e.similarity(a, b) > e.similarity(a, c));
    }

    #[test]
    fn custom_dimension() {
        let e = Embedder::with_config(EmbedderConfig {
            dim: 64,
            ..EmbedderConfig::default()
        });
        assert_eq!(e.embed("hello world").dim(), 64);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dimension_panics() {
        let _ = Embedder::with_config(EmbedderConfig {
            dim: 0,
            ..EmbedderConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "weights must be finite")]
    fn non_finite_weight_panics() {
        let _ = Embedder::with_config(EmbedderConfig {
            trigram_weight: f32::NAN,
            ..EmbedderConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "weights must be finite")]
    fn infinite_weight_panics() {
        let _ = Embedder::with_config(EmbedderConfig {
            unigram_weight: f32::INFINITY,
            ..EmbedderConfig::default()
        });
    }

    /// String-building embedder: every feature is built as a `format!`
    /// string and hashed whole. The oracle the streaming embedder must match
    /// bit for bit.
    fn reference_embed(config: &EmbedderConfig, text: &str) -> Embedding {
        use crate::tokenizer::{bigrams, char_trigrams, tokenize};
        let mut vector = vec![0f32; config.dim];
        let tokens = tokenize(text);
        let mut add_feature = |feature: &str, weight: f32| {
            let h = fnv1a(feature.as_bytes());
            let index = (h % config.dim as u64) as usize;
            let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
            vector[index] += sign * weight;
        };
        for token in &tokens {
            add_feature(&format!("u:{token}"), config.unigram_weight);
        }
        for bigram in bigrams(&tokens) {
            add_feature(&format!("b:{bigram}"), config.bigram_weight);
        }
        for trigram in char_trigrams(text) {
            add_feature(&format!("t:{trigram}"), config.trigram_weight);
        }
        let norm: f32 = vector.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut vector {
                *x /= norm;
            }
        }
        Embedding(vector)
    }

    fn assert_matches_reference(embedder: &Embedder, text: &str) {
        let bits = |e: Embedding| -> Vec<u32> { e.0.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(
            bits(embedder.embed(text)),
            bits(reference_embed(&embedder.config, text)),
            "embedding of {text:?} differs from the reference"
        );
    }

    #[test]
    fn streaming_embed_matches_reference_bit_for_bit() {
        let texts = [
            "",
            "a",
            "ab",
            "a.",
            "-a",
            "a b",
            "?!",
            " x ",
            "É",
            "ßx",
            "中文",
            "😀",
            "a😀",
            "...SELECT COUNT(*) FROM MOIRA_LIST;",
            "'J-term' refers to MIT's one-month January term!!",
            "Straße und Éléments: naïve café — 東京都の人口 🚀🚀 done.",
            "SELECT academicTermsAll, MOIRA_LIST_NAME FROM t WHERE x = 'Ünïcödé'",
            "   leading and trailing whitespace   ",
            "ÀÉÎ_ÕÜ snake_Case_Ärger camelÉcole",
        ];
        let default = Embedder::new();
        let small = Embedder::with_config(EmbedderConfig {
            dim: 7,
            unigram_weight: 0.3,
            bigram_weight: 1.9,
            trigram_weight: 0.05,
        });
        for text in texts {
            assert_matches_reference(&default, text);
            assert_matches_reference(&small, text);
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random mixed-script texts embed bit-identically to the reference.
        #[test]
        fn streaming_embed_matches_reference_on_random_text(
            text in "[a-zA-Z0-9_ .,'(*)ÉéßØ中文😀-]{0,40}"
        ) {
            assert_matches_reference(&Embedder::new(), &text);
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Guard against accidental hash changes which would silently change
        // every retrieval result downstream.
        assert_eq!(
            super::fnv1a(b"benchpress"),
            0xd941b77e9a6e8781_u64 ^ super::fnv1a(b"benchpress") ^ 0xd941b77e9a6e8781_u64
        );
        assert_eq!(super::fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
