//! Vector store with exact k-nearest-neighbour search.
//!
//! BenchPress keeps all uploaded SQL logs, schemas and previously accepted
//! annotations on the server so retrieval-augmented generation has global
//! access to them (paper §4.1, "Dataset Ingestion"). The [`VectorStore`]
//! plays that role: documents are embedded once on insert and queried with
//! cosine similarity.
//!
//! ## Scoring kernel
//!
//! Embeddings live in one `KindLanes` per [`DocumentKind`], so a
//! kind-filtered search only touches documents of that kind. Within a kind,
//! vectors are stored in blocks of `LANES` (8) documents laid out
//! dimension-major (`block[d * LANES + lane]`), and each document's L2 norm
//! is cached at insert. A search embeds the query and takes its norm once,
//! then scores a whole block per pass with one accumulator per lane.
//!
//! Every score is bit-identical to [`Embedding::cosine`]: each lane
//! accumulator starts at `-0.0` (the start value of `f32: Sum`) and adds
//! `doc[d] * query[d]` in dimension order, which is the exact sequence of
//! f32 operations `cosine` performs for that document (no fused multiply-add,
//! no reassociation across dimensions). The denominator is the same
//! `doc_norm * query_norm` product, with `0.0` returned when it is zero.
//! Only the top `k` hits are selected and sorted, under the total order
//! (score descending, id ascending), so hit order does not depend on where
//! a document sits in its lane.

use crate::embedder::{Embedder, Embedding};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Documents scored together per pass of the kernel.
const LANES: usize = 8;

/// Kinds of documents BenchPress indexes for retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DocumentKind {
    /// A SQL query from an ingested log.
    SqlQuery,
    /// A (SQL, NL) annotation pair produced by a previous annotation round.
    Annotation,
    /// A table schema (rendered as `CREATE TABLE ...`).
    Schema,
    /// Domain knowledge injected by annotators through the feedback loop.
    Knowledge,
}

impl DocumentKind {
    /// Position of this kind's lanes in `VectorStore::lanes`.
    fn slot(self) -> usize {
        match self {
            DocumentKind::SqlQuery => 0,
            DocumentKind::Annotation => 1,
            DocumentKind::Schema => 2,
            DocumentKind::Knowledge => 3,
        }
    }
}

/// A document stored for retrieval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Store-assigned identifier.
    pub id: u64,
    /// The indexed text (what the embedding is computed from).
    pub text: String,
    /// Optional companion payload (e.g. the NL side of an annotation pair).
    pub payload: Option<String>,
    /// Document kind, used for filtered retrieval.
    pub kind: DocumentKind,
}

/// A search hit: document id plus cosine similarity score.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Identifier of the matching document.
    pub id: u64,
    /// Cosine similarity to the query.
    pub score: f32,
}

/// Hit order: score descending, then id ascending.
fn hit_order(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then(a.id.cmp(&b.id))
}

/// The embeddings of one document kind, blocked for the scoring kernel.
///
/// Document `i` sits in block `i / LANES`, lane `i % LANES`; its component
/// `d` is `blocks[(i / LANES) * dim * LANES + d * LANES + i % LANES]`. The
/// unused lanes of the last block hold zeros.
#[derive(Debug, Default)]
struct KindLanes {
    ids: Vec<u64>,
    norms: Vec<f32>,
    blocks: Vec<f32>,
}

impl KindLanes {
    fn offset(dim: usize, i: usize) -> usize {
        (i / LANES) * dim * LANES + i % LANES
    }

    fn push(&mut self, id: u64, embedding: &Embedding) {
        let dim = embedding.dim();
        let i = self.ids.len();
        if i.is_multiple_of(LANES) {
            self.blocks.resize(self.blocks.len() + dim * LANES, 0.0);
        }
        let base = Self::offset(dim, i);
        for (d, &x) in embedding.0.iter().enumerate() {
            self.blocks[base + d * LANES] = x;
        }
        self.ids.push(id);
        self.norms.push(embedding.norm());
    }

    /// Swap-remove document `id`; returns whether it was present.
    fn remove(&mut self, dim: usize, id: u64) -> bool {
        let Some(i) = self.ids.iter().position(|&d| d == id) else {
            return false;
        };
        let last = self.ids.len() - 1;
        let (to, from) = (Self::offset(dim, i), Self::offset(dim, last));
        for d in 0..dim {
            self.blocks[to + d * LANES] = self.blocks[from + d * LANES];
            self.blocks[from + d * LANES] = 0.0;
        }
        self.ids.swap_remove(i);
        self.norms.swap_remove(i);
        if last.is_multiple_of(LANES) {
            self.blocks.truncate(self.blocks.len() - dim * LANES);
        }
        true
    }

    /// Append the cosine score of every document to `hits`.
    fn score_into(&self, query: &Embedding, query_norm: f32, hits: &mut Vec<SearchHit>) {
        let dim = query.dim();
        let docs = self.ids.chunks(LANES).zip(self.norms.chunks(LANES));
        for (block, (ids, norms)) in self.blocks.chunks_exact(dim * LANES).zip(docs) {
            let mut dots = [-0.0f32; LANES];
            for (row, &q) in block.chunks_exact(LANES).zip(&query.0) {
                for (dot, &x) in dots.iter_mut().zip(row) {
                    *dot += x * q;
                }
            }
            for ((&id, &norm), &dot) in ids.iter().zip(norms).zip(&dots) {
                let denom = norm * query_norm;
                let score = if denom == 0.0 { 0.0 } else { dot / denom };
                hits.push(SearchHit { id, score });
            }
        }
    }
}

/// In-memory vector store over [`Document`]s.
#[derive(Debug, Default)]
pub struct VectorStore {
    embedder: Embedder,
    documents: BTreeMap<u64, Document>,
    /// One lane set per [`DocumentKind`], indexed by `DocumentKind::slot`.
    lanes: [KindLanes; 4],
    next_id: u64,
}

impl VectorStore {
    /// Create an empty store with the default embedder.
    pub fn new() -> Self {
        VectorStore::default()
    }

    /// Create a store with a custom embedder.
    pub fn with_embedder(embedder: Embedder) -> Self {
        VectorStore {
            embedder,
            ..VectorStore::default()
        }
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Borrow the embedder (so callers can embed queries consistently).
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// Add a document; returns its id.
    pub fn add(
        &mut self,
        text: impl Into<String>,
        payload: Option<String>,
        kind: DocumentKind,
    ) -> u64 {
        let text = text.into();
        let id = self.next_id;
        self.next_id += 1;
        let embedding = self.embedder.embed(&text);
        self.lanes[kind.slot()].push(id, &embedding);
        self.documents.insert(
            id,
            Document {
                id,
                text,
                payload,
                kind,
            },
        );
        id
    }

    /// Fetch a document by id.
    pub fn get(&self, id: u64) -> Option<&Document> {
        self.documents.get(&id)
    }

    /// Remove a document by id; returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(document) = self.documents.remove(&id) else {
            return false;
        };
        self.lanes[document.kind.slot()].remove(self.embedder.dim(), id)
    }

    /// Iterate over all documents.
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.documents.values()
    }

    /// Exact top-k search by cosine similarity, optionally restricted to a
    /// document kind.
    pub fn search(&self, query: &str, k: usize, kind: Option<DocumentKind>) -> Vec<SearchHit> {
        if k == 0 {
            return Vec::new();
        }
        let query = self.embedder.embed(query);
        let query_norm = query.norm();
        let lanes = match kind {
            Some(kind) => std::slice::from_ref(&self.lanes[kind.slot()]),
            None => &self.lanes[..],
        };
        let mut hits = Vec::with_capacity(lanes.iter().map(|l| l.ids.len()).sum());
        for lane in lanes {
            lane.score_into(&query, query_norm, &mut hits);
        }
        if k < hits.len() {
            hits.select_nth_unstable_by(k - 1, hit_order);
            hits.truncate(k);
        }
        hits.sort_unstable_by(hit_order);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_store() -> VectorStore {
        let mut store = VectorStore::new();
        store.add(
            "SELECT COUNT(DISTINCT MIT_ID) FROM MOIRA_MEMBER GROUP BY MOIRA_LIST_KEY",
            Some("Count the distinct members of each Moira list".into()),
            DocumentKind::Annotation,
        );
        store.add(
            "SELECT name, gpa FROM students WHERE dept = 'EECS'",
            Some("List EECS students with their GPA".into()),
            DocumentKind::Annotation,
        );
        store.add(
            "CREATE TABLE MOIRA_LIST (MOIRA_LIST_KEY INT, MOIRA_LIST_NAME VARCHAR, DEPT VARCHAR)",
            None,
            DocumentKind::Schema,
        );
        store.add(
            "CREATE TABLE FAC_BUILDING (BUILDING_KEY INT, BUILDING_NAME VARCHAR, STREET_TYPE VARCHAR)",
            None,
            DocumentKind::Schema,
        );
        store.add(
            "J-term refers to MIT's one-month January term",
            None,
            DocumentKind::Knowledge,
        );
        store
    }

    #[test]
    fn add_and_get() {
        let store = seeded_store();
        assert_eq!(store.len(), 5);
        let doc = store.get(0).unwrap();
        assert!(doc.text.contains("MOIRA_MEMBER"));
        assert_eq!(doc.kind, DocumentKind::Annotation);
        assert!(store.get(99).is_none());
    }

    #[test]
    fn search_ranks_relevant_documents_first() {
        let store = seeded_store();
        let hits = store.search("count members of the Moira lists", 3, None);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 0, "Moira annotation should rank first");
        assert!(hits[0].score > hits[2].score);
    }

    #[test]
    fn kind_filter_restricts_results() {
        let store = seeded_store();
        let hits = store.search("MOIRA_LIST", 10, Some(DocumentKind::Schema));
        assert!(!hits.is_empty());
        for hit in &hits {
            assert_eq!(store.get(hit.id).unwrap().kind, DocumentKind::Schema);
        }
    }

    #[test]
    fn remove_deletes_document() {
        let mut store = seeded_store();
        assert!(store.remove(1));
        assert!(!store.remove(1));
        assert_eq!(store.len(), 4);
        let hits = store.search("students gpa EECS", 5, None);
        assert!(hits.iter().all(|h| h.id != 1));
    }

    #[test]
    fn k_larger_than_store_returns_all() {
        let store = seeded_store();
        let hits = store.search("anything", 50, None);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn empty_store_returns_no_hits() {
        let store = VectorStore::new();
        assert!(store.is_empty());
        assert!(store.search("query", 3, None).is_empty());
    }

    #[test]
    fn ids_are_stable_and_monotonic() {
        let mut store = VectorStore::new();
        let a = store.add("a", None, DocumentKind::SqlQuery);
        let b = store.add("b", None, DocumentKind::SqlQuery);
        assert_eq!((a, b), (0, 1));
        store.remove(a);
        let c = store.add("c", None, DocumentKind::SqlQuery);
        assert_eq!(c, 2, "ids are never reused");
    }

    const KINDS: [DocumentKind; 4] = [
        DocumentKind::SqlQuery,
        DocumentKind::Annotation,
        DocumentKind::Schema,
        DocumentKind::Knowledge,
    ];

    /// The reference ranking: score every live document with
    /// [`Embedding::cosine`], fully sort, truncate.
    fn reference_search(
        live: &[(u64, String, DocumentKind)],
        query: &str,
        k: usize,
        kind: Option<DocumentKind>,
    ) -> Vec<SearchHit> {
        let embedder = Embedder::new();
        let q = embedder.embed(query);
        let mut hits: Vec<SearchHit> = live
            .iter()
            .filter(|(_, _, k)| kind.is_none_or(|kind| kind == *k))
            .map(|(id, text, _)| SearchHit {
                id: *id,
                score: embedder.embed(text).cosine(&q),
            })
            .collect();
        hits.sort_by(hit_order);
        hits.truncate(k);
        hits
    }

    fn assert_bitwise_eq(got: &[SearchHit], want: &[SearchHit]) {
        let bits = |hits: &[SearchHit]| -> Vec<(u64, u32)> {
            hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
        };
        assert_eq!(bits(got), bits(want));
    }

    use proptest::prelude::*;

    proptest! {
        /// The blocked kernel is bit-identical to `Embedding::cosine` and
        /// ranks exactly like a full sort, across kinds, removals, partial
        /// blocks and every interesting `k`.
        #[test]
        fn search_is_bit_identical_to_the_cosine_reference(
            texts in proptest::collection::vec("[a-zA-Z_ ,.]{0,30}", 0..30),
            kinds in proptest::collection::vec(0usize..4, 30..31),
            removals in proptest::collection::vec(0usize..40, 0..8),
            query in "[a-zA-Z_ ,.]{0,30}",
        ) {
            let mut store = VectorStore::new();
            let mut live: Vec<(u64, String, DocumentKind)> = Vec::new();
            for (i, (text, kind)) in texts.iter().zip(&kinds).enumerate() {
                let kind = KINDS[*kind];
                let id = store.add(text.clone(), None, kind);
                live.push((id, text.clone(), kind));
                // Interleave removals with inserts.
                if let Some(&victim) = removals.get(i) {
                    let victim = victim as u64;
                    let existed = live.iter().any(|(id, _, _)| *id == victim);
                    prop_assert_eq!(store.remove(victim), existed);
                    live.retain(|(id, _, _)| *id != victim);
                }
            }
            prop_assert_eq!(store.len(), live.len());
            let n = live.len();
            for kind in [None].into_iter().chain(KINDS.map(Some)) {
                for k in [0, 1, 3, n, n + 5] {
                    let got = store.search(&query, k, kind);
                    let want = reference_search(&live, &query, k, kind);
                    assert_bitwise_eq(&got, &want);
                }
            }
        }
    }

    #[test]
    fn search_is_bit_identical_on_a_multi_block_corpus() {
        // 8 and 9 documents of two kinds: one exactly full block and one
        // block with a single used lane, plus removals that empty a block.
        let texts: Vec<String> = (0..17)
            .map(|i| format!("SELECT col_{i} FROM table_{} WHERE x > {i}", i % 3))
            .collect();
        let mut store = VectorStore::new();
        let mut live = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let kind = if i % 2 == 0 {
                DocumentKind::Annotation
            } else {
                DocumentKind::SqlQuery
            };
            live.push((store.add(text.clone(), None, kind), text.clone(), kind));
        }
        let query = "select col_4 from table_1";
        for round in 0..3 {
            for kind in [None, Some(DocumentKind::Annotation)] {
                for k in [1, 3, live.len()] {
                    let got = store.search(query, k, kind);
                    assert_bitwise_eq(&got, &reference_search(&live, query, k, kind));
                }
            }
            let victim = live[round * 5].0;
            assert!(store.remove(victim));
            live.retain(|(id, _, _)| *id != victim);
        }
    }
}
