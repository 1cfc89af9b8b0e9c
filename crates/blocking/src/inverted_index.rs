//! N-gram inverted index: the cheap distance behind canopy clustering.
//!
//! Canopies need a distance that can enumerate "everything plausibly
//! close to X" without comparing X against the whole dataset. An inverted
//! index from character n-grams to document ids does exactly that: the
//! candidates for X are the union of the posting lists of X's n-grams,
//! and the overlap counts give an upper-bound Jaccard estimate for free.
//!
//! Grams are interned to dense `u32` ids at build time
//! ([`em_similarity::TokenInterner`]), so posting lists are indexed by a
//! plain vector and queries over **pre-interned gram ids** (the
//! [`em_similarity::FeatureVec`] gram sets of a feature cache) never
//! touch a string or a hash map. The `&str` query API remains as a thin
//! wrapper that interns the query's grams on the fly.

use em_core::hash::FxHashMap;
use em_similarity::feature::TokenInterner;
use em_similarity::ngram::for_each_ngram;

/// Inverted index over the character n-grams of a string collection.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    n: usize,
    /// gram string → dense gram id. Present only when the index was
    /// built from strings; an index built from pre-interned gram ids
    /// ([`Self::from_gram_ids`]) borrows its caller's vocabulary and
    /// answers id queries only.
    grams: Option<TokenInterner>,
    /// gram id → ids of documents containing it (ascending).
    postings: Vec<Vec<u32>>,
    /// per-document n-gram set size (for Jaccard denominators).
    gram_counts: Vec<u32>,
}

impl InvertedIndex {
    /// Build the index over `docs` with `n`-grams. Document ids are the
    /// slice positions.
    pub fn build(docs: &[String], n: usize) -> Self {
        let mut grams = TokenInterner::new();
        let sets: Vec<Vec<u32>> = docs
            .iter()
            .map(|doc| {
                let mut ids: Vec<u32> = Vec::new();
                for_each_ngram(doc, n, |g| ids.push(grams.intern(g)));
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let vocab = grams.len();
        Self::from_parts(n, Some(grams), vocab, &refs)
    }

    /// Build from pre-interned, sorted/deduplicated gram-id sets (one
    /// per document) over a vocabulary of `vocab_size` grams — the
    /// zero-recompute path used when a feature cache already extracted
    /// every document. The id sets are read once, not copied, and no
    /// gram string is stored; query with [`Self::candidates_for_ids`] /
    /// [`Self::candidates_above_ids`] (string queries panic).
    pub fn from_gram_ids(sets: &[&[u32]], vocab_size: usize, n: usize) -> Self {
        Self::from_parts(n, None, vocab_size, sets)
    }

    fn from_parts(
        n: usize,
        grams: Option<TokenInterner>,
        vocab_size: usize,
        sets: &[&[u32]],
    ) -> Self {
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); vocab_size];
        let mut gram_counts = Vec::with_capacity(sets.len());
        for (id, set) in sets.iter().enumerate() {
            gram_counts.push(set.len() as u32);
            for &gram in *set {
                postings[gram as usize].push(id as u32);
            }
        }
        Self {
            n,
            grams,
            postings,
            gram_counts,
        }
    }

    /// The n-gram size of the index.
    pub fn ngram_size(&self) -> usize {
        self.n
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.gram_counts.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.gram_counts.is_empty()
    }

    /// Number of distinct n-grams of document `id`.
    pub fn gram_count(&self, id: u32) -> u32 {
        self.gram_counts[id as usize]
    }

    /// Distinct gram ids of a query string under the index vocabulary,
    /// plus the query's total distinct-gram count (including grams not in
    /// the vocabulary, which the Jaccard denominator needs).
    ///
    /// # Panics
    /// Panics if the index was built from pre-interned ids (no string
    /// vocabulary to resolve against).
    pub(crate) fn query_gram_ids(&self, query: &str) -> (Vec<u32>, u32) {
        let grams = self
            .grams
            .as_ref()
            .expect("string queries require an index built from strings (InvertedIndex::build)");
        let mut known: Vec<u32> = Vec::new();
        let mut unknown: Vec<String> = Vec::new();
        for_each_ngram(query, self.n, |g| match grams.get(g) {
            Some(id) => known.push(id),
            None => unknown.push(g.to_owned()),
        });
        known.sort_unstable();
        known.dedup();
        unknown.sort_unstable();
        unknown.dedup();
        let total = known.len() + unknown.len();
        (known, total as u32)
    }

    /// Candidate documents sharing at least one n-gram with `query`,
    /// with shared-gram counts. The query is an arbitrary string (not
    /// necessarily indexed).
    pub fn candidates(&self, query: &str) -> FxHashMap<u32, u32> {
        let (ids, _) = self.query_gram_ids(query);
        self.candidates_for_ids(&ids)
    }

    /// Candidates for a pre-interned, deduplicated gram-id set.
    pub fn candidates_for_ids(&self, gram_ids: &[u32]) -> FxHashMap<u32, u32> {
        let mut counter = OverlapCounter::new(self);
        counter.count(gram_ids);
        let counts = counter
            .touched
            .iter()
            .map(|&doc| (doc, counter.shared[doc as usize]))
            .collect();
        counter.reset();
        counts
    }

    /// Cheap Jaccard similarity between an indexed document and a query
    /// given their shared-gram count: `shared / (|q| + |d| − shared)`.
    pub fn jaccard_from_overlap(&self, doc: u32, query_grams: u32, shared: u32) -> f64 {
        let union = query_grams + self.gram_count(doc) - shared;
        if union == 0 {
            return 1.0;
        }
        f64::from(shared) / f64::from(union)
    }

    /// All candidates of `query` at Jaccard ≥ `threshold`.
    pub fn candidates_above(&self, query: &str, threshold: f64) -> Vec<(u32, f64)> {
        let (ids, total) = self.query_gram_ids(query);
        self.candidates_above_counted(&ids, total, threshold)
    }

    /// All candidates of a pre-interned gram-id set at Jaccard ≥
    /// `threshold`. The set must be deduplicated and drawn from the
    /// index's own vocabulary; its length is the query's distinct-gram
    /// count.
    pub fn candidates_above_ids(&self, gram_ids: &[u32], threshold: f64) -> Vec<(u32, f64)> {
        self.candidates_above_counted(gram_ids, gram_ids.len() as u32, threshold)
    }

    fn candidates_above_counted(
        &self,
        gram_ids: &[u32],
        query_grams: u32,
        threshold: f64,
    ) -> Vec<(u32, f64)> {
        OverlapCounter::new(self)
            .above(gram_ids, query_grams, threshold)
            .to_vec()
    }
}

/// Reusable per-query scratch for [`InvertedIndex`] queries: a dense
/// shared-gram count per document plus the list of documents a query
/// touched, cleared after each query. A loop that issues one query per
/// document (canopy clustering) allocates it once instead of building a
/// hash map per query.
pub(crate) struct OverlapCounter<'a> {
    index: &'a InvertedIndex,
    /// Shared-gram count per document; zero outside a query.
    shared: Vec<u32>,
    /// Documents with a non-zero count, in first-touch order.
    touched: Vec<u32>,
    /// The last query's hits, ascending by document id.
    hits: Vec<(u32, f64)>,
}

impl<'a> OverlapCounter<'a> {
    /// A cleared counter over `index`'s documents.
    pub(crate) fn new(index: &'a InvertedIndex) -> Self {
        Self {
            index,
            shared: vec![0; index.len()],
            touched: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Count the grams each document shares with `gram_ids`.
    fn count(&mut self, gram_ids: &[u32]) {
        for &gram in gram_ids {
            if let Some(docs) = self.index.postings.get(gram as usize) {
                for &doc in docs {
                    let shared = &mut self.shared[doc as usize];
                    if *shared == 0 {
                        self.touched.push(doc);
                    }
                    *shared += 1;
                }
            }
        }
    }

    fn reset(&mut self) {
        for &doc in &self.touched {
            self.shared[doc as usize] = 0;
        }
        self.touched.clear();
    }

    /// Every document at Jaccard ≥ `threshold` from a query of
    /// `query_grams` distinct grams (of which `gram_ids` are in the
    /// vocabulary), ascending by document id. The slice lives until
    /// the next query.
    pub(crate) fn above(
        &mut self,
        gram_ids: &[u32],
        query_grams: u32,
        threshold: f64,
    ) -> &[(u32, f64)] {
        self.count(gram_ids);
        self.hits.clear();
        for &doc in &self.touched {
            let sim = self
                .index
                .jaccard_from_overlap(doc, query_grams, self.shared[doc as usize]);
            if sim >= threshold {
                self.hits.push((doc, sim));
            }
        }
        self.reset();
        self.hits.sort_unstable_by_key(|hit| hit.0);
        &self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_similarity::ngram::ngram_set;

    fn docs() -> Vec<String> {
        ["john smith", "jon smith", "jane doe", "john smithe"]
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn build_indexes_every_doc() {
        let idx = InvertedIndex::build(&docs(), 3);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        assert_eq!(idx.ngram_size(), 3);
        assert!(idx.gram_count(0) > 0);
    }

    #[test]
    fn exact_duplicate_query_scores_one() {
        let idx = InvertedIndex::build(&docs(), 3);
        let hits = idx.candidates_above("john smith", 0.999);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn near_duplicates_are_found_above_loose_threshold() {
        let idx = InvertedIndex::build(&docs(), 3);
        let hits = idx.candidates_above("john smith", 0.4);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&3), "john smithe shares most grams");
        assert!(!ids.contains(&2), "jane doe is unrelated");
    }

    #[test]
    fn candidates_count_shared_grams() {
        let idx = InvertedIndex::build(&docs(), 3);
        let counts = idx.candidates("jane doe");
        // Identical doc shares all of its grams.
        assert_eq!(counts[&2], idx.gram_count(2));
    }

    #[test]
    fn unrelated_query_yields_nothing() {
        let idx = InvertedIndex::build(&docs(), 3);
        assert!(idx.candidates_above("xyzzyx", 0.1).is_empty());
    }

    #[test]
    fn out_of_vocabulary_grams_still_count_in_denominator() {
        let idx = InvertedIndex::build(&docs(), 3);
        // "john smithx" shares grams with doc 0 but its novel grams must
        // lower the Jaccard estimate below 1.
        let hits = idx.candidates_above("john smithx", 0.1);
        let john = hits.iter().find(|&&(id, _)| id == 0).expect("candidate");
        let expected = {
            let q = ngram_set("john smithx", 3);
            let d = ngram_set("john smith", 3);
            let shared = q.iter().filter(|g| d.contains(g)).count() as f64;
            shared / (q.len() as f64 + d.len() as f64 - shared)
        };
        assert!((john.1 - expected).abs() < 1e-12);
    }

    #[test]
    fn interned_query_path_matches_string_path() {
        let idx = InvertedIndex::build(&docs(), 3);
        // Query with doc 1's own gram set: both paths must agree.
        let mut gram_ids: Vec<u32> = Vec::new();
        let vocab = idx.grams.as_ref().expect("string-built index");
        for_each_ngram("jon smith", 3, |g| {
            gram_ids.push(vocab.get(g).expect("indexed gram"));
        });
        gram_ids.sort_unstable();
        gram_ids.dedup();
        let by_ids = idx.candidates_above_ids(&gram_ids, 0.3);
        let by_str = idx.candidates_above("jon smith", 0.3);
        assert_eq!(by_ids, by_str);
    }

    #[test]
    fn empty_collection() {
        let idx = InvertedIndex::build(&[], 3);
        assert!(idx.is_empty());
        assert!(idx.candidates("anything").is_empty());
    }

    #[test]
    fn id_built_index_answers_id_queries() {
        let sets: Vec<&[u32]> = vec![&[0, 1, 2], &[1, 2, 3], &[7]];
        let idx = InvertedIndex::from_gram_ids(&sets, 8, 3);
        assert_eq!(idx.len(), 3);
        let hits = idx.candidates_above_ids(&[1, 2, 3], 0.4);
        let ids: Vec<u32> = hits.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(hits[1].1, 1.0, "identical set");
    }

    /// Random sorted gram-id sets over a small vocabulary (so overlaps
    /// are common), from a seeded LCG.
    fn random_sets(seed: u64, count: usize, vocab: u32) -> Vec<Vec<u32>> {
        let mut rng = seed;
        let mut next = |bound: u32| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as u32 % bound
        };
        (0..count)
            .map(|_| {
                let len = next(12);
                let mut set: Vec<u32> = (0..len).map(|_| next(vocab)).collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect()
    }

    /// Jaccard of every document against `query` by set intersection,
    /// keeping those at or above `threshold`.
    fn brute_force(sets: &[Vec<u32>], query: &[u32], threshold: f64) -> Vec<(u32, f64)> {
        sets.iter()
            .enumerate()
            .filter_map(|(doc, set)| {
                let shared = set.iter().filter(|g| query.contains(g)).count() as u32;
                if shared == 0 {
                    return None;
                }
                let union = query.len() as u32 + set.len() as u32 - shared;
                let sim = f64::from(shared) / f64::from(union);
                (sim >= threshold).then_some((doc as u32, sim))
            })
            .collect()
    }

    #[test]
    fn id_queries_equal_brute_force_jaccard() {
        let sets = random_sets(0x9E3779B97F4A7C15, 60, 24);
        let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let idx = InvertedIndex::from_gram_ids(&refs, 24, 3);
        for query in &sets {
            // An attainable Jaccard as the threshold: the boundary
            // document must be kept (`>=`).
            let attainable = brute_force(&sets, query, 0.0)
                .get(1)
                .map_or(0.5, |&(_, sim)| sim);
            for threshold in [0.35, 0.65, attainable] {
                assert_eq!(
                    idx.candidates_above_ids(query, threshold),
                    brute_force(&sets, query, threshold),
                    "query {query:?} threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn reused_counter_answers_each_query_as_if_alone() {
        let sets = random_sets(0xD1B54A32D192ED03, 40, 16);
        let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let idx = InvertedIndex::from_gram_ids(&refs, 16, 3);
        let mut shared = OverlapCounter::new(&idx);
        for pair in sets.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let _ = shared.above(a, a.len() as u32, 0.35);
            let after_a = shared.above(b, b.len() as u32, 0.35).to_vec();
            let alone = OverlapCounter::new(&idx)
                .above(b, b.len() as u32, 0.35)
                .to_vec();
            assert_eq!(after_a, alone, "query {b:?} after {a:?}");
            assert_eq!(after_a, brute_force(&sets, b, 0.35));
        }
    }

    #[test]
    #[should_panic(expected = "built from strings")]
    fn id_built_index_rejects_string_queries() {
        let sets: Vec<&[u32]> = vec![&[0, 1]];
        let idx = InvertedIndex::from_gram_ids(&sets, 2, 3);
        let _ = idx.candidates("john smith");
    }
}
