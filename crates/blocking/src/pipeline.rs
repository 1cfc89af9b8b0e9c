//! The end-to-end blocking pipeline: canopies → similarity annotation →
//! total cover.
//!
//! The pipeline is backed by a [`FeatureCache`]: every entity's key is
//! tokenized, interned, and parsed **once**, the canopy pass queries the
//! inverted index with pre-interned gram ids, and the exact kernels score
//! from cached [`em_similarity::FeatureVec`]s. Overlapping canopies emit
//! the same pair many times; a per-run seen-set guarantees each pair's
//! exact similarity is computed exactly once (toggle with
//! [`BlockingConfig::dedupe_pair_scores`] for ablations).

use crate::canopy::{canopies_cached, canopies_cached_incremental, CanopyMemo, CanopyParams};
use crate::cover::cover_from_canopies;
use em_core::hash::{FxHashMap, FxHashSet};
use em_core::{Cover, Dataset, EntityId, Pair, PairCache, Result, SimLevel};
use em_similarity::discretize::Discretizer;
use em_similarity::{FeatureCache, FeatureConfig, FeatureVec};

/// Which exact similarity kernel scores within-canopy pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimilarityKernel {
    /// Raw Jaro-Winkler on the key strings (the paper's stated choice).
    #[default]
    JaroWinkler,
    /// Structure-aware author-name scoring
    /// ([`em_similarity::author_name_score`]): initial-only agreement is
    /// capped below level 3, which is the regime where collective
    /// evidence matters.
    AuthorName,
    /// Cosine over the cache's precomputed TF-IDF token vectors:
    /// corpus-weighted token overlap, O(tokens) per pair with zero
    /// recomputation.
    TfIdfCosine,
}

impl SimilarityKernel {
    /// Score a pair of cached feature vectors in `[0, 1]`.
    #[inline]
    pub fn score(self, a: &FeatureVec, b: &FeatureVec) -> f64 {
        match self {
            SimilarityKernel::JaroWinkler => a.key_jaro_winkler(b),
            SimilarityKernel::AuthorName => a.author_score(b),
            SimilarityKernel::TfIdfCosine => a.tfidf_cosine(b),
        }
    }
}

/// Configuration for [`block_dataset`].
#[derive(Debug, Clone)]
pub struct BlockingConfig {
    /// Entity type whose members are blocked (e.g. `"author_ref"`).
    pub entity_type: String,
    /// Attribute holding the blocking key string (e.g. `"name"`).
    pub key_attr: String,
    /// Canopy parameters for the cheap pass.
    pub canopy: CanopyParams,
    /// Thresholds discretizing exact similarity scores into levels.
    pub discretizer: Discretizer,
    /// Exact similarity kernel.
    pub kernel: SimilarityKernel,
    /// Sub-block canopies larger than this into overlapping windows of
    /// members sorted by `(last, first)` name key. Canopy blow-up happens
    /// on popular surnames; windowing keeps compatible names (which sort
    /// adjacently) together while bounding the quadratic pair generation.
    /// Cross-window pairs are *not* candidates — the standard
    /// sub-blocking recall trade-off.
    pub max_canopy_size: Option<usize>,
    /// Boundary-expansion hops (§4 uses one).
    pub boundary_hops: usize,
    /// Split neighborhoods larger than this into safe components.
    pub max_neighborhood_size: Option<usize>,
    /// Score each within-canopy pair at most once even when overlapping
    /// canopies emit it repeatedly (pure optimization — duplicate scores
    /// were identical; off reproduces the naive recompute-everything
    /// behaviour for ablations).
    pub dedupe_pair_scores: bool,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        Self {
            entity_type: "author_ref".to_owned(),
            key_attr: "name".to_owned(),
            canopy: CanopyParams::default(),
            discretizer: Discretizer::default(),
            kernel: SimilarityKernel::default(),
            max_canopy_size: Some(384),
            boundary_hops: 1,
            max_neighborhood_size: Some(256),
            dedupe_pair_scores: true,
        }
    }
}

/// Result of the blocking pipeline.
#[derive(Debug)]
pub struct BlockingOutput {
    /// The total cover ready for the framework.
    pub cover: Cover,
    /// Number of canopies produced by the cheap pass.
    pub canopies: usize,
    /// Candidate pairs annotated onto the dataset.
    pub candidate_pairs: usize,
    /// Kernel evaluations skipped because the pair-score cache had
    /// already scored the pair in an overlapping canopy (0 when
    /// [`BlockingConfig::dedupe_pair_scores`] is off).
    pub pair_scores_reused: u64,
    /// Exact-kernel evaluations this pass actually performed (the
    /// delta-proportional cost of a churn re-block).
    pub pairs_scored: u64,
}

/// Run the full blocking pipeline on `dataset`:
///
/// 1. collect `(entity, key)` points of `entity_type`;
/// 2. canopy-cluster them with the cheap n-gram similarity;
/// 3. annotate candidate pairs: for every within-canopy pair, compute
///    the configured exact kernel ([`BlockingConfig::kernel`]) on the
///    cached features and record the discretized level in the dataset
///    (`similar(e1, e2, level)`);
/// 4. assemble a total cover (canopies + singleton residuals + boundary,
///    deduplicated, oversized neighborhoods split).
///
/// Returns an error only if the constructed cover fails validation
/// (which would indicate a bug — the construction is total by design and
/// the validation is kept as an internal consistency check).
pub fn block_dataset(dataset: &mut Dataset, config: &BlockingConfig) -> Result<BlockingOutput> {
    block_dataset_with_features(dataset, config, None)
}

/// [`block_dataset`] reusing a prebuilt [`FeatureCache`] (e.g. the one
/// `em_datagen` interns at render time) instead of re-tokenizing the
/// corpus. The caller guarantees the cache was built over the same
/// `(entity_type, key_attr)` corpus of this dataset; a cache whose n-gram
/// size disagrees with `config.canopy.ngram` is ignored and the pipeline
/// falls back to building its own (the canopy index is gram-id based, so
/// a mismatched cache would change recall).
pub fn block_dataset_with_features(
    dataset: &mut Dataset,
    config: &BlockingConfig,
    features: Option<&FeatureCache>,
) -> Result<BlockingOutput> {
    block_dataset_session(dataset, config, features, None)
}

/// [`block_dataset_with_features`] with a caller-owned pair-score cache.
///
/// A session that re-blocks a *growing* dataset passes the same
/// `PairCache` every time: pairs scored by a previous blocking pass are
/// skipped outright (their annotation is already on the dataset and
/// `Dataset::set_similar` keeps it), so each re-block pays the expensive
/// kernel only for pairs involving new entities — the delta. Requires
/// [`BlockingConfig::dedupe_pair_scores`]; with it off the external
/// cache is ignored (the ablation arm recomputes everything by design).
///
/// Only meaningful for kernels whose score is a pure function of the two
/// feature vectors (Jaro-Winkler, AuthorName): a cached score replayed
/// on a grown corpus must equal what a cold run over that corpus would
/// compute. [`SimilarityKernel::TfIdfCosine`] weighs tokens by corpus
/// frequency, so sessions using it must clear the cache (and rebuild the
/// feature cache) instead of reusing scores.
pub fn block_dataset_session(
    dataset: &mut Dataset,
    config: &BlockingConfig,
    features: Option<&FeatureCache>,
    session_scores: Option<&PairCache<f64>>,
) -> Result<BlockingOutput> {
    // One pass over the corpus: tokenize, intern, parse, and weight every
    // key exactly once — or zero passes when the caller already did.
    // Everything below reads from this cache.
    let built;
    let cache: &FeatureCache = match features {
        Some(shared) if shared.config().ngram == config.canopy.ngram => shared,
        _ => {
            built = FeatureCache::build(
                dataset,
                &config.entity_type,
                &config.key_attr,
                FeatureConfig {
                    ngram: config.canopy.ngram,
                },
            );
            &built
        }
    };
    let points: Vec<EntityId> = {
        let ty = dataset.entities.type_id(&config.entity_type);
        match ty {
            Some(ty) => dataset
                .entities
                .ids_of_type(ty)
                .filter(|&e| cache.get(e).is_some())
                .collect(),
            None => Vec::new(),
        }
    };

    let canopy_sets = canopies_cached(&points, cache, &config.canopy);
    annotate_and_cover(dataset, config, cache, canopy_sets, session_scores)
}

/// The shared back half of every blocking entry point: sub-block
/// oversized canopies, score + annotate within-canopy pairs, assemble
/// the total cover.
fn annotate_and_cover(
    dataset: &mut Dataset,
    config: &BlockingConfig,
    cache: &FeatureCache,
    mut canopy_sets: Vec<Vec<EntityId>>,
    session_scores: Option<&PairCache<f64>>,
) -> Result<BlockingOutput> {
    if let Some(max) = config.max_canopy_size {
        canopy_sets = canopy_sets
            .into_iter()
            .flat_map(|canopy| sub_block(canopy, cache, max))
            .collect();
    }

    // Exact similarity within canopies, straight from cached features.
    // Overlapping canopies repeat pairs; the pair-score cache makes each
    // pair's kernel evaluation (and level annotation) happen exactly once
    // — across re-blocks too, when the caller owns the cache.
    let fresh_scores;
    let scores: &PairCache<f64> = match session_scores {
        Some(shared) => shared,
        None => {
            fresh_scores = PairCache::new();
            &fresh_scores
        }
    };
    let hits_before = scores.stats().hits;
    let mut candidate_pairs = 0usize;
    let mut pairs_scored = 0u64;
    let mut annotations: Vec<(Pair, SimLevel)> = Vec::new();
    for canopy in &canopy_sets {
        for (i, &a) in canopy.iter().enumerate() {
            for &b in &canopy[i + 1..] {
                let (Some(fa), Some(fb)) = (cache.get(a), cache.get(b)) else {
                    continue;
                };
                let pair = Pair::new(a, b);
                let score = if config.dedupe_pair_scores {
                    if scores.get(pair).is_some() {
                        continue; // already scored *and* annotated
                    }
                    let s = config.kernel.score(fa, fb);
                    scores.insert(pair, s);
                    s
                } else {
                    config.kernel.score(fa, fb)
                };
                pairs_scored += 1;
                if let Some(level) = config.discretizer.level(score) {
                    annotations.push((pair, level));
                }
            }
        }
    }
    let pair_scores_reused = scores.stats().hits - hits_before;
    for (pair, level) in annotations {
        if dataset.set_similar(pair, level) {
            candidate_pairs += 1;
        }
    }

    let canopies = canopy_sets.len();
    let cover = cover_from_canopies(
        dataset,
        canopy_sets,
        config.boundary_hops,
        config.max_neighborhood_size,
    );
    cover.validate_total(dataset)?;
    Ok(BlockingOutput {
        cover,
        canopies,
        candidate_pairs,
        pair_scores_reused,
        pairs_scored,
    })
}

/// One candidate pair whose annotation this churn re-block changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotationChange {
    /// The pair.
    pub pair: Pair,
    /// Its level before the re-block (None = not a candidate).
    pub before: Option<SimLevel>,
    /// Its level after (None = no longer a candidate).
    pub after: Option<SimLevel>,
}

/// What a churn re-block did beyond the [`BlockingOutput`].
#[derive(Debug)]
pub struct ChurnBlockingOutput {
    /// The regular blocking output (cover, counters).
    pub output: BlockingOutput,
    /// Every candidate pair whose annotation changed — removed because
    /// its canopy co-location vanished, added between pre-existing
    /// entities, or re-discretized at a different level. These pairs
    /// seed the session's component-scoped rollback.
    pub changed_pairs: Vec<AnnotationChange>,
    /// Canopies replayed from the memo without an index query.
    pub canopies_replayed: u64,
    /// Canopies recomputed against the inverted index.
    pub canopies_recomputed: u64,
}

/// The churn-aware re-block behind `MatchSession::update`: an
/// incremental canopy pass with cross-pass replay ([`CanopyMemo`]), a
/// *suspect-pair purge* that withdraws annotations only where canopy
/// co-location can have changed, and a report of every annotation the
/// pass ended up changing.
///
/// `delta_grams` holds the gram-id set of every added or removed point
/// (removed points' sets captured before their features were dropped);
/// only canopies centered within the loose threshold of a delta point
/// re-query the index (see [`canopies_cached_incremental`]).
/// When `purge_suspects` is set (deltas with retractions), the pairs of
/// every *changed* canopy — old and new membership alike — are
/// un-annotated and evicted from the score cache before the annotate
/// loop runs, so the loop re-derives exactly what a cold pass over the
/// edited dataset would: pairs still co-located come back at the same
/// kernel score, pairs that lost co-location stay gone. `protected`
/// pairs (caller-supplied links and pre-blocking annotations) are never
/// purged — cold runs see them on the dataset too.
///
/// Byte-identical cover + annotations to [`block_dataset_session`] over
/// the same dataset and (fresh) caches, at delta-proportional cost.
#[allow(clippy::too_many_arguments)]
pub fn block_dataset_churn(
    dataset: &mut Dataset,
    config: &BlockingConfig,
    cache: &FeatureCache,
    session_scores: &PairCache<f64>,
    memo: &mut CanopyMemo,
    delta_grams: &[Vec<u32>],
    purge_suspects: bool,
    protected: &FxHashMap<Pair, SimLevel>,
) -> Result<ChurnBlockingOutput> {
    let points: Vec<EntityId> = {
        let ty = dataset.entities.type_id(&config.entity_type);
        match ty {
            Some(ty) => dataset
                .entities
                .ids_of_type(ty)
                .filter(|&e| cache.get(e).is_some())
                .collect(),
            None => Vec::new(),
        }
    };
    let (canopy_sets, delta) =
        canopies_cached_incremental(&points, cache, &config.canopy, memo, delta_grams);

    // Suspect pairs: every pair of every changed canopy, old or new
    // membership. Only their co-location can have changed, so only they
    // are purged and re-derived; protected pairs keep their annotation
    // (the annotate loop may still raise it, mirroring a cold pass).
    let mut suspects: Vec<Pair> = Vec::new();
    if purge_suspects {
        let mut seen: FxHashSet<Pair> = FxHashSet::default();
        for changed in &delta.changed {
            for members in [&changed.old_members, &changed.new_members] {
                for (i, &a) in members.iter().enumerate() {
                    for &b in &members[i + 1..] {
                        let pair = Pair::new(a, b);
                        if seen.insert(pair) && !protected.contains_key(&pair) {
                            suspects.push(pair);
                        }
                    }
                }
            }
        }
        suspects.sort_unstable();
    }
    // Pre-purge levels: the diff below is against what the dataset held
    // when the caller handed it over.
    let before: Vec<(Pair, Option<SimLevel>)> = suspects
        .iter()
        .map(|&p| (p, dataset.similarity(p)))
        .collect();
    for &pair in &suspects {
        dataset.retract_similar(pair);
        session_scores.remove(pair);
    }

    let output = annotate_and_cover(dataset, config, cache, canopy_sets, Some(session_scores))?;

    let mut changed_pairs: Vec<AnnotationChange> = Vec::new();
    for (pair, before) in before {
        let after = dataset.similarity(pair);
        if before != after {
            changed_pairs.push(AnnotationChange {
                pair,
                before,
                after,
            });
        }
    }
    Ok(ChurnBlockingOutput {
        output,
        changed_pairs,
        canopies_replayed: delta.replayed,
        canopies_recomputed: delta.recomputed,
    })
}

/// Split an oversized canopy into overlapping windows over members
/// sorted by `(last name, first name)`, so compatible author names stay
/// within a window. Window size = `max`, stride = `max / 2`. Name keys
/// come pre-parsed from the feature cache.
fn sub_block(canopy: Vec<EntityId>, cache: &FeatureCache, max: usize) -> Vec<Vec<EntityId>> {
    if canopy.len() <= max {
        return vec![canopy];
    }
    let mut keyed: Vec<(String, EntityId)> = canopy
        .into_iter()
        .map(|e| {
            let key = cache
                .get(e)
                .map_or_else(String::new, |f| format!("{} {}", f.name.last, f.name.first));
            (key, e)
        })
        .collect();
    keyed.sort();
    let stride = (max / 2).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    loop {
        let end = (start + max).min(keyed.len());
        out.push(keyed[start..end].iter().map(|&(_, e)| e).collect());
        if end == keyed.len() {
            break;
        }
        start += stride;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::SimLevel;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let author = ds.entities.intern_type("author_ref");
        let paper = ds.entities.intern_type("paper");
        let name = ds.entities.intern_attr("name");
        let names = [
            "john smith",
            "john smith", // exact duplicate of e0
            "jon smith",  // near duplicate
            "jane doe",
            "j doe",
            "minos garofalakis",
        ];
        for n in names {
            let id = ds.entities.add_entity(author);
            ds.entities.set_attr(id, name, n);
        }
        // A paper authored by two of the refs (boundary material).
        let p = ds.entities.add_entity(paper);
        let authored = ds.relations.declare("authored", false);
        ds.relations.add_tuple(authored, e(0), p);
        ds.relations.add_tuple(authored, e(3), p);
        let co = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(co, e(0), e(3));
        ds
    }

    #[test]
    fn pipeline_produces_valid_total_cover() {
        let mut ds = dataset();
        let out = block_dataset(&mut ds, &BlockingConfig::default()).expect("pipeline");
        assert!(out.cover.validate_total(&ds).is_ok());
        assert!(out.canopies >= 2);
    }

    #[test]
    fn exact_duplicates_become_level3_candidates() {
        let mut ds = dataset();
        let _ = block_dataset(&mut ds, &BlockingConfig::default()).unwrap();
        assert_eq!(ds.similarity(Pair::new(e(0), e(1))), Some(SimLevel(3)));
        let near = ds.similarity(Pair::new(e(0), e(2))).expect("candidate");
        assert!(near >= SimLevel(1));
    }

    #[test]
    fn dissimilar_names_are_not_candidates() {
        let mut ds = dataset();
        let _ = block_dataset(&mut ds, &BlockingConfig::default()).unwrap();
        assert_eq!(ds.similarity(Pair::new(e(0), e(5))), None);
        assert_eq!(ds.similarity(Pair::new(e(3), e(5))), None);
    }

    #[test]
    fn similar_pairs_share_a_neighborhood() {
        let mut ds = dataset();
        let out = block_dataset(&mut ds, &BlockingConfig::default()).unwrap();
        for (pair, _) in ds.candidate_pairs() {
            assert!(
                !out.cover.containing_pair(pair).is_empty(),
                "candidate {pair} lost by the cover"
            );
        }
    }

    #[test]
    fn oversized_canopy_is_sub_blocked() {
        let mut ds = Dataset::new();
        let author = ds.entities.intern_type("author_ref");
        let name = ds.entities.intern_attr("name");
        // 12 same-surname refs; max_canopy_size 6 forces windowing.
        for i in 0..12 {
            let id = ds.entities.add_entity(author);
            ds.entities.set_attr(id, name, format!("a{i:02} smith"));
        }
        let config = BlockingConfig {
            max_canopy_size: Some(6),
            ..Default::default()
        };
        let out = block_dataset(&mut ds, &config).unwrap();
        assert!(
            out.cover.max_size() <= 6,
            "windows bound the neighborhood size: {}",
            out.cover.max_size()
        );
        // Adjacent names still share a window.
        assert!(ds.is_candidate(Pair::new(e(0), e(1))));
    }

    #[test]
    fn pair_score_dedupe_does_not_change_the_output() {
        let mut with_dedupe = dataset();
        let mut without = dataset();
        let on = BlockingConfig::default();
        let off = BlockingConfig {
            dedupe_pair_scores: false,
            ..Default::default()
        };
        let out_on = block_dataset(&mut with_dedupe, &on).unwrap();
        let out_off = block_dataset(&mut without, &off).unwrap();
        assert_eq!(out_on.candidate_pairs, out_off.candidate_pairs);
        assert_eq!(out_off.pair_scores_reused, 0, "cache unused when off");
        let mut pairs_on: Vec<_> = with_dedupe.candidate_pairs().collect();
        let mut pairs_off: Vec<_> = without.candidate_pairs().collect();
        pairs_on.sort_unstable();
        pairs_off.sort_unstable();
        assert_eq!(pairs_on, pairs_off);
    }

    #[test]
    fn session_score_cache_skips_previously_scored_pairs_on_reblock() {
        let mut ds = dataset();
        let scores = PairCache::new();
        let config = BlockingConfig::default();
        let first = block_dataset_session(&mut ds, &config, None, Some(&scores)).unwrap();
        assert!(
            !scores.is_empty(),
            "session cache captured the pass's scores"
        );
        let pairs_before: usize = ds.candidate_pairs().count();
        // Re-blocking the unchanged dataset with the same cache re-scores
        // nothing and annotates nothing new.
        let second = block_dataset_session(&mut ds, &config, None, Some(&scores)).unwrap();
        assert_eq!(second.candidate_pairs, 0, "no new candidates");
        assert!(
            second.pair_scores_reused >= first.candidate_pairs as u64,
            "every previously scored pair replays: {} < {}",
            second.pair_scores_reused,
            first.candidate_pairs
        );
        assert_eq!(ds.candidate_pairs().count(), pairs_before);
        assert_eq!(second.cover.len(), first.cover.len());
    }

    #[test]
    fn tfidf_kernel_annotates_shared_token_pairs() {
        let mut ds = dataset();
        let config = BlockingConfig {
            kernel: SimilarityKernel::TfIdfCosine,
            ..Default::default()
        };
        let _ = block_dataset(&mut ds, &config).unwrap();
        // Exact duplicates share every token: cosine 1 → level 3.
        assert_eq!(ds.similarity(Pair::new(e(0), e(1))), Some(SimLevel(3)));
    }

    #[test]
    fn empty_type_yields_singleton_cover() {
        let mut ds = dataset();
        let config = BlockingConfig {
            entity_type: "venue".to_owned(), // nonexistent
            ..Default::default()
        };
        let out = block_dataset(&mut ds, &config).unwrap();
        // Every entity still covered (as singletons).
        assert!(out.cover.validate_cover(&ds).is_ok());
        assert_eq!(out.candidate_pairs, 0);
    }
}
