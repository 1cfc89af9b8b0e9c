//! Canopy clustering (McCallum, Nigam, Ungar — KDD 2000).
//!
//! Canopies group points with a *cheap* distance so an expensive algorithm
//! only runs within groups. The algorithm: repeatedly pick a remaining
//! point as a canopy *center*; every point within the **loose** threshold
//! joins the canopy; every point within the **tight** threshold is removed
//! from the pool of future centers. Because the loose threshold admits
//! points that remain center-eligible, canopies *overlap* — which is what
//! guarantees (for well-separated thresholds) that truly similar pairs
//! co-occur in at least one canopy, i.e. the canopies are a total cover of
//! the `Similar` relation.
//!
//! This implementation uses the n-gram Jaccard estimate from the inverted
//! index as the cheap similarity, and picks centers in ascending id order
//! so runs are deterministic.

use crate::inverted_index::{InvertedIndex, OverlapCounter};
use em_core::hash::{FxHashMap, FxHashSet};
use em_core::EntityId;
use em_similarity::FeatureCache;

/// Canopy parameters.
#[derive(Debug, Clone, Copy)]
pub struct CanopyParams {
    /// Character n-gram size for the cheap similarity.
    pub ngram: usize,
    /// Loose similarity: candidates at or above it join the canopy.
    pub loose: f64,
    /// Tight similarity: candidates at or above it stop being centers.
    /// Must be ≥ `loose`.
    pub tight: f64,
}

impl Default for CanopyParams {
    fn default() -> Self {
        Self {
            ngram: 3,
            loose: 0.35,
            tight: 0.65,
        }
    }
}

/// Run canopy clustering over `(entity, key string)` points.
///
/// Returns canopies as entity-id lists. Every input entity appears in at
/// least one canopy (a center always joins its own canopy).
///
/// # Panics
/// Panics if `tight < loose` (the canopy invariants need
/// `loose ≤ tight`).
pub fn canopies(points: &[(EntityId, String)], params: &CanopyParams) -> Vec<Vec<EntityId>> {
    let docs: Vec<String> = points.iter().map(|(_, s)| s.clone()).collect();
    let index = InvertedIndex::build(&docs, params.ngram);
    let entities: Vec<EntityId> = points.iter().map(|&(e, _)| e).collect();
    let queries: Vec<Query<'_>> = points.iter().map(|(_, s)| Query::Text(s)).collect();
    run_canopies(&entities, &queries, &index, params)
}

/// Canopy clustering over entities whose n-gram features were already
/// extracted into `cache` — the zero-recompute path: the index is built
/// straight from the interned gram-id sets and every query is a posting
/// merge over those same ids; no string is tokenized or hashed.
///
/// Entities without cached features form singleton canopies.
///
/// # Panics
/// Panics if `tight < loose`.
pub fn canopies_cached(
    points: &[EntityId],
    cache: &FeatureCache,
    params: &CanopyParams,
) -> Vec<Vec<EntityId>> {
    static EMPTY: [u32; 0] = [];
    let sets: Vec<&[u32]> = points
        .iter()
        .map(|&e| cache.get(e).map_or(&EMPTY[..], |f| f.grams.as_slice()))
        .collect();
    let index =
        InvertedIndex::from_gram_ids(&sets, cache.gram_interner().len(), cache.config().ngram);
    let queries: Vec<Query<'_>> = sets.into_iter().map(Query::GramIds).collect();
    run_canopies(points, &queries, &index, params)
}

/// A canopy query: either a raw string or a pre-interned gram-id set.
enum Query<'a> {
    Text(&'a str),
    GramIds(&'a [u32]),
}

/// One remembered canopy: its members in emission order, each flagged
/// with whether it fell inside the **tight** threshold (and therefore
/// removed center eligibility downstream).
#[derive(Debug, Clone, PartialEq, Eq)]
struct StoredCanopy {
    members: Vec<(EntityId, bool)>,
}

/// Cross-pass memo of one canopy clustering, keyed by center entity id,
/// enabling [`canopies_cached_incremental`]: on the next pass, centers
/// whose candidate set provably did not change **replay** their stored
/// canopy (members *and* tight-eligibility effects) instead of querying
/// the inverted index.
///
/// The memo stores entity ids, not positions, so it survives the
/// position shifts that retraction causes in the points list.
#[derive(Debug, Clone, Default)]
pub struct CanopyMemo {
    params: Option<CanopyParams>,
    canopies: FxHashMap<EntityId, StoredCanopy>,
}

impl CanopyMemo {
    /// An empty memo (the first pass computes everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of remembered canopies.
    pub fn len(&self) -> usize {
        self.canopies.len()
    }

    /// Whether the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.canopies.is_empty()
    }

    /// Forget everything (the next pass recomputes in full).
    pub fn clear(&mut self) {
        self.params = None;
        self.canopies.clear();
    }

    /// The member entity ids of the remembered canopy centered at `center`.
    fn members_of(&self, center: EntityId) -> Option<&StoredCanopy> {
        self.canopies.get(&center)
    }

    /// The parameters the memo was recorded under (`None` for an empty
    /// or cleared memo).
    pub fn params(&self) -> Option<CanopyParams> {
        self.params
    }

    /// Visit every remembered canopy — its center and its members in
    /// emission order, each flagged with tight-threshold eligibility —
    /// in arbitrary order. The durable-session encoder walks this;
    /// consumers needing determinism must sort by center.
    pub fn for_each_canopy(&self, mut visit: impl FnMut(EntityId, &[(EntityId, bool)])) {
        for (&center, stored) in &self.canopies {
            visit(center, &stored.members);
        }
    }

    /// Reassemble a memo from previously walked parts — the decode half
    /// of [`CanopyMemo::params`] / [`CanopyMemo::for_each_canopy`].
    pub fn from_parts(
        params: Option<CanopyParams>,
        canopies: impl IntoIterator<Item = (EntityId, Vec<(EntityId, bool)>)>,
    ) -> Self {
        Self {
            params,
            canopies: canopies
                .into_iter()
                .map(|(center, members)| (center, StoredCanopy { members }))
                .collect(),
        }
    }
}

/// What one incremental canopy pass did, beyond the canopies themselves.
#[derive(Debug, Clone, Default)]
pub struct CanopyDelta {
    /// Centers whose stored canopy was replayed without an index query.
    pub replayed: u64,
    /// Centers that queried the index (dirty, new, or newly eligible).
    pub recomputed: u64,
    /// Centers whose canopy **changed** relative to the previous memo:
    /// recomputed centers with a different member/tight list, centers
    /// that stopped being centers, and brand-new centers. The union of
    /// their old and new member lists bounds every pair whose
    /// co-location can have changed — the blocking pipeline's
    /// suspect-pair set.
    pub changed: Vec<ChangedCanopy>,
}

/// Old and new membership of one changed canopy (either side may be
/// empty when the canopy appeared or disappeared).
#[derive(Debug, Clone)]
pub struct ChangedCanopy {
    /// The center entity.
    pub center: EntityId,
    /// Members before this pass (empty for a new center).
    pub old_members: Vec<EntityId>,
    /// Members after this pass (empty for a vanished center).
    pub new_members: Vec<EntityId>,
}

/// [`canopies_cached`] with cross-pass replay: `memo` remembers the
/// previous pass's canopies and `delta_grams` holds the interned
/// gram-id set of every point the delta added or removed (for removed
/// points, captured before their features were dropped; ids must come
/// from `cache`'s own vocabulary).
///
/// A surviving center's candidate set changes only if some delta point
/// is within the **loose** threshold of it — Jaccard is pairwise, so
/// adding or removing *other* points never changes a center↔member
/// similarity. The dirty set is therefore computed exactly: one index
/// query per delta gram set marks every point at `loose`-similarity or
/// above; everything else **replays** its remembered canopy (members
/// *and* tight-threshold eligibility removals) without touching the
/// index.
///
/// **Byte-identical** to running [`canopies_cached`] from scratch on
/// the same points: dirty centers, new points, and points whose
/// eligibility cascaded open query the freshly built index, exactly as
/// the full pass would. The memo is replaced with this pass's canopies.
///
/// # Panics
/// Panics if `tight < loose`, or if `loose <= 0` (a non-positive loose
/// threshold admits gram-disjoint members, breaking the dirty-set
/// argument; the full pass has no such restriction).
pub fn canopies_cached_incremental(
    points: &[EntityId],
    cache: &FeatureCache,
    params: &CanopyParams,
    memo: &mut CanopyMemo,
    delta_grams: &[Vec<u32>],
) -> (Vec<Vec<EntityId>>, CanopyDelta) {
    assert!(
        params.loose > 0.0,
        "incremental canopies need a positive loose threshold"
    );
    assert!(
        params.tight >= params.loose,
        "canopy tight threshold must be ≥ loose threshold"
    );
    // A memo recorded under different parameters cannot replay.
    if memo.params.is_some_and(|p| {
        p.ngram != params.ngram || p.loose != params.loose || p.tight != params.tight
    }) {
        memo.clear();
    }

    static EMPTY: [u32; 0] = [];
    let sets: Vec<&[u32]> = points
        .iter()
        .map(|&e| cache.get(e).map_or(&EMPTY[..], |f| f.grams.as_slice()))
        .collect();
    let index =
        InvertedIndex::from_gram_ids(&sets, cache.gram_interner().len(), cache.config().ngram);
    let position: FxHashMap<EntityId, usize> =
        points.iter().enumerate().map(|(i, &e)| (e, i)).collect();

    // Dirty = every surviving point within the loose threshold of a
    // delta point (its canopy candidate set gained or lost a member).
    let mut counter = OverlapCounter::new(&index);
    let mut dirty: FxHashSet<EntityId> = FxHashSet::default();
    for grams in delta_grams {
        if grams.is_empty() {
            continue;
        }
        for &(doc, _) in counter.above(grams, grams.len() as u32, params.loose) {
            dirty.insert(points[doc as usize]);
        }
    }

    let mut center_eligible = vec![true; points.len()];
    let mut out: Vec<Vec<EntityId>> = Vec::new();
    let mut next_memo: FxHashMap<EntityId, StoredCanopy> = FxHashMap::default();
    let mut delta = CanopyDelta::default();
    for center in 0..points.len() {
        if !center_eligible[center] {
            continue;
        }
        center_eligible[center] = false;
        let entity = points[center];
        let stored = (!dirty.contains(&entity))
            .then(|| memo.members_of(entity))
            .flatten();
        let members: Vec<(EntityId, bool)> = match stored {
            Some(canopy) => {
                delta.replayed += 1;
                canopy.members.clone()
            }
            None => {
                delta.recomputed += 1;
                let mut members = vec![(entity, true)];
                let query = sets[center];
                for &(doc, sim) in counter.above(query, query.len() as u32, params.loose) {
                    let doc_idx = doc as usize;
                    if doc_idx == center {
                        continue;
                    }
                    members.push((points[doc_idx], sim >= params.tight));
                }
                members
            }
        };
        for &(member, tight) in &members {
            if tight && member != entity {
                center_eligible[position[&member]] = false;
            }
        }
        out.push(members.iter().map(|&(e, _)| e).collect());
        next_memo.insert(entity, StoredCanopy { members });
    }

    // Diff the memos: canopies that changed shape, appeared, or vanished.
    for (center, stored) in &memo.canopies {
        match next_memo.get(center) {
            Some(new) if new == stored => {}
            other => delta.changed.push(ChangedCanopy {
                center: *center,
                old_members: stored.members.iter().map(|&(e, _)| e).collect(),
                new_members: other
                    .map(|c| c.members.iter().map(|&(e, _)| e).collect())
                    .unwrap_or_default(),
            }),
        }
    }
    for (center, new) in &next_memo {
        if !memo.canopies.contains_key(center) {
            delta.changed.push(ChangedCanopy {
                center: *center,
                old_members: Vec::new(),
                new_members: new.members.iter().map(|&(e, _)| e).collect(),
            });
        }
    }
    delta.changed.sort_by_key(|c| c.center);

    memo.params = Some(*params);
    memo.canopies = next_memo;
    (out, delta)
}

fn run_canopies(
    entities: &[EntityId],
    queries: &[Query<'_>],
    index: &InvertedIndex,
    params: &CanopyParams,
) -> Vec<Vec<EntityId>> {
    assert!(
        params.tight >= params.loose,
        "canopy tight threshold must be ≥ loose threshold"
    );
    let mut counter = OverlapCounter::new(index);
    let mut center_eligible = vec![true; entities.len()];
    let mut out: Vec<Vec<EntityId>> = Vec::new();
    for center in 0..entities.len() {
        if !center_eligible[center] {
            continue;
        }
        center_eligible[center] = false;
        let mut members = vec![entities[center]];
        let text_ids;
        let (ids, query_grams) = match queries[center] {
            Query::Text(s) => {
                text_ids = index.query_gram_ids(s);
                (&text_ids.0[..], text_ids.1)
            }
            Query::GramIds(ids) => (ids, ids.len() as u32),
        };
        for &(doc, sim) in counter.above(ids, query_grams, params.loose) {
            let doc_idx = doc as usize;
            if doc_idx == center {
                continue;
            }
            members.push(entities[doc_idx]);
            if sim >= params.tight {
                center_eligible[doc_idx] = false;
            }
        }
        out.push(members);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn points(names: &[&str]) -> Vec<(EntityId, String)> {
        names
            .iter()
            .enumerate()
            .map(|(i, s)| (e(i as u32), (*s).to_owned()))
            .collect()
    }

    #[test]
    fn every_entity_is_covered() {
        let pts = points(&["john smith", "jon smith", "jane doe", "zzz qqq"]);
        let cs = canopies(&pts, &CanopyParams::default());
        let mut covered = vec![false; pts.len()];
        for c in &cs {
            for m in c {
                covered[m.0 as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "canopies must cover everything");
    }

    #[test]
    fn near_duplicates_share_a_canopy() {
        let pts = points(&["john smith", "john smith", "jane doe"]);
        let cs = canopies(&pts, &CanopyParams::default());
        assert!(
            cs.iter().any(|c| c.contains(&e(0)) && c.contains(&e(1))),
            "duplicates must co-occur: {cs:?}"
        );
        // An exact duplicate of a previous center cannot seed its own
        // canopy (it was removed by the tight threshold).
        let seeded_by_duplicate = cs.iter().filter(|c| c[0] == e(1)).count();
        assert_eq!(seeded_by_duplicate, 0);
    }

    #[test]
    fn dissimilar_names_do_not_mix() {
        let pts = points(&["john smith", "minos garofalakis"]);
        let cs = canopies(&pts, &CanopyParams::default());
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0], vec![e(0)]);
        assert_eq!(cs[1], vec![e(1)]);
    }

    #[test]
    fn loose_threshold_creates_overlap() {
        // b is close to both a and c, which are far from each other: with
        // a loose-but-not-tight band, b joins a's canopy yet still seeds
        // (or joins) another canopy with c.
        let pts = points(&["aaaa bbbb", "aaaa bbbc", "aaab bbcc"]);
        let params = CanopyParams {
            ngram: 2,
            loose: 0.30,
            tight: 0.95,
        };
        let cs = canopies(&pts, &params);
        let containing_b = cs.iter().filter(|c| c.contains(&e(1))).count();
        assert!(containing_b >= 2, "loose members overlap: {cs:?}");
    }

    #[test]
    #[should_panic(expected = "tight threshold")]
    fn inverted_thresholds_panic() {
        let pts = points(&["x"]);
        let params = CanopyParams {
            ngram: 2,
            loose: 0.9,
            tight: 0.1,
        };
        let _ = canopies(&pts, &params);
    }

    #[test]
    fn cached_path_matches_string_path() {
        use em_similarity::FeatureConfig;
        let pts = points(&["john smith", "jon smith", "j smith", "jane doe", "j doe"]);
        for params in [
            CanopyParams::default(),
            CanopyParams {
                ngram: 2,
                loose: 0.3,
                tight: 0.9,
            },
        ] {
            let cache = FeatureCache::from_points(
                &pts,
                0,
                FeatureConfig {
                    ngram: params.ngram,
                },
            );
            let ids: Vec<EntityId> = pts.iter().map(|&(e, _)| e).collect();
            assert_eq!(
                canopies(&pts, &params),
                canopies_cached(&ids, &cache, &params),
                "ngram={}",
                params.ngram
            );
        }
    }

    #[test]
    fn cached_path_gives_featureless_entities_singletons() {
        use em_similarity::FeatureConfig;
        let pts = points(&["john smith", "jon smith"]);
        let cache = FeatureCache::from_points(&pts, 0, FeatureConfig::default());
        // e2 has no cached features.
        let ids = vec![e(0), e(1), e(2)];
        let cs = canopies_cached(&ids, &cache, &CanopyParams::default());
        assert!(cs.iter().any(|c| c == &vec![e(2)]));
    }

    /// Deterministic pseudo-random walk of add/remove steps; after each
    /// step the incremental pass must equal the from-scratch pass.
    #[test]
    fn incremental_canopies_match_full_pass_under_churn() {
        use em_similarity::FeatureConfig;
        let names = [
            "john smith",
            "jon smith",
            "j smith",
            "jane doe",
            "j doe",
            "john smithe",
            "jane smith",
            "minos garofalakis",
            "m garofalakis",
            "vibhor rastogi",
            "v rastogi",
            "nilesh dalvi",
        ];
        let all: Vec<(EntityId, String)> = names
            .iter()
            .enumerate()
            .map(|(i, s)| (e(i as u32), (*s).to_owned()))
            .collect();
        for params in [
            CanopyParams::default(),
            CanopyParams {
                ngram: 2,
                loose: 0.3,
                tight: 0.9,
            },
        ] {
            // One cache over every entity (the canopy pass only reads the
            // points it is given; a session's cache is append-only the
            // same way).
            let cache = FeatureCache::from_points(
                &all,
                all.len(),
                FeatureConfig {
                    ngram: params.ngram,
                },
            );
            let mut live: Vec<EntityId> = (0..6).map(e).collect();
            let mut memo = CanopyMemo::new();
            // Seed pass.
            let (first, delta) =
                canopies_cached_incremental(&live, &cache, &params, &mut memo, &[]);
            assert_eq!(first, canopies_cached(&live, &cache, &params));
            assert_eq!(delta.replayed, 0, "cold memo replays nothing");

            // A deterministic interleaving of adds and removes.
            let mut rng = 0x9E3779B97F4A7C15u64;
            let mut next_add = 6usize;
            for step in 0..10 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut delta_grams: Vec<Vec<u32>> = Vec::new();
                if step % 2 == 0 && next_add < all.len() {
                    let (id, _) = &all[next_add];
                    live.push(*id);
                    live.sort_unstable();
                    next_add += 1;
                    delta_grams.push(cache.get(*id).unwrap().grams.clone());
                } else if live.len() > 2 {
                    // Remove a pseudo-random live entity.
                    let victim = live[(rng % live.len() as u64) as usize];
                    live.retain(|&l| l != victim);
                    delta_grams.push(cache.get(victim).unwrap().grams.clone());
                }
                let (incr, _) =
                    canopies_cached_incremental(&live, &cache, &params, &mut memo, &delta_grams);
                let full = canopies_cached(&live, &cache, &params);
                assert_eq!(incr, full, "step {step} params {params:?}");
            }
        }
    }

    #[test]
    fn incremental_replays_untouched_canopies() {
        use em_similarity::FeatureConfig;
        let pts = points(&["john smith", "jon smith", "minos garofalakis", "zzz qqq"]);
        let cache = FeatureCache::from_points(&pts, pts.len(), FeatureConfig::default());
        let ids: Vec<EntityId> = pts.iter().map(|&(en, _)| en).collect();
        let params = CanopyParams::default();
        let mut memo = CanopyMemo::new();
        let (first, _) = canopies_cached_incremental(&ids, &cache, &params, &mut memo, &[]);
        // No change at all: everything replays.
        let (second, delta) = canopies_cached_incremental(&ids, &cache, &params, &mut memo, &[]);
        assert_eq!(first, second);
        assert_eq!(delta.recomputed, 0);
        assert_eq!(delta.replayed, first.len() as u64);
        assert!(delta.changed.is_empty());
        // A delta gram set similar only to the disjoint e3 recomputes
        // exactly its canopy; everything else still replays.
        let gram_footprint = cache.get(e(3)).unwrap().grams.clone();
        let (third, delta) =
            canopies_cached_incremental(&ids, &cache, &params, &mut memo, &[gram_footprint]);
        assert_eq!(first, third);
        assert_eq!(delta.recomputed, 1);
        assert!(delta.changed.is_empty(), "same members → not changed");
    }

    #[test]
    fn changed_canopies_report_old_and_new_members() {
        use em_similarity::FeatureConfig;
        let params = CanopyParams::default();
        let all = points(&["john smith", "jon smith", "jane doe"]);
        let cache = FeatureCache::from_points(&all, all.len(), FeatureConfig::default());
        let mut memo = CanopyMemo::new();
        let ids: Vec<EntityId> = all.iter().map(|&(en, _)| en).collect();
        let (_, _) = canopies_cached_incremental(&ids, &cache, &params, &mut memo, &[]);
        // Remove e1 (a member of e0's canopy): e0 falls within loose of
        // the removed grams → dirty, its canopy shrinks, and e1's own
        // canopy (if any) vanishes.
        let live = vec![e(0), e(2)];
        let removed = cache.get(e(1)).unwrap().grams.clone();
        let (canopies, delta) =
            canopies_cached_incremental(&live, &cache, &params, &mut memo, &[removed]);
        assert_eq!(canopies, canopies_cached(&live, &cache, &params));
        let changed_centers: Vec<EntityId> = delta.changed.iter().map(|c| c.center).collect();
        assert!(changed_centers.contains(&e(0)), "{changed_centers:?}");
        let c0 = delta.changed.iter().find(|c| c.center == e(0)).unwrap();
        assert!(c0.old_members.contains(&e(1)));
        assert!(!c0.new_members.contains(&e(1)));
    }

    #[test]
    #[should_panic(expected = "positive loose threshold")]
    fn incremental_rejects_non_positive_loose() {
        use em_similarity::FeatureConfig;
        let pts = points(&["x y"]);
        let cache = FeatureCache::from_points(&pts, 1, FeatureConfig::default());
        let params = CanopyParams {
            ngram: 3,
            loose: 0.0,
            tight: 0.5,
        };
        let mut memo = CanopyMemo::new();
        let _ = canopies_cached_incremental(&[e(0)], &cache, &params, &mut memo, &[]);
    }

    #[test]
    fn deterministic_across_runs() {
        let pts = points(&["john smith", "jon smith", "j smith", "jane doe", "j doe"]);
        let a = canopies(&pts, &CanopyParams::default());
        let b = canopies(&pts, &CanopyParams::default());
        assert_eq!(a, b);
    }
}
