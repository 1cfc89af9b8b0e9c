//! The pair → neighborhood dependency index behind the delta scheduler.
//!
//! Message passing converges because new evidence only perturbs the
//! neighborhoods that *share pairs* with the delta (the paper's own
//! scaling argument). Acting on that requires answering "which
//! neighborhoods can use pair `p` as evidence?" for every pair of every
//! delta — previously an ad-hoc `Cover::containing_pair` sorted-list
//! intersection (with a fresh allocation) per pair per message. The
//! [`DependencyIndex`] is built **once** per run from the [`Cover`]:
//!
//! * `pair → neighborhood ids` for every candidate pair of the dataset
//!   (the common case: matcher outputs and messages are candidate pairs);
//! * `entity → neighborhood ids`, for the fallback when user-supplied
//!   evidence mentions non-candidate pairs;
//! * `neighborhood → overlapping neighborhoods` via shared entities — the
//!   coarse adjacency that upper-bounds pair routing, useful for sharding
//!   and diagnostics.
//!
//! [`super::Worklist`] schedules over this index: a delta pair activates
//! exactly the neighborhoods containing both endpoints, and the pair is
//! recorded in each activated neighborhood's dirty set so the evaluation
//! can update its cached local evidence (and, for MMP, invalidate only
//! the conditioned probes the pair can actually affect).

use crate::cover::{Cover, NeighborhoodId};
use crate::dataset::Dataset;
use crate::hash::FxHashMap;
use crate::pair::Pair;

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb);
    }
}

/// Immutable pair/entity → neighborhood dependency index of one cover.
#[derive(Debug, Clone)]
pub struct DependencyIndex {
    /// Candidate pair → ids of neighborhoods containing both endpoints,
    /// ascending.
    pair_index: FxHashMap<Pair, Vec<NeighborhoodId>>,
    /// Entity → ids of neighborhoods containing it, ascending (the
    /// fallback for non-candidate evidence pairs).
    entity_index: Vec<Vec<NeighborhoodId>>,
    /// Number of neighborhoods in the cover.
    neighborhoods: usize,
    /// Neighborhood → ids of *other* neighborhoods sharing at least one
    /// entity, ascending. Derived from `entity_index` on first use —
    /// the schedulers never need it, so framework runs do not pay the
    /// quadratic-in-overlap construction.
    overlaps: std::sync::OnceLock<Vec<Vec<NeighborhoodId>>>,
}

impl DependencyIndex {
    /// Build the index for `cover` over `dataset`. One pass over the
    /// candidate pairs plus one over the cover's membership lists.
    pub fn build(dataset: &Dataset, cover: &Cover) -> Self {
        let entity_index: Vec<Vec<NeighborhoodId>> = (0..dataset.entities.len())
            .map(|e| {
                cover
                    .containing_entity(crate::entity::EntityId(e as u32))
                    .to_vec()
            })
            .collect();

        let mut pair_index: FxHashMap<Pair, Vec<NeighborhoodId>> = FxHashMap::default();
        pair_index.reserve(dataset.candidate_count());
        for (pair, _) in dataset.candidate_pairs() {
            let ids = cover.containing_pair(pair);
            if !ids.is_empty() {
                pair_index.insert(pair, ids);
            }
        }

        Self {
            pair_index,
            entity_index,
            neighborhoods: cover.len(),
            overlaps: std::sync::OnceLock::new(),
        }
    }

    /// Derive a **shard-local** index: every neighborhood list of this
    /// index filtered to `members`, so routing a pair through the result
    /// activates only the member neighborhoods. A pure filter over the
    /// already-built structures — O(index size), no dataset re-scan — so
    /// a sharded runtime builds the full index once and restricts it `k`
    /// times. The result still spans the full id space (dirty sets and
    /// worklists stay indexable by global [`NeighborhoodId`]); pairs with
    /// no member neighborhood are simply not indexed and route nowhere.
    pub fn restrict_to(&self, members: &[NeighborhoodId]) -> Self {
        let mut keep = vec![false; self.neighborhoods];
        for id in members {
            keep[id.index()] = true;
        }
        let entity_index: Vec<Vec<NeighborhoodId>> = self
            .entity_index
            .iter()
            .map(|ids| ids.iter().copied().filter(|id| keep[id.index()]).collect())
            .collect();
        let pair_index: FxHashMap<Pair, Vec<NeighborhoodId>> = self
            .pair_index
            .iter()
            .filter_map(|(pair, ids)| {
                let ids: Vec<NeighborhoodId> =
                    ids.iter().copied().filter(|id| keep[id.index()]).collect();
                (!ids.is_empty()).then_some((*pair, ids))
            })
            .collect();

        Self {
            pair_index,
            entity_index,
            neighborhoods: self.neighborhoods,
            overlaps: std::sync::OnceLock::new(),
        }
    }

    /// Connected components of the neighborhood-overlap graph (two
    /// neighborhoods are adjacent when they share an entity), each sorted
    /// ascending, ordered by smallest member id. The *coarse* adjacency:
    /// it upper-bounds every finer notion of interaction, so disjoint
    /// overlap components are fully independent sub-problems. Canopy
    /// covers chain heavily through shared entities, which is why
    /// sharding works on [`DependencyIndex::evidence_components`] — the
    /// exact routing adjacency — instead.
    pub fn overlap_components(&self) -> Vec<Vec<NeighborhoodId>> {
        self.components_of(|parent| {
            for ids in &self.entity_index {
                for w in ids.windows(2) {
                    union(parent, w[0].index(), w[1].index());
                }
            }
        })
    }

    /// Connected components of the **evidence-routing** graph: two
    /// neighborhoods are adjacent when they share a candidate pair (both
    /// endpoints in both neighborhoods) — exactly the condition under
    /// which one neighborhood's output is evidence for the other, and
    /// the condition under which two maximal messages can overlap and
    /// must merge. A partition along these components keeps all
    /// candidate-pair routing and all message merging within a part;
    /// they refine [`DependencyIndex::overlap_components`] (sharing a
    /// pair implies sharing both its endpoints).
    pub fn evidence_components(&self) -> Vec<Vec<NeighborhoodId>> {
        self.components_of(|parent| self.link_evidence(parent))
    }

    /// The number of distinct [`DependencyIndex::evidence_components`]
    /// the neighborhoods `ids` fall in, counted over the union-find
    /// roots without listing any component.
    pub fn evidence_components_among(
        &self,
        ids: impl IntoIterator<Item = NeighborhoodId>,
    ) -> usize {
        let mut parent: Vec<usize> = (0..self.neighborhoods).collect();
        self.link_evidence(&mut parent);
        let mut roots: Vec<usize> = ids
            .into_iter()
            .map(|id| find(&mut parent, id.index()))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    fn link_evidence(&self, parent: &mut [usize]) {
        for ids in self.pair_index.values() {
            for w in ids.windows(2) {
                union(parent, w[0].index(), w[1].index());
            }
        }
    }

    fn components_of(&self, link: impl FnOnce(&mut [usize])) -> Vec<Vec<NeighborhoodId>> {
        let mut parent: Vec<usize> = (0..self.neighborhoods).collect();
        link(&mut parent);
        let mut by_root: FxHashMap<usize, Vec<NeighborhoodId>> = FxHashMap::default();
        for i in 0..self.neighborhoods {
            let root = find(&mut parent, i);
            by_root
                .entry(root)
                .or_default()
                .push(NeighborhoodId(i as u32));
        }
        let mut components: Vec<Vec<NeighborhoodId>> = by_root.into_values().collect();
        // Members are pushed in ascending id order; sort components by
        // their smallest member for a deterministic listing.
        components.sort_unstable_by_key(|c| c[0]);
        components
    }

    fn compute_overlaps(&self) -> Vec<Vec<NeighborhoodId>> {
        let mut overlaps: Vec<Vec<NeighborhoodId>> = vec![Vec::new(); self.neighborhoods];
        for ids in &self.entity_index {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    overlaps[a.index()].push(b);
                    overlaps[b.index()].push(a);
                }
            }
        }
        for list in &mut overlaps {
            list.sort_unstable();
            list.dedup();
        }
        overlaps
    }

    /// Neighborhoods containing both endpoints of a *candidate* pair,
    /// ascending. Empty for pairs outside the index (non-candidates or
    /// pairs no neighborhood contains); use
    /// [`DependencyIndex::for_each_neighborhood`] when non-candidate
    /// evidence must be routed too.
    pub fn neighborhoods_of(&self, pair: Pair) -> &[NeighborhoodId] {
        self.pair_index.get(&pair).map_or(&[], Vec::as_slice)
    }

    /// Visit every neighborhood containing both endpoints of `pair`,
    /// falling back to an entity-index intersection for pairs outside the
    /// candidate index (user evidence may mention arbitrary pairs).
    pub fn for_each_neighborhood(&self, pair: Pair, mut f: impl FnMut(NeighborhoodId)) {
        if let Some(ids) = self.pair_index.get(&pair) {
            for &id in ids {
                f(id);
            }
            return;
        }
        let a = self.entity_lists(pair.lo());
        let b = self.entity_lists(pair.hi());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    f(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    fn entity_lists(&self, e: crate::entity::EntityId) -> &[NeighborhoodId] {
        self.entity_index.get(e.index()).map_or(&[], Vec::as_slice)
    }

    /// Neighborhoods sharing at least one entity with `id` (excluding
    /// `id` itself), ascending. For any pair `p`,
    /// `neighborhoods_of(p)` is contained in `{n} ∪ overlapping(n)` for
    /// every `n` containing `p` — the coarse adjacency bound, useful for
    /// sharding and diagnostics. Computed lazily on first call.
    pub fn overlapping(&self, id: NeighborhoodId) -> &[NeighborhoodId] {
        &self.overlaps.get_or_init(|| self.compute_overlaps())[id.index()]
    }

    /// Number of indexed candidate pairs.
    pub fn indexed_pairs(&self) -> usize {
        self.pair_index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SimLevel;
    use crate::entity::EntityId;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    /// Overlapping canopy-style cover: C0 = {0,1,2}, C1 = {2,3,4},
    /// C2 = {0,4,5} — every adjacent canopy shares an entity.
    fn overlapping_world() -> (Dataset, Cover) {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..6 {
            ds.entities.add_entity(ty);
        }
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (2, 4)] {
            ds.set_similar(Pair::new(e(a), e(b)), SimLevel(2));
        }
        let cover = Cover::from_neighborhoods(vec![
            vec![e(0), e(1), e(2)],
            vec![e(2), e(3), e(4)],
            vec![e(0), e(4), e(5)],
        ]);
        (ds, cover)
    }

    #[test]
    fn pair_index_matches_cover_lookup_on_every_candidate() {
        let (ds, cover) = overlapping_world();
        let index = DependencyIndex::build(&ds, &cover);
        let mut indexed = 0usize;
        for (pair, _) in ds.candidate_pairs() {
            let expected = cover.containing_pair(pair);
            assert_eq!(
                index.neighborhoods_of(pair),
                expected.as_slice(),
                "pair {pair} routed incompletely"
            );
            if !expected.is_empty() {
                indexed += 1;
            }
        }
        assert_eq!(index.indexed_pairs(), indexed);
        // Pairs contained in two overlapping canopies route to both.
        assert_eq!(
            index.neighborhoods_of(Pair::new(e(2), e(4))),
            &[NeighborhoodId(1)],
            "(2,4) is only jointly contained in C1"
        );
        let mut visited = Vec::new();
        index.for_each_neighborhood(Pair::new(e(0), e(4)), |id| visited.push(id));
        assert_eq!(visited, vec![NeighborhoodId(2)]);
    }

    #[test]
    fn non_candidate_pairs_fall_back_to_the_entity_index() {
        let (ds, cover) = overlapping_world();
        let index = DependencyIndex::build(&ds, &cover);
        // (0, 2) is not a candidate pair but lives wholly inside C0.
        let pair = Pair::new(e(0), e(2));
        assert!(index.neighborhoods_of(pair).is_empty(), "not indexed");
        let mut visited = Vec::new();
        index.for_each_neighborhood(pair, |id| visited.push(id));
        assert_eq!(visited, cover.containing_pair(pair));
        assert_eq!(visited, vec![NeighborhoodId(0)]);
        // A pair no neighborhood contains routes nowhere.
        let mut none = Vec::new();
        index.for_each_neighborhood(Pair::new(e(1), e(5)), |id| none.push(id));
        assert!(none.is_empty());
    }

    #[test]
    fn overlaps_list_neighborhoods_sharing_entities() {
        let (ds, cover) = overlapping_world();
        let index = DependencyIndex::build(&ds, &cover);
        assert_eq!(
            index.overlapping(NeighborhoodId(0)),
            &[NeighborhoodId(1), NeighborhoodId(2)]
        );
        assert_eq!(
            index.overlapping(NeighborhoodId(1)),
            &[NeighborhoodId(0), NeighborhoodId(2)]
        );
        // Overlap adjacency bounds pair routing: every neighborhood of a
        // pair is the neighborhood itself or one of its overlaps.
        for (pair, _) in ds.candidate_pairs() {
            let routed = index.neighborhoods_of(pair);
            for &n in routed {
                for &m in routed {
                    assert!(
                        n == m || index.overlapping(n).contains(&m),
                        "{pair}: {n} and {m} must overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_components_merge_transitively() {
        let (ds, cover) = overlapping_world();
        let index = DependencyIndex::build(&ds, &cover);
        // C0–C1 share e2, C1–C2 share e4, C0–C2 share e0: one component.
        assert_eq!(
            index.overlap_components(),
            vec![vec![
                NeighborhoodId(0),
                NeighborhoodId(1),
                NeighborhoodId(2)
            ]]
        );
    }

    #[test]
    fn every_pair_routes_within_one_evidence_component() {
        // The sharding invariant: all neighborhoods of a candidate pair
        // fall in the same evidence component (hence also in the same,
        // coarser, overlap component).
        let (ds, cover) = overlapping_world();
        let index = DependencyIndex::build(&ds, &cover);
        for components in [index.evidence_components(), index.overlap_components()] {
            let component_of = |id: NeighborhoodId| {
                components
                    .iter()
                    .position(|c| c.contains(&id))
                    .expect("every neighborhood is in a component")
            };
            for (pair, _) in ds.candidate_pairs() {
                let routed = index.neighborhoods_of(pair);
                for w in routed.windows(2) {
                    assert_eq!(
                        component_of(w[0]),
                        component_of(w[1]),
                        "{pair} spans components"
                    );
                }
            }
        }
    }

    #[test]
    fn evidence_components_among_counts_the_listed_components() {
        let (ds, cover) = overlapping_world();
        let index = DependencyIndex::build(&ds, &cover);
        let components = index.evidence_components();
        let component_of = |id: NeighborhoodId| {
            components
                .iter()
                .position(|c| c.contains(&id))
                .expect("every neighborhood is in a component")
        };
        let all: Vec<NeighborhoodId> = cover.ids().collect();
        assert_eq!(
            index.evidence_components_among(all.clone()),
            components.len()
        );
        assert_eq!(index.evidence_components_among([]), 0);
        for &a in &all {
            for &b in &all {
                let distinct = if component_of(a) == component_of(b) {
                    1
                } else {
                    2
                };
                assert_eq!(index.evidence_components_among([a, b, a]), distinct);
            }
        }
    }

    #[test]
    fn evidence_components_refine_overlap_components() {
        // C0 = {0,1,2} and C2 = {0,4,5} share entity 0 but no candidate
        // pair (no similar pair has both endpoints in both), so the
        // evidence graph separates what the entity-overlap graph chains.
        let (ds, cover) = overlapping_world();
        let index = DependencyIndex::build(&ds, &cover);
        let overlap = index.overlap_components();
        let evidence = index.evidence_components();
        assert_eq!(overlap.len(), 1, "entity overlap chains everything");
        assert!(
            evidence.len() >= overlap.len(),
            "evidence components are at least as fine"
        );
        // Every evidence component is wholly inside one overlap component.
        for ec in &evidence {
            let host = overlap
                .iter()
                .find(|oc| oc.contains(&ec[0]))
                .expect("host overlap component");
            assert!(ec.iter().all(|id| host.contains(id)));
        }
    }

    #[test]
    fn restrict_to_limits_routing_to_members() {
        let (ds, cover) = overlapping_world();
        let full = DependencyIndex::build(&ds, &cover);
        let members = [NeighborhoodId(0), NeighborhoodId(2)];
        let local = full.restrict_to(&members);
        for (pair, _) in ds.candidate_pairs() {
            let expected: Vec<NeighborhoodId> = full
                .neighborhoods_of(pair)
                .iter()
                .copied()
                .filter(|id| members.contains(id))
                .collect();
            assert_eq!(local.neighborhoods_of(pair), expected.as_slice(), "{pair}");
        }
        // The entity fallback is restricted too: (0,2) lives wholly in C0.
        let mut visited = Vec::new();
        local.for_each_neighborhood(Pair::new(e(0), e(2)), |id| visited.push(id));
        assert_eq!(visited, vec![NeighborhoodId(0)]);
        // A pair only contained in the excluded C1 routes nowhere.
        let mut none = Vec::new();
        local.for_each_neighborhood(Pair::new(e(2), e(3)), |id| none.push(id));
        assert!(none.is_empty());
    }

    #[test]
    fn disjoint_neighborhoods_have_no_overlaps() {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        for _ in 0..4 {
            ds.entities.add_entity(ty);
        }
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(1));
        ds.set_similar(Pair::new(e(2), e(3)), SimLevel(1));
        let cover = Cover::from_neighborhoods(vec![vec![e(0), e(1)], vec![e(2), e(3)]]);
        let index = DependencyIndex::build(&ds, &cover);
        assert!(index.overlapping(NeighborhoodId(0)).is_empty());
        assert!(index.overlapping(NeighborhoodId(1)).is_empty());
        assert_eq!(
            index.neighborhoods_of(Pair::new(e(0), e(1))),
            &[NeighborhoodId(0)]
        );
        assert_eq!(
            index.overlap_components(),
            vec![vec![NeighborhoodId(0)], vec![NeighborhoodId(1)]]
        );
    }
}
