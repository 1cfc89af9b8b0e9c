//! The dataset: entities + relations + the discretized `Similar` relation,
//! and bounded *views* of it (the entity subsets matchers run on).
//!
//! Following Appendix B of the paper, attribute similarity enters the
//! matchers through a discretized predicate `similar(e1, e2, level)` with
//! level in `{1, 2, 3}` (3 = most similar). Pairs with a similarity level
//! are the *candidate pairs*: the match variables the matchers decide over.
//! The paper's "1.3M matching decisions" on HEPTH is exactly its candidate
//! pair count.

use crate::entity::{EntityId, EntityStore};
use crate::hash::FxHashMap;
use crate::pair::{Pair, PairSet};
use crate::relation::{RelationId, RelationStore};
use std::sync::OnceLock;

/// Discretized similarity level of a candidate pair (higher = more similar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimLevel(pub u8);

impl SimLevel {
    /// The highest level used by the paper's models.
    pub const MAX: SimLevel = SimLevel(3);
}

/// What [`Dataset::retract_entity`] removed: the entity's relation
/// tuples as `(relation, a, b)` and its candidate pairs with levels.
pub type RetractionFootprint = (Vec<(RelationId, EntityId, EntityId)>, Vec<(Pair, SimLevel)>);

/// A complete entity-matching problem instance.
#[derive(Debug, Default, Clone)]
pub struct Dataset {
    /// All entities and their attributes.
    pub entities: EntityStore,
    /// All relations over the entities.
    pub relations: RelationStore,
    /// Candidate pairs with their similarity level.
    similar: FxHashMap<Pair, SimLevel>,
    /// Per-entity adjacency over candidate pairs: `sim_adj[e]` lists
    /// `(other, level)` for every candidate pair containing `e`.
    sim_adj: Vec<Vec<(EntityId, SimLevel)>>,
}

impl Dataset {
    /// Empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `similar(a, b, level)`, making `(a, b)` a candidate pair.
    ///
    /// Re-inserting an existing pair keeps the *higher* level (a pair found
    /// similar by two criteria keeps its best evidence). Returns `true` if
    /// the pair was new.
    pub fn set_similar(&mut self, pair: Pair, level: SimLevel) -> bool {
        assert!(
            level.0 >= 1,
            "similarity level 0 means 'not a candidate'; do not insert it"
        );
        match self.similar.entry(pair) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if level > *e.get() {
                    let old = *e.get();
                    e.insert(level);
                    self.update_sim_adj(pair, old, level);
                }
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(level);
                let need = pair.hi().index() + 1;
                if self.sim_adj.len() < need {
                    self.sim_adj.resize_with(need, Vec::new);
                }
                self.sim_adj[pair.lo().index()].push((pair.hi(), level));
                self.sim_adj[pair.hi().index()].push((pair.lo(), level));
                true
            }
        }
    }

    fn update_sim_adj(&mut self, pair: Pair, old: SimLevel, new: SimLevel) {
        for (e, other) in [(pair.lo(), pair.hi()), (pair.hi(), pair.lo())] {
            for entry in &mut self.sim_adj[e.index()] {
                if entry.0 == other && entry.1 == old {
                    entry.1 = new;
                    break;
                }
            }
        }
    }

    /// Retract a candidate-pair annotation: `pair` stops being a
    /// candidate (its match variable disappears from every view).
    /// Returns the level it had, if any. The inverse of
    /// [`Dataset::set_similar`]; relative order of the surviving
    /// adjacency entries is preserved.
    pub fn retract_similar(&mut self, pair: Pair) -> Option<SimLevel> {
        let level = self.similar.remove(&pair)?;
        for (e, other) in [(pair.lo(), pair.hi()), (pair.hi(), pair.lo())] {
            let adj = &mut self.sim_adj[e.index()];
            if let Some(i) = adj.iter().position(|&(f, _)| f == other) {
                adj.remove(i);
            }
        }
        Some(level)
    }

    /// Retract an entity: tombstone its id, remove every relation tuple
    /// incident to it, and purge every candidate pair containing it.
    /// Returns the removed tuples (as `(relation, a, b)`) and the purged
    /// candidate pairs with their levels — the raw material rollback
    /// needs to find the ground interactions the retraction destroyed.
    ///
    /// # Panics
    /// Panics if the id was never assigned or is already retracted.
    pub fn retract_entity(&mut self, e: EntityId) -> RetractionFootprint {
        assert!(
            self.entities.is_live(e),
            "retract_entity({e}): not a live entity"
        );
        self.entities.retract(e);
        let tuples = self.relations.retract_entity(e);
        let neighbors: Vec<EntityId> = self
            .sim_neighbors(e)
            .iter()
            .map(|&(other, _)| other)
            .collect();
        let mut pairs = Vec::with_capacity(neighbors.len());
        for other in neighbors {
            let pair = Pair::new(e, other);
            if let Some(level) = self.retract_similar(pair) {
                pairs.push((pair, level));
            }
        }
        (tuples, pairs)
    }

    /// Similarity level of a pair, if it is a candidate pair.
    #[inline]
    pub fn similarity(&self, pair: Pair) -> Option<SimLevel> {
        self.similar.get(&pair).copied()
    }

    /// Whether `pair` is a candidate pair.
    #[inline]
    pub fn is_candidate(&self, pair: Pair) -> bool {
        self.similar.contains_key(&pair)
    }

    /// All candidate pairs with their levels (arbitrary order).
    pub fn candidate_pairs(&self) -> impl Iterator<Item = (Pair, SimLevel)> + '_ {
        self.similar.iter().map(|(p, l)| (*p, *l))
    }

    /// Number of candidate pairs in the dataset.
    pub fn candidate_count(&self) -> usize {
        self.similar.len()
    }

    /// Candidate-pair neighbors of an entity: `(other, level)` lists.
    #[inline]
    pub fn sim_neighbors(&self, e: EntityId) -> &[(EntityId, SimLevel)] {
        self.sim_adj.get(e.index()).map_or(&[], Vec::as_slice)
    }

    /// Install a previously walked per-entity candidate adjacency
    /// verbatim, replacing the current `similar` map and `sim_adj` —
    /// the decode half of [`Dataset::sim_neighbors`] for durable-session
    /// snapshots. Per-entity neighbor *order* is part of the dataset's
    /// observable behavior ([`View::candidate_pairs`] enumerates it), so
    /// replaying [`Dataset::set_similar`] calls cannot reproduce a
    /// churned session's adjacency; this installer can.
    ///
    /// # Panics
    /// Panics if the adjacency is asymmetric (an `(e, other)` entry
    /// without the mirrored `(other, e)` entry at the same level) — a
    /// corrupted snapshot must not produce a half-connected dataset.
    pub fn restore_sim_adjacency(&mut self, sim_adj: Vec<Vec<(EntityId, SimLevel)>>) {
        let mut similar: FxHashMap<Pair, SimLevel> = FxHashMap::default();
        for (i, neighbors) in sim_adj.iter().enumerate() {
            let e = EntityId(i as u32);
            for &(other, level) in neighbors {
                let mirrored = sim_adj
                    .get(other.index())
                    .is_some_and(|adj| adj.contains(&(e, level)));
                assert!(
                    mirrored,
                    "restored adjacency is asymmetric at ({e}, {other})"
                );
                similar.insert(Pair::new(e, other), level);
            }
        }
        self.similar = similar;
        self.sim_adj = sim_adj;
    }

    /// A view over the whole dataset (all live entities). The constant-
    /// time membership fast path only applies while no entity has been
    /// retracted; with tombstones present, membership falls back to the
    /// member list so dead ids test as outside the view.
    pub fn full_view(&self) -> View<'_> {
        let members: Vec<EntityId> = self.entities.ids().collect();
        let full = members.len() == self.entities.len();
        View {
            dataset: self,
            members,
            full,
            sorted_pairs: OnceLock::new(),
        }
    }

    /// A view restricted to `members`. The member list is deduplicated and
    /// sorted internally.
    pub fn view(&self, members: impl IntoIterator<Item = EntityId>) -> View<'_> {
        let mut members: Vec<EntityId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        self.view_of_sorted(members)
    }

    /// A view over a member list the caller already keeps sorted and
    /// deduplicated (a [`crate::cover::Cover`]'s neighborhoods).
    pub(crate) fn view_of_sorted(&self, members: Vec<EntityId>) -> View<'_> {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "view members must be sorted and deduplicated"
        );
        View {
            dataset: self,
            members,
            full: false,
            sorted_pairs: OnceLock::new(),
        }
    }
}

/// A matcher's working set: a subset of the dataset's entities
/// (a *neighborhood* in the paper's terminology) together with the induced
/// relations and candidate pairs.
///
/// Matchers never see entities outside the view; that restriction is what
/// makes neighborhood runs cheap and the monotonicity analysis
/// (`E(C, ·) ⊆ E(E, ·)` for `C ⊆ E`) meaningful.
#[derive(Debug, Clone)]
pub struct View<'a> {
    dataset: &'a Dataset,
    /// Sorted, deduplicated member ids.
    members: Vec<EntityId>,
    /// Fast path for the full dataset: membership is always true.
    full: bool,
    /// [`View::sorted_candidate_pairs`], enumerated on first use.
    sorted_pairs: OnceLock<Vec<(Pair, SimLevel)>>,
}

impl<'a> View<'a> {
    /// The underlying dataset.
    #[inline]
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// Member entities, ascending.
    #[inline]
    pub fn members(&self) -> &[EntityId] {
        &self.members
    }

    /// Number of member entities (the `k` in the paper's complexity bounds).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether this view covers the whole dataset.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Membership test (binary search; O(log k)).
    #[inline]
    pub fn contains(&self, e: EntityId) -> bool {
        self.full || self.members.binary_search(&e).is_ok()
    }

    /// Whether both endpoints of `pair` are members.
    #[inline]
    pub fn contains_pair(&self, pair: Pair) -> bool {
        self.contains(pair.lo()) && self.contains(pair.hi())
    }

    /// Candidate pairs fully inside the view, with levels.
    ///
    /// Enumerated via the per-entity similarity adjacency so the cost is
    /// proportional to the members' candidate degrees, not the dataset size.
    pub fn candidate_pairs(&self) -> Vec<(Pair, SimLevel)> {
        let mut out = Vec::new();
        for &e in &self.members {
            for &(other, level) in self.dataset.sim_neighbors(e) {
                // Emit each pair once, from its lower endpoint.
                if e < other && self.contains(other) {
                    out.push((Pair::new(e, other), level));
                }
            }
        }
        out
    }

    /// [`View::candidate_pairs`] sorted by pair, enumerated and sorted
    /// once per view: every reader of one evaluation (the driver's
    /// active count, the undecided set, grounding, the memo bank's
    /// identity check) shares this list.
    pub fn sorted_candidate_pairs(&self) -> &[(Pair, SimLevel)] {
        self.sorted_pairs.get_or_init(|| {
            let mut pairs = self.candidate_pairs();
            // Each pair is emitted once, so sorting by pair alone is a
            // total order.
            pairs.sort_unstable_by_key(|&(p, _)| p);
            pairs
        })
    }

    /// Restrict a pair set to pairs fully inside the view.
    pub fn restrict(&self, pairs: &PairSet) -> PairSet {
        pairs.iter().filter(|p| self.contains_pair(*p)).collect()
    }

    /// `rel`-neighbors of `e` that are inside the view.
    pub fn rel_neighbors_out(&self, rel: RelationId, e: EntityId) -> Vec<EntityId> {
        self.dataset
            .relations
            .neighbors_out(rel, e)
            .iter()
            .copied()
            .filter(|&f| self.contains(f))
            .collect()
    }

    /// Incoming `rel`-neighbors of `e` inside the view.
    pub fn rel_neighbors_in(&self, rel: RelationId, e: EntityId) -> Vec<EntityId> {
        self.dataset
            .relations
            .neighbors_in(rel, e)
            .iter()
            .copied()
            .filter(|&f| self.contains(f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn small_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..6 {
            ds.entities.add_entity(ty);
        }
        let co = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(co, e(0), e(2));
        ds.relations.add_tuple(co, e(1), e(3));
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(2));
        ds.set_similar(Pair::new(e(2), e(3)), SimLevel(3));
        ds.set_similar(Pair::new(e(4), e(5)), SimLevel(1));
        ds
    }

    #[test]
    fn similar_keeps_highest_level() {
        let mut ds = small_dataset();
        let p = Pair::new(e(0), e(1));
        assert_eq!(ds.similarity(p), Some(SimLevel(2)));
        assert!(!ds.set_similar(p, SimLevel(1)));
        assert_eq!(ds.similarity(p), Some(SimLevel(2)));
        assert!(!ds.set_similar(p, SimLevel(3)));
        assert_eq!(ds.similarity(p), Some(SimLevel(3)));
        // Adjacency must reflect the upgrade on both endpoints.
        assert!(ds.sim_neighbors(e(0)).contains(&(e(1), SimLevel(3))));
        assert!(ds.sim_neighbors(e(1)).contains(&(e(0), SimLevel(3))));
    }

    #[test]
    #[should_panic(expected = "level 0")]
    fn level_zero_is_rejected() {
        let mut ds = small_dataset();
        ds.set_similar(Pair::new(e(0), e(5)), SimLevel(0));
    }

    #[test]
    fn retract_similar_unwinds_annotation_and_adjacency() {
        let mut ds = small_dataset();
        let p = Pair::new(e(0), e(1));
        assert_eq!(ds.retract_similar(p), Some(SimLevel(2)));
        assert_eq!(ds.retract_similar(p), None, "second retraction no-op");
        assert_eq!(ds.similarity(p), None);
        assert!(!ds.is_candidate(p));
        assert!(ds.sim_neighbors(e(0)).is_empty());
        assert!(ds.sim_neighbors(e(1)).is_empty());
        assert_eq!(ds.candidate_count(), 2);
        // Re-annotation after retraction starts fresh (no max-keeping).
        assert!(ds.set_similar(p, SimLevel(1)));
        assert_eq!(ds.similarity(p), Some(SimLevel(1)));
    }

    #[test]
    fn retract_entity_purges_tuples_and_pairs() {
        let mut ds = small_dataset();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let (tuples, pairs) = ds.retract_entity(e(0));
        assert_eq!(tuples, vec![(co, e(0), e(2))]);
        assert_eq!(pairs, vec![(Pair::new(e(0), e(1)), SimLevel(2))]);
        assert!(!ds.entities.is_live(e(0)));
        assert!(!ds.is_candidate(Pair::new(e(0), e(1))));
        assert!(!ds.relations.has_tuple(co, e(0), e(2)));
        // Untouched structure survives.
        assert!(ds.is_candidate(Pair::new(e(2), e(3))));
        assert!(ds.relations.has_tuple(co, e(1), e(3)));
        // Full views no longer list the tombstone.
        assert!(!ds.full_view().members().contains(&e(0)));
        assert_eq!(ds.full_view().candidate_pairs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a live entity")]
    fn retracting_twice_panics() {
        let mut ds = small_dataset();
        ds.retract_entity(e(0));
        ds.retract_entity(e(0));
    }

    #[test]
    fn view_membership_and_pairs() {
        let ds = small_dataset();
        let v = ds.view([e(0), e(1), e(2)]);
        assert_eq!(v.len(), 3);
        assert!(v.contains(e(1)));
        assert!(!v.contains(e(3)));
        assert!(v.contains_pair(Pair::new(e(0), e(1))));
        assert!(!v.contains_pair(Pair::new(e(2), e(3))));
        let pairs = v.candidate_pairs();
        assert_eq!(pairs, vec![(Pair::new(e(0), e(1)), SimLevel(2))]);
    }

    #[test]
    fn view_dedups_members() {
        let ds = small_dataset();
        let v = ds.view([e(2), e(0), e(2), e(0)]);
        assert_eq!(v.members(), &[e(0), e(2)]);
    }

    #[test]
    fn full_view_sees_everything() {
        let ds = small_dataset();
        let v = ds.full_view();
        assert!(v.is_full());
        assert_eq!(v.len(), 6);
        assert_eq!(v.candidate_pairs().len(), 3);
    }

    #[test]
    fn restrict_filters_outside_pairs() {
        let ds = small_dataset();
        let v = ds.view([e(0), e(1)]);
        let all: PairSet = [Pair::new(e(0), e(1)), Pair::new(e(2), e(3))]
            .into_iter()
            .collect();
        let inside = v.restrict(&all);
        assert_eq!(inside.len(), 1);
        assert!(inside.contains(Pair::new(e(0), e(1))));
    }

    #[test]
    fn rel_neighbors_respect_view() {
        let ds = small_dataset();
        let co = ds.relations.relation_id("coauthor").unwrap();
        let v = ds.view([e(0), e(1), e(2)]);
        assert_eq!(v.rel_neighbors_out(co, e(0)), vec![e(2)]);
        // e(3) is outside the view, so e(1) has no visible coauthor.
        assert!(v.rel_neighbors_out(co, e(1)).is_empty());
    }
}
