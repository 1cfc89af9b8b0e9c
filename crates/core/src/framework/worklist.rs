//! Delta-driven scheduler over the [`DependencyIndex`].
//!
//! Both SMP and MMP maintain the set `A` of active neighborhoods. The
//! pre-epoch worklist was a FIFO + "is queued" bitmap fed by ad-hoc
//! `Cover::containing_pair` scans; the scheduler keeps that dedup (which
//! is what bounds revisits by the `k²` argument of Theorem 3) and adds
//! *routing*: [`Worklist::route`] pushes a new evidence pair to exactly
//! the neighborhoods the dependency index says can use it, recording the
//! pair in each one's **dirty set**. [`Worklist::pop`] hands the
//! evaluation the neighborhood together with everything that became
//! evidence for it since its last evaluation, so the caller can update a
//! cached local-evidence set (instead of restricting `M+` again) and
//! re-probe only what the delta can affect.
//!
//! The index is a parameter of [`Worklist::route`] rather than a stored
//! borrow so a per-shard driver can own its (shard-local) index and its
//! worklist side by side.

use super::DependencyIndex;
use crate::cover::NeighborhoodId;
use crate::pair::{Pair, PairSet};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
pub(crate) struct Worklist {
    queue: VecDeque<NeighborhoodId>,
    queued: Vec<bool>,
    /// Pairs that became positive evidence for each neighborhood since
    /// its last evaluation.
    dirty: Vec<PairSet>,
}

impl Worklist {
    /// Worklist over `n` neighborhood ids, initially containing `seed`
    /// in the given order. Sequential runs seed with every id in id
    /// order; shard drivers seed with their member neighborhoods only
    /// (`n` stays the full cover size so global ids index directly).
    pub(crate) fn seeded(n: usize, seed: impl IntoIterator<Item = NeighborhoodId>) -> Self {
        let mut wl = Self {
            queue: VecDeque::new(),
            queued: vec![false; n],
            dirty: vec![PairSet::new(); n],
        };
        for id in seed {
            wl.push(id);
        }
        wl
    }

    /// Worklist initially containing all `n` neighborhoods in id order.
    pub(crate) fn full(n: usize) -> Self {
        Self::seeded(n, (0..n as u32).map(NeighborhoodId))
    }

    /// Enqueue if not already queued.
    pub(crate) fn push(&mut self, id: NeighborhoodId) {
        if !self.queued[id.index()] {
            self.queued[id.index()] = true;
            self.queue.push_back(id);
        }
    }

    /// Route a new evidence pair: record it in the dirty set of every
    /// neighborhood `index` maps it to and activate each of them — except
    /// `from`, the neighborhood that produced the pair (its own output is
    /// not news to it, but its dirty set still records the pair so its
    /// cached local evidence catches up on the next visit).
    pub(crate) fn route(
        &mut self,
        index: &DependencyIndex,
        pair: Pair,
        from: Option<NeighborhoodId>,
    ) {
        let mut activate: Vec<NeighborhoodId> = Vec::new();
        index.for_each_neighborhood(pair, |id| {
            self.dirty[id.index()].insert(pair);
            if Some(id) != from {
                activate.push(id);
            }
        });
        for id in activate {
            self.push(id);
        }
    }

    /// Dequeue the next active neighborhood together with its accumulated
    /// dirty pairs (ownership transferred; the stored set is reset).
    pub(crate) fn pop(&mut self) -> Option<(NeighborhoodId, PairSet)> {
        let id = self.queue.pop_front()?;
        self.queued[id.index()] = false;
        let dirty = std::mem::take(&mut self.dirty[id.index()]);
        Some((id, dirty))
    }

    /// Whether no neighborhood is active.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Cover;
    use crate::dataset::{Dataset, SimLevel};
    use crate::entity::EntityId;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn world() -> (Dataset, Cover) {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        for _ in 0..5 {
            ds.entities.add_entity(ty);
        }
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(2));
        ds.set_similar(Pair::new(e(1), e(2)), SimLevel(2));
        let cover = Cover::from_neighborhoods(vec![
            vec![e(0), e(1), e(2)],
            vec![e(1), e(2), e(3)],
            vec![e(4)],
        ]);
        (ds, cover)
    }

    #[test]
    fn dedups_enqueues() {
        let mut wl = Worklist::full(2);
        wl.push(NeighborhoodId(0));
        wl.push(NeighborhoodId(1));
        assert_eq!(wl.pop().map(|(id, _)| id), Some(NeighborhoodId(0)));
        assert_eq!(wl.pop().map(|(id, _)| id), Some(NeighborhoodId(1)));
        assert!(wl.is_empty());
        // Re-activation after pop works.
        wl.push(NeighborhoodId(1));
        wl.push(NeighborhoodId(1));
        assert_eq!(wl.pop().map(|(id, _)| id), Some(NeighborhoodId(1)));
        assert!(wl.pop().is_none());
    }

    #[test]
    fn seeded_respects_permutation() {
        let order = [NeighborhoodId(2), NeighborhoodId(0), NeighborhoodId(1)];
        let mut wl = Worklist::seeded(3, order);
        assert_eq!(wl.pop().map(|(id, _)| id), Some(NeighborhoodId(2)));
        assert_eq!(wl.pop().map(|(id, _)| id), Some(NeighborhoodId(0)));
        assert_eq!(wl.pop().map(|(id, _)| id), Some(NeighborhoodId(1)));
    }

    #[test]
    fn routing_activates_containing_neighborhoods_and_records_dirt() {
        let (ds, cover) = world();
        let index = DependencyIndex::build(&ds, &cover);
        let mut wl = Worklist::seeded(3, []);
        // (1,2) lives in C0 and C1; routed from C0, only C1 activates,
        // but both dirty sets record the pair.
        wl.route(&index, Pair::new(e(1), e(2)), Some(NeighborhoodId(0)));
        let (id, dirty) = wl.pop().expect("C1 active");
        assert_eq!(id, NeighborhoodId(1));
        assert!(dirty.contains(Pair::new(e(1), e(2))));
        assert!(wl.is_empty());
        // C0's dirty set was recorded even though it was not activated.
        wl.push(NeighborhoodId(0));
        let (_, dirty0) = wl.pop().unwrap();
        assert!(dirty0.contains(Pair::new(e(1), e(2))));
        // Dirty sets are drained by pop.
        wl.push(NeighborhoodId(0));
        let (_, again) = wl.pop().unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn shard_local_index_routes_only_to_members() {
        let (ds, cover) = world();
        let local = DependencyIndex::build(&ds, &cover).restrict_to(&[NeighborhoodId(0)]);
        let mut wl = Worklist::seeded(3, []);
        // (1,2) lives in C0 and C1 globally; the shard-local index only
        // knows C0.
        wl.route(&local, Pair::new(e(1), e(2)), None);
        assert_eq!(wl.pop().map(|(id, _)| id), Some(NeighborhoodId(0)));
        assert!(wl.is_empty());
    }
}
