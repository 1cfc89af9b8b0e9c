//! Entity-keyed evidence index: a neighborhood's local evidence in
//! O(the view members' evidence degree) instead of O(|M+|).
//!
//! Every scheme runs the matcher on a neighborhood against the evidence
//! restricted to that neighborhood's view. Filtering the whole pair set
//! per view ([`View::restrict`]) costs the size of the accumulating `M+`
//! on every first visit, so a cold run paid O(neighborhoods × |M+|) just
//! to build matcher inputs. [`EvidenceIndex`] files each evidence pair
//! once, under its lower endpoint; walking a view's members as `lo` then
//! finds every pair with both endpoints inside the view.
//!
//! The positive side of a tracked accumulator (a driver's replica of
//! `M+`) catches up lazily from its insertion log — every pair added
//! through the tracked mutators lands there, so no mutation hook is
//! needed. The negative set is fixed for a run and indexed once.

use crate::dataset::View;
use crate::entity::EntityId;
use crate::evidence::Evidence;
use crate::pair::{Pair, PairSet};

/// Per entity, the other endpoint of every evidence pair whose lower
/// endpoint it is — one set of lists for the positive set, one for the
/// negative.
///
/// Mirrors the evidence it was built from as long as that value changes
/// only through tracked insertions (then [`EvidenceIndex::sync`]); the
/// framework's replicas never retract.
#[derive(Debug, Default)]
pub(crate) struct EvidenceIndex {
    positive: Lists,
    negative: Lists,
    /// Length of the positive insertion log already filed.
    synced: usize,
}

impl EvidenceIndex {
    /// Index `evidence`'s current positive and negative sets.
    pub(crate) fn new(evidence: &Evidence) -> Self {
        let mut index = Self {
            synced: evidence.epoch_parts().0.len(),
            ..Self::default()
        };
        for p in evidence.positive.iter() {
            index.positive.file(p);
        }
        for p in evidence.negative.iter() {
            index.negative.file(p);
        }
        index
    }

    /// File the positive pairs `evidence` logged since the last sync (or
    /// since [`EvidenceIndex::new`]). `evidence` must be the tracked value
    /// the index was built from.
    pub(crate) fn sync(&mut self, evidence: &Evidence) {
        let log = evidence.epoch_parts().0;
        for &p in &log[self.synced..] {
            self.positive.file(p);
        }
        self.synced = log.len();
    }

    /// The indexed evidence restricted to `view`, as untracked matcher
    /// input: both sets hold exactly what [`View::restrict`] keeps.
    pub(crate) fn restrict(&self, view: &View<'_>) -> Evidence {
        Evidence::untracked(self.positive.inside(view), self.negative.inside(view))
    }
}

const END: u32 = u32::MAX;

/// One singly linked list per lower endpoint, threaded through flat
/// arrays: three allocations however many entities the pairs mention.
#[derive(Debug, Default)]
struct Lists {
    /// Per entity, its most recently filed entry (or [`END`]).
    head: Vec<u32>,
    /// Per entry, the entry filed before it under the same entity.
    next: Vec<u32>,
    /// Per entry, the pair's higher endpoint.
    hi: Vec<EntityId>,
}

impl Lists {
    fn file(&mut self, p: Pair) {
        let lo = p.lo().index();
        if self.head.len() <= lo {
            self.head.resize(lo + 1, END);
        }
        self.next.push(self.head[lo]);
        self.head[lo] = self.hi.len() as u32;
        self.hi.push(p.hi());
    }

    /// The filed pairs with both endpoints in `view`.
    fn inside(&self, view: &View<'_>) -> PairSet {
        let mut out = PairSet::new();
        for &lo in view.members() {
            let Some(&head) = self.head.get(lo.index()) else {
                break; // members ascend; nothing is filed past the last head
            };
            let mut entry = head;
            while entry != END {
                let hi = self.hi[entry as usize];
                if view.contains(hi) {
                    out.insert(Pair::new(lo, hi));
                }
                entry = self.next[entry as usize];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Cover;
    use crate::dataset::{Dataset, SimLevel};
    use proptest::prelude::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(EntityId(a), EntityId(b))
    }

    /// `n` entities, candidate pairs between every `i` and `i + 1`, and a
    /// cover of the given member lists.
    fn world(n: u32, neighborhoods: &[Vec<u32>]) -> (Dataset, Cover) {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("entity");
        for _ in 0..n {
            ds.entities.add_entity(ty);
        }
        for i in 1..n {
            ds.set_similar(p(i - 1, i), SimLevel(2));
        }
        let cover = Cover::from_neighborhoods(
            neighborhoods
                .iter()
                .map(|m| m.iter().map(|&e| EntityId(e)).collect::<Vec<_>>()),
        );
        (ds, cover)
    }

    fn pairs(n: u32, raw: &[(u32, u32)]) -> PairSet {
        raw.iter()
            .map(|&(a, d)| (a % n, (a + 1 + d % (n - 1)) % n))
            .map(|(a, b)| p(a, b))
            .collect()
    }

    /// Every neighborhood's indexed restriction equals `View::restrict`.
    fn assert_oracle(index: &EvidenceIndex, evidence: &Evidence, ds: &Dataset, cover: &Cover) {
        for id in cover.ids() {
            let view = cover.view(ds, id);
            let local = index.restrict(&view);
            assert_eq!(local.positive, view.restrict(&evidence.positive), "{id}");
            assert_eq!(local.negative, view.restrict(&evidence.negative), "{id}");
            assert!(!local.is_tracked());
        }
    }

    #[test]
    fn keeps_non_candidates_and_drops_straddling_pairs() {
        let (ds, cover) = world(6, &[vec![0, 1, 2], vec![2, 3, 4, 5]]);
        // (0, 2) is no candidate pair; (1, 3) straddles both views.
        let positive: PairSet = [p(0, 2), p(1, 3), p(4, 5)].into_iter().collect();
        let negative: PairSet = [p(0, 1), p(2, 5)].into_iter().collect();
        let evidence = Evidence::from_parts(positive, negative);
        let index = EvidenceIndex::new(&evidence);
        let first = index.restrict(&cover.view(&ds, cover.ids().next().unwrap()));
        assert_eq!(first.positive, [p(0, 2)].into_iter().collect());
        assert_eq!(first.negative, [p(0, 1)].into_iter().collect());
        assert_oracle(&index, &evidence, &ds, &cover);
    }

    #[test]
    fn sync_files_pairs_inserted_after_a_first_visit() {
        let (ds, cover) = world(5, &[vec![0, 1, 2], vec![1, 2, 3, 4]]);
        let mut found = Evidence::from_parts([p(0, 1)].into_iter().collect(), PairSet::new());
        let mut index = EvidenceIndex::new(&found);
        assert_oracle(&index, &found, &ds, &cover);
        found.advance_epoch();
        found.insert_positive(p(2, 4));
        found.union_positive(&[p(1, 2), p(0, 4)].into_iter().collect());
        index.sync(&found);
        assert_oracle(&index, &found, &ds, &cover);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random datasets, covers and evidence (non-candidate pairs and
        /// pairs leaving a view included), with more positive pairs
        /// logged after an earlier round of first visits.
        #[test]
        fn indexed_restriction_matches_view_restrict(
            (n, neighborhoods, initial, negative, later) in (
                3u32..24,
                proptest::collection::vec(proptest::collection::vec(0u32..24, 1..10), 1..6),
                proptest::collection::vec((0u32..24, 0u32..24), 0..30),
                proptest::collection::vec((0u32..24, 0u32..24), 0..10),
                proptest::collection::vec((0u32..24, 0u32..24), 0..30),
            )
        ) {
            let neighborhoods: Vec<Vec<u32>> = neighborhoods
                .iter()
                .map(|m| m.iter().map(|&e| e % n).collect())
                .collect();
            let (ds, cover) = world(n, &neighborhoods);
            let mut found = Evidence::from_parts(pairs(n, &initial), pairs(n, &negative));
            let mut index = EvidenceIndex::new(&found);
            assert_oracle(&index, &found, &ds, &cover);
            found.advance_epoch();
            for (i, &raw) in later.iter().enumerate() {
                let pair = pairs(n, &[raw]).iter().next().unwrap();
                if i % 2 == 0 {
                    found.insert_positive(pair);
                } else {
                    found.union_positive(&[pair].into_iter().collect());
                }
            }
            index.sync(&found);
            assert_oracle(&index, &found, &ds, &cover);
        }
    }
}
