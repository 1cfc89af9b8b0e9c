//! Covers and neighborhoods (§4 of the paper).
//!
//! A *neighborhood* is a subset of the entities; a *cover* is a set of
//! (possibly overlapping) neighborhoods whose union is the entity set.
//! A cover is *total* w.r.t. the relations (Definition 7) when every
//! relation tuple — and, in our formulation, every candidate pair — is
//! fully contained in at least one neighborhood; tuples crossing all
//! neighborhood boundaries would otherwise be invisible to every matcher
//! run ("lost"). Any cover can be made total by expanding each neighborhood
//! with its relational *boundary*; [`expand_to_total`] implements
//! exactly that construction.
//!
//! The cover also maintains the entity → neighborhoods index that the
//! message-passing schemes use to find which neighborhoods a new match
//! reactivates (`Neighbor(·)` in Algorithms 1 and 3).

use crate::dataset::Dataset;
use crate::entity::EntityId;
use crate::error::{Error, Result};
use crate::pair::Pair;
use std::fmt;

/// Index of a neighborhood within a [`Cover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NeighborhoodId(pub u32);

impl NeighborhoodId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NeighborhoodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A cover: neighborhoods plus the entity → neighborhoods reverse index.
#[derive(Debug, Clone, Default)]
pub struct Cover {
    /// Members of each neighborhood, sorted ascending and deduplicated.
    neighborhoods: Vec<Vec<EntityId>>,
    /// `containing[e]` = ids of neighborhoods containing entity `e`,
    /// ascending.
    containing: Vec<Vec<NeighborhoodId>>,
}

impl Cover {
    /// Build a cover from raw neighborhoods (each is deduplicated and
    /// sorted; empty neighborhoods are dropped).
    pub fn from_neighborhoods<I, N>(neighborhoods: I) -> Self
    where
        I: IntoIterator<Item = N>,
        N: IntoIterator<Item = EntityId>,
    {
        let mut nbhds: Vec<Vec<EntityId>> = Vec::new();
        for n in neighborhoods {
            let mut members: Vec<EntityId> = n.into_iter().collect();
            members.sort_unstable();
            members.dedup();
            if !members.is_empty() {
                nbhds.push(members);
            }
        }
        let mut cover = Self {
            neighborhoods: nbhds,
            containing: Vec::new(),
        };
        cover.rebuild_index();
        cover
    }

    fn rebuild_index(&mut self) {
        let max_entity = self
            .neighborhoods
            .iter()
            .flat_map(|n| n.iter())
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0);
        let mut containing: Vec<Vec<NeighborhoodId>> = vec![Vec::new(); max_entity];
        for (i, members) in self.neighborhoods.iter().enumerate() {
            for e in members {
                containing[e.index()].push(NeighborhoodId(i as u32));
            }
        }
        self.containing = containing;
    }

    /// Number of neighborhoods (the `n` in the paper's complexity bounds).
    pub fn len(&self) -> usize {
        self.neighborhoods.len()
    }

    /// Whether the cover has no neighborhoods.
    pub fn is_empty(&self) -> bool {
        self.neighborhoods.is_empty()
    }

    /// Ids of all neighborhoods.
    pub fn ids(&self) -> impl Iterator<Item = NeighborhoodId> {
        (0..self.neighborhoods.len() as u32).map(NeighborhoodId)
    }

    /// Members of neighborhood `id`, ascending.
    pub fn members(&self, id: NeighborhoodId) -> &[EntityId] {
        &self.neighborhoods[id.index()]
    }

    /// Size of the largest neighborhood (the `k` in the complexity bounds).
    pub fn max_size(&self) -> usize {
        self.neighborhoods.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Neighborhoods containing entity `e`.
    pub fn containing_entity(&self, e: EntityId) -> &[NeighborhoodId] {
        self.containing.get(e.index()).map_or(&[], Vec::as_slice)
    }

    /// Neighborhoods containing *both* endpoints of `pair` — the
    /// neighborhoods for which the pair can serve as evidence. Computed as
    /// a sorted-list intersection of the two endpoint indexes.
    pub fn containing_pair(&self, pair: Pair) -> Vec<NeighborhoodId> {
        self.pair_neighborhoods(pair).collect()
    }

    /// The sorted-list intersection behind [`Self::containing_pair`],
    /// lazily: [`Self::validate_total`] stops at the first hit.
    fn pair_neighborhoods(&self, pair: Pair) -> impl Iterator<Item = NeighborhoodId> + '_ {
        let a = self.containing_entity(pair.lo());
        let b = self.containing_entity(pair.hi());
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let shared = a[i];
                        i += 1;
                        j += 1;
                        return Some(shared);
                    }
                }
            }
            None
        })
    }

    /// A [`crate::dataset::View`] of neighborhood `id` over `dataset`.
    /// The member list is already sorted and deduplicated, so it is
    /// copied, not re-sorted.
    pub fn view<'a>(&self, dataset: &'a Dataset, id: NeighborhoodId) -> crate::dataset::View<'a> {
        dataset.view_of_sorted(self.members(id).to_vec())
    }

    /// Check that the neighborhoods cover every *live* entity of the
    /// dataset (retracted entities need no coverage — blocking never
    /// emits them and their tuples and candidate pairs are purged at
    /// retraction).
    pub fn validate_cover(&self, dataset: &Dataset) -> Result<()> {
        let mut covered = vec![false; dataset.entities.len()];
        for n in &self.neighborhoods {
            for e in n {
                if e.index() >= covered.len() {
                    return Err(Error::UnknownEntity(*e));
                }
                covered[e.index()] = true;
            }
        }
        if let Some(missing) = covered
            .iter()
            .enumerate()
            .position(|(i, c)| !c && !dataset.entities.is_retracted(EntityId(i as u32)))
        {
            return Err(Error::NotACover {
                missing: EntityId(missing as u32),
            });
        }
        Ok(())
    }

    /// Check Definition 7: every relation tuple and every candidate pair is
    /// contained in some neighborhood.
    pub fn validate_total(&self, dataset: &Dataset) -> Result<()> {
        self.validate_cover(dataset)?;
        for rel in dataset.relations.ids() {
            for &(a, b) in dataset.relations.tuples(rel) {
                if a != b && self.pair_neighborhoods(Pair::new(a, b)).next().is_none() {
                    return Err(Error::NotTotal {
                        relation: dataset.relations.name(rel).to_owned(),
                        a,
                        b,
                    });
                }
            }
        }
        for (pair, _) in dataset.candidate_pairs() {
            if self.pair_neighborhoods(pair).next().is_none() {
                return Err(Error::NotTotal {
                    relation: "similar".to_owned(),
                    a: pair.lo(),
                    b: pair.hi(),
                });
            }
        }
        Ok(())
    }

    /// Summary statistics of the cover, for reports.
    pub fn stats(&self, dataset: &Dataset) -> CoverStats {
        let sizes: Vec<usize> = self.neighborhoods.iter().map(Vec::len).collect();
        let total_pairs: usize = self
            .ids()
            .map(|id| self.view(dataset, id).candidate_pairs().len())
            .sum();
        let total_members: usize = sizes.iter().sum();
        CoverStats {
            neighborhoods: sizes.len(),
            max_size: sizes.iter().copied().max().unwrap_or(0),
            mean_size: if sizes.is_empty() {
                0.0
            } else {
                total_members as f64 / sizes.len() as f64
            },
            total_candidate_pairs: total_pairs,
        }
    }
}

/// Expand every neighborhood with its relational boundary — the
/// entities sharing a relation tuple with a member (§4: the cover is
/// built "by first constructing a total cover over Similar … and then
/// taking the boundary of each neighborhood with respect to *other*
/// relations"). Candidate pairs are expected to already be contained in
/// the input neighborhoods (canopies generate them within themselves),
/// so similarity adjacency is deliberately *not* expanded — doing so
/// would chain overlapping canopies back into giant neighborhoods.
///
/// `hops` controls how many boundary expansions are applied; the
/// paper's construction is one hop. Works on plain member lists so a
/// caller can keep reshaping them (deduplicating, splitting) before
/// building the [`Cover`] index once; every list comes back sorted and
/// deduplicated. Membership is marked in one stamp array shared by all
/// neighborhoods, so no per-neighborhood set is built.
pub fn expand_to_total(dataset: &Dataset, neighborhoods: &mut [Vec<EntityId>], hops: usize) {
    let universe = neighborhoods
        .iter()
        .flatten()
        .map(|e| e.index() + 1)
        .max()
        .unwrap_or(0)
        .max(dataset.entities.len());
    let mut stamp: Vec<u32> = vec![0; universe];
    for (tick, members) in (1u32..).zip(neighborhoods.iter_mut()) {
        for e in members.iter() {
            stamp[e.index()] = tick;
        }
        // Each hop expands only the entities the previous hop added:
        // the older members' neighbors are already in.
        let mut frontier = 0;
        for _ in 0..hops {
            let end = members.len();
            for k in frontier..end {
                let e = members[k];
                for rel in dataset.relations.ids() {
                    let outgoing = dataset.relations.neighbors_out(rel, e);
                    let incoming = dataset.relations.neighbors_in(rel, e);
                    for &f in outgoing.iter().chain(incoming) {
                        if stamp[f.index()] != tick {
                            stamp[f.index()] = tick;
                            members.push(f);
                        }
                    }
                }
            }
            frontier = end;
        }
        members.sort_unstable();
        members.dedup();
    }
}

/// Aggregate cover statistics (the numbers the paper reports per dataset:
/// "13K neighborhoods containing a total of 1.3M entity pairs").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverStats {
    /// Number of neighborhoods.
    pub neighborhoods: usize,
    /// Largest neighborhood size.
    pub max_size: usize,
    /// Mean neighborhood size.
    pub mean_size: f64,
    /// Candidate pairs summed over neighborhoods (with multiplicity).
    pub total_candidate_pairs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SimLevel;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    /// Figure 1/2 style dataset: chain of coauthor edges with similar pairs.
    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..6 {
            ds.entities.add_entity(ty);
        }
        let co = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(co, e(0), e(2)); // a1 - b1
        ds.relations.add_tuple(co, e(1), e(3)); // a2 - b2
        ds.relations.add_tuple(co, e(2), e(4)); // b1 - c1
        ds.relations.add_tuple(co, e(3), e(5)); // b2 - c2
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(2)); // a1 ~ a2
        ds.set_similar(Pair::new(e(2), e(3)), SimLevel(2)); // b1 ~ b2
        ds.set_similar(Pair::new(e(4), e(5)), SimLevel(2)); // c1 ~ c2
        ds
    }

    #[test]
    fn from_neighborhoods_normalizes() {
        let cover = Cover::from_neighborhoods(vec![vec![e(2), e(0), e(2)], vec![], vec![e(1)]]);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover.members(NeighborhoodId(0)), &[e(0), e(2)]);
    }

    #[test]
    fn containing_indexes_work() {
        let cover = Cover::from_neighborhoods(vec![
            vec![e(0), e(1), e(2)],
            vec![e(2), e(3)],
            vec![e(0), e(3)],
        ]);
        assert_eq!(
            cover.containing_entity(e(0)),
            &[NeighborhoodId(0), NeighborhoodId(2)]
        );
        assert_eq!(
            cover.containing_pair(Pair::new(e(0), e(2))),
            vec![NeighborhoodId(0)]
        );
        assert_eq!(
            cover.containing_pair(Pair::new(e(2), e(3))),
            vec![NeighborhoodId(1)]
        );
        assert!(cover.containing_pair(Pair::new(e(1), e(3))).is_empty());
    }

    #[test]
    fn validate_cover_detects_missing_entity() {
        let ds = dataset();
        let incomplete = Cover::from_neighborhoods(vec![vec![e(0), e(1), e(2), e(3), e(4)]]);
        assert!(matches!(
            incomplete.validate_cover(&ds),
            Err(Error::NotACover { missing }) if missing == e(5)
        ));
        let complete =
            Cover::from_neighborhoods(vec![vec![e(0), e(1), e(2)], vec![e(3), e(4), e(5)]]);
        assert!(complete.validate_cover(&ds).is_ok());
    }

    #[test]
    fn validate_total_detects_lost_tuples() {
        let ds = dataset();
        // Splits the coauthor edge (b1, c1) = (e2, e4) across neighborhoods.
        let cover = Cover::from_neighborhoods(vec![vec![e(0), e(1), e(2), e(3)], vec![e(4), e(5)]]);
        assert!(cover.validate_cover(&ds).is_ok());
        assert!(matches!(
            cover.validate_total(&ds),
            Err(Error::NotTotal { .. })
        ));
    }

    #[test]
    fn validate_total_detects_a_split_candidate_pair() {
        let ds = dataset();
        // Every coauthor edge is inside some neighborhood, but the
        // candidate pair (c1, c2) = (e4, e5) is not.
        let cover = Cover::from_neighborhoods(vec![
            vec![e(0), e(1), e(2), e(3)],
            vec![e(2), e(4)],
            vec![e(3), e(5)],
        ]);
        assert!(matches!(
            cover.validate_total(&ds),
            Err(Error::NotTotal { relation, a, b })
                if relation == "similar" && a == e(4) && b == e(5)
        ));
    }

    #[test]
    fn validate_total_detects_a_lost_symmetric_tuple() {
        let mut ds = dataset();
        // Added in the reverse orientation; its endpoints share no
        // neighborhood while every other tuple and pair is covered.
        let venue = ds.relations.declare("same_venue", true);
        ds.relations.add_tuple(venue, e(5), e(0));
        let cover = Cover::from_neighborhoods(vec![
            vec![e(0), e(1), e(2), e(3)],
            vec![e(2), e(3), e(4), e(5)],
        ]);
        assert!(matches!(
            cover.validate_total(&ds),
            Err(Error::NotTotal { relation, .. }) if relation == "same_venue"
        ));
        let total = Cover::from_neighborhoods(vec![
            vec![e(0), e(1), e(2), e(3), e(5)],
            vec![e(2), e(3), e(4), e(5)],
        ]);
        assert!(total.validate_total(&ds).is_ok());
    }

    #[test]
    fn boundary_expansion_yields_total_cover() {
        let ds = dataset();
        // Canopy-style cover over Similar only: each similar pair is one
        // neighborhood — this is a cover but not total w.r.t. coauthor.
        let canopies =
            Cover::from_neighborhoods(vec![vec![e(0), e(1)], vec![e(2), e(3)], vec![e(4), e(5)]]);
        assert!(canopies.validate_total(&ds).is_err());
        let mut neighborhoods = vec![vec![e(0), e(1)], vec![e(2), e(3)], vec![e(4), e(5)]];
        expand_to_total(&ds, &mut neighborhoods, 1);
        let total = Cover::from_neighborhoods(neighborhoods);
        assert!(total.validate_total(&ds).is_ok());
        // Neighborhood 0 (a1, a2) gains coauthor boundary b1, b2.
        assert_eq!(total.members(NeighborhoodId(0)), &[e(0), e(1), e(2), e(3)]);
    }

    #[test]
    fn each_hop_adds_the_next_boundary() {
        let ds = dataset();
        // Chain a1 - b1 - c1 (e0 - e2 - e4); unsorted, duplicated input.
        let mut neighborhoods = vec![vec![e(2), e(0), e(0)], vec![e(5)]];
        expand_to_total(&ds, &mut neighborhoods, 0);
        assert_eq!(neighborhoods, vec![vec![e(0), e(2)], vec![e(5)]]);
        expand_to_total(&ds, &mut neighborhoods, 2);
        assert_eq!(
            neighborhoods,
            vec![vec![e(0), e(2), e(4)], vec![e(1), e(3), e(5)]]
        );
    }

    #[test]
    fn stats_count_pairs_with_multiplicity() {
        let ds = dataset();
        let cover = Cover::from_neighborhoods(vec![
            vec![e(0), e(1), e(2), e(3)],
            vec![e(2), e(3), e(4), e(5)],
        ]);
        let stats = cover.stats(&ds);
        assert_eq!(stats.neighborhoods, 2);
        assert_eq!(stats.max_size, 4);
        // (a1,a2) + (b1,b2) in C0; (b1,b2) + (c1,c2) in C1.
        assert_eq!(stats.total_candidate_pairs, 4);
    }
}
