//! Assembling a total [`Cover`] from canopies.

use crate::partition::split_oversized;
use em_core::cover::expand_to_total;
use em_core::hash::FxHashSet;
use em_core::{Cover, Dataset, EntityId};

/// Build a total cover from canopies:
///
/// 1. the canopies become neighborhoods;
/// 2. every entity of the dataset not in any canopy (e.g. papers, which
///    are never canopy points) gets a singleton neighborhood so the result
///    is a cover of *all* entities;
/// 3. each neighborhood is expanded with its relational boundary for
///    `boundary_hops` hops (§4's construction), making the cover total;
/// 4. neighborhoods that are exact duplicates of an earlier one (which
///    canopy overlap frequently produces) are dropped;
/// 5. with `max_neighborhood_size`, every larger neighborhood is split
///    into the connected components of its internal evidence graph
///    (which keeps the cover total), and duplicates are dropped again.
///
/// Every step works on plain sorted member lists; the cover's entity
/// index is built once, at the end.
pub fn cover_from_canopies(
    dataset: &Dataset,
    canopies: Vec<Vec<EntityId>>,
    boundary_hops: usize,
    max_neighborhood_size: Option<usize>,
) -> Cover {
    let mut covered: Vec<bool> = vec![false; dataset.entities.len()];
    let mut neighborhoods: Vec<Vec<EntityId>> = Vec::with_capacity(canopies.len());
    for mut members in canopies {
        members.sort_unstable();
        members.dedup();
        for e in &members {
            covered[e.index()] = true;
        }
        if !members.is_empty() {
            neighborhoods.push(members);
        }
    }
    for (i, was_covered) in covered.iter().enumerate() {
        // Retracted entities need no singleton — they carry no tuples or
        // candidate pairs and the cover validation skips them.
        if !was_covered && !dataset.entities.is_retracted(EntityId(i as u32)) {
            neighborhoods.push(vec![EntityId(i as u32)]);
        }
    }
    expand_to_total(dataset, &mut neighborhoods, boundary_hops);
    dedupe_exact(&mut neighborhoods);
    if let Some(max) = max_neighborhood_size {
        neighborhoods = split_oversized(neighborhoods, dataset, max);
        dedupe_exact(&mut neighborhoods);
    }
    Cover::from_neighborhoods(neighborhoods)
}

/// Drop every neighborhood whose sorted member list equals an earlier
/// one's, keeping the first; compares borrowed slices, copies nothing.
fn dedupe_exact(neighborhoods: &mut Vec<Vec<EntityId>>) {
    let keep: Vec<bool> = {
        let mut seen: FxHashSet<&[EntityId]> =
            FxHashSet::with_capacity_and_hasher(neighborhoods.len(), Default::default());
        neighborhoods
            .iter()
            .map(|n| seen.insert(n.as_slice()))
            .collect()
    };
    let mut keep = keep.into_iter();
    neighborhoods.retain(|_| keep.next() == Some(true));
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::dataset::SimLevel;
    use em_core::Pair;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let author = ds.entities.intern_type("author_ref");
        let paper = ds.entities.intern_type("paper");
        for _ in 0..4 {
            ds.entities.add_entity(author);
        }
        ds.entities.add_entity(paper); // e4, never a canopy point
        let authored = ds.relations.declare("authored", false);
        ds.relations.add_tuple(authored, e(0), e(4));
        ds.relations.add_tuple(authored, e(1), e(4));
        let co = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(co, e(0), e(1));
        ds.set_similar(Pair::new(e(0), e(2)), SimLevel(2));
        ds
    }

    #[test]
    fn uncovered_entities_get_singletons() {
        let ds = dataset();
        let cover =
            cover_from_canopies(&ds, vec![vec![e(0), e(2)], vec![e(1)], vec![e(3)]], 0, None);
        assert!(
            cover.validate_cover(&ds).is_ok(),
            "paper e4 must be covered"
        );
    }

    #[test]
    fn boundary_expansion_makes_total() {
        let ds = dataset();
        let cover =
            cover_from_canopies(&ds, vec![vec![e(0), e(2)], vec![e(1)], vec![e(3)]], 1, None);
        assert!(cover.validate_total(&ds).is_ok());
        // The canopy {e0, e2} pulls in coauthor e1 and paper e4.
        let first = cover.members(em_core::NeighborhoodId(0));
        assert!(first.contains(&e(1)));
        assert!(first.contains(&e(4)));
    }

    #[test]
    fn dedupe_removes_identical_neighborhoods() {
        let ds = dataset();
        let canopies = vec![vec![e(0), e(1)], vec![e(1), e(0)], vec![e(2)], vec![e(3)]];
        let cover = cover_from_canopies(&ds, canopies, 0, None);
        // {e0, e1} once, {e2}, {e3}, and the paper's singleton {e4}.
        assert_eq!(cover.len(), 4);
        assert_eq!(cover.members(em_core::NeighborhoodId(0)), &[e(0), e(1)]);
    }
}
