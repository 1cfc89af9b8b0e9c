//! Splitting oversized neighborhoods without losing tuples.
//!
//! The framework's cost model is `O(k² f(k) n)` — a single huge
//! neighborhood can dominate everything. A neighborhood can be split
//! *safely* (preserving totality) along the connected components of its
//! internal evidence graph: if two members share no path of candidate
//! pairs or relation tuples inside the neighborhood, no ground rule ever
//! connects them, so putting them in separate neighborhoods loses nothing.
//! Components that are themselves larger than the cap are kept intact
//! (splitting them would lose evidence); callers can tighten canopy
//! thresholds instead.

use em_core::{Dataset, EntityId};

/// Split every neighborhood (a sorted member list) larger than
/// `max_size` into the connected components of its internal evidence
/// graph; smaller ones pass through in place.
pub(crate) fn split_oversized(
    neighborhoods: Vec<Vec<EntityId>>,
    dataset: &Dataset,
    max_size: usize,
) -> Vec<Vec<EntityId>> {
    // Entity → position within the neighborhood being split, shared by
    // every split and cleared after each.
    let mut slot: Vec<u32> = Vec::new();
    let mut out: Vec<Vec<EntityId>> = Vec::with_capacity(neighborhoods.len());
    for members in neighborhoods {
        if members.len() <= max_size {
            out.push(members);
        } else {
            if slot.is_empty() {
                slot = vec![NOT_A_MEMBER; dataset.entities.len()];
            }
            out.extend(components(dataset, &members, &mut slot));
        }
    }
    out
}

const NOT_A_MEMBER: u32 = u32::MAX;

/// Connected components of the evidence graph induced on `members`
/// (edges: candidate pairs and relation tuples with both endpoints in
/// `members`), each ascending, in ascending order. `slot` is all
/// [`NOT_A_MEMBER`] on entry and on return.
fn components(dataset: &Dataset, members: &[EntityId], slot: &mut [u32]) -> Vec<Vec<EntityId>> {
    for (i, e) in members.iter().enumerate() {
        slot[e.index()] = i as u32;
    }
    let n = members.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut union = |a: usize, other: EntityId| {
        let b = slot[other.index()];
        if b == NOT_A_MEMBER {
            return;
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b as usize));
        if ra != rb {
            parent[ra] = rb;
        }
    };

    for (i, &e) in members.iter().enumerate() {
        for &(other, _) in dataset.sim_neighbors(e) {
            union(i, other);
        }
        for rel in dataset.relations.ids() {
            for &other in dataset.relations.neighbors_out(rel, e) {
                union(i, other);
            }
            for &other in dataset.relations.neighbors_in(rel, e) {
                union(i, other);
            }
        }
    }
    for e in members {
        slot[e.index()] = NOT_A_MEMBER;
    }

    // Members are ascending, so each component fills in ascending order.
    let mut component_of_root: Vec<u32> = vec![NOT_A_MEMBER; n];
    let mut comps: Vec<Vec<EntityId>> = Vec::new();
    for (i, &member) in members.iter().enumerate() {
        let root = find(&mut parent, i);
        if component_of_root[root] == NOT_A_MEMBER {
            component_of_root[root] = comps.len() as u32;
            comps.push(Vec::new());
        }
        comps[component_of_root[root] as usize].push(member);
    }
    comps.sort_unstable();
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::dataset::SimLevel;
    use em_core::{Cover, Pair};

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..6 {
            ds.entities.add_entity(ty);
        }
        // Two islands: {0,1,2} chained by similar/coauthor; {3,4} similar;
        // {5} isolated.
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(2));
        let co = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(co, e(1), e(2));
        ds.set_similar(Pair::new(e(3), e(4)), SimLevel(1));
        ds
    }

    #[test]
    fn oversized_neighborhood_splits_into_components() {
        let ds = dataset();
        let big = vec![vec![e(0), e(1), e(2), e(3), e(4), e(5)]];
        let split = split_oversized(big, &ds, 4);
        assert_eq!(split.len(), 3);
        let sizes: Vec<usize> = split.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
        assert!(Cover::from_neighborhoods(split).validate_total(&ds).is_ok());
    }

    #[test]
    fn small_neighborhoods_pass_through() {
        let ds = dataset();
        let small = vec![vec![e(0), e(1)], vec![e(3), e(4)]];
        let split = split_oversized(small.clone(), &ds, 10);
        assert_eq!(split, small);
    }

    #[test]
    fn connected_component_larger_than_cap_is_kept() {
        let ds = dataset();
        let big = vec![vec![e(0), e(1), e(2)]];
        // Cap of 1 cannot be honored without losing tuples; keep intact.
        let split = split_oversized(big.clone(), &ds, 1);
        assert_eq!(split, big);
    }
}
