//! Evidence-component partitioning and the locality-aware balancer.
//!
//! The preferred unit of placement is an **evidence component**
//! ([`DependencyIndex::evidence_components`]): a connected component of
//! the graph whose edges are "these two neighborhoods share a candidate
//! pair". That is the exact routing adjacency — one neighborhood's
//! output is evidence for another precisely when they share a pair — so
//! a shard that owns whole components is self-driving: every message
//! it generates activates only its own neighborhoods, within the same
//! epoch, and every pair of overlapping maximal messages originates on
//! one shard.
//!
//! Real canopy covers, however, chain: on the hepth/dblp workloads one
//! evidence component carries ~99% of the estimated cost, and a
//! partition that never splits it degenerates to a single busy shard.
//! The balancer therefore supports two policies for components whose
//! cost reaches the ideal per-shard share `total/k`:
//!
//! * [`SplitPolicy::Pin`] — keep the component whole; LPT places it
//!   alone on a shard (provably: nothing joins it until every other
//!   shard is at least as loaded, which the remaining mass cannot
//!   reach). Strict locality, no balance.
//! * [`SplitPolicy::Split`] (default) — break the oversized component
//!   into per-neighborhood placement units so LPT can balance them.
//!   Boundary pairs then take one epoch fence to cross shards, and the
//!   runtime centralizes message-store closure at the coordinator
//!   (see [`crate::runtime`]) — which it does unconditionally, so
//!   correctness never depends on the policy.
//!
//! Packing is LPT (longest processing time first): units sorted by
//! descending cost, each placed on the currently least-loaded shard —
//! within 4/3 of the optimal makespan (Graham's bound), deterministic,
//! and the same discipline the grid simulator's
//! `Assignment::Lpt` mode replays.

use em_core::cover::{Cover, NeighborhoodId};
use em_core::framework::DependencyIndex;
use em_core::Dataset;

/// What to do with an evidence component whose cost reaches the ideal
/// per-shard share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Keep it whole; LPT pins it alone on a shard.
    Pin,
    /// Break it into per-neighborhood units so the load balances.
    #[default]
    Split,
}

/// Deterministic per-neighborhood cost estimate, in abstract units.
///
/// The matcher's per-neighborhood cost is superlinear in the number of
/// matching decisions (the paper's own observation behind SMP's speed),
/// so the estimate is quadratic in the candidate-pair count plus a
/// linear grounding term; `+1` keeps every neighborhood visible to the
/// balancer. Callers with measured costs (a previous run's trace) can
/// pass those instead — [`ShardPlan::build`] only sees the slice.
pub fn estimate_costs(dataset: &Dataset, cover: &Cover) -> Vec<u64> {
    cover
        .ids()
        .map(|id| {
            let view = cover.view(dataset, id);
            let pairs = view.candidate_pairs().len() as u64;
            let members = view.len() as u64;
            pairs * pairs + members + 1
        })
        .collect()
}

/// One unit the balancer places: a whole evidence component, or a
/// single neighborhood of a split one.
#[derive(Debug, Clone)]
pub struct PlacementUnit {
    /// Member neighborhoods, sorted ascending.
    pub neighborhoods: Vec<NeighborhoodId>,
    /// Summed cost.
    pub cost: u64,
    /// Index of the evidence component this unit came from.
    pub component: usize,
    /// Whether the unit is a fragment of an oversized component.
    pub split: bool,
}

/// The partition one sharded run executes.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Evidence components, each sorted ascending, ordered by smallest
    /// member id.
    pub components: Vec<Vec<NeighborhoodId>>,
    /// Summed neighborhood cost of each component.
    pub component_cost: Vec<u64>,
    /// The placement units LPT packed.
    pub units: Vec<PlacementUnit>,
    /// Shard index of each unit.
    pub unit_shard: Vec<usize>,
    /// Member neighborhoods of each shard, sorted ascending.
    pub shards: Vec<Vec<NeighborhoodId>>,
    /// Summed estimated cost of each shard.
    pub shard_cost: Vec<u64>,
    /// Oversized components broken into per-neighborhood units.
    pub split_components: usize,
    /// Oversized components kept whole (LPT pins each solo): every
    /// oversized component under [`SplitPolicy::Pin`], and — under
    /// [`SplitPolicy::Split`] — oversized components of a single
    /// neighborhood, which have nothing to split.
    pub pinned_components: usize,
    /// The per-neighborhood costs the plan was built from.
    pub costs: Vec<u64>,
    /// The split policy the plan was built with (re-used by
    /// [`ShardPlan::replan_from`]).
    pub policy: SplitPolicy,
}

impl ShardPlan {
    /// Partition `index`'s evidence components onto `shards` shards by
    /// LPT over `costs` (one entry per neighborhood).
    ///
    /// # Panics
    /// Panics when `shards` is zero or `costs` does not cover every
    /// neighborhood of the index.
    pub fn build(
        index: &DependencyIndex,
        shards: usize,
        costs: &[u64],
        policy: SplitPolicy,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        let components = index.evidence_components();
        let component_cost: Vec<u64> = components
            .iter()
            .map(|c| c.iter().map(|id| costs[id.index()]).sum())
            .collect();
        let total: u64 = component_cost.iter().sum();
        let share = (total / shards as u64).max(1);

        let mut units: Vec<PlacementUnit> = Vec::new();
        let mut split_components = 0usize;
        let mut pinned_components = 0usize;
        for (i, comp) in components.iter().enumerate() {
            let oversized = shards > 1 && component_cost[i] >= share;
            if oversized && policy == SplitPolicy::Split && comp.len() > 1 {
                split_components += 1;
                for &id in comp {
                    units.push(PlacementUnit {
                        neighborhoods: vec![id],
                        cost: costs[id.index()],
                        component: i,
                        split: true,
                    });
                }
            } else {
                if oversized {
                    pinned_components += 1;
                }
                units.push(PlacementUnit {
                    neighborhoods: comp.clone(),
                    cost: component_cost[i],
                    component: i,
                    split: false,
                });
            }
        }

        // LPT: most expensive unit first onto the least-loaded shard;
        // ties broken by smallest first-neighborhood id, then shard id —
        // fully deterministic.
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&u| (std::cmp::Reverse(units[u].cost), units[u].neighborhoods[0]));
        let mut unit_shard = vec![0usize; units.len()];
        let mut shard_cost = vec![0u64; shards];
        for &u in &order {
            let s = shard_cost
                .iter()
                .enumerate()
                .min_by_key(|&(si, c)| (*c, si))
                .map(|(si, _)| si)
                .expect("at least one shard");
            unit_shard[u] = s;
            shard_cost[s] += units[u].cost;
        }

        let mut shard_members: Vec<Vec<NeighborhoodId>> = vec![Vec::new(); shards];
        for (u, unit) in units.iter().enumerate() {
            shard_members[unit_shard[u]].extend(unit.neighborhoods.iter().copied());
        }
        for members in &mut shard_members {
            members.sort_unstable();
        }

        Self {
            components,
            component_cost,
            units,
            unit_shard,
            shards: shard_members,
            shard_cost,
            split_components,
            pinned_components,
            costs: costs.to_vec(),
            policy,
        }
    }

    /// Measured-cost re-planning: rebuild the partition with the same
    /// shard count and policy, but with the balancer's cost slice
    /// replaced by a previous run's **measured** per-neighborhood busy
    /// times ([`crate::ShardReport::measured`], nanoseconds, summed over
    /// visits).
    /// Neighborhoods the report did not measure fall back to cost 1,
    /// the cheapest unit, so they cannot displace measured load — which
    /// means the report should cover (nearly) every neighborhood to be
    /// a sane basis. Cold runs measure everything; warm-started runs
    /// skip unchanged views and produce sparse traces, so callers (the
    /// session does this) should only re-plan from full-coverage
    /// reports. The deterministic estimate the original plan used is
    /// thereby corrected by exactly the skew the estimate got wrong;
    /// `table1_grid` prints the two plans side by side.
    pub fn replan_from(&self, index: &DependencyIndex, report: &crate::ShardReport) -> ShardPlan {
        let mut costs = vec![1u64; self.costs.len()];
        for (id, busy) in report.measured() {
            if id.index() < costs.len() {
                costs[id.index()] = (busy.as_nanos() as u64).max(1);
            }
        }
        ShardPlan::build(index, self.shards.len(), &costs, self.policy)
    }

    /// Repair the plan for a cover that **changed shape** — a churned
    /// session's re-block renumbers neighborhoods and can shrink, grow,
    /// split, or merge evidence components. The previous plan's
    /// neighborhood-indexed state (costs, unit membership, measured
    /// traces) is meaningless against the new ids, so repair keeps only
    /// what *is* stable — the shard count and the split policy — and
    /// re-partitions the new index's components over fresh `costs`.
    /// Handles shrunk covers gracefully: with fewer components than
    /// shards the spares are left empty, exactly as [`ShardPlan::build`]
    /// does, and an empty cover yields an all-empty plan.
    pub fn repair(&self, index: &DependencyIndex, costs: &[u64]) -> ShardPlan {
        ShardPlan::build(index, self.shards.len(), costs, self.policy)
    }

    /// `max / mean` of the estimated shard loads (1.0 = perfectly
    /// balanced; empty shards count into the mean, as in the grid
    /// simulator's skew).
    pub fn est_skew(&self) -> f64 {
        skew(&self.shard_cost)
    }

    /// Neighborhood count of the largest evidence component.
    pub fn largest_component(&self) -> usize {
        self.components.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Cost of the most expensive evidence component.
    pub fn largest_component_cost(&self) -> u64 {
        self.component_cost.iter().copied().max().unwrap_or(0)
    }

    /// Units placed on shard `s`.
    pub fn units_on(&self, s: usize) -> usize {
        self.unit_shard.iter().filter(|&&a| a == s).count()
    }
}

/// `max / mean` of a load vector; 1.0 when empty or all-zero.
pub(crate) fn skew(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if loads.is_empty() || total == 0 {
        return 1.0;
    }
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / (total as f64 / loads.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::testing::paper_example;

    fn paper_plan(k: usize, policy: SplitPolicy) -> (ShardPlan, Vec<u64>, usize) {
        let (ds, cover, _, _) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        let costs = estimate_costs(&ds, &cover);
        (
            ShardPlan::build(&index, k, &costs, policy),
            costs,
            cover.len(),
        )
    }

    #[test]
    fn plan_partitions_every_neighborhood_exactly_once() {
        for policy in [SplitPolicy::Pin, SplitPolicy::Split] {
            for k in [1, 2, 3, 7] {
                let (plan, costs, n) = paper_plan(k, policy);
                assert_eq!(plan.shards.len(), k);
                let mut seen: Vec<NeighborhoodId> = plan.shards.iter().flatten().copied().collect();
                seen.sort_unstable();
                let all: Vec<NeighborhoodId> = (0..n as u32).map(NeighborhoodId).collect();
                assert_eq!(seen, all, "k={k}: every neighborhood on exactly one shard");
                assert_eq!(
                    plan.shard_cost.iter().sum::<u64>(),
                    costs.iter().sum::<u64>()
                );
                // Units of unsplit components land whole.
                for (u, unit) in plan.units.iter().enumerate() {
                    if !unit.split {
                        assert_eq!(unit.neighborhoods, plan.components[unit.component]);
                    }
                    let shard = &plan.shards[plan.unit_shard[u]];
                    assert!(unit
                        .neighborhoods
                        .iter()
                        .all(|id| shard.binary_search(id).is_ok()));
                }
            }
        }
    }

    #[test]
    fn pin_policy_keeps_a_giant_component_whole_and_solo() {
        let (ds, cover, _, _) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        // Rig the costs: neighborhood 0's component dwarfs everything.
        let mut costs = vec![1u64; cover.len()];
        costs[0] = 1000;
        let plan = ShardPlan::build(&index, 3, &costs, SplitPolicy::Pin);
        assert!(plan.pinned_components >= 1);
        assert_eq!(plan.split_components, 0);
        let giant = plan
            .units
            .iter()
            .position(|u| u.neighborhoods.contains(&NeighborhoodId(0)))
            .expect("unit of n0");
        let giant_shard = plan.unit_shard[giant];
        for (u, &s) in plan.unit_shard.iter().enumerate() {
            if u != giant {
                assert_ne!(s, giant_shard, "unit {u} must avoid the pinned shard");
            }
        }
        assert!(plan.est_skew() > 1.0, "a pinned giant skews the plan");
    }

    #[test]
    fn split_policy_balances_a_giant_component() {
        let (ds, cover, _, _) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        // Make one multi-neighborhood component oversized but splittable.
        let component_of_0 = index
            .evidence_components()
            .into_iter()
            .find(|c| c.contains(&NeighborhoodId(0)))
            .expect("component of n0");
        let mut costs = vec![1u64; cover.len()];
        for id in &component_of_0 {
            costs[id.index()] = 100;
        }
        let pin = ShardPlan::build(&index, 2, &costs, SplitPolicy::Pin);
        let split = ShardPlan::build(&index, 2, &costs, SplitPolicy::Split);
        if component_of_0.len() > 1 {
            assert_eq!(split.split_components, 1);
            assert!(
                split.est_skew() <= pin.est_skew(),
                "splitting must not balance worse ({} vs {})",
                split.est_skew(),
                pin.est_skew()
            );
        }
    }

    #[test]
    fn repair_re_partitions_a_shrunk_cover() {
        use em_core::{Dataset, EntityId, Pair, SimLevel};
        let (plan, _, _) = paper_plan(4, SplitPolicy::Split);
        // A much smaller post-churn world: two disjoint components.
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        for _ in 0..4 {
            ds.entities.add_entity(ty);
        }
        ds.set_similar(Pair::new(EntityId(0), EntityId(1)), SimLevel(1));
        ds.set_similar(Pair::new(EntityId(2), EntityId(3)), SimLevel(1));
        let cover = em_core::Cover::from_neighborhoods(vec![
            vec![EntityId(0), EntityId(1)],
            vec![EntityId(2), EntityId(3)],
        ]);
        let index = DependencyIndex::build(&ds, &cover);
        let repaired = plan.repair(&index, &[3, 5]);
        assert_eq!(repaired.shards.len(), 4, "shard count survives");
        assert_eq!(repaired.policy, plan.policy);
        let mut seen: Vec<NeighborhoodId> = repaired.shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![NeighborhoodId(0), NeighborhoodId(1)]);
        assert_eq!(
            repaired.shards.iter().filter(|s| s.is_empty()).count(),
            2,
            "spare shards stay empty"
        );
    }

    #[test]
    fn more_shards_than_units_leaves_spares_empty() {
        let (plan, _, _) = paper_plan(16, SplitPolicy::Pin);
        let non_empty = plan.shards.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(non_empty, plan.units.len().min(16));
    }

    #[test]
    fn build_is_deterministic() {
        let (a, _, _) = paper_plan(4, SplitPolicy::Split);
        let (b, _, _) = paper_plan(4, SplitPolicy::Split);
        assert_eq!(a.unit_shard, b.unit_shard);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.shard_cost, b.shard_cost);
    }

    #[test]
    fn skew_of_balanced_loads_is_one() {
        assert!((skew(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((skew(&[]) - 1.0).abs() < 1e-12);
        assert!((skew(&[0, 0]) - 1.0).abs() < 1e-12);
        assert!((skew(&[9, 3]) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = paper_plan(0, SplitPolicy::Split);
    }
}
