//! Property-based tests of the framework's theorems on random
//! supermodular instances.
//!
//! [`TableMatcher`] enumerates all assignments, so it is an *exact*
//! Type-II matcher; running the framework against it checks the paper's
//! guarantees end-to-end:
//!
//! * Theorem 2 (SMP): soundness and order-consistency;
//! * Theorem 4 (MMP): soundness and order-consistency;
//! * monotonic scheme ordering: NO-MP ⊆ SMP ⊆ MMP ⊆ full run.

use em_core::cover::{Cover, NeighborhoodId};
use em_core::dataset::View;
use em_core::dataset::{Dataset, SimLevel};
use em_core::entity::EntityId;
use em_core::evidence::Evidence;
use em_core::framework::{
    compute_maximal, mmp_with_order, no_mp_baseline, smp_with_order, MmpConfig, RunStats,
};
use em_core::hash::FxHashMap;
use em_core::matcher::{GlobalScorer, MatchOutput, Matcher, ProbabilisticMatcher, Score};
use em_core::pair::{Pair, PairSet};
use em_core::testing::{paper_example, TableMatcher};
use proptest::prelude::*;

/// A randomly generated supermodular instance plus a cover of it.
#[derive(Debug, Clone)]
struct Instance {
    n_entities: u32,
    /// (a, b, level, unary milli-weight)
    pairs: Vec<(u32, u32, u8, i64)>,
    /// (pair index, pair index, weight > 0)
    edges: Vec<(usize, usize, i64)>,
    /// neighborhood index sets (entity ids, may overlap)
    neighborhoods: Vec<Vec<u32>>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (4u32..10).prop_flat_map(|n| {
        // Endpoints are made distinct at build time: b = (a + 1 + d) % n.
        let pair_strategy = (0..n, 0..n.saturating_sub(1), 1u8..=3, -6000i64..3000);
        let pairs = proptest::collection::vec(pair_strategy, 1..10);
        pairs.prop_flat_map(move |pairs| {
            let np = pairs.len();
            // Degenerate (i == j) edges are skipped at build time.
            let edges = proptest::collection::vec((0..np, 0..np, 1i64..9000), 0..6);
            // Neighborhoods: random subsets; a final one covers the rest.
            let neighborhoods =
                proptest::collection::vec(proptest::collection::vec(0..n, 1..=(n as usize)), 1..5);
            (Just(pairs), edges, neighborhoods).prop_map(move |(pairs, edges, mut nbhds)| {
                // Guarantee a cover: add all entities as a last neighborhood
                // half the time, otherwise ensure coverage by appending
                // missing entities to the last neighborhood.
                let mut seen = vec![false; n as usize];
                for nb in &nbhds {
                    for &e in nb {
                        seen[e as usize] = true;
                    }
                }
                let missing: Vec<u32> = (0..n).filter(|&e| !seen[e as usize]).collect();
                if !missing.is_empty() {
                    nbhds.push(missing);
                }
                Instance {
                    n_entities: n,
                    pairs,
                    edges,
                    neighborhoods: nbhds,
                }
            })
        })
    })
}

fn build(instance: &Instance) -> (Dataset, Cover, TableMatcher) {
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("entity");
    for _ in 0..instance.n_entities {
        ds.entities.add_entity(ty);
    }
    let mut matcher = TableMatcher::new();
    let mut pair_ids: Vec<Pair> = Vec::new();
    for &(a, d, level, unary) in &instance.pairs {
        let b = (a + 1 + d) % instance.n_entities;
        let p = Pair::new(EntityId(a), EntityId(b));
        ds.set_similar(p, SimLevel(level));
        matcher.set_unary(p, Score(unary));
        pair_ids.push(p);
    }
    for &(i, j, w) in &instance.edges {
        if i != j && pair_ids[i] != pair_ids[j] {
            matcher.add_edge([pair_ids[i], pair_ids[j]], [], Score(w));
        }
    }
    let cover = Cover::from_neighborhoods(
        instance
            .neighborhoods
            .iter()
            .map(|nb| nb.iter().map(|&e| EntityId(e)).collect::<Vec<_>>()),
    );
    (ds, cover, matcher)
}

// Local shims over the engine hooks (the plain `no_mp`/`smp`/`mmp` free
// functions are deprecated in favour of the `em::Pipeline` front door;
// these property tests target the engines directly).
fn no_mp(matcher: &dyn Matcher, ds: &Dataset, cover: &Cover, ev: &Evidence) -> MatchOutput {
    no_mp_baseline(matcher, ds, cover, ev)
}

fn smp(matcher: &dyn Matcher, ds: &Dataset, cover: &Cover, ev: &Evidence) -> MatchOutput {
    smp_with_order(matcher, ds, cover, ev, None)
}

fn mmp(
    matcher: &dyn em_core::ProbabilisticMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    config: &MmpConfig,
) -> MatchOutput {
    mmp_with_order(matcher, ds, cover, ev, config, None)
}

/// Reverse permutation of the neighborhood ids, as an adversarial order.
fn reversed_order(cover: &Cover) -> Vec<NeighborhoodId> {
    let mut ids: Vec<NeighborhoodId> = cover.ids().collect();
    ids.reverse();
    ids
}

/// The pre-epoch SMP: a plain FIFO worklist where every visit restricts
/// the full `M+` snapshot. Kept here as the reference the delta-scheduled
/// implementation must reproduce exactly.
fn snapshot_smp_reference(matcher: &dyn Matcher, ds: &Dataset, cover: &Cover) -> PairSet {
    use std::collections::VecDeque;
    let mut queue: VecDeque<NeighborhoodId> = cover.ids().collect();
    let mut queued = vec![true; cover.len()];
    let mut found = PairSet::new();
    while let Some(id) = queue.pop_front() {
        queued[id.index()] = false;
        let view = cover.view(ds, id);
        let local = Evidence::from_parts(view.restrict(&found), PairSet::new());
        let matches = matcher.match_view(&view, &local);
        let new_matches: PairSet = matches.difference(&found);
        for p in new_matches.iter() {
            for affected in cover.containing_pair(p) {
                if affected != id && !queued[affected.index()] {
                    queued[affected.index()] = true;
                    queue.push_back(affected);
                }
            }
        }
        found.union_with(&new_matches);
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn smp_is_sound_and_below_full_run(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        let full = matcher.match_view(&ds.full_view(), &Evidence::none());
        let out = smp(&matcher, &ds, &cover, &Evidence::none());
        prop_assert!(out.matches.is_subset(&full),
            "SMP output {} not ⊆ full run {}", out.matches, full);
    }

    #[test]
    fn mmp_is_sound(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        let full = matcher.match_view(&ds.full_view(), &Evidence::none());
        let out = mmp(&matcher, &ds, &cover, &Evidence::none(), &MmpConfig::default());
        prop_assert!(out.matches.is_subset(&full),
            "MMP output {} not ⊆ full run {}", out.matches, full);
    }

    #[test]
    fn schemes_are_monotonically_more_complete(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        let nomp_out = no_mp(&matcher, &ds, &cover, &Evidence::none());
        let smp_out = smp(&matcher, &ds, &cover, &Evidence::none());
        let mmp_out = mmp(&matcher, &ds, &cover, &Evidence::none(), &MmpConfig::default());
        prop_assert!(nomp_out.matches.is_subset(&smp_out.matches),
            "NO-MP ⊄ SMP: {} vs {}", nomp_out.matches, smp_out.matches);
        prop_assert!(smp_out.matches.is_subset(&mmp_out.matches),
            "SMP ⊄ MMP: {} vs {}", smp_out.matches, mmp_out.matches);
    }

    #[test]
    fn smp_is_order_consistent(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        let forward = smp(&matcher, &ds, &cover, &Evidence::none());
        let order = reversed_order(&cover);
        let backward = smp_with_order(&matcher, &ds, &cover, &Evidence::none(), Some(&order));
        prop_assert_eq!(forward.matches, backward.matches);
    }

    #[test]
    fn mmp_is_order_consistent(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        let config = MmpConfig::default();
        let forward = mmp(&matcher, &ds, &cover, &Evidence::none(), &config);
        let order = reversed_order(&cover);
        let backward =
            mmp_with_order(&matcher, &ds, &cover, &Evidence::none(), &config, Some(&order));
        prop_assert_eq!(forward.matches, backward.matches);
    }

    #[test]
    fn incremental_mmp_is_byte_identical_and_probe_bounded(instance in instance_strategy()) {
        // The evidence-delta engine must be invisible in the output: probe
        // replay + isolated-pair elision produce exactly the fixpoint of
        // probe-everything MMP, with no more conditioned probes, and every
        // probe is either issued or replayed.
        let (ds, cover, matcher) = build(&instance);
        let full_cfg = MmpConfig { incremental: false, ..Default::default() };
        let full = mmp(&matcher, &ds, &cover, &Evidence::none(), &full_cfg);
        let incr = mmp(&matcher, &ds, &cover, &Evidence::none(), &MmpConfig::default());
        prop_assert_eq!(&incr.matches, &full.matches,
            "incremental MMP diverged from full recompute");
        prop_assert!(incr.stats.conditioned_probes <= full.stats.conditioned_probes,
            "incremental issued more probes ({} > {})",
            incr.stats.conditioned_probes, full.stats.conditioned_probes);
        prop_assert_eq!(
            incr.stats.conditioned_probes + incr.stats.probes_replayed,
            full.stats.conditioned_probes,
            "probe ledger must balance");
        prop_assert_eq!(full.stats.probes_replayed, 0);
    }

    #[test]
    fn delta_scheduled_smp_equals_snapshot_smp(instance in instance_strategy()) {
        // The scheduler's cached local evidence + routed deltas must
        // reproduce the naive "restrict the full M+ every visit" fixpoint.
        let (ds, cover, matcher) = build(&instance);
        let delta_run = smp(&matcher, &ds, &cover, &Evidence::none());
        let snapshot = snapshot_smp_reference(&matcher, &ds, &cover);
        prop_assert_eq!(delta_run.matches, snapshot);
    }

    #[test]
    fn positive_evidence_only_grows_output(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        let base = smp(&matcher, &ds, &cover, &Evidence::none());
        // Seed with an arbitrary candidate pair as known match.
        let first = ds.candidate_pairs().next().map(|(p, _)| p);
        if let Some(p) = first {
            let seeded = smp(
                &matcher,
                &ds,
                &cover,
                &Evidence::positive([p].into_iter().collect()),
            );
            prop_assert!(base.matches.is_subset(&seeded.matches));
        }
    }

    #[test]
    fn negative_evidence_is_respected(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        let first = ds.candidate_pairs().next().map(|(p, _)| p);
        if let Some(p) = first {
            let neg: PairSet = [p].into_iter().collect();
            let out = smp(
                &matcher,
                &ds,
                &cover,
                &Evidence::new(PairSet::new(), neg),
            );
            prop_assert!(!out.matches.contains(p));
            let out = mmp(
                &matcher,
                &ds,
                &cover,
                &Evidence::new(PairSet::new(), [p].into_iter().collect()),
                &MmpConfig::default(),
            );
            prop_assert!(!out.matches.contains(p));
        }
    }
}

// ---------------------------------------------------------------------
// Algorithm 2 against a brute-force oracle.
// ---------------------------------------------------------------------

/// COMPUTEMAXIMAL by the book: probe every undecided pair of the view on
/// its own, link `p` and `q` when each entails the other, and return the
/// connected components (members sorted, components sorted).
fn compute_maximal_oracle(
    matcher: &dyn Matcher,
    view: &View<'_>,
    evidence: &Evidence,
    base: &PairSet,
    singleton_messages: bool,
) -> Vec<Vec<Pair>> {
    let mut undecided: Vec<Pair> = view
        .candidate_pairs()
        .into_iter()
        .map(|(p, _)| p)
        .filter(|&p| {
            !base.contains(p) && !evidence.positive.contains(p) && !evidence.negative.contains(p)
        })
        .collect();
    undecided.sort_unstable();
    let entailed: Vec<Vec<Pair>> = undecided
        .iter()
        .map(|&p| matcher.probe_entailed(view, evidence, base, &[p]).remove(0))
        .collect();
    // Component label per pair, merged edge by edge over all pairs.
    let mut label: Vec<usize> = (0..undecided.len()).collect();
    for i in 0..undecided.len() {
        for j in 0..undecided.len() {
            let mutual = i != j
                && entailed[i].contains(&undecided[j])
                && entailed[j].contains(&undecided[i]);
            if mutual && label[i] != label[j] {
                let (keep, gone) = (label[i], label[j]);
                for l in &mut label {
                    if *l == gone {
                        *l = keep;
                    }
                }
            }
        }
    }
    let mut messages: Vec<Vec<Pair>> = Vec::new();
    for l in 0..undecided.len() {
        let members: Vec<Pair> = (0..undecided.len())
            .filter(|&i| label[i] == l)
            .map(|i| undecided[i])
            .collect();
        if members.len() > 1 || (singleton_messages && members.len() == 1) {
            messages.push(members);
        }
    }
    messages.sort_unstable();
    messages
}

/// A matcher whose probes answer from a fixed entailment table: the base
/// is the positive evidence, and probing `p` entails exactly
/// `table[p]`. The table is arbitrary — one-way entailments, entailed
/// pairs outside the undecided set — which exercises the
/// mutual-entailment graph beyond what any exact matcher produces.
struct ScriptedMatcher {
    table: FxHashMap<Pair, Vec<Pair>>,
}

impl Matcher for ScriptedMatcher {
    fn match_view(&self, view: &View<'_>, evidence: &Evidence) -> PairSet {
        view.restrict(&evidence.positive)
    }

    fn probe_entailed(
        &self,
        _view: &View<'_>,
        _evidence: &Evidence,
        _base: &PairSet,
        probes: &[Pair],
    ) -> Vec<Vec<Pair>> {
        probes
            .iter()
            .map(|p| self.table.get(p).cloned().unwrap_or_default())
            .collect()
    }
}

impl ProbabilisticMatcher for ScriptedMatcher {
    fn log_score(&self, _view: &View<'_>, _matches: &PairSet) -> Score {
        unreachable!("COMPUTEMAXIMAL never scores")
    }

    fn global_scorer<'a>(
        &'a self,
        _dataset: &'a Dataset,
    ) -> Box<dyn GlobalScorer + Send + Sync + 'a> {
        unreachable!("COMPUTEMAXIMAL never builds a global scorer")
    }
}

/// Check `compute_maximal` against the oracle on every neighborhood of
/// the instance and on the full view, under empty evidence and under one
/// positive plus one negative evidence pair, with singleton messages on
/// and off.
fn check_compute_maximal(
    matcher: &dyn ProbabilisticMatcher,
    ds: &Dataset,
    cover: &Cover,
) -> Result<(), TestCaseError> {
    let pairs: Vec<Pair> = ds.candidate_pairs().map(|(p, _)| p).collect();
    let evidences = [
        Evidence::none(),
        Evidence::new(
            pairs.iter().take(1).copied().collect(),
            pairs.iter().skip(1).take(1).copied().collect(),
        ),
    ];
    let views = cover
        .ids()
        .map(|id| cover.view(ds, id))
        .chain([ds.full_view()]);
    for view in views {
        for evidence in &evidences {
            let local = Evidence::new(view.restrict(&evidence.positive), evidence.negative.clone());
            let base = matcher.match_view(&view, &local);
            for singleton_messages in [true, false] {
                let config = MmpConfig {
                    singleton_messages,
                    ..Default::default()
                };
                let mut stats = RunStats::default();
                let got = compute_maximal(matcher, &view, &local, &base, &config, &mut stats);
                let want =
                    compute_maximal_oracle(matcher, &view, &local, &base, singleton_messages);
                prop_assert_eq!(
                    got,
                    want,
                    "view {:?}, singletons {}",
                    view.members(),
                    singleton_messages
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compute_maximal_equals_the_brute_force_oracle(instance in instance_strategy()) {
        let (ds, cover, matcher) = build(&instance);
        check_compute_maximal(&matcher, &ds, &cover)?;
    }

    #[test]
    fn compute_maximal_equals_the_oracle_under_one_way_entailment(
        (instance, links) in instance_strategy().prop_flat_map(|instance| {
            let np = instance.pairs.len();
            (Just(instance), proptest::collection::vec((0..np, 0..np), 0..24))
        })
    ) {
        // Build the candidate pairs exactly as `build` does, then script
        // each (i, j) draw as "probing pair i entails pair j" — one-way
        // unless (j, i) is drawn too.
        let (ds, cover, _) = build(&instance);
        let pair_of = |i: usize| {
            let (a, d, _, _) = instance.pairs[i];
            Pair::new(EntityId(a), EntityId((a + 1 + d) % instance.n_entities))
        };
        let mut table: FxHashMap<Pair, Vec<Pair>> = FxHashMap::default();
        for &(i, j) in &links {
            let (p, q) = (pair_of(i), pair_of(j));
            if p != q {
                table.entry(p).or_default().push(q);
            }
        }
        // A pair entailing one outside every view's undecided set.
        if let Some(&(i, _)) = links.first() {
            let outside = Pair::new(EntityId(instance.n_entities), EntityId(instance.n_entities + 1));
            table.entry(pair_of(i)).or_default().push(outside);
        }
        check_compute_maximal(&ScriptedMatcher { table }, &ds, &cover)?;
    }
}

// ---------------------------------------------------------------------
// Deterministic walkthrough tests on the paper's running example.
// ---------------------------------------------------------------------

fn p(a: u32, b: u32) -> Pair {
    Pair::new(EntityId(a), EntityId(b))
}

#[test]
fn paper_example_no_mp_finds_only_c1_c2() {
    let (ds, cover, matcher, _) = paper_example();
    let out = no_mp(&matcher, &ds, &cover, &Evidence::none());
    let expected: PairSet = [p(5, 6)].into_iter().collect();
    assert_eq!(out.matches, expected, "§2.2: NO-MP outputs only (c1, c2)");
}

#[test]
fn paper_example_smp_recovers_b1_b2() {
    let (ds, cover, matcher, _) = paper_example();
    let out = smp(&matcher, &ds, &cover, &Evidence::none());
    let expected: PairSet = [p(5, 6), p(2, 3)].into_iter().collect();
    assert_eq!(
        out.matches, expected,
        "§2.2: SMP adds (b1, b2) via a simple message but misses the chain"
    );
    assert!(out.stats.messages_sent >= 2);
}

#[test]
fn paper_example_mmp_completes_the_chain() {
    let (ds, cover, matcher, expected) = paper_example();
    let out = mmp(
        &matcher,
        &ds,
        &cover,
        &Evidence::none(),
        &MmpConfig::default(),
    );
    assert_eq!(out.matches, expected, "§2.2: MMP = full run on the example");
    assert!(out.stats.promotions >= 1, "the chain requires a promotion");
    assert!(out.stats.maximal_messages_created >= 2);
}

#[test]
fn paper_example_mmp_without_singletons_still_completes_chain() {
    let (ds, cover, matcher, expected) = paper_example();
    let config = MmpConfig {
        singleton_messages: false,
        ..Default::default()
    };
    let out = mmp(&matcher, &ds, &cover, &Evidence::none(), &config);
    // The chain is recovered by genuine multi-pair messages; singletons
    // only matter for pairs whose evidence is spread across neighborhoods.
    assert_eq!(out.matches, expected);
}

#[test]
fn paper_example_is_order_consistent_under_all_permutations() {
    let (ds, cover, matcher, expected) = paper_example();
    let ids: Vec<NeighborhoodId> = cover.ids().collect();
    // 3 neighborhoods → 6 permutations; try them all.
    let perms: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for perm in perms {
        let order: Vec<NeighborhoodId> = perm.iter().map(|&i| ids[i]).collect();
        let smp_out = smp_with_order(&matcher, &ds, &cover, &Evidence::none(), Some(&order));
        let expected_smp: PairSet = [p(5, 6), p(2, 3)].into_iter().collect();
        assert_eq!(smp_out.matches, expected_smp, "SMP order {perm:?}");
        let mmp_out = mmp_with_order(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &MmpConfig::default(),
            Some(&order),
        );
        assert_eq!(mmp_out.matches, expected, "MMP order {perm:?}");
    }
}

#[test]
fn paper_example_idempotence_of_framework() {
    // Feeding a run's output back as evidence reproduces the same output.
    let (ds, cover, matcher, _) = paper_example();
    let first = mmp(
        &matcher,
        &ds,
        &cover,
        &Evidence::none(),
        &MmpConfig::default(),
    );
    let second = mmp(
        &matcher,
        &ds,
        &cover,
        &Evidence::positive(first.matches.clone()),
        &MmpConfig::default(),
    );
    assert_eq!(first.matches, second.matches);
}

#[test]
fn stats_reflect_linear_neighborhood_cost() {
    let (ds, cover, matcher, _) = paper_example();
    let out = smp(&matcher, &ds, &cover, &Evidence::none());
    // Theorem 3's bound is k²·n evaluations; the practical count must be
    // far smaller (paper: "a neighborhood is never evaluated k² times").
    let k = cover.max_size() as u64;
    let n = cover.len() as u64;
    assert!(out.stats.neighborhoods_processed <= k * k * n);
    assert!(out.stats.neighborhoods_processed >= n);
}
