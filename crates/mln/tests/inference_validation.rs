//! Cross-validation of the exact min-cut MAP solver against exhaustive
//! enumeration, and well-behavedness of the MLN matcher, on random
//! supermodular instances.

use em_core::cover::{expand_to_total, Cover};
use em_core::dataset::{Dataset, SimLevel};
use em_core::entity::EntityId;
use em_core::evidence::Evidence;
use em_core::framework::{mmp_with_order, no_mp_baseline, smp_with_order, MmpConfig};
use em_core::matcher::Matcher;
use em_core::pair::{Pair, PairSet};
use em_core::properties::{check_well_behaved, CheckConfig};
use em_core::Score;
use em_mln::{
    ground, solve_map, solve_map_brute_force, GroundEdge, GroundModel, MapSolver, MlnMatcher,
    MlnModel, RelationalRule,
};
use proptest::prelude::*;

// Engine-hook shims (the plain free functions are deprecated in favour
// of `em::Pipeline`; these validation tests target the engines).
fn no_mp(
    matcher: &dyn Matcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
) -> em_core::MatchOutput {
    no_mp_baseline(matcher, ds, cover, ev)
}

fn smp(matcher: &dyn Matcher, ds: &Dataset, cover: &Cover, ev: &Evidence) -> em_core::MatchOutput {
    smp_with_order(matcher, ds, cover, ev, None)
}

fn mmp(
    matcher: &dyn em_core::ProbabilisticMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    config: &MmpConfig,
) -> em_core::MatchOutput {
    mmp_with_order(matcher, ds, cover, ev, config, None)
}

/// Random bibliographic-shaped instance: entities, symmetric relation
/// tuples, candidate pairs with levels, and model weights.
#[derive(Debug, Clone)]
struct RandomInstance {
    n: u32,
    /// (a, offset) coauthor edges; b = (a + 1 + offset) % n.
    coauthors: Vec<(u32, u32)>,
    /// (a, offset, level) candidate pairs.
    pairs: Vec<(u32, u32, u8)>,
    /// Similarity weights in milli-units for levels 1..=3.
    sim_weights: [i64; 3],
    /// Relational weight (> 0).
    rel_weight: i64,
}

fn instance_strategy() -> impl Strategy<Value = RandomInstance> {
    (5u32..10).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n - 1), 0..10),
            proptest::collection::vec((0..n, 0..n - 1, 1u8..=3), 1..9),
            [-6000i64..1000, -6000i64..1000, 0i64..13000],
            1i64..5000,
        )
            .prop_map(
                |(n, coauthors, pairs, sim_weights, rel_weight)| RandomInstance {
                    n,
                    coauthors,
                    pairs,
                    sim_weights,
                    rel_weight,
                },
            )
    })
}

fn build(instance: &RandomInstance) -> (Dataset, MlnModel) {
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..instance.n {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    for &(a, off) in &instance.coauthors {
        let b = (a + 1 + off) % instance.n;
        if a != b {
            ds.relations.add_tuple(co, EntityId(a), EntityId(b));
        }
    }
    for &(a, off, level) in &instance.pairs {
        let b = (a + 1 + off) % instance.n;
        if a != b {
            ds.set_similar(Pair::new(EntityId(a), EntityId(b)), SimLevel(level));
        }
    }
    let model = MlnModel {
        sim_weights: [
            Score::ZERO,
            Score(instance.sim_weights[0]),
            Score(instance.sim_weights[1]),
            Score(instance.sim_weights[2]),
        ],
        relational: vec![RelationalRule {
            relation: co,
            weight: Score(instance.rel_weight),
        }],
    };
    (ds, model)
}

/// Overlapping windows of 4 entities.
fn windows(n: u32) -> Vec<Vec<EntityId>> {
    let mut nbhds: Vec<Vec<EntityId>> = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + 4).min(n);
        nbhds.push((start..end).map(EntityId).collect());
        if end == n {
            break;
        }
        start += 2; // 2-entity overlap
    }
    nbhds.push((0..n).step_by(3).map(EntityId).collect()); // extra overlap
    nbhds
}

/// Cover by overlapping windows of 4 entities.
fn window_cover(n: u32) -> Cover {
    Cover::from_neighborhoods(windows(n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mincut_map_equals_brute_force(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let gm = ground(&model, &ds.full_view());
        prop_assume!(gm.var_count() <= 16);
        let exact = solve_map(&gm, &Evidence::none());
        let brute = solve_map_brute_force(&gm, &Evidence::none());
        // Same score AND same (maximal) set.
        prop_assert_eq!(
            gm.score_where(|p| exact.contains(p)),
            gm.score_where(|p| brute.contains(p)),
            "scores differ: mincut {} vs brute {}", exact, brute
        );
        prop_assert_eq!(&exact, &brute, "maximal optima differ");
        assert_from_base_probes_agree(&gm, &Evidence::none());
    }

    #[test]
    fn mincut_map_equals_brute_force_under_evidence(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let gm = ground(&model, &ds.full_view());
        prop_assume!(gm.var_count() >= 2 && gm.var_count() <= 16);
        let mut vars = gm.vars.clone();
        vars.sort_unstable();
        let ev = Evidence::new(
            [vars[0]].into_iter().collect(),
            [vars[1]].into_iter().collect(),
        );
        let exact = solve_map(&gm, &ev);
        let brute = solve_map_brute_force(&gm, &ev);
        prop_assert_eq!(&exact, &brute);
        prop_assert!(exact.contains(vars[0]));
        prop_assert!(!exact.contains(vars[1]));
        assert_from_base_probes_agree(&gm, &ev);
    }

    #[test]
    fn mln_matcher_is_well_behaved(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let cover = window_cover(instance.n);
        let report = check_well_behaved(&matcher, &ds, &cover, &CheckConfig {
            cases: 8,
            ..Default::default()
        });
        prop_assert!(report.is_well_behaved(), "violations: {:?}", report.violations);
    }

    #[test]
    fn framework_schemes_are_sound_with_mln(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let cover = window_cover(instance.n);
        let full = matcher.match_view(&ds.full_view(), &Evidence::none());
        let nomp_out = no_mp(&matcher, &ds, &cover, &Evidence::none());
        let smp_out = smp(&matcher, &ds, &cover, &Evidence::none());
        let mmp_out = mmp(&matcher, &ds, &cover, &Evidence::none(), &MmpConfig::default());
        prop_assert!(nomp_out.matches.is_subset(&full));
        prop_assert!(smp_out.matches.is_subset(&full));
        prop_assert!(mmp_out.matches.is_subset(&full), "MMP {} ⊄ full {}", mmp_out.matches, full);
        prop_assert!(nomp_out.matches.is_subset(&smp_out.matches));
        prop_assert!(smp_out.matches.is_subset(&mmp_out.matches));
    }

    #[test]
    fn mmp_is_complete_on_total_covers(instance in instance_strategy()) {
        // On a *total* cover MMP should reach the full-run output for
        // these small instances (the paper observes completeness ≈ 1
        // empirically; here the instances are small enough that maximal
        // messages cover every correlated cluster).
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let mut nbhds = windows(instance.n);
        expand_to_total(&ds, &mut nbhds, 1);
        let cover = Cover::from_neighborhoods(nbhds);
        prop_assume!(cover.validate_total(&ds).is_ok());
        prop_assume!(cover.max_size() < instance.n as usize); // genuine split
        let full = matcher.match_view(&ds.full_view(), &Evidence::none());
        let mmp_out = mmp(&matcher, &ds, &cover, &Evidence::none(), &MmpConfig::default());
        prop_assert!(mmp_out.matches.is_subset(&full));
    }
}

#[test]
fn paper_example_mmp_with_mln_matcher_equals_full_run() {
    // Rebuild the §2.1 example with the *real* MLN matcher (not the
    // TableMatcher oracle) and check all three schemes reproduce §2.2.
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..9 {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    for (x, y) in [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 8)] {
        ds.relations.add_tuple(co, EntityId(x), EntityId(y));
    }
    for (x, y) in [(0, 1), (2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)] {
        ds.set_similar(Pair::new(EntityId(x), EntityId(y)), SimLevel(2));
    }
    let co = ds.relations.relation_id("coauthor").unwrap();
    let matcher = MlnMatcher::new(MlnModel::example_model(co));
    let e = EntityId;
    let cover = Cover::from_neighborhoods(vec![
        vec![e(0), e(1), e(3), e(4)],
        vec![e(2), e(3), e(4), e(5), e(6), e(7)],
        vec![e(5), e(6), e(8)],
    ]);

    let full = matcher.match_view(&ds.full_view(), &Evidence::none());
    assert_eq!(full.len(), 5);

    let nomp_out = no_mp(&matcher, &ds, &cover, &Evidence::none());
    assert_eq!(nomp_out.matches.len(), 1, "NO-MP: only (c1, c2)");

    let smp_out = smp(&matcher, &ds, &cover, &Evidence::none());
    assert_eq!(smp_out.matches.len(), 2, "SMP: + (b1, b2)");

    let mmp_out = mmp(
        &matcher,
        &ds,
        &cover,
        &Evidence::none(),
        &MmpConfig::default(),
    );
    assert_eq!(mmp_out.matches, full, "MMP: complete");
}

#[test]
fn global_scorer_promotion_check_is_exact_at_zero() {
    // A message whose delta is exactly zero must be promoted ("largest
    // most-likely set"): engineered with unary −w and bonus +w.
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..4 {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    ds.relations.add_tuple(co, EntityId(0), EntityId(2));
    ds.relations.add_tuple(co, EntityId(1), EntityId(2));
    ds.set_similar(Pair::new(EntityId(0), EntityId(1)), SimLevel(1));
    let co = ds.relations.relation_id("coauthor").unwrap();
    let model = MlnModel {
        sim_weights: [Score::ZERO, Score(-1000), Score::ZERO, Score::ZERO],
        relational: vec![RelationalRule {
            relation: co,
            weight: Score(1000),
        }],
    };
    let matcher = MlnMatcher::new(model);
    let out = matcher.match_view(&ds.full_view(), &Evidence::none());
    assert!(
        out.contains(Pair::new(EntityId(0), EntityId(1))),
        "zero-delta pair belongs to the largest optimum"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental probe fast path must agree exactly with a fresh
    /// conditioned solve (it is the engine behind `COMPUTEMAXIMAL`).
    #[test]
    fn incremental_probe_equals_fresh_solve(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let gm = ground(&model, &ds.full_view());
        prop_assume!(gm.var_count() >= 2);
        let pinned: PairSet = [gm.vars[0]].into_iter().collect();
        for evidence in [
            Evidence::positive(pinned.clone()),
            Evidence::new(PairSet::new(), pinned),
        ] {
            let solver = MapSolver::new(&gm, &evidence);
            for &probe in &gm.vars {
                let incremental = solver.probe(probe);
                let fresh = solve_map(&gm, &evidence.with_extra_positive(probe));
                prop_assert_eq!(&incremental, &fresh, "probe {} diverged", probe);
            }
        }
    }

    /// The batched probe-entailment API must match the black-box loop.
    #[test]
    fn batched_probes_equal_blackbox_loop(instance in instance_strategy()) {
        use em_core::matcher::Matcher as _;
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let view = ds.full_view();
        let probes: Vec<em_core::Pair> = ds.candidate_pairs().map(|(p, _)| p).collect();
        prop_assume!(!probes.is_empty());
        let evidence = Evidence::none();
        let base = matcher.match_view(&view, &evidence);
        let batched = matcher.probe_entailed(&view, &evidence, &base, &probes);
        for (i, &p) in probes.iter().enumerate() {
            let single: Vec<em_core::Pair> = matcher
                .match_view(&view, &evidence.with_extra_positive(p))
                .iter()
                .filter(|&q| !base.contains(q) && q != p)
                .collect();
            let mut got = batched[i].clone();
            got.sort_unstable();
            let mut want = single;
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}

/// Ground model over `unary.len()` variables `(2i, 2i+1)` with the given
/// unary weights and hyperedges (milli-units).
fn hand_model(unary: &[i64], edges: &[(&[u32], i64)]) -> GroundModel {
    let vars: Vec<Pair> = (0..unary.len() as u32)
        .map(|i| Pair::new(EntityId(2 * i), EntityId(2 * i + 1)))
        .collect();
    let mut incident = vec![Vec::new(); vars.len()];
    for (ei, (members, _)) in edges.iter().enumerate() {
        for &v in *members {
            incident[v as usize].push(ei as u32);
        }
    }
    GroundModel {
        index: vars
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect(),
        vars,
        unary: unary.iter().map(|&u| Score(u)).collect(),
        edges: edges
            .iter()
            .map(|&(members, w)| GroundEdge {
                vars: members.to_vec(),
                weight: Score(w),
            })
            .collect(),
        incident,
    }
}

/// Check the base solve and every probe of `gm` under `evidence` against
/// exhaustive enumeration with the probe as extra positive evidence.
/// Negative-evidence variables are not probed: the brute force lets
/// positive evidence win a conflict, the solver lets negative win.
fn assert_probes_match_brute_force(gm: &GroundModel, evidence: &Evidence) {
    assert_from_base_probes_agree(gm, evidence);
    let solver = MapSolver::new(gm, evidence);
    let base = solver.base_solution();
    assert_eq!(base, solve_map_brute_force(gm, evidence), "base solve");
    for &p in gm.vars.iter().filter(|&&p| !evidence.negative.contains(p)) {
        let brute = solve_map_brute_force(gm, &evidence.with_extra_positive(p));
        assert_eq!(solver.probe(p), brute, "probe {p}");
        let mut added: Vec<Pair> = brute.iter().filter(|&q| !base.contains(q)).collect();
        added.sort_unstable();
        assert_eq!(solver.probe_delta(p), added, "probe_delta {p}");
    }
}

/// A solver built from `solve_map`'s base (what the matcher's probe
/// path builds from the caller's base) must probe every free variable
/// exactly as one that solves the base itself.
fn assert_from_base_probes_agree(gm: &GroundModel, evidence: &Evidence) {
    let solved = MapSolver::new(gm, evidence);
    let base = solve_map(gm, evidence);
    let from_base = MapSolver::from_base(gm, evidence, &base);
    assert_eq!(from_base.base_solution(), base, "base solution");
    let free = gm
        .vars
        .iter()
        .filter(|&&p| !evidence.positive.contains(p) && !evidence.negative.contains(p));
    for &p in free {
        assert_eq!(
            from_base.probe_delta(p),
            solved.probe_delta(p),
            "probe_delta {p} from the base"
        );
    }
}

fn var(i: u32) -> Pair {
    Pair::new(EntityId(2 * i), EntityId(2 * i + 1))
}

#[test]
fn probes_exact_on_arity_three_hyperedge() {
    // Three pairs that only pay off together, plus a fourth hanging off
    // the last one: forcing any of the three pulls in the other two.
    let gm = hand_model(
        &[-1000, -1000, -1000, -300],
        &[(&[0, 1, 2], 2500), (&[2, 3], 400)],
    );
    assert_probes_match_brute_force(&gm, &Evidence::none());
    let solver = MapSolver::new(&gm, &Evidence::none());
    assert!(solver.base_solution().is_empty());
    assert_eq!(
        solver.probe_delta(var(0)),
        vec![var(0), var(1), var(2), var(3)]
    );
}

#[test]
fn probes_exact_with_zero_profit_ties_in_a_component() {
    // Var 1 has zero profit in a component with var 0: the maximal
    // optimum selects it at the base. Vars 2 and 3 tie only once one of
    // them is forced: the probe must add the other.
    let gm = hand_model(
        &[-3000, 0, -1000, -1000],
        &[(&[0, 1], 1000), (&[2, 3], 1000)],
    );
    assert_probes_match_brute_force(&gm, &Evidence::none());
    let solver = MapSolver::new(&gm, &Evidence::none());
    assert_eq!(solver.base_solution(), [var(1)].into_iter().collect());
    assert_eq!(solver.probe_delta(var(0)), vec![var(0)]);
    assert_eq!(solver.probe_delta(var(2)), vec![var(2), var(3)]);
}

#[test]
fn probing_one_component_leaves_the_others_alone() {
    // Three disjoint components: {0,1} is empty at the base and flips
    // under a probe, {2,3} is selected at the base, {4,5} has the same
    // shape as {0,1} and must stay empty when {0,1} is probed.
    let gm = hand_model(
        &[-1000, -1000, 500, -200, -1000, -1000],
        &[(&[0, 1], 1500), (&[2, 3], 300), (&[4, 5], 1500)],
    );
    assert_probes_match_brute_force(&gm, &Evidence::none());
    let solver = MapSolver::new(&gm, &Evidence::none());
    let base = solver.base_solution();
    assert_eq!(base, [var(2), var(3)].into_iter().collect());
    assert_eq!(solver.probe_delta(var(0)), vec![var(0), var(1)]);
    let probed = solver.probe(var(0));
    assert!(base.is_subset(&probed));
    assert!(!probed.contains(var(4)) && !probed.contains(var(5)));
}

#[test]
fn negative_evidence_splits_a_component() {
    // A chain 0-1-2-3-4 that pays off only as a whole once one end is
    // forced. Negative evidence on the bridge 2 deletes both of its
    // edges, leaving two reduced components: a probe of 0 then reaches
    // only 1.
    let gm = hand_model(
        &[-1400; 5],
        &[
            (&[0, 1], 1500),
            (&[1, 2], 1500),
            (&[2, 3], 1500),
            (&[3, 4], 1500),
        ],
    );
    assert_probes_match_brute_force(&gm, &Evidence::none());
    let solver = MapSolver::new(&gm, &Evidence::none());
    assert_eq!(
        solver.probe_delta(var(0)),
        vec![var(0), var(1), var(2), var(3), var(4)]
    );
    let bridge_out = Evidence::new(PairSet::new(), [var(2)].into_iter().collect());
    assert_probes_match_brute_force(&gm, &bridge_out);
    let solver = MapSolver::new(&gm, &bridge_out);
    assert_eq!(solver.probe_delta(var(0)), vec![var(0), var(1)]);
    assert_eq!(solver.probe_delta(var(4)), vec![var(3), var(4)]);
    assert!(solver.probe_delta(var(2)).is_empty());
}
