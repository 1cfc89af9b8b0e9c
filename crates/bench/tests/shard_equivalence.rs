//! End-to-end property tests of the sharded runtime on random datagen
//! worlds with the real MLN matcher (exact backend), plus the grid
//! simulator's validation path against a real shard run.
//!
//! The sharding machinery — evidence-component partitioning, split
//! oversized components, per-shard drivers with epoch-fenced delta
//! exchange, coordinator-side message closure and promotion — must be
//! *invisible* in the outputs: for every generated world and every
//! shard count, sharded NO-MP, SMP and MMP are byte-identical to the
//! single-threaded schemes, and the incremental probe ledger balances
//! against the full-recompute arm of the same partition.

use em_bench::prepare;
use em_blocking::{block_dataset_with_features, BlockingConfig, SimilarityKernel};
use em_core::cover::NeighborhoodId;
use em_core::framework::{
    mmp_with_order, no_mp_baseline, smp_with_order, DependencyIndex, EvalTrace, MmpConfig,
};
use em_core::MatchOutput;
use em_core::{Cover, Dataset, Evidence};
use em_datagen::{generate, DatasetProfile};
use em_mln::{MlnMatcher, MlnModel};
use em_parallel::{simulate, Assignment, GridParams};
use em_shard::{
    estimate_costs, shard_mmp_planned_opts, shard_no_mp_planned_opts, shard_smp_planned_opts,
    RuntimeOptions, ShardPlan, ShardReport, SplitPolicy,
};
use proptest::prelude::*;
use std::time::Duration;

/// Generate and block a tiny world (profile picked by parity, seed free).
fn world(seed: u64) -> (Dataset, Cover, MlnMatcher) {
    let profile = if seed.is_multiple_of(2) {
        DatasetProfile::hepth()
    } else {
        DatasetProfile::dblp()
    };
    let generated = generate(&profile.scaled(0.003).with_seed(seed));
    let mut dataset = generated.dataset;
    let config = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };
    let blocking = block_dataset_with_features(&mut dataset, &config, Some(&generated.features))
        .expect("valid total cover");
    let coauthor = dataset
        .relations
        .relation_id("coauthor")
        .expect("generated datasets declare coauthor");
    let matcher = MlnMatcher::new(MlnModel::paper_model(coauthor));
    (dataset, blocking.cover, matcher)
}

// Engine-hook shims with the deprecated wrappers' historical shape (the
// plain free functions are deprecated in favour of `em::Pipeline`).
fn smp(matcher: &MlnMatcher, ds: &Dataset, cover: &Cover, ev: &Evidence) -> MatchOutput {
    smp_with_order(matcher, ds, cover, ev, None)
}

fn mmp(
    matcher: &MlnMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    config: &MmpConfig,
) -> MatchOutput {
    mmp_with_order(matcher, ds, cover, ev, config, None)
}

/// Which sharded entry point [`sharded`] calls.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    NoMp,
    Smp,
    Mmp,
}

/// The per-scheme entry points with one shape: every run builds its
/// index and plan from estimates, as a fresh session does.
#[allow(clippy::too_many_arguments)]
fn sharded(
    scheme: Scheme,
    matcher: &MlnMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    mmp_config: &MmpConfig,
    shards: usize,
    policy: SplitPolicy,
) -> (MatchOutput, ShardReport) {
    let index = DependencyIndex::build(ds, cover);
    let plan = ShardPlan::build(&index, shards, &estimate_costs(ds, cover), policy);
    let opts = RuntimeOptions::default();
    match scheme {
        Scheme::NoMp => shard_no_mp_planned_opts(matcher, ds, cover, &plan, ev, &opts),
        Scheme::Smp => shard_smp_planned_opts(matcher, ds, cover, &index, &plan, ev, &opts),
        Scheme::Mmp => shard_mmp_planned_opts(
            matcher, ds, cover, &index, &plan, ev, mmp_config, None, &opts,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_runs_equal_the_single_machine_fixpoint(seed in 0u64..10_000) {
        let (ds, cover, matcher) = world(seed);
        let none = Evidence::none();
        let mmp_config = MmpConfig::default();
        let seq_no_mp = no_mp_baseline(&matcher, &ds, &cover, &none);
        let seq_smp = smp(&matcher, &ds, &cover, &none);
        let seq_mmp = mmp(&matcher, &ds, &cover, &none, &mmp_config);
        prop_assert!(seq_smp.matches.is_subset(&seq_mmp.matches),
            "seed {}: SMP ⊆ MMP must hold", seed);
        for k in [1usize, 2, 4, 7] {
            for (scheme, expected) in [
                (Scheme::NoMp, &seq_no_mp),
                (Scheme::Smp, &seq_smp),
                (Scheme::Mmp, &seq_mmp),
            ] {
                let (out, report) = sharded(
                    scheme, &matcher, &ds, &cover, &none, &mmp_config, k, SplitPolicy::Split,
                );
                prop_assert_eq!(&out.matches, &expected.matches,
                    "seed {} k {}: sharded {:?} diverged", seed, k, scheme);
                if !matches!(scheme, Scheme::NoMp) {
                    prop_assert!(report.epochs >= 2,
                        "seed {} k {}: {:?} missing confirm epoch", seed, k, scheme);
                }
                let traced: usize = report.epoch_traces.iter().map(Vec::len).sum();
                prop_assert_eq!(traced as u64, out.stats.neighborhoods_processed,
                    "seed {} k {}: {:?} trace misses evaluations", seed, k, scheme);
            }
        }
        // The strict-locality policy reaches the same fixpoint too.
        let (out_pin, _) = sharded(
            Scheme::Mmp, &matcher, &ds, &cover, &none, &mmp_config, 4, SplitPolicy::Pin,
        );
        prop_assert_eq!(&out_pin.matches, &seq_mmp.matches, "seed {}: Pin diverged", seed);
    }

    #[test]
    fn sharded_probe_ledger_balances(seed in 0u64..10_000) {
        // Within one partition, every conditioned probe of the
        // full-recompute arm is either issued or replayed by the
        // incremental arm — the same ledger invariant the sequential
        // scheduler maintains.
        let (ds, cover, matcher) = world(seed);
        let none = Evidence::none();
        let run = |config: &MmpConfig| {
            sharded(Scheme::Mmp, &matcher, &ds, &cover, &none, config, 4, SplitPolicy::Split).0
        };
        let incr = run(&MmpConfig::default());
        let full = run(&MmpConfig { incremental: false, ..Default::default() });
        prop_assert_eq!(&incr.matches, &full.matches, "seed {}: arms diverged", seed);
        prop_assert!(incr.stats.conditioned_probes <= full.stats.conditioned_probes,
            "seed {}: incremental issued more probes ({} > {})",
            seed, incr.stats.conditioned_probes, full.stats.conditioned_probes);
        prop_assert_eq!(
            incr.stats.conditioned_probes + incr.stats.probes_replayed,
            full.stats.conditioned_probes,
            "seed {}: probe ledger must balance", seed);
    }
}

/// The grid simulator's validation path: its LPT mode, replaying the
/// deterministic per-neighborhood cost estimates of a real `em_shard`
/// run, must reproduce that run's balance. The simulator packs
/// neighborhoods individually while the planner packs placement units
/// (whole small components + fragments of split ones) — same greedy
/// discipline at slightly different granularity, so the makespans must
/// agree within 10% (on these workloads they agree exactly), and LPT
/// must not lose to the paper's random placement on its own trace.
#[test]
fn lpt_grid_simulation_matches_a_real_shard_run() {
    let w = prepare("hepth", 0.005, Some(7));
    let matcher = w.mln_matcher();
    let k = 4;
    let (out, report) = sharded(
        Scheme::Mmp,
        &matcher,
        &w.dataset,
        &w.cover,
        &Evidence::none(),
        &MmpConfig::default(),
        k,
        SplitPolicy::Split,
    );
    assert!(!out.matches.is_empty(), "workload must produce matches");

    let round: EvalTrace = report
        .neighborhood_costs
        .iter()
        .enumerate()
        .map(|(i, &cost)| (NeighborhoodId(i as u32), Duration::from_micros(cost)))
        .collect();
    let trace = vec![round];
    let params = GridParams {
        machines: k,
        per_round_overhead: Duration::ZERO,
        seed: 1,
        assignment: Assignment::Lpt,
    };
    let lpt = simulate(&trace, &params);
    let random = simulate(
        &trace,
        &GridParams {
            assignment: Assignment::Random,
            ..params
        },
    );

    let real = Duration::from_micros(report.est_makespan());
    let (lo, hi) = (real.mul_f64(0.9), real.mul_f64(1.1));
    assert!(
        lpt.makespan >= lo && lpt.makespan <= hi,
        "simulated LPT makespan {:?} must be within 10% of the shard plan's {:?}",
        lpt.makespan,
        real
    );
    assert!(
        lpt.makespan <= random.makespan,
        "LPT ({:?}) must not lose to random placement ({:?}) on its own trace",
        lpt.makespan,
        random.makespan
    );
    assert!(lpt.mean_skew <= random.mean_skew);
}
