//! Table 1: grid running times on DBLP-BIG — single machine vs a
//! 30-machine grid, for NO-MP, SMP, MMP — through `em::Pipeline`.
//!
//! The sharded backend runs each scheme with one driver thread per shard
//! and records every neighborhood evaluation per epoch; the grid
//! simulator then replays each epoch's costs onto `m` virtual machines
//! as one round, with random assignment and job-setup overhead (the two
//! effects behind the paper's ~11× — not 30× — speedup).
//!
//! Both placement policies are simulated: the paper's random
//! assignment (whose skew explains the 11× ≠ 30× gap) and the LPT
//! greedy the `em_shard` balancer uses — reported side by side so the
//! skew cost of random placement is visible.
//!
//! A second section runs the *real* sharded backend twice through one
//! session: the first run plans from deterministic cost estimates, the
//! re-run feeds the measured per-neighborhood busy times back into the
//! LPT balancer (`ShardPlan::replan_from`) — estimated-vs-measured skew
//! for both plans, side by side.
//!
//! Usage:
//!   table1_grid [--scale 0.002] [--machines 30] [--shards 4]
//!               [--overhead-secs 0.05] [--dataset dblp-big]

use em::{Backend, BackendReport, Evidence, MatcherChoice, Pipeline, Scheme, SplitPolicy};
use em_bench::{prepare, Flags, Workload};
use em_core::framework::{DependencyIndex, EvalTrace, MmpConfig};
use em_eval::{fmt_duration, fmt_ratio, Table};
use em_parallel::{simulate, Assignment, GridParams};
use em_shard::{estimate_costs, shard_mmp_planned_opts, RuntimeOptions, ShardPlan};
use std::time::Duration;

/// The per-epoch evaluation traces of one sharded run of `scheme`.
fn epoch_traces(w: &Workload, scheme: Scheme, shards: usize) -> Vec<EvalTrace> {
    let outcome = Pipeline::new(w.dataset.clone())
        .cover(w.cover.clone())
        .matcher(MatcherChoice::MlnExact)
        .scheme(scheme)
        .backend(Backend::Sharded {
            shards,
            split_policy: SplitPolicy::Split,
        })
        .build()
        .expect("--shards must be at least 1")
        .run();
    match outcome.backend {
        BackendReport::Sharded(report) => report.epoch_traces,
        other => panic!("expected a sharded report, got {other:?}"),
    }
}

/// The measured-cost re-planning section: the sharded MMP engine run
/// twice over the same workload, the second time on a plan rebuilt from
/// the first run's busy-time trace (`ShardPlan::replan_from` — what a
/// `MatchSession`'s re-runs do automatically). Each run gets a *fresh*
/// matcher, so the comparison measures placement, not the grounding
/// memo the first run would otherwise warm for the second.
fn run_replan_section(w: &Workload, shards: usize) {
    let none = Evidence::none();
    let mmp_config = MmpConfig::default();
    let index = DependencyIndex::build(&w.dataset, &w.cover);
    let initial = ShardPlan::build(
        &index,
        shards,
        &estimate_costs(&w.dataset, &w.cover),
        SplitPolicy::Split,
    );
    let run = |plan: &ShardPlan| {
        shard_mmp_planned_opts(
            &w.mln_matcher(),
            &w.dataset,
            &w.cover,
            &index,
            plan,
            &none,
            &mmp_config,
            None,
            &RuntimeOptions::default(),
        )
    };
    let (first, first_report) = run(&initial);
    let replanned = initial.replan_from(&index, &first_report);
    let (second, second_report) = run(&replanned);
    assert_eq!(
        first.matches, second.matches,
        "re-planning must not change the fixpoint"
    );

    let mut table = Table::new([
        "plan",
        "cost basis",
        "est skew",
        "busy skew",
        "makespan",
        "speedup",
    ]);
    for (label, basis, report) in [
        ("initial", "estimate (pairs² + members)", &first_report),
        ("re-planned", "measured busy times", &second_report),
    ] {
        table.push_row([
            label.to_owned(),
            basis.to_owned(),
            fmt_ratio(report.est_skew),
            fmt_ratio(report.busy_skew),
            fmt_duration(report.makespan),
            format!("{:.2}x", report.speedup),
        ]);
    }
    println!(
        "\nMeasured-cost re-planning — {shards}-shard MMP run twice, fresh matcher \
         per run (ShardPlan::replan_from)"
    );
    print!("{}", table.render());
    println!(
        "the re-planned run packs by what the matcher actually cost; its estimated \
         skew is exact by construction, and the busy skew shows how well measured \
         history predicts the next run."
    );
}

fn main() {
    let flags = Flags::parse(std::env::args().skip(1));
    let dataset = flags.get_str("dataset", "dblp-big");
    let scale: f64 = flags.get("scale", 0.002);
    let machines: usize = flags.get("machines", 30);
    let overhead = Duration::from_secs_f64(flags.get("overhead-secs", 0.05));
    let shards: usize = flags.get("shards", 4usize);

    let w = prepare(&dataset, scale, None);
    println!(
        "=== {} (scale {scale}): {} references, {} neighborhoods, {} candidate pairs ===",
        w.name,
        w.references,
        w.cover.len(),
        w.candidate_pairs
    );

    let runs: Vec<Vec<EvalTrace>> = [Scheme::NoMp, Scheme::Smp, Scheme::Mmp]
        .into_iter()
        .map(|scheme| epoch_traces(&w, scheme, shards))
        .collect();

    // Table 1 shape: rows = deployment, columns = schemes.
    let mut table = Table::new(["", "NO-MP", "SMP", "MMP"]);
    let random_params = GridParams {
        machines,
        per_round_overhead: overhead,
        ..Default::default()
    };
    let lpt_params = GridParams {
        assignment: Assignment::Lpt,
        ..random_params
    };
    let random: Vec<_> = runs
        .iter()
        .map(|traces| simulate(traces, &random_params))
        .collect();
    let lpt: Vec<_> = runs
        .iter()
        .map(|traces| simulate(traces, &lpt_params))
        .collect();
    table.push_row([
        "Single machine".to_owned(),
        fmt_duration(random[0].total_work),
        fmt_duration(random[1].total_work),
        fmt_duration(random[2].total_work),
    ]);
    table.push_row([
        format!("Grid ({machines} machines, random)"),
        fmt_duration(random[0].makespan),
        fmt_duration(random[1].makespan),
        fmt_duration(random[2].makespan),
    ]);
    table.push_row([
        "Speedup (random)".to_owned(),
        format!("{:.1}x", random[0].speedup),
        format!("{:.1}x", random[1].speedup),
        format!("{:.1}x", random[2].speedup),
    ]);
    table.push_row([
        "Mean skew (random)".to_owned(),
        fmt_ratio(random[0].mean_skew),
        fmt_ratio(random[1].mean_skew),
        fmt_ratio(random[2].mean_skew),
    ]);
    table.push_row([
        format!("Grid ({machines} machines, LPT)"),
        fmt_duration(lpt[0].makespan),
        fmt_duration(lpt[1].makespan),
        fmt_duration(lpt[2].makespan),
    ]);
    table.push_row([
        "Speedup (LPT)".to_owned(),
        format!("{:.1}x", lpt[0].speedup),
        format!("{:.1}x", lpt[1].speedup),
        format!("{:.1}x", lpt[2].speedup),
    ]);
    table.push_row([
        "Mean skew (LPT)".to_owned(),
        fmt_ratio(lpt[0].mean_skew),
        fmt_ratio(lpt[1].mean_skew),
        fmt_ratio(lpt[2].mean_skew),
    ]);
    table.push_row([
        "Rounds (epochs)".to_owned(),
        random[0].rounds.to_string(),
        random[1].rounds.to_string(),
        random[2].rounds.to_string(),
    ]);
    println!(
        "\nTable 1 — running times: single machine vs simulated grid \
         (overhead {}/round; traces from {shards}-shard runs, one round per epoch; \
         random = the paper's placement, LPT = em_shard's balancer)",
        fmt_duration(overhead)
    );
    print!("{}", table.render());

    run_replan_section(&w, shards);
}
