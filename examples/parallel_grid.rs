//! Parallel execution and grid simulation (§6.3) through `em::Pipeline`.
//!
//! Runs SMP and MMP on the sharded backend over a DBLP-style workload,
//! verifies the result equals the sequential fixpoint (consistency), and
//! replays each run's per-epoch evaluation costs onto simulated grids of
//! increasing size — reproducing Table 1's observation that random
//! assignment and per-round overhead keep the speedup well below the
//! machine count.
//!
//! Run with: `cargo run --release --example parallel_grid [scale]`

use em::{Backend, BackendReport, MatcherChoice, Pipeline, Scheme, SplitPolicy};
use em_blocking::{BlockingConfig, SimilarityKernel};
use em_core::framework::EvalTrace;
use em_datagen::{generate, DatasetProfile};
use em_eval::{fmt_duration, Table};
use em_parallel::{simulate, GridParams};
use std::time::Duration;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.01);

    let generated = generate(&DatasetProfile::dblp().scaled(scale));
    let blocking = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };
    let build = |scheme: Scheme, backend: Backend| {
        Pipeline::new(generated.dataset.clone())
            .blocking(blocking.clone())
            .features(generated.features.clone())
            .matcher(MatcherChoice::MlnExact)
            .scheme(scheme)
            .backend(backend)
            .build()
            .expect("MLN on any backend is coherent")
    };
    let shards = 4;
    let sharded = Backend::Sharded {
        shards,
        split_policy: SplitPolicy::Split,
    };

    let mut smp_session = build(Scheme::Smp, sharded);
    println!(
        "workload: {} refs, {} neighborhoods",
        generated.references.len(),
        smp_session.cover().len()
    );

    // Sharded SMP must reach the sequential fixpoint (consistency).
    let sharded_out = smp_session.run();
    let sequential = build(Scheme::Smp, Backend::Sequential).run();
    assert_eq!(
        sharded_out.matches, sequential.matches,
        "sharded SMP equals the sequential fixpoint"
    );
    let traces_of = |outcome: &em::MatchOutcome| -> Vec<EvalTrace> {
        match &outcome.backend {
            BackendReport::Sharded(report) => report.epoch_traces.clone(),
            other => panic!("expected a sharded report, got {other:?}"),
        }
    };
    let smp_traces = traces_of(&sharded_out);
    println!(
        "sharded SMP ({shards} shards): {} matches in {} epochs, wall {} (sequential: {}) ✓ same output",
        sharded_out.matches.len(),
        smp_traces.len(),
        fmt_duration(sharded_out.stats.wall_time),
        fmt_duration(sequential.stats.wall_time),
    );

    let mmp_out = build(Scheme::Mmp, sharded).run();
    let mmp_traces = traces_of(&mmp_out);

    // Grid simulation: replay measured costs on m machines.
    let mut table = Table::new([
        "machines",
        "SMP makespan",
        "MMP makespan",
        "SMP speedup",
        "skew",
    ]);
    for machines in [1usize, 5, 10, 30] {
        let params = GridParams {
            machines,
            per_round_overhead: Duration::from_millis(5),
            ..Default::default()
        };
        let smp_report = simulate(&smp_traces, &params);
        let mmp_report = simulate(&mmp_traces, &params);
        table.push_row([
            machines.to_string(),
            fmt_duration(smp_report.makespan),
            fmt_duration(mmp_report.makespan),
            format!("{:.1}x", smp_report.speedup),
            format!("{:.2}", smp_report.mean_skew),
        ]);
    }
    println!("\ngrid simulation (5ms/round overhead, one round per epoch):");
    print!("{}", table.render());
    println!("\nnote the sub-linear speedup: per-round overhead plus random-assignment");
    println!("skew — the same effects behind the paper's 11x on 30 machines (Table 1).");
}
