//! Adversarial-churn soak harness: thousands of interleaved
//! pathological `update()` calls driven into two live sessions — a
//! sequential baseline and a **fault-injected sharded** arm — with the
//! invariant checker swept every step and byte-identity against a cold
//! mirror enforced throughout.
//!
//! Usage:
//!   soak [--dataset hepth|dblp] [--scale 0.004] [--updates 2000]
//!        [--seed 7] [--shards 4] [--split split|pin]
//!        [--faults on|off] [--invariants on|off]
//!        [--mirror-every 25] [--store DIR|none] [--recover-every 50]
//!        [--metrics PATH|none]
//!
//! Per update step, a [`DatasetDelta::churn_script_with`] pathological
//! delta (retract-heavy churn plus re-adds after retraction,
//! tuple-endpoint churn, canopy split/merge link churn, and
//! oversized-component growth) is applied to both sessions and to a
//! mirror dataset. The sharded arm gets a fresh
//! [`FaultPlan::seeded`] fault per update (panic / stall / delayed
//! fence, reproducible from `--seed`), under a deliberately tight fence
//! budget so stalls are declared dead quickly. After each step both
//! arms must produce byte-identical match sets; every `--mirror-every`
//! steps (and at the end) a **cold session over the mirror** is built
//! from scratch and must agree too.
//!
//! `--store DIR` makes the **sequential arm durable**: every update,
//! run, and reset journals to an `em-store-v1` WAL under `DIR` before
//! it applies. Every `--recover-every` steps (and at the end) a fresh
//! session is recovered from disk — epoch-0-or-latest snapshot plus
//! WAL-tail replay — and its `state_digest` must equal the live arm's,
//! after which the live arm checkpoints so the next probe replays only
//! its own window. A third verdict line gates this
//! (`store_recovery_identical`, printed only when `--store` is on, and
//! false if no recovery probe ever ran).
//!
//! The run ends with greppable verdict lines (CI gates on them):
//!
//! ```text
//! soak_invariants_ok:true
//! fault_recovery_identical:true
//! store_recovery_identical:true
//! ```
//!
//! `soak_invariants_ok` is true iff every invariant sweep (session
//! sweeps after each run/update plus the sharded runtime's per-fence
//! checks) passed. `fault_recovery_identical` is true iff all identity
//! checks held *and* the fault machinery demonstrably fired (at least
//! one shard recovered) — a soak whose faults never triggered proves
//! nothing, so it fails the gate. `--metrics PATH` streams the whole
//! run as `em-metrics-v1` JSONL (one `update` + `run` line per arm per
//! step, one `store` line per recovery probe, plus a final `verdict`
//! line). Exits non-zero if any verdict is false or the metrics stream
//! cannot be written.

use em::{
    Backend, ChurnOptions, DatasetDelta, FaultPlan, MatcherChoice, Pipeline, RuntimeOptions,
    Scheme, SplitPolicy,
};
use em_bench::{profile_by_name, Flags, MetricsRecord, MetricsWriter};
use em_blocking::{BlockingConfig, SimilarityKernel};
use em_core::Dataset;
use em_datagen::generate;
use std::time::Duration;

/// Silence the default panic message for injected faults so a soak of
/// thousands of updates does not spam stderr with expected panics;
/// anything that is not an injected fault still reaches the default
/// hook.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault:"));
        if !injected {
            default(info);
        }
    }));
}

fn parse_toggle(flags: &Flags, name: &str, default: &str) -> bool {
    match flags.get_str(name, default).as_str() {
        "on" => true,
        "off" => false,
        other => panic!("unknown --{name} {other:?}; expected on | off"),
    }
}

fn main() {
    let flags = Flags::parse(std::env::args().skip(1));
    let dataset = flags.get_str("dataset", "hepth");
    let scale: f64 = flags.get("scale", 0.004);
    let updates: usize = flags.get("updates", 2000usize);
    let seed: u64 = flags.get("seed", 7u64);
    let shards: usize = flags.get("shards", 4usize);
    let split_policy = match flags.get_str("split", "split").as_str() {
        "split" => SplitPolicy::Split,
        "pin" => SplitPolicy::Pin,
        other => panic!("unknown --split {other:?}; expected split | pin"),
    };
    let faults = parse_toggle(&flags, "faults", "on");
    let invariants = parse_toggle(&flags, "invariants", "on");
    let mirror_every: usize = flags.get("mirror-every", 25usize);
    let store_path = flags.get_str("store", "none");
    let recover_every: usize = flags.get("recover-every", 50usize);
    let store_dir: Option<std::path::PathBuf> = if store_path == "none" {
        None
    } else {
        let dir = std::path::PathBuf::from(&store_path);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale --store dir");
        }
        Some(dir)
    };
    let metrics_path = flags.get_str("metrics", "none");
    let mut metrics = MetricsWriter::open(&metrics_path, "soak").unwrap_or_else(|e| {
        eprintln!("failed to open --metrics {metrics_path}: {e}");
        std::process::exit(1);
    });
    quiet_injected_panics();

    let template = generate(&profile_by_name(&dataset).scaled(scale).with_seed(seed)).dataset;
    let n = template.entities.len() as u32;
    // Retract-heavy with every pathological knob on: re-add after
    // retract, tuple-endpoint churn, canopy splits/merges, and chain
    // growth that fuses components past any balance share.
    let opts = ChurnOptions {
        retract_fraction: 0.2,
        readd_fraction: 0.5,
        tuple_churn: 0.25,
        link_churn: 0.25,
        oversize_growth: 2,
    };
    let (initial, deltas) =
        DatasetDelta::churn_script_with(&template, n * 3 / 5, updates, seed, &opts);
    println!(
        "soak — {dataset} (scale {scale}): {} initial entities, {updates} pathological updates \
         (retract {:.0}% / re-add {:.0}% / tuple churn {:.0}% / link churn {:.0}% / +{} chain \
         tuples per step), sequential vs sharded-{shards} ({split_policy:?}, faults {}, \
         invariants {}), cold mirror every {mirror_every}",
        initial.entities.len(),
        opts.retract_fraction * 100.0,
        opts.readd_fraction * 100.0,
        opts.tuple_churn * 100.0,
        opts.link_churn * 100.0,
        opts.oversize_growth,
        if faults { "on" } else { "off" },
        if invariants { "on" } else { "off" },
    );

    let blocking = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };
    // A tight fence budget so injected stalls are declared dead in
    // ~tens of milliseconds instead of the production default's tens of
    // seconds — the point of the soak is to hit the recovery path
    // thousands of times, not to wait politely.
    let runtime = RuntimeOptions {
        fence_timeout: Duration::from_millis(10),
        fence_retries: 2,
        ..Default::default()
    };
    let build_with = |dataset: Dataset, backend: Backend, store: Option<&std::path::Path>| {
        let mut pipeline = Pipeline::new(dataset)
            .blocking(blocking.clone())
            .matcher(MatcherChoice::MlnExact)
            .scheme(Scheme::Mmp)
            .backend(backend)
            .runtime_options(runtime.clone())
            .check_invariants(invariants);
        if let Some(dir) = store {
            pipeline = pipeline.store(dir);
        }
        pipeline
            .build()
            .expect("exact MMP is coherent on both backends")
    };
    let build = |dataset: Dataset, backend: Backend| build_with(dataset, backend, None);
    let sharded_backend = Backend::Sharded {
        shards,
        split_policy,
    };
    // Only the sequential arm journals: the durability claim is about
    // one session's crash-consistency, and the sharded arm already has
    // its own in-run fault story.
    let mut seq = build_with(initial.clone(), Backend::Sequential, store_dir.as_deref());
    let mut sharded = build(initial.clone(), sharded_backend);
    let mut mirror = initial;

    let first_seq = seq.run();
    let first_sharded = sharded.run();
    let mut identical = first_seq.matches == first_sharded.matches;
    let (mut checks, mut violations) = (0u64, 0u64);
    let (mut panics, mut timeouts, mut recovered) = (0u64, 0u64, 0u64);
    let mut cold_compares = 0u64;
    let mut store_identical = true;
    let (mut store_recoveries, mut store_frames_replayed) = (0u64, 0u64);
    for outcome in [&first_seq, &first_sharded] {
        checks += outcome.stats.invariant_checks;
        violations += outcome.stats.invariant_violations;
    }
    let report_violation = |session: &em::MatchSession, arm: &str, step: usize| {
        if let Some(report) = session.last_invariants() {
            if !report.is_ok() {
                for v in &report.violations {
                    eprintln!("!! invariant violation [{arm}, step {step}]: {v:?}");
                }
            }
        }
    };
    report_violation(&seq, "sequential", 0);
    report_violation(&sharded, "sharded", 0);

    for (i, delta) in deltas.iter().enumerate() {
        let step = (i + 1) as u64;
        if faults {
            // A fresh reproducible fault per update: over thousands of
            // updates the seeded mix covers every victim shard, fence
            // epoch, and all three fault kinds.
            sharded.set_fault_plan(FaultPlan::seeded(seed ^ step, shards));
        }
        let up_seq = seq.update(delta);
        let up_sharded = sharded.update(delta);
        delta.apply(&mut mirror);
        metrics.emit(&MetricsRecord::from_update_report(
            "soak/sequential",
            step,
            &up_seq,
        ));
        metrics.emit(&MetricsRecord::from_update_report(
            "soak/sharded",
            step,
            &up_sharded,
        ));

        let warm_seq = seq.run();
        let warm_sharded = sharded.run();
        metrics.emit(&MetricsRecord::from_run_stats(
            "soak/sequential",
            step,
            &warm_seq.stats,
        ));
        metrics.emit(&MetricsRecord::from_run_stats(
            "soak/sharded",
            step,
            &warm_sharded.stats,
        ));
        for (report, outcome) in [(&up_seq, &warm_seq), (&up_sharded, &warm_sharded)] {
            checks += report.invariant_checks + outcome.stats.invariant_checks;
            violations += report.invariant_violations + outcome.stats.invariant_violations;
        }
        report_violation(&seq, "sequential", i + 1);
        report_violation(&sharded, "sharded", i + 1);
        panics += warm_sharded.stats.shard_panics;
        timeouts += warm_sharded.stats.fence_timeouts;
        recovered += warm_sharded.stats.shards_recovered;

        if warm_seq.matches != warm_sharded.matches {
            identical = false;
            eprintln!(
                "!! step {}: sequential and sharded arms DIVERGE ({} vs {} matches)",
                i + 1,
                warm_seq.matches.len(),
                warm_sharded.matches.len()
            );
        }
        let last = i + 1 == deltas.len();
        if let Some(dir) = &store_dir {
            if (i + 1) % recover_every == 0 || last {
                let snapshot_bytes = seq.session_store().map_or(0, |s| s.snapshot_bytes());
                let frames = seq.session_store().map_or(0, |s| s.wal_frames());
                let t = std::time::Instant::now();
                let recovered_arm = build_with(Dataset::new(), Backend::Sequential, Some(dir));
                let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
                let same = recovered_arm.state_digest() == seq.state_digest();
                store_recoveries += 1;
                store_frames_replayed += frames;
                if !same {
                    store_identical = false;
                    eprintln!(
                        "!! step {}: recovered session DIVERGES from the live sequential arm \
                         (live {} vs recovered {})",
                        i + 1,
                        seq.state_digest(),
                        recovered_arm.state_digest()
                    );
                }
                metrics.emit(&MetricsRecord::from_store_probe(
                    "soak/store",
                    step,
                    snapshot_bytes,
                    frames,
                    recovery_ms as u64,
                    same,
                ));
                // Checkpoint so the next probe replays only its own
                // window (and the checkpoint→tail-replay path itself
                // gets soaked, not just epoch-0 full replay).
                seq.checkpoint()
                    .expect("checkpoint the durable sequential arm");
            }
        }
        if (i + 1) % mirror_every == 0 || last {
            // The cold session has no memory of retracted caller links:
            // its blocking pass re-derives candidacy the warm sessions'
            // suppression lists keep out. Replay the surviving intent
            // onto the cold side before comparing — one retraction
            // update per still-suppressed pair the cold kernel revived.
            let mut cold_session = build(mirror.clone(), Backend::Sequential);
            cold_session.run();
            let mut replay = DatasetDelta::new();
            let mut replayed = false;
            for pair in seq.suppressed_links() {
                if cold_session.dataset().is_candidate(pair) {
                    replay.retract_link(pair);
                    replayed = true;
                }
            }
            if replayed {
                cold_session.update(&replay);
            }
            let cold = cold_session.run();
            cold_compares += 1;
            if warm_seq.matches != cold.matches {
                identical = false;
                eprintln!(
                    "!! step {}: warm sessions DIVERGE from the cold mirror ({} vs {} matches)",
                    i + 1,
                    warm_seq.matches.len(),
                    cold.matches.len()
                );
            }
            println!(
                "  step {:>5}/{updates}: {} live entities, {} matches | invariants {} checks, \
                 {} violations | faults: {} panics, {} fence timeouts, {} shards recovered",
                i + 1,
                mirror.entities.live_count(),
                warm_seq.matches.len(),
                checks,
                violations,
                panics,
                timeouts,
                recovered,
            );
        }
    }

    let invariants_ok = violations == 0;
    // A soak whose faults never actually fired proves nothing about
    // recovery — require at least one recovered shard when faults are
    // on (seeded plans are 2/3 panic/stall, so any real soak trips
    // this many times over).
    let recovery_exercised = !faults || recovered > 0;
    let recovery_identical = identical && recovery_exercised;
    if faults && recovered == 0 {
        eprintln!("!! faults were requested but no shard recovery was ever exercised");
    }
    // Same honesty rule as the fault gate: a durable soak whose
    // recovery probe never ran proves nothing.
    let store_ok = store_dir.is_none() || (store_identical && store_recoveries > 0);
    if store_dir.is_some() && store_recoveries == 0 {
        eprintln!("!! --store was requested but no recovery probe ever ran");
    }
    println!(
        "\nsoak complete: {updates} updates, {cold_compares} cold-mirror compares, \
         {checks} invariant checks, {violations} violations | sharded arm: {panics} shard \
         panics, {timeouts} fence timeouts, {recovered} shards recovered | durable arm: \
         {store_recoveries} recoveries, {store_frames_replayed} WAL frames replayed"
    );
    metrics.emit(
        &MetricsRecord::new("verdict")
            .push_u64("updates", updates as u64)
            .push_u64("cold_compares", cold_compares)
            .push_u64("invariant_checks", checks)
            .push_u64("invariant_violations", violations)
            .push_u64("shard_panics", panics)
            .push_u64("fence_timeouts", timeouts)
            .push_u64("shards_recovered", recovered)
            .push_u64("store_recoveries", store_recoveries)
            .push_u64("store_frames_replayed", store_frames_replayed)
            .push_bool("soak_invariants_ok", invariants_ok)
            .push_bool("fault_recovery_identical", recovery_identical)
            .push_bool("store_recovery_identical", store_ok),
    );
    let metrics_ok = metrics
        .finish()
        .map_err(|e| eprintln!("soak: --metrics {metrics_path} failed: {e}"))
        .is_ok();
    println!("soak_invariants_ok:{invariants_ok}");
    println!("fault_recovery_identical:{recovery_identical}");
    if store_dir.is_some() {
        println!("store_recovery_identical:{store_ok}");
    }
    if !invariants_ok || !recovery_identical || !store_ok || !metrics_ok {
        std::process::exit(1);
    }
}
