//! `batch-hepth` and `batch-dblp`: build a fresh session with
//! `Pipeline::build()` and make one cold exact-MMP `run()`.

use crate::report::Report;
use crate::stats::{median, ms};
use crate::timed::{MlnCounters, TimedMatcher};
use crate::trace;
use crate::world::{blocking_config, digest, digest_of, peak_rss_mb, World};
use em::{MatchOutcome, MatchSession, MatcherChoice, Scheme};
use em_net::Response;
use em_similarity::{FeatureCache, FeatureConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch workload: which datagen profile, at which scale.
pub struct BatchSpec {
    /// Datagen profile.
    pub profile: &'static str,
    /// Datagen scale factor.
    pub scale: f64,
    /// Reference match-set digests by seed (the workload seed 7 and the
    /// held-out seed 11).
    pub reference: &'static [(u64, &'static str)],
}

/// Probe-heavy: few, large neighborhoods, so MMP's conditioned probes
/// and memo replays dominate the cold run.
pub const HEPTH: BatchSpec = BatchSpec {
    profile: "hepth",
    scale: 0.02,
    reference: &[(7, "fb35ce39cc4f464f"), (11, "853b7d1291e038d8")],
};

/// Framework-heavy: many small neighborhoods and large clusters, few
/// probes, most of the cold run in message rounds outside em-mln.
pub const DBLP: BatchSpec = BatchSpec {
    profile: "dblp",
    scale: 0.05,
    reference: &[(7, "5960c9d5375f158a"), (11, "ba0a52fb3e4d3251")],
};

/// The bibliography every batch run renders (see `World::perturbed`).
const WORLD_SEED: u64 = 7;

/// Renderings of the bibliography per run, and the share of references
/// each spells anew with noise drawn from `--seed`.
const RENDERINGS: usize = 4;
const RESPELLED_SHARE: f64 = 0.02;

/// Set-up samples taken per run at the least (set-up is short next to
/// the match, so one sample would be noisy).
const MIN_SETUPS: usize = 5;

/// Match-set queries answered after each cold run.
const QUERIES_PER_RUN: usize = 16;

/// Feature interning plus `Pipeline::build()`: the set-up a user pays
/// before the first match.
fn setup(world: &World, matcher: MatcherChoice) -> (MatchSession, Duration, Duration) {
    let start = Instant::now();
    let features = {
        let _span = trace::span("similarity.features");
        let config = blocking_config();
        FeatureCache::build(
            &world.dataset,
            &config.entity_type,
            &config.key_attr,
            FeatureConfig {
                ngram: config.canopy.ngram,
            },
        )
    };
    let features_time = start.elapsed();
    let session = {
        let _span = trace::span("em.build");
        world
            .pipeline(matcher, Scheme::Mmp)
            .features(features)
            .build()
            .expect("exact MMP on the sequential backend is coherent")
    };
    (session, start.elapsed(), features_time)
}

fn cold_run(session: &mut MatchSession) -> (MatchOutcome, Duration) {
    let _span = trace::span("em.run");
    let start = Instant::now();
    let outcome = session.run();
    (outcome, start.elapsed())
}

/// Answer a match-set query in process, as the server answers `Query`
/// short of the socket: the sorted match set, encoded as a `Matches`
/// reply.
fn query(session: &MatchSession, name: &str) -> Duration {
    let start = Instant::now();
    let reply = Response::Matches {
        session: name.to_owned(),
        pairs: session.matches().to_sorted_vec(),
    };
    std::hint::black_box(reply.encode());
    start.elapsed()
}

/// Run the workload for about `seconds` and report its end-to-end
/// metrics, or, with `traced`, its per-layer metrics.
pub fn run(spec: &BatchSpec, seed: u64, seconds: f64, traced: bool) -> Report {
    let worlds: Vec<World> = (0..RENDERINGS)
        .map(|r| {
            let respell_seed = seed.wrapping_mul(RENDERINGS as u64).wrapping_add(r as u64);
            World::perturbed(
                spec.profile,
                spec.scale,
                WORLD_SEED,
                respell_seed,
                RESPELLED_SHARE,
            )
        })
        .collect();
    let mut report = Report::default();

    // Untraced: fresh sessions, each with one cold run, cycling over the
    // renderings until the time is up and each has run at least once.
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut matches = Vec::new();
    let mut queries = Vec::new();
    let mut f1 = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    let mut rep = 0;
    while rep < worlds.len() || (!traced && start.elapsed().as_secs_f64() < seconds) {
        let world = &worlds[rep % worlds.len()];
        let (mut session, setup_time, _) = setup(world, MatcherChoice::MlnExact);
        setups.push(setup_time.as_secs_f64());
        let (outcome, match_time) = cold_run(&mut session);
        matches.push(match_time.as_secs_f64());
        for _ in 0..QUERIES_PER_RUN {
            queries.push(ms(query(&session, spec.profile)));
        }
        let d = digest(&outcome.matches.to_sorted_vec());
        if rep < worlds.len() {
            // Judged below, against the reference digest.
            report.attempted += 1;
            f1.push(world.f1(&world.dataset, &outcome.matches));
            digests.push(d);
        } else {
            let want = &digests[rep % worlds.len()];
            report.attempt(&d == want, || {
                format!("repeat cold MMP: digest {d}, first run gave {want}")
            });
        }
        rep += 1;
    }
    // The renderings' match sets, named by one digest, against the
    // reference recorded for this seed.
    let combined = digest_of(&digests);
    match spec.reference.iter().find(|(s, _)| *s == seed) {
        Some((_, want)) if combined != *want => {
            report.fail(format!("cold MMP: digest {combined}, reference {want}"));
        }
        _ => {}
    }
    eprintln!("perfbench: {rep} cold runs over {RENDERINGS} renderings, digest {combined}");

    if !traced {
        while setups.len() < MIN_SETUPS {
            setups.push(setup(&worlds[0], MatcherChoice::MlnExact).1.as_secs_f64());
            report.attempted += 1;
        }
        report.metric("setup_s", median(&setups), "s");
        report.metric("match_s", median(&matches), "s");
        report.metric("f1", median(&f1), "ratio");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("query_ms_p50", median(&queries), "ms");
        return report;
    }
    let world = &worlds[0];

    // Traced: the same set-up and cold run once more, through the
    // timing matcher, with spans on.
    trace::set_enabled(true);
    let counters = Arc::new(MlnCounters::default());
    let timed = TimedMatcher::exact(&world.dataset, Arc::clone(&counters));
    let (mut session, _, features_time) = setup(world, MatcherChoice::custom_probabilistic(timed));
    let (traced_outcome, traced_match) = cold_run(&mut session);
    trace::set_enabled(false);
    let d = digest(&traced_outcome.matches.to_sorted_vec());
    report.attempt(d == digests[0], || {
        format!("traced MMP: digest {d}, untraced gave {}", digests[0])
    });
    report.spans = trace::take();

    let stats = &traced_outcome.stats;
    let status = session.status();
    let mln = counters.totals();
    report.metric("similarity.features_s", features_time.as_secs_f64(), "s");
    report.metric(
        "blocking.s",
        traced_outcome.timings.blocking.as_secs_f64(),
        "s",
    );
    report.metric(
        "blocking.candidate_pairs",
        status.candidate_pairs as f64,
        "count",
    );
    report.metric(
        "blocking.neighborhoods",
        status.neighborhoods as f64,
        "count",
    );
    report.metric(
        "blocking.true_pair_recall",
        world.blocking_recall(session.dataset()),
        "ratio",
    );
    report.metric(
        "core.plan_s",
        traced_outcome.timings.planning.as_secs_f64(),
        "s",
    );
    report.metric(
        "core.self_s",
        traced_match.as_secs_f64() - mln.busy_s(),
        "s",
    );
    report.core_counters(stats, status.neighborhoods);
    report.mln_counters(&mln);
    report.metric(
        "trace.match_s_overhead",
        traced_match.as_secs_f64() - matches[0],
        "s",
    );
    report
}
