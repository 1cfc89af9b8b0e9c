//! The epoch-fenced sharded runtime.
//!
//! One [`em_core::framework::SmpDriver`]/[`MmpDriver`] per shard, each
//! on its own thread with a [`DependencyIndex`] restricted to its
//! member neighborhoods, exchanging evidence as **epoch-fenced delta
//! messages** over channels (NO-MP shards evaluate their members once in
//! the first epoch and exchange nothing after it):
//!
//! ```text
//!            ┌─ Epoch{delta} ──▶ shard 0: absorb → fence → drain ─┐
//! coordinator├─ Epoch{delta} ──▶ shard 1: absorb → fence → drain ─┤ EpochDone{delta,
//!            └─ Epoch{delta} ──▶ shard 2: absorb → fence → drain ─┘            messages}
//!                  ▲                                              │
//!                  └─ merge · message closure · promote ◀─────────┘
//! ```
//!
//! Within an epoch a shard runs its delta-driven scheduler to local
//! quiescence — intra-shard evidence takes effect immediately, which is
//! what the component-aligned placement buys. Cross-shard evidence
//! travels once per epoch: the coordinator folds every shard's
//! produced delta into the global epoch-tracked evidence (pairs that
//! raced in from several shards dedup against it), merges the shards'
//! maximal messages into the **one global
//! [`em_core::framework::MessageStore`]**, promotes to fixpoint, and
//! broadcasts the fresh pairs back out. Centralizing the store is what
//! makes splitting an oversized evidence component sound: two messages
//! sharing a pair may then originate on different shards, and the
//! paper's `(T ∪ TC)*` merge closure is only maintainable where both
//! are visible. The matcher-dominated work — base evaluations and
//! conditioned probes, with their per-shard local-evidence caches and
//! probe memos — never leaves the shards; what crosses the boundary is
//! pairs and message handles.
//!
//! **Termination** is a by-product of the fence: the coordinator only
//! inspects the merged delta once all `k` responses for the epoch are
//! in, so "all shards idle and no delta in flight" reduces to "this
//! epoch's merged delta is empty", at which point it broadcasts `Stop`.
//!
//! **Determinism**: each shard's schedule is deterministic, responses
//! are reduced in shard-id order, and the fixpoint itself is
//! independent of evaluation order (the consistency theorems; promotion
//! against a one-epoch-stale replica is sound for supermodular models
//! and retried when the missing evidence arrives). The final match set
//! is byte-identical to the single-machine run's.

use crate::fault::{FaultKind, RuntimeOptions};
use crate::partition::{skew, ShardPlan};
use crossbeam::channel::{self, Receiver, Sender};
use em_core::cover::{Cover, NeighborhoodId};
use em_core::framework::{
    mark_dirty_around, no_mp_evaluate, promote_dirty, CertificateBank, DependencyIndex, EvalTrace,
    InvariantChecker, MemoBank, MessageStore, MmpConfig, MmpDriver, RunStats, SmpDriver, WarmSeed,
    WarmStart,
};
use em_core::{
    Dataset, Evidence, GlobalScorer, MatchOutput, Matcher, Pair, PairSet, ProbabilisticMatcher,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-shard load figures of one run.
#[derive(Debug, Clone)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Member neighborhoods.
    pub neighborhoods: usize,
    /// Placement units (whole components or split fragments) assigned.
    pub units: usize,
    /// Estimated cost (the balancer's units).
    pub est_cost: u64,
    /// Measured busy time (absorb + drain, summed over epochs).
    pub busy: Duration,
    /// Neighborhood evaluations performed.
    pub evaluations: u64,
}

/// What a sharded run reports besides its matches.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Number of shards.
    pub shards: usize,
    /// Number of evidence components.
    pub components: usize,
    /// Neighborhood count of the largest component.
    pub largest_component: usize,
    /// Estimated cost of the most expensive component.
    pub largest_component_cost: u64,
    /// Oversized components split into per-neighborhood units.
    pub split_components: usize,
    /// Oversized components kept whole and pinned solo: all of them
    /// under [`crate::SplitPolicy::Pin`]; single-neighborhood ones (nothing to
    /// split) even under [`crate::SplitPolicy::Split`].
    pub pinned_components: usize,
    /// Epoch fences until the global fixpoint (≥ 2 once the first epoch
    /// finds anything: at least one work epoch plus the empty confirming
    /// epoch).
    pub epochs: u64,
    /// Distinct evidence pairs exchanged across shards.
    pub cross_shard_pairs: u64,
    /// Per-shard loads.
    pub per_shard: Vec<ShardLoad>,
    /// `max/mean` of the estimated shard loads (the balancer's view).
    pub est_skew: f64,
    /// `max/mean` of the measured busy times.
    pub busy_skew: f64,
    /// Longest shard busy time — the sharded wall-clock bound.
    pub makespan: Duration,
    /// Summed shard busy time — the single-machine equivalent work.
    pub total_work: Duration,
    /// `total_work / makespan`; > 1 whenever at least two shards did
    /// real work.
    pub speedup: f64,
    /// The per-neighborhood cost estimates the plan was built from
    /// (indexed by neighborhood id) — the deterministic trace the grid
    /// simulator's LPT mode is validated against.
    pub neighborhood_costs: Vec<u64>,
    /// Every neighborhood evaluation, one trace per epoch (shards in id
    /// order within an epoch) — what the Table 1 grid simulator replays.
    /// A dead shard's replacement logs its re-execution in the epoch it
    /// ran in.
    pub epoch_traces: Vec<EvalTrace>,
    /// Shard driver threads lost to a panic (injected or organic).
    pub shard_panics: u64,
    /// Fence-wait attempts that expired before every live shard
    /// responded (retries count individually).
    pub fence_timeouts: u64,
    /// Shards declared dead after their fence-timeout budget while the
    /// thread was still alive (hung fences; their eventual outcomes are
    /// discarded).
    pub stalled_shards: u64,
    /// Dead or stalled shards whose epoch work the coordinator
    /// re-executed sequentially from the broadcast history.
    pub shards_recovered: u64,
    /// Epoch responses that arrived after their shard was declared dead
    /// (or arrived twice) and were dropped.
    pub late_responses_dropped: u64,
}

impl ShardReport {
    /// Estimated makespan: the most loaded shard in the balancer's cost
    /// units (deterministic counterpart of [`ShardReport::makespan`]).
    pub fn est_makespan(&self) -> u64 {
        self.per_shard.iter().map(|s| s.est_cost).max().unwrap_or(0)
    }

    /// Measured per-neighborhood evaluation costs, summed over every
    /// visit in [`ShardReport::epoch_traces`], sorted by id — the cost
    /// basis of [`ShardPlan::replan_from`].
    pub fn measured(&self) -> Vec<(NeighborhoodId, Duration)> {
        let mut measured: Vec<(NeighborhoodId, Duration)> =
            self.epoch_traces.iter().flatten().copied().collect();
        measured.sort_by_key(|&(id, _)| id);
        measured.dedup_by(|next, acc| {
            if next.0 == acc.0 {
                acc.1 += next.1;
                true
            } else {
                false
            }
        });
        measured
    }
}

enum ToShard {
    Epoch { delta: Vec<Pair> },
    Stop,
}

/// One shard's response to one epoch.
struct EpochDone {
    shard: usize,
    delta: Vec<Pair>,
    messages: Vec<Vec<Pair>>,
    trace: EvalTrace,
}

struct ShardOutcome {
    stats: RunStats,
    busy: Duration,
    /// Probe memos at quiescence, keyed by view identity (MMP only).
    memos: MemoBank,
    /// Score-gap certificates at quiescence, parallel to `memos`.
    certs: CertificateBank,
}

/// One shard's epoch step over its driver; generic so every scheme
/// shares the runtime verbatim.
trait EpochWorker {
    /// Absorb the peers' `delta`, drain to local quiescence, and return
    /// this epoch's outgoing delta, maximal messages and evaluations.
    fn epoch(&mut self, delta: &[Pair]) -> (Vec<Pair>, Vec<Vec<Pair>>, EvalTrace);
    fn finish(self) -> (RunStats, MemoBank, CertificateBank);
}

fn step<W: EpochWorker>(worker: &mut W, shard: usize, delta: &[Pair]) -> EpochDone {
    let (delta, messages, trace) = worker.epoch(delta);
    EpochDone {
        shard,
        delta,
        messages,
        trace,
    }
}

/// NO-MP on one shard: every member neighborhood is evaluated once, in
/// the first epoch, against the caller's evidence restricted to its view
/// ([`no_mp_evaluate`]); the matches are that epoch's delta and later
/// epochs are no-ops.
struct NoMpWorker<'a> {
    matcher: &'a (dyn Matcher + Sync),
    dataset: &'a Dataset,
    cover: &'a Cover,
    members: &'a [NeighborhoodId],
    evidence: &'a Evidence,
    evaluated: bool,
    stats: RunStats,
}

impl EpochWorker for NoMpWorker<'_> {
    fn epoch(&mut self, _delta: &[Pair]) -> (Vec<Pair>, Vec<Vec<Pair>>, EvalTrace) {
        if std::mem::replace(&mut self.evaluated, true) {
            return (Vec::new(), Vec::new(), EvalTrace::new());
        }
        let (matches, trace) = no_mp_evaluate(
            self.matcher,
            self.dataset,
            self.cover,
            self.members,
            self.evidence,
            &mut self.stats,
        );
        (matches.iter().collect(), Vec::new(), trace)
    }
    fn finish(self) -> (RunStats, MemoBank, CertificateBank) {
        (self.stats, MemoBank::new(), CertificateBank::new())
    }
}

struct SmpWorker<'a> {
    driver: SmpDriver<'a>,
    matcher: &'a (dyn Matcher + Sync),
}

impl EpochWorker for SmpWorker<'_> {
    fn epoch(&mut self, delta: &[Pair]) -> (Vec<Pair>, Vec<Vec<Pair>>, EvalTrace) {
        self.driver.absorb(delta);
        let fence = self.driver.fence();
        self.driver.run(self.matcher);
        (
            self.driver.delta_since(fence).to_vec(),
            Vec::new(),
            self.driver.take_trace(),
        )
    }
    fn finish(self) -> (RunStats, MemoBank, CertificateBank) {
        (
            *self.driver.stats(),
            MemoBank::new(),
            CertificateBank::new(),
        )
    }
}

struct MmpWorker<'a> {
    driver: MmpDriver<'a>,
    matcher: &'a (dyn ProbabilisticMatcher + Sync),
    scorer: &'a (dyn GlobalScorer + Send + Sync),
    /// Whether to bank probe memos at quiescence (only when the caller
    /// passed a cross-run [`WarmStart`]).
    collect_memos: bool,
}

impl EpochWorker for MmpWorker<'_> {
    fn epoch(&mut self, delta: &[Pair]) -> (Vec<Pair>, Vec<Vec<Pair>>, EvalTrace) {
        self.driver.absorb(delta, self.scorer);
        let fence = self.driver.fence();
        self.driver.run(self.matcher, self.scorer);
        (
            self.driver.delta_since(fence).to_vec(),
            self.driver.take_outbox(),
            self.driver.take_trace(),
        )
    }
    fn finish(mut self) -> (RunStats, MemoBank, CertificateBank) {
        let mut memos = MemoBank::new();
        let mut certs = CertificateBank::new();
        if self.collect_memos {
            self.driver.bank_memos(&mut memos);
            self.driver.bank_certificates(&mut certs);
        }
        (*self.driver.stats(), memos, certs)
    }
}

/// Counters the coordinator accumulates while surviving faults.
#[derive(Debug, Default, Clone, Copy)]
struct FaultCounters {
    shard_panics: u64,
    fence_timeouts: u64,
    stalled_shards: u64,
    shards_recovered: u64,
    late_responses_dropped: u64,
}

fn worker_loop<W: EpochWorker>(
    mut worker: W,
    shard: usize,
    rx: Receiver<ToShard>,
    tx: Sender<EpochDone>,
    faults: Vec<FaultKind>,
) -> ShardOutcome {
    let mut busy = Duration::ZERO;
    let mut epoch = 0u64;
    let mut stalled = false;
    loop {
        match rx.recv().expect("coordinator alive") {
            ToShard::Stop => break,
            ToShard::Epoch { delta } => {
                epoch += 1;
                if faults
                    .iter()
                    .any(|f| matches!(f, FaultKind::Panic { epoch: e } if *e == epoch))
                {
                    panic!("injected fault: shard {shard} panics at epoch {epoch}");
                }
                let t0 = Instant::now();
                let done = step(&mut worker, shard, &delta);
                busy += t0.elapsed();
                stalled = stalled
                    || faults
                        .iter()
                        .any(|f| matches!(f, FaultKind::Stall { epoch: e } if *e <= epoch));
                if stalled {
                    // Hung fence: the epoch's work happened but its
                    // response never leaves the shard.
                    continue;
                }
                if let Some(FaultKind::Delay { delay, .. }) = faults
                    .iter()
                    .find(|f| matches!(f, FaultKind::Delay { epoch: e, .. } if *e == epoch))
                    .copied()
                {
                    std::thread::sleep(delay);
                }
                tx.send(done).expect("coordinator alive");
            }
        }
    }
    let (stats, memos, certs) = worker.finish();
    ShardOutcome {
        stats,
        busy,
        memos,
        certs,
    }
}

/// What [`run_epochs`] hands back to a scheme's entry point.
struct EpochRun {
    /// The global evidence at fixpoint.
    global: Evidence,
    /// Exactly one outcome per shard slot.
    outcomes: Vec<ShardOutcome>,
    epochs: u64,
    /// Distinct evidence pairs broadcast across shards.
    cross_shard_pairs: u64,
    faults: FaultCounters,
    /// Every epoch's evaluations, shards in id order.
    epoch_traces: Vec<EvalTrace>,
}

/// Run the epoch protocol over `k` workers built by `make_worker`,
/// reducing each epoch's responses with `reduce` (which folds deltas
/// and messages into `global` and returns the fresh pairs to
/// broadcast).
///
/// ## Graceful degradation
///
/// A shard driver that panics mid-epoch (observed via its
/// [`std::thread::JoinHandle`]) or goes silent past the bounded
/// fence-timeout budget ([`RuntimeOptions::fence_timeout`] with
/// [`RuntimeOptions::fence_retries`] doubling-backoff retries) is
/// declared **dead**. The coordinator then re-executes that shard's
/// components *sequentially, inline*: a fresh worker over the same
/// member neighborhoods absorbs the full broadcast history (initial
/// evidence is baked in at construction, so history replay reconstructs
/// exactly the evidence every live shard has seen) and drains to local
/// quiescence; its produced delta joins the epoch's reduce like any
/// other response. Every later epoch drives the replacement inline.
/// This is sound because the fixpoint is independent of evaluation
/// order and history (the consistency theorems): re-derived pairs dedup
/// against the global evidence and re-sent messages merge idempotently
/// into the one store — so outputs stay byte-identical to the healthy
/// run, which is CI-gated.
///
/// Exactly one outcome per shard slot enters the final stats fold: a
/// panicked driver's partial counters die with its thread, and a
/// stalled driver that later joins cleanly has its outcome discarded in
/// favor of its replacement's (merging both would double-count; see
/// [`RunStats::merge`]). Responses from shards already declared dead
/// are dropped and counted.
fn run_epochs<W, F, R>(
    k: usize,
    evidence: &Evidence,
    opts: &RuntimeOptions,
    make_worker: F,
    mut reduce: R,
) -> EpochRun
where
    W: EpochWorker + Send,
    F: Fn(usize) -> W + Sync,
    R: FnMut(&mut Evidence, Vec<EpochDone>) -> Vec<Pair>,
{
    let make_worker = &make_worker;
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = channel::unbounded::<EpochDone>();
        let mut to_shard: Vec<Sender<ToShard>> = Vec::with_capacity(k);
        let mut handles = Vec::with_capacity(k);
        for shard in 0..k {
            let (tx, rx) = channel::unbounded::<ToShard>();
            to_shard.push(tx);
            let done_tx = done_tx.clone();
            let faults = opts.faults.for_shard(shard);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("em-shard-{shard}"))
                    .spawn_scoped(scope, move || {
                        worker_loop(make_worker(shard), shard, rx, done_tx, faults)
                    })
                    .expect("spawn shard driver"),
            );
        }
        drop(done_tx);

        let mut counters = FaultCounters::default();
        let mut dead: Vec<bool> = vec![false; k];
        // Inline replacement workers for dead shards, with the wall
        // time they have spent (their busy figure).
        let mut inline: Vec<Option<(W, Duration)>> = (0..k).map(|_| None).collect();
        // Every broadcast delta so far, flattened — what a replacement
        // worker absorbs to reconstruct a dead shard's evidence state.
        let mut history: Vec<Pair> = Vec::new();
        // Build a replacement for shard `s` and produce its response
        // for the current epoch (whose delta is already in `history`).
        let recover = |s: usize, history: &[Pair]| -> (W, Duration, EpochDone) {
            let mut w = make_worker(s);
            let t0 = Instant::now();
            let done = step(&mut w, s, history);
            (w, t0.elapsed(), done)
        };

        let mut global = Evidence::from_parts(evidence.positive.clone(), evidence.negative.clone());
        let mut epochs = 0u64;
        let mut cross_shard_pairs = 0u64;
        let mut epoch_traces: Vec<EvalTrace> = Vec::new();
        let mut delta: Vec<Pair> = Vec::new();
        loop {
            epochs += 1;
            history.extend_from_slice(&delta);
            for (s, tx) in to_shard.iter().enumerate() {
                if dead[s] {
                    continue;
                }
                // A panicked driver has dropped its receiver; ignore
                // the send error — the death is handled at the fence.
                let _ = tx.send(ToShard::Epoch {
                    delta: delta.clone(),
                });
            }
            let mut responses: Vec<Option<EpochDone>> = (0..k).map(|_| None).collect();
            // Dead shards first: drive their inline replacements.
            for s in 0..k {
                if let Some((w, busy)) = inline[s].as_mut() {
                    let t0 = Instant::now();
                    responses[s] = Some(step(w, s, &delta));
                    *busy += t0.elapsed();
                }
            }
            // The fence: nothing proceeds until every live shard
            // reported its epoch, so there are never deltas in flight
            // when the merged delta is inspected for termination. Poll
            // with a liveness check (a worker only exits before `Stop`
            // by panicking, and its sibling senders keep the channel
            // open) and a bounded, retried timeout for silent shards.
            let mut attempt = 0u32;
            let mut budget = opts.fence_timeout;
            let mut waited = Instant::now();
            loop {
                let missing: Vec<usize> = (0..k)
                    .filter(|&s| !dead[s] && responses[s].is_none())
                    .collect();
                if missing.is_empty() {
                    break;
                }
                if let Some(done) = done_rx.try_recv() {
                    let s = done.shard;
                    if dead[s] || responses[s].is_some() {
                        counters.late_responses_dropped += 1;
                    } else {
                        responses[s] = Some(done);
                    }
                    continue;
                }
                // A driver that finished without responding panicked:
                // recover it now.
                let mut observed_panic = false;
                for &s in &missing {
                    if handles[s].is_finished() {
                        dead[s] = true;
                        counters.shard_panics += 1;
                        counters.shards_recovered += 1;
                        let (w, busy, done) = recover(s, &history);
                        inline[s] = Some((w, busy));
                        responses[s] = Some(done);
                        observed_panic = true;
                    }
                }
                if observed_panic {
                    continue;
                }
                if waited.elapsed() >= budget {
                    counters.fence_timeouts += 1;
                    if attempt >= opts.fence_retries {
                        // Timeout budget exhausted: the silent shards
                        // are stalled. Declare them dead and recover;
                        // their eventual responses (and join outcomes)
                        // are discarded.
                        for s in missing {
                            dead[s] = true;
                            counters.stalled_shards += 1;
                            counters.shards_recovered += 1;
                            let (w, busy, done) = recover(s, &history);
                            inline[s] = Some((w, busy));
                            responses[s] = Some(done);
                        }
                        break;
                    }
                    attempt += 1;
                    budget *= 2;
                    waited = Instant::now();
                    continue;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            // Reduce in shard-id order — deterministic regardless of
            // thread scheduling.
            let mut responses: Vec<EpochDone> = responses.into_iter().flatten().collect();
            epoch_traces.push(
                responses
                    .iter_mut()
                    .flat_map(|done| std::mem::take(&mut done.trace))
                    .collect(),
            );
            let fresh = reduce(&mut global, responses);
            if fresh.is_empty() {
                break;
            }
            cross_shard_pairs += fresh.len() as u64;
            delta = fresh;
        }
        for tx in &to_shard {
            // Stalled drivers are still blocked on their inbox and need
            // the `Stop`; panicked ones have dropped their receiver.
            let _ = tx.send(ToShard::Stop);
        }
        let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(k);
        for (s, h) in handles.into_iter().enumerate() {
            let joined = h.join();
            let replacement = inline[s].take();
            let finish = |(w, busy): (W, Duration)| {
                let (stats, memos, certs) = w.finish();
                ShardOutcome {
                    stats,
                    busy,
                    memos,
                    certs,
                }
            };
            match (joined, replacement) {
                (Ok(outcome), None) => outcomes.push(outcome),
                // A stalled driver joined cleanly, but its replacement
                // already re-did its work — keeping both would
                // double-count every neighborhood they evaluated in
                // common, so the stalled outcome is discarded.
                (Ok(_stalled), Some(r)) => outcomes.push(finish(r)),
                (Err(_panic), Some(r)) => outcomes.push(finish(r)),
                // A death the fence never observed (e.g. a panic after
                // the final response): nothing replaced it, so this is
                // a genuine failure — propagate it.
                (Err(panic), None) => std::panic::resume_unwind(panic),
            }
        }
        EpochRun {
            global,
            outcomes,
            epochs,
            cross_shard_pairs,
            faults: counters,
            epoch_traces,
        }
    })
}

/// Assemble the output + report shared by every scheme.
fn assemble(
    start: Instant,
    plan: &ShardPlan,
    coordinator_stats: RunStats,
    run: EpochRun,
) -> (MatchOutput, ShardReport) {
    let EpochRun {
        global,
        outcomes,
        epochs,
        cross_shard_pairs,
        faults,
        epoch_traces,
    } = run;
    let mut stats = coordinator_stats;
    stats.shard_panics += faults.shard_panics;
    stats.fence_timeouts += faults.fence_timeouts;
    stats.shards_recovered += faults.shards_recovered;
    let mut per_shard = Vec::with_capacity(outcomes.len());
    let mut busy_units = Vec::with_capacity(outcomes.len());
    let mut makespan = Duration::ZERO;
    let mut total_work = Duration::ZERO;
    for (s, outcome) in outcomes.iter().enumerate() {
        stats.merge(&outcome.stats);
        per_shard.push(ShardLoad {
            shard: s,
            neighborhoods: plan.shards[s].len(),
            units: plan.units_on(s),
            est_cost: plan.shard_cost[s],
            busy: outcome.busy,
            evaluations: outcome.stats.neighborhoods_processed,
        });
        busy_units.push(outcome.busy.as_nanos() as u64);
        makespan = makespan.max(outcome.busy);
        total_work += outcome.busy;
    }
    stats.finalize(start.elapsed(), epochs);

    let report = ShardReport {
        shards: plan.shards.len(),
        components: plan.components.len(),
        largest_component: plan.largest_component(),
        largest_component_cost: plan.largest_component_cost(),
        split_components: plan.split_components,
        pinned_components: plan.pinned_components,
        epochs,
        cross_shard_pairs,
        est_skew: plan.est_skew(),
        busy_skew: skew(&busy_units),
        makespan,
        total_work,
        speedup: if makespan > Duration::ZERO {
            total_work.as_secs_f64() / makespan.as_secs_f64()
        } else {
            1.0
        },
        per_shard,
        neighborhood_costs: plan.costs.clone(),
        epoch_traces,
        shard_panics: faults.shard_panics,
        fence_timeouts: faults.fence_timeouts,
        stalled_shards: faults.stalled_shards,
        shards_recovered: faults.shards_recovered,
        late_responses_dropped: faults.late_responses_dropped,
    };

    let negative = global.negative.clone();
    let mut matches = global.into_positive();
    for p in negative.iter() {
        matches.remove(p);
    }
    (MatchOutput { matches, stats }, report)
}

/// The reduce shared by NO-MP and SMP: fold every shard's delta into
/// the global evidence (invariant-checked per fence when `opts` asks)
/// and broadcast the fresh pairs.
fn run_without_messages<W, F>(
    dataset: &Dataset,
    plan: &ShardPlan,
    evidence: &Evidence,
    opts: &RuntimeOptions,
    make_worker: F,
) -> (MatchOutput, ShardReport)
where
    W: EpochWorker + Send,
    F: Fn(usize) -> W + Sync,
{
    let start = Instant::now();
    let mut coordinator_stats = RunStats::default();
    let run = run_epochs(
        plan.shards.len(),
        evidence,
        opts,
        make_worker,
        |global, responses| {
            let fence = global.advance_epoch();
            for done in responses {
                for p in done.delta {
                    global.insert_positive(p);
                }
            }
            if opts.check_invariants {
                let mut checker = InvariantChecker::new(dataset);
                checker.check_evidence(global);
                checker.finish().record(&mut coordinator_stats);
            }
            global.delta_since(fence).to_vec()
        },
    );
    assemble(start, plan, coordinator_stats, run)
}

/// Sharded NO-MP over a caller-owned [`ShardPlan`]: each shard evaluates
/// its members once against the caller's evidence, so the output equals
/// [`em_core::framework::no_mp_baseline`]'s. `opts` carries fault
/// injection, the fence-timeout budget, and per-fence invariant checks.
pub fn shard_no_mp_planned_opts(
    matcher: &(dyn Matcher + Sync),
    dataset: &Dataset,
    cover: &Cover,
    plan: &ShardPlan,
    evidence: &Evidence,
    opts: &RuntimeOptions,
) -> (MatchOutput, ShardReport) {
    run_without_messages(dataset, plan, evidence, opts, |shard| NoMpWorker {
        matcher,
        dataset,
        cover,
        members: &plan.shards[shard],
        evidence,
        evaluated: false,
        stats: RunStats::default(),
    })
}

/// Sharded SMP over a caller-owned [`DependencyIndex`] and
/// [`ShardPlan`] — what a session uses so the index survives across runs
/// and the plan can be rebuilt from measured costs
/// ([`ShardPlan::replan_from`]). The fixpoint equals the sequential SMP
/// fixpoint. `opts` carries fault injection, the fence-timeout budget,
/// and per-fence invariant checks.
pub fn shard_smp_planned_opts(
    matcher: &(dyn Matcher + Sync),
    dataset: &Dataset,
    cover: &Cover,
    index: &DependencyIndex,
    plan: &ShardPlan,
    evidence: &Evidence,
    opts: &RuntimeOptions,
) -> (MatchOutput, ShardReport) {
    run_without_messages(dataset, plan, evidence, opts, |shard| {
        let mut driver =
            SmpDriver::for_members(dataset, cover, index, &plan.shards[shard], evidence);
        driver.enable_trace();
        SmpWorker { driver, matcher }
    })
}

/// Sharded MMP over a caller-owned index and plan (see
/// [`shard_smp_planned_opts`]): the fixpoint equals
/// [`em_core::framework::mmp_with_order`]'s for exact supermodular
/// matchers (the same caveat as [`MmpConfig::incremental`] applies to
/// approximate backends). Shards compute base matches and maximal
/// messages; the coordinator owns the message store and the promotion
/// loop. Per-fence invariant checks (`opts`) also validate the store.
///
/// `warm`, when given, is the cross-run [`WarmStart`]: the coordinator
/// adopts the previous fixpoint's message store (every carried message
/// re-checked for promotion against the current evidence and scorer),
/// and each shard is seeded with its members' slice of the bank
/// ([`WarmStart::withdraw`], which also retires every entry no shard's
/// views claim) — only views that changed since the
/// previous fixpoint start active, and bank hits replay instead of
/// re-probing. At quiescence the store and memos flow back into `warm`
/// for the next run. Only consulted for [`MmpConfig::incremental`] runs
/// — replay is the incremental path.
#[allow(clippy::too_many_arguments)]
pub fn shard_mmp_planned_opts(
    matcher: &(dyn ProbabilisticMatcher + Sync),
    dataset: &Dataset,
    cover: &Cover,
    index: &DependencyIndex,
    plan: &ShardPlan,
    evidence: &Evidence,
    mmp_config: &MmpConfig,
    mut warm: Option<&mut WarmStart>,
    opts: &RuntimeOptions,
) -> (MatchOutput, ShardReport) {
    let start = Instant::now();
    if !mmp_config.incremental {
        warm = None;
    }
    // Pre-partition the warm state by shard so each worker thread can
    // take its slice without contending on the caller's bank; entries
    // no shard's views claim are retired in the same withdrawal.
    let mut coordinator_stats = RunStats::default();
    let seeds: Vec<Mutex<Option<WarmSeed>>> = match warm.as_deref_mut() {
        Some(warm) => {
            let groups = plan.shards.iter().map(|members| members.iter().copied());
            let (seeds, retired) = warm.withdraw(dataset, cover, groups);
            coordinator_stats.memos_retired = retired;
            seeds.into_iter().map(|s| Mutex::new(Some(s))).collect()
        }
        None => plan.shards.iter().map(|_| Mutex::new(None)).collect(),
    };
    let collect_memos = warm.is_some();
    // One grounding shared read-only by every shard.
    let scorer = matcher.global_scorer(dataset);
    let scorer_ref: &(dyn GlobalScorer + Send + Sync) = scorer.as_ref();
    // `memo_capacity` bounds the run's total memoized probe entries, so
    // each shard's private pool gets an equal slice of it.
    let per_shard_config = MmpConfig {
        memo_capacity: if mmp_config.memo_capacity == usize::MAX {
            usize::MAX
        } else {
            (mmp_config.memo_capacity / plan.shards.len().max(1)).max(1)
        },
        ..*mmp_config
    };
    // A warm run adopts the previous fixpoint's store and re-checks
    // every carried message's promotion in the first reduce.
    let mut store = match warm.as_deref_mut() {
        Some(warm) => std::mem::take(&mut warm.store),
        None => MessageStore::new(),
    };
    let mut dirty_messages: Vec<Pair> = store.roots();
    let mut run = run_epochs(
        plan.shards.len(),
        evidence,
        opts,
        |shard| {
            let mut driver = MmpDriver::for_members(
                dataset,
                cover,
                index,
                &plan.shards[shard],
                evidence,
                &per_shard_config,
            );
            driver.defer_promotions();
            driver.enable_trace();
            if let Some(seed) = seeds[shard].lock().expect("seed lock").take() {
                driver.seed_warm(seed);
            }
            MmpWorker {
                driver,
                matcher,
                scorer: scorer_ref,
                collect_memos,
            }
        },
        |global, responses| {
            let fence = global.advance_epoch();
            // Fold direct matches; remember which are new for dirty
            // marking.
            let mut batch = PairSet::new();
            for done in &responses {
                for &p in &done.delta {
                    if global.insert_positive(p) {
                        batch.insert(p);
                    }
                }
            }
            // Merge the shards' maximal messages into the one store the
            // closure invariant lives in.
            for done in responses {
                for message in done.messages {
                    if message.iter().any(|p| global.negative.contains(*p)) {
                        continue;
                    }
                    match store.add_message(&message) {
                        Some(root) => dirty_messages.push(root),
                        None => coordinator_stats.messages_subsumed += 1,
                    }
                }
            }
            mark_dirty_around(&batch, scorer_ref, &mut store, &mut dirty_messages);
            promote_dirty(
                &mut store,
                scorer_ref,
                global,
                &mut dirty_messages,
                &mut coordinator_stats,
            );
            if opts.check_invariants {
                let mut checker = InvariantChecker::new(dataset);
                checker.check_evidence(global);
                checker.check_message_store(&store);
                checker.finish().record(&mut coordinator_stats);
            }
            global.delta_since(fence).to_vec()
        },
    );
    if let Some(warm) = warm {
        warm.store = store;
        for outcome in &mut run.outcomes {
            warm.bank.absorb(std::mem::take(&mut outcome.memos));
            warm.certs.absorb(std::mem::take(&mut outcome.certs));
        }
    }
    assemble(start, plan, coordinator_stats, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{estimate_costs, SplitPolicy};
    use em_core::framework::{mmp_with_order, no_mp_baseline, smp_with_order};
    use em_core::testing::paper_example;

    fn plan(dataset: &Dataset, cover: &Cover, shards: usize, policy: SplitPolicy) -> ShardPlan {
        let index = DependencyIndex::build(dataset, cover);
        ShardPlan::build(&index, shards, &estimate_costs(dataset, cover), policy)
    }

    fn run_shard_smp(
        matcher: &(dyn Matcher + Sync),
        dataset: &Dataset,
        cover: &Cover,
        evidence: &Evidence,
        shards: usize,
        policy: SplitPolicy,
    ) -> (MatchOutput, ShardReport) {
        let index = DependencyIndex::build(dataset, cover);
        let plan = plan(dataset, cover, shards, policy);
        let opts = RuntimeOptions::default();
        shard_smp_planned_opts(matcher, dataset, cover, &index, &plan, evidence, &opts)
    }

    fn run_shard_mmp(
        matcher: &(dyn ProbabilisticMatcher + Sync),
        dataset: &Dataset,
        cover: &Cover,
        evidence: &Evidence,
        mmp_config: &MmpConfig,
        shards: usize,
        policy: SplitPolicy,
    ) -> (MatchOutput, ShardReport) {
        let index = DependencyIndex::build(dataset, cover);
        let plan = plan(dataset, cover, shards, policy);
        let opts = RuntimeOptions::default();
        shard_mmp_planned_opts(
            matcher, dataset, cover, &index, &plan, evidence, mmp_config, None, &opts,
        )
    }

    fn smp(
        matcher: &dyn Matcher,
        dataset: &Dataset,
        cover: &Cover,
        evidence: &Evidence,
    ) -> MatchOutput {
        smp_with_order(matcher, dataset, cover, evidence, None)
    }

    fn mmp(
        matcher: &dyn ProbabilisticMatcher,
        dataset: &Dataset,
        cover: &Cover,
        evidence: &Evidence,
        config: &MmpConfig,
    ) -> MatchOutput {
        mmp_with_order(matcher, dataset, cover, evidence, config, None)
    }

    #[test]
    fn shard_smp_equals_sequential_fixpoint() {
        let (ds, cover, matcher, _) = paper_example();
        let sequential = smp(&matcher, &ds, &cover, &Evidence::none());
        for policy in [SplitPolicy::Pin, SplitPolicy::Split] {
            for shards in [1, 2, 3, 5] {
                let (out, report) =
                    run_shard_smp(&matcher, &ds, &cover, &Evidence::none(), shards, policy);
                assert_eq!(out.matches, sequential.matches, "shards={shards}");
                assert_eq!(report.shards, shards);
                assert!(report.epochs >= 2, "work epoch + confirming epoch");
                let evals: u64 = report.per_shard.iter().map(|s| s.evaluations).sum();
                assert_eq!(evals, out.stats.neighborhoods_processed);
            }
        }
    }

    #[test]
    fn shard_mmp_equals_sequential_fixpoint() {
        let (ds, cover, matcher, expected) = paper_example();
        let sequential = mmp(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &MmpConfig::default(),
        );
        assert_eq!(sequential.matches, expected);
        for policy in [SplitPolicy::Pin, SplitPolicy::Split] {
            for shards in [1, 2, 4] {
                let (out, report) = run_shard_mmp(
                    &matcher,
                    &ds,
                    &cover,
                    &Evidence::none(),
                    &MmpConfig::default(),
                    shards,
                    policy,
                );
                assert_eq!(out.matches, expected, "shards={shards} policy={policy:?}");
                assert_eq!(out.stats.rounds, report.epochs);
                assert!(report.makespan <= report.total_work + Duration::from_nanos(1));
            }
        }
    }

    #[test]
    fn shard_mmp_full_recompute_arm_matches_too() {
        let (ds, cover, matcher, expected) = paper_example();
        let mmp_config = MmpConfig {
            incremental: false,
            ..Default::default()
        };
        let (out, _) = run_shard_mmp(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &mmp_config,
            3,
            SplitPolicy::Split,
        );
        assert_eq!(out.matches, expected);
    }

    fn run_shard_no_mp(
        matcher: &(dyn Matcher + Sync),
        dataset: &Dataset,
        cover: &Cover,
        evidence: &Evidence,
        shards: usize,
        opts: &RuntimeOptions,
    ) -> (MatchOutput, ShardReport) {
        let plan = plan(dataset, cover, shards, SplitPolicy::Split);
        shard_no_mp_planned_opts(matcher, dataset, cover, &plan, evidence, opts)
    }

    #[test]
    fn shard_no_mp_equals_the_baseline() {
        let (ds, cover, matcher, _) = paper_example();
        // Caller evidence on both sides: a supplied match and a blocked
        // pair the matcher would otherwise find.
        let evidence = Evidence::new(
            [Pair::new(em_core::EntityId(0), em_core::EntityId(1))]
                .into_iter()
                .collect(),
            [Pair::new(em_core::EntityId(5), em_core::EntityId(6))]
                .into_iter()
                .collect(),
        );
        for ev in [Evidence::none(), evidence] {
            let baseline = no_mp_baseline(&matcher, &ds, &cover, &ev);
            for shards in [1, 2, 3, 5] {
                let (out, report) = run_shard_no_mp(
                    &matcher,
                    &ds,
                    &cover,
                    &ev,
                    shards,
                    &RuntimeOptions::default(),
                );
                assert_eq!(out.matches, baseline.matches, "shards={shards}");
                assert_eq!(
                    out.stats.neighborhoods_processed,
                    cover.len() as u64,
                    "every neighborhood is evaluated exactly once"
                );
                assert_eq!(report.epoch_traces[0].len(), cover.len());
                assert!(report.epoch_traces[1..].iter().all(Vec::is_empty));
            }
        }
    }

    #[test]
    fn epoch_traces_sum_to_the_evaluations() {
        let (ds, cover, matcher, _) = paper_example();
        let none = Evidence::none();
        let opts = RuntimeOptions::default();
        let runs = [
            run_shard_no_mp(&matcher, &ds, &cover, &none, 2, &opts),
            run_shard_smp(&matcher, &ds, &cover, &none, 2, SplitPolicy::Split),
            run_shard_mmp(
                &matcher,
                &ds,
                &cover,
                &none,
                &MmpConfig::default(),
                2,
                SplitPolicy::Split,
            ),
        ];
        for (out, report) in runs {
            let recorded: usize = report.epoch_traces.iter().map(Vec::len).sum();
            assert_eq!(recorded as u64, out.stats.neighborhoods_processed);
            assert_eq!(report.epoch_traces.len() as u64, report.epochs);
            // The first epoch touches every neighborhood.
            assert_eq!(report.epoch_traces[0].len(), cover.len());
        }
    }

    #[test]
    fn report_accounts_for_every_neighborhood_and_unit() {
        let (ds, cover, matcher, _) = paper_example();
        let (out, report) = run_shard_mmp(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &MmpConfig::default(),
            2,
            SplitPolicy::Split,
        );
        assert_eq!(
            report
                .per_shard
                .iter()
                .map(|s| s.neighborhoods)
                .sum::<usize>(),
            cover.len()
        );
        assert_eq!(report.neighborhood_costs.len(), cover.len());
        // Every neighborhood was measured at least once.
        assert_eq!(report.measured().len(), cover.len());
        assert!(report.est_skew >= 1.0 - 1e-9);
        assert!(report.busy_skew >= 1.0 - 1e-9);
        assert!(report.speedup >= 1.0 - 1e-9);
        assert!(out.stats.promotions > 0, "the paper example promotes");
    }

    #[test]
    fn replan_from_measured_costs_is_valid_and_byte_identical() {
        let (ds, cover, matcher, expected) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        let plan = ShardPlan::build(&index, 2, &estimate_costs(&ds, &cover), SplitPolicy::Split);
        let (out, report) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &Evidence::none(),
            &MmpConfig::default(),
            None,
            &RuntimeOptions::default(),
        );
        assert_eq!(out.matches, expected);

        let replanned = plan.replan_from(&index, &report);
        assert_eq!(replanned.shards.len(), plan.shards.len());
        assert_eq!(replanned.policy, plan.policy);
        // The balancer's cost slice is now the measured busy times.
        for &(id, busy) in &report.measured() {
            assert_eq!(replanned.costs[id.index()], (busy.as_nanos() as u64).max(1));
        }
        // Still a partition, and the fixpoint does not depend on the plan.
        let mut seen: Vec<NeighborhoodId> = replanned.shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), cover.len());
        let (again, report2) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &replanned,
            &Evidence::none(),
            &MmpConfig::default(),
            None,
            &RuntimeOptions::default(),
        );
        assert_eq!(again.matches, expected);
        assert_eq!(report2.shards, 2);
    }

    /// Silence the default panic message for injected faults so fault
    /// tests do not spam stderr; restores nothing (hooks are global, so
    /// the filter just forwards anything that is not an injected
    /// fault).
    fn quiet_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
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
        });
    }

    #[test]
    fn panicked_shard_recovers_to_the_same_fixpoint() {
        quiet_injected_panics();
        let (ds, cover, matcher, expected) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        for shards in [2, 3] {
            let plan = ShardPlan::build(
                &index,
                shards,
                &estimate_costs(&ds, &cover),
                SplitPolicy::Split,
            );
            for victim in 0..shards {
                for epoch in [1, 2] {
                    let opts = RuntimeOptions::with_faults(
                        crate::fault::FaultPlan::new().panic_shard(victim, epoch),
                    );
                    let (out, report) = shard_mmp_planned_opts(
                        &matcher,
                        &ds,
                        &cover,
                        &index,
                        &plan,
                        &Evidence::none(),
                        &MmpConfig::default(),
                        None,
                        &opts,
                    );
                    assert_eq!(
                        out.matches, expected,
                        "shards={shards} victim={victim} epoch={epoch}"
                    );
                    assert_eq!(report.shard_panics, 1);
                    assert_eq!(report.shards_recovered, 1);
                    assert_eq!(out.stats.shard_panics, 1);
                    assert_eq!(out.stats.shards_recovered, 1);
                }
            }
        }
    }

    #[test]
    fn panicked_smp_shard_recovers_too() {
        quiet_injected_panics();
        let (ds, cover, matcher, _) = paper_example();
        let sequential = smp(&matcher, &ds, &cover, &Evidence::none());
        let index = DependencyIndex::build(&ds, &cover);
        let plan = ShardPlan::build(&index, 3, &estimate_costs(&ds, &cover), SplitPolicy::Pin);
        let opts = RuntimeOptions::with_faults(crate::fault::FaultPlan::new().panic_shard(1, 1));
        let (out, report) = shard_smp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &Evidence::none(),
            &opts,
        );
        assert_eq!(out.matches, sequential.matches);
        assert_eq!(report.shard_panics, 1);
        assert_eq!(report.shards_recovered, 1);
    }

    #[test]
    fn panicked_no_mp_shard_recovers_too() {
        quiet_injected_panics();
        let (ds, cover, matcher, _) = paper_example();
        let baseline = no_mp_baseline(&matcher, &ds, &cover, &Evidence::none());
        for epoch in [1, 2] {
            let opts =
                RuntimeOptions::with_faults(crate::fault::FaultPlan::new().panic_shard(1, epoch));
            let (out, report) = run_shard_no_mp(&matcher, &ds, &cover, &Evidence::none(), 3, &opts);
            assert_eq!(out.matches, baseline.matches, "epoch={epoch}");
            assert_eq!(report.shards_recovered, 1);
        }
    }

    #[test]
    fn stalled_shard_is_declared_dead_and_recovered() {
        let (ds, cover, matcher, expected) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        let plan = ShardPlan::build(&index, 2, &estimate_costs(&ds, &cover), SplitPolicy::Split);
        let opts = RuntimeOptions {
            // Tight budget so the test declares death fast: 5ms + one
            // 10ms retry.
            fence_timeout: Duration::from_millis(5),
            fence_retries: 1,
            faults: crate::fault::FaultPlan::new().stall_shard(0, 1),
            check_invariants: true,
        };
        let (out, report) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &Evidence::none(),
            &MmpConfig::default(),
            None,
            &opts,
        );
        assert_eq!(out.matches, expected);
        assert_eq!(report.stalled_shards, 1);
        assert_eq!(report.shards_recovered, 1);
        assert!(report.fence_timeouts >= 1);
        assert_eq!(report.shard_panics, 0);
        assert!(out.stats.invariant_checks > 0, "fence checks ran");
        assert_eq!(out.stats.invariant_violations, 0);
    }

    #[test]
    fn delayed_response_within_budget_is_not_a_death() {
        let (ds, cover, matcher, expected) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        let plan = ShardPlan::build(&index, 2, &estimate_costs(&ds, &cover), SplitPolicy::Split);
        let opts = RuntimeOptions {
            fence_timeout: Duration::from_secs(10),
            fence_retries: 3,
            faults: crate::fault::FaultPlan::new().delay_response(1, 1, Duration::from_millis(20)),
            check_invariants: false,
        };
        let (out, report) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &Evidence::none(),
            &MmpConfig::default(),
            None,
            &opts,
        );
        assert_eq!(out.matches, expected);
        assert_eq!(report.shards_recovered, 0, "a slow shard is not dead");
        assert_eq!(report.shard_panics, 0);
        assert_eq!(report.stalled_shards, 0);
    }

    #[test]
    fn delay_past_the_budget_degenerates_to_a_stall_and_drops_the_late_response() {
        let (ds, cover, matcher, expected) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        let plan = ShardPlan::build(&index, 2, &estimate_costs(&ds, &cover), SplitPolicy::Split);
        // The budget must be long enough that the healthy shard always
        // answers within it on a loaded machine (a 2 ms budget declared
        // both shards stalled about one run in three), and the delay
        // ten times longer than the budget.
        let opts = RuntimeOptions {
            fence_timeout: Duration::from_millis(40),
            fence_retries: 0,
            faults: crate::fault::FaultPlan::new().delay_response(0, 1, Duration::from_millis(400)),
            check_invariants: false,
        };
        let (out, report) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &Evidence::none(),
            &MmpConfig::default(),
            None,
            &opts,
        );
        assert_eq!(out.matches, expected);
        assert_eq!(report.stalled_shards, 1);
        assert_eq!(report.shards_recovered, 1);
    }

    #[test]
    fn every_shard_dying_degenerates_to_sequential() {
        quiet_injected_panics();
        let (ds, cover, matcher, expected) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        let plan = ShardPlan::build(&index, 3, &estimate_costs(&ds, &cover), SplitPolicy::Split);
        let faults = crate::fault::FaultPlan::new()
            .panic_shard(0, 1)
            .panic_shard(1, 1)
            .panic_shard(2, 2);
        let (out, report) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &Evidence::none(),
            &MmpConfig::default(),
            None,
            &RuntimeOptions::with_faults(faults),
        );
        assert_eq!(out.matches, expected);
        assert_eq!(report.shard_panics, 3);
        assert_eq!(report.shards_recovered, 3);
    }

    #[test]
    fn warm_started_run_survives_a_panic() {
        quiet_injected_panics();
        let (ds, cover, matcher, expected) = paper_example();
        let index = DependencyIndex::build(&ds, &cover);
        let plan = ShardPlan::build(&index, 2, &estimate_costs(&ds, &cover), SplitPolicy::Split);
        // Healthy warm run to fill the bank...
        let mut warm = WarmStart::new();
        let (first, _) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &Evidence::none(),
            &MmpConfig::default(),
            Some(&mut warm),
            &RuntimeOptions::default(),
        );
        assert_eq!(first.matches, expected);
        warm.entity_floor = ds.entities.len() as u32;
        // ...then a faulted warm re-run, seeded (as sessions do) with
        // the previous fixpoint as evidence: the victim's seed was
        // taken by the original worker, so its replacement re-evaluates
        // its full worklist — slower, but byte-identical.
        let evidence = Evidence::positive(first.matches.clone());
        let opts = RuntimeOptions::with_faults(crate::fault::FaultPlan::new().panic_shard(0, 1));
        let (again, report) = shard_mmp_planned_opts(
            &matcher,
            &ds,
            &cover,
            &index,
            &plan,
            &evidence,
            &MmpConfig::default(),
            Some(&mut warm),
            &opts,
        );
        assert_eq!(again.matches, expected);
        assert_eq!(report.shards_recovered, 1);
    }

    #[test]
    fn initial_evidence_flows_through_the_sharded_run() {
        let (ds, cover, matcher, _) = paper_example();
        // Feed the sequential SMP fixpoint back in as evidence: the
        // sharded run must reproduce the sequential MMP-on-evidence
        // fixpoint.
        let smp_out = smp(&matcher, &ds, &cover, &Evidence::none());
        let evidence = Evidence::positive(smp_out.matches.clone());
        let sequential = mmp(&matcher, &ds, &cover, &evidence, &MmpConfig::default());
        let (sharded, _) = run_shard_mmp(
            &matcher,
            &ds,
            &cover,
            &evidence,
            &MmpConfig::default(),
            2,
            SplitPolicy::Split,
        );
        assert_eq!(sharded.matches, sequential.matches);
        assert!(smp_out.matches.is_subset(&sharded.matches));
    }
}
