//! `serve-churn`: an `em_net::Server` on a Unix socket hosting two
//! durable sessions, fed by one generator on one connection.
//!
//! The generator runs an open loop: churn deltas at [`RATE_DPS`], each
//! followed by a `Drain` (the read-your-writes barrier), a `Query`
//! every [`QUERY_EVERY`] deltas; then [`BURSTS`] bursts kept below
//! `max_pending`, a `Checkpoint` per session, a WAL tail of
//! [`TAIL_DELTAS`] deltas, and [`RECOVERIES`] cycles of `Kill` followed
//! by recovery into a new incarnation of the server.

use crate::report::Report;
use crate::schedule::OpenLoop;
use crate::stats::{median, ms, percentile};
use crate::timed::{MlnCounters, TimedMatcher};
use crate::trace;
use crate::world::{digest, peak_rss_mb, pipeline, World};
use crate::RUN_DIR;
use em::store::{SNAPSHOT_FILE, WAL_FILE};
use em::{ChurnOptions, DatasetDelta, MatchOutcome, MatcherChoice, RunStats, Scheme, UpdateReport};
use em_core::{Dataset, Pair};
use em_net::{Client, Endpoint, NetError, Request, Response, Server, ServerAddr, ShutdownKind};
use em_serve::{channel_source, ChannelSource, Daemon, Op, ServeConfig, ServeError, StreamFrame};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Datagen scale of each session's bibliography.
const SCALE: f64 = 0.02;
/// The bibliography both sessions serve; `--seed` draws each session's
/// churn traffic. One bibliography for both keeps their per-delta costs
/// alike, so the freshness median does not fall between two modes.
const WORLD_SEED: u64 = 7;
/// Session names.
const SESSIONS: [&str; 2] = ["hepth-a", "hepth-b"];
/// Share of the template each session starts with.
const INITIAL_SHARE: f64 = 0.5;
/// Open-loop delta rate across both sessions (deltas per second),
/// fixed below the measured `drain_dps` of this tree.
const RATE_DPS: f64 = 5.0;
/// Fewest steady-phase deltas, so `fresh_ms_p90` has ten samples
/// beyond it.
const MIN_STEADY: usize = 100;
/// A `Query` after every this many deltas.
const QUERY_EVERY: usize = 2;
/// Bursts, and deltas per burst (across both sessions; each session's
/// share stays below `max_pending`, so the burst measures batching,
/// not shedding).
const BURSTS: usize = 3;
const BURST_DELTAS: usize = 64;
/// Deltas applied after the checkpoint: the WAL tail recovery replays.
const TAIL_DELTAS: usize = 8;
/// Set-ups measured per run (the last one serves the stream), and
/// kill-and-recover cycles after it.
const SETUPS: usize = 7;
const RECOVERIES: usize = 9;

/// One session's traffic.
struct Traffic {
    initial: Dataset,
    deltas: Vec<DatasetDelta>,
}

/// Churn that keeps the live entity count level: each delta adds the
/// next slice of the template and retracts as many live entities on
/// average. The generator retracts `floor(live * retract_fraction)`
/// entities, so the fraction carries half an entity to offset the
/// rounding down; without it the live count creeps up until the
/// truncation is paid for.
fn traffic(world: &World, steps: usize, seed: u64) -> Traffic {
    let n = world.dataset.entities.len() as u32;
    let initial = (f64::from(n) * INITIAL_SHARE) as u32;
    let slice = f64::from(n - initial) / steps as f64;
    let opts = ChurnOptions {
        retract_fraction: (slice + 0.5) / f64::from(initial),
        ..ChurnOptions::default()
    };
    let (initial, deltas) =
        DatasetDelta::churn_script_with(&world.dataset, initial, steps, seed, &opts);
    Traffic { initial, deltas }
}

type ServeResult = Result<(Daemon<ChannelSource>, ShutdownKind), ServeError>;

/// Builds the matcher of one session from its initial dataset (a fresh
/// matcher per session build, as `MatcherChoice::MlnExact` gives).
type MakeMatcher = Arc<dyn Fn(&Dataset) -> MatcherChoice + Send + Sync>;

/// One server incarnation on its own thread. Dropping it kills the
/// server (if still up) and joins the thread.
struct Incarnation {
    handle: Option<std::thread::JoinHandle<ServeResult>>,
    addr: ServerAddr,
}

impl Incarnation {
    /// Bind `socket`, then admit every session (recovering those whose
    /// store already exists) and serve.
    fn spawn(
        socket: &Path,
        store_root: &Path,
        initials: &[Dataset],
        matcher: &MakeMatcher,
    ) -> Result<Self, String> {
        let server = Server::bind(&Endpoint::Unix(socket.to_owned()))
            .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let addr = server.addr().clone();
        let config = ServeConfig {
            store_root: Some(store_root.to_owned()),
            ..ServeConfig::default()
        };
        let sessions: Vec<(&'static str, Dataset)> = SESSIONS
            .iter()
            .copied()
            .zip(initials.iter().cloned())
            .collect();
        let matcher = Arc::clone(matcher);
        let handle = std::thread::Builder::new()
            .name("perfbench-serve".to_owned())
            .spawn(move || -> ServeResult {
                let (tx, source) = channel_source();
                let mut daemon = Daemon::new(source, config);
                for (name, initial) in sessions {
                    let matcher = Arc::clone(&matcher);
                    daemon.admit(name, move || {
                        pipeline(initial.clone(), matcher(&initial), Scheme::Mmp)
                    })?;
                }
                server.serve(daemon, tx)
            })
            .map_err(|e| format!("spawn server thread: {e}"))?;
        Ok(Self {
            handle: Some(handle),
            addr,
        })
    }

    /// Wait for the serve thread and take its daemon.
    fn join(mut self) -> Result<Daemon<ChannelSource>, String> {
        let handle = self.handle.take().expect("joined once");
        match handle.join() {
            Ok(Ok((daemon, _))) => Ok(daemon),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for Incarnation {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Ok(mut client) = Client::connect(&self.addr) {
                let _ = client.kill();
            }
            let _ = handle.join();
        }
    }
}

/// The generator's connection, counting every operation.
struct Generator<'r> {
    client: Client,
    report: &'r mut Report,
    net_errors: u64,
}

impl Generator<'_> {
    fn op<T>(&mut self, what: &str, result: Result<T, NetError>) -> Result<T, String> {
        let ok = result.is_ok();
        if !ok {
            self.net_errors += 1;
        }
        self.report.attempt(ok, || format!("{what} failed"));
        result.map_err(|e| format!("{what}: {e}"))
    }

    fn ingest(&mut self, session: &str, delta: &DatasetDelta) -> Result<(), String> {
        let _span = trace::span("net.ingest");
        let frame = StreamFrame::Delta {
            session: session.to_owned(),
            delta: Box::new(delta.clone()),
        };
        let result = self.client.ingest(&frame);
        self.op("ingest", result)
    }

    fn drain(&mut self) -> Result<(), String> {
        let _span = trace::span("net.drain");
        let result = self.client.drain();
        self.op("drain", result).map(drop)
    }

    fn query(&mut self, session: &str) -> Result<Vec<Pair>, String> {
        let _span = trace::span("net.query");
        let result = self.client.query(session);
        self.op("query", result)
    }

    fn digest(&mut self, session: &str) -> Result<String, String> {
        let result = self.client.digest(session);
        self.op("digest", result)
    }

    fn backlog(&mut self) -> Result<u64, String> {
        let result = self.client.list();
        let infos = self.op("list", result)?;
        Ok(infos.iter().map(|i| i.pending).sum())
    }

    fn checkpoint(&mut self, session: &str) -> Result<(), String> {
        let _span = trace::span("net.checkpoint");
        let result = self.client.checkpoint(session);
        self.op("checkpoint", result)
    }

    fn kill(&mut self) -> Result<(), String> {
        let _span = trace::span("net.kill");
        let result = self.client.kill();
        self.op("kill", result)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.report.attempt(ok, what);
    }
}

/// What one pass over the workload measured.
#[derive(Default)]
struct Pass {
    setup_s: Vec<f64>,
    fresh_ms: Vec<f64>,
    late_ms: Vec<f64>,
    query_ms: Vec<f64>,
    drain_dps: Vec<f64>,
    recover_s: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    backlog_max: u64,
    snapshot_bytes: u64,
    wal_bytes: u64,
    ingest_bytes: u64,
    query_reply_bytes: Vec<f64>,
    net_errors: u64,
    /// Final match-set digest per session.
    final_digests: Vec<String>,
    /// The killed incarnation's daemon, for the replay checks.
    daemon: Option<Daemon<ChannelSource>>,
    /// Store copies taken at `Kill`, for library-direct recovery.
    store_copies: Vec<PathBuf>,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Payload bytes of a request on the wire (frame header excluded).
fn request_bytes(request: &Request) -> u64 {
    request.encode().1.len() as u64
}

/// Run the whole stream once against a fresh server in `dir`.
fn run_pass(
    dir: &Path,
    traffic: &[Traffic],
    steady: usize,
    matcher: &MakeMatcher,
    copy_stores: bool,
    report: &mut Report,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let initials: Vec<Dataset> = traffic.iter().map(|t| t.initial.clone()).collect();

    // Set-up: bind, admit both sessions (build + first cold run), first
    // Query answered. Repeated on fresh stores; the last one stays up.
    let mut live = None;
    for i in 0..SETUPS {
        let _span = trace::span("serve.setup");
        let store_root = dir.join(format!("store-{i}"));
        let start = Instant::now();
        let inc = Incarnation::spawn(
            &dir.join(format!("s{i}.sock")),
            &store_root,
            &initials,
            matcher,
        )?;
        let client = Client::connect_retry(&inc.addr, Duration::from_secs(60))
            .map_err(|e| format!("connect: {e}"))?;
        let mut gen = Generator {
            client,
            report,
            net_errors: 0,
        };
        gen.query(SESSIONS[0])?;
        pass.setup_s.push(start.elapsed().as_secs_f64());
        pass.net_errors += gen.net_errors;
        if i + 1 < SETUPS {
            gen.kill()?;
            drop(gen);
            drop(inc.join()?);
            std::fs::remove_dir_all(&store_root).map_err(|e| e.to_string())?;
        } else {
            live = Some((inc, store_root, gen.client));
        }
    }
    let (inc, store_root, client) = live.expect("SETUPS > 0");
    let mut gen = Generator {
        client,
        report,
        net_errors: 0,
    };
    // The stream alternates sessions: delta k goes to session k mod 2.
    let stream: Vec<(&str, &DatasetDelta)> = (0..steady + BURSTS * BURST_DELTAS + TAIL_DELTAS)
        .map(|k| {
            let s = k % SESSIONS.len();
            (SESSIONS[s], &traffic[s].deltas[k / SESSIONS.len()])
        })
        .collect();
    pass.ingest_bytes = stream
        .iter()
        .map(|(session, delta)| {
            request_bytes(&Request::Ingest(StreamFrame::Delta {
                session: (*session).to_owned(),
                delta: Box::new((*delta).clone()),
            }))
        })
        .sum();
    let mut script = stream.into_iter();

    // Steady open loop: delta k is due at k / RATE_DPS; its freshness
    // runs from that due time to the return of the Drain after it.
    let schedule = OpenLoop::new(RATE_DPS);
    for k in 0..steady {
        let (due, late) = schedule.wait(k);
        pass.late_ms.push(ms(late));
        let (session, delta) = script.next().expect("script covers the stream");
        gen.ingest(session, delta)?;
        gen.drain()?;
        pass.fresh_ms.push(ms(Instant::now() - due));
        if k % QUERY_EVERY == QUERY_EVERY - 1 {
            let start = Instant::now();
            gen.query(session)?;
            pass.query_ms.push(ms(start.elapsed()));
        }
    }

    // Bursts: deltas back to back, then one Drain.
    for _ in 0..BURSTS {
        let _span = trace::span("gen.burst");
        let start = Instant::now();
        for _ in 0..BURST_DELTAS {
            let (session, delta) = script.next().expect("script covers the stream");
            gen.ingest(session, delta)?;
        }
        pass.backlog_max = pass.backlog_max.max(gen.backlog()?);
        gen.drain()?;
        pass.drain_dps
            .push(BURST_DELTAS as f64 / start.elapsed().as_secs_f64());
    }

    for session in SESSIONS {
        let start = Instant::now();
        gen.checkpoint(session)?;
        pass.checkpoint_ms.push(ms(start.elapsed()));
    }
    for _ in 0..TAIL_DELTAS {
        let (session, delta) = script.next().expect("script covers the stream");
        gen.ingest(session, delta)?;
    }
    gen.drain()?;

    // State at death, over the wire.
    let mut before = Vec::new();
    for session in SESSIONS {
        let pairs = gen.query(session)?;
        pass.query_reply_bytes.push(
            Response::Matches {
                session: session.to_owned(),
                pairs: pairs.clone(),
            }
            .encode()
            .1
            .len() as f64,
        );
        before.push((gen.digest(session)?, digest(&pairs)));
    }
    for session in SESSIONS {
        let dir = store_root.join(session);
        pass.snapshot_bytes += file_len(&dir.join(SNAPSHOT_FILE));
        pass.wal_bytes += file_len(&dir.join(WAL_FILE));
        if copy_stores {
            let copy = store_root.with_extension("copy").join(session);
            copy_dir(&dir, &copy).map_err(|e| format!("copy store: {e}"))?;
            pass.store_copies.push(copy);
        }
    }

    // Kill, then recover into a new incarnation, RECOVERIES times over.
    // A recovery ends with the first Query the new incarnation answers,
    // which must equal the pre-kill match set. Recovery writes no
    // checkpoint, so each one repeats the same snapshot load and
    // WAL-tail replay.
    let mut inc = inc;
    let mut first_killed = None;
    for i in 0..RECOVERIES {
        gen.kill()?;
        let killed_at = Instant::now();
        let span = trace::span("serve.recover");
        let killed = inc.join()?;
        inc = Incarnation::spawn(
            &dir.join(format!("r{i}.sock")),
            &store_root,
            &initials,
            matcher,
        )?;
        gen.client = Client::connect_retry(&inc.addr, Duration::from_secs(60))
            .map_err(|e| format!("reconnect: {e}"))?;
        let recovered = gen.query(SESSIONS[0])?;
        pass.recover_s.push(killed_at.elapsed().as_secs_f64());
        drop(span);
        gen.check(digest(&recovered) == before[0].1, || {
            "first query after recovery differs from the pre-kill match set".to_owned()
        });
        for (session, (state, matches)) in SESSIONS.iter().zip(&before) {
            let after = gen.digest(session)?;
            gen.check(&after == state, || {
                format!("{session}: recovered state digest {after} != pre-kill {state}")
            });
            let pairs = gen.query(session)?;
            gen.check(&digest(&pairs) == matches, || {
                format!("{session}: recovered match set differs from pre-kill")
            });
        }
        // The first killed incarnation served the whole stream: its
        // stats and op log are what the replay checks read.
        first_killed.get_or_insert(killed);
    }
    gen.kill()?;
    pass.net_errors += gen.net_errors;
    drop(gen);
    drop(inc.join()?);
    pass.final_digests = before.into_iter().map(|(_, m)| m).collect();
    pass.daemon = first_killed;
    Ok(pass)
}

/// The killed daemon's op logs replayed library-direct, with each
/// `update()` and `run()` timed.
#[derive(Default)]
struct Replay {
    update_ms: Vec<f64>,
    run_ms: Vec<f64>,
    /// Seconds of each step that applied one delta: its `update()`
    /// and the `run()` after it.
    delta_s: Vec<f64>,
    /// F1 of each run's match set against the references live then.
    f1: Vec<f64>,
    reports: Vec<UpdateReport>,
    live_drift: f64,
    runs: Vec<MatchOutcome>,
    /// Neighborhoods in the cover at each run, summed over the runs.
    run_neighborhoods: u64,
    /// The replayed sessions, in `SESSIONS` order.
    sessions: Vec<em::MatchSession>,
}

impl Replay {
    /// Replay every session's op log of `daemon`; each replay must land
    /// on the match set the session served (`served`, digests).
    fn logs(
        world: &World,
        daemon: &Daemon<ChannelSource>,
        traffic: &[Traffic],
        served: &[String],
        report: &mut Report,
    ) -> Self {
        let mut replayed = Self::default();
        for ((session, t), want) in SESSIONS.iter().zip(traffic).zip(served) {
            let ops = daemon.op_log(session).expect("admitted");
            let s = replayed.session(world, &t.initial, ops);
            let got = digest(&s.matches().to_sorted_vec());
            report.attempt(&got == want, || {
                format!("{session}: op-log replay {got} != served {want}")
            });
            replayed.sessions.push(s);
        }
        replayed
    }

    fn session(&mut self, world: &World, initial: &Dataset, ops: &[Op]) -> em::MatchSession {
        let mut session = pipeline(initial.clone(), MatcherChoice::MlnExact, Scheme::Mmp)
            .build()
            .expect("the serve pipeline is coherent");
        let live0 = session.dataset().entities.live_count() as f64;
        // Updates since the last run, and their time.
        let (mut updates, mut step) = (0, Duration::ZERO);
        for op in ops {
            match op {
                Op::Update(delta) => {
                    let _span = trace::span("em.update");
                    let start = Instant::now();
                    let r = session.update(delta);
                    let took = start.elapsed();
                    updates += 1;
                    step += took;
                    self.update_ms.push(ms(took));
                    self.reports.push(r);
                    let live = session.dataset().entities.live_count() as f64;
                    self.live_drift = self.live_drift.max((live - live0).abs() / live0);
                }
                Op::ResetWarm => session.reset_warm(),
                Op::Run => {
                    let _span = trace::span("em.run");
                    let start = Instant::now();
                    let outcome = session.run();
                    let took = start.elapsed();
                    self.run_ms.push(ms(took));
                    if updates == 1 {
                        self.delta_s.push((step + took).as_secs_f64());
                    }
                    (updates, step) = (0, Duration::ZERO);
                    self.f1.push(world.f1(session.dataset(), &outcome.matches));
                    self.runs.push(outcome);
                    self.run_neighborhoods += session.status().neighborhoods;
                }
            }
        }
        session
    }
}

/// Run the workload and report its end-to-end metrics, or, with
/// `traced`, its per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let steady = ((seconds * RATE_DPS).round() as usize).max(MIN_STEADY);
    let per_session = (steady + BURSTS * BURST_DELTAS + TAIL_DELTAS).div_ceil(SESSIONS.len());
    let world = World::generate("hepth", SCALE, WORLD_SEED);
    let traffic: Vec<Traffic> = (0..SESSIONS.len() as u64)
        .map(|i| traffic(&world, per_session, seed.wrapping_mul(31).wrapping_add(i)))
        .collect();
    let dir = PathBuf::from(RUN_DIR).join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_passes(&dir, &world, &traffic, steady, traced);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_passes(
    dir: &Path,
    world: &World,
    traffic: &[Traffic],
    steady: usize,
    traced: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    let plain: MakeMatcher = Arc::new(|_| MatcherChoice::MlnExact);
    let mut untraced = run_pass(
        &dir.join("plain"),
        traffic,
        steady,
        &plain,
        false,
        &mut report,
    )?;
    // Peak memory of the serving, before the checks below build more
    // sessions.
    let peak_rss = peak_rss_mb();
    let fresh_p50 = median(&untraced.fresh_ms);

    if !traced {
        // The matching one served delta costs and the quality of what
        // the sessions served, measured on a library-direct replay of
        // the op logs, free of the open loop's timing.
        let daemon = untraced.daemon.take().expect("pass keeps its daemon");
        let replayed = Replay::logs(
            world,
            &daemon,
            traffic,
            &untraced.final_digests,
            &mut report,
        );
        drop(daemon);
        report.metric("setup_s", median(&untraced.setup_s), "s");
        report.metric("match_s", median(&replayed.delta_s), "s");
        report.metric(
            "f1",
            replayed.f1.iter().sum::<f64>() / replayed.f1.len() as f64,
            "ratio",
        );
        report.metric("query_ms_p50", median(&untraced.query_ms), "ms");
        report.metric("peak_rss_mb", peak_rss, "MB");
        return Ok(report);
    }

    // The untraced daemon equals a standalone replay of its op log.
    let daemon = untraced.daemon.take().expect("pass keeps its daemon");
    for (session, want) in SESSIONS.iter().zip(&untraced.final_digests) {
        let replayed = daemon
            .replay_standalone(session)
            .map_err(|e| format!("replay {session}: {e}"))?;
        let got = digest(&replayed.matches().to_sorted_vec());
        report.attempt(&got == want, || {
            format!("{session}: standalone replay {got} != served {want}")
        });
    }
    drop(daemon);

    // Traced: the same stream again through the timing matcher.
    trace::set_enabled(true);
    let counters = Arc::new(MlnCounters::default());
    let timed: MakeMatcher = {
        let counters = Arc::clone(&counters);
        Arc::new(move |dataset| {
            MatcherChoice::custom_probabilistic(TimedMatcher::exact(dataset, Arc::clone(&counters)))
        })
    };
    let mut pass = run_pass(
        &dir.join("traced"),
        traffic,
        steady,
        &timed,
        true,
        &mut report,
    )?;
    let mln = counters.totals();
    for (session, (a, b)) in SESSIONS
        .iter()
        .zip(untraced.final_digests.iter().zip(&pass.final_digests))
    {
        report.attempt(a == b, || {
            format!("{session}: traced match set {b} != untraced {a}")
        });
    }

    // Library-direct recovery from the store copies taken at Kill.
    let start = Instant::now();
    for (copy, t) in pass.store_copies.iter().zip(traffic) {
        let _span = trace::span("store.recover");
        let ok = pipeline(t.initial.clone(), MatcherChoice::MlnExact, Scheme::Mmp)
            .store(copy)
            .build()
            .is_ok();
        report.attempt(ok, || format!("recover {}", copy.display()));
    }
    let store_recover_s = start.elapsed().as_secs_f64();

    // Replay the op logs, timing every update and run; the replay must
    // land on the served match sets.
    let daemon = pass.daemon.take().expect("pass keeps its daemon");
    let replayed = Replay::logs(world, &daemon, traffic, &pass.final_digests, &mut report);
    let (mut batches, mut frames, mut coalesced) = (0, 0, 0);
    let (mut sheds, mut misses) = (0, 0);
    let mut staleness = Vec::new();
    let (mut candidate_pairs, mut neighborhoods, mut recall) = (0, 0, 0.0);
    for (session, s) in SESSIONS.iter().zip(&replayed.sessions) {
        let status = s.status();
        candidate_pairs += status.candidate_pairs;
        neighborhoods += status.neighborhoods;
        recall += world.blocking_recall(s.dataset()) / SESSIONS.len() as f64;
        let stats = daemon.stats(session).expect("admitted");
        batches += stats.batches;
        frames += stats.frames_applied;
        coalesced += stats.coalesced_frames;
        sheds += stats.shed_events;
        misses += stats.budget_misses;
        staleness.extend_from_slice(&stats.staleness_samples_ms);
    }
    drop(daemon);
    trace::set_enabled(false);
    report.spans = trace::take();

    // Blocking and framework work of the replayed runs: the warm path.
    let mut stats = RunStats::default();
    for run in &replayed.runs {
        stats.merge(&run.stats);
    }
    let stage_s = |f: fn(&MatchOutcome) -> Duration| {
        replayed.runs.iter().map(f).sum::<Duration>().as_secs_f64()
    };
    report.metric("blocking.s", stage_s(|r| r.timings.blocking), "s");
    report.metric("blocking.candidate_pairs", candidate_pairs as f64, "count");
    report.metric("blocking.neighborhoods", neighborhoods as f64, "count");
    report.metric("blocking.true_pair_recall", recall, "ratio");
    report.metric("core.plan_s", stage_s(|r| r.timings.planning), "s");
    report.core_counters(&stats, replayed.run_neighborhoods);

    let sum = |f: fn(&UpdateReport) -> u64| replayed.reports.iter().map(f).sum::<u64>() as f64;
    report.metric("session.update_ms_p50", median(&replayed.update_ms), "ms");
    report.metric("session.run_ms_p50", median(&replayed.run_ms), "ms");
    report.metric(
        "session.pairs_reblocked",
        sum(|r| r.pairs_reblocked),
        "count",
    );
    report.metric(
        "session.canopies_recomputed",
        sum(|r| r.canopies_recomputed),
        "count",
    );
    report.metric(
        "session.canopies_replayed",
        sum(|r| r.canopies_replayed),
        "count",
    );
    report.metric("session.memos_dropped", sum(|r| r.memos_dropped), "count");
    report.metric(
        "session.components_invalidated",
        sum(|r| r.components_invalidated),
        "count",
    );
    report.metric(
        "session.degraded_to_cold",
        sum(|r| u64::from(r.degraded_to_cold())),
        "count",
    );
    report.metric("session.live_drift", replayed.live_drift, "ratio");
    report.mln_counters(&mln);
    report.metric("store.checkpoint_ms", median(&pass.checkpoint_ms), "ms");
    report.metric("store.snapshot_bytes", pass.snapshot_bytes as f64, "bytes");
    report.metric("store.wal_bytes", pass.wal_bytes as f64, "bytes");
    report.metric("store.recover_s", store_recover_s, "s");
    report.metric("serve.batches", batches as f64, "count");
    report.metric(
        "serve.coalesce_ratio",
        frames as f64 / (frames - coalesced).max(1) as f64,
        "ratio",
    );
    report.metric("serve.staleness_ms_p50", median(&staleness), "ms");
    report.metric(
        "serve.staleness_ms_p90",
        percentile(&staleness, 90.0).ok_or("too few staleness samples for p90")?,
        "ms",
    );
    report.metric("serve.backlog_max", pass.backlog_max as f64, "count");
    report.metric("serve.shed_events", sheds as f64, "count");
    report.metric("serve.budget_misses", misses as f64, "count");
    report.metric(
        "net.query_reply_bytes",
        median(&pass.query_reply_bytes),
        "bytes",
    );
    report.metric("net.ingest_bytes", pass.ingest_bytes as f64, "bytes");
    report.metric(
        "net.errors",
        (untraced.net_errors + pass.net_errors) as f64,
        "count",
    );
    // Serving latency and throughput: too unsteady across runs on a
    // shared 2-core box to carry a bound, so reported here, from the
    // untraced pass.
    report.metric("fresh_ms_p50", fresh_p50, "ms");
    report.metric(
        "fresh_ms_p90",
        percentile(&untraced.fresh_ms, 90.0).ok_or("too few fresh samples for p90")?,
        "ms",
    );
    report.metric("drain_dps", median(&untraced.drain_dps), "deltas/s");
    report.metric("recover_s", median(&untraced.recover_s), "s");
    report.metric(
        "gen.late_ms_p90",
        percentile(&pass.late_ms, 90.0).ok_or("too few lateness samples for p90")?,
        "ms",
    );
    report.metric(
        "trace.fresh_ms_p50_overhead",
        median(&pass.fresh_ms) - fresh_p50,
        "ms",
    );
    Ok(report)
}
