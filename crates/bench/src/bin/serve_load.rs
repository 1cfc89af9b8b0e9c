//! Serving-daemon load driver: N sessions, one change stream, verified
//! end to end.
//!
//! Usage:
//!   serve_load [--dataset hepth|dblp] [--scale 0.004] [--seed 7]
//!              [--sessions 3] [--deltas 200] [--shards 1]
//!              [--matcher exact|walksat]
//!              [--fence-every 3] [--burst 2]
//!              [--max-pending 64] [--max-batch 8] [--budget-ms 1000]
//!              [--store DIR|none] [--evict on|off]
//!              [--socket none|unix|tcp] [--lru N] [--kill-every N]
//!              [--metrics PATH|none]
//!
//! Builds `--sessions` independent sessions over datagen worlds
//! (per-session seeds; traffic shapes cycle growth / retraction churn /
//! pathological churn), streams `--deltas` total delta frames at them
//! round-robin with a fence every `--fence-every` rounds, and drives an
//! [`em_serve::Daemon`] to quiescence in bursts so queues build real
//! depth. `--store DIR --evict on` additionally checkpoints and evicts
//! every session mid-stream and revives it from its `em-store`
//! directory. When the stream drains, every hosted session is verified
//! against a standalone replay of its op log (state digest + match
//! set).
//!
//! `--socket unix|tcp` routes the whole run over a real socket via
//! [`em_net`]: the daemon binds a Unix-domain (or localhost-TCP)
//! listener, an external blocking [`em_net::Client`] streams the
//! deltas and fences, issues `Drain` barriers between bursts, and
//! reads digests and match sets back over the wire. `--lru N` caps
//! resident sessions at N (0 = unlimited; requires `--store`), and
//! `--kill-every N` hard-kills the daemon (no checkpoints) after every
//! Nth burst and recovers a fresh incarnation from the stores
//! (requires `--store`), asserting the recovered wire digests match
//! the pre-kill ones.
//!
//! The run ends with greppable verdict lines (CI gates on them) and
//! exits non-zero if identity fails, a crash recovery diverged, frames
//! went missing, or the metrics stream cannot be written:
//!
//! ```text
//! serve_sessions_identical:true
//! serve_staleness_budget_met:true
//! serve_coalesced_frames:<n>
//! serve_shed_events:<n>
//! serve_dead_letters:0
//! serve_crash_recoveries:<n>
//! serve_crash_recovery_identical:true
//! serve_lru_evictions:<n>
//! ```
//!
//! `--metrics PATH` streams one `em-metrics-v1` `serve` line per
//! session (carrying its `serve_identical` verdict) plus a final
//! `verdict` line with the run-level verdicts above.

use em::{Backend, ChurnOptions, DatasetDelta, MatcherChoice, Pipeline, Scheme, SplitPolicy};
use em_bench::{profile_by_name, Flags, MetricsRecord, MetricsWriter};
use em_blocking::{BlockingConfig, SimilarityKernel};
use em_core::Dataset;
use em_datagen::generate;
use em_net::{run_socket_load, SocketLoadConfig, Transport};
use em_serve::{run_load, LoadConfig, ServeConfig, SessionTraffic};

/// The three traffic shapes sessions cycle through: append-only
/// growth (coalesces heavily), plain retraction churn, and the
/// pathological storm (re-adds, tuple/link churn, oversized growth).
fn shape(i: usize) -> (&'static str, ChurnOptions) {
    match i % 3 {
        0 => ("grow", ChurnOptions::default()),
        1 => (
            "churn",
            ChurnOptions {
                retract_fraction: 0.1,
                ..Default::default()
            },
        ),
        _ => (
            "storm",
            ChurnOptions {
                retract_fraction: 0.1,
                readd_fraction: 0.5,
                tuple_churn: 0.1,
                link_churn: 0.1,
                oversize_growth: 1,
            },
        ),
    }
}

fn main() {
    let flags = Flags::parse(std::env::args().skip(1));
    let dataset = flags.get_str("dataset", "hepth");
    let scale: f64 = flags.get("scale", 0.004);
    let seed: u64 = flags.get("seed", 7u64);
    let sessions: usize = flags.get("sessions", 3usize);
    let total_deltas: usize = flags.get("deltas", 200usize);
    let shards: usize = flags.get("shards", 1usize);
    let matcher = match flags.get_str("matcher", "exact").as_str() {
        "exact" => MatcherChoice::MlnExact,
        "walksat" => MatcherChoice::MlnWalksat,
        other => panic!("unknown --matcher {other:?}; expected exact | walksat"),
    };
    let fence_every: usize = flags.get("fence-every", 3usize);
    let burst: usize = flags.get("burst", 2usize);
    let max_pending: usize = flags.get("max-pending", 64usize);
    let max_batch: usize = flags.get("max-batch", 8usize);
    let budget_ms: f64 = flags.get("budget-ms", 1_000.0f64);
    let store_path = flags.get_str("store", "none");
    let evict = match flags.get_str("evict", "off").as_str() {
        "on" => true,
        "off" => false,
        other => panic!("unknown --evict {other:?}; expected on | off"),
    };
    let socket = flags.get_str("socket", "none");
    let transport = match socket.as_str() {
        "none" => None,
        "unix" => Some(Transport::Unix),
        "tcp" => Some(Transport::Tcp),
        other => panic!("unknown --socket {other:?}; expected none | unix | tcp"),
    };
    let lru: usize = flags.get("lru", 0usize);
    let kill_every: usize = flags.get("kill-every", 0usize);
    let store_root: Option<std::path::PathBuf> = if store_path == "none" {
        assert!(!evict, "--evict on requires --store DIR");
        assert!(lru == 0, "--lru requires --store DIR");
        assert!(kill_every == 0, "--kill-every requires --store DIR");
        None
    } else {
        let dir = std::path::PathBuf::from(&store_path);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale --store dir");
        }
        Some(dir)
    };
    let metrics_path = flags.get_str("metrics", "none");
    let mut metrics = MetricsWriter::open(&metrics_path, "serve_load").unwrap_or_else(|e| {
        eprintln!("failed to open --metrics {metrics_path}: {e}");
        std::process::exit(1);
    });

    let backend = if shards <= 1 {
        Backend::Sequential
    } else {
        Backend::Sharded {
            shards,
            split_policy: SplitPolicy::Split,
        }
    };
    let per_session = total_deltas.div_ceil(sessions.max(1)).max(1);
    let traffic: Vec<SessionTraffic> = (0..sessions)
        .map(|i| {
            let (tag, opts) = shape(i);
            let session_seed = seed + i as u64;
            let template = generate(
                &profile_by_name(&dataset)
                    .scaled(scale)
                    .with_seed(session_seed),
            )
            .dataset;
            let n = template.entities.len() as u32;
            let (initial, deltas) = DatasetDelta::churn_script_with(
                &template,
                n * 3 / 5,
                per_session,
                session_seed,
                &opts,
            );
            SessionTraffic {
                name: format!("{tag}-{i}"),
                initial,
                deltas,
            }
        })
        .collect();
    println!(
        "serve_load — {dataset} (scale {scale}): {sessions} sessions × {per_session} deltas, \
         backend {backend:?}, fence every {fence_every}, burst {burst}, max pending \
         {max_pending}, max batch {max_batch}, staleness budget {budget_ms}ms, store {}, \
         evict mid-stream {}, socket {socket}, lru {lru}, kill every {kill_every}",
        if store_root.is_some() {
            &store_path
        } else {
            "none"
        },
        if evict { "on" } else { "off" },
    );

    let serve = ServeConfig {
        max_batch_frames: max_batch,
        max_pending,
        staleness_budget_ms: budget_ms,
        max_resident: lru,
        store_root: store_root.clone(),
        ..Default::default()
    };
    let make = move |dataset: Dataset| {
        Pipeline::new(dataset)
            .blocking(BlockingConfig {
                kernel: SimilarityKernel::AuthorName,
                ..Default::default()
            })
            .matcher(matcher.clone())
            .scheme(Scheme::Mmp)
            .backend(backend)
            .check_invariants(true)
    };
    let outcome = match transport {
        None => {
            let config = LoadConfig {
                serve,
                fence_every,
                rounds_per_burst: burst,
                evict_mid_stream: evict,
                kill_every,
            };
            run_load(traffic, &config, make).map_err(|e| e.to_string())
        }
        Some(transport) => {
            let socket_dir =
                std::env::temp_dir().join(format!("em-serve-load-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&socket_dir);
            let config = SocketLoadConfig {
                serve,
                transport,
                socket_dir: socket_dir.clone(),
                fence_every,
                rounds_per_burst: burst,
                evict_mid_stream: evict,
                kill_every,
            };
            let outcome = run_socket_load(traffic, &config, make).map_err(|e| e.to_string());
            let _ = std::fs::remove_dir_all(&socket_dir);
            outcome
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("serve_load failed: {e}");
            let _ = metrics.finish();
            std::process::exit(1);
        }
    };

    let label = format!("{dataset}-{scale}-{seed}");
    let mut coalesced = 0u64;
    let mut sheds = 0u64;
    for s in &outcome.sessions {
        println!(
            "  session {:<10} identical:{} batches:{} frames:{} coalesced:{} sheds:{} \
             budget_misses:{} degraded:{} staleness p50:{:.2}ms p99:{:.2}ms matches:{}",
            s.name,
            s.identical,
            s.batches,
            s.frames_applied,
            s.coalesced_frames,
            s.shed_events,
            s.budget_misses,
            s.degraded_to_cold,
            s.staleness_p50_ms,
            s.staleness_p99_ms,
            s.final_matches,
        );
        coalesced += s.coalesced_frames;
        sheds += s.shed_events;
        metrics.emit(&MetricsRecord::from_serve_session(
            &label,
            s,
            outcome.dead_letters,
        ));
    }
    metrics.emit(
        &MetricsRecord::new("verdict")
            .push_str("label", &label)
            .push_bool("serve_sessions_identical", outcome.sessions_identical)
            .push_bool("serve_staleness_budget_met", outcome.staleness_budget_met)
            .push_u64("serve_coalesced_frames", coalesced)
            .push_u64("serve_shed_events", sheds)
            .push_u64("serve_dead_letters", outcome.dead_letters)
            .push_u64("serve_crash_recoveries", outcome.crash_recoveries)
            .push_bool(
                "serve_crash_recovery_identical",
                outcome.crash_recovery_identical,
            )
            .push_u64("serve_lru_evictions", outcome.lru_evictions)
            .push_u64("steps", outcome.steps),
    );
    let metrics_ok = metrics
        .finish()
        .map_err(|e| eprintln!("serve_load: --metrics {metrics_path} failed: {e}"))
        .is_ok();
    if let Some(dir) = &store_root {
        std::fs::remove_dir_all(dir).ok();
    }

    println!("serve_sessions_identical:{}", outcome.sessions_identical);
    println!(
        "serve_staleness_budget_met:{}",
        outcome.staleness_budget_met
    );
    println!("serve_coalesced_frames:{coalesced}");
    println!("serve_shed_events:{sheds}");
    println!("serve_dead_letters:{}", outcome.dead_letters);
    println!("serve_crash_recoveries:{}", outcome.crash_recoveries);
    println!(
        "serve_crash_recovery_identical:{}",
        outcome.crash_recovery_identical
    );
    println!("serve_lru_evictions:{}", outcome.lru_evictions);
    if !outcome.sessions_identical
        || !outcome.crash_recovery_identical
        || outcome.dead_letters > 0
        || !metrics_ok
    {
        std::process::exit(1);
    }
}
