//! `em-metrics-v1` — the one structured output of the bench binaries.
//!
//! `fig3_runtime`, `soak` and `serve_load` stream **one self-describing
//! JSON object per line** as a run progresses, so long soaks and
//! ablations leave a machine-readable trace of every step: run
//! counters ([`em_core::framework::RunStats`]), update/rollback ledgers
//! ([`em::UpdateReport`]), shard fault/recovery ledgers
//! ([`em_shard::ShardReport`]), and the identity verdicts CI gates on.
//! The writer is hand-rolled (offline workspace, no serde), every line
//! carries `"schema": "em-metrics-v1"` and a `"kind"` tag, and key
//! order is stable so greps and line diffs work.
//!
//! Line kinds:
//!
//! | kind | emitted by | payload |
//! |------|-----------|---------|
//! | `run` | one framework run | every [`RunStats`] counter + wall time |
//! | `update` | one `MatchSession::update` | the [`em::UpdateReport`] ledger |
//! | `shard` | one sharded run | epochs, skew, fault/recovery counters |
//! | `store` | one durable-store recovery probe | snapshot bytes, frames replayed, recovery wall time, byte-identity verdict |
//! | `serve` | one daemon-hosted session after a load run | batching/shed/staleness counters + replay-identity verdict |
//! | `verdict` | one ablation arm, or the end of a soak / load run | a `label` plus the identity verdicts CI gates on (`outputs_identical`, `churn_outputs_identical`, `serve_sessions_identical`, …) |
//! | anything else | callers | free-form fields via [`MetricsRecord::new`] |

use em::UpdateReport;
use em_core::framework::RunStats;
use em_serve::SessionLoadStats;
use em_shard::ShardReport;
use std::io::Write;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_owned()
    }
}

/// One field value in a metrics line.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Unsigned counter.
    U64(u64),
    /// Floating-point measurement (rendered with 3 decimals; non-finite
    /// values render as `null`).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// String label (escaped on render).
    Str(String),
}

/// One JSONL line: a `kind` tag plus ordered fields. Build with the
/// `push_*` methods (insertion order is render order) or one of the
/// `from_*` constructors that flatten a whole report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecord {
    kind: String,
    fields: Vec<(String, MetricValue)>,
}

impl MetricsRecord {
    /// An empty record of the given kind.
    pub fn new(kind: &str) -> Self {
        Self {
            kind: kind.to_owned(),
            fields: Vec::new(),
        }
    }

    /// Append an unsigned counter.
    pub fn push_u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_owned(), MetricValue::U64(value)));
        self
    }

    /// Append a floating-point measurement.
    pub fn push_f64(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_owned(), MetricValue::F64(value)));
        self
    }

    /// Append a boolean flag.
    pub fn push_bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_owned(), MetricValue::Bool(value)));
        self
    }

    /// Append a string label.
    pub fn push_str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_owned(), MetricValue::Str(value.to_owned())));
        self
    }

    /// A `run` line: every [`RunStats`] counter under its field name,
    /// tagged with an arm label and a step index.
    pub fn from_run_stats(label: &str, step: u64, stats: &RunStats) -> Self {
        Self::new("run")
            .push_str("label", label)
            .push_u64("step", step)
            .push_u64("matcher_calls", stats.matcher_calls)
            .push_u64("neighborhoods_processed", stats.neighborhoods_processed)
            .push_u64("active_pairs_evaluated", stats.active_pairs_evaluated)
            .push_u64("messages_sent", stats.messages_sent)
            .push_u64("maximal_messages_created", stats.maximal_messages_created)
            .push_u64("promotions", stats.promotions)
            .push_u64("score_delta_calls", stats.score_delta_calls)
            .push_u64("conditioned_probes", stats.conditioned_probes)
            .push_u64("probes_replayed", stats.probes_replayed)
            .push_u64("memo_evictions", stats.memo_evictions)
            .push_u64("rounds", stats.rounds)
            .push_u64("components_invalidated", stats.components_invalidated)
            .push_u64("messages_dropped", stats.messages_dropped)
            .push_u64("memos_dropped", stats.memos_dropped)
            .push_u64("pairs_reblocked", stats.pairs_reblocked)
            .push_u64("shard_panics", stats.shard_panics)
            .push_u64("fence_timeouts", stats.fence_timeouts)
            .push_u64("shards_recovered", stats.shards_recovered)
            .push_u64("invariant_checks", stats.invariant_checks)
            .push_u64("invariant_violations", stats.invariant_violations)
            .push_u64("snapshot_bytes", stats.snapshot_bytes)
            .push_u64("wal_frames_replayed", stats.wal_frames_replayed)
            .push_u64("recovery_ms", stats.recovery_ms)
            .push_f64("wall_ms", stats.wall_time.as_secs_f64() * 1e3)
    }

    /// An `update` line: one [`em::MatchSession::update`]'s ledger.
    pub fn from_update_report(label: &str, step: u64, report: &UpdateReport) -> Self {
        Self::new("update")
            .push_str("label", label)
            .push_u64("step", step)
            .push_u64("entities_added", report.entities_added)
            .push_u64("entities_retracted", report.entities_retracted)
            .push_u64("tuples_added", report.tuples_added)
            .push_u64("links_added", report.links_added)
            .push_u64("components_invalidated", report.components_invalidated)
            .push_u64("messages_dropped", report.messages_dropped)
            .push_u64("memos_dropped", report.memos_dropped)
            .push_u64("memos_tainted", report.memos_tainted)
            .push_u64("warm_matches_dropped", report.warm_matches_dropped)
            .push_u64("pairs_reblocked", report.pairs_reblocked)
            .push_u64("canopies_replayed", report.canopies_replayed)
            .push_u64("canopies_recomputed", report.canopies_recomputed)
            .push_u64("invariant_checks", report.invariant_checks)
            .push_u64("invariant_violations", report.invariant_violations)
            .push_bool("degraded_to_cold", report.degraded_to_cold())
            .push_str(
                "degrade_reason",
                report.degraded.map_or("none", |r| r.label()),
            )
            .push_u64("snapshot_bytes", report.snapshot_bytes)
            .push_u64("wal_frames_replayed", report.wal_frames_replayed)
            .push_u64("recovery_ms", report.recovery_ms)
    }

    /// A `store` line: one durable-store recovery probe — the snapshot
    /// and WAL volume it restored, how long it took, and whether the
    /// recovered session's [`em::MatchSession::state_digest`] matched
    /// the live session's (the byte-identity verdict CI greps for).
    pub fn from_store_probe(
        label: &str,
        step: u64,
        snapshot_bytes: u64,
        wal_frames_replayed: u64,
        recovery_ms: u64,
        recovery_identical: bool,
    ) -> Self {
        Self::new("store")
            .push_str("label", label)
            .push_u64("step", step)
            .push_u64("snapshot_bytes", snapshot_bytes)
            .push_u64("wal_frames_replayed", wal_frames_replayed)
            .push_u64("recovery_ms", recovery_ms)
            .push_bool("recovery_identical", recovery_identical)
    }

    /// A `shard` line: one sharded run's balance and fault/recovery
    /// ledger.
    pub fn from_shard_report(label: &str, step: u64, report: &ShardReport) -> Self {
        Self::new("shard")
            .push_str("label", label)
            .push_u64("step", step)
            .push_u64("shards", report.shards as u64)
            .push_u64("components", report.components as u64)
            .push_u64("largest_component", report.largest_component as u64)
            .push_u64("epochs", report.epochs)
            .push_u64("cross_shard_pairs", report.cross_shard_pairs)
            .push_f64("est_skew", report.est_skew)
            .push_f64("busy_skew", report.busy_skew)
            .push_f64("makespan_ms", report.makespan.as_secs_f64() * 1e3)
            .push_u64("shard_panics", report.shard_panics)
            .push_u64("fence_timeouts", report.fence_timeouts)
            .push_u64("stalled_shards", report.stalled_shards)
            .push_u64("shards_recovered", report.shards_recovered)
            .push_u64("late_responses_dropped", report.late_responses_dropped)
    }

    /// A `serve` line: one daemon-hosted session's serving counters
    /// and replay-identity verdict after a load run
    /// ([`em_serve::run_load`]). `dead_letters` is the run-level
    /// missing-frame counter, flattened onto every session line so a
    /// single `serve` record is self-contained for alerting.
    pub fn from_serve_session(label: &str, stats: &SessionLoadStats, dead_letters: u64) -> Self {
        Self::new("serve")
            .push_str("label", label)
            .push_str("session", &stats.name)
            .push_bool("serve_identical", stats.identical)
            .push_u64("batches", stats.batches)
            .push_u64("frames_applied", stats.frames_applied)
            .push_u64("coalesced_frames", stats.coalesced_frames)
            .push_u64("shed_events", stats.shed_events)
            .push_u64("budget_misses", stats.budget_misses)
            .push_u64("degraded_to_cold", stats.degraded_to_cold)
            .push_u64("overload_degrades", stats.overload_degrades)
            .push_u64("lru_evictions", stats.lru_evictions)
            .push_u64("revivals", stats.revivals)
            .push_u64("dead_letters", dead_letters)
            .push_f64("staleness_p50_ms", stats.staleness_p50_ms)
            .push_f64("staleness_p99_ms", stats.staleness_p99_ms)
            .push_u64("final_matches", stats.final_matches)
    }

    /// Render as one JSON line (no trailing newline). The schema tag
    /// and kind lead; fields follow in insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\": \"em-metrics-v1\", \"kind\": \"");
        out.push_str(&esc(&self.kind));
        out.push('"');
        for (key, value) in &self.fields {
            out.push_str(", \"");
            out.push_str(&esc(key));
            out.push_str("\": ");
            match value {
                MetricValue::U64(v) => out.push_str(&v.to_string()),
                MetricValue::F64(v) => out.push_str(&fmt_f64(*v)),
                MetricValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                MetricValue::Str(v) => {
                    out.push('"');
                    out.push_str(&esc(v));
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

/// The `--metrics` sink every bench binary shares: streams
/// [`MetricsRecord`]s one line each, led by a `meta` record naming the
/// producing tool, so a metrics file is self-describing from its head.
///
/// A write failure does not stop the run: the first error is kept, the
/// stream stops, and [`MetricsWriter::finish`] returns it. Call
/// `finish` before the process exits — on failure paths too — since
/// CI gates on these files and `std::process::exit` skips the
/// `BufWriter`'s drop.
pub struct MetricsWriter<W: Write = std::io::BufWriter<std::fs::File>> {
    sink: Option<W>,
    lines: u64,
    error: Option<std::io::Error>,
}

impl MetricsWriter {
    /// Open the sink a `--metrics` flag names: `none` is off (every
    /// emit is a no-op); anything else is a file path, created
    /// (truncated) with the `meta` header line.
    pub fn open(path: &str, tool: &str) -> std::io::Result<Self> {
        if path == "none" {
            return Ok(Self {
                sink: None,
                lines: 0,
                error: None,
            });
        }
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file), tool))
    }
}

impl<W: Write> MetricsWriter<W> {
    /// Wrap an arbitrary sink and write the `meta` header line.
    pub fn new(sink: W, tool: &str) -> Self {
        let mut writer = Self {
            sink: Some(sink),
            lines: 0,
            error: None,
        };
        writer.emit(&MetricsRecord::new("meta").push_str("tool", tool));
        writer
    }

    /// Write one record as one line; a no-op once the stream is off or
    /// has failed.
    pub fn emit(&mut self, record: &MetricsRecord) {
        let Some(sink) = &mut self.sink else { return };
        let line = record.render() + "\n";
        match sink.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => {
                self.error = Some(e);
                self.sink = None;
            }
        }
    }

    /// Lines written so far (including the `meta` header).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush the stream; returns the first write or flush error.
    pub fn finish(mut self) -> std::io::Result<()> {
        if let Some(sink) = &mut self.sink {
            sink.flush()?;
        }
        self.error.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_carry_schema_kind_and_stable_order() {
        let stats = RunStats {
            matcher_calls: 12,
            neighborhoods_processed: 7,
            conditioned_probes: 5,
            shard_panics: 1,
            invariant_checks: 9,
            ..RunStats::default()
        };
        let line = MetricsRecord::from_run_stats("soak-sharded", 3, &stats).render();
        assert!(line.starts_with("{\"schema\": \"em-metrics-v1\", \"kind\": \"run\""));
        assert!(line.contains("\"label\": \"soak-sharded\""));
        assert!(line.contains("\"step\": 3"));
        assert!(line.contains("\"matcher_calls\": 12"));
        assert!(line.contains("\"shard_panics\": 1"));
        assert!(line.contains("\"invariant_checks\": 9"));
        assert!(line.ends_with('}'));
        // Stable order: label before step before the counters.
        let label = line.find("\"label\"").unwrap();
        let step = line.find("\"step\"").unwrap();
        let calls = line.find("\"matcher_calls\"").unwrap();
        assert!(label < step && step < calls);
        // One line, balanced braces.
        assert!(!line.contains('\n'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn update_lines_flatten_the_report() {
        let report = UpdateReport {
            entities_added: 4,
            entities_retracted: 2,
            memos_tainted: 5,
            degraded: None,
            ..UpdateReport::default()
        };
        let line = MetricsRecord::from_update_report("soak", 1, &report).render();
        assert!(line.contains("\"kind\": \"update\""));
        assert!(line.contains("\"entities_added\": 4"));
        assert!(line.contains("\"memos_tainted\": 5"));
        assert!(line.contains("\"degraded_to_cold\": false"));
        assert!(line.contains("\"degrade_reason\": \"none\""));
        assert!(line.contains("\"wal_frames_replayed\": 0"));
    }

    #[test]
    fn store_lines_carry_the_recovery_verdict() {
        let line = MetricsRecord::from_store_probe("soak", 50, 4096, 3, 17, true).render();
        assert!(line.starts_with("{\"schema\": \"em-metrics-v1\", \"kind\": \"store\""));
        assert!(line.contains("\"label\": \"soak\""));
        assert!(line.contains("\"step\": 50"));
        assert!(line.contains("\"snapshot_bytes\": 4096"));
        assert!(line.contains("\"wal_frames_replayed\": 3"));
        assert!(line.contains("\"recovery_ms\": 17"));
        assert!(line.contains("\"recovery_identical\": true"));
    }

    #[test]
    fn writer_streams_header_then_records() {
        let mut buf = Vec::new();
        let mut w = MetricsWriter::new(&mut buf, "soak");
        w.emit(&MetricsRecord::new("verdict").push_bool("soak_invariants_ok", true));
        assert_eq!(w.lines(), 2);
        w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\": \"meta\""));
        assert!(lines[0].contains("\"tool\": \"soak\""));
        assert!(lines[1].contains("\"soak_invariants_ok\": true"));
        for line in lines {
            assert!(line.starts_with("{\"schema\": \"em-metrics-v1\""));
        }
    }

    /// A `Write` that accepts `budget` writes, then fails every write
    /// and every flush.
    struct Failing {
        budget: usize,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.budget -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn write_and_flush_failures_surface_at_finish() {
        // A failed write stops the stream and is reported by finish.
        let mut w = MetricsWriter::new(Failing { budget: 1 }, "fig3_runtime");
        w.emit(&MetricsRecord::new("verdict").push_bool("outputs_identical", true));
        w.emit(&MetricsRecord::new("verdict").push_bool("outputs_identical", true));
        assert_eq!(w.lines(), 1);
        assert_eq!(w.finish().unwrap_err().to_string(), "disk full");
        // Buffered lines that never reach the disk fail at the flush.
        let mut w = MetricsWriter::new(std::io::BufWriter::new(Failing { budget: 0 }), "soak");
        w.emit(&MetricsRecord::new("verdict").push_bool("soak_invariants_ok", true));
        assert_eq!(w.lines(), 2);
        assert!(w.finish().is_err());
        // `none` is off: emits are no-ops and finish succeeds.
        let mut off = MetricsWriter::open("none", "serve_load").unwrap();
        off.emit(&MetricsRecord::new("verdict"));
        assert_eq!(off.lines(), 0);
        off.finish().unwrap();
    }

    #[test]
    fn escapes_and_non_finite_floats() {
        let line = MetricsRecord::new("x")
            .push_str("weird", "a\"b\\c")
            .push_f64("skew", f64::NAN)
            .render();
        assert!(line.contains("\"weird\": \"a\\\"b\\\\c\""));
        assert!(line.contains("\"skew\": null"));
    }
}
