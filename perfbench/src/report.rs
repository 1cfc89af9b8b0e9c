//! The result line: correctness, operation counts and named metrics.

use crate::timed::MlnTotals;
use crate::trace::Span;
use em::RunStats;

/// The end-to-end metrics, with their units, as `BENCHMARK.json` names
/// them. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("match_s", "s"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
    ("query_ms_p50", "ms"),
];

/// The per-layer metrics, with their units, as `BENCHMARK.json` names
/// them. A workload reports 0 for a layer it does not run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("similarity.features_s", "s"),
    ("blocking.s", "s"),
    ("blocking.candidate_pairs", "count"),
    ("blocking.neighborhoods", "count"),
    ("blocking.true_pair_recall", "ratio"),
    ("core.plan_s", "s"),
    ("core.self_s", "s"),
    ("core.rounds", "ratio"),
    ("core.evaluations", "count"),
    ("core.messages", "count"),
    ("core.probes", "count"),
    ("core.probes_replayed", "count"),
    ("core.replay_share", "ratio"),
    ("mln.match_calls", "count"),
    ("mln.match_s", "s"),
    ("mln.probe_batches", "count"),
    ("mln.probes", "count"),
    ("mln.probe_s", "s"),
    ("mln.probe_yield", "ratio"),
    ("session.update_ms_p50", "ms"),
    ("session.run_ms_p50", "ms"),
    ("session.pairs_reblocked", "count"),
    ("session.canopies_recomputed", "count"),
    ("session.canopies_replayed", "count"),
    ("session.memos_dropped", "count"),
    ("session.components_invalidated", "count"),
    ("session.degraded_to_cold", "count"),
    ("session.live_drift", "ratio"),
    ("store.checkpoint_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("store.wal_bytes", "bytes"),
    ("store.recover_s", "s"),
    ("serve.batches", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.staleness_ms_p50", "ms"),
    ("serve.staleness_ms_p90", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.shed_events", "count"),
    ("serve.budget_misses", "count"),
    ("fresh_ms_p50", "ms"),
    ("fresh_ms_p90", "ms"),
    ("drain_dps", "deltas/s"),
    ("recover_s", "s"),
    ("net.query_reply_bytes", "bytes"),
    ("net.ingest_bytes", "bytes"),
    ("net.errors", "count"),
    ("gen.late_ms_p90", "ms"),
    ("trace.match_s_overhead", "s"),
    ("trace.fresh_ms_p50_overhead", "ms"),
];

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed or checks that did not hold.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// Count one attempted operation; `why` describes it if it failed.
    pub fn attempt(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Mark one already counted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Put the metrics in the order of `wanted`, each once. A metric
    /// the workload did not report reads 0; with `required` that also
    /// fails the run. A reported metric outside `wanted`, or in another
    /// unit, fails the run.
    pub fn complete(&mut self, wanted: &[(&'static str, &'static str)], required: bool) {
        let mut reported = std::mem::take(&mut self.metrics);
        for &(name, unit) in wanted {
            match reported.iter().position(|(n, _, _)| n == name) {
                Some(i) => {
                    let (_, value, got) = reported.remove(i);
                    if got != unit {
                        self.attempt(false, || {
                            format!("metric {name} reported in {got}, not {unit}")
                        });
                    }
                    self.metrics.push((name.to_owned(), value, unit));
                }
                None => {
                    if required {
                        self.attempt(false, || format!("metric {name} was not measured"));
                    }
                    self.metrics.push((name.to_owned(), 0.0, unit));
                }
            }
        }
        for (name, _, _) in reported {
            self.attempt(false, || format!("metric {name} is not in the manifest"));
        }
    }

    /// The framework counters of one or more runs over `neighborhoods`
    /// neighborhoods in all. The sequential backend has no parallel
    /// rounds, so `core.rounds` reports evaluations per neighborhood:
    /// how many times the fixpoint revisited a neighborhood on average.
    pub fn core_counters(&mut self, stats: &RunStats, neighborhoods: u64) {
        let evaluations = stats.neighborhoods_processed;
        self.metric(
            "core.rounds",
            evaluations as f64 / neighborhoods.max(1) as f64,
            "ratio",
        );
        self.metric("core.evaluations", evaluations as f64, "count");
        self.metric(
            "core.messages",
            (stats.messages_sent + stats.maximal_messages_created) as f64,
            "count",
        );
        self.metric("core.probes", stats.conditioned_probes as f64, "count");
        self.metric(
            "core.probes_replayed",
            stats.probes_replayed as f64,
            "count",
        );
        let replay_base = stats.conditioned_probes + stats.probes_replayed;
        self.metric(
            "core.replay_share",
            stats.probes_replayed as f64 / replay_base.max(1) as f64,
            "ratio",
        );
    }

    /// The timing matcher's counters.
    pub fn mln_counters(&mut self, mln: &MlnTotals) {
        self.metric("mln.match_calls", mln.match_calls as f64, "count");
        self.metric("mln.match_s", mln.match_s, "s");
        self.metric("mln.probe_batches", mln.probe_batches as f64, "count");
        self.metric("mln.probes", mln.probes as f64, "count");
        self.metric("mln.probe_s", mln.probe_s, "s");
        self.metric("mln.probe_yield", mln.probe_yield(), "ratio");
    }

    /// The result as one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (which JSON cannot carry) become 0.
fn num(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_owned();
    }
    let s = format!("{x:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_units() {
        let mut r = Report::default();
        r.attempt(true, String::new);
        r.attempt(false, || "digest mismatch".to_owned());
        r.metric("match_s", 1.25, "s");
        r.metric("core.probes", 41_900.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"match_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"core.probes\": {\"value\": 41900, \"unit\": \"count\"}}}"
        );
        assert_eq!(r.failures, ["digest mismatch"]);
    }

    #[test]
    fn complete_orders_pads_and_flags() {
        let wanted = [("a", "s"), ("b", "count"), ("c", "ms")];
        let mut r = Report::default();
        r.attempt(true, String::new);
        r.metric("c", 2.0, "ms");
        r.metric("a", 1.0, "s");
        r.complete(&wanted, false);
        assert_eq!(r.failed, 0);
        let names: Vec<_> = r.metrics.iter().map(|(n, v, _)| (n.as_str(), *v)).collect();
        assert_eq!(names, [("a", 1.0), ("b", 0.0), ("c", 2.0)]);

        let mut r = Report::default();
        r.metric("a", 1.0, "ms");
        r.metric("z", 1.0, "s");
        r.complete(&wanted, true);
        assert_eq!(
            r.failures,
            [
                "metric a reported in ms, not s",
                "metric b was not measured",
                "metric c was not measured",
                "metric z is not in the manifest",
            ]
        );
    }

    /// `(section, name, unit)` of every metric in `BENCHMARK.json`, read
    /// without a JSON parser: the file is pretty-printed, one key a line.
    fn manifest_metrics(section: &str) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section in manifest");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let value = |line: &str, key: &str| {
            line.trim()
                .strip_prefix(&format!("\"{key}\": \""))
                .map(|v| v.trim_end_matches([',', '"']).to_owned())
        };
        let names = body.lines().filter_map(|l| value(l, "name"));
        let units = body.lines().filter_map(|l| value(l, "unit"));
        names.zip(units).collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(manifest_metrics(section), want, "{section}");
        }
    }
}
