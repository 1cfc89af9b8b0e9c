//! A timing wrapper around the exact MLN matcher, so the traced run can
//! see how much of a fixpoint is spent inside em-mln.

use crate::trace;
use em_core::{Dataset, Evidence, GlobalScorer, Matcher, Pair, PairSet, ProbabilisticMatcher};
use em_core::{Score, View};
use em_mln::{MlnMatcher, MlnModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the wrapper observed. Statistics only, so every counter is a
/// `Relaxed` atomic: nothing else is published through them.
#[derive(Debug, Default)]
pub struct MlnCounters {
    match_calls: AtomicU64,
    match_ns: AtomicU64,
    probe_batches: AtomicU64,
    probes: AtomicU64,
    probes_yielding: AtomicU64,
    probe_ns: AtomicU64,
    score_calls: AtomicU64,
    score_ns: AtomicU64,
}

/// A snapshot of [`MlnCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MlnTotals {
    /// `match_view` calls.
    pub match_calls: u64,
    /// Seconds inside `match_view`.
    pub match_s: f64,
    /// `probe_entailed` / `probe_certificate` calls.
    pub probe_batches: u64,
    /// Conditioned probes across those batches.
    pub probes: u64,
    /// Probes that entailed at least one new pair.
    pub probes_yielding: u64,
    /// Seconds inside the probe calls.
    pub probe_s: f64,
    /// `log_score` calls.
    pub score_calls: u64,
    /// Seconds inside `log_score`.
    pub score_s: f64,
}

impl MlnTotals {
    /// Seconds em-mln was busy on behalf of the framework.
    pub fn busy_s(&self) -> f64 {
        self.match_s + self.probe_s + self.score_s
    }

    /// Probes that entailed a new pair ÷ probes (0 without probes).
    pub fn probe_yield(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.probes_yielding as f64 / self.probes as f64
        }
    }
}

impl MlnCounters {
    /// Read every counter.
    pub fn totals(&self) -> MlnTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MlnTotals {
            match_calls: get(&self.match_calls),
            match_s: get(&self.match_ns) as f64 / 1e9,
            probe_batches: get(&self.probe_batches),
            probes: get(&self.probes),
            probes_yielding: get(&self.probes_yielding),
            probe_s: get(&self.probe_ns) as f64 / 1e9,
            score_calls: get(&self.score_calls),
            score_s: get(&self.score_ns) as f64 / 1e9,
        }
    }
}

fn add_since(counter: &AtomicU64, start: Instant) {
    counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// [`MlnMatcher`] with exact inference, every trait method delegated
/// and timed. The global scorer is delegated untimed: its score deltas
/// are cheap weight sums and count as framework time.
pub struct TimedMatcher {
    inner: MlnMatcher,
    counters: Arc<MlnCounters>,
}

impl TimedMatcher {
    /// The paper's exact MLN matcher over `dataset` — what
    /// `MatcherChoice::MlnExact` instantiates — reporting into
    /// `counters`.
    pub fn exact(dataset: &Dataset, counters: Arc<MlnCounters>) -> Self {
        let coauthor = dataset
            .relations
            .relation_id("coauthor")
            .expect("generated datasets declare coauthor");
        Self {
            inner: MlnMatcher::new(MlnModel::paper_model(coauthor)),
            counters,
        }
    }
}

impl Matcher for TimedMatcher {
    fn match_view(&self, view: &View<'_>, evidence: &Evidence) -> PairSet {
        let _span = trace::span("mln.match");
        let start = Instant::now();
        let out = self.inner.match_view(view, evidence);
        add_since(&self.counters.match_ns, start);
        self.counters.match_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn probe_entailed(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Vec<Vec<Pair>> {
        let _span = trace::span("mln.probe");
        let start = Instant::now();
        let out = self.inner.probe_entailed(view, evidence, base, probes);
        add_since(&self.counters.probe_ns, start);
        let c = &self.counters;
        c.probe_batches.fetch_add(1, Ordering::Relaxed);
        c.probes.fetch_add(probes.len() as u64, Ordering::Relaxed);
        let yielding = out.iter().filter(|entailed| !entailed.is_empty()).count();
        c.probes_yielding
            .fetch_add(yielding as u64, Ordering::Relaxed);
        out
    }

    fn probe_certificate(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Option<Vec<(Vec<Pair>, Score)>> {
        // The exact backend answers `None` at once; the framework then
        // calls `probe_entailed`, which does the counting.
        self.inner.probe_certificate(view, evidence, base, probes)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn invalidate_caches(&self) {
        self.inner.invalidate_caches()
    }
}

impl ProbabilisticMatcher for TimedMatcher {
    fn log_score(&self, view: &View<'_>, matches: &PairSet) -> Score {
        let _span = trace::span("mln.score");
        let start = Instant::now();
        let out = self.inner.log_score(view, matches);
        add_since(&self.counters.score_ns, start);
        self.counters.score_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn global_scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
    ) -> Box<dyn GlobalScorer + Send + Sync + 'a> {
        self.inner.global_scorer(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use em::{MatcherChoice, Scheme};

    #[test]
    fn wrapper_returns_the_named_matchers_match_sets() {
        let world = World::generate("hepth", 0.004, 3);
        for scheme in [Scheme::NoMp, Scheme::Smp, Scheme::Mmp] {
            let plain = world
                .pipeline(MatcherChoice::MlnExact, scheme)
                .build()
                .expect("coherent")
                .run()
                .matches;
            let counters = Arc::new(MlnCounters::default());
            let timed = TimedMatcher::exact(&world.dataset, Arc::clone(&counters));
            let wrapped = world
                .pipeline(MatcherChoice::custom_probabilistic(timed), scheme)
                .build()
                .expect("coherent")
                .run()
                .matches;
            assert_eq!(plain.to_sorted_vec(), wrapped.to_sorted_vec(), "{scheme:?}");
            let t = counters.totals();
            assert!(t.match_calls > 0, "{scheme:?}");
            if scheme == Scheme::Mmp {
                assert!(t.probes > 0 && t.probe_s > 0.0);
            }
        }
    }
}
