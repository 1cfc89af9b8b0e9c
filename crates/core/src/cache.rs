//! Zero-recompute caching for the matching hot path.
//!
//! Two layers:
//!
//! * [`PairCache`] — a sharded, concurrent map from [`Pair`] to a copyable
//!   value (a similarity score, a [`Score`], a discretized level). Built
//!   for the "same pair examined by many overlapping contexts" pattern:
//!   blocking canopies overlap, covers overlap, and MMP re-examines pairs
//!   across rounds. Shards keep lock contention negligible when the cache
//!   is shared read-mostly across `em-shard` driver threads.
//!
//! * [`CachedMatcher`] — a transparent memoizing wrapper around any
//!   [`Matcher`] / [`ProbabilisticMatcher`]. Matchers are deterministic
//!   functions of `(view, evidence)`, so their outputs — base match sets
//!   and per-pair conditioned probe results — can be replayed from a
//!   fingerprint instead of re-running inference. Every scheme (NO-MP,
//!   SMP, MMP, their sharded variants) evaluates neighborhoods against
//!   evidence snapshots that overlap heavily across schemes and rounds;
//!   the wrapper turns each repeat into an O(1) lookup. Soundness is
//!   untouched: on a fingerprint hit the returned set is byte-identical
//!   to what the wrapped matcher would recompute.
//!
//! Both layers are `Sync` and designed to be shared by reference across
//! worker threads; both are togglable (construct [`CachedMatcher::disabled`]
//! for ablations — `fig3_runtime --cache off` uses exactly that).

use crate::dataset::{Dataset, View};
use crate::evidence::Evidence;
use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
use crate::matcher::{GlobalScorer, Matcher, ProbabilisticMatcher, Score};
use crate::pair::{Pair, PairSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independent shards (power of two).
const SHARDS: usize = 16;

/// Entries per memo table before it is cleared wholesale (bounds memory
/// on huge workloads; the access pattern is bursts of hits on recent
/// keys, so wholesale clearing is cheap and simple).
const MEMO_CAP: usize = 1 << 17;

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 for an unused cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded concurrent memo table from [`Pair`] to a copyable value.
#[derive(Debug, Default)]
pub struct PairCache<V> {
    shards: [Mutex<FxHashMap<Pair, V>>; SHARDS],
    /// Session-scoped suppression list: pairs a caller retracted for
    /// good. Not a cache — an intent record — so [`PairCache::clear`]
    /// keeps it (a reset session must still honor the caller's
    /// retractions). Tiny in practice; one mutex is enough.
    suppressed: Mutex<FxHashSet<Pair>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// `PairCache` specialized to fixed-point log-scores.
pub type PairScoreCache = PairCache<Score>;

impl<V: Copy> PairCache<V> {
    /// Empty cache.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            suppressed: Mutex::new(FxHashSet::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, pair: Pair) -> &Mutex<FxHashMap<Pair, V>> {
        let h = FxBuildHasher::default().hash_one(pair) as usize;
        &self.shards[h & (SHARDS - 1)]
    }

    /// Cached value of a pair.
    pub fn get(&self, pair: Pair) -> Option<V> {
        let got = self
            .shard(pair)
            .lock()
            .expect("cache lock")
            .get(&pair)
            .copied();
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or overwrite) a pair's value.
    pub fn insert(&self, pair: Pair, value: V) {
        self.shard(pair)
            .lock()
            .expect("cache lock")
            .insert(pair, value);
    }

    /// Cached value, computing and recording it on a miss. `compute` runs
    /// outside the shard lock, so it may itself use the cache.
    pub fn get_or_insert_with(&self, pair: Pair, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(pair) {
            return v;
        }
        let v = compute();
        self.insert(pair, v);
        v
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").len())
            .sum()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (statistics and the suppression list are kept —
    /// see [`PairCache::suppress`]).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache lock").clear();
        }
    }

    /// Remove one pair's entry; returns `true` if it was cached.
    pub fn remove(&self, pair: Pair) -> bool {
        self.shard(pair)
            .lock()
            .expect("cache lock")
            .remove(&pair)
            .is_some()
    }

    /// Keep only the entries whose pair satisfies `keep`, returning the
    /// number dropped. Component-scoped rollback uses this to evict the
    /// blocking scores of pairs that mention retracted entities.
    pub fn retain(&self, mut keep: impl FnMut(Pair) -> bool) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut map = shard.lock().expect("cache lock");
            let before = map.len();
            map.retain(|&pair, _| keep(pair));
            dropped += before - map.len();
        }
        dropped
    }

    /// Visit every cached pair (values are skipped), shard by shard.
    /// Counters are untouched. The invariant checker uses this to assert
    /// no cached pair references a tombstoned entity.
    pub fn for_each_key(&self, mut visit: impl FnMut(Pair)) {
        for shard in &self.shards {
            for &pair in shard.lock().expect("cache lock").keys() {
                visit(pair);
            }
        }
    }

    /// Visit every cached pair with a clone of its value, shard by
    /// shard. Counters are untouched. Durable-session capture uses this
    /// to walk the score map; iteration order is arbitrary, so consumers
    /// needing determinism must sort what they collect.
    pub fn for_each_entry(&self, mut visit: impl FnMut(Pair, V)) {
        for shard in &self.shards {
            for (&pair, value) in shard.lock().expect("cache lock").iter() {
                visit(pair, *value);
            }
        }
    }

    /// Add `pair` to the session-scoped suppression list and drop its
    /// cached value: the caller retracted it for good, so later
    /// re-derivations (a re-block re-scoring the same records) must not
    /// resurrect it. The list survives [`PairCache::clear`] — it records
    /// intent, not derived data.
    pub fn suppress(&self, pair: Pair) {
        self.remove(pair);
        self.suppressed
            .lock()
            .expect("suppression lock")
            .insert(pair);
    }

    /// Remove `pair` from the suppression list (the caller re-asserted
    /// it); returns whether it was suppressed.
    pub fn unsuppress(&self, pair: Pair) -> bool {
        self.suppressed
            .lock()
            .expect("suppression lock")
            .remove(&pair)
    }

    /// Whether `pair` is on the suppression list.
    pub fn is_suppressed(&self, pair: Pair) -> bool {
        self.suppressed
            .lock()
            .expect("suppression lock")
            .contains(&pair)
    }

    /// Snapshot of the suppression list, sorted for deterministic
    /// iteration.
    pub fn suppressed_pairs(&self) -> Vec<Pair> {
        let mut pairs: Vec<Pair> = self
            .suppressed
            .lock()
            .expect("suppression lock")
            .iter()
            .copied()
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// SplitMix64 step: golden-ratio offset then the shared bijective mixer.
#[inline]
fn mix64(z: u64) -> u64 {
    crate::hash::splitmix64_mix(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// 128-bit order-independent fingerprint of a pair set.
///
/// Two commutative accumulators over *mixed* per-pair hashes: the first
/// sums `mix64(h)`, the second sums `mix64(mix64(h))`. A collision needs
/// both sums to agree simultaneously; because the second accumulator is
/// a nonlinear function of the first's terms, the structured inputs that
/// could defeat a plain sum (small sequential entity ids under Fx) do
/// not line up in both. O(n), no sorting, deterministic across runs.
fn pair_set_fingerprint(pairs: &PairSet) -> (u64, u64) {
    let mut sum_a: u64 = 0;
    let mut sum_b: u64 = 0;
    for p in pairs.iter() {
        let h = mix64(FxBuildHasher::default().hash_one(p));
        sum_a = sum_a.wrapping_add(h);
        sum_b = sum_b.wrapping_add(mix64(h));
    }
    let n = pairs.len() as u64;
    (mix64(sum_a ^ n), mix64(sum_b ^ n.rotate_left(32)))
}

/// 256-bit fingerprint of a full evidence assignment (positive and
/// negative sets kept separate so they can never alias).
type EvidenceFp = ((u64, u64), (u64, u64));

fn evidence_fingerprint(evidence: &Evidence) -> EvidenceFp {
    (
        pair_set_fingerprint(&evidence.positive),
        pair_set_fingerprint(&evidence.negative),
    )
}

/// Fingerprint of a view: its sorted member list plus the identity of
/// the dataset it was cut from, so one wrapper serving views of two
/// datasets with overlapping entity ids can never alias. (Mutating a
/// dataset *in place* between calls is outside this fingerprint's reach
/// — see the [`CachedMatcher`] contract.)
fn view_fingerprint(view: &View<'_>) -> u64 {
    let mut hasher = FxHasher::default();
    (view.dataset() as *const Dataset as usize).hash(&mut hasher);
    view.members().hash(&mut hasher);
    hasher.finish()
}

/// A sharded memo table keyed by arbitrary hashable keys; the internal
/// sibling of [`PairCache`] used by [`CachedMatcher`] so parallel
/// workers do not serialize on one lock.
#[derive(Debug)]
struct ShardedMemo<K, V> {
    shards: [Mutex<FxHashMap<K, V>>; SHARDS],
}

impl<K: Eq + Hash, V: Clone> ShardedMemo<K, V> {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
        }
    }

    #[inline]
    fn shard(&self, key: &K) -> &Mutex<FxHashMap<K, V>> {
        let h = FxBuildHasher::default().hash_one(key) as usize;
        &self.shards[h & (SHARDS - 1)]
    }

    fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().expect("memo lock").get(key).cloned()
    }

    /// Insert, clearing the shard first if it hit its share of the cap.
    fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock().expect("memo lock");
        if shard.len() >= MEMO_CAP / SHARDS {
            shard.clear();
        }
        shard.insert(key, value);
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("memo lock").clear();
        }
    }
}

/// A memoizing wrapper around any matcher: repeated evaluations of the
/// same `(neighborhood, evidence)` — across schemes, rounds, and probe
/// sweeps — are answered from a fingerprint table instead of re-running
/// inference. See the module docs for the soundness argument.
///
/// # Contract: the dataset is frozen for the wrapper's lifetime
///
/// Fingerprints cover the view's member list, its dataset's identity,
/// and the evidence sets — not the dataset's candidate pairs, relations,
/// or attributes. The framework upholds this naturally (blocking mutates
/// the dataset *before* any matcher is built, and no scheme mutates it
/// during a run), but if you mutate a dataset after evaluating through
/// the wrapper — e.g. `set_similar` between runs — you must call
/// [`CachedMatcher::clear`] or the stale pre-mutation results replay.
#[derive(Debug)]
pub struct CachedMatcher<M> {
    inner: M,
    enabled: bool,
    /// (view fp, evidence fp) → base match set.
    match_memo: ShardedMemo<(u64, EvidenceFp), PairSet>,
    /// (view fp, evidence fp, probe) → entailed pairs.
    probe_memo: ShardedMemo<(u64, EvidenceFp, Pair), Vec<Pair>>,
    /// (view fp, evidence fp, probe) → (entailed pairs, score gap).
    /// Separate from `probe_memo`: a certified probe carries its gap, and
    /// mixing the tables would let a plain probe replay drop one.
    probe_cert_memo: ShardedMemo<(u64, EvidenceFp, Pair), (Vec<Pair>, Score)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<M> CachedMatcher<M> {
    /// Wrap `inner` with memoization enabled.
    pub fn new(inner: M) -> Self {
        Self::with_enabled(inner, true)
    }

    /// Wrap `inner` with memoization *disabled*: every call forwards
    /// straight to the inner matcher. The ablation arm — identical code
    /// path, zero reuse.
    pub fn disabled(inner: M) -> Self {
        Self::with_enabled(inner, false)
    }

    fn with_enabled(inner: M, enabled: bool) -> Self {
        Self {
            inner,
            enabled,
            match_memo: ShardedMemo::new(),
            probe_memo: ShardedMemo::new(),
            probe_cert_memo: ShardedMemo::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped matcher.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Whether memoization is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Hit/miss counters across both memo tables.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drop all memoized results (counters are kept).
    pub fn clear(&self) {
        self.match_memo.clear();
        self.probe_memo.clear();
        self.probe_cert_memo.clear();
    }
}

impl<M: Matcher> Matcher for CachedMatcher<M> {
    fn match_view(&self, view: &View<'_>, evidence: &Evidence) -> PairSet {
        if !self.enabled {
            return self.inner.match_view(view, evidence);
        }
        let key = (view_fingerprint(view), evidence_fingerprint(evidence));
        if let Some(cached) = self.match_memo.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = self.inner.match_view(view, evidence);
        self.match_memo.insert(key, out.clone());
        out
    }

    fn probe_entailed(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Vec<Vec<Pair>> {
        if !self.enabled {
            return self.inner.probe_entailed(view, evidence, base, probes);
        }
        let vf = view_fingerprint(view);
        let ef = evidence_fingerprint(evidence);
        let mut out: Vec<Option<Vec<Pair>>> = vec![None; probes.len()];
        let mut missing: Vec<(usize, Pair)> = Vec::new();
        for (i, &p) in probes.iter().enumerate() {
            match self.probe_memo.get(&(vf, ef, p)) {
                Some(cached) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    out[i] = Some(cached);
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    missing.push((i, p));
                }
            }
        }
        if !missing.is_empty() {
            // One batched inner call for all misses, so the wrapped
            // matcher keeps its own amortization (shared grounding etc.).
            let miss_probes: Vec<Pair> = missing.iter().map(|&(_, p)| p).collect();
            let computed = self
                .inner
                .probe_entailed(view, evidence, base, &miss_probes);
            for ((i, p), entailed) in missing.into_iter().zip(computed) {
                self.probe_memo.insert((vf, ef, p), entailed.clone());
                out[i] = Some(entailed);
            }
        }
        out.into_iter().map(|v| v.expect("filled")).collect()
    }

    fn probe_certificate(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Option<Vec<(Vec<Pair>, Score)>> {
        if !self.enabled {
            return self.inner.probe_certificate(view, evidence, base, probes);
        }
        let vf = view_fingerprint(view);
        let ef = evidence_fingerprint(evidence);
        let mut out: Vec<Option<(Vec<Pair>, Score)>> = vec![None; probes.len()];
        let mut missing: Vec<(usize, Pair)> = Vec::new();
        for (i, &p) in probes.iter().enumerate() {
            match self.probe_cert_memo.get(&(vf, ef, p)) {
                Some(cached) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    out[i] = Some(cached);
                }
                None => missing.push((i, p)),
            }
        }
        if !missing.is_empty() {
            let miss_probes: Vec<Pair> = missing.iter().map(|&(_, p)| p).collect();
            // An inner matcher that produces no gap evidence answers the
            // whole batch with `None`; the wrapper must do the same (the
            // framework then falls back to `probe_entailed`), so misses
            // only count once we know the inner certifies at all.
            let computed = self
                .inner
                .probe_certificate(view, evidence, base, &miss_probes)?;
            self.misses
                .fetch_add(missing.len() as u64, Ordering::Relaxed);
            for ((i, p), certified) in missing.into_iter().zip(computed) {
                self.probe_cert_memo.insert((vf, ef, p), certified.clone());
                out[i] = Some(certified);
            }
        }
        Some(out.into_iter().map(|v| v.expect("filled")).collect())
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn invalidate_caches(&self) {
        self.clear();
        self.inner.invalidate_caches();
    }
}

impl<M: ProbabilisticMatcher> ProbabilisticMatcher for CachedMatcher<M> {
    fn log_score(&self, view: &View<'_>, matches: &PairSet) -> Score {
        // Scoring a fixed assignment is cheap relative to inference;
        // forwarded unmemoized.
        self.inner.log_score(view, matches)
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
    use crate::entity::EntityId;
    use crate::framework::{mmp_with_order, no_mp_baseline, smp_with_order, MmpConfig};
    use crate::testing::paper_example;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(EntityId(a), EntityId(b))
    }

    #[test]
    fn pair_cache_caches_and_counts() {
        let cache: PairCache<f64> = PairCache::new();
        assert_eq!(cache.get(p(0, 1)), None);
        let mut computed = 0;
        let v = cache.get_or_insert_with(p(0, 1), || {
            computed += 1;
            0.75
        });
        assert_eq!(v, 0.75);
        let v = cache.get_or_insert_with(p(0, 1), || {
            computed += 1;
            0.0
        });
        assert_eq!(v, 0.75, "second lookup replays the first value");
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2); // the initial get + the first get_or_insert miss
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn pair_cache_suppression_survives_clear_until_unsuppressed() {
        let cache: PairCache<f64> = PairCache::new();
        cache.insert(p(0, 1), 0.9);
        cache.suppress(p(0, 1));
        assert!(cache.is_suppressed(p(0, 1)));
        assert_eq!(cache.get(p(0, 1)), None, "suppress evicts the cached value");
        cache.insert(p(0, 1), 0.9);
        cache.clear();
        assert!(
            cache.is_suppressed(p(0, 1)),
            "suppression is intent, not cache: clear() keeps it"
        );
        assert_eq!(cache.suppressed_pairs(), vec![p(0, 1)]);
        assert!(cache.unsuppress(p(0, 1)), "first unsuppress removes");
        assert!(!cache.unsuppress(p(0, 1)), "second is a no-op");
        assert!(!cache.is_suppressed(p(0, 1)));
        assert!(cache.suppressed_pairs().is_empty());
    }

    #[test]
    fn pair_cache_is_shareable_across_threads() {
        let cache: PairCache<u64> = PairCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100u32 {
                        cache.get_or_insert_with(p(i, i + 1), || u64::from(i));
                        let _ = cache.get(p(t, t + 1));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100);
        for i in 0..100u32 {
            assert_eq!(cache.get(p(i, i + 1)), Some(u64::from(i)));
        }
    }

    #[test]
    fn fingerprints_are_order_independent() {
        let mut a = PairSet::new();
        a.insert(p(0, 1));
        a.insert(p(2, 3));
        let mut b = PairSet::new();
        b.insert(p(2, 3));
        b.insert(p(0, 1));
        assert_eq!(pair_set_fingerprint(&a), pair_set_fingerprint(&b));
        let mut c = a.clone();
        c.insert(p(4, 5));
        assert_ne!(pair_set_fingerprint(&a), pair_set_fingerprint(&c));
    }

    #[test]
    fn positive_and_negative_evidence_fingerprint_differently() {
        let s: PairSet = [p(0, 1)].into_iter().collect();
        let pos = Evidence::positive(s.clone());
        let neg = Evidence::from_parts(PairSet::new(), s);
        assert_ne!(evidence_fingerprint(&pos), evidence_fingerprint(&neg));
    }

    #[test]
    fn cached_matcher_replays_match_view() {
        let (ds, _, matcher, _) = paper_example();
        let cached = CachedMatcher::new(matcher);
        let view = ds.full_view();
        let first = cached.match_view(&view, &Evidence::none());
        let second = cached.match_view(&view, &Evidence::none());
        assert_eq!(first, second);
        let stats = cached.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cached_matcher_distinguishes_evidence() {
        let (ds, _, matcher, _) = paper_example();
        let cached = CachedMatcher::new(matcher);
        let view = ds.full_view();
        let none = cached.match_view(&view, &Evidence::none());
        let seeded = cached.match_view(&view, &Evidence::positive([p(0, 1)].into_iter().collect()));
        assert!(none.len() <= seeded.len());
        assert_eq!(cached.stats().hits, 0, "different evidence, no replay");
    }

    #[test]
    fn probe_certificate_memoizes_and_propagates_none() {
        use std::sync::atomic::AtomicUsize;

        /// Certifies every probe as entailing nothing with gap 500, and
        /// counts inner calls.
        struct Certifying {
            calls: AtomicUsize,
        }
        impl Matcher for Certifying {
            fn match_view(&self, _view: &View<'_>, _evidence: &Evidence) -> PairSet {
                PairSet::new()
            }
            fn probe_certificate(
                &self,
                _view: &View<'_>,
                _evidence: &Evidence,
                _base: &PairSet,
                probes: &[Pair],
            ) -> Option<Vec<(Vec<Pair>, Score)>> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                Some(probes.iter().map(|_| (Vec::new(), Score(500))).collect())
            }
        }

        let (ds, _, exact, _) = paper_example();
        let view = ds.full_view();
        let ev = Evidence::none();
        let probes = [p(0, 1), p(2, 3)];

        // An inner matcher without gap evidence: the wrapper forwards the
        // `None` so the framework can fall back to plain probes.
        let no_certs = CachedMatcher::new(exact);
        assert!(no_certs
            .probe_certificate(&view, &ev, &PairSet::new(), &probes)
            .is_none());

        let certifying = CachedMatcher::new(Certifying {
            calls: AtomicUsize::new(0),
        });
        let first = certifying
            .probe_certificate(&view, &ev, &PairSet::new(), &probes)
            .expect("certified");
        let second = certifying
            .probe_certificate(&view, &ev, &PairSet::new(), &probes)
            .expect("replayed");
        assert_eq!(first, second);
        assert_eq!(
            certifying.inner().calls.load(Ordering::Relaxed),
            1,
            "second batch is answered from the memo"
        );
        certifying.invalidate_caches();
        let _ = certifying.probe_certificate(&view, &ev, &PairSet::new(), &probes);
        assert_eq!(certifying.inner().calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn all_schemes_agree_with_and_without_the_cache() {
        let (ds, cover, matcher, expected) = paper_example();
        let cached = CachedMatcher::new(matcher.clone());
        let uncached = CachedMatcher::disabled(matcher);
        let none = Evidence::none();
        assert_eq!(
            no_mp_baseline(&cached, &ds, &cover, &none).matches,
            no_mp_baseline(&uncached, &ds, &cover, &none).matches
        );
        assert_eq!(
            smp_with_order(&cached, &ds, &cover, &none, None).matches,
            smp_with_order(&uncached, &ds, &cover, &none, None).matches
        );
        let config = MmpConfig::default();
        let via_cache = mmp_with_order(&cached, &ds, &cover, &none, &config, None);
        let via_inner = mmp_with_order(&uncached, &ds, &cover, &none, &config, None);
        assert_eq!(via_cache.matches, expected);
        assert_eq!(via_inner.matches, expected);
        assert!(
            cached.stats().hits > 0,
            "running all three schemes reuses work"
        );
        assert_eq!(uncached.stats().hits + uncached.stats().misses, 0);
    }
}
