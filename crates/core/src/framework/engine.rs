//! Delta-driven drivers behind SMP and MMP — the unit a shard runs.
//!
//! The sequential schemes and the sharded runtime share one engine: a
//! driver owns the scope's [`DependencyIndex`] (full for a sequential
//! run, [`DependencyIndex::restrict_to`]-derived for a shard), the
//! worklist over that index, the accumulating evidence replica, and —
//! for MMP — the message store and per-neighborhood probe memos. A
//! sequential run is the degenerate case: one driver over every
//! neighborhood, [`MmpDriver::run`] once, done.
//!
//! A *shard* interleaves the same driver with cross-shard evidence
//! exchange:
//!
//! ```text
//! driver.absorb(&external_delta, scorer);   // peers' pairs: replica ∪=,
//!                                           //   route, mark messages dirty
//! let fence = driver.fence();
//! driver.run(matcher, scorer);              // drain to local quiescence
//! let produced = driver.delta_since(fence); // this epoch's outgoing delta
//! ```
//!
//! Soundness of promoting against a *lagged* replica: the replica only
//! ever under-approximates the global `M+`, and for supermodular models
//! `delta(M+, M)` is non-decreasing in `M+` — so a promotion that fires
//! early is still sound, and one that is missed is retried when the
//! missing evidence arrives (absorb marks the affected messages dirty).
//! The fixpoint is therefore the same as the sequential run's: the
//! consistency theorems make it independent of evaluation order.

use crate::cover::{Cover, NeighborhoodId};
use crate::dataset::Dataset;
use crate::evidence::{Epoch, Evidence};
use crate::matcher::{GlobalScorer, MatchOutput, Matcher, ProbabilisticMatcher};
use crate::pair::{Pair, PairSet};
use std::time::{Duration, Instant};

use super::certificates::{CertificateBank, CertificatePool, CertificateSet};
use super::evidence_index::EvidenceIndex;
use super::mmp::{
    compute_maximal, compute_maximal_certified, mark_dirty_around, promote_dirty, MemoBank,
    MemoPool, MessageStore, MmpConfig, ProbeMemo, WarmSeed,
};
use super::{DependencyIndex, RunStats, Worklist};

/// Where a driver's [`DependencyIndex`] comes from: built fresh from the
/// dataset (the one-shot free functions), borrowed pre-built (a
/// [`crate::framework`] session that owns it across runs), or restricted
/// to a shard's members.
enum IndexSource<'i> {
    Build,
    Borrowed(&'i DependencyIndex),
    Restrict(&'i DependencyIndex, &'i [NeighborhoodId]),
}

/// Per-neighborhood evaluation costs recorded by a driver when tracing
/// is enabled (a sharded run keeps one per epoch; the Table 1 grid
/// simulator replays them).
pub type EvalTrace = Vec<(NeighborhoodId, Duration)>;

/// Shared non-MMP state of both drivers.
struct DriverCore<'a> {
    dataset: &'a Dataset,
    cover: &'a Cover,
    index: std::borrow::Cow<'a, DependencyIndex>,
    worklist: Worklist,
    /// Replica of the accumulating global `M+` (plus the negative set),
    /// epoch-tracked so the scope's outgoing deltas are borrowed slices.
    found: Evidence,
    /// `found` filed by entity, caught up from its insertion log before
    /// each first visit.
    by_entity: EvidenceIndex,
    /// Per-neighborhood cached local evidence: a first visit reads the
    /// view members' entries of `by_entity` (O(their evidence degree),
    /// not O(|M+|)); revisits apply only the scheduler's dirty pairs.
    local: Vec<Option<Evidence>>,
    stats: RunStats,
    trace: Option<EvalTrace>,
}

impl<'a> DriverCore<'a> {
    fn new(
        dataset: &'a Dataset,
        cover: &'a Cover,
        source: IndexSource<'a>,
        evidence: &Evidence,
        order: Option<&[NeighborhoodId]>,
    ) -> Self {
        // A shard filters the caller's already-built full index (a pure
        // O(index) restriction) instead of re-scanning the dataset; a
        // session lends its long-lived index by reference — no clone.
        let members = match &source {
            IndexSource::Restrict(_, members) => Some(*members),
            _ => None,
        };
        let index = match source {
            IndexSource::Restrict(full, members) => {
                std::borrow::Cow::Owned(full.restrict_to(members))
            }
            IndexSource::Borrowed(index) => std::borrow::Cow::Borrowed(index),
            IndexSource::Build => std::borrow::Cow::Owned(DependencyIndex::build(dataset, cover)),
        };
        let worklist = match (order, members) {
            (Some(order), _) => Worklist::seeded(cover.len(), order.iter().copied()),
            (None, Some(members)) => Worklist::seeded(cover.len(), members.iter().copied()),
            (None, None) => Worklist::full(cover.len()),
        };
        let found = Evidence::from_parts(evidence.positive.clone(), evidence.negative.clone());
        Self {
            dataset,
            cover,
            index,
            worklist,
            by_entity: EvidenceIndex::new(&found),
            found,
            local: vec![None; cover.len()],
            stats: RunStats::default(),
            trace: None,
        }
    }

    /// Cached local evidence of `id`, updated with this visit's dirty
    /// pairs. A first visit syncs `by_entity` with the replica's log and
    /// reads the view members' entries. The returned borrow is tied to
    /// `local` only, so the caller's other driver fields stay mutable
    /// while it is live.
    fn local_evidence<'b>(
        local: &'b mut [Option<Evidence>],
        by_entity: &mut EvidenceIndex,
        found: &Evidence,
        view: &crate::dataset::View<'_>,
        id: NeighborhoodId,
        dirty: &PairSet,
    ) -> &'b Evidence {
        match &mut local[id.index()] {
            Some(ev) => {
                for p in dirty.iter() {
                    ev.insert_positive(p);
                }
                ev
            }
            slot @ None => {
                by_entity.sync(found);
                slot.insert(by_entity.restrict(view))
            }
        }
    }

    /// Route the replica pairs inserted since `fence` (an evaluation's
    /// or promotion sweep's delta) through the index, counting them as
    /// messages. `from` suppresses re-activating the producer.
    fn route_delta(&mut self, fence: Epoch, from: Option<NeighborhoodId>) {
        let delta = self.found.delta_since(fence);
        if delta.is_empty() {
            return;
        }
        self.stats.messages_sent += delta.len() as u64;
        for &p in delta {
            self.worklist.route(&self.index, p, from);
        }
    }

    fn take_trace(&mut self) -> EvalTrace {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn record(&mut self, id: NeighborhoodId, started: Option<Instant>) {
        if let (Some(trace), Some(t0)) = (&mut self.trace, started) {
            trace.push((id, t0.elapsed()));
        }
    }

    fn finish(self, start: Instant) -> MatchOutput {
        let negative = self.found.negative.clone();
        let mut matches = self.found.into_positive();
        for p in negative.iter() {
            matches.remove(p);
        }
        let mut stats = self.stats;
        stats.wall_time = start.elapsed();
        MatchOutput { matches, stats }
    }
}

/// The SMP engine (Algorithm 1): evaluate active neighborhoods, fold new
/// matches into the replica, route each epoch delta through the index.
pub struct SmpDriver<'a> {
    core: DriverCore<'a>,
}

impl<'a> SmpDriver<'a> {
    /// Driver over the whole cover (the sequential case).
    pub fn new(dataset: &'a Dataset, cover: &'a Cover, evidence: &Evidence) -> Self {
        Self {
            core: DriverCore::new(dataset, cover, IndexSource::Build, evidence, None),
        }
    }

    /// Driver over the whole cover with an explicit initial evaluation
    /// order (consistency tests).
    pub fn with_order(
        dataset: &'a Dataset,
        cover: &'a Cover,
        evidence: &Evidence,
        order: &[NeighborhoodId],
    ) -> Self {
        Self {
            core: DriverCore::new(dataset, cover, IndexSource::Build, evidence, Some(order)),
        }
    }

    /// Driver over the whole cover with a pre-built [`DependencyIndex`]
    /// (a session that owns the index across runs lends it by reference
    /// instead of paying the dataset scan — or a clone — again).
    pub fn with_index(
        dataset: &'a Dataset,
        cover: &'a Cover,
        index: &'a DependencyIndex,
        evidence: &Evidence,
    ) -> Self {
        Self {
            core: DriverCore::new(dataset, cover, IndexSource::Borrowed(index), evidence, None),
        }
    }

    /// Shard driver: `index` (the full, already-built dependency index)
    /// restricted to `members`, worklist seeded with them.
    pub fn for_members(
        dataset: &'a Dataset,
        cover: &'a Cover,
        index: &'a DependencyIndex,
        members: &'a [NeighborhoodId],
        evidence: &Evidence,
    ) -> Self {
        Self {
            core: DriverCore::new(
                dataset,
                cover,
                IndexSource::Restrict(index, members),
                evidence,
                None,
            ),
        }
    }

    /// Record per-neighborhood evaluation costs from now on.
    pub fn enable_trace(&mut self) {
        self.core.trace.get_or_insert_with(Vec::new);
    }

    /// The evaluation costs recorded since the last call (empty unless
    /// [`SmpDriver::enable_trace`] was called; tracing stays on).
    pub fn take_trace(&mut self) -> EvalTrace {
        self.core.take_trace()
    }

    /// Absorb a cross-shard delta: union new pairs into the replica and
    /// route them (activating only neighborhoods this driver's index
    /// knows). Pairs already known are ignored.
    pub fn absorb(&mut self, delta: &[Pair]) {
        for &p in delta {
            if self.core.found.insert_positive(p) {
                self.core.worklist.route(&self.core.index, p, None);
            }
        }
    }

    /// Fence the replica's insertion log; pairs found by subsequent
    /// [`SmpDriver::run`] calls land after the fence.
    pub fn fence(&mut self) -> Epoch {
        self.core.found.advance_epoch()
    }

    /// The replica pairs inserted at or after `since`, in insertion order.
    pub fn delta_since(&self, since: Epoch) -> &[Pair] {
        self.core.found.delta_since(since)
    }

    /// Whether no neighborhood is active.
    pub fn is_idle(&self) -> bool {
        self.core.worklist.is_empty()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.core.stats
    }

    /// Drain the worklist to quiescence.
    pub fn run(&mut self, matcher: &dyn Matcher) {
        let core = &mut self.core;
        while let Some((id, dirty)) = core.worklist.pop() {
            let started = core.trace.is_some().then(Instant::now);
            let view = core.cover.view(core.dataset, id);
            let local_evidence = DriverCore::local_evidence(
                &mut core.local,
                &mut core.by_entity,
                &core.found,
                &view,
                id,
                &dirty,
            );
            let undecided = view
                .sorted_candidate_pairs()
                .iter()
                .filter(|(p, _)| !local_evidence.positive.contains(*p))
                .count() as u64;
            let matches = matcher.match_view(&view, local_evidence);
            core.stats.matcher_calls += 1;
            core.stats.neighborhoods_processed += 1;
            core.stats.active_pairs_evaluated += undecided;

            // New matches become messages: the epoch delta is routed to
            // the neighborhoods the dependency index says can use it.
            let fence = core.found.advance_epoch();
            let new_matches: PairSet = matches.difference(&core.found.positive);
            if !new_matches.is_empty() {
                core.found.union_positive(&new_matches);
                core.route_delta(fence, Some(id));
            }
            core.record(id, started);
        }
    }

    /// Consume the driver into the final output (wall time measured from
    /// `start`).
    pub fn finish(self, start: Instant) -> MatchOutput {
        self.core.finish(start)
    }
}

/// The MMP engine (Algorithms 2 + 3): the SMP loop plus maximal-message
/// computation, the merge-closed [`MessageStore`], and dirty-driven
/// promotion against the evidence replica.
pub struct MmpDriver<'a> {
    core: DriverCore<'a>,
    config: MmpConfig,
    store: MessageStore,
    /// Messages whose promotion delta may have changed, identified by any
    /// member pair (resolved to the current root when processed).
    dirty_messages: Vec<Pair>,
    memos: MemoPool,
    /// Per-neighborhood score-gap certificates, riding next to the probe
    /// memos (see [`super::certificates`]). Populated only when the
    /// matcher's [`Matcher::probe_certificate`] hook produces gap
    /// evidence; otherwise every set stays empty and the incremental
    /// path behaves exactly as before.
    certs: CertificatePool,
    /// When set, maximal messages are collected into [`MmpDriver::take_outbox`]
    /// instead of being stored and promoted locally. A sharded runtime
    /// that splits an overlap component across shards must centralize
    /// the store — two messages sharing a pair can then originate on
    /// different shards, and the `(T ∪ TC)*` merge closure (which
    /// promotion soundness and completeness both lean on) is only
    /// maintainable where all of them are visible.
    defer_promotions: bool,
    outbox: Vec<Vec<Pair>>,
}

impl<'a> MmpDriver<'a> {
    /// Driver over the whole cover (the sequential case).
    pub fn new(
        dataset: &'a Dataset,
        cover: &'a Cover,
        evidence: &Evidence,
        config: &MmpConfig,
    ) -> Self {
        Self::build(dataset, cover, IndexSource::Build, evidence, config, None)
    }

    /// Driver over the whole cover with a pre-built [`DependencyIndex`]
    /// (a session that owns the index across runs lends it by reference
    /// instead of paying the dataset scan — or a clone — again).
    pub fn with_index(
        dataset: &'a Dataset,
        cover: &'a Cover,
        index: &'a DependencyIndex,
        evidence: &Evidence,
        config: &MmpConfig,
    ) -> Self {
        Self::build(
            dataset,
            cover,
            IndexSource::Borrowed(index),
            evidence,
            config,
            None,
        )
    }

    /// Driver over the whole cover with an explicit initial evaluation
    /// order (consistency tests).
    pub fn with_order(
        dataset: &'a Dataset,
        cover: &'a Cover,
        evidence: &Evidence,
        config: &MmpConfig,
        order: &[NeighborhoodId],
    ) -> Self {
        Self::build(
            dataset,
            cover,
            IndexSource::Build,
            evidence,
            config,
            Some(order),
        )
    }

    /// Shard driver: `index` (the full, already-built dependency index)
    /// restricted to `members`, worklist seeded with them. Local
    /// promotion is sound only when `members` is a union of whole
    /// evidence components (see
    /// [`DependencyIndex::evidence_components`]): maximal messages merge
    /// exactly when they share a pair, and a pair's neighborhoods never
    /// leave their component, so per-shard stores stay closed under the
    /// merge rule. A runtime that splits components must call
    /// [`MmpDriver::defer_promotions`] and centralize the store.
    pub fn for_members(
        dataset: &'a Dataset,
        cover: &'a Cover,
        index: &'a DependencyIndex,
        members: &'a [NeighborhoodId],
        evidence: &Evidence,
        config: &MmpConfig,
    ) -> Self {
        Self::build(
            dataset,
            cover,
            IndexSource::Restrict(index, members),
            evidence,
            config,
            None,
        )
    }

    fn build(
        dataset: &'a Dataset,
        cover: &'a Cover,
        source: IndexSource<'a>,
        evidence: &Evidence,
        config: &MmpConfig,
        order: Option<&[NeighborhoodId]>,
    ) -> Self {
        Self {
            core: DriverCore::new(dataset, cover, source, evidence, order),
            config: *config,
            store: MessageStore::new(),
            dirty_messages: Vec::new(),
            memos: MemoPool::new(cover.len(), config.memo_capacity),
            certs: CertificatePool::new(cover.len()),
            defer_promotions: false,
            outbox: Vec::new(),
        }
    }

    /// Collect maximal messages into the outbox instead of storing and
    /// promoting them locally (see the field docs for when a sharded
    /// caller needs this). The driver's own deltas then contain direct
    /// matches only.
    pub fn defer_promotions(&mut self) {
        self.defer_promotions = true;
    }

    /// Drain the maximal messages collected since the last call (always
    /// empty unless [`MmpDriver::defer_promotions`] is on).
    pub fn take_outbox(&mut self) -> Vec<Vec<Pair>> {
        std::mem::take(&mut self.outbox)
    }

    /// Record per-neighborhood evaluation costs from now on.
    pub fn enable_trace(&mut self) {
        self.core.trace.get_or_insert_with(Vec::new);
    }

    /// The evaluation costs recorded since the last call (empty unless
    /// [`MmpDriver::enable_trace`] was called; tracing stays on).
    pub fn take_trace(&mut self) -> EvalTrace {
        self.core.take_trace()
    }

    /// Seed one neighborhood's probe memo directly (the caller withdrew
    /// it from a [`MemoBank`] — [`MemoBank::withdraw_grown`] — under the
    /// view-identity contract documented there).
    pub fn seed_memo(&mut self, id: NeighborhoodId, memo: ProbeMemo) {
        self.memos.put(id, memo, &mut self.core.stats);
    }

    /// Seed one neighborhood's score-gap certificates (the caller
    /// withdrew them from a [`CertificateBank`] — only meaningful at call
    /// sites where the matching [`MmpDriver::seed_memo`] withdrawal
    /// succeeded; see the bank's key discipline).
    pub fn seed_certificates(&mut self, id: NeighborhoodId, set: CertificateSet) {
        self.certs.put(id, set);
    }

    /// Apply a [`WarmSeed`] withdrawn by [`super::WarmStart::withdraw`]:
    /// seed its probe memos and certificates, and start only its active
    /// neighborhoods ([`MmpDriver::seed_worklist`]).
    pub fn seed_warm(&mut self, seed: WarmSeed) {
        self.seed_worklist(&seed.active);
        for (id, memo) in seed.memos {
            self.seed_memo(id, memo);
        }
        for (id, set) in seed.certs {
            self.seed_certificates(id, set);
        }
    }

    /// Replace the driver's (empty) message store with a previous
    /// fixpoint's and mark every carried message dirty, so the next
    /// [`MmpDriver::run`] re-checks each one's promotion against the
    /// current evidence and scorer before any evaluation.
    ///
    /// Promotion from a carried message is sound regardless of how the
    /// dataset grew since the store was taken: Theorem 4's argument is
    /// provenance-free (any set whose global score delta is non-negative
    /// is contained in the full run's output, by supermodularity).
    /// Carrying the store is what lets a warm-started run skip
    /// re-evaluating neighborhoods whose view did not change — their
    /// old messages are already here, waiting for new evidence to
    /// promote them.
    pub fn warm_store(&mut self, store: MessageStore) {
        self.dirty_messages = store.roots();
        self.store = store;
    }

    /// Take the message store out of the driver (call after
    /// [`MmpDriver::run`]; the store at quiescence is the input to the
    /// next run's [`MmpDriver::warm_store`]).
    pub fn take_store(&mut self) -> MessageStore {
        std::mem::take(&mut self.store)
    }

    /// Replace the initial worklist: only `ids` start active (their
    /// dirty sets empty). A warm-started caller seeds the neighborhoods
    /// whose views changed since the previous fixpoint; unchanged ones
    /// are activated later only if routed evidence reaches them.
    ///
    /// Sound for warm runs because an unchanged view re-evaluated
    /// against the previous fixpoint's evidence reproduces its quiescent
    /// state: its base matches are already in the evidence and its
    /// maximal messages are already in the carried store.
    pub fn seed_worklist(&mut self, ids: &[NeighborhoodId]) {
        self.core.worklist = Worklist::seeded(self.core.cover.len(), ids.iter().copied());
    }

    /// Deposit the driver's probe memos into `bank` under their current
    /// view identities, for the next run to withdraw
    /// ([`MemoBank::withdraw_grown`]) and [`MmpDriver::seed_memo`] from.
    /// Call after [`MmpDriver::run`] reaches quiescence.
    pub fn bank_memos(&mut self, bank: &mut MemoBank) {
        for (id, memo) in self.memos.drain() {
            let view = self.core.cover.view(self.core.dataset, id);
            bank.deposit(&view, memo);
        }
    }

    /// Deposit the driver's score-gap certificates into `bank` under
    /// their current view identities — the certificate half of
    /// [`MmpDriver::bank_memos`]. Call after [`MmpDriver::run`] reaches
    /// quiescence.
    pub fn bank_certificates(&mut self, bank: &mut CertificateBank) {
        for (id, set) in self.certs.drain() {
            let view = self.core.cover.view(self.core.dataset, id);
            bank.deposit(&view, set);
        }
    }

    /// Absorb a cross-shard delta: union new pairs into the replica,
    /// route them, and mark dirty every stored message whose promotion
    /// delta they can have changed. Promotion itself happens at the
    /// start of the next [`MmpDriver::run`] so its output lands in the
    /// caller's epoch window.
    pub fn absorb(&mut self, delta: &[Pair], scorer: &dyn GlobalScorer) {
        let mut batch = PairSet::new();
        for &p in delta {
            if self.core.found.insert_positive(p) {
                self.core.worklist.route(&self.core.index, p, None);
                batch.insert(p);
            }
        }
        if !batch.is_empty() {
            mark_dirty_around(&batch, scorer, &mut self.store, &mut self.dirty_messages);
        }
    }

    /// Fence the replica's insertion log; pairs found by subsequent
    /// [`MmpDriver::run`] calls land after the fence.
    pub fn fence(&mut self) -> Epoch {
        self.core.found.advance_epoch()
    }

    /// The replica pairs inserted at or after `since`, in insertion order.
    pub fn delta_since(&self, since: Epoch) -> &[Pair] {
        self.core.found.delta_since(since)
    }

    /// Whether no neighborhood is active and no message is pending
    /// re-promotion.
    pub fn is_idle(&self) -> bool {
        self.core.worklist.is_empty() && self.dirty_messages.is_empty()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.core.stats
    }

    /// Drain the worklist to quiescence, promoting dirty messages first
    /// (absorbed cross-shard evidence can enable promotions without
    /// activating any neighborhood).
    pub fn run(&mut self, matcher: &dyn ProbabilisticMatcher, scorer: &dyn GlobalScorer) {
        if !self.dirty_messages.is_empty() {
            let fence = self.core.found.advance_epoch();
            promote_dirty(
                &mut self.store,
                scorer,
                &mut self.core.found,
                &mut self.dirty_messages,
                &mut self.core.stats,
            );
            self.core.route_delta(fence, None);
        }

        while let Some((id, dirty)) = self.core.worklist.pop() {
            let started = self.core.trace.is_some().then(Instant::now);
            let view = self.core.cover.view(self.core.dataset, id);
            let local_evidence = DriverCore::local_evidence(
                &mut self.core.local,
                &mut self.core.by_entity,
                &self.core.found,
                &view,
                id,
                &dirty,
            );
            let undecided = view
                .sorted_candidate_pairs()
                .iter()
                .filter(|(p, _)| !local_evidence.positive.contains(*p))
                .count() as u64;
            let base = matcher.match_view(&view, local_evidence);
            self.core.stats.matcher_calls += 1;
            self.core.stats.neighborhoods_processed += 1;
            self.core.stats.active_pairs_evaluated += undecided;

            // Step 5b: new maximal messages from this neighborhood.
            let (new_messages, new_memo) = if self.config.incremental {
                let mut certs = self.certs.take(id);
                let out = compute_maximal_certified(
                    matcher,
                    &view,
                    local_evidence,
                    &base,
                    &dirty,
                    scorer,
                    self.memos.take(id),
                    &mut certs,
                    &self.config,
                    &mut self.core.stats,
                );
                self.certs.put(id, certs);
                out
            } else {
                (
                    compute_maximal(
                        matcher,
                        &view,
                        local_evidence,
                        &base,
                        &self.config,
                        &mut self.core.stats,
                    ),
                    ProbeMemo::new(),
                )
            };
            self.memos.put(id, new_memo, &mut self.core.stats);
            self.core.stats.maximal_messages_created += new_messages.len() as u64;
            if self.defer_promotions {
                self.outbox.extend(new_messages);
            } else {
                for message in &new_messages {
                    // Messages touching hard negative evidence can never
                    // be all-true; drop them.
                    if message
                        .iter()
                        .any(|p| self.core.found.negative.contains(*p))
                    {
                        continue;
                    }
                    match self.store.add_message(message) {
                        Some(root) => self.dirty_messages.push(root),
                        None => self.core.stats.messages_subsumed += 1,
                    }
                }
            }

            // Step 6: fold the direct matches into M+. Each new match
            // makes dirty every message it shares a ground edge with.
            let fence = self.core.found.advance_epoch();
            let new_matches: PairSet = base.difference(&self.core.found.positive);
            self.core.found.union_positive(&new_matches);
            mark_dirty_around(
                &new_matches,
                scorer,
                &mut self.store,
                &mut self.dirty_messages,
            );

            // Step 7: promote messages whose global score delta is
            // non-negative, to fixpoint (a promotion can enable another).
            promote_dirty(
                &mut self.store,
                scorer,
                &mut self.core.found,
                &mut self.dirty_messages,
                &mut self.core.stats,
            );

            // Step 8: route this evaluation's epoch delta (direct matches
            // and promotions alike) to the neighborhoods that can use it.
            self.core.route_delta(fence, Some(id));
            self.core.record(id, started);
        }
    }

    /// Consume the driver into the final output (wall time measured from
    /// `start`).
    pub fn finish(self, start: Instant) -> MatchOutput {
        self.core.finish(start)
    }
}
