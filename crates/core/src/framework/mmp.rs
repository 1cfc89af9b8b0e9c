//! MMP — Maximal Message Passing (Algorithms 2 and 3), delta-driven.
//!
//! A *maximal message* (Definition 8) is a set of pairs that the full-run
//! matcher either matches entirely or not at all — a "partial inference by
//! a neighborhood, waiting to be completed". SMP cannot discover match sets
//! whose score only becomes positive when *all* of them are matched (the
//! paper's `(a1,a2), (b2,b3), (c2,c3)` chicken-and-egg chain); MMP can:
//!
//! 1. [`compute_maximal`] (Algorithm 2) probes each undecided candidate
//!    pair `p` of a neighborhood with one conditioned matcher call
//!    `E(C, M+ ∪ {p})`; mutual entailment edges define a graph whose
//!    connected components are maximal messages (Lemma 1).
//! 2. [`MessageStore`] keeps the message set `T` closed under the merge
//!    rule of Proposition 3(ii): overlapping maximal messages union into a
//!    bigger maximal message (`T ← (T ∪ TC)*`).
//! 3. Step 7 *promotes* a message `M` to real matches when
//!    `P(M+ ∪ M) ≥ P(M+)`; by supermodularity this implies `M ⊆ E(E)`, so
//!    promotion is sound (Theorem 4).
//!
//! ## Incremental re-probing
//!
//! Re-evaluating a neighborhood used to re-probe *every* undecided pair,
//! even though the revisit was triggered by a handful of new evidence
//! pairs. For an exact supermodular matcher, MAP inference factorizes
//! over the connected components of the ground-interaction graph
//! ([`GlobalScorer::affected_pairs`]): evidence in one component cannot
//! change the optimum — or any conditioned probe — of another. So
//! [`compute_maximal_incremental`] flood-fills the components touched by
//! the neighborhood's evidence delta (plus pairs that changed decision
//! status) and re-probes only those; probes in untouched components are
//! replayed byte-identically from the per-neighborhood [`ProbeMemo`].
//! `--incremental off` in the bench harness disables exactly this replay.

use crate::cover::{Cover, NeighborhoodId};
use crate::dataset::{Dataset, View};
use crate::evidence::Evidence;
use crate::hash::{FxHashMap, FxHashSet};
use crate::matcher::{GlobalScorer, MatchOutput, ProbabilisticMatcher, Score};
use crate::pair::{Pair, PairSet};
use std::time::Instant;

use super::certificates::{gap_breached, CertificateBank, CertificateSet};
use super::RunStats;

/// Tuning knobs for MMP.
#[derive(Debug, Clone, Copy)]
pub struct MmpConfig {
    /// Include single-pair messages. A singleton `{p}` is trivially maximal
    /// and promoting it when its global score delta is non-negative is
    /// sound; disabling this reproduces a strictly more conservative MMP
    /// (useful as an ablation).
    pub singleton_messages: bool,
    /// Upper bound on the number of conditioned probes per neighborhood
    /// evaluation (`COMPUTEMAXIMAL` costs one matcher call per undecided
    /// pair). `usize::MAX` means no bound.
    pub max_probes_per_neighborhood: usize,
    /// Replay conditioned probes whose ground-interaction component was
    /// untouched by the evidence delta (see the module docs). Sound —
    /// byte-identical output — for exact supermodular matchers; for
    /// approximate backends (MaxWalkSAT) whose probe results are not
    /// component-factorizable, turn this off to reproduce the
    /// full-recompute behaviour exactly.
    pub incremental: bool,
    /// Upper bound on the total number of memoized probe entries kept
    /// across all per-neighborhood [`ProbeMemo`]s (the [`MemoPool`]
    /// evicts whole least-recently-evaluated memos past it). Bounds the
    /// memory of DBLP-BIG-scale incremental runs; an evicted
    /// neighborhood simply re-probes on its next visit, so outputs are
    /// unchanged. `usize::MAX` means unbounded. The bound is per run:
    /// `em-shard` divides it across its per-shard pools so a sharded
    /// run respects the same total.
    pub memo_capacity: usize,
    /// Safety knob of the score-gap certificate gate (see
    /// [`super::certificates`]): the delta's clause footprint is scaled
    /// by this factor before being compared against each certificate's
    /// gap, so larger values breach earlier (more conservative).
    ///
    /// The default is [`DEFAULT_CERTIFICATE_SLACK`] (`0.25`). Walksat
    /// gaps are margins over the *best visited* alternative — usually a
    /// single rejected flip, so under one clause weight — while any
    /// delta footprint covers at least one whole clause. At `1.0` the
    /// gate therefore breaches essentially always; `0.25` elides pairs
    /// whose gap exceeds a quarter of the delta's component footprint,
    /// which measured byte-identical to the probe-everything arm on the
    /// committed benchmarks (the bench records the divergence rather
    /// than assuming it is zero). An infinite slack breaches every
    /// certificate, reproducing probe-everything for certificate-gated
    /// backends. Exact matchers never record certificates, so the knob
    /// has no effect on them.
    pub certificate_slack: f64,
}

impl Default for MmpConfig {
    fn default() -> Self {
        Self {
            singleton_messages: true,
            max_probes_per_neighborhood: usize::MAX,
            incremental: true,
            memo_capacity: usize::MAX,
            certificate_slack: DEFAULT_CERTIFICATE_SLACK,
        }
    }
}

/// Default [`MmpConfig::certificate_slack`]: the largest slack (to one
/// significant digit) at which the gate still elides on the committed
/// churn benchmarks. See the field docs for why `1.0` is effectively
/// probe-everything for walksat-derived gaps.
pub const DEFAULT_CERTIFICATE_SLACK: f64 = 0.25;

/// The message set `T`, kept closed under union-of-overlapping-messages.
///
/// Internally a union-find over pairs: each pair belongs to at most one
/// message (Proposition 3 guarantees the closure `T*` is a partition of
/// the covered pairs).
#[derive(Debug, Default, Clone)]
pub struct MessageStore {
    /// Union-find parent pointers; roots map to themselves.
    parent: FxHashMap<Pair, Pair>,
    /// Members of each root's message (only valid for roots).
    members: FxHashMap<Pair, Vec<Pair>>,
}

impl MessageStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&mut self, pair: Pair) -> Option<Pair> {
        let mut root = *self.parent.get(&pair)?;
        while let Some(&next) = self.parent.get(&root) {
            if next == root {
                break;
            }
            root = next;
        }
        // Path compression.
        let mut cur = pair;
        while let Some(&next) = self.parent.get(&cur) {
            if next == root {
                break;
            }
            self.parent.insert(cur, root);
            cur = next;
        }
        Some(root)
    }

    /// Add a maximal message, merging with any existing overlapping
    /// messages (the `(T ∪ TC)*` closure). Returns the root of the merged
    /// message when the add changed the store — it covered a new pair or
    /// bridged two stored messages — and `None` when every pair already
    /// sat in one stored message (or `pairs` is empty).
    ///
    /// Senders re-check promotion only for `Some` roots: an unchanged
    /// message failed the test at the last promotion fixpoint, and
    /// [`mark_dirty_around`] re-dirties it as soon as a new match can
    /// change its delta.
    pub fn add_message(&mut self, pairs: &[Pair]) -> Option<Pair> {
        let (&first, rest) = pairs.split_first()?;
        let mut changed = false;
        let mut root = match self.find(first) {
            Some(r) => r,
            None => {
                self.parent.insert(first, first);
                self.members.insert(first, vec![first]);
                changed = true;
                first
            }
        };
        for &p in rest {
            match self.find(p) {
                Some(other_root) if other_root == root => {}
                Some(other_root) => {
                    // Merge the smaller member list into the larger.
                    let (winner, loser) = {
                        let a = self.members[&root].len();
                        let b = self.members[&other_root].len();
                        if a >= b {
                            (root, other_root)
                        } else {
                            (other_root, root)
                        }
                    };
                    let moved = self.members.remove(&loser).expect("loser is a root");
                    self.parent.insert(loser, winner);
                    self.members
                        .get_mut(&winner)
                        .expect("winner is a root")
                        .extend(moved);
                    root = winner;
                    changed = true;
                }
                None => {
                    self.parent.insert(p, root);
                    self.members
                        .get_mut(&root)
                        .expect("root has members")
                        .push(p);
                    changed = true;
                }
            }
        }
        changed.then_some(root)
    }

    /// Current root of the message containing `pair`, if any.
    pub fn root_of(&mut self, pair: Pair) -> Option<Pair> {
        self.find(pair)
    }

    /// Remove the message rooted at `root`, returning its members.
    pub fn remove_message(&mut self, root: Pair) -> Option<Vec<Pair>> {
        let members = self.members.remove(&root)?;
        for p in &members {
            self.parent.remove(p);
        }
        Some(members)
    }

    /// Drop every message that holds one of `pairs`, in place,
    /// returning the number of messages dropped.
    ///
    /// This is the message-store half of component-scoped rollback:
    /// messages touching an invalidated ground component are dropped,
    /// everything else survives verbatim. A union-find cannot un-merge,
    /// but it need not: each message is one whole tree of the parent
    /// forest, so dropping it means finding its root ([`Self::root_of`])
    /// and removing its member list and every member's parent entry
    /// ([`Self::remove_message`]). The cost is O(|`pairs`| + members
    /// dropped), not O(store). Surviving messages are not touched:
    /// they keep their root, member order and parent chains, and stay
    /// closed under union-of-overlapping-messages (dropping whole
    /// messages cannot make two survivors overlap).
    pub fn drop_messages_touching(&mut self, pairs: impl IntoIterator<Item = Pair>) -> usize {
        let mut dropped = 0usize;
        for pair in pairs {
            if let Some(root) = self.find(pair) {
                self.remove_message(root);
                dropped += 1;
            }
        }
        dropped
    }

    /// Roots of all current messages (deterministic order for consistency:
    /// sorted by the canonical pair order).
    pub fn roots(&self) -> Vec<Pair> {
        let mut roots: Vec<Pair> = self.members.keys().copied().collect();
        roots.sort_unstable();
        roots
    }

    /// Members of the message rooted at `root`.
    pub fn message(&self, root: Pair) -> Option<&[Pair]> {
        self.members.get(&root).map(Vec::as_slice)
    }

    /// Number of messages currently stored.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the store holds no messages.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Every pair currently covered by some message, in arbitrary order.
    pub fn all_pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        self.members.values().flatten().copied()
    }

    /// Check the union-find closure invariants without mutating the
    /// forest (no path compression — parent chains are chased
    /// read-only, with a step bound in case of a cycle):
    ///
    /// 1. every root in `members` maps to itself in `parent`;
    /// 2. every pair in `parent` reaches a root that owns a member list;
    /// 3. every pair appears in exactly one member list — the one owned
    ///    by the root its parent chain reaches (Proposition 3: `T*` is a
    ///    partition of the covered pairs);
    /// 4. `parent` and the member lists cover exactly the same pairs.
    ///
    /// Returns the number of pairs checked, or a description of the
    /// first violation.
    pub fn validate(&self) -> Result<usize, String> {
        let bound = self.parent.len() + 1;
        let chase = |start: Pair| -> Result<Pair, String> {
            let mut cur = start;
            for _ in 0..bound {
                match self.parent.get(&cur) {
                    Some(&next) if next == cur => return Ok(cur),
                    Some(&next) => cur = next,
                    None => return Err(format!("parent chain of {start:?} dangles at {cur:?}")),
                }
            }
            Err(format!("parent chain of {start:?} cycles"))
        };
        for (&root, members) in &self.members {
            if self.parent.get(&root) != Some(&root) {
                return Err(format!("root {root:?} is not self-parented"));
            }
            if members.is_empty() {
                return Err(format!("root {root:?} owns an empty message"));
            }
            for &p in members {
                let found = chase(p)?;
                if found != root {
                    return Err(format!(
                        "pair {p:?} is listed under root {root:?} but its \
                         chain reaches {found:?}"
                    ));
                }
            }
        }
        let listed: usize = self.members.values().map(Vec::len).sum();
        if listed != self.parent.len() {
            return Err(format!(
                "member lists cover {listed} pairs but the parent forest \
                 holds {} — a pair is missing or double-listed",
                self.parent.len()
            ));
        }
        Ok(listed)
    }
}

/// Per-neighborhood memo of the last `COMPUTEMAXIMAL` evaluation: the
/// undecided pair list that was probed and each pair's entailed set.
/// [`compute_maximal_incremental`] replays entries whose
/// ground-interaction component the evidence delta cannot have touched.
#[derive(Debug, Default, Clone)]
pub struct ProbeMemo {
    /// Whether the neighborhood has been evaluated at least once.
    visited: bool,
    /// Whether the memo crossed runs through a [`MemoBank`]: the view
    /// it meets may then have *gained* candidate pairs, which the
    /// within-run revisit path never sees — gates the entered-pair
    /// seeding in [`compute_maximal_incremental`] off the hot path.
    from_bank: bool,
    /// The (sorted, truncated) undecided pairs of the last evaluation.
    undecided: Vec<Pair>,
    /// Last known entailed set of each probed pair.
    entailed: FxHashMap<Pair, Vec<Pair>>,
}

impl ProbeMemo {
    /// Empty memo (first evaluation probes everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the memo holds a previous evaluation.
    pub fn is_visited(&self) -> bool {
        self.visited
    }

    /// Number of memoized probe entries (the unit [`MemoPool`]'s
    /// capacity is measured in).
    pub fn entries(&self) -> usize {
        self.entailed.len()
    }

    /// Whether the memo crossed runs through a [`MemoBank`] (see the
    /// `from_bank` field). Durable-session capture persists the flag so
    /// a restored memo gates the entered-pair seeding exactly like the
    /// live one.
    pub fn is_from_bank(&self) -> bool {
        self.from_bank
    }

    /// The memoized undecided pair list of the last evaluation,
    /// read-only (sorted, truncated — exactly as evaluated).
    pub fn undecided(&self) -> &[Pair] {
        &self.undecided
    }

    /// Visit every memoized probe entry — the probed pair and its last
    /// known entailed set — in arbitrary order. Consumers needing
    /// determinism (snapshot encoders) must sort what they collect.
    pub fn for_each_entailed(&self, mut visit: impl FnMut(Pair, &[Pair])) {
        for (&p, entailed) in &self.entailed {
            visit(p, entailed);
        }
    }

    /// Reassemble a memo from previously walked parts — the decode half
    /// of durable-session snapshots, symmetric with
    /// [`ProbeMemo::is_visited`] / [`ProbeMemo::is_from_bank`] /
    /// [`ProbeMemo::undecided`] / [`ProbeMemo::for_each_entailed`].
    pub fn from_parts(
        visited: bool,
        from_bank: bool,
        undecided: Vec<Pair>,
        entailed: impl IntoIterator<Item = (Pair, Vec<Pair>)>,
    ) -> Self {
        Self {
            visited,
            from_bank,
            undecided,
            entailed: entailed.into_iter().collect(),
        }
    }
}

/// The per-neighborhood [`ProbeMemo`]s of one run, bounded by
/// [`MmpConfig::memo_capacity`] total entries with least-recently-used
/// eviction at neighborhood granularity: when the pool overflows, the
/// memo whose neighborhood was evaluated longest ago is dropped whole
/// (its next revisit re-probes from scratch — sound, just slower) and
/// the eviction is surfaced in [`RunStats::memo_evictions`].
#[derive(Debug, Clone)]
pub struct MemoPool {
    memos: Vec<ProbeMemo>,
    /// Last evaluation tick of each neighborhood (0 = never).
    stamps: Vec<u64>,
    /// Non-empty memos ordered by `(stamp, id)` — O(log n) LRU victim
    /// selection instead of scanning every neighborhood on the hot
    /// evaluation path (a capacity-bounded pool sits at capacity in
    /// steady state, so eviction runs on nearly every put).
    lru: std::collections::BTreeSet<(u64, usize)>,
    tick: u64,
    capacity: usize,
    total: usize,
}

impl MemoPool {
    /// Pool of `n` empty memos holding at most `capacity` entries.
    pub fn new(n: usize, capacity: usize) -> Self {
        Self {
            memos: vec![ProbeMemo::new(); n],
            stamps: vec![0; n],
            lru: std::collections::BTreeSet::new(),
            tick: 0,
            capacity,
            total: 0,
        }
    }

    /// Whether eviction can ever run; the unbounded default (every
    /// sequential and sharded run unless configured otherwise) skips
    /// all LRU bookkeeping on the hot path.
    fn bounded(&self) -> bool {
        self.capacity != usize::MAX
    }

    /// Take neighborhood `id`'s memo out of the pool (replaced by an
    /// empty one until [`MemoPool::put`] returns it).
    pub fn take(&mut self, id: NeighborhoodId) -> ProbeMemo {
        let memo = std::mem::take(&mut self.memos[id.index()]);
        self.total -= memo.entries();
        if self.bounded() {
            self.lru.remove(&(self.stamps[id.index()], id.index()));
        }
        memo
    }

    #[cfg(test)]
    fn get(&self, id: NeighborhoodId) -> &ProbeMemo {
        &self.memos[id.index()]
    }

    /// Store `memo` as neighborhood `id`'s, stamping it most recently
    /// used, then evict least-recently-used memos until the pool fits
    /// the capacity again. Evicted entries are counted into
    /// `stats.memo_evictions`.
    pub fn put(&mut self, id: NeighborhoodId, memo: ProbeMemo, stats: &mut RunStats) {
        let old = std::mem::replace(&mut self.memos[id.index()], memo);
        self.total -= old.entries();
        self.total += self.memos[id.index()].entries();
        if !self.bounded() {
            return;
        }
        self.lru.remove(&(self.stamps[id.index()], id.index()));
        self.tick += 1;
        self.stamps[id.index()] = self.tick;
        if self.memos[id.index()].entries() > 0 {
            self.lru.insert((self.tick, id.index()));
        }
        while self.total > self.capacity {
            // Oldest non-empty memo; the just-put one has the newest
            // stamp, so it goes last.
            let Some(&(stamp, victim)) = self.lru.iter().next() else {
                break;
            };
            self.lru.remove(&(stamp, victim));
            let evicted = std::mem::take(&mut self.memos[victim]);
            self.total -= evicted.entries();
            stats.memo_evictions += evicted.entries() as u64;
        }
    }

    /// Memoized probe entries currently held across all neighborhoods.
    pub fn total_entries(&self) -> usize {
        self.total
    }

    /// Drain every non-empty memo out of the pool (cross-run
    /// warm-starting moves them into a [`MemoBank`]).
    pub fn drain(&mut self) -> Vec<(NeighborhoodId, ProbeMemo)> {
        self.lru.clear();
        self.total = 0;
        self.memos
            .iter_mut()
            .enumerate()
            .filter(|(_, m)| m.visited)
            .map(|(i, m)| (NeighborhoodId(i as u32), std::mem::take(m)))
            .collect()
    }
}

/// Everything a warm-started MMP run carries over from the previous
/// fixpoint: the probe-memo bank and the merge-closed message store.
///
/// The two cover complementary halves of "don't recompute":
///
/// * the **store** carries every maximal message alive at the previous
///   fixpoint. Messages are sets of pairs — no neighborhood ids — so
///   they survive re-blocking; a warm run marks them all dirty and
///   re-checks promotion against the current evidence and scorer (sound
///   by Theorem 4's provenance-free argument). Because unchanged
///   neighborhoods' messages are already here, a warm run only needs to
///   *evaluate* neighborhoods whose view changed;
/// * the **bank** carries the per-neighborhood probe memos under view
///   identities, so changed-but-revisited or delta-activated
///   neighborhoods replay the probes their delta cannot have affected.
#[derive(Debug, Default, Clone)]
pub struct WarmStart {
    /// Probe memos keyed by view identity.
    pub bank: MemoBank,
    /// Score-gap certificates keyed by view members, withdrawn only
    /// where the memo withdrawal succeeds (see
    /// [`super::certificates::CertificateBank`]).
    pub certs: CertificateBank,
    /// The message store at the previous fixpoint.
    pub store: MessageStore,
    /// Number of entities the dataset had when the bank was deposited:
    /// entities with ids at or above this floor are *new* since the
    /// previous fixpoint, which is what lets
    /// [`MemoBank::withdraw_grown`] match a grown view to its
    /// predecessor's memo.
    pub entity_floor: u32,
}

impl WarmStart {
    /// An empty warm-start (what a cold run leaves behind before its
    /// first fixpoint).
    pub fn new() -> Self {
        Self::default()
    }

    /// Withdraw the banked memos and certificates for a whole `cover`,
    /// partitioned into `groups` of neighborhood ids (one group for a
    /// sequential driver, one per shard for a sharded run), and return
    /// one [`WarmSeed`] per group plus the number of memo entries
    /// retired unclaimed ([`super::RunStats::memos_retired`]).
    ///
    /// Each view is sorted three ways:
    ///
    /// * **identical** — quiescent at the previous fixpoint and its
    ///   messages are in the carried store: seed its memo and skip it.
    ///   Its certificates ride along so a later routed delta can still
    ///   elide probes (and so the run's final banking re-deposits them);
    /// * **grown** (or tainted) — must re-evaluate, but probes in
    ///   components no change reaches replay from the seeded memo, and
    ///   touched probes whose certificate gap survives the delta's
    ///   footprint replay too;
    /// * **miss** — re-evaluate cold.
    ///
    /// Certificates are withdrawn only where the memo withdrawal
    /// succeeds (the certificate bank's key discipline). Every memo and
    /// certificate entry that no view of `cover` claimed is then
    /// **retired**: a re-block reshuffled its view away, so it would
    /// never seed a driver, yet every later update would re-key, taint
    /// and checkpoint it. After this call both banks are empty; the
    /// run's final banking refills them with at most one entry per
    /// neighborhood. The store is not touched: a sequential driver
    /// adopts it with [`super::MmpDriver::warm_store`], a sharded
    /// coordinator owns it.
    pub fn withdraw<G>(
        &mut self,
        dataset: &Dataset,
        cover: &Cover,
        groups: impl IntoIterator<Item = G>,
    ) -> (Vec<WarmSeed>, u64)
    where
        G: IntoIterator<Item = NeighborhoodId>,
    {
        let seeds = groups
            .into_iter()
            .map(|ids| {
                let mut seed = WarmSeed::default();
                for id in ids {
                    let view = cover.view(dataset, id);
                    match self.bank.withdraw_grown(&view, self.entity_floor) {
                        Some((memo, identical)) => {
                            seed.memos.push((id, memo));
                            if let Some(set) = self.certs.withdraw_grown(&view, self.entity_floor) {
                                seed.certs.push((id, set));
                            }
                            if !identical {
                                seed.active.push(id);
                            }
                        }
                        None => seed.active.push(id),
                    }
                }
                seed
            })
            .collect();
        let retired = self.bank.len() as u64;
        self.bank = MemoBank::new();
        self.certs = CertificateBank::new();
        (seeds, retired)
    }
}

/// One driver's slice of a [`WarmStart`], withdrawn by
/// [`WarmStart::withdraw`] and applied with
/// [`super::MmpDriver::seed_warm`].
#[derive(Debug, Default)]
pub struct WarmSeed {
    /// Probe memos of the identical and grown views.
    pub memos: Vec<(NeighborhoodId, ProbeMemo)>,
    /// Score-gap certificates of the views whose memo was withdrawn.
    pub certs: Vec<(NeighborhoodId, CertificateSet)>,
    /// The initial worklist: grown views and bank misses.
    pub active: Vec<NeighborhoodId>,
}

/// Cross-run store of per-neighborhood [`ProbeMemo`]s, keyed by the
/// neighborhood's *view identity* — its member entities plus its
/// candidate pairs with levels.
///
/// [`NeighborhoodId`]s are not stable across re-blocking (growing a
/// dataset renumbers the cover), but a probe's result depends only on
/// the view and the local evidence. A memo recorded at a run's fixpoint
/// is therefore valid for a later run's neighborhood exactly when
///
/// 1. the view is *identical* (same members, same candidate pairs at
///    the same levels — checked byte-for-byte at withdrawal), and
/// 2. the new run's starting local evidence equals the old fixpoint's
///    (which warm-started sessions guarantee: they seed the run with
///    the previous fixpoint, whose restriction to an unchanged view is
///    exactly the view's local evidence at quiescence).
///
/// Under those conditions the first visit's evidence delta is empty and
/// the undecided set unchanged, so [`compute_maximal_incremental`]
/// replays every probe and re-probes only what later routed deltas
/// touch. Views that grew match their predecessor through
/// [`MemoBank::withdraw_grown`]'s entity floor; views that shrank or
/// lost candidate links are re-keyed under their surviving identity by
/// [`MemoBank::rekey_churned`]; any other change misses the bank and
/// re-probes from scratch — stale entries are dropped, never replayed.
///
/// The bank is bounded by the live cover: [`WarmStart::withdraw`]
/// claims entries for every view of the run's cover and **retires
/// every entry no view claimed** (a re-block reshuffled its view away),
/// so between runs the bank holds at most one entry per neighborhood
/// of the last run's cover (updates only re-key or drop entries).
#[derive(Debug, Default, Clone)]
pub struct MemoBank {
    entries: FxHashMap<Vec<crate::entity::EntityId>, BankEntry>,
}

#[derive(Debug, Clone)]
struct BankEntry {
    /// The view's candidate pairs with levels, sorted — the rest of the
    /// view-identity check beyond the member key.
    pairs: Vec<(Pair, crate::dataset::SimLevel)>,
    memo: ProbeMemo,
    /// Set by [`MemoBank::taint`]: the view's *evidence* was rolled
    /// back even though its identity is unchanged. A tainted entry is
    /// never treated as "identical → quiescent"; it withdraws as a
    /// changed view so the neighborhood re-evaluates (regenerating its
    /// messages) with probe replay in the components the rollback did
    /// not touch.
    tainted: bool,
}

impl MemoBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of banked neighborhoods.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bank holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Store `memo` under the view identity of `view` (untainted — a
    /// fresh deposit reflects the state the depositing run just
    /// reached).
    pub fn deposit(&mut self, view: &View<'_>, memo: ProbeMemo) {
        self.entries.insert(
            view.members().to_vec(),
            BankEntry {
                pairs: view.sorted_candidate_pairs().to_vec(),
                memo,
                tainted: false,
            },
        );
    }

    /// Merge another bank's entries into this one (shards deposit into
    /// private banks; the coordinator folds them together).
    pub fn absorb(&mut self, other: MemoBank) {
        self.entries.extend(other.entries);
    }

    /// Take the memo banked for `view`, if its identity still matches.
    /// The entry under `view`'s member key is removed either way: a
    /// mismatched entry belongs to a view whose candidate pairs changed
    /// under the same members, and a changed view re-probes from
    /// scratch. Entries under keys no view asks for are not touched
    /// here; a session retires them in [`WarmStart::withdraw`].
    pub fn withdraw(&mut self, view: &View<'_>) -> Option<ProbeMemo> {
        let entry = self.entries.remove(view.members())?;
        (entry.pairs == view.sorted_candidate_pairs())
            .then_some(entry.memo)
            .map(|mut m| {
                m.from_bank = true;
                m
            })
    }

    /// Drop every banked entry whose view `predicate` marks as touched,
    /// returning the number dropped. The predicate sees the entry's
    /// member list (sorted ascending) and its candidate pairs with
    /// levels (sorted) — the full view identity the bank keys on.
    ///
    /// This is the probe-memo half of component-scoped rollback: a
    /// banked memo whose view lost a member, lost a ground tuple, or
    /// contains an invalidated pair must not be replayed — its probes
    /// were conditioned on structure or evidence that no longer exists.
    /// (Views whose *identity* changed would miss the bank anyway; the
    /// dangerous case is a view that is byte-identical but whose
    /// component's evidence was rolled back — the identity check cannot
    /// see that, so the rollback must evict explicitly.)
    pub fn invalidate(
        &mut self,
        mut predicate: impl FnMut(
            &[crate::entity::EntityId],
            &[(Pair, crate::dataset::SimLevel)],
        ) -> bool,
    ) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|members, entry| !predicate(members, &entry.pairs));
        before - self.entries.len()
    }

    /// Re-key entries whose views *shrank* by entity retraction — the
    /// special case of [`MemoBank::rekey_churned`] with no retracted
    /// candidate pairs beyond those the gone entities imply.
    pub fn rekey_shrunk(
        &mut self,
        gone: &crate::hash::FxHashSet<crate::entity::EntityId>,
        invalid: &crate::pair::PairSet,
    ) -> usize {
        self.rekey_churned(gone, &[], invalid)
    }

    /// Re-key entries whose views churned — shrank by entity retraction
    /// (`gone`), lost candidate pairs (`retracted_pairs`: links a delta
    /// withdrew, including between *surviving* members), or both, even
    /// when the same delta also grows the view (growth resolves later
    /// through [`MemoBank::withdraw_grown`]'s entity floor — the bank
    /// only has to keep the *pre-growth* identity honest here). Every
    /// touched entry is re-indexed under its surviving member list, with
    /// dead candidate pairs removed from the identity and every
    /// `invalid` pair's memoized probe entry deleted (forcing its
    /// re-probe on the next evaluation). The entry is tainted, so the
    /// view re-evaluates rather than being skipped. Returns the number
    /// of entries re-keyed.
    ///
    /// `rekey_shrunk` used to miss the combined case: a delta that
    /// retracts a candidate link between surviving members (no entity
    /// gone) left the banked identity holding the dead pair, so the next
    /// withdrawal mismatched and silently dropped the memo — a full
    /// re-probe where replay was sound.
    ///
    /// Soundness leans on `invalid` being **closed** under the global
    /// ground-interaction adjacency: a surviving pair outside a closed
    /// set shares no within-view ground component with anything inside
    /// it (view grounding is a restriction of global grounding), so its
    /// memoized probe is exact in the churned view too. Probes of pairs
    /// inside the set — the only ones whose conditioning changed — are
    /// deleted here and re-issued. (Retracted candidate pairs are always
    /// part of the caller's closure seeds, so their probe entries go
    /// through `invalid` as well; removing them from the *identity* is
    /// what this method adds.)
    pub fn rekey_churned(
        &mut self,
        gone: &crate::hash::FxHashSet<crate::entity::EntityId>,
        retracted_pairs: &[Pair],
        invalid: &crate::pair::PairSet,
    ) -> usize {
        if gone.is_empty() && retracted_pairs.is_empty() {
            return 0;
        }
        let retracted: FxHashSet<Pair> = retracted_pairs.iter().copied().collect();
        let mut churned: Vec<Vec<crate::entity::EntityId>> = self
            .entries
            .iter()
            .filter(|(members, entry)| {
                members.iter().any(|e| gone.contains(e))
                    || entry.pairs.iter().any(|&(p, _)| retracted.contains(&p))
            })
            .map(|(members, _)| members.clone())
            .collect();
        // Two churned views can collapse onto the same survivor key
        // (their member lists differed only in retracted entities);
        // the later insert wins, so the processing order must not
        // depend on hash-map iteration — a bank restored from a
        // snapshot iterates in a different order than the live bank it
        // captured, and byte-identity across that round trip requires
        // a deterministic winner.
        churned.sort_unstable();
        let mut rekeyed = 0;
        for key in churned {
            let Some(mut entry) = self.entries.remove(&key) else {
                continue;
            };
            let survivors: Vec<crate::entity::EntityId> =
                key.iter().copied().filter(|e| !gone.contains(e)).collect();
            if survivors.is_empty() {
                continue;
            }
            let dead_pair = |p: &Pair| {
                gone.contains(&p.lo()) || gone.contains(&p.hi()) || retracted.contains(p)
            };
            entry.pairs.retain(|(p, _)| !dead_pair(p));
            entry.memo.undecided.retain(|p| !dead_pair(p));
            entry
                .memo
                .entailed
                .retain(|p, _| !dead_pair(p) && !invalid.contains(*p));
            entry.tainted = true;
            rekeyed += 1;
            self.entries.insert(survivors, entry);
        }
        rekeyed
    }

    /// Mark every entry whose view `predicate` selects as **tainted**,
    /// returning the number newly tainted. The gentler sibling of
    /// [`MemoBank::invalidate`]: the memo's probe entries stay usable
    /// for replay (the per-pair probe results in components the
    /// rollback did not touch are still exact), but the view is no
    /// longer quiescent — its carried messages were dropped or its warm
    /// evidence shrank — so withdrawal reports it as changed and the
    /// neighborhood re-evaluates.
    pub fn taint(
        &mut self,
        mut predicate: impl FnMut(
            &[crate::entity::EntityId],
            &[(Pair, crate::dataset::SimLevel)],
        ) -> bool,
    ) -> usize {
        let mut tainted = 0;
        for (members, entry) in &mut self.entries {
            if !entry.tainted && predicate(members, &entry.pairs) {
                entry.tainted = true;
                tainted += 1;
            }
        }
        tainted
    }

    /// Take the memo banked for the *predecessor* of `view` in a grown
    /// dataset. Returns the memo plus whether the view is byte-identical
    /// to the banked one (`true`) or grew (`false`).
    ///
    /// Entities with ids at or above `entity_floor` did not exist when
    /// the bank was deposited. A grown view matches its predecessor
    /// exactly when the below-floor part of its members and candidate
    /// pairs equals a banked entry: every addition is then genuinely new
    /// to the dataset, so every added candidate pair *enters* the
    /// undecided set and seeds its ground component for re-probing
    /// (see [`compute_maximal_incremental`]); probes in components no
    /// new pair reaches replay soundly, because append-only growth
    /// cannot create ground interactions among pre-existing pairs. A
    /// view that gained a pre-existing entity, or a new candidate pair
    /// between pre-existing entities, misses the bank and re-probes in
    /// full.
    pub fn withdraw_grown(
        &mut self,
        view: &View<'_>,
        entity_floor: u32,
    ) -> Option<(ProbeMemo, bool)> {
        let old_members: Vec<crate::entity::EntityId> = view
            .members()
            .iter()
            .copied()
            .filter(|e| e.0 < entity_floor)
            .collect();
        let entry = self.entries.remove(&old_members)?;
        let pairs = view.sorted_candidate_pairs();
        let old_pairs: Vec<(Pair, crate::dataset::SimLevel)> = pairs
            .iter()
            .copied()
            .filter(|(p, _)| p.lo().0 < entity_floor && p.hi().0 < entity_floor)
            .collect();
        if entry.pairs != old_pairs {
            return None;
        }
        // A tainted entry is never "identical": its view's evidence was
        // rolled back, so the neighborhood must re-evaluate (with
        // replay) even when the view itself is byte-identical.
        let identical = !entry.tainted
            && old_members.len() == view.members().len()
            && old_pairs.len() == pairs.len();
        let mut memo = entry.memo;
        memo.from_bank = true;
        Some((memo, identical))
    }

    /// Visit every banked view identity — its member list (sorted) and
    /// candidate pairs with levels (sorted) — read-only. The invariant
    /// checker uses this to assert no banked view references a
    /// tombstoned entity.
    pub fn for_each_view(
        &self,
        mut visit: impl FnMut(&[crate::entity::EntityId], &[(Pair, crate::dataset::SimLevel)]),
    ) {
        for (members, entry) in &self.entries {
            visit(members, &entry.pairs);
        }
    }

    /// Visit every banked entry in full — member key, candidate-pair
    /// identity, probe memo, and taint flag — read-only, in arbitrary
    /// order. The durable-session encoder walks this; consumers needing
    /// determinism must sort by the member key.
    pub fn for_each_entry(
        &self,
        mut visit: impl FnMut(
            &[crate::entity::EntityId],
            &[(Pair, crate::dataset::SimLevel)],
            &ProbeMemo,
            bool,
        ),
    ) {
        for (members, entry) in &self.entries {
            visit(members, &entry.pairs, &entry.memo, entry.tainted);
        }
    }

    /// Insert one banked entry verbatim — the decode half of
    /// [`MemoBank::for_each_entry`]. Unlike [`MemoBank::deposit`] this
    /// takes the candidate-pair identity and taint flag as given (a
    /// restored bank must reproduce the live one bit-for-bit, including
    /// taint left by a rollback).
    pub fn insert_raw(
        &mut self,
        members: Vec<crate::entity::EntityId>,
        pairs: Vec<(Pair, crate::dataset::SimLevel)>,
        memo: ProbeMemo,
        tainted: bool,
    ) {
        self.entries.insert(
            members,
            BankEntry {
                pairs,
                memo,
                tainted,
            },
        );
    }
}

/// The undecided candidate pairs of a view: candidates not already
/// matched or excluded, sorted, truncated to the probe budget.
fn undecided_pairs(
    view: &View<'_>,
    evidence: &Evidence,
    base: &PairSet,
    config: &MmpConfig,
) -> Vec<Pair> {
    view.sorted_candidate_pairs()
        .iter()
        .map(|&(p, _)| p)
        .filter(|&p| {
            !base.contains(p) && !evidence.positive.contains(p) && !evidence.negative.contains(p)
        })
        .take(config.max_probes_per_neighborhood)
        .collect()
}

/// Flood-fill the undecided pairs whose ground-interaction component was
/// touched by `seeds` (the delta pairs and any pair whose decision status
/// changed since the memoized evaluation).
fn invalidated_component(
    seeds: impl Iterator<Item = Pair>,
    undecided_set: &FxHashSet<Pair>,
    scorer: &dyn GlobalScorer,
) -> FxHashSet<Pair> {
    let mut invalid: FxHashSet<Pair> = FxHashSet::default();
    let mut stack: Vec<Pair> = Vec::new();
    for seed in seeds {
        for q in scorer.affected_pairs(seed) {
            if undecided_set.contains(&q) && invalid.insert(q) {
                stack.push(q);
            }
        }
    }
    while let Some(p) = stack.pop() {
        for q in scorer.affected_pairs(p) {
            if undecided_set.contains(&q) && invalid.insert(q) {
                stack.push(q);
            }
        }
    }
    invalid
}

/// Per-pair clause footprint of a delta, scoped to ground-interaction
/// components: each invalidated pair is charged the summed
/// [`GlobalScorer::touched_weight`] of exactly the seeds that reach its
/// component — not the view-global seed weight, which any sizable
/// growth saturates past every finite score gap.
///
/// Components are labelled by flooding `invalid` (the pairs
/// [`invalidated_component`] returned) over the scorer's
/// ground-interaction adjacency; a seed that touches several components
/// (its affected pairs land in disconnected regions of the undecided
/// graph) charges each of them in full, which over-counts never
/// under-counts — sound for a breach test.
fn component_footprint(
    seeds: &[Pair],
    invalid: &FxHashSet<Pair>,
    scorer: &dyn GlobalScorer,
) -> FxHashMap<Pair, Score> {
    // Label the invalidated pairs' components.
    let mut comp_of: FxHashMap<Pair, usize> = FxHashMap::default();
    let mut comps = 0usize;
    let mut stack: Vec<Pair> = Vec::new();
    for &p in invalid {
        if comp_of.contains_key(&p) {
            continue;
        }
        let id = comps;
        comps += 1;
        comp_of.insert(p, id);
        stack.push(p);
        while let Some(q) = stack.pop() {
            for r in scorer.affected_pairs(q) {
                if invalid.contains(&r) && !comp_of.contains_key(&r) {
                    comp_of.insert(r, id);
                    stack.push(r);
                }
            }
        }
    }
    // Charge each seed's touched weight to every component it reaches.
    let mut weight = vec![Score::ZERO; comps];
    let mut seen: FxHashSet<Pair> = FxHashSet::default();
    for &seed in seeds {
        if !seen.insert(seed) {
            continue;
        }
        let w = scorer.touched_weight(seed);
        let mut charged: Vec<bool> = vec![false; comps];
        let targets = std::iter::once(seed).chain(scorer.affected_pairs(seed));
        for q in targets {
            if let Some(&id) = comp_of.get(&q) {
                if !charged[id] {
                    charged[id] = true;
                    weight[id].0 = weight[id].0.saturating_add(w.0);
                }
            }
        }
    }
    comp_of.into_iter().map(|(p, id)| (p, weight[id])).collect()
}

/// Shared core of [`compute_maximal`] / [`compute_maximal_incremental`]:
/// decide which probes to issue, replay the rest, build the
/// mutual-entailment components.
#[allow(clippy::too_many_arguments)]
fn compute_maximal_core(
    matcher: &dyn ProbabilisticMatcher,
    view: &View<'_>,
    evidence: &Evidence,
    base: &PairSet,
    incremental: Option<(&PairSet, &dyn GlobalScorer, ProbeMemo)>,
    mut certified: Option<&mut CertificateSet>,
    config: &MmpConfig,
    stats: &mut RunStats,
) -> (Vec<Vec<Pair>>, ProbeMemo) {
    let undecided = undecided_pairs(view, evidence, base, config);
    if undecided.is_empty() {
        if let Some(certs) = certified {
            // Every pair is decided; nothing is left to certify.
            certs.retain(|_| false);
        }
        return (
            Vec::new(),
            ProbeMemo {
                visited: true,
                from_bank: false,
                undecided,
                entailed: FxHashMap::default(),
            },
        );
    }

    let undecided_set: FxHashSet<Pair> = undecided.iter().copied().collect();
    let mut elided: Vec<Pair> = Vec::new();
    let mut replayed: Vec<(Pair, Vec<Pair>)> = Vec::new();
    let to_probe: Vec<Pair> = match incremental {
        Some((dirty, scorer, mut memo)) => {
            // Isolated pairs — no ground-interaction neighbor among the
            // view's undecided pairs — are singleton components: by
            // supermodular factorization their conditioned probe cannot
            // entail anything undecided, so the probe is elided outright
            // (first visits included) and the entailed set recorded as
            // empty.
            let isolated = |p: &Pair| {
                !scorer
                    .affected_pairs(*p)
                    .iter()
                    .any(|q| q != p && undecided_set.contains(q))
            };
            if memo.visited {
                // Seeds: pairs that became evidence since the last
                // evaluation plus previously-probed pairs that left the
                // undecided set (decided by base growth). Their components
                // must re-probe; everything else replays — the memoized
                // entailed sets are *moved*, not cloned (the caller
                // replaces the memo with the one we return).
                //
                // Pairs that *entered* the undecided set also seed.
                // Within a run the undecided set only shrinks, so the
                // scan is skipped on the classic revisit path — but a
                // memo carried across runs by a [`MemoBank`] can meet a
                // view that gained candidate pairs (dataset growth), and
                // the new pairs' ground components must then re-probe
                // rather than replay around them.
                let entered: Vec<Pair> = if memo.from_bank {
                    let memo_undecided: FxHashSet<Pair> = memo.undecided.iter().copied().collect();
                    undecided
                        .iter()
                        .copied()
                        .filter(|p| !memo_undecided.contains(p))
                        .collect()
                } else {
                    Vec::new()
                };
                let seeds: Vec<Pair> = dirty
                    .iter()
                    .chain(
                        memo.undecided
                            .iter()
                            .copied()
                            .filter(|p| !undecided_set.contains(p)),
                    )
                    .chain(entered.iter().copied())
                    .collect();
                let invalid = invalidated_component(seeds.iter().copied(), &undecided_set, scorer);
                // Clause footprint of the delta, scoped per ground
                // component: by supermodular factorization only the
                // touched weight *inside a pair's own component* can
                // move that pair's score, so each certificate is
                // intersected with its component's seed weight, not the
                // view-global sum (which any sizable growth saturates).
                // Only computed when a certificate set is in play.
                let footprint = certified
                    .as_ref()
                    .map(|_| component_footprint(&seeds, &invalid, scorer));
                let mut probe = Vec::new();
                for &p in &undecided {
                    let mut replay = !invalid.contains(&p);
                    if !replay {
                        // Certificate gate: a delta-touched pair whose
                        // score-gap certificate exceeds its component's
                        // footprint keeps its memoized probe; a breached
                        // (or missing) certificate forces the re-probe.
                        if let (Some(certs), Some(fp_by_pair)) =
                            (certified.as_deref_mut(), footprint.as_ref())
                        {
                            if memo.entailed.contains_key(&p) {
                                if let Some(gap) = certs.gap(p) {
                                    // Every gated pair is in `invalid`,
                                    // so the map covers it; the sentinel
                                    // fallback breaches (sound).
                                    let fp =
                                        fp_by_pair.get(&p).copied().unwrap_or(Score(i64::MAX / 4));
                                    stats.certificates_checked += 1;
                                    if gap_breached(fp, gap, config.certificate_slack) {
                                        stats.certificates_breached += 1;
                                        certs.remove(p);
                                    } else {
                                        stats.probes_elided += 1;
                                        certs.weaken(p, fp);
                                        replay = true;
                                    }
                                }
                            }
                        }
                    }
                    if replay {
                        if let Some(prev) = memo.entailed.remove(&p) {
                            replayed.push((p, prev)); // untouched component
                            continue;
                        }
                    }
                    if isolated(&p) {
                        elided.push(p);
                    } else {
                        probe.push(p);
                    }
                }
                probe
            } else {
                let mut probe = Vec::new();
                for &p in &undecided {
                    if isolated(&p) {
                        elided.push(p);
                    } else {
                        probe.push(p);
                    }
                }
                probe
            }
        }
        _ => undecided.clone(),
    };

    stats.matcher_calls += to_probe.len() as u64;
    stats.conditioned_probes += to_probe.len() as u64;
    stats.probes_replayed += (undecided.len() - to_probe.len()) as u64;
    stats.pairs_isolated += elided.len() as u64;

    // When certificates are in play, ask the matcher for gap evidence
    // alongside the entailed sets (one search produces both); matchers
    // without gap evidence fall back to the plain probe and record no
    // certificates — every touched pair then re-probes, which is sound.
    let (probed, gaps) = match (certified.as_ref(), to_probe.is_empty()) {
        (Some(_), false) => match matcher.probe_certificate(view, evidence, base, &to_probe) {
            Some(results) => {
                let mut entailed = Vec::with_capacity(results.len());
                let mut gap_list = Vec::with_capacity(results.len());
                for (e, g) in results {
                    entailed.push(e);
                    gap_list.push(g);
                }
                (entailed, Some(gap_list))
            }
            None => (
                matcher.probe_entailed(view, evidence, base, &to_probe),
                None,
            ),
        },
        _ => (
            matcher.probe_entailed(view, evidence, base, &to_probe),
            None,
        ),
    };
    let mut entailed_by_pair: FxHashMap<Pair, Vec<Pair>> =
        FxHashMap::with_capacity_and_hasher(undecided.len(), Default::default());
    entailed_by_pair.extend(replayed);
    for p in elided {
        entailed_by_pair.insert(p, Vec::new());
    }
    for (p, set) in to_probe.iter().zip(probed) {
        entailed_by_pair.insert(*p, set);
    }
    if let Some(certs) = certified {
        if let Some(gap_list) = gaps {
            for (&p, gap) in to_probe.iter().zip(gap_list) {
                certs.record(p, gap);
            }
        }
        // A certificate is only meaningful next to its memoized probe.
        certs.retain(|p| entailed_by_pair.contains_key(&p));
    }

    // A pair that entails nothing has no mutual-entailment edge: it leaves
    // at once as a singleton message. The graph covers the rest.
    let mut messages: Vec<Vec<Pair>> = Vec::new();
    let mut linked: Vec<Pair> = Vec::new();
    for &p in &undecided {
        if entailed_by_pair.get(&p).is_none_or(Vec::is_empty) {
            if config.singleton_messages {
                messages.push(vec![p]);
            }
        } else {
            linked.push(p);
        }
    }

    // Mutual entailment edges → connected components (union-find on indices).
    let index: FxHashMap<Pair, usize> = linked.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let mut entails: Vec<Vec<usize>> = Vec::with_capacity(linked.len());
    for p in &linked {
        let mut entailed: Vec<usize> = entailed_by_pair[p]
            .iter()
            .filter_map(|q| index.get(q).copied())
            .collect();
        entailed.sort_unstable();
        entails.push(entailed);
    }

    let mut parent: Vec<usize> = (0..linked.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, entailed) in entails.iter().enumerate() {
        for &j in entailed {
            if j == i {
                continue;
            }
            // Edge requires entailment in both directions (Algorithm 2).
            if entails[j].binary_search(&i).is_ok() {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }

    let mut components: FxHashMap<usize, Vec<Pair>> = FxHashMap::default();
    for (i, &pair) in linked.iter().enumerate() {
        let root = find(&mut parent, i);
        components.entry(root).or_default().push(pair);
    }
    messages.extend(
        components
            .into_values()
            .filter(|m| config.singleton_messages || m.len() > 1),
    );
    for m in &mut messages {
        m.sort_unstable();
    }
    messages.sort_unstable();

    (
        messages,
        ProbeMemo {
            visited: true,
            from_bank: false,
            undecided,
            entailed: entailed_by_pair,
        },
    )
}

/// Algorithm 2: compute the maximal messages of one neighborhood,
/// probing every undecided pair (the non-incremental path).
///
/// `base` must be the matcher's output `E(C, M+)` for the same view and
/// evidence (passed in so MMP does not re-run it). Returns the connected
/// components of the mutual-entailment graph over the undecided candidate
/// pairs.
pub fn compute_maximal(
    matcher: &dyn ProbabilisticMatcher,
    view: &View<'_>,
    evidence: &Evidence,
    base: &PairSet,
    config: &MmpConfig,
    stats: &mut RunStats,
) -> Vec<Vec<Pair>> {
    compute_maximal_core(matcher, view, evidence, base, None, None, config, stats).0
}

/// Algorithm 2 with delta-driven probe invalidation: `dirty` is the set
/// of pairs that became positive evidence for this neighborhood since
/// `memo` was recorded; only undecided pairs in a ground-interaction
/// component touched by the delta (per `scorer`) are re-probed, the rest
/// replay from `memo`. The memo is consumed (replayed entailed sets are
/// moved into the returned one); callers keep the returned memo for the
/// next revisit.
#[allow(clippy::too_many_arguments)]
pub fn compute_maximal_incremental(
    matcher: &dyn ProbabilisticMatcher,
    view: &View<'_>,
    evidence: &Evidence,
    base: &PairSet,
    dirty: &PairSet,
    scorer: &dyn GlobalScorer,
    memo: ProbeMemo,
    config: &MmpConfig,
    stats: &mut RunStats,
) -> (Vec<Vec<Pair>>, ProbeMemo) {
    compute_maximal_core(
        matcher,
        view,
        evidence,
        base,
        Some((dirty, scorer, memo)),
        None,
        config,
        stats,
    )
}

/// [`compute_maximal_incremental`] with a score-gap certificate set in
/// play (see [`super::certificates`]): delta-touched pairs whose
/// certificate gap exceeds the delta's clause footprint (scaled by
/// [`MmpConfig::certificate_slack`]) replay instead of re-probing, and
/// freshly issued probes record new certificates through
/// [`crate::matcher::Matcher::probe_certificate`]. `certs` is updated in
/// place; callers keep it next to the returned memo for the next
/// revisit. With a matcher that yields no gap evidence (exact backends)
/// this is byte-identical to [`compute_maximal_incremental`].
#[allow(clippy::too_many_arguments)]
pub fn compute_maximal_certified(
    matcher: &dyn ProbabilisticMatcher,
    view: &View<'_>,
    evidence: &Evidence,
    base: &PairSet,
    dirty: &PairSet,
    scorer: &dyn GlobalScorer,
    memo: ProbeMemo,
    certs: &mut CertificateSet,
    config: &MmpConfig,
    stats: &mut RunStats,
) -> (Vec<Vec<Pair>>, ProbeMemo) {
    compute_maximal_core(
        matcher,
        view,
        evidence,
        base,
        Some((dirty, scorer, memo)),
        Some(certs),
        config,
        stats,
    )
}

/// Algorithm 3: run MMP over a cover.
#[deprecated(
    since = "0.1.0",
    note = "use the `em::Pipeline` front door (umbrella crate); `mmp_with_order` / `MmpDriver` are the engine hooks"
)]
pub fn mmp(
    matcher: &dyn ProbabilisticMatcher,
    dataset: &Dataset,
    cover: &Cover,
    evidence: &Evidence,
    config: &MmpConfig,
) -> MatchOutput {
    mmp_with_order(matcher, dataset, cover, evidence, config, None)
}

/// MMP with an explicit initial evaluation order (consistency tests).
/// A thin wrapper over [`super::MmpDriver`]: one driver spanning the
/// whole cover, run to quiescence once.
pub fn mmp_with_order(
    matcher: &dyn ProbabilisticMatcher,
    dataset: &Dataset,
    cover: &Cover,
    evidence: &Evidence,
    config: &MmpConfig,
    order: Option<&[NeighborhoodId]>,
) -> MatchOutput {
    let start = Instant::now();
    let scorer = matcher.global_scorer(dataset);
    let mut driver = match order {
        Some(order) => super::MmpDriver::with_order(dataset, cover, evidence, config, order),
        None => super::MmpDriver::new(dataset, cover, evidence, config),
    };
    driver.run(matcher, scorer.as_ref());
    driver.finish(start)
}

/// Mark dirty every stored message containing a pair that interacts with
/// one of `new_matches` (including messages containing the match itself:
/// its remaining members' delta changed too). No-op while the store is
/// empty, so SMP-like phases skip the scorer adjacency scan entirely.
pub fn mark_dirty_around(
    new_matches: &PairSet,
    scorer: &dyn GlobalScorer,
    store: &mut MessageStore,
    dirty: &mut Vec<Pair>,
) {
    if store.is_empty() {
        return;
    }
    for p in new_matches.iter() {
        if store.root_of(p).is_some() {
            dirty.push(p);
        }
        for q in scorer.affected_pairs(p) {
            if store.root_of(q).is_some() {
                dirty.push(q);
            }
        }
    }
}

/// Dirty-driven promotion: pop message handles until none qualify.
/// Promoting a message marks dirty everything its new matches interact
/// with, so the loop reaches the same fixpoint as a full scan —
/// `delta(M+, M)` can only change when a new match shares a ground term
/// with `M` (supermodularity), which is exactly what
/// [`GlobalScorer::affected_pairs`] reports. Promoted pairs are inserted
/// into `found` through the tracked mutator, so they land in the current
/// epoch's delta. Returns the promoted pairs.
pub fn promote_dirty(
    store: &mut MessageStore,
    scorer: &dyn GlobalScorer,
    found: &mut Evidence,
    dirty: &mut Vec<Pair>,
    stats: &mut RunStats,
) -> PairSet {
    let mut promoted = PairSet::new();
    while let Some(handle) = dirty.pop() {
        let Some(root) = store.root_of(handle) else {
            continue; // message already promoted or retired
        };
        let members = store.message(root).expect("root has members");
        let mut fresh: Vec<Pair> = members
            .iter()
            .copied()
            .filter(|p| !found.positive.contains(*p))
            .collect();
        if fresh.is_empty() {
            // Entirely subsumed by M+; retire it.
            store.remove_message(root);
            continue;
        }
        stats.score_delta_calls += 1;
        if scorer.delta(&found.positive, &fresh) >= Score::ZERO {
            store.remove_message(root);
            fresh.sort_unstable();
            let mut batch = PairSet::with_capacity(fresh.len());
            for p in fresh {
                found.insert_positive(p);
                promoted.insert(p);
                batch.insert(p);
            }
            stats.promotions += 1;
            mark_dirty_around(&batch, scorer, store, dirty);
        }
    }
    promoted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityId;
    use crate::testing::paper_example;

    fn run_mmp(
        matcher: &dyn ProbabilisticMatcher,
        ds: &Dataset,
        cover: &Cover,
        ev: &Evidence,
        config: &MmpConfig,
    ) -> MatchOutput {
        mmp_with_order(matcher, ds, cover, ev, config, None)
    }

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(EntityId(a), EntityId(b))
    }

    #[test]
    fn message_store_merges_overlaps() {
        let mut store = MessageStore::new();
        store.add_message(&[p(0, 1), p(2, 3)]);
        store.add_message(&[p(4, 5), p(6, 7)]);
        assert_eq!(store.len(), 2);
        // Overlaps both → all merge into one message (Prop. 3(ii)).
        store.add_message(&[p(2, 3), p(4, 5)]);
        assert_eq!(store.len(), 1);
        let root = store.roots()[0];
        let mut members = store.message(root).unwrap().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![p(0, 1), p(2, 3), p(4, 5), p(6, 7)]);
    }

    #[test]
    fn message_store_remove_clears_members() {
        let mut store = MessageStore::new();
        store.add_message(&[p(0, 1), p(2, 3)]);
        let root = store.roots()[0];
        let members = store.remove_message(root).unwrap();
        assert_eq!(members.len(), 2);
        assert!(store.is_empty());
        // Pairs are free to join new messages afterwards.
        store.add_message(&[p(0, 1)]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn message_store_dedups_within_message() {
        let mut store = MessageStore::new();
        store.add_message(&[p(0, 1), p(0, 1), p(2, 3)]);
        assert_eq!(store.len(), 1);
        let root = store.roots()[0];
        assert_eq!(store.message(root).unwrap().len(), 2);
    }

    #[test]
    fn empty_message_is_ignored() {
        let mut store = MessageStore::new();
        assert!(store.add_message(&[]).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn merge_closure_property_holds_for_chained_overlaps() {
        // Proposition 3(ii): the store must equal the closure (T ∪ TC)*
        // regardless of insertion order. Insert k two-pair messages that
        // chain through shared pairs, in several orders; the closure is
        // always one message holding every pair.
        let chain: Vec<[Pair; 2]> = (0..6u32)
            .map(|i| [p(2 * i, 2 * i + 1), p(2 * i + 2, 2 * i + 3)])
            .collect();
        let orders: Vec<Vec<usize>> = vec![
            (0..6).collect(),
            (0..6).rev().collect(),
            vec![0, 2, 4, 1, 3, 5], // merge islands, then bridge them
        ];
        for order in orders {
            let mut store = MessageStore::new();
            for &i in &order {
                store.add_message(&chain[i]);
            }
            assert_eq!(
                store.len(),
                1,
                "order {order:?} must close into one message"
            );
            let root = store.roots()[0];
            let mut members = store.message(root).unwrap().to_vec();
            members.sort_unstable();
            let mut expected: Vec<Pair> = (0..7u32).map(|i| p(2 * i, 2 * i + 1)).collect();
            expected.sort_unstable();
            assert_eq!(members, expected);
        }
    }

    #[test]
    fn path_compression_is_idempotent_and_consistent() {
        // Build a long union chain so find() exercises compression, then
        // check repeated root queries agree for every member — before and
        // after further merges.
        let mut store = MessageStore::new();
        for i in 0..10u32 {
            store.add_message(&[p(i, 100 + i), p(i + 1, 101 + i)]);
        }
        assert_eq!(store.len(), 1);
        let root = store.roots()[0];
        for i in 0..10u32 {
            let first = store.root_of(p(i, 100 + i));
            let second = store.root_of(p(i, 100 + i));
            assert_eq!(first, Some(root), "member {i} resolves to the root");
            assert_eq!(first, second, "resolution is idempotent");
        }
        // A later merge through an existing member keeps one root for all.
        store.add_message(&[p(5, 105), p(200, 201)]);
        let new_root = store.root_of(p(200, 201)).unwrap();
        for i in 0..10u32 {
            assert_eq!(store.root_of(p(i, 100 + i)), Some(new_root));
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn promotion_after_merge_preserves_membership() {
        // Regression: removing (= promoting) a message that was built from
        // several merges must return *every* transitive member exactly
        // once, and leave the store genuinely empty — stale parent
        // pointers must not resurrect pairs or panic later operations.
        let mut store = MessageStore::new();
        store.add_message(&[p(0, 1), p(2, 3)]);
        store.add_message(&[p(4, 5), p(6, 7)]);
        store.add_message(&[p(2, 3), p(4, 5)]); // bridges the two
        store.add_message(&[p(6, 7), p(8, 9)]); // extends the merged one
        assert_eq!(store.len(), 1);
        let root = store.root_of(p(8, 9)).unwrap();
        let mut members = store.remove_message(root).unwrap();
        members.sort_unstable();
        assert_eq!(
            members,
            vec![p(0, 1), p(2, 3), p(4, 5), p(6, 7), p(8, 9)],
            "promotion must carry every merged member"
        );
        assert!(store.is_empty());
        for pair in [p(0, 1), p(2, 3), p(4, 5), p(6, 7), p(8, 9)] {
            assert_eq!(store.root_of(pair), None, "{pair} must be fully retired");
        }
        // Retired pairs are free to seed fresh messages.
        store.add_message(&[p(2, 3), p(8, 9)]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.message(store.roots()[0]).unwrap().len(), 2);
    }

    #[test]
    fn drop_messages_touching_removes_whole_messages_in_place() {
        let mut store = MessageStore::new();
        store.add_message(&[p(0, 1), p(2, 3)]);
        store.add_message(&[p(4, 5), p(6, 7)]);
        store.add_message(&[p(8, 9)]);
        assert_eq!(store.len(), 3);
        // Drop the message holding (4,5); the others survive verbatim.
        let dropped = store.drop_messages_touching([p(4, 5)]);
        assert_eq!(dropped, 1);
        assert_eq!(store.len(), 2);
        assert!(store.root_of(p(4, 5)).is_none(), "fully retired");
        assert!(store.root_of(p(6, 7)).is_none(), "whole message gone");
        let surviving = store.root_of(p(0, 1)).expect("survivor");
        let mut members = store.message(surviving).unwrap().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![p(0, 1), p(2, 3)]);
        assert_eq!(store.validate(), Ok(3));
        // The pruned forest still merges correctly.
        store.add_message(&[p(2, 3), p(8, 9)]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.message(store.roots()[0]).unwrap().len(), 3);
        // Touching nothing (or only uncovered pairs) is a no-op; touching
        // every pair empties the store, each message counted once.
        assert_eq!(store.drop_messages_touching([]), 0);
        assert_eq!(store.drop_messages_touching([p(4, 5), p(20, 21)]), 0);
        assert_eq!(store.len(), 1);
        let all: Vec<Pair> = store.all_pairs().collect();
        assert_eq!(store.drop_messages_touching(all), 1);
        assert!(store.is_empty());
        assert_eq!(store.validate(), Ok(0));
    }

    /// Each message's members, sorted, in sorted order.
    fn message_sets(store: &MessageStore) -> Vec<Vec<Pair>> {
        let mut sets: Vec<Vec<Pair>> = store
            .roots()
            .into_iter()
            .map(|root| {
                let mut members = store.message(root).unwrap().to_vec();
                members.sort_unstable();
                members
            })
            .collect();
        sets.sort_unstable();
        sets
    }

    #[test]
    fn add_message_returns_a_root_only_when_the_store_changes() {
        let mut store = MessageStore::new();
        let first = store.add_message(&[p(0, 1), p(2, 3), p(4, 5)]);
        assert!(first.is_some(), "a new message changes the store");
        let second = store.add_message(&[p(8, 9)]);
        assert!(second.is_some());
        // A subset of one stored message, in any order, is a no-op.
        assert_eq!(store.add_message(&[p(4, 5), p(0, 1)]), None);
        assert_eq!(store.add_message(&[p(2, 3)]), None);
        assert_eq!(store.add_message(&[p(8, 9), p(8, 9)]), None);
        assert_eq!(store.len(), 2);
        // A new pair joining a stored message returns the merged root.
        let grown = store.add_message(&[p(2, 3), p(6, 7)]);
        assert_eq!(grown, store.root_of(p(0, 1)));
        assert!(grown.is_some());
        // A new pair leading the message changes the store too.
        let led = store.add_message(&[p(10, 11), p(8, 9)]);
        assert_eq!(led, store.root_of(p(8, 9)));
        assert!(led.is_some());
        assert_eq!(store.len(), 2);
        // A message bridging two stored ones returns the merged root.
        let bridged = store.add_message(&[p(6, 7), p(10, 11)]);
        assert!(bridged.is_some());
        assert_eq!(store.len(), 1);
        for pair in [p(0, 1), p(2, 3), p(4, 5), p(6, 7), p(8, 9), p(10, 11)] {
            assert_eq!(store.root_of(pair), bridged);
        }
        // Once bridged, the same pairs are a subset again.
        assert_eq!(store.add_message(&[p(0, 1), p(10, 11)]), None);
        assert_eq!(store.validate(), Ok(6));
    }

    #[test]
    fn drop_messages_touching_keeps_the_forest_after_subsumed_adds() {
        let mut store = MessageStore::new();
        store.add_message(&[p(0, 1), p(2, 3)]);
        store.add_message(&[p(4, 5)]);
        store.add_message(&[p(2, 3)]); // subsumed
        store.add_message(&[p(6, 7), p(4, 5)]); // grows
        store.add_message(&[p(4, 5), p(6, 7)]); // subsumed
        store.add_message(&[p(8, 9), p(10, 11)]);
        let before = message_sets(&store);
        let roots = store.roots();
        assert_eq!(store.drop_messages_touching([p(12, 13)]), 0);
        assert_eq!(message_sets(&store), before);
        assert_eq!(store.roots(), roots, "roots untouched");
        assert_eq!(store.validate(), Ok(6));
        // The untouched forest keeps the add contract.
        assert_eq!(store.add_message(&[p(6, 7)]), None);
        assert!(store.add_message(&[p(6, 7), p(8, 9)]).is_some());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn dropping_a_merged_message_leaves_survivors_unchanged() {
        let mut store = MessageStore::new();
        // A message built from three merges, and two bystanders (one
        // merged too, one a singleton).
        store.add_message(&[p(0, 1), p(2, 3)]);
        store.add_message(&[p(4, 5), p(6, 7)]);
        store.add_message(&[p(2, 3), p(4, 5)]);
        store.add_message(&[p(8, 9)]);
        store.add_message(&[p(10, 11), p(12, 13)]);
        store.add_message(&[p(14, 15), p(12, 13)]);
        store.add_message(&[p(16, 17)]);
        // Compress some chains so the forest is not freshly built.
        for pair in [p(6, 7), p(14, 15), p(8, 9)] {
            store.root_of(pair);
        }
        let doomed = store.root_of(p(4, 5)).unwrap();
        let survivors: Vec<(Pair, Vec<Pair>)> = store
            .roots()
            .into_iter()
            .filter(|&r| r != doomed)
            .map(|r| (r, store.message(r).unwrap().to_vec()))
            .collect();
        assert_eq!(survivors.len(), 3);
        // Two pairs of the same message: dropped once.
        assert_eq!(store.drop_messages_touching([p(6, 7), p(0, 1)]), 1);
        assert_eq!(store.validate(), Ok(5));
        let after: Vec<(Pair, Vec<Pair>)> = store
            .roots()
            .into_iter()
            .map(|r| (r, store.message(r).unwrap().to_vec()))
            .collect();
        assert_eq!(after, survivors, "same roots, same member order");
        for pair in [p(0, 1), p(2, 3), p(4, 5), p(6, 7)] {
            assert_eq!(store.root_of(pair), None, "{pair} left with its message");
        }
        for (root, members) in &survivors {
            for &m in members {
                assert_eq!(store.root_of(m), Some(*root));
            }
        }
    }

    #[test]
    fn memo_bank_invalidate_drops_touched_views() {
        use crate::dataset::{Dataset, SimLevel};
        use crate::entity::EntityId;
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        for _ in 0..4 {
            ds.entities.add_entity(ty);
        }
        ds.set_similar(p(0, 1), SimLevel(2));
        ds.set_similar(p(2, 3), SimLevel(1));
        let mut bank = MemoBank::new();
        bank.deposit(
            &ds.view([EntityId(0), EntityId(1)]),
            memo_with_entries(&[p(0, 1)]),
        );
        bank.deposit(
            &ds.view([EntityId(2), EntityId(3)]),
            memo_with_entries(&[p(2, 3)]),
        );
        assert_eq!(bank.len(), 2);
        let dropped = bank.invalidate(|members, pairs| {
            members.contains(&EntityId(0)) || pairs.iter().any(|&(q, _)| q == p(9, 10))
        });
        assert_eq!(dropped, 1);
        assert_eq!(bank.len(), 1);
        // The surviving entry still withdraws for its identical view.
        assert!(bank
            .withdraw(&ds.view([EntityId(2), EntityId(3)]))
            .is_some());
    }

    #[test]
    fn rekey_churned_survives_a_delta_that_shrinks_and_grows_one_view() {
        use crate::dataset::{Dataset, SimLevel};
        use crate::entity::EntityId;
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        for _ in 0..3 {
            ds.entities.add_entity(ty);
        }
        ds.set_similar(p(0, 1), SimLevel(2));
        ds.set_similar(p(0, 2), SimLevel(2));
        let mut bank = MemoBank::new();
        bank.deposit(
            &ds.view([EntityId(0), EntityId(1), EntityId(2)]),
            memo_with_entries(&[p(0, 1), p(0, 2)]),
        );

        // One delta: entity 2 retracted AND entity 3 added to the same
        // view. The rekey sees only the shrink half; the grow half
        // resolves at withdrawal through the entity floor.
        let gone: FxHashSet<EntityId> = [EntityId(2)].into_iter().collect();
        let invalid: PairSet = [p(0, 2)].into_iter().collect();
        assert_eq!(bank.rekey_churned(&gone, &[], &invalid), 1);

        ds.retract_similar(p(0, 2)).expect("asserted above");
        ds.entities.add_entity(ty);
        ds.set_similar(p(0, 3), SimLevel(2));
        let view = ds.view([EntityId(0), EntityId(1), EntityId(3)]);
        let (memo, identical) = bank
            .withdraw_grown(&view, 3)
            .expect("the rekeyed entry must withdraw for the churned view");
        assert!(!identical, "a churned view re-evaluates");
        assert!(
            memo.entailed.contains_key(&p(0, 1)),
            "the surviving probe replays"
        );
        assert!(
            !memo.entailed.contains_key(&p(0, 2)),
            "the dead probe re-issues"
        );
    }

    #[test]
    fn rekey_churned_rekeys_link_only_retraction_where_rekey_shrunk_cannot() {
        use crate::dataset::{Dataset, SimLevel};
        use crate::entity::EntityId;
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        for _ in 0..3 {
            ds.entities.add_entity(ty);
        }
        ds.set_similar(p(0, 1), SimLevel(3));
        ds.set_similar(p(1, 2), SimLevel(2));
        let mut bank = MemoBank::new();
        bank.deposit(
            &ds.view([EntityId(0), EntityId(1), EntityId(2)]),
            memo_with_entries(&[p(0, 1), p(1, 2)]),
        );

        // A delta retracting only the (0,1) candidate link: no entity is
        // gone, so the old rekey path cannot touch the entry...
        let invalid: PairSet = [p(0, 1)].into_iter().collect();
        let mut via_shrunk = bank.clone();
        assert_eq!(
            via_shrunk.rekey_shrunk(&FxHashSet::default(), &invalid),
            0,
            "rekey_shrunk misses link-only churn by construction"
        );
        // ...and the stale identity then mismatches the churned view,
        // silently dropping the memo.
        let mut churned = ds.clone();
        churned.retract_similar(p(0, 1)).expect("asserted above");
        assert!(via_shrunk
            .withdraw_grown(&churned.view([EntityId(0), EntityId(1), EntityId(2)]), 3)
            .is_none());

        // rekey_churned keeps the identity honest, so the memo survives.
        assert_eq!(
            bank.rekey_churned(&FxHashSet::default(), &[p(0, 1)], &invalid),
            1
        );
        let (memo, identical) = bank
            .withdraw_grown(&churned.view([EntityId(0), EntityId(1), EntityId(2)]), 3)
            .expect("identity stays honest after link retraction");
        assert!(!identical, "tainted entries re-evaluate");
        assert!(memo.entailed.contains_key(&p(1, 2)), "survivor replays");
        assert!(!memo.entailed.contains_key(&p(0, 1)), "retracted re-issues");
    }

    fn memo_with_entries(pairs: &[Pair]) -> ProbeMemo {
        ProbeMemo {
            visited: true,
            from_bank: false,
            undecided: pairs.to_vec(),
            entailed: pairs.iter().map(|&p| (p, Vec::new())).collect(),
        }
    }

    #[test]
    fn memo_pool_evicts_least_recently_used_first() {
        use crate::cover::NeighborhoodId;
        let mut stats = RunStats::default();
        let mut pool = MemoPool::new(3, 4);
        pool.put(
            NeighborhoodId(0),
            memo_with_entries(&[p(0, 1), p(2, 3)]),
            &mut stats,
        );
        pool.put(
            NeighborhoodId(1),
            memo_with_entries(&[p(4, 5), p(6, 7)]),
            &mut stats,
        );
        assert_eq!(pool.total_entries(), 4);
        assert_eq!(stats.memo_evictions, 0);
        // Overflow: neighborhood 0 is the least recently used, so its two
        // entries go; 1 and 2 stay.
        pool.put(NeighborhoodId(2), memo_with_entries(&[p(8, 9)]), &mut stats);
        assert_eq!(stats.memo_evictions, 2);
        assert_eq!(pool.total_entries(), 3);
        assert_eq!(pool.get(NeighborhoodId(0)).entries(), 0);
        assert!(!pool.get(NeighborhoodId(0)).is_visited(), "evicted whole");
        assert_eq!(pool.get(NeighborhoodId(1)).entries(), 2);
        assert_eq!(pool.get(NeighborhoodId(2)).entries(), 1);
        // take() releases capacity; putting back re-accounts it.
        let taken = pool.take(NeighborhoodId(1));
        assert_eq!(pool.total_entries(), 1);
        pool.put(NeighborhoodId(1), taken, &mut stats);
        assert_eq!(pool.total_entries(), 3);
        assert_eq!(stats.memo_evictions, 2, "no further evictions");
    }

    #[test]
    fn memo_pool_evicts_even_the_just_put_memo_when_alone_over_capacity() {
        use crate::cover::NeighborhoodId;
        let mut stats = RunStats::default();
        let mut pool = MemoPool::new(2, 1);
        pool.put(
            NeighborhoodId(0),
            memo_with_entries(&[p(0, 1), p(2, 3), p(4, 5)]),
            &mut stats,
        );
        // A single memo larger than the whole capacity cannot be kept:
        // the memory bound wins over the replay opportunity.
        assert_eq!(stats.memo_evictions, 3);
        assert_eq!(pool.total_entries(), 0);
    }

    #[test]
    fn bounded_memo_capacity_is_byte_identical_and_surfaces_evictions() {
        let (ds, cover, matcher, expected) = paper_example();
        let unbounded = run_mmp(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &MmpConfig::default(),
        );
        assert_eq!(unbounded.stats.memo_evictions, 0);
        let bounded = run_mmp(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &MmpConfig {
                memo_capacity: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            bounded.matches, expected,
            "eviction must not change outputs"
        );
        assert!(
            bounded.stats.memo_evictions > 0,
            "a one-entry capacity must evict on this workload"
        );
        assert!(
            bounded.stats.conditioned_probes >= unbounded.stats.conditioned_probes,
            "lost memos can only cost extra probes"
        );
    }

    #[test]
    fn incremental_mmp_matches_full_recompute_on_the_paper_example() {
        let (ds, cover, matcher, expected) = paper_example();
        let full_cfg = MmpConfig {
            incremental: false,
            ..Default::default()
        };
        let full = run_mmp(&matcher, &ds, &cover, &Evidence::none(), &full_cfg);
        let incr = run_mmp(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &MmpConfig::default(),
        );
        assert_eq!(full.matches, expected);
        assert_eq!(incr.matches, expected, "incremental must be byte-identical");
        assert!(
            incr.stats.conditioned_probes <= full.stats.conditioned_probes,
            "incremental issues no more probes ({} vs {})",
            incr.stats.conditioned_probes,
            full.stats.conditioned_probes
        );
        assert_eq!(full.stats.probes_replayed, 0);
    }

    #[test]
    fn replayed_probes_are_counted() {
        // Two disjoint components inside one neighborhood: re-activating
        // the neighborhood through one component must not re-probe the
        // other.
        let (ds, cover, matcher, _) = paper_example();
        let out = run_mmp(
            &matcher,
            &ds,
            &cover,
            &Evidence::none(),
            &MmpConfig::default(),
        );
        // The paper example revisits C1 after C2's (c1,c2) message; the
        // chain component re-probes but at least the bookkeeping holds.
        assert_eq!(
            out.stats.conditioned_probes + out.stats.probes_replayed,
            run_mmp(
                &matcher,
                &ds,
                &cover,
                &Evidence::none(),
                &MmpConfig {
                    incremental: false,
                    ..Default::default()
                }
            )
            .stats
            .conditioned_probes,
            "probes issued + replayed must equal the full-recompute count"
        );
    }
}
