//! Evidence sets `V+` / `V−` (Definition 1 of the paper), with epoch
//! tracking for delta-driven schedulers.
//!
//! A Type-I matcher takes, besides the entities, a set `V+` of pairs known
//! to be matches and a set `V−` of pairs known to be non-matches. The
//! framework drives matchers almost exclusively through `V+` (found matches
//! become positive evidence for later runs); `V−` is exposed for users who
//! have hard "cannot match" knowledge (e.g. hand-labelled non-matches).
//!
//! ## Epochs
//!
//! The message-passing schemes accumulate matches into one growing
//! `Evidence` value and only ever need to ask *"what changed since I last
//! looked?"* — re-deriving that from full snapshots is what made the
//! pre-epoch framework O(|V+|) per neighborhood *revisit*. (A first visit
//! needs the whole restriction of `V+` to its view; the framework reads
//! it from an entity-keyed index that catches up from this same log, so
//! that too costs the view's evidence degree, not |V+|.) Every positive pair
//! inserted through the tracked mutators ([`Evidence::insert_positive`],
//! [`Evidence::union_positive`], the constructors) is appended to an
//! insertion log stamped with the current [`Epoch`];
//! [`Evidence::advance_epoch`] fences the log and
//! [`Evidence::delta_since`] returns the pairs inserted at or after a
//! fence as a borrowed slice — no cloning, no set difference.
//!
//! The `positive` / `negative` sets remain `pub` for read access (every
//! matcher implementation reads them); mutating them *directly* bypasses
//! the log, so code that relies on `delta_since` must go through the
//! tracked mutators. The framework does.

use crate::pair::{Pair, PairSet};

/// A fence into an [`Evidence`] insertion log, returned by
/// [`Evidence::advance_epoch`]. Epoch 0 covers the initial evidence the
/// value was constructed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u32);

/// Positive and negative evidence for a matcher invocation.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// Pairs known to be matches.
    pub positive: PairSet,
    /// Pairs known to be non-matches.
    pub negative: PairSet,
    /// Whether insertions are logged (accumulators); untracked values
    /// (per-neighborhood snapshots, probe evidence) skip the log
    /// entirely.
    tracked: bool,
    /// Insertion log of `positive`, in tracked-insertion order.
    log: Vec<Pair>,
    /// `epoch_starts[e]` = length of `log` when epoch `e` began.
    epoch_starts: Vec<usize>,
    /// Retraction (tombstone) log of `positive`, in tracked-retraction
    /// order. Insertions stay in `log` even after a retraction; a
    /// consumer replaying an epoch window applies the window's
    /// insertions first, then its retractions (see
    /// [`Evidence::retractions_since`]).
    retract_log: Vec<Pair>,
    /// `retract_epoch_starts[e]` = length of `retract_log` when epoch
    /// `e` began.
    retract_epoch_starts: Vec<usize>,
}

impl Default for Evidence {
    fn default() -> Self {
        Self {
            positive: PairSet::new(),
            negative: PairSet::new(),
            tracked: true,
            log: Vec::new(),
            epoch_starts: vec![0],
            retract_log: Vec::new(),
            retract_epoch_starts: vec![0],
        }
    }
}

/// Equality is over the evidence *sets*; the epoch history is bookkeeping
/// and two evidences with the same sets are interchangeable for matchers.
impl PartialEq for Evidence {
    fn eq(&self, other: &Self) -> bool {
        self.positive == other.positive && self.negative == other.negative
    }
}

impl Eq for Evidence {}

impl Evidence {
    /// No evidence.
    pub fn none() -> Self {
        Self::default()
    }

    /// Only positive evidence.
    pub fn positive(positive: PairSet) -> Self {
        Self::from_parts(positive, PairSet::new())
    }

    /// Both evidence sets.
    ///
    /// # Panics
    /// Panics if the sets overlap — a pair cannot be both a known match and
    /// a known non-match.
    pub fn new(positive: PairSet, negative: PairSet) -> Self {
        assert!(
            positive.is_disjoint(&negative),
            "positive and negative evidence overlap"
        );
        Self::from_parts(positive, negative)
    }

    /// Both evidence sets, without the disjointness check, with epoch
    /// tracking. Used by the framework for the accumulating `M+`, where
    /// the invariant is maintained upstream and a misbehaving matcher
    /// must not panic the whole run.
    pub fn from_parts(positive: PairSet, negative: PairSet) -> Self {
        let mut log = positive.to_sorted_vec();
        log.shrink_to_fit();
        Self {
            positive,
            negative,
            tracked: true,
            log,
            epoch_starts: vec![0],
            retract_log: Vec::new(),
            retract_epoch_starts: vec![0],
        }
    }

    /// Both evidence sets **without epoch tracking**: no insertion log is
    /// kept and `delta_since` always returns an empty delta. The cheap
    /// constructor for read-mostly matcher inputs — per-neighborhood
    /// restrictions and conditioned-probe evidence — which are never
    /// delta-queried.
    pub fn untracked(positive: PairSet, negative: PairSet) -> Self {
        Self {
            positive,
            negative,
            tracked: false,
            log: Vec::new(),
            epoch_starts: vec![0],
            retract_log: Vec::new(),
            retract_epoch_starts: vec![0],
        }
    }

    /// Evidence with `extra` added to the positive set (used by
    /// `COMPUTEMAXIMAL`, which conditions on one extra hypothetical
    /// match). The result is untracked — it is matcher input, so the
    /// epoch log is not copied.
    pub fn with_extra_positive(&self, extra: Pair) -> Self {
        let mut positive = self.positive.clone();
        positive.insert(extra);
        Self::untracked(positive, self.negative.clone())
    }

    /// Whether both sets are empty.
    pub fn is_empty(&self) -> bool {
        self.positive.is_empty() && self.negative.is_empty()
    }

    /// The current epoch. Starts at 0; bumped by [`Evidence::advance_epoch`].
    pub fn epoch(&self) -> Epoch {
        Epoch((self.epoch_starts.len() - 1) as u32)
    }

    /// Fence the insertion log and begin a new epoch, returning it.
    /// Immediately after the fence, `delta_since(fence)` is empty; every
    /// pair inserted afterwards lands at or after the returned epoch.
    pub fn advance_epoch(&mut self) -> Epoch {
        self.epoch_starts.push(self.log.len());
        self.retract_epoch_starts.push(self.retract_log.len());
        Epoch((self.epoch_starts.len() - 1) as u32)
    }

    /// The pairs inserted at epoch `since` or later, in insertion order,
    /// as a borrowed slice of the log — the whole point of epochs is that
    /// consumers never clone or diff the full positive set. Epochs later
    /// than the current one yield an empty delta.
    pub fn delta_since(&self, since: Epoch) -> &[Pair] {
        match self.epoch_starts.get(since.0 as usize) {
            Some(&start) => &self.log[start..],
            None => &[],
        }
    }

    /// Insert a positive pair, recording it in the current epoch's log
    /// (untracked evidence just inserts). Returns `true` if the pair was
    /// new.
    pub fn insert_positive(&mut self, pair: Pair) -> bool {
        let new = self.positive.insert(pair);
        if new && self.tracked {
            self.log.push(pair);
        }
        new
    }

    /// Retract a positive pair, recording a tombstone in the current
    /// epoch's retraction log (untracked evidence just removes). The
    /// non-monotone mutator behind `DatasetDelta` rollback: sessions use
    /// it to withdraw caller-supplied evidence that mentions retracted
    /// entities. Returns `true` if the pair was present.
    ///
    /// The insertion log is *not* rewritten — earlier epochs keep the
    /// pair in their windows; consumers replaying history apply each
    /// window's insertions, then its retractions.
    pub fn retract_positive(&mut self, pair: Pair) -> bool {
        let removed = self.positive.remove(pair);
        if removed && self.tracked {
            self.retract_log.push(pair);
        }
        removed
    }

    /// Retract a negative pair. The negative set has no epoch log (no
    /// scheduler consumes negative deltas), so this is a plain removal.
    /// Returns `true` if the pair was present.
    pub fn retract_negative(&mut self, pair: Pair) -> bool {
        self.negative.remove(pair)
    }

    /// The pairs retracted at epoch `since` or later, in retraction
    /// order, as a borrowed slice of the tombstone log (the retraction
    /// counterpart of [`Evidence::delta_since`]). Epochs later than the
    /// current one yield an empty slice.
    pub fn retractions_since(&self, since: Epoch) -> &[Pair] {
        match self.retract_epoch_starts.get(since.0 as usize) {
            Some(&start) => &self.retract_log[start..],
            None => &[],
        }
    }

    /// Insert every pair of `other` into the positive set (new pairs are
    /// logged in sorted order so runs are reproducible regardless of the
    /// source set's iteration order). Returns the number of new pairs.
    pub fn union_positive(&mut self, other: &PairSet) -> usize {
        if !self.tracked {
            return self.positive.union_with(other);
        }
        let mut fresh: Vec<Pair> = other
            .iter()
            .filter(|p| !self.positive.contains(*p))
            .collect();
        fresh.sort_unstable();
        for &p in &fresh {
            self.positive.insert(p);
            self.log.push(p);
        }
        fresh.len()
    }

    /// Consume the evidence, returning the positive set (the framework's
    /// final `M+` extraction).
    pub fn into_positive(self) -> PairSet {
        self.positive
    }

    /// Whether insertions are logged (see the `tracked` field): `true`
    /// for accumulators, `false` for per-neighborhood snapshots and
    /// probe evidence.
    pub fn is_tracked(&self) -> bool {
        self.tracked
    }

    /// The raw epoch history, read-only: `(log, epoch_starts,
    /// retract_log, retract_epoch_starts)`. Durable-session capture
    /// persists these so a restored accumulator answers
    /// [`Evidence::delta_since`] / [`Evidence::retractions_since`]
    /// exactly like the live one; untracked evidence exposes empty logs.
    pub fn epoch_parts(&self) -> (&[Pair], &[usize], &[Pair], &[usize]) {
        (
            &self.log,
            &self.epoch_starts,
            &self.retract_log,
            &self.retract_epoch_starts,
        )
    }

    /// Reassemble tracked evidence from previously walked parts — the
    /// decode half of [`Evidence::epoch_parts`]. Unlike
    /// [`Evidence::from_parts`] the epoch history is restored verbatim
    /// instead of being reset to a single epoch-0 window.
    ///
    /// # Panics
    /// Panics if the supplied history does not replay to `positive`
    /// (the [`Evidence::validate_log`] invariant) or if either
    /// epoch-start list is empty.
    pub fn from_epoch_parts(
        positive: PairSet,
        negative: PairSet,
        log: Vec<Pair>,
        epoch_starts: Vec<usize>,
        retract_log: Vec<Pair>,
        retract_epoch_starts: Vec<usize>,
    ) -> Self {
        assert!(
            !epoch_starts.is_empty(),
            "epoch-start lists always hold at least the epoch-0 fence"
        );
        assert_eq!(
            epoch_starts.len(),
            retract_epoch_starts.len(),
            "insertion and retraction fences advance in lockstep"
        );
        let ev = Self {
            positive,
            negative,
            tracked: true,
            log,
            epoch_starts,
            retract_log,
            retract_epoch_starts,
        };
        if let Err(err) = ev.validate_log() {
            panic!("restored evidence history is inconsistent: {err}");
        }
        ev
    }

    /// Replay the epoch history and check that it reproduces the current
    /// positive set — the invariant every `delta_since` /
    /// `retractions_since` consumer silently relies on. Per epoch window
    /// the replay applies insertions first, then retractions (the
    /// documented consumer order). Returns the number of epochs replayed
    /// on success, or a description of the first divergence.
    ///
    /// Untracked evidence keeps no log and trivially validates (0 epochs).
    pub fn validate_log(&self) -> Result<usize, String> {
        if !self.tracked {
            return Ok(0);
        }
        let mut replayed = PairSet::new();
        let epochs = self.epoch_starts.len();
        for e in 0..epochs {
            let ins_start = self.epoch_starts[e];
            let ins_end = self
                .epoch_starts
                .get(e + 1)
                .copied()
                .unwrap_or(self.log.len());
            for &p in &self.log[ins_start..ins_end] {
                replayed.insert(p);
            }
            let ret_start = self.retract_epoch_starts[e];
            let ret_end = self
                .retract_epoch_starts
                .get(e + 1)
                .copied()
                .unwrap_or(self.retract_log.len());
            for &p in &self.retract_log[ret_start..ret_end] {
                replayed.remove(p);
            }
        }
        if replayed != self.positive {
            let missing = self
                .positive
                .iter()
                .filter(|p| !replayed.contains(*p))
                .count();
            let extra = replayed
                .iter()
                .filter(|p| !self.positive.contains(*p))
                .count();
            return Err(format!(
                "epoch log replay diverges from positive set: \
                 {missing} pairs missing from replay, {extra} extra"
            ));
        }
        Ok(epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityId;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(EntityId(a), EntityId(b))
    }

    #[test]
    fn constructors() {
        assert!(Evidence::none().is_empty());
        let ev = Evidence::positive([p(0, 1)].into_iter().collect());
        assert_eq!(ev.positive.len(), 1);
        assert!(ev.negative.is_empty());
        assert!(!ev.is_empty());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_evidence_panics() {
        let s: PairSet = [p(0, 1)].into_iter().collect();
        let _ = Evidence::new(s.clone(), s);
    }

    #[test]
    fn from_parts_skips_the_disjointness_check() {
        let s: PairSet = [p(0, 1)].into_iter().collect();
        let ev = Evidence::from_parts(s.clone(), s);
        assert_eq!(ev.positive, ev.negative);
    }

    #[test]
    fn with_extra_positive_does_not_mutate_original() {
        let ev = Evidence::positive([p(0, 1)].into_iter().collect());
        let ev2 = ev.with_extra_positive(p(2, 3));
        assert_eq!(ev.positive.len(), 1);
        assert_eq!(ev2.positive.len(), 2);
        assert!(ev2.positive.contains(p(2, 3)));
        assert_eq!(ev.negative, ev2.negative);
    }

    #[test]
    fn initial_evidence_lands_in_epoch_zero() {
        let ev = Evidence::positive([p(2, 3), p(0, 1)].into_iter().collect());
        assert_eq!(ev.epoch(), Epoch(0));
        // Sorted for reproducibility regardless of set iteration order.
        assert_eq!(ev.delta_since(Epoch(0)), &[p(0, 1), p(2, 3)]);
    }

    #[test]
    fn delta_is_empty_immediately_after_a_fence() {
        let mut ev = Evidence::positive([p(0, 1)].into_iter().collect());
        let fence = ev.advance_epoch();
        assert_eq!(fence, Epoch(1));
        assert!(ev.delta_since(fence).is_empty());
        // The pre-fence pair is still visible from epoch 0.
        assert_eq!(ev.delta_since(Epoch(0)), &[p(0, 1)]);
    }

    #[test]
    fn delta_merges_across_epochs() {
        let mut ev = Evidence::none();
        let e1 = ev.advance_epoch();
        ev.insert_positive(p(0, 1));
        let e2 = ev.advance_epoch();
        ev.insert_positive(p(2, 3));
        ev.insert_positive(p(4, 5));
        assert_eq!(ev.delta_since(e1), &[p(0, 1), p(2, 3), p(4, 5)]);
        assert_eq!(ev.delta_since(e2), &[p(2, 3), p(4, 5)]);
        assert_eq!(ev.epoch(), e2);
    }

    #[test]
    fn duplicate_inserts_are_not_logged_twice() {
        let mut ev = Evidence::none();
        assert!(ev.insert_positive(p(0, 1)));
        assert!(!ev.insert_positive(p(0, 1)));
        let other: PairSet = [p(0, 1), p(2, 3)].into_iter().collect();
        assert_eq!(ev.union_positive(&other), 1);
        assert_eq!(ev.delta_since(Epoch(0)), &[p(0, 1), p(2, 3)]);
        assert_eq!(ev.positive.len(), 2);
    }

    #[test]
    fn future_epochs_yield_empty_deltas() {
        let ev = Evidence::positive([p(0, 1)].into_iter().collect());
        assert!(ev.delta_since(Epoch(7)).is_empty());
    }

    #[test]
    fn untracked_evidence_keeps_no_log() {
        let mut ev = Evidence::untracked([p(0, 1)].into_iter().collect(), PairSet::new());
        ev.insert_positive(p(2, 3));
        let other: PairSet = [p(4, 5)].into_iter().collect();
        ev.union_positive(&other);
        assert_eq!(ev.positive.len(), 3);
        assert!(ev.delta_since(Epoch(0)).is_empty(), "no log is kept");
        // Probe evidence derived from a tracked accumulator is untracked.
        let tracked = Evidence::positive([p(0, 1)].into_iter().collect());
        let probe = tracked.with_extra_positive(p(8, 9));
        assert!(probe.positive.contains(p(8, 9)));
        assert!(probe.delta_since(Epoch(0)).is_empty());
    }

    #[test]
    fn retraction_tombstones_land_in_their_epoch() {
        let mut ev = Evidence::positive([p(0, 1), p(2, 3)].into_iter().collect());
        let fence = ev.advance_epoch();
        assert!(ev.retract_positive(p(0, 1)));
        assert!(!ev.retract_positive(p(0, 1)), "already gone");
        assert!(!ev.positive.contains(p(0, 1)));
        assert_eq!(ev.retractions_since(fence), &[p(0, 1)]);
        assert_eq!(ev.retractions_since(Epoch(0)), &[p(0, 1)]);
        // The insertion log keeps history; the next fence empties both.
        assert_eq!(ev.delta_since(Epoch(0)), &[p(0, 1), p(2, 3)]);
        let later = ev.advance_epoch();
        assert!(ev.retractions_since(later).is_empty());
        assert!(ev.retractions_since(Epoch(9)).is_empty());
        // Re-insertion after retraction logs a fresh insertion.
        assert!(ev.insert_positive(p(0, 1)));
        assert_eq!(ev.delta_since(later), &[p(0, 1)]);
    }

    #[test]
    fn negative_retraction_is_a_plain_removal() {
        let mut ev = Evidence::new(PairSet::new(), [p(4, 5)].into_iter().collect());
        assert!(ev.retract_negative(p(4, 5)));
        assert!(!ev.retract_negative(p(4, 5)));
        assert!(ev.negative.is_empty());
    }

    #[test]
    fn untracked_retractions_keep_no_log() {
        let mut ev = Evidence::untracked([p(0, 1)].into_iter().collect(), PairSet::new());
        assert!(ev.retract_positive(p(0, 1)));
        assert!(ev.retractions_since(Epoch(0)).is_empty());
    }

    #[test]
    fn validate_log_replays_insertions_and_retractions() {
        let mut ev = Evidence::positive([p(0, 1), p(2, 3)].into_iter().collect());
        ev.advance_epoch();
        ev.insert_positive(p(4, 5));
        ev.retract_positive(p(0, 1));
        ev.advance_epoch();
        ev.insert_positive(p(0, 1)); // re-insert after tombstone
        assert_eq!(ev.validate_log(), Ok(3));

        // Untracked values trivially validate.
        let untracked = Evidence::untracked([p(0, 1)].into_iter().collect(), PairSet::new());
        assert_eq!(untracked.validate_log(), Ok(0));

        // Direct mutation of `positive` bypasses the log and is caught.
        ev.positive.insert(p(8, 9));
        assert!(ev.validate_log().is_err());
    }

    #[test]
    fn equality_ignores_epoch_history() {
        let mut a = Evidence::none();
        a.insert_positive(p(0, 1));
        a.advance_epoch();
        a.insert_positive(p(2, 3));
        let b = Evidence::positive([p(0, 1), p(2, 3)].into_iter().collect());
        assert_eq!(a, b);
    }
}
