//! Execution statistics for framework runs.

use std::time::Duration;

/// Counters collected during a framework run.
///
/// The interesting ones mirror the paper's cost model: `matcher_calls`
/// dominates total time (§6.2: "the total running time is dominated by the
/// sum of running times of MLN on all the neighborhoods; the actual
/// overhead of message passing is minimal"), and `active_pairs_evaluated`
/// explains why SMP/MMP can be *faster* than NO-MP — evidence shrinks the
/// active size of revisited neighborhoods. `conditioned_probes` vs
/// `probes_replayed` is the incremental-MMP ledger: probes whose
/// conditioning set provably did not change are replayed from the
/// per-neighborhood memo instead of re-running inference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Invocations of the black-box matcher (including `COMPUTEMAXIMAL`'s
    /// conditioned probes actually issued to the matcher).
    pub matcher_calls: u64,
    /// Neighborhood evaluations (≥ number of neighborhoods when revisits
    /// happen).
    pub neighborhoods_processed: u64,
    /// Sum over matcher calls of the number of *undecided* candidate pairs
    /// in the view — the "active size" the paper credits for SMP's speed.
    pub active_pairs_evaluated: u64,
    /// Simple messages passed (new matches that reactivated at least one
    /// neighborhood).
    pub messages_sent: u64,
    /// Maximal messages created by `COMPUTEMAXIMAL` (before merging).
    pub maximal_messages_created: u64,
    /// Maximal messages promoted to matches in step 7.
    pub promotions: u64,
    /// Global score-delta evaluations (MMP step 7 probes).
    pub score_delta_calls: u64,
    /// Conditioned probes issued to the matcher by `COMPUTEMAXIMAL`.
    pub conditioned_probes: u64,
    /// Conditioned probes answered without inference (incremental MMP):
    /// replayed from the per-neighborhood memo because the delta could
    /// not have changed them, or elided because the pair is a singleton
    /// ground-interaction component.
    pub probes_replayed: u64,
    /// Undecided pairs whose probe was elided because no undecided pair
    /// of the view interacts with them (singleton ground-interaction
    /// components, first visits included). A subset of
    /// `probes_replayed`.
    pub pairs_isolated: u64,
    /// Maximal messages whose add left the [`super::MessageStore`]
    /// unchanged: every pair already sat in one stored message, so the
    /// sender skipped the promotion re-check.
    pub messages_subsumed: u64,
    /// Score-gap certificates inspected because their pair sat in a
    /// delta-touched ground component (the `Approximate` arm; see
    /// [`super::certificates`]). Each check ends as exactly one of
    /// `certificates_breached` or `probes_elided`, so
    /// `certificates_checked == certificates_breached + probes_elided`
    /// — the certificate ledger the invariant sweep asserts.
    pub certificates_checked: u64,
    /// Certificates whose gap the delta footprint breached: the pair's
    /// memoized probe was discarded and the probe re-issued.
    pub certificates_breached: u64,
    /// Delta-touched probes elided because their certificate held: the
    /// memoized result replayed without re-running the matcher. A
    /// subset of `probes_replayed`.
    pub probes_elided: u64,
    /// Memoized probe entries dropped by the [`super::MemoPool`]'s LRU
    /// eviction (`MmpConfig::memo_capacity`); each evicted entry costs
    /// one extra conditioned probe on the neighborhood's next revisit.
    pub memo_evictions: u64,
    /// Parallel rounds executed (0 for sequential runs).
    pub rounds: u64,
    /// Ground-interaction components whose carried state a session
    /// rollback dropped before this run (`MatchSession::update` with
    /// retractions; 0 otherwise).
    pub components_invalidated: u64,
    /// Carried maximal messages dropped by that rollback.
    pub messages_dropped: u64,
    /// Banked probe memos dropped by that rollback.
    pub memos_dropped: u64,
    /// Banked probe memos retired unclaimed when this run withdrew its
    /// warm start: no view of the run's cover claimed them, because a
    /// re-block since the previous run reshuffled their view away
    /// (`WarmStart::withdraw`). 0 for cold runs.
    pub memos_retired: u64,
    /// Candidate pairs whose similarity the delta re-block re-scored
    /// (new pairs plus pairs whose canopy changed).
    pub pairs_reblocked: u64,
    /// Shard driver threads lost to a panic (injected or organic) that
    /// the epoch coordinator observed and survived.
    pub shard_panics: u64,
    /// Epoch-fence waits that exhausted their bounded timeout (each retry
    /// that expired counts once; a stalled shard typically accumulates
    /// several before being declared dead).
    pub fence_timeouts: u64,
    /// Dead or stalled shards whose epoch work the coordinator re-executed
    /// sequentially from the broadcast history (graceful degradation).
    pub shards_recovered: u64,
    /// Invariant-checker sweeps executed (per fence in the sharded
    /// runtime, per run/update at the session level).
    pub invariant_checks: u64,
    /// Invariant violations detected across those sweeps. Zero in any
    /// healthy run; a nonzero value means a structural bug, not a fault.
    pub invariant_violations: u64,
    /// Bytes of durable-session snapshots written (checkpoints) or
    /// loaded (recovery) since the previous run. Zero for sessions
    /// without an attached store.
    pub snapshot_bytes: u64,
    /// Write-ahead-log frames a recovery replayed to rebuild this
    /// session (each frame re-executes one journaled update, run, or
    /// warm reset).
    pub wal_frames_replayed: u64,
    /// Wall-clock milliseconds a recovery spent loading the snapshot
    /// and replaying the WAL tail.
    pub recovery_ms: u64,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
}

impl RunStats {
    /// Merge counters from another run. This is the **one** aggregation
    /// rule every backend uses — the sequential drivers and the sharded
    /// runtime combine per-driver stats through it: counters sum, wall
    /// time takes the max (drivers overlap), rounds take the max (drivers
    /// share the epoch loop).
    /// Backends that know the true wall time / round count of the whole
    /// run fix them up afterwards with [`RunStats::finalize`].
    ///
    /// ## Degraded-shard accounting
    ///
    /// When the shard coordinator recovers a dead shard by re-executing
    /// its epoch work inline, exactly one stats object per shard slot may
    /// enter this fold: the replacement's. A panicked driver's partial
    /// counters die with its thread (its `ShardOutcome` is never
    /// produced), and a *stalled* driver that eventually joins cleanly
    /// has its outcome **discarded** by the coordinator — merging both it
    /// and its replacement would double-count every neighborhood the two
    /// evaluated in common and break the probe ledger
    /// (`matcher_calls == neighborhoods_processed + conditioned_probes`),
    /// which holds for each surviving stats object individually and is
    /// therefore preserved by this sum.
    pub fn merge(&mut self, other: &RunStats) {
        self.matcher_calls += other.matcher_calls;
        self.neighborhoods_processed += other.neighborhoods_processed;
        self.active_pairs_evaluated += other.active_pairs_evaluated;
        self.messages_sent += other.messages_sent;
        self.maximal_messages_created += other.maximal_messages_created;
        self.promotions += other.promotions;
        self.score_delta_calls += other.score_delta_calls;
        self.conditioned_probes += other.conditioned_probes;
        self.probes_replayed += other.probes_replayed;
        self.pairs_isolated += other.pairs_isolated;
        self.messages_subsumed += other.messages_subsumed;
        self.certificates_checked += other.certificates_checked;
        self.certificates_breached += other.certificates_breached;
        self.probes_elided += other.probes_elided;
        self.memo_evictions += other.memo_evictions;
        self.components_invalidated += other.components_invalidated;
        self.messages_dropped += other.messages_dropped;
        self.memos_dropped += other.memos_dropped;
        self.memos_retired += other.memos_retired;
        self.pairs_reblocked += other.pairs_reblocked;
        self.shard_panics += other.shard_panics;
        self.fence_timeouts += other.fence_timeouts;
        self.shards_recovered += other.shards_recovered;
        self.invariant_checks += other.invariant_checks;
        self.invariant_violations += other.invariant_violations;
        self.snapshot_bytes += other.snapshot_bytes;
        self.wal_frames_replayed += other.wal_frames_replayed;
        self.recovery_ms += other.recovery_ms;
        self.rounds = self.rounds.max(other.rounds);
        self.wall_time = self.wall_time.max(other.wall_time);
    }

    /// Overwrite the run-level fields after a [`RunStats::merge`] fold:
    /// the coordinator (shard epoch loop, session)
    /// knows the real wall clock and round/epoch count; worker-side
    /// values were only placeholders.
    pub fn finalize(&mut self, wall_time: Duration, rounds: u64) {
        self.wall_time = wall_time;
        self.rounds = rounds;
    }
}

/// One-line human-readable summary, so examples and bench binaries stop
/// hand-formatting the same fields. Omits zero-valued MMP counters for
/// NO-MP/SMP runs.
impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} matcher calls | {} evaluations | {} active pairs | {} messages",
            self.matcher_calls,
            self.neighborhoods_processed,
            self.active_pairs_evaluated,
            self.messages_sent,
        )?;
        if self.conditioned_probes > 0 || self.probes_replayed > 0 {
            write!(
                f,
                " | {} probes ({} replayed)",
                self.conditioned_probes, self.probes_replayed
            )?;
        }
        if self.maximal_messages_created > 0 || self.promotions > 0 {
            write!(
                f,
                " | {} maximal messages, {} promoted",
                self.maximal_messages_created, self.promotions
            )?;
        }
        if self.pairs_isolated > 0 || self.messages_subsumed > 0 {
            write!(
                f,
                " | {} pairs isolated, {} messages subsumed",
                self.pairs_isolated, self.messages_subsumed
            )?;
        }
        if self.certificates_checked > 0 {
            write!(
                f,
                " | certificates: {} checked, {} breached, {} probes elided",
                self.certificates_checked, self.certificates_breached, self.probes_elided
            )?;
        }
        if self.memo_evictions > 0 {
            write!(f, " | {} memo evictions", self.memo_evictions)?;
        }
        if self.memos_retired > 0 {
            write!(f, " | {} memos retired", self.memos_retired)?;
        }
        if self.components_invalidated > 0
            || self.messages_dropped > 0
            || self.memos_dropped > 0
            || self.pairs_reblocked > 0
        {
            write!(
                f,
                " | rollback: {} components, {} messages, {} memos dropped, {} pairs re-blocked",
                self.components_invalidated,
                self.messages_dropped,
                self.memos_dropped,
                self.pairs_reblocked
            )?;
        }
        if self.shard_panics > 0 || self.fence_timeouts > 0 || self.shards_recovered > 0 {
            write!(
                f,
                " | faults: {} panics, {} fence timeouts, {} shards recovered",
                self.shard_panics, self.fence_timeouts, self.shards_recovered
            )?;
        }
        if self.invariant_checks > 0 || self.invariant_violations > 0 {
            write!(
                f,
                " | invariants: {} checks, {} violations",
                self.invariant_checks, self.invariant_violations
            )?;
        }
        if self.snapshot_bytes > 0 || self.wal_frames_replayed > 0 || self.recovery_ms > 0 {
            write!(
                f,
                " | store: {} snapshot bytes, {} frames replayed, {} ms recovery",
                self.snapshot_bytes, self.wal_frames_replayed, self.recovery_ms
            )?;
        }
        if self.rounds > 0 {
            write!(f, " | {} rounds", self.rounds)?;
        }
        write!(f, " | wall {:.1?}", self.wall_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_maxes_wall_time() {
        let mut a = RunStats {
            matcher_calls: 3,
            neighborhoods_processed: 2,
            active_pairs_evaluated: 10,
            messages_sent: 1,
            maximal_messages_created: 4,
            promotions: 1,
            score_delta_calls: 5,
            conditioned_probes: 2,
            probes_replayed: 1,
            pairs_isolated: 1,
            messages_subsumed: 4,
            memo_evictions: 0,
            rounds: 3,
            wall_time: Duration::from_millis(10),
            ..Default::default()
        };
        let b = RunStats {
            matcher_calls: 7,
            conditioned_probes: 5,
            probes_replayed: 2,
            pairs_isolated: 2,
            messages_subsumed: 1,
            rounds: 1,
            wall_time: Duration::from_millis(25),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.matcher_calls, 10);
        assert_eq!(a.neighborhoods_processed, 2);
        assert_eq!(a.conditioned_probes, 7);
        assert_eq!(a.probes_replayed, 3);
        assert_eq!(a.pairs_isolated, 3);
        assert_eq!(a.messages_subsumed, 5);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.wall_time, Duration::from_millis(25));
    }

    #[test]
    fn finalize_overwrites_run_level_fields_only() {
        let mut s = RunStats {
            matcher_calls: 9,
            rounds: 2,
            wall_time: Duration::from_millis(4),
            ..Default::default()
        };
        s.finalize(Duration::from_millis(100), 7);
        assert_eq!(s.matcher_calls, 9, "counters untouched");
        assert_eq!(s.rounds, 7);
        assert_eq!(s.wall_time, Duration::from_millis(100));
    }

    #[test]
    fn display_elides_zero_mmp_counters() {
        let smp_like = RunStats {
            matcher_calls: 5,
            neighborhoods_processed: 5,
            messages_sent: 2,
            ..Default::default()
        };
        let line = smp_like.to_string();
        assert!(line.contains("5 matcher calls"));
        assert!(!line.contains("probes"), "no probe clause for SMP: {line}");
        assert!(!line.contains("maximal"), "no MMP clause: {line}");
        assert!(!line.contains("isolated"), "no isolation clause: {line}");

        let mmp_like = RunStats {
            matcher_calls: 5,
            conditioned_probes: 3,
            probes_replayed: 1,
            pairs_isolated: 1,
            maximal_messages_created: 2,
            messages_subsumed: 1,
            promotions: 1,
            rounds: 4,
            ..Default::default()
        };
        let line = mmp_like.to_string();
        assert!(line.contains("3 probes (1 replayed)"), "{line}");
        assert!(line.contains("2 maximal messages, 1 promoted"), "{line}");
        assert!(
            line.contains("1 pairs isolated, 1 messages subsumed"),
            "{line}"
        );
        assert!(line.contains("4 rounds"), "{line}");
    }

    #[test]
    fn certificate_counters_merge_and_display() {
        let mut a = RunStats {
            certificates_checked: 4,
            certificates_breached: 1,
            probes_elided: 3,
            probes_replayed: 5,
            ..Default::default()
        };
        let b = RunStats {
            certificates_checked: 2,
            probes_elided: 2,
            probes_replayed: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.certificates_checked, 6);
        assert_eq!(a.certificates_breached, 1);
        assert_eq!(a.probes_elided, 5);
        // The certificate ledger survives the merge: every check ends as
        // a breach or an elision, and elisions replay.
        assert_eq!(
            a.certificates_checked,
            a.certificates_breached + a.probes_elided
        );
        assert!(a.probes_elided <= a.probes_replayed);
        let line = a.to_string();
        assert!(
            line.contains("certificates: 6 checked, 1 breached, 5 probes elided"),
            "{line}"
        );
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("certificates"), "{clean}");
    }

    #[test]
    fn memos_retired_merges_and_displays() {
        let mut a = RunStats {
            memos_retired: 4,
            memos_dropped: 1,
            ..Default::default()
        };
        let b = RunStats {
            memos_retired: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.memos_retired, 7);
        assert_eq!(a.memos_dropped, 1, "retirement is not a rollback drop");
        let line = a.to_string();
        assert!(line.contains(" | 7 memos retired"), "{line}");
        // finalize leaves the counter alone; cold runs print no clause.
        a.finalize(Duration::from_millis(2), 1);
        assert_eq!(a.memos_retired, 7);
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("retired"), "{clean}");
    }

    #[test]
    fn rollback_counters_merge_and_display() {
        let mut a = RunStats {
            components_invalidated: 2,
            messages_dropped: 5,
            memos_dropped: 3,
            pairs_reblocked: 40,
            ..Default::default()
        };
        let b = RunStats {
            components_invalidated: 1,
            pairs_reblocked: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.components_invalidated, 3);
        assert_eq!(a.pairs_reblocked, 42);
        let line = a.to_string();
        assert!(
            line.contains(
                "rollback: 3 components, 5 messages, 3 memos dropped, 42 pairs re-blocked"
            ),
            "{line}"
        );
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("rollback"), "{clean}");
    }

    #[test]
    fn fault_and_invariant_counters_merge_and_display() {
        let mut a = RunStats {
            shard_panics: 1,
            fence_timeouts: 2,
            shards_recovered: 1,
            invariant_checks: 10,
            ..Default::default()
        };
        let b = RunStats {
            fence_timeouts: 1,
            shards_recovered: 1,
            invariant_checks: 5,
            invariant_violations: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.shard_panics, 1);
        assert_eq!(a.fence_timeouts, 3);
        assert_eq!(a.shards_recovered, 2);
        assert_eq!(a.invariant_checks, 15);
        assert_eq!(a.invariant_violations, 1);
        let line = a.to_string();
        assert!(
            line.contains("faults: 1 panics, 3 fence timeouts, 2 shards recovered"),
            "{line}"
        );
        assert!(
            line.contains("invariants: 15 checks, 1 violations"),
            "{line}"
        );
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("faults"), "{clean}");
        assert!(!clean.contains("invariants"), "{clean}");
        // finalize must leave fault counters alone — they are counters,
        // not run-level fields.
        a.finalize(Duration::from_millis(1), 2);
        assert_eq!(a.shards_recovered, 2);
        assert_eq!(a.invariant_checks, 15);
    }

    #[test]
    fn store_counters_merge_finalize_and_display() {
        let mut a = RunStats {
            snapshot_bytes: 1024,
            wal_frames_replayed: 3,
            recovery_ms: 12,
            ..Default::default()
        };
        let b = RunStats {
            snapshot_bytes: 512,
            wal_frames_replayed: 2,
            recovery_ms: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.snapshot_bytes, 1536);
        assert_eq!(a.wal_frames_replayed, 5);
        assert_eq!(a.recovery_ms, 17);
        let line = a.to_string();
        assert!(
            line.contains("store: 1536 snapshot bytes, 5 frames replayed, 17 ms recovery"),
            "{line}"
        );
        // finalize touches only wall time / rounds, not store counters.
        a.finalize(Duration::from_millis(9), 1);
        assert_eq!(a.snapshot_bytes, 1536);
        assert_eq!(a.wal_frames_replayed, 5);
        // Sessions without a store print no store clause.
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("store"), "{clean}");
    }
}
