//! Structural invariant checker for framework state, switchable on in
//! any backend.
//!
//! The message-passing schemes, the sharded runtime, and the session's
//! component-scoped rollback all maintain structural invariants that no
//! single assertion guards end to end: the probe ledger must balance,
//! no live structure may reference a tombstoned entity, the message
//! store's union-find must stay a partition, and the evidence epoch log
//! must replay to the evidence set at every fence. The
//! [`InvariantChecker`] makes those invariants executable: the soak
//! harness runs it after every update, the shard coordinator after
//! every epoch fence, and any backend can opt in via
//! `Pipeline::check_invariants(true)`.
//!
//! Checks are read-only (no path compression, no cache-counter bumps)
//! and return structured [`InvariantViolation`]s instead of panicking,
//! so a long soak reports every breakage rather than dying on the
//! first.

use crate::cache::PairCache;
use crate::cover::Cover;
use crate::dataset::Dataset;
use crate::entity::EntityId;
use crate::evidence::Evidence;
use crate::framework::{CertificateBank, MemoBank, MessageStore, RunStats};
use crate::hash::FxHashSet;
use crate::pair::Pair;

/// One failed invariant: which check tripped and a human-readable
/// description of the offending state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Stable name of the check that failed (e.g. `"probe-ledger"`).
    pub check: &'static str,
    /// What exactly diverged.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Outcome of one checker sweep: how many individual checks ran and
/// every violation they found.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Individual checks executed in the sweep.
    pub checks: u64,
    /// Violations found (empty in a healthy run).
    pub violations: Vec<InvariantViolation>,
}

impl InvariantReport {
    /// Whether the sweep found no violations.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold this sweep's counters into run statistics.
    pub fn record(&self, stats: &mut RunStats) {
        stats.invariant_checks += self.checks;
        stats.invariant_violations += self.violations.len() as u64;
    }
}

/// A read-only sweep over framework state, accumulating violations.
///
/// Construct one per sweep, call the `check_*` methods for whatever
/// state the caller owns, then [`InvariantChecker::finish`]:
///
/// ```
/// use em_core::evidence::Evidence;
/// use em_core::framework::invariants::InvariantChecker;
/// use em_core::testing::paper_example;
///
/// let (dataset, _, _, expected) = paper_example();
/// let evidence = Evidence::positive(expected);
/// let mut checker = InvariantChecker::new(&dataset);
/// checker.check_dataset();
/// checker.check_evidence(&evidence);
/// let report = checker.finish();
/// assert!(report.is_ok(), "{:?}", report.violations);
/// ```
#[derive(Debug)]
pub struct InvariantChecker<'a> {
    dataset: &'a Dataset,
    report: InvariantReport,
}

impl<'a> InvariantChecker<'a> {
    /// Start a sweep over state belonging to `dataset`.
    pub fn new(dataset: &'a Dataset) -> Self {
        Self {
            dataset,
            report: InvariantReport::default(),
        }
    }

    fn fail(&mut self, check: &'static str, detail: String) {
        self.report
            .violations
            .push(InvariantViolation { check, detail });
    }

    /// `true` when the pair has a tombstoned or out-of-range endpoint.
    fn dead_pair(&self, p: Pair) -> Option<crate::entity::EntityId> {
        [p.lo(), p.hi()]
            .into_iter()
            .find(|&e| !self.dataset.entities.is_live(e))
    }

    fn check_live_pairs(
        &mut self,
        check: &'static str,
        what: &str,
        pairs: impl IntoIterator<Item = Pair>,
    ) {
        self.report.checks += 1;
        for p in pairs {
            if let Some(e) = self.dead_pair(p) {
                self.fail(
                    check,
                    format!("{what} references pair {p} with dead entity {e:?}"),
                );
            }
        }
    }

    /// Tombstone consistency of the dataset itself: no candidate pair
    /// and no relation tuple may touch a retracted entity
    /// (`Dataset::retract_entity` is responsible for scrubbing both).
    pub fn check_dataset(&mut self) {
        let pairs: Vec<Pair> = self.dataset.candidate_pairs().map(|(p, _)| p).collect();
        self.check_live_pairs("tombstone-dataset", "candidate set", pairs);
        self.report.checks += 1;
        for rel in self.dataset.relations.ids() {
            for &(a, b) in self.dataset.relations.tuples(rel) {
                for e in [a, b] {
                    if !self.dataset.entities.is_live(e) {
                        self.fail(
                            "tombstone-dataset",
                            format!(
                                "relation {} tuple ({a:?}, {b:?}) references dead entity {e:?}",
                                self.dataset.relations.name(rel)
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Evidence-set invariants: `V+` and `V−` disjoint, no dead
    /// endpoints, and the epoch log replays exactly to the current
    /// positive set ([`Evidence::validate_log`]) — the MemoBank/Evidence
    /// epoch-agreement half of every fence check.
    pub fn check_evidence(&mut self, evidence: &Evidence) {
        self.report.checks += 1;
        if !evidence.positive.is_disjoint(&evidence.negative) {
            let overlap = evidence
                .positive
                .iter()
                .filter(|p| evidence.negative.contains(*p))
                .count();
            self.fail(
                "evidence-disjoint",
                format!("{overlap} pairs are both positive and negative evidence"),
            );
        }
        self.report.checks += 1;
        if let Err(msg) = evidence.validate_log() {
            self.fail("evidence-log", msg);
        }
        let positive: Vec<Pair> = evidence.positive.iter().collect();
        self.check_live_pairs("tombstone-evidence", "positive evidence", positive);
        let negative: Vec<Pair> = evidence.negative.iter().collect();
        self.check_live_pairs("tombstone-evidence", "negative evidence", negative);
    }

    /// Union-find closure of the message store
    /// ([`MessageStore::validate`]) plus tombstone consistency of every
    /// message pair.
    pub fn check_message_store(&mut self, store: &MessageStore) {
        self.report.checks += 1;
        if let Err(msg) = store.validate() {
            self.fail("store-union-find", msg);
        }
        let pairs: Vec<Pair> = store.all_pairs().collect();
        self.check_live_pairs("tombstone-store", "message store", pairs);
    }

    /// Tombstone consistency of every banked view: a memo keyed by a
    /// dead member, or whose candidate pairs touch one, would replay
    /// probes conditioned on structure that no longer exists.
    pub fn check_memo_bank(&mut self, bank: &MemoBank) {
        self.report.checks += 1;
        let mut dead: Vec<String> = Vec::new();
        let entities = &self.dataset.entities;
        bank.for_each_view(|members, pairs| {
            for &e in members {
                if !entities.is_live(e) {
                    dead.push(format!("banked view {members:?} has dead member {e:?}"));
                }
            }
            for &(p, _) in pairs {
                for e in [p.lo(), p.hi()] {
                    if !entities.is_live(e) {
                        dead.push(format!("banked pair {p} has dead endpoint {e:?}"));
                    }
                }
            }
        });
        for detail in dead {
            self.fail("tombstone-bank", detail);
        }
    }

    /// Bank bound: every banked memo and certificate entry is keyed by
    /// the member list of a view of `cover`, so the carried warm state
    /// holds at most one entry per neighborhood of the live cover.
    /// Holds right after a run — its withdrawal retired every entry no
    /// view claimed, and it banked only its own cover's views — but not
    /// between an update and the next run, when re-keyed entries still
    /// carry pre-re-block identities.
    pub fn check_bank_bound(&mut self, cover: &Cover, bank: &MemoBank, certs: &CertificateBank) {
        self.report.checks += 1;
        let views: FxHashSet<&[EntityId]> = cover.ids().map(|id| cover.members(id)).collect();
        let mut stray: Vec<String> = Vec::new();
        bank.for_each_view(|members, _| {
            if !views.contains(members) {
                stray.push(format!(
                    "banked memo of {members:?} matches no view of the cover"
                ));
            }
        });
        certs.for_each_entry(|members, _| {
            if !views.contains(members) {
                stray.push(format!(
                    "banked certificates of {members:?} match no view of the cover"
                ));
            }
        });
        for detail in stray {
            self.fail("bank-bound", detail);
        }
    }

    /// Tombstone consistency of a pair-keyed cache (e.g. the session's
    /// blocking-score cache). `label` names the cache in violations.
    pub fn check_pair_cache<V: Copy>(&mut self, label: &str, cache: &PairCache<V>) {
        let mut pairs = Vec::with_capacity(cache.len());
        cache.for_each_key(|p| pairs.push(p));
        self.check_live_pairs("tombstone-cache", label, pairs);
    }

    /// Probe-ledger balance: every matcher invocation is either a
    /// neighborhood evaluation or a conditioned probe, so
    /// `matcher_calls == neighborhoods_processed + conditioned_probes`
    /// exactly — for NO-MP/SMP (zero probes) and MMP alike, and for any
    /// [`RunStats::merge`] fold of stats that individually balance.
    pub fn check_probe_ledger(&mut self, stats: &RunStats) {
        self.report.checks += 1;
        let expected = stats.neighborhoods_processed + stats.conditioned_probes;
        if stats.matcher_calls != expected {
            self.fail(
                "probe-ledger",
                format!(
                    "matcher_calls = {} but neighborhoods_processed + conditioned_probes = {} + {} = {}",
                    stats.matcher_calls,
                    stats.neighborhoods_processed,
                    stats.conditioned_probes,
                    expected
                ),
            );
        }
    }

    /// Certificate-ledger balance: every certificate consulted during
    /// incremental replay either breached (forcing a re-probe) or elided
    /// its probe, so
    /// `certificates_checked == certificates_breached + probes_elided`
    /// exactly; and an elided probe replays its memoized result, so
    /// `probes_elided <= probes_replayed`. Holds for runs without
    /// certificates (all zeros) and for any [`RunStats::merge`] fold of
    /// stats that individually balance.
    pub fn check_certificate_ledger(&mut self, stats: &RunStats) {
        self.report.checks += 1;
        let expected = stats.certificates_breached + stats.probes_elided;
        if stats.certificates_checked != expected {
            self.fail(
                "certificate-ledger",
                format!(
                    "certificates_checked = {} but certificates_breached + probes_elided = {} + {} = {}",
                    stats.certificates_checked,
                    stats.certificates_breached,
                    stats.probes_elided,
                    expected
                ),
            );
        }
        self.report.checks += 1;
        if stats.probes_elided > stats.probes_replayed {
            self.fail(
                "certificate-ledger",
                format!(
                    "probes_elided = {} exceeds probes_replayed = {} (every elided probe must replay)",
                    stats.probes_elided, stats.probes_replayed
                ),
            );
        }
    }

    /// Warm-start floor sanity: every entity id below the floor must
    /// exist (the floor marks where "new since last fixpoint" begins,
    /// so it can never exceed the id space).
    pub fn check_entity_floor(&mut self, entity_floor: u32) {
        self.report.checks += 1;
        let len = self.dataset.entities.len() as u32;
        if entity_floor > len {
            self.fail(
                "entity-floor",
                format!("warm-start entity floor {entity_floor} exceeds id space {len}"),
            );
        }
    }

    /// End the sweep, returning its report.
    pub fn finish(self) -> InvariantReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SimLevel;
    use crate::framework::{CertificateSet, ProbeMemo};
    use crate::pair::PairSet;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(EntityId(a), EntityId(b))
    }

    fn small_world() -> Dataset {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("t");
        for _ in 0..4 {
            ds.entities.add_entity(ty);
        }
        let rel = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(rel, EntityId(0), EntityId(2));
        ds.set_similar(p(0, 1), SimLevel(2));
        ds.set_similar(p(2, 3), SimLevel(1));
        ds
    }

    #[test]
    fn healthy_state_passes_every_check() {
        let ds = small_world();
        let mut ev = Evidence::none();
        ev.insert_positive(p(0, 1));
        let mut store = MessageStore::new();
        store.add_message(&[p(2, 3)]);
        let stats = RunStats {
            matcher_calls: 7,
            neighborhoods_processed: 4,
            conditioned_probes: 3,
            certificates_checked: 5,
            certificates_breached: 2,
            probes_elided: 3,
            probes_replayed: 6,
            ..Default::default()
        };
        let mut checker = InvariantChecker::new(&ds);
        checker.check_dataset();
        checker.check_evidence(&ev);
        checker.check_message_store(&store);
        checker.check_probe_ledger(&stats);
        checker.check_certificate_ledger(&stats);
        checker.check_entity_floor(4);
        let report = checker.finish();
        assert!(report.is_ok(), "{:?}", report.violations);
        assert!(report.checks >= 5);
        let mut rs = RunStats::default();
        report.record(&mut rs);
        assert_eq!(rs.invariant_checks, report.checks);
        assert_eq!(rs.invariant_violations, 0);
    }

    #[test]
    fn dead_references_are_reported_everywhere() {
        let mut ds = small_world();
        // Tombstone entity 3 behind the dataset's back so stale
        // references survive for the checker to find.
        ds.entities.retract(EntityId(3));
        let mut ev = Evidence::none();
        ev.insert_positive(p(2, 3));
        let mut store = MessageStore::new();
        store.add_message(&[p(2, 3)]);
        let mut checker = InvariantChecker::new(&ds);
        checker.check_dataset(); // candidate pair (2,3) is now stale
        checker.check_evidence(&ev);
        checker.check_message_store(&store);
        let report = checker.finish();
        let checks: Vec<&str> = report.violations.iter().map(|v| v.check).collect();
        assert!(checks.contains(&"tombstone-dataset"), "{checks:?}");
        assert!(checks.contains(&"tombstone-evidence"), "{checks:?}");
        assert!(checks.contains(&"tombstone-store"), "{checks:?}");
    }

    #[test]
    fn unbalanced_ledger_and_overlapping_evidence_fail() {
        let ds = small_world();
        let stats = RunStats {
            matcher_calls: 5,
            neighborhoods_processed: 3,
            conditioned_probes: 1,
            ..Default::default()
        };
        let overlap: PairSet = [p(0, 1)].into_iter().collect();
        let ev = Evidence::from_parts(overlap.clone(), overlap);
        let mut checker = InvariantChecker::new(&ds);
        checker.check_probe_ledger(&stats);
        checker.check_evidence(&ev);
        checker.check_entity_floor(99);
        let report = checker.finish();
        let checks: Vec<&str> = report.violations.iter().map(|v| v.check).collect();
        assert!(checks.contains(&"probe-ledger"), "{checks:?}");
        assert!(checks.contains(&"evidence-disjoint"), "{checks:?}");
        assert!(checks.contains(&"entity-floor"), "{checks:?}");
        let shown = report.violations[0].to_string();
        assert!(shown.starts_with("[probe-ledger]"), "{shown}");
    }

    #[test]
    fn certificate_ledger_catches_both_imbalances() {
        let ds = small_world();
        // checked != breached + elided.
        let unbalanced = RunStats {
            certificates_checked: 4,
            certificates_breached: 1,
            probes_elided: 2,
            probes_replayed: 9,
            ..Default::default()
        };
        // elided probes without matching replays.
        let unreplayed = RunStats {
            certificates_checked: 3,
            certificates_breached: 0,
            probes_elided: 3,
            probes_replayed: 1,
            ..Default::default()
        };
        let mut checker = InvariantChecker::new(&ds);
        checker.check_certificate_ledger(&unbalanced);
        checker.check_certificate_ledger(&unreplayed);
        let report = checker.finish();
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report
            .violations
            .iter()
            .all(|v| v.check == "certificate-ledger"));
        assert!(report.violations[0].detail.contains("certificates_checked"));
        assert!(report.violations[1]
            .detail
            .contains("exceeds probes_replayed"));
    }

    #[test]
    fn pair_cache_check_sees_dead_keys() {
        let mut ds = small_world();
        let cache: PairCache<f64> = PairCache::new();
        cache.insert(p(0, 1), 0.9);
        cache.insert(p(2, 3), 0.4);
        ds.entities.retract(EntityId(1));
        let mut checker = InvariantChecker::new(&ds);
        checker.check_pair_cache("scores", &cache);
        let report = checker.finish();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].detail.contains("scores"));
    }

    #[test]
    fn bank_bound_flags_entries_no_view_claims() {
        let ds = small_world();
        let cover = Cover::from_neighborhoods(vec![
            vec![EntityId(0), EntityId(1)],
            vec![EntityId(2), EntityId(3)],
        ]);
        let mut bank = MemoBank::new();
        let mut certs = CertificateBank::new();
        let mut set = CertificateSet::new();
        set.record(p(0, 1), crate::matcher::Score::from_weight(1.0));
        for id in cover.ids() {
            bank.deposit(&cover.view(&ds, id), ProbeMemo::new());
        }
        certs.deposit(&cover.view(&ds, cover.ids().next().unwrap()), set.clone());
        let mut checker = InvariantChecker::new(&ds);
        checker.check_bank_bound(&cover, &bank, &certs);
        let report = checker.finish();
        assert!(report.is_ok(), "{:?}", report.violations);
        assert_eq!(report.checks, 1);

        // A memo and a certificate left under a view the cover no
        // longer has.
        bank.insert_raw(
            vec![EntityId(1), EntityId(2)],
            Vec::new(),
            ProbeMemo::new(),
            true,
        );
        certs.insert_raw(vec![EntityId(0), EntityId(3)], set);
        let mut checker = InvariantChecker::new(&ds);
        checker.check_bank_bound(&cover, &bank, &certs);
        let report = checker.finish();
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report.violations.iter().all(|v| v.check == "bank-bound"));
        assert!(report.violations[0].detail.contains("banked memo"));
        assert!(report.violations[1].detail.contains("banked certificates"));
    }
}
