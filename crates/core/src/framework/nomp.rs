//! NO-MP: independent neighborhood runs, no message passing.
//!
//! The paper's baseline (§6.1): the matcher runs once on every
//! neighborhood with only the user-provided evidence, and the outputs are
//! unioned. Sound for well-behaved matchers (each neighborhood run is a
//! restriction of the full run) but misses every cross-neighborhood
//! inference.

use super::evidence_index::EvidenceIndex;
use super::{EvalTrace, RunStats};
use crate::cover::{Cover, NeighborhoodId};
use crate::dataset::Dataset;
use crate::evidence::Evidence;
use crate::matcher::{MatchOutput, Matcher};
use crate::pair::PairSet;
use std::time::Instant;

/// Run `matcher` independently on every neighborhood of `cover`.
///
/// Prefer the `em::Pipeline` front door (umbrella crate) with
/// `Scheme::NoMp`; this free function remains as its engine hook and as
/// a compatibility wrapper target.
#[deprecated(
    since = "0.1.0",
    note = "use the `em::Pipeline` front door (umbrella crate); `no_mp_baseline` is the engine hook"
)]
pub fn no_mp(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    cover: &Cover,
    evidence: &Evidence,
) -> MatchOutput {
    no_mp_baseline(matcher, dataset, cover, evidence)
}

/// The NO-MP engine: one matcher call per neighborhood, outputs unioned.
/// This is what [`no_mp`] always did; the plain name is deprecated in
/// favour of the `em::Pipeline` front door, which calls this hook.
pub fn no_mp_baseline(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    cover: &Cover,
    evidence: &Evidence,
) -> MatchOutput {
    let start = Instant::now();
    let mut out = MatchOutput::default();
    let ids: Vec<NeighborhoodId> = cover.ids().collect();
    (out.matches, _) = no_mp_evaluate(matcher, dataset, cover, &ids, evidence, &mut out.stats);
    // The matcher echoes positive evidence back per-view; keep the output
    // limited to real decisions plus the evidence the caller supplied.
    out.matches.union_with(&evidence.positive);
    let negative: PairSet = evidence.negative.iter().collect();
    for p in negative.iter() {
        out.matches.remove(p);
    }
    out.stats.wall_time = start.elapsed();
    out
}

/// NO-MP evaluations: `matcher` once on each neighborhood of `ids`
/// against the caller's `evidence` restricted to its view, counted into
/// `stats`. Returns the union of the outputs and each evaluation's cost.
/// [`no_mp_baseline`] runs it over the whole cover; a shard runs it over
/// its members.
///
/// The evidence is filed by entity once per call, so each view's local
/// evidence costs its members' evidence degree, not |evidence|.
pub fn no_mp_evaluate(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    cover: &Cover,
    ids: &[NeighborhoodId],
    evidence: &Evidence,
    stats: &mut RunStats,
) -> (PairSet, EvalTrace) {
    let by_entity = EvidenceIndex::new(evidence);
    let mut matches = PairSet::new();
    let mut trace = EvalTrace::with_capacity(ids.len());
    for &id in ids {
        let t0 = Instant::now();
        let view = cover.view(dataset, id);
        let local_evidence = by_entity.restrict(&view);
        let undecided = view
            .sorted_candidate_pairs()
            .iter()
            .filter(|(p, _)| !local_evidence.positive.contains(*p))
            .count() as u64;
        matches.union_with(&matcher.match_view(&view, &local_evidence));
        stats.matcher_calls += 1;
        stats.neighborhoods_processed += 1;
        stats.active_pairs_evaluated += undecided;
        trace.push((id, t0.elapsed()));
    }
    (matches, trace)
}
