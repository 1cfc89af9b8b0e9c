//! NO-MP: independent neighborhood runs, no message passing.
//!
//! The paper's baseline (§6.1): the matcher runs once on every
//! neighborhood with only the user-provided evidence, and the outputs are
//! unioned. Sound for well-behaved matchers (each neighborhood run is a
//! restriction of the full run) but misses every cross-neighborhood
//! inference.

use super::RunStats;
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
    for id in cover.ids() {
        let matches = no_mp_evaluate(matcher, dataset, cover, id, evidence, &mut out.stats);
        out.matches.union_with(&matches);
    }
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

/// One NO-MP evaluation: `matcher` on neighborhood `id` against the
/// caller's `evidence` restricted to its view, counted into `stats`.
/// [`no_mp_baseline`] runs it over the whole cover; a shard runs it over
/// its members.
pub fn no_mp_evaluate(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    cover: &Cover,
    id: NeighborhoodId,
    evidence: &Evidence,
    stats: &mut RunStats,
) -> PairSet {
    let view = cover.view(dataset, id);
    let local_evidence = Evidence::untracked(
        view.restrict(&evidence.positive),
        view.restrict(&evidence.negative),
    );
    let undecided = view
        .candidate_pairs()
        .iter()
        .filter(|(p, _)| !local_evidence.positive.contains(*p))
        .count() as u64;
    let matches = matcher.match_view(&view, &local_evidence);
    stats.matcher_calls += 1;
    stats.neighborhoods_processed += 1;
    stats.active_pairs_evaluated += undecided;
    matches
}
