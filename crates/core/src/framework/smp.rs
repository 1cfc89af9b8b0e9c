//! SMP — Simple Message Passing (Algorithm 1), delta-driven.
//!
//! The algorithm maintains the set `A` of active neighborhoods and the set
//! `M+` of matches found so far. Evaluating a neighborhood `C` runs the
//! matcher as `E(C, M+)`; any *new* matches reactivate every neighborhood
//! containing both endpoints of a new pair (those are the neighborhoods
//! whose inference can use the pair as evidence). Terminates when `A` is
//! empty.
//!
//! `M+` is an epoch-tracked [`Evidence`]: each evaluation fences the log,
//! inserts its new matches, and routes exactly the epoch delta through
//! the [`super::DependencyIndex`]-backed scheduler. Per-neighborhood
//! local evidence is cached and updated from the routed dirty pairs, so
//! a revisit costs O(|delta|) bookkeeping; a first visit reads the view
//! members' entries of an entity-keyed index of `M+`, O(their evidence
//! degree) rather than O(|M+|).
//!
//! For a well-behaved matcher SMP is sound, consistent, and runs in
//! `O(k² f(k) n)` (Theorems 2 and 3): a neighborhood of size `k` can be
//! reactivated at most `k²` times because each reactivation is caused by a
//! strict growth of `M+` inside `C × C`.

use crate::cover::{Cover, NeighborhoodId};
use crate::dataset::Dataset;
use crate::evidence::Evidence;
use crate::matcher::{MatchOutput, Matcher};
use std::time::Instant;

use super::SmpDriver;

/// Run SMP with the default (id-order) initial schedule.
///
/// Prefer the `em::Pipeline` front door (umbrella crate) with
/// `Scheme::Smp`, which owns the dependency index and evidence across
/// runs; this free function remains as a one-shot compatibility wrapper.
#[deprecated(
    since = "0.1.0",
    note = "use the `em::Pipeline` front door (umbrella crate); `smp_with_order` / `SmpDriver` are the engine hooks"
)]
pub fn smp(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    cover: &Cover,
    evidence: &Evidence,
) -> MatchOutput {
    smp_with_order(matcher, dataset, cover, evidence, None)
}

/// Run SMP with an explicit initial evaluation order (used by the
/// consistency tests; Theorem 2(3) says the output must not depend on
/// it). A thin wrapper over [`SmpDriver`]: one driver spanning the whole
/// cover, run to quiescence once.
pub fn smp_with_order(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    cover: &Cover,
    evidence: &Evidence,
    order: Option<&[NeighborhoodId]>,
) -> MatchOutput {
    let start = Instant::now();
    let mut driver = match order {
        Some(order) => SmpDriver::with_order(dataset, cover, evidence, order),
        None => SmpDriver::new(dataset, cover, evidence),
    };
    driver.run(matcher);
    driver.finish(start)
}
