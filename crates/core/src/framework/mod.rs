//! The scaling framework (§5): run a black-box matcher per neighborhood and
//! exchange messages across neighborhoods.
//!
//! Three schemes, in increasing power:
//!
//! * [`no_mp`] — run the matcher once per neighborhood, union the outputs,
//!   exchange nothing (the paper's **NO-MP** baseline);
//! * [`smp`] — **Simple Message Passing** (Algorithm 1): found matches are
//!   positive evidence for subsequent runs, neighborhoods reactivate when
//!   new evidence arrives, until fixpoint;
//! * [`mmp`] — **Maximal Message Passing** (Algorithms 2 + 3): additionally
//!   exchanges *maximal messages* (all-or-nothing correlated match sets),
//!   promoting a message to real matches when it does not decrease the
//!   global probability. Requires a Type-II (probabilistic) matcher.
//!
//! For well-behaved matchers, SMP and MMP are *sound* (output ⊆ full-run
//! output), *consistent* (order-invariant), and linear in the number of
//! neighborhoods (Theorems 1–5).
//!
//! Both message-passing schemes run on an evidence-delta engine: the
//! accumulating `M+` is an epoch-tracked [`crate::Evidence`], a
//! [`DependencyIndex`] built once from the cover routes each delta pair
//! to exactly the neighborhoods that can use it, and MMP re-probes only
//! the conditioned probes the delta can have changed (see [`mmp`] and
//! [`compute_maximal_incremental`]).

pub mod certificates;
mod dependency;
mod engine;
mod evidence_index;
pub mod invariants;
mod mmp;
mod nomp;
mod smp;
mod stats;
mod worklist;

pub use certificates::{CertificateBank, CertificatePool, CertificateSet};
pub use dependency::DependencyIndex;
pub use engine::{EvalTrace, MmpDriver, SmpDriver};
pub use invariants::{InvariantChecker, InvariantReport, InvariantViolation};
#[allow(deprecated)]
pub use mmp::mmp;
pub use mmp::{
    compute_maximal, compute_maximal_certified, compute_maximal_incremental, mark_dirty_around,
    mmp_with_order, promote_dirty, MemoBank, MemoPool, MessageStore, MmpConfig, ProbeMemo,
    WarmSeed, WarmStart, DEFAULT_CERTIFICATE_SLACK,
};
#[allow(deprecated)]
pub use nomp::no_mp;
pub use nomp::{no_mp_baseline, no_mp_evaluate};
#[allow(deprecated)]
pub use smp::smp;
pub use smp::smp_with_order;
pub use stats::RunStats;
pub(crate) use worklist::Worklist;
