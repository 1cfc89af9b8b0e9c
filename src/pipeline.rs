//! The front door: a typed [`Pipeline`] builder producing a resumable
//! [`MatchSession`].
//!
//! The framework is one abstraction — run a black-box matcher on a
//! cover, pass messages — with one engine underneath: the delta-driven
//! [`SmpDriver`]/[`MmpDriver`], run either inline on the calling thread
//! or as one driver per shard of the epoch-fenced `em-shard` runtime.
//! This module puts the wiring (feature cache → blocking → cover →
//! matcher → engine) behind a single builder:
//!
//! ```text
//! Pipeline::new(dataset)
//!     .blocking(BlockingConfig)      // or .cover(prebuilt_total_cover)
//!     .matcher(MatcherChoice)        // MLN (exact | walksat), RULES, custom
//!     .scheme(Scheme)                // NoMp | Smp | Mmp
//!     .backend(Backend)              // Sequential | Sharded
//!     .incremental(bool)             // MMP probe replay
//!     .memo_capacity(usize)          // probe-memo LRU bound
//!     .build()?                      // validates → MatchSession
//! ```
//!
//! [`Pipeline::build`] validates the combination (every incoherent combo
//! is a typed [`PipelineError`]) and pays the per-dataset costs once:
//! feature interning, blocking, the [`DependencyIndex`], and — for the
//! sharded backend — the [`ShardPlan`]. The resulting session owns that
//! state across runs, which is what makes two things natural that the
//! one-shot surfaces could not express:
//!
//! * **warm starts across live mutation** — [`MatchSession::update`]
//!   ingests a bidirectional [`DatasetDelta`] (additions *and*
//!   retractions), re-blocks only the affected region (incremental
//!   feature interning, canopy-memo replay, delta-only pair scoring),
//!   rolls back exactly the carried state the retractions invalidate
//!   (component-scoped: see the rollback notes on `update`), and the
//!   next [`MatchSession::run`] seeds the matcher with the surviving
//!   fixpoint, so MMP's conditioned probes collapse to what the delta
//!   can actually change. For exact supermodular matchers the result is
//!   byte-identical to a cold run over the edited dataset (gated in
//!   CI). The append-only [`MatchSession::extend`] /
//!   [`DatasetGrowth`] surface is a deprecated thin wrapper over it;
//! * **measured-cost re-planning** — a sharded session feeds each run's
//!   measured per-neighborhood busy times back into the LPT balancer
//!   ([`ShardPlan::replan_from`]), so the second run is balanced by what
//!   the matcher actually cost instead of an estimate (after a churned
//!   re-block, the plan is repaired from estimates first —
//!   [`ShardPlan::repair`] — because neighborhood ids do not survive).

use crate::delta::DatasetDelta;
use crate::growth::DatasetGrowth;
use em_blocking::{
    block_dataset_churn, block_dataset_session, BlockingConfig, CanopyMemo, SimilarityKernel,
};
use em_core::framework::{
    no_mp_baseline, InvariantChecker, InvariantReport, MmpConfig, MmpDriver, RunStats, SmpDriver,
    WarmStart,
};
use em_core::hash::{FxHashMap, FxHashSet};
use em_core::{
    Cover, Dataset, DependencyIndex, EntityId, Evidence, GlobalScorer, MatchOutput, Matcher, Pair,
    PairCache, PairSet, ProbabilisticMatcher, SimLevel,
};
use em_mln::{InferenceBackend, LocalSearchParams, MlnMatcher, MlnModel};
use em_rules::{paper_rules, RulesMatcher};
use em_shard::{
    estimate_costs, shard_mmp_planned_opts, shard_no_mp_planned_opts, shard_smp_planned_opts,
    ShardPlan, ShardReport,
};
use em_similarity::{FeatureCache, FeatureConfig};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::store::{SessionStore, SessionStoreError, FRAME_DELTA, FRAME_RESET, FRAME_RUN};

pub use em_shard::{FaultKind, FaultPlan, RuntimeOptions, SplitPolicy};

/// Which message-passing scheme a session runs (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// Independent neighborhood runs, no messages (the NO-MP baseline).
    NoMp,
    /// Simple message passing (Algorithm 1).
    Smp,
    /// Maximal message passing (Algorithms 2 + 3); needs a
    /// probabilistic matcher.
    #[default]
    Mmp,
}

/// Which execution backend drives the scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One delta-driven driver on the calling thread.
    #[default]
    Sequential,
    /// The epoch-fenced sharded runtime (`em-shard`): one driver thread
    /// per shard, evidence exchanged at epoch fences — the paper's
    /// parallel scheme (§6.3).
    Sharded {
        /// Shard count (one driver thread each).
        shards: usize,
        /// What to do with evidence components too big to balance.
        split_policy: SplitPolicy,
    },
}

/// Which matcher the session runs.
///
/// The named variants are the paper's matchers, instantiated against the
/// session's dataset at [`Pipeline::build`] (both require a `coauthor`
/// relation). The `Custom*` variants accept any black-box matcher; the
/// builder cannot see their inference properties, so whether incremental
/// replay is sound for them is the caller's responsibility (a custom
/// matcher that returns no [`Matcher::probe_certificate`] evidence gets
/// the conservative re-probe-everything-touched behaviour).
#[derive(Clone, Default)]
pub enum MatcherChoice {
    /// The paper's MLN matcher (Appendix B weights) with exact min-cut
    /// inference.
    #[default]
    MlnExact,
    /// The MLN matcher with the MaxWalkSAT-style local-search backend
    /// (what Alchemy runs). Approximate: probe results are not
    /// component-factorizable, so incremental MMP runs under the
    /// score-gap certificate gate instead of sound replay — delta-touched
    /// probes replay only while their recorded gap exceeds the delta's
    /// clause footprint (see `em_core::framework::certificates` and
    /// [`Pipeline::certificate_slack`]). An infinite slack degrades to
    /// probe-everything.
    MlnWalksat,
    /// The paper's RULES matcher (Appendix C) with final transitive
    /// closure. Type-I: supports NO-MP and SMP only.
    Rules,
    /// Any Type-I matcher.
    Custom(Arc<dyn Matcher + Send + Sync>),
    /// Any Type-II (probabilistic) matcher.
    CustomProbabilistic(Arc<dyn ProbabilisticMatcher + Send + Sync>),
}

impl MatcherChoice {
    /// Wrap a concrete Type-I matcher.
    pub fn custom<M: Matcher + Send + Sync + 'static>(matcher: M) -> Self {
        MatcherChoice::Custom(Arc::new(matcher))
    }

    /// Wrap a concrete Type-II matcher.
    pub fn custom_probabilistic<M: ProbabilisticMatcher + Send + Sync + 'static>(
        matcher: M,
    ) -> Self {
        MatcherChoice::CustomProbabilistic(Arc::new(matcher))
    }

    fn label(&self) -> &'static str {
        match self {
            MatcherChoice::MlnExact => "mln-exact",
            MatcherChoice::MlnWalksat => "mln-walksat",
            MatcherChoice::Rules => "rules",
            MatcherChoice::Custom(_) => "custom",
            MatcherChoice::CustomProbabilistic(_) => "custom-probabilistic",
        }
    }
}

impl fmt::Debug for MatcherChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a [`Pipeline`] cannot be built.
#[derive(Debug)]
pub enum PipelineError {
    /// [`Scheme::Mmp`] with a Type-I matcher: maximal messages need
    /// conditioned probes and a global score, which only a
    /// [`ProbabilisticMatcher`] provides.
    MmpNeedsProbabilistic {
        /// The offending matcher choice.
        matcher: &'static str,
    },
    /// [`Backend::Sharded`] with zero shards.
    ZeroShards,
    /// A probe-memo capacity of zero can hold nothing; use
    /// `usize::MAX` for "unbounded" (the default).
    ZeroMemoCapacity,
    /// A named matcher needs a relation the dataset does not declare
    /// (the paper's MLN and RULES matchers ground over `coauthor`).
    MissingRelation {
        /// The missing relation name.
        relation: String,
    },
    /// A caller-provided cover failed total-cover validation against the
    /// dataset (Definition 7: some tuple or candidate pair is contained
    /// in no neighborhood).
    InvalidCover(em_core::Error),
    /// Creating or recovering the session's durable store
    /// ([`Pipeline::store`]) failed.
    Store(Box<SessionStoreError>),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MmpNeedsProbabilistic { matcher } => write!(
                f,
                "Scheme::Mmp needs a probabilistic (Type-II) matcher; {matcher} is Type-I"
            ),
            PipelineError::ZeroShards => write!(f, "Backend::Sharded needs at least one shard"),
            PipelineError::ZeroMemoCapacity => write!(
                f,
                "memo_capacity 0 can hold nothing; use usize::MAX for unbounded"
            ),
            PipelineError::MissingRelation { relation } => write!(
                f,
                "the chosen matcher grounds over the {relation:?} relation, which the \
                 dataset does not declare"
            ),
            PipelineError::InvalidCover(e) => write!(f, "provided cover is not total: {e}"),
            PipelineError::Store(e) => write!(f, "durable session store: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The session's matcher, instantiated at build time.
pub(crate) enum SessionMatcher {
    Mln(MlnMatcher),
    Rules(RulesMatcher),
    Custom(Arc<dyn Matcher + Send + Sync>),
    CustomProb(Arc<dyn ProbabilisticMatcher + Send + Sync>),
}

/// Instantiate a [`MatcherChoice`] against a dataset. Shared by
/// [`Pipeline::build`] and the store's recovery path (a recovered
/// session re-instantiates its matcher from the builder's configuration
/// — matchers are pure functions of their model, so nothing about them
/// needs persisting).
pub(crate) fn instantiate_matcher(
    matcher: MatcherChoice,
    dataset: &Dataset,
) -> Result<SessionMatcher, PipelineError> {
    Ok(match matcher {
        MatcherChoice::MlnExact | MatcherChoice::MlnWalksat => {
            let coauthor = dataset.relations.relation_id("coauthor").ok_or_else(|| {
                PipelineError::MissingRelation {
                    relation: "coauthor".to_owned(),
                }
            })?;
            let model = MlnModel::paper_model(coauthor);
            SessionMatcher::Mln(match matcher {
                MatcherChoice::MlnWalksat => MlnMatcher::with_backend(
                    model,
                    InferenceBackend::LocalSearch(LocalSearchParams::default()),
                ),
                _ => MlnMatcher::new(model),
            })
        }
        MatcherChoice::Rules => {
            SessionMatcher::Rules(RulesMatcher::new(paper_rules()).with_transitive_closure(true))
        }
        MatcherChoice::Custom(m) => SessionMatcher::Custom(m),
        MatcherChoice::CustomProbabilistic(m) => SessionMatcher::CustomProb(m),
    })
}

impl SessionMatcher {
    fn as_matcher(&self) -> &(dyn Matcher + Sync) {
        match self {
            SessionMatcher::Mln(m) => m,
            SessionMatcher::Rules(m) => m,
            SessionMatcher::Custom(m) => &**m,
            SessionMatcher::CustomProb(m) => &**m,
        }
    }

    fn as_probabilistic(&self) -> Option<&(dyn ProbabilisticMatcher + Sync)> {
        match self {
            SessionMatcher::Mln(m) => Some(m),
            SessionMatcher::CustomProb(m) => Some(&**m),
            SessionMatcher::Rules(_) | SessionMatcher::Custom(_) => None,
        }
    }
}

/// Typed builder for a [`MatchSession`]. See the [module docs](self)
/// for the shape; every method is cheap — all real work happens in
/// [`Pipeline::build`].
#[derive(Debug)]
pub struct Pipeline {
    pub(crate) dataset: Dataset,
    pub(crate) blocking: BlockingConfig,
    pub(crate) cover: Option<Cover>,
    pub(crate) features: Option<FeatureCache>,
    pub(crate) matcher: MatcherChoice,
    pub(crate) scheme: Scheme,
    pub(crate) backend: Backend,
    pub(crate) incremental: bool,
    pub(crate) memo_capacity: usize,
    pub(crate) certificate_slack: f64,
    pub(crate) rollback_budget: usize,
    pub(crate) evidence: Evidence,
    pub(crate) runtime: RuntimeOptions,
    pub(crate) check_invariants: bool,
    pub(crate) store_dir: Option<PathBuf>,
}

impl Pipeline {
    /// Start a pipeline over `dataset`. The dataset needs no similarity
    /// annotations — [`Pipeline::build`] runs the blocking pipeline —
    /// unless a pre-built cover is supplied with [`Pipeline::cover`].
    pub fn new(dataset: Dataset) -> Self {
        Self {
            dataset,
            blocking: BlockingConfig::default(),
            cover: None,
            features: None,
            matcher: MatcherChoice::default(),
            scheme: Scheme::default(),
            backend: Backend::default(),
            incremental: true,
            memo_capacity: usize::MAX,
            certificate_slack: em_core::framework::DEFAULT_CERTIFICATE_SLACK,
            rollback_budget: usize::MAX,
            evidence: Evidence::none(),
            runtime: RuntimeOptions::default(),
            check_invariants: false,
            store_dir: None,
        }
    }

    /// Make the session durable under `dir`: [`Pipeline::build`] writes
    /// a versioned snapshot there and journals every subsequent
    /// [`MatchSession::update`] / [`MatchSession::run`] /
    /// [`MatchSession::reset_warm`] to an append-only write-ahead log
    /// *before* applying it (fsync-on-commit), so the session survives
    /// a crash at any point. If `dir` already holds a session — written
    /// by this process or another — `build()` **recovers** it instead
    /// of building fresh: the snapshot is loaded and the WAL tail
    /// replayed, yielding a session byte-identical to the one that
    /// wrote it (the builder's dataset and evidence are ignored on that
    /// path; its configuration must match the original). See
    /// [`crate::store`].
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Configure the blocking pipeline (canopies → similarity annotation
    /// → total cover) that [`Pipeline::build`] runs. Ignored when a
    /// cover is supplied with [`Pipeline::cover`].
    pub fn blocking(mut self, config: BlockingConfig) -> Self {
        self.blocking = config;
        self
    }

    /// Use a pre-built total cover instead of running blocking. The
    /// dataset must already carry its candidate-pair annotations; the
    /// cover is validated (Definition 7) at build time. Sessions built
    /// this way manage no blocking state, so they cannot
    /// [`MatchSession::extend`].
    pub fn cover(mut self, cover: Cover) -> Self {
        self.cover = Some(cover);
        self
    }

    /// Reuse a pre-built [`FeatureCache`] (e.g. the one `em-datagen`
    /// interns at render time) instead of re-tokenizing the corpus at
    /// build time. Ignored if its n-gram size disagrees with the
    /// blocking configuration.
    pub fn features(mut self, features: FeatureCache) -> Self {
        self.features = Some(features);
        self
    }

    /// Choose the matcher (default: the paper's MLN with exact
    /// inference).
    pub fn matcher(mut self, matcher: MatcherChoice) -> Self {
        self.matcher = matcher;
        self
    }

    /// Choose the message-passing scheme (default: [`Scheme::Mmp`]).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Choose the execution backend (default: [`Backend::Sequential`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Toggle incremental MMP probe replay (default on; see
    /// [`MmpConfig::incremental`]). Sound (byte-identical) for exact
    /// matchers; for approximate inference
    /// ([`MatcherChoice::MlnWalksat`]) replay runs under the score-gap
    /// certificate gate — see [`Pipeline::certificate_slack`].
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Safety knob of the certificate gate for approximate matchers
    /// (default [`em_core::framework::DEFAULT_CERTIFICATE_SLACK`] =
    /// `0.25`; see [`MmpConfig::certificate_slack`] for why `1.0` is
    /// effectively probe-everything): a delta's clause footprint is
    /// scaled by this factor before being compared against each
    /// memoized probe's score-gap certificate, so larger values
    /// re-probe more aggressively. An infinite slack breaches every
    /// consulted certificate — the probe-everything control arm, which
    /// the benches diff against to *measure* the gate's divergence
    /// instead of assuming it is zero. Exact matchers record no
    /// certificates, so the knob has no effect on them.
    pub fn certificate_slack(mut self, slack: f64) -> Self {
        self.certificate_slack = slack;
        self
    }

    /// Bound the total memoized probe entries kept across
    /// neighborhoods (default unbounded; see [`MmpConfig::memo_capacity`]).
    pub fn memo_capacity(mut self, capacity: usize) -> Self {
        self.memo_capacity = capacity;
        self
    }

    /// Bound the component-scoped rollback an [`MatchSession::update`]
    /// will attempt (default unbounded). When a retraction's invalid
    /// closure exceeds `budget` pairs, the fine-grained rollback would
    /// cost more than it saves: the session drops its warm state
    /// wholesale and reports
    /// [`DegradeReason::RollbackBudgetExceeded`] instead — always
    /// sound (the next run is cold), and the signal a serving layer's
    /// scheduler uses to distinguish overload from policy degrades.
    pub fn rollback_budget(mut self, budget: usize) -> Self {
        self.rollback_budget = budget;
        self
    }

    /// Seed the session with caller-supplied evidence (known matches /
    /// known non-matches), applied to every run.
    pub fn evidence(mut self, evidence: Evidence) -> Self {
        self.evidence = evidence;
        self
    }

    /// Check framework invariants (probe-ledger balance, tombstone
    /// consistency, union-find closure, evidence-log replay) after every
    /// [`MatchSession::run`] and [`MatchSession::update`] — and, on the
    /// sharded backend, at every epoch fence. Results land in
    /// [`RunStats`] (`invariant_checks` / `invariant_violations`) and in
    /// [`MatchSession::last_invariants`]. Default off: the sweeps are
    /// read-only but not free.
    pub fn check_invariants(mut self, check: bool) -> Self {
        self.check_invariants = check;
        self
    }

    /// Replace the sharded runtime's knobs wholesale: fence-timeout
    /// budget, retry count, and the fault plan. Ignored by the
    /// sequential backend (the invariant flag is
    /// session-wide and set by [`Pipeline::check_invariants`]).
    pub fn runtime_options(mut self, opts: RuntimeOptions) -> Self {
        self.runtime = opts;
        self
    }

    /// Inject a deterministic [`FaultPlan`] into the sharded runtime
    /// (keeping the other runtime defaults). Equivalent to
    /// `runtime_options(RuntimeOptions::with_faults(plan))` when no
    /// other knob was customized.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.runtime.faults = plan;
        self
    }

    /// Validate the configuration and assemble the session: run (or
    /// validate) blocking, instantiate the matcher, build the
    /// [`DependencyIndex`] and — for the sharded backend — the initial
    /// estimate-based [`ShardPlan`].
    pub fn build(mut self) -> Result<MatchSession, PipelineError> {
        // Durable sessions: recover if the directory already holds one,
        // otherwise build fresh and write the initial checkpoint.
        if let Some(dir) = self.store_dir.take() {
            if SessionStore::exists(&dir) {
                return SessionStore::recover(&dir, self)
                    .map_err(|e| PipelineError::Store(Box::new(e)));
            }
            let mut session = self.build()?;
            let store = SessionStore::create(&dir, &session)
                .map_err(|e| PipelineError::Store(Box::new(e)))?;
            session.store = Some(Box::new(store));
            return Ok(session);
        }
        let Pipeline {
            mut dataset,
            blocking,
            cover,
            features,
            matcher,
            scheme,
            backend,
            incremental,
            memo_capacity,
            certificate_slack,
            rollback_budget,
            evidence,
            mut runtime,
            check_invariants,
            store_dir: _,
        } = self;
        runtime.check_invariants = check_invariants;

        // --- combination validation (every arm is a typed error) ---
        if let Backend::Sharded { shards: 0, .. } = backend {
            return Err(PipelineError::ZeroShards);
        }
        if memo_capacity == 0 {
            return Err(PipelineError::ZeroMemoCapacity);
        }
        if scheme == Scheme::Mmp
            && matches!(&matcher, MatcherChoice::Rules | MatcherChoice::Custom(_))
        {
            return Err(PipelineError::MmpNeedsProbabilistic {
                matcher: matcher.label(),
            });
        }
        // Note on `certificate_slack = ∞`: every certificate breaches
        // ([`gap_breached`] short-circuits), so the approximate matcher
        // re-probes every delta-touched pair — the probe-everything
        // control arm. The untouched-component replay stays on in both
        // arms (the slack knob deliberately does not govern it: it is
        // the exact component factorization, not a gap heuristic), so
        // the two arms differ *only* in what the gate elides.

        // --- blocking (or cover validation) ---
        let block_start = Instant::now();
        let scores = PairCache::new();
        let mut canopy_memo = CanopyMemo::new();
        let mut protected_links: FxHashMap<Pair, SimLevel> = FxHashMap::default();
        let (cover, features, cover_managed) = match cover {
            Some(cover) => {
                cover
                    .validate_total(&dataset)
                    .map_err(PipelineError::InvalidCover)?;
                (cover, None, false)
            }
            None => {
                // Annotations present *before* blocking are caller
                // knowledge: churn re-blocks must never purge them (a
                // cold run over the same dataset would see them too).
                protected_links = dataset.candidate_pairs().collect();
                let features = match features {
                    Some(f) if f.config().ngram == blocking.canopy.ngram => f,
                    _ => FeatureCache::build(
                        &dataset,
                        &blocking.entity_type,
                        &blocking.key_attr,
                        FeatureConfig {
                            ngram: blocking.canopy.ngram,
                        },
                    ),
                };
                // Seed the canopy memo on the way in, so the session's
                // first `update` already replays untouched canopies.
                let out = if blocking.canopy.loose > 0.0 {
                    block_dataset_churn(
                        &mut dataset,
                        &blocking,
                        &features,
                        &scores,
                        &mut canopy_memo,
                        &[],
                        false,
                        &protected_links,
                    )
                    .expect("blocking pipeline produces a valid total cover")
                    .output
                } else {
                    block_dataset_session(&mut dataset, &blocking, Some(&features), Some(&scores))
                        .expect("blocking pipeline produces a valid total cover")
                };
                (out.cover, Some(features), true)
            }
        };
        let blocking_time = block_start.elapsed();

        // --- matcher instantiation ---
        let matcher = instantiate_matcher(matcher, &dataset)?;

        // --- long-lived scheduling state ---
        let plan_start = Instant::now();
        let index = DependencyIndex::build(&dataset, &cover);
        let plan = match backend {
            Backend::Sharded {
                shards,
                split_policy,
            } => Some(ShardPlan::build(
                &index,
                shards,
                &estimate_costs(&dataset, &cover),
                split_policy,
            )),
            _ => None,
        };
        let planning_time = plan_start.elapsed();

        Ok(MatchSession {
            dataset,
            blocking,
            scheme,
            backend,
            mmp_config: MmpConfig {
                incremental,
                memo_capacity,
                certificate_slack,
                ..Default::default()
            },
            rollback_budget,
            last_degrade: None,
            matcher,
            base_evidence: evidence,
            features,
            scores,
            canopy_memo,
            protected_links,
            cover,
            cover_managed,
            index,
            plan,
            last_shard_report: None,
            runtime,
            check_invariants,
            last_invariants: None,
            warm: PairSet::new(),
            warm_state: WarmStart::new(),
            runs: 0,
            pending_blocking: blocking_time,
            pending_planning: planning_time,
            pending_rollback: RunStats::default(),
            state_epoch: 0,
            store: None,
        })
    }
}

/// Per-stage wall-clock costs attributable to one [`MatchSession::run`]:
/// the blocking and planning the session performed since the previous
/// run (build or [`MatchSession::extend`] work), plus the matching
/// itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Feature interning + canopy blocking + cover assembly.
    pub blocking: Duration,
    /// Dependency-index and shard-plan construction (including
    /// measured-cost re-planning).
    pub planning: Duration,
    /// The framework run itself.
    pub matching: Duration,
}

/// What the backend reports beyond the unified [`RunStats`].
#[derive(Debug, Clone)]
pub enum BackendReport {
    /// Sequential runs have nothing extra to say.
    Sequential,
    /// The sharded runtime's load/skew/makespan ledger, with the
    /// per-epoch evaluation traces the grid simulator replays.
    Sharded(Box<ShardReport>),
}

/// One run's outcome: the matches plus every report the backends used
/// to shape differently, merged into one shape.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The match set at fixpoint.
    pub matches: PairSet,
    /// Unified counters ([`RunStats::merge`] semantics across all
    /// backends).
    pub stats: RunStats,
    /// Per-stage wall-clock costs attributable to this run.
    pub timings: StageTimings,
    /// Backend-specific report.
    pub backend: BackendReport,
    /// Whether this run was seeded with a previous run's fixpoint.
    pub warm_started: bool,
    /// 0-based index of this run within the session.
    pub run_index: u32,
}

/// A point-in-time summary of a [`MatchSession`], returned by
/// [`MatchSession::status`]: the counters a serving layer reports per
/// status query, assembled without cloning any session state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Completed runs ([`MatchSession::runs`]).
    pub runs: u32,
    /// Mutation epoch ([`MatchSession::state_epoch`]).
    pub state_epoch: u64,
    /// Entity-id-space size of the session's dataset (tombstoned ids
    /// included; ids are never reused).
    pub entities: u64,
    /// Candidate pairs currently annotated.
    pub candidate_pairs: u64,
    /// Neighborhoods in the current cover.
    pub neighborhoods: u64,
    /// Pairs in the last fixpoint ([`MatchSession::matches`]).
    pub warm_matches: u64,
    /// Why the most recent update degraded to cold, if it did
    /// ([`MatchSession::last_degrade`]).
    pub last_degrade: Option<DegradeReason>,
    /// Whether the session journals to a durable store
    /// ([`Pipeline::store`]).
    pub durable: bool,
}

/// A resumable matching session: the long-lived state behind
/// [`Pipeline`] (dataset, feature cache, pair-score cache, cover,
/// dependency index, shard plan, and the accumulated fixpoint), with
/// [`MatchSession::run`] to reach a fixpoint and
/// [`MatchSession::extend`] to grow the dataset and warm-start the next
/// one. See the [module docs](self).
pub struct MatchSession {
    pub(crate) dataset: Dataset,
    pub(crate) blocking: BlockingConfig,
    pub(crate) scheme: Scheme,
    pub(crate) backend: Backend,
    pub(crate) mmp_config: MmpConfig,
    /// Invalid-closure size above which `update` abandons the
    /// component-scoped rollback and drops the warm state wholesale
    /// (see [`Pipeline::rollback_budget`]).
    pub(crate) rollback_budget: usize,
    /// Why the most recent `update` degraded to cold (`None` when it
    /// did not, or before any update). Ephemeral scheduling signal —
    /// not persisted, not part of the state digest; recovery replay
    /// recomputes it.
    pub(crate) last_degrade: Option<DegradeReason>,
    pub(crate) matcher: SessionMatcher,
    pub(crate) base_evidence: Evidence,
    /// `Some` iff the session manages its own blocking (built without
    /// [`Pipeline::cover`]); extended incrementally on growth.
    pub(crate) features: Option<FeatureCache>,
    /// Pair scores survive re-blocking: pairs scored once are never
    /// re-scored (exact for corpus-independent kernels).
    pub(crate) scores: PairCache<f64>,
    /// Previous canopy pass, keyed by center, so delta re-blocks replay
    /// canopies the churn cannot have touched.
    pub(crate) canopy_memo: CanopyMemo,
    /// Caller-supplied candidate annotations (pre-blocking dataset
    /// annotations plus `DatasetDelta::add_links`): churn purges must
    /// never withdraw these.
    pub(crate) protected_links: FxHashMap<Pair, SimLevel>,
    pub(crate) cover: Cover,
    pub(crate) cover_managed: bool,
    pub(crate) index: DependencyIndex,
    pub(crate) plan: Option<ShardPlan>,
    pub(crate) last_shard_report: Option<ShardReport>,
    /// Sharded-runtime knobs: fence budget, fault plan, per-fence
    /// invariant checking.
    pub(crate) runtime: RuntimeOptions,
    /// Whether session-level invariant sweeps run after `run`/`update`.
    pub(crate) check_invariants: bool,
    /// The most recent invariant sweep (run- or update-level).
    pub(crate) last_invariants: Option<InvariantReport>,
    /// The previous run's fixpoint — next run's warm start.
    pub(crate) warm: PairSet,
    /// The previous fixpoint's message store and probe-memo bank (see
    /// [`WarmStart`]): what lets a warm run evaluate only the
    /// neighborhoods whose views changed and replay probes elsewhere.
    pub(crate) warm_state: WarmStart,
    pub(crate) runs: u32,
    pub(crate) pending_blocking: Duration,
    pub(crate) pending_planning: Duration,
    /// Rollback accounting of `update` calls since the previous run,
    /// folded into the next run's [`RunStats`].
    pub(crate) pending_rollback: RunStats,
    /// Monotone count of state-mutating operations (`update` / `run` /
    /// `reset_warm`) completed since build. The durable store fences
    /// its WAL against this: every journaled frame corresponds to
    /// exactly one epoch tick, so recovery can assert it reproduced the
    /// same epoch the live session had reached.
    pub(crate) state_epoch: u64,
    /// The durable store, when the session was built with
    /// [`Pipeline::store`]. During recovery replay this is `None`, so
    /// replayed operations do not re-journal themselves.
    pub(crate) store: Option<Box<SessionStore>>,
}

impl MatchSession {
    /// The session's dataset (with its candidate-pair annotations).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The cover the framework runs on.
    pub fn cover(&self) -> &Cover {
        &self.cover
    }

    /// The previous run's fixpoint (empty before the first run) — what
    /// the next run warm-starts from.
    pub fn warm_matches(&self) -> &PairSet {
        &self.warm
    }

    /// The warm state the next run withdraws from: the probe-memo and
    /// certificate banks, the carried message store and the entity
    /// floor. Read-only. Right after a run, both banks hold at most one
    /// entry per neighborhood of [`MatchSession::cover`].
    pub fn warm_start(&self) -> &WarmStart {
        &self.warm_state
    }

    /// The last fixpoint's match set, **borrowed** — the serving query
    /// path, which must not copy the match set per request. Identical
    /// to the `matches` field of the most recent
    /// [`MatchSession::run`]'s [`MatchOutcome`]; empty before the
    /// first run.
    ///
    /// Note that [`MatchSession::update`] mutates this in place (the
    /// component-scoped rollback removes invalidated pairs), so a
    /// query *between* an `update` and its `run` sees the rolled-back
    /// fixpoint, not the pre-update one. A serving layer that wants
    /// queries to only ever observe fixpoints applies each
    /// update-batch and its run back to back (see `em-serve`).
    pub fn matches(&self) -> &PairSet {
        &self.warm
    }

    /// A point-in-time summary of the session — counters only, nothing
    /// cloned. The daemon's status-query payload.
    pub fn status(&self) -> SessionStatus {
        SessionStatus {
            runs: self.runs,
            state_epoch: self.state_epoch,
            entities: self.dataset.entities.len() as u64,
            candidate_pairs: self.dataset.candidate_count() as u64,
            neighborhoods: self.cover.len() as u64,
            warm_matches: self.warm.len() as u64,
            last_degrade: self.last_degrade,
            durable: self.store.is_some(),
        }
    }

    /// Why the most recent [`MatchSession::update`] degraded to cold,
    /// or `None` when it rolled back component-scoped (or no update
    /// has run). An ephemeral scheduling signal: not persisted, and
    /// recomputed by recovery replay.
    pub fn last_degrade(&self) -> Option<DegradeReason> {
        self.last_degrade
    }

    /// Number of completed runs.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// Monotone count of state-mutating operations (`update` / `run` /
    /// `reset_warm`) completed since build. Durable sessions fence
    /// their WAL against this counter; recovery reproduces it exactly.
    pub fn state_epoch(&self) -> u64 {
        self.state_epoch
    }

    /// The epoch the durable store's *snapshot* covers, or `None` for a
    /// non-durable session. WAL frames journal everything between this
    /// epoch and [`MatchSession::state_epoch`]; the two are equal right
    /// after build, [`MatchSession::checkpoint`], or recovery-plus-
    /// checkpoint.
    pub fn last_persisted_epoch(&self) -> Option<u64> {
        self.store.as_ref().map(|s| s.persisted_epoch())
    }

    /// The durable store's directory, or `None` for a non-durable
    /// session.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.dir())
    }

    /// The attached durable store, for inspection (journaled frame
    /// count, torn-tail honesty counters), or `None` for a non-durable
    /// session.
    pub fn session_store(&self) -> Option<&SessionStore> {
        self.store.as_deref()
    }

    /// Checkpoint the durable session: write a fresh snapshot of the
    /// full session state (temp file + atomic rename) and truncate the
    /// WAL the snapshot just absorbed. Returns the snapshot's size in
    /// bytes. Recovery cost is proportional to the WAL tail, so
    /// checkpoint periodically on long-lived sessions.
    ///
    /// # Errors
    /// [`SessionStoreError::NoStore`] when the session was built
    /// without [`Pipeline::store`]; I/O failures otherwise.
    pub fn checkpoint(&mut self) -> Result<u64, SessionStoreError> {
        let mut store = self.store.take().ok_or(SessionStoreError::NoStore)?;
        let result = store.checkpoint(self);
        self.store = Some(store);
        result
    }

    /// Journal one WAL frame ahead of the mutation it describes
    /// (no-op for non-durable sessions — and during recovery replay,
    /// where the store is deliberately not yet attached). Returns the
    /// bytes of the defensive checkpoint this triggered (0 normally).
    ///
    /// Journaling failure is a panic, not a `Result`: the mutator has
    /// promised durability and has no way to give the caller back an
    /// unmutated session once the WAL cannot be written. Callers who
    /// need typed errors get them from [`MatchSession::checkpoint`] and
    /// recovery instead.
    fn journal(&mut self, kind: u8, payload: &[u8]) -> u64 {
        let Some(mut store) = self.store.take() else {
            return 0;
        };
        let mut snapshot_bytes = 0;
        // Defense-in-depth fence: every journaled operation ticks the
        // epoch once, so a mismatch means some mutation slipped past
        // the journal (a bug, or state surgery through a future
        // non-journaling surface). Re-snapshot the whole session so the
        // store is authoritative again, then journal on top of it.
        if store.expected_epoch() != self.state_epoch {
            snapshot_bytes = store
                .checkpoint(self)
                .unwrap_or_else(|e| panic!("durable session store: re-checkpoint failed: {e}"));
        }
        store
            .append(kind, payload)
            .unwrap_or_else(|e| panic!("durable session store: WAL append failed: {e}"));
        self.store = Some(store);
        snapshot_bytes
    }

    /// Tick the state epoch at the end of a completed mutation and tell
    /// the store the journaled frame now covers it.
    fn commit_epoch(&mut self) {
        self.state_epoch += 1;
        if let Some(store) = self.store.as_mut() {
            store.note_epoch(self.state_epoch);
        }
    }

    /// The sharded backend's current plan, if any.
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.plan.as_ref()
    }

    /// The session's suppression list: every caller link retracted via
    /// [`DatasetDelta::retract_link`](crate::DatasetDelta::retract_link)
    /// and not since re-asserted, sorted. These pairs are scrubbed from
    /// the candidate set after every re-block, so the kernel cannot
    /// quietly re-derive them. A cold session over the mirrored dataset
    /// has no such memory — harnesses comparing warm against cold must
    /// replay this list onto the cold side (see the soak binary).
    pub fn suppressed_links(&self) -> Vec<Pair> {
        self.scores.suppressed_pairs()
    }

    /// The most recent invariant sweep, if the session checks invariants
    /// (see [`Pipeline::check_invariants`]). `None` before the first
    /// `run`/`update`, or when checking is off.
    pub fn last_invariants(&self) -> Option<&InvariantReport> {
        self.last_invariants.as_ref()
    }

    /// Replace the fault plan the next sharded run injects. The soak
    /// harness calls this per update so thousands of runs each exercise
    /// a different, reproducible fault ([`FaultPlan::seeded`]); pass
    /// [`FaultPlan::new`] to clear. No-op on non-sharded backends.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.runtime.faults = plan;
    }

    /// Toggle invariant sweeps (session-level and per-fence) after
    /// build. Mirrors [`Pipeline::check_invariants`].
    pub fn set_check_invariants(&mut self, check: bool) {
        self.check_invariants = check;
        self.runtime.check_invariants = check;
    }

    /// Drop every cross-run cache: the next run — and the next re-block —
    /// are cold. Besides the warm fixpoint and the carried
    /// message/memo state this also clears the pair-score cache and the
    /// canopy memo (earlier versions left the score cache populated,
    /// which made a "reset" session replay blocking scores a truly cold
    /// session would recompute).
    /// Durable sessions journal the reset itself (a `Reset` WAL frame)
    /// before clearing anything, so a recovered session replays the
    /// reset too — post-reset recovery can never resurrect the dropped
    /// warm state.
    pub fn reset_warm(&mut self) {
        self.journal(FRAME_RESET, &[]);
        self.warm = PairSet::new();
        self.warm_state = WarmStart::new();
        self.scores.clear();
        self.canopy_memo.clear();
        self.last_shard_report = None;
        self.commit_epoch();
    }

    /// The evidence the next run will be seeded with: the caller's base
    /// evidence plus the previous fixpoint.
    fn run_evidence(&self) -> Evidence {
        let mut positive = self.base_evidence.positive.clone();
        for p in self.warm.iter() {
            if !self.base_evidence.negative.contains(p) {
                positive.insert(p);
            }
        }
        Evidence::from_parts(positive, self.base_evidence.negative.clone())
    }

    /// Run the configured scheme on the configured backend to fixpoint.
    ///
    /// Re-runs reuse everything the session owns: the dependency index,
    /// the probe memos' capacity budget, the previous fixpoint as warm
    /// evidence, and — on the sharded backend — a plan rebalanced from
    /// the previous run's **measured** per-neighborhood costs.
    pub fn run(&mut self) -> MatchOutcome {
        // Durable sessions journal the run marker first: replaying the
        // frame re-executes this deterministic fixpoint computation, so
        // the WAL needs no payload beyond the operation itself.
        let checkpoint_bytes = self.journal(FRAME_RUN, &[]);
        self.pending_rollback.snapshot_bytes += checkpoint_bytes;

        // Measured-cost re-planning: after a sharded run, the report's
        // busy-time trace replaces the estimate in the LPT balancer —
        // but only when the trace covers every neighborhood. A
        // warm-started run skips unchanged views, so its sparse trace
        // says nothing about most of the load; replanning from it would
        // give the unmeasured majority the fallback cost and erase the
        // balance history. The current plan (built from the last full
        // measurement or the estimate) stays in force instead.
        if let (Some(plan), Some(report)) = (&self.plan, &self.last_shard_report) {
            if report.measured().len() == self.cover.len() {
                let t0 = Instant::now();
                self.plan = Some(plan.replan_from(&self.index, report));
                self.pending_planning += t0.elapsed();
            }
        }

        let warm_started = !self.warm.is_empty();
        let evidence = self.run_evidence();
        let mut warm_state = std::mem::take(&mut self.warm_state);
        let match_start = Instant::now();
        let (mut output, backend_report) = self.dispatch(&evidence, &mut warm_state);
        let matching = match_start.elapsed();
        // Rollback accounting of the updates since the previous run
        // surfaces on this run's stats (and its Display line).
        output
            .stats
            .merge(&std::mem::take(&mut self.pending_rollback));
        self.warm_state = warm_state;
        // Entities added after this point are "new" to the banked memos.
        self.warm_state.entity_floor = self.dataset.entities.len() as u32;

        if let BackendReport::Sharded(report) = &backend_report {
            self.last_shard_report = Some((**report).clone());
        }
        self.warm = output.matches.clone();
        // Session-level invariant sweep over everything the session now
        // carries into the next run (the sharded backend additionally
        // checked merged evidence and the folded store at every fence —
        // those counts are already in `output.stats`).
        if self.check_invariants {
            let sweep = self.sweep_invariants(&evidence, Some(&output.stats));
            sweep.record(&mut output.stats);
            self.last_invariants = Some(sweep);
        }
        let timings = StageTimings {
            blocking: std::mem::take(&mut self.pending_blocking),
            planning: std::mem::take(&mut self.pending_planning),
            matching,
        };
        let run_index = self.runs;
        self.runs += 1;
        self.commit_epoch();
        MatchOutcome {
            matches: output.matches,
            stats: output.stats,
            timings,
            backend: backend_report,
            warm_started,
            run_index,
        }
    }

    fn dispatch(&self, evidence: &Evidence, warm: &mut WarmStart) -> (MatchOutput, BackendReport) {
        let start = Instant::now();
        match (self.scheme, self.backend) {
            (Scheme::NoMp, Backend::Sequential) => (
                no_mp_baseline(
                    self.matcher.as_matcher(),
                    &self.dataset,
                    &self.cover,
                    evidence,
                ),
                BackendReport::Sequential,
            ),
            (Scheme::Smp, Backend::Sequential) => {
                let mut driver =
                    SmpDriver::with_index(&self.dataset, &self.cover, &self.index, evidence);
                driver.run(self.matcher.as_matcher());
                (driver.finish(start), BackendReport::Sequential)
            }
            (Scheme::Mmp, Backend::Sequential) => {
                let matcher = self.probabilistic();
                let scorer = matcher.global_scorer(&self.dataset);
                let mut driver = MmpDriver::with_index(
                    &self.dataset,
                    &self.cover,
                    &self.index,
                    evidence,
                    &self.mmp_config,
                );
                // Cross-run warm start is the incremental path: adopt
                // the previous fixpoint's message store, seed probe
                // memos for neighborhoods whose view identity is
                // unchanged, and evaluate only the changed ones (an
                // unchanged view re-evaluated at the old fixpoint's
                // evidence reproduces its quiescent state; its messages
                // are already in the carried store). The first run's
                // empty bank misses everywhere, which degenerates to the
                // cold full worklist. Bank entries no current view
                // claims are retired by the withdrawal.
                let mut memos_retired = 0;
                if self.mmp_config.incremental {
                    let (seeds, retired) =
                        warm.withdraw(&self.dataset, &self.cover, [self.cover.ids()]);
                    memos_retired = retired;
                    for seed in seeds {
                        driver.seed_warm(seed);
                    }
                    driver.warm_store(std::mem::take(&mut warm.store));
                }
                driver.run(matcher, scorer.as_ref());
                if self.mmp_config.incremental {
                    warm.store = driver.take_store();
                    driver.bank_memos(&mut warm.bank);
                    driver.bank_certificates(&mut warm.certs);
                }
                let mut output = driver.finish(start);
                output.stats.memos_retired += memos_retired;
                (output, BackendReport::Sequential)
            }
            (scheme, Backend::Sharded { .. }) => {
                let plan = self.plan.as_ref().expect("sharded sessions hold a plan");
                let (output, report) = match scheme {
                    Scheme::NoMp => shard_no_mp_planned_opts(
                        self.matcher.as_matcher(),
                        &self.dataset,
                        &self.cover,
                        plan,
                        evidence,
                        &self.runtime,
                    ),
                    Scheme::Smp => shard_smp_planned_opts(
                        self.matcher.as_matcher(),
                        &self.dataset,
                        &self.cover,
                        &self.index,
                        plan,
                        evidence,
                        &self.runtime,
                    ),
                    Scheme::Mmp => shard_mmp_planned_opts(
                        self.probabilistic(),
                        &self.dataset,
                        &self.cover,
                        &self.index,
                        plan,
                        evidence,
                        &self.mmp_config,
                        Some(warm),
                        &self.runtime,
                    ),
                };
                (output, BackendReport::Sharded(Box::new(report)))
            }
        }
    }

    /// One read-only sweep over everything the session owns: the
    /// dataset's candidate pairs and tuples, `evidence`, the carried
    /// message store and probe-memo bank, the blocking-score cache, the
    /// warm-start entity floor, and — after a run, when its stats are
    /// at hand — the probe and certificate ledgers and the bank bound
    /// (every banked entry keyed by a view of the current cover).
    fn sweep_invariants(&self, evidence: &Evidence, stats: Option<&RunStats>) -> InvariantReport {
        let mut checker = InvariantChecker::new(&self.dataset);
        checker.check_dataset();
        checker.check_evidence(evidence);
        checker.check_message_store(&self.warm_state.store);
        checker.check_memo_bank(&self.warm_state.bank);
        checker.check_pair_cache("blocking-scores", &self.scores);
        checker.check_entity_floor(self.warm_state.entity_floor);
        if let Some(stats) = stats {
            checker.check_probe_ledger(stats);
            checker.check_certificate_ledger(stats);
            checker.check_bank_bound(&self.cover, &self.warm_state.bank, &self.warm_state.certs);
        }
        checker.finish()
    }

    fn probabilistic(&self) -> &(dyn ProbabilisticMatcher + Sync) {
        self.matcher
            .as_probabilistic()
            .expect("MMP sessions validate the matcher at build time")
    }

    /// Grow the session's dataset with an append-only batch.
    ///
    /// Deprecated thin wrapper over [`MatchSession::update`] with the
    /// additions-only [`DatasetDelta::from_growth`] — byte-identical
    /// behaviour to the PR 4 surface (the wrapper-equivalence tests pin
    /// this), kept so existing callers keep compiling.
    ///
    /// # Panics
    /// Panics if the session was built with a caller-provided
    /// [`Pipeline::cover`], or if the batch is malformed.
    #[deprecated(
        since = "0.1.0",
        note = "use MatchSession::update with a DatasetDelta (additions-only deltas reproduce \
                extend() exactly)"
    )]
    pub fn extend(&mut self, growth: &DatasetGrowth) -> &mut Self {
        self.update(&DatasetDelta::from_growth(growth));
        self
    }

    /// Apply a bidirectional [`DatasetDelta`] — additions *and*
    /// retractions — re-block only the affected region, roll back
    /// exactly the carried state the retractions invalidate, and arm the
    /// next [`MatchSession::run`] to warm-start everything else.
    ///
    /// ## What stays incremental
    ///
    /// * feature interning: only added entities are tokenized
    ///   ([`FeatureCache::extend_from`]); retracted entities' features
    ///   are dropped ([`FeatureCache::remove`]);
    /// * the canopy pass replays every canopy whose gram neighborhood
    ///   the delta does not touch ([`em_blocking::CanopyMemo`]) — the
    ///   cheap pass no longer re-runs in full;
    /// * the exact kernel runs only for pairs not in the session's
    ///   score cache: pairs involving new entities, plus pairs of
    ///   *changed* canopies whose annotations the churn purge withdrew;
    /// * the cover, [`DependencyIndex`], and shard plan are rebuilt
    ///   (neighborhood ids are not stable across re-blocking; a sharded
    ///   session's plan is repaired via [`ShardPlan::repair`] and the
    ///   measured-cost trace discarded).
    ///
    /// ## Component-scoped rollback
    ///
    /// Retraction is non-monotone: pairs the previous fixpoint matched
    /// may be unmatched by a cold run over the edited dataset, so warm
    /// state cannot be carried wholesale. Soundness comes from the same
    /// factorization the incremental prober uses: for exact
    /// supermodular matchers, evidence in one ground-interaction
    /// component cannot change decisions in another. The rollback
    /// therefore computes the closure of the retraction's footprint —
    /// pairs incident to retracted entities, pairs coupled through
    /// retracted or newly-added tuples, candidate pairs whose
    /// annotation the re-block changed — under the global scorer's
    /// interaction adjacency (before *and* after the edit), widens it
    /// to whole evidence components
    /// ([`DependencyIndex::evidence_components`]), and drops exactly
    /// that slice of carried state:
    ///
    /// * invalidated pairs leave the warm fixpoint (they are no longer
    ///   sound evidence);
    /// * carried maximal messages touching an invalidated pair are
    ///   dropped in place
    ///   ([`MessageStore::drop_messages_touching`](em_core::framework::MessageStore::drop_messages_touching):
    ///   each is one whole union-find tree, found from an invalidated
    ///   member), so the rollback costs the closure, not the store;
    /// * banked probe memos whose view contains a retracted entity, an
    ///   invalidated pair, or both endpoints of a retracted/added tuple
    ///   are evicted (their view identity may be unchanged while their
    ///   conditioning evidence is not — the identity check alone cannot
    ///   catch that);
    /// * blocking scores of pairs mentioning retracted entities are
    ///   evicted; caller evidence mentioning them is retracted
    ///   ([`Evidence::retract_positive`]).
    ///
    /// The next [`MatchSession::run`] then warm-starts untouched
    /// components exactly as a growth run does, and is
    /// **byte-identical to a cold run over the edited dataset** for
    /// exact supermodular matchers, sequential and sharded (CI-gated).
    ///
    /// ## When retraction degrades to cold
    ///
    /// The rollback needs a [`GlobalScorer`] (interaction adjacency)
    /// and component-factorizable probes. Sessions that cannot provide
    /// both — Type-I matchers ([`MatcherChoice::Rules`],
    /// [`MatcherChoice::Custom`]), approximate inference with
    /// `.incremental(false)`, the corpus-weighted
    /// [`SimilarityKernel::TfIdfCosine`] kernel (a churned corpus
    /// re-weights every score), or a non-positive canopy loose
    /// threshold (no canopy identity to diff, so annotation changes
    /// cannot be scoped) — drop the warm state wholesale on any
    /// retraction and run cold, which is always sound.
    /// [`UpdateReport::degraded_to_cold`] says when this happened.
    ///
    /// # Panics
    /// Panics if the session was built with a caller-provided
    /// [`Pipeline::cover`] (the session does not manage blocking then),
    /// or if the delta is malformed (see [`DatasetDelta::apply`]).
    pub fn update(&mut self, delta: &DatasetDelta) -> UpdateReport {
        assert!(
            self.cover_managed,
            "MatchSession::update needs a blocking-managed cover; sessions built with \
             Pipeline::cover(...) own no blocking state to re-run"
        );
        // Durable sessions journal the delta *before* applying it
        // (write-ahead): a crash anywhere past this line recovers by
        // replaying the frame through this same method.
        let checkpoint_bytes = self.journal(FRAME_DELTA, &delta.wal_encode());
        let perturbs_existing = delta.perturbs_existing();
        let has_retractions = delta.has_retractions();
        let tfidf = self.blocking.kernel == SimilarityKernel::TfIdfCosine;
        // A non-positive loose threshold has no canopy identity to diff
        // (everything gram-sharing joins everything), so such sessions
        // re-block in full — and without the annotation diff the
        // rollback closure cannot be scoped, so retraction degrades.
        let incremental_blocking = !tfidf && self.blocking.canopy.loose > 0.0;
        let rollback_capable = incremental_blocking
            && self.mmp_config.incremental
            && self.matcher.as_probabilistic().is_some();

        let mut report = UpdateReport {
            entities_added: delta.add_entities.len() as u64,
            entities_retracted: delta.retract_entities.len() as u64,
            tuples_added: delta.add_tuples.len() as u64,
            links_added: delta.add_links.len() as u64,
            ..UpdateReport::default()
        };

        // --- Phase 0: capture the old world's interaction structure ---
        // (before any mutation: the seeds and their closure under the old
        // scorer's ground adjacency; the old evidence components are
        // read from the pre-update index kept until phase 4).
        let mut seeds = PairSet::new();
        let mut old_closure = PairSet::new();
        let mut guard_tuples: Vec<(EntityId, EntityId)> = Vec::new();
        if perturbs_existing && rollback_capable {
            let seed_around = |ds: &Dataset, x: EntityId, seeds: &mut PairSet| {
                for &(other, _) in ds.sim_neighbors(x) {
                    seeds.insert(Pair::new(x, other));
                }
            };
            for &e in &delta.retract_entities {
                seed_around(&self.dataset, e, &mut seeds);
                for rel in self.dataset.relations.ids() {
                    for &n in self.dataset.relations.neighbors_out(rel, e) {
                        seed_around(&self.dataset, n, &mut seeds);
                    }
                    for &n in self.dataset.relations.neighbors_in(rel, e) {
                        seed_around(&self.dataset, n, &mut seeds);
                    }
                }
            }
            for t in &delta.retract_tuples {
                seed_around(&self.dataset, t.a, &mut seeds);
                seed_around(&self.dataset, t.b, &mut seeds);
                guard_tuples.push((t.a, t.b));
            }
            for &p in &delta.retract_links {
                seeds.insert(p);
            }
            for t in &delta.add_tuples {
                if let (crate::GrowthRef::Existing(a), crate::GrowthRef::Existing(b)) = (t.a, t.b) {
                    seed_around(&self.dataset, a, &mut seeds);
                    seed_around(&self.dataset, b, &mut seeds);
                    guard_tuples.push((a, b));
                }
            }
            for &(a, b, _) in &delta.add_links {
                if let (crate::GrowthRef::Existing(a), crate::GrowthRef::Existing(b)) = (a, b) {
                    seeds.insert(Pair::new(a, b));
                }
            }

            let matcher = self.probabilistic();
            let scorer = matcher.global_scorer(&self.dataset);
            old_closure = flood_closure(&seeds, scorer.as_ref());
        }

        // --- Phase 1: mutate the dataset ---
        // Ids at or above this floor are new to this update; pairs
        // touching them are handled by the (monotone) growth machinery,
        // never by rollback.
        let pre_update_floor = self.dataset.entities.len() as u32;
        let block_start = Instant::now();
        let applied = delta.apply(&mut self.dataset);
        // A retracted link stops being protected, loses its cached
        // score, and joins the session's suppression list: the kernel
        // happily re-derives candidacy for records that remain similar,
        // so without the list the link would re-enter on the next
        // update's re-block (PR 5 leftover). Suppression is
        // session-scoped caller intent — it survives `reset_warm` and
        // every later re-block, until the caller re-asserts the link.
        // This loop runs before the added-links loop so a delta that
        // retracts and re-adds the same pair nets out to "present".
        for &pair in &delta.retract_links {
            self.protected_links.remove(&pair);
            self.scores.suppress(pair);
        }
        for &(pair, level) in &applied.added_links {
            let slot = self.protected_links.entry(pair).or_insert(level);
            *slot = (*slot).max(level);
            // Re-asserting a previously retracted link lifts its
            // suppression: the caller's latest intent wins.
            self.scores.unsuppress(pair);
        }
        // Caches keyed by dataset identity (the matcher's grounding
        // cache, the fingerprint memo of a CachedMatcher) are stale the
        // moment an in-place mutation can change a view's ground model.
        if perturbs_existing {
            self.matcher.as_matcher().invalidate_caches();
        }

        // --- Phase 2: features + delta re-block ---
        let features = self.features.as_mut().expect("blocking-managed session");
        let churn_out = if tfidf {
            // Corpus-weighted kernel: the churned corpus re-weights every
            // score; nothing carried is trustworthy. Rebuild features,
            // drop the caches and the warm state — the next run is cold.
            *features = FeatureCache::build(
                &self.dataset,
                &self.blocking.entity_type,
                &self.blocking.key_attr,
                FeatureConfig {
                    ngram: self.blocking.canopy.ngram,
                },
            );
            self.scores.clear();
            self.canopy_memo.clear();
            self.warm = PairSet::new();
            self.warm_state = WarmStart::new();
            report.degraded = Some(DegradeReason::CorpusWeightedKernel);
            let out = block_dataset_session(
                &mut self.dataset,
                &self.blocking,
                Some(features),
                Some(&self.scores),
            )
            .expect("blocking pipeline produces a valid total cover");
            report.pairs_reblocked = out.pairs_scored;
            self.cover = out.cover;
            None
        } else if !incremental_blocking {
            // Degenerate loose threshold: features stay delta-maintained
            // but the canopy pass re-runs in full, and retraction (if
            // any) degrades to cold in phase 4.
            for &e in &delta.retract_entities {
                features.remove(e);
            }
            features.extend_from(
                &self.dataset,
                &self.blocking.entity_type,
                &self.blocking.key_attr,
            );
            if has_retractions {
                let gone: FxHashSet<EntityId> = delta.retract_entities.iter().copied().collect();
                self.scores
                    .retain(|p| !gone.contains(&p.lo()) && !gone.contains(&p.hi()));
            }
            let out = block_dataset_session(
                &mut self.dataset,
                &self.blocking,
                Some(features),
                Some(&self.scores),
            )
            .expect("blocking pipeline produces a valid total cover");
            report.pairs_reblocked = out.pairs_scored;
            self.cover = out.cover;
            None
        } else {
            // The canopy delta footprint: the gram-id sets of every
            // removed point (captured before the features are dropped)
            // and every added point.
            let mut delta_grams: Vec<Vec<u32>> = Vec::new();
            for &e in &delta.retract_entities {
                if let Some(removed) = features.remove(e) {
                    delta_grams.push(removed.grams);
                }
            }
            features.extend_from(
                &self.dataset,
                &self.blocking.entity_type,
                &self.blocking.key_attr,
            );
            for &id in &applied.new_ids {
                if let Some(fv) = features.get(id) {
                    delta_grams.push(fv.grams.clone());
                }
            }
            // Blocking scores of pairs mentioning a retracted entity are
            // dead weight (and would shadow a changed world on re-add of
            // similar keys — ids are fresh, so this is pure hygiene).
            if has_retractions {
                let gone: FxHashSet<EntityId> = delta.retract_entities.iter().copied().collect();
                self.scores
                    .retain(|p| !gone.contains(&p.lo()) && !gone.contains(&p.hi()));
            }
            let mut out = block_dataset_churn(
                &mut self.dataset,
                &self.blocking,
                features,
                &self.scores,
                &mut self.canopy_memo,
                &delta_grams,
                has_retractions,
                &self.protected_links,
            )
            .expect("blocking pipeline produces a valid total cover");
            report.pairs_reblocked = out.output.pairs_scored;
            report.canopies_replayed = out.canopies_replayed;
            report.canopies_recomputed = out.canopies_recomputed;
            self.cover = std::mem::take(&mut out.output.cover);
            Some(out)
        };
        // Suppression scrub: whatever the re-block just re-derived for a
        // retracted caller link is withdrawn again, before the
        // dependency index and shard plan are rebuilt — the suppressed
        // pair must be invisible to the next run's scheduling state.
        for pair in self.scores.suppressed_pairs() {
            if self.dataset.is_candidate(pair) {
                self.dataset.retract_similar(pair);
                self.scores.remove(pair);
            }
        }
        self.pending_blocking += block_start.elapsed();

        // --- Phase 3: rebuild the scheduling state ---
        // The pre-update index lives on until the rollback has
        // attributed its closure to the old evidence components.
        let plan_start = Instant::now();
        let old_index = std::mem::replace(
            &mut self.index,
            DependencyIndex::build(&self.dataset, &self.cover),
        );
        if let Backend::Sharded {
            shards,
            split_policy,
        } = self.backend
        {
            let costs = estimate_costs(&self.dataset, &self.cover);
            self.plan = Some(match self.plan.take() {
                // Neighborhood ids changed; the measured trace no longer
                // applies. Repair keeps the shard count and policy,
                // re-partitioning the (possibly shrunk) component set
                // from estimates; re-plan from measurements after the
                // next full run.
                Some(plan) => plan.repair(&self.index, &costs),
                None => ShardPlan::build(&self.index, shards, &costs, split_policy),
            });
            self.last_shard_report = None;
        }
        self.pending_planning += plan_start.elapsed();

        // --- Phase 4: rollback (or degrade) ---
        if !perturbs_existing || tfidf {
            // Pure growth keeps everything (PR 4 semantics); TF-IDF
            // already went cold above.
        } else if !rollback_capable {
            // No scorer to scope the rollback with: degrade. Additions
            // that only *add* synergy keep the warm fixpoint (growth is
            // monotone); any retraction drops it too.
            self.warm_state = WarmStart::new();
            if has_retractions {
                self.warm = PairSet::new();
                report.degraded = Some(if self.matcher.as_probabilistic().is_none() {
                    DegradeReason::TypeIMatcher
                } else if !self.mmp_config.incremental {
                    DegradeReason::IncrementalOff
                } else {
                    DegradeReason::UnscopedBlocking
                });
            }
        } else {
            // Annotation changes among *pre-existing* entities are
            // genuine perturbations (a canopy reshuffle co-located or
            // separated two old records). Changes touching a new entity
            // are pure growth: the grown-view machinery (entered-pair
            // seeding) handles them, and flooding from them would drag
            // the whole growth region into the rollback for nothing.
            let changed: Vec<Pair> = churn_out
                .as_ref()
                .map(|c| {
                    c.changed_pairs
                        .iter()
                        .map(|c| c.pair)
                        .filter(|p| p.lo().0 < pre_update_floor && p.hi().0 < pre_update_floor)
                        .collect()
                })
                .unwrap_or_default();
            let mut new_seeds = old_closure.clone();
            new_seeds.union_with(&seeds);
            for &p in &changed {
                new_seeds.insert(p);
            }
            for &(p, _) in &applied.retracted_pairs {
                new_seeds.insert(p);
            }
            let matcher = self.probabilistic();
            let scorer = matcher.global_scorer(&self.dataset);
            let invalid = flood_closure(&new_seeds, scorer.as_ref());
            drop(scorer);
            let gone: FxHashSet<EntityId> = delta.retract_entities.iter().copied().collect();

            if invalid.len() > self.rollback_budget {
                // The invalid closure outgrew the budget: the
                // fine-grained rollback below would cost more than the
                // cold rebuild it exists to avoid. Drop the carried
                // state wholesale instead (always sound — the next run
                // is cold) and surface the overload as a typed degrade
                // so a scheduler can tell churn-outran-rollback apart
                // from the policy degrades.
                report.warm_matches_dropped = self.warm.len() as u64;
                self.warm = PairSet::new();
                self.warm_state = WarmStart::new();
                report.degraded = Some(DegradeReason::RollbackBudgetExceeded);
            } else {
                self.scoped_rollback(
                    &mut report,
                    &applied,
                    &invalid,
                    &gone,
                    &old_index,
                    &guard_tuples,
                    has_retractions,
                );
            }
            // Caller evidence mentioning retracted entities is
            // retracted through the tombstoning mutators — on both the
            // scoped and the budget-degraded arm (the entities are gone
            // either way).
            if !gone.is_empty() {
                let stale_pos: Vec<Pair> = self
                    .base_evidence
                    .positive
                    .iter()
                    .filter(|p| gone.contains(&p.lo()) || gone.contains(&p.hi()))
                    .collect();
                for p in stale_pos {
                    self.base_evidence.retract_positive(p);
                }
                let stale_neg: Vec<Pair> = self
                    .base_evidence
                    .negative
                    .iter()
                    .filter(|p| gone.contains(&p.lo()) || gone.contains(&p.hi()))
                    .collect();
                for p in stale_neg {
                    self.base_evidence.retract_negative(p);
                }
            }
        }

        self.pending_rollback.components_invalidated += report.components_invalidated;
        self.pending_rollback.messages_dropped += report.messages_dropped;
        self.pending_rollback.memos_dropped += report.memos_dropped;
        self.pending_rollback.pairs_reblocked += report.pairs_reblocked;

        // Post-update invariant sweep: the edited dataset, the rolled-
        // back carried state, and the retraction-scrubbed caller
        // evidence must already be consistent *before* the next run.
        // The counters fold into that run's stats like the rollback's.
        if self.check_invariants {
            let sweep = self.sweep_invariants(&self.base_evidence, None);
            sweep.record(&mut self.pending_rollback);
            report.invariant_checks = sweep.checks;
            report.invariant_violations = sweep.violations.len() as u64;
            self.last_invariants = Some(sweep);
        }
        report.snapshot_bytes = checkpoint_bytes;
        self.last_degrade = report.degraded;
        self.commit_epoch();
        report
    }

    /// The component-scoped slice drop of [`MatchSession::update`]'s
    /// phase 4: everything the `invalid` closure touches leaves the
    /// carried state, everything else survives for the next warm run.
    #[allow(clippy::too_many_arguments)]
    fn scoped_rollback(
        &mut self,
        report: &mut UpdateReport,
        applied: &crate::delta::AppliedDelta,
        invalid: &PairSet,
        gone: &FxHashSet<EntityId>,
        old_index: &DependencyIndex,
        guard_tuples: &[(EntityId, EntityId)],
        has_retractions: bool,
    ) {
        // Attribute the closure to (old) evidence components — the
        // unit the rollback is reported and reasoned at. A pair belongs
        // to the component of the first old neighborhood holding it;
        // only the closure's pairs are looked up. The drops below stay
        // at pair/view granularity: probes factorize over ground
        // components, which are *finer* than the neighborhood-level
        // evidence components, so carried state outside the closure
        // survives even inside a touched component.
        report.components_invalidated = old_index.evidence_components_among(
            invalid
                .iter()
                .filter_map(|p| old_index.neighborhoods_of(p).first().copied()),
        ) as u64;

        // Drop exactly the invalidated slice of carried state.
        if has_retractions {
            let stale: Vec<Pair> = self.warm.iter().filter(|p| invalid.contains(*p)).collect();
            for p in stale {
                self.warm.remove(p);
                report.warm_matches_dropped += 1;
            }
        }
        report.messages_dropped =
            self.warm_state.store.drop_messages_touching(invalid.iter()) as u64;
        // Memos of views a retracted/added tuple ran *through* (both
        // endpoints members) are dropped — their probe results were
        // computed against ground structure that changed in place.
        report.memos_dropped = self.warm_state.bank.invalidate(|members, _| {
            guard_tuples.iter().any(|&(a, b)| {
                members.binary_search(&a).is_ok() && members.binary_search(&b).is_ok()
            })
        }) as u64;
        // Views that lost retracted members or candidate links are
        // re-keyed under their surviving identity: probes of
        // invalidated pairs are deleted (they re-issue), everything
        // outside the closure replays — including when the same
        // delta also grows the view (the entity floor resolves the
        // growth at withdrawal). Views whose structure survives but
        // whose pairs intersect the closure are only *tainted*: they
        // re-evaluate (regenerating the messages dropped above) with
        // full probe replay outside the rolled-back ground
        // components.
        let retracted: Vec<Pair> = applied.retracted_pairs.iter().map(|&(p, _)| p).collect();
        report.memos_tainted = (self
            .warm_state
            .bank
            .rekey_churned(gone, &retracted, invalid)
            + self
                .warm_state
                .bank
                .taint(|_, pairs| pairs.iter().any(|&(p, _)| invalid.contains(p))))
            as u64;
        // Certificates mirror the memos: entries of shrunk views
        // re-key under their survivors, and every gap recorded for a
        // pair in the invalid closure (or touching a gone entity) is
        // dropped — its probe re-issues, so a stale margin must not
        // elide it.
        report.certificates_dropped = self.warm_state.certs.rollback(gone, invalid) as u64;
    }
}

/// Closure of `seeds` under the global scorer's ground-interaction
/// adjacency, restricted to the scorer's candidate universe (seeds that
/// are not variables of the ground model stay in the closure but cannot
/// expand). The component-factorization argument: for exact
/// supermodular matchers, evidence outside a pair's closure cannot
/// change its probes or its promotion delta.
fn flood_closure(seeds: &PairSet, scorer: &dyn GlobalScorer) -> PairSet {
    let mut closure = seeds.clone();
    let mut stack: Vec<Pair> = seeds.iter().collect();
    while let Some(p) = stack.pop() {
        for q in scorer.affected_pairs(p) {
            if closure.insert(q) {
                stack.push(q);
            }
        }
    }
    closure
}

/// Why one [`MatchSession::update`] dropped its warm state wholesale
/// and let the next run go cold, instead of the component-scoped
/// rollback. The first four are *policy*: the session's configuration
/// cannot scope a rollback, so every retraction degrades.
/// [`DegradeReason::RollbackBudgetExceeded`] alone is *overload* — the
/// configuration could roll back, but this delta's invalid closure
/// outgrew [`Pipeline::rollback_budget`]. A serving layer's scheduler
/// treats the two classes differently (policy is constant and
/// expected; overload is the backpressure signal), which is why this
/// is a typed enum and not a bool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The matcher is Type-I ([`MatcherChoice::Rules`] or
    /// [`MatcherChoice::Custom`]): no [`GlobalScorer`] to scope the
    /// rollback with.
    TypeIMatcher,
    /// The session was built with `.incremental(false)`: no carried
    /// probe state to roll back *into*, so retractions restart cold.
    IncrementalOff,
    /// The corpus-weighted [`SimilarityKernel::TfIdfCosine`] kernel:
    /// a churned corpus re-weights every score, so nothing carried is
    /// trustworthy (additions degrade too, not just retractions).
    CorpusWeightedKernel,
    /// A non-positive canopy loose threshold: no canopy identity to
    /// diff, so annotation changes cannot be scoped to a closure.
    UnscopedBlocking,
    /// The invalid closure exceeded [`Pipeline::rollback_budget`]:
    /// churn outran the rollback and the session shed to cold. The
    /// overload arm — the only reason that signals load, not policy.
    RollbackBudgetExceeded,
}

impl DegradeReason {
    /// `true` for the overload arm
    /// ([`DegradeReason::RollbackBudgetExceeded`]), `false` for the
    /// four policy arms. The SLO layer's classifier.
    pub fn is_overload(self) -> bool {
        matches!(self, DegradeReason::RollbackBudgetExceeded)
    }

    /// Stable lowercase label for metrics streams.
    pub fn label(self) -> &'static str {
        match self {
            DegradeReason::TypeIMatcher => "type-i-matcher",
            DegradeReason::IncrementalOff => "incremental-off",
            DegradeReason::CorpusWeightedKernel => "corpus-weighted-kernel",
            DegradeReason::UnscopedBlocking => "unscoped-blocking",
            DegradeReason::RollbackBudgetExceeded => "rollback-budget-exceeded",
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What one [`MatchSession::update`] did: the delta's size, the
/// incremental re-block's ledger, and — with retractions — the
/// component-scoped rollback accounting. The rollback counters also
/// surface on the next run's [`RunStats`] (and its `Display` line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Entities the delta added.
    pub entities_added: u64,
    /// Entities the delta retracted.
    pub entities_retracted: u64,
    /// Tuples the delta added.
    pub tuples_added: u64,
    /// Candidate links the delta added.
    pub links_added: u64,
    /// Ground-interaction (evidence) components whose carried state was
    /// invalidated.
    pub components_invalidated: u64,
    /// Carried maximal messages dropped by the rollback.
    pub messages_dropped: u64,
    /// Banked probe memos dropped by the rollback (their view's ground
    /// structure changed).
    pub memos_dropped: u64,
    /// Banked probe memos *tainted*: their view survives byte-identical
    /// but its evidence was rolled back, so the neighborhood
    /// re-evaluates with probe replay instead of being skipped.
    pub memos_tainted: u64,
    /// Banked score-gap certificates dropped by the rollback (their
    /// pair sits in the invalid closure or mentions a retracted entity,
    /// so the probe re-issues instead of replaying against a stale gap).
    pub certificates_dropped: u64,
    /// Warm fixpoint pairs dropped (no longer sound evidence).
    pub warm_matches_dropped: u64,
    /// Exact-kernel evaluations the delta re-block performed.
    pub pairs_reblocked: u64,
    /// Canopies replayed from the memo without an index query.
    pub canopies_replayed: u64,
    /// Canopies recomputed against the inverted index.
    pub canopies_recomputed: u64,
    /// Invariant checks the post-update sweep ran (0 when the session
    /// does not check invariants — see [`Pipeline::check_invariants`]).
    pub invariant_checks: u64,
    /// Invariant violations the post-update sweep found.
    pub invariant_violations: u64,
    /// Why the session dropped its warm state wholesale instead of
    /// rolling back component-by-component, or `None` when it did not
    /// degrade (see [`MatchSession::update`] and [`DegradeReason`]).
    pub degraded: Option<DegradeReason>,
    /// Bytes of the snapshot a defensive store checkpoint wrote during
    /// this update (0 normally: the update only appends a WAL frame).
    pub snapshot_bytes: u64,
    /// WAL frames replayed on behalf of this update — always 0 for a
    /// live update; kept for schema symmetry with the recovery-side
    /// [`RunStats`] counters the metrics pipeline emits.
    pub wal_frames_replayed: u64,
    /// Wall-clock milliseconds spent in recovery on behalf of this
    /// update — always 0 for a live update (see `wal_frames_replayed`).
    pub recovery_ms: u64,
}

impl UpdateReport {
    /// Whether the update dropped its warm state wholesale — for any
    /// [`DegradeReason`]. Shorthand for `self.degraded.is_some()`.
    pub fn degraded_to_cold(&self) -> bool {
        self.degraded.is_some()
    }
}

impl fmt::Display for UpdateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "+{} -{} entities | {} components invalidated | {} messages, {} memos, {} warm \
             matches dropped ({} memos tainted) | {} pairs re-blocked | canopies {} replayed / \
             {} recomputed",
            self.entities_added,
            self.entities_retracted,
            self.components_invalidated,
            self.messages_dropped,
            self.memos_dropped,
            self.warm_matches_dropped,
            self.memos_tainted,
            self.pairs_reblocked,
            self.canopies_replayed,
            self.canopies_recomputed,
        )?;
        if self.certificates_dropped > 0 {
            write!(f, " | {} certificates dropped", self.certificates_dropped)?;
        }
        if self.invariant_checks > 0 {
            write!(
                f,
                " | invariants: {} checks, {} violations",
                self.invariant_checks, self.invariant_violations
            )?;
        }
        if let Some(reason) = self.degraded {
            write!(f, " | degraded to cold ({reason})")?;
        }
        if self.snapshot_bytes > 0 || self.wal_frames_replayed > 0 || self.recovery_ms > 0 {
            write!(
                f,
                " | store: {} snapshot bytes, {} frames replayed, {} ms recovery",
                self.snapshot_bytes, self.wal_frames_replayed, self.recovery_ms
            )?;
        }
        Ok(())
    }
}

impl fmt::Debug for MatchSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatchSession")
            .field("scheme", &self.scheme)
            .field("backend", &self.backend)
            .field("entities", &self.dataset.entities.len())
            .field("candidate_pairs", &self.dataset.candidate_count())
            .field("neighborhoods", &self.cover.len())
            .field("runs", &self.runs)
            .field("warm_matches", &self.warm.len())
            .finish()
    }
}
