//! End-to-end integration tests spanning every crate through the
//! `em::Pipeline` front door: generation → blocking → cover → matchers →
//! framework → evaluation → sharded execution.

use em::{Backend, Evidence, MatcherChoice, Pipeline, Scheme};
use em_bench::prepare;
use em_core::Matcher;
use em_eval::{pairwise_metrics, soundness_completeness, transitive_closure, upper_bound};

/// A session over an already prepared workload (dataset pre-annotated,
/// cover pre-built — the bench harness's blocking), so per-scheme
/// sessions don't re-block.
fn session(w: &em_bench::Workload, scheme: Scheme, backend: Backend) -> em::MatchSession {
    Pipeline::new(w.dataset.clone())
        .cover(w.cover.clone())
        .matcher(MatcherChoice::MlnExact)
        .scheme(scheme)
        .backend(backend)
        .build()
        .expect("exact MLN is coherent on every backend")
}

#[test]
fn hepth_pipeline_reproduces_paper_ordering() {
    let w = prepare("hepth", 0.015, Some(21));
    let nomp = session(&w, Scheme::NoMp, Backend::Sequential).run();
    let smp = session(&w, Scheme::Smp, Backend::Sequential).run();
    let mmp = session(&w, Scheme::Mmp, Backend::Sequential).run();
    let full = w
        .mln_matcher()
        .match_view(&w.dataset.full_view(), &Evidence::none());

    // Soundness (Theorems 2 and 4): every scheme ⊆ full run.
    assert!(nomp.matches.is_subset(&full));
    assert!(smp.matches.is_subset(&full));
    assert!(mmp.matches.is_subset(&full));

    // Monotone scheme ordering.
    assert!(nomp.matches.is_subset(&smp.matches));
    assert!(smp.matches.is_subset(&mmp.matches));

    // The paper's empirical headline: MMP is complete.
    assert_eq!(
        mmp.matches, full,
        "MMP must reproduce the full holistic run"
    );
}

#[test]
fn dblp_pipeline_schemes_are_sound_and_mmp_complete() {
    let w = prepare("dblp", 0.01, Some(5));
    let full = w
        .mln_matcher()
        .match_view(&w.dataset.full_view(), &Evidence::none());
    let mmp = session(&w, Scheme::Mmp, Backend::Sequential).run();
    let report = soundness_completeness(&mmp.matches, &full);
    assert_eq!(report.soundness, 1.0);
    assert_eq!(report.completeness, 1.0);
}

#[test]
fn parallel_equals_sequential_on_generated_workload() {
    // NO-MP and SMP on the sharded (parallel) backend reach the
    // sequential fixpoint, and the epoch traces account for every
    // evaluation. Sharded MMP is the next test's.
    let w = prepare("dblp", 0.006, Some(13));
    for scheme in [Scheme::NoMp, Scheme::Smp] {
        let sequential = session(&w, scheme, Backend::Sequential).run();
        for shards in [1, 4] {
            let backend = Backend::Sharded {
                shards,
                split_policy: em::SplitPolicy::Split,
            };
            let parallel = session(&w, scheme, backend).run();
            assert_eq!(
                parallel.matches, sequential.matches,
                "{scheme:?} shards={shards}"
            );
            match parallel.backend {
                em::BackendReport::Sharded(report) => {
                    let evaluations: usize = report.epoch_traces.iter().map(Vec::len).sum();
                    assert_eq!(evaluations as u64, parallel.stats.neighborhoods_processed);
                }
                other => panic!("expected a sharded report, got {other:?}"),
            }
        }
    }
}

#[test]
fn sharded_session_equals_sequential_and_replans_on_rerun() {
    let w = prepare("dblp", 0.006, Some(13));
    let sequential = session(&w, Scheme::Mmp, Backend::Sequential).run();
    let mut sharded = session(
        &w,
        Scheme::Mmp,
        Backend::Sharded {
            shards: 4,
            split_policy: em::SplitPolicy::Split,
        },
    );
    let first = sharded.run();
    assert_eq!(first.matches, sequential.matches);
    let estimate_costs = sharded.shard_plan().expect("sharded session").costs.clone();

    // The re-run rebalances from measured busy times and warm-starts
    // from the fixpoint — byte-identical, and the plan really changed
    // its cost basis.
    let second = sharded.run();
    assert!(second.warm_started);
    assert_eq!(second.matches, sequential.matches);
    let replanned_costs = &sharded.shard_plan().expect("sharded session").costs;
    assert_ne!(
        &estimate_costs, replanned_costs,
        "second run must plan from measured costs, not estimates"
    );
    assert!(
        second.stats.conditioned_probes <= first.stats.conditioned_probes,
        "warm re-run cannot probe more"
    );
}

#[test]
fn rules_matcher_smp_is_complete_wrt_full_run() {
    // Appendix C's result: SMP with RULES matches the full run exactly.
    let w = prepare("dblp", 0.008, Some(3));
    let out = Pipeline::new(w.dataset.clone())
        .cover(w.cover.clone())
        .matcher(MatcherChoice::Rules)
        .scheme(Scheme::Smp)
        .build()
        .expect("RULES under SMP is coherent")
        .run();
    let full = w
        .rules_matcher()
        .match_view(&w.dataset.full_view(), &Evidence::none());
    let report = soundness_completeness(&out.matches, &full);
    assert_eq!(report.soundness, 1.0, "SMP sound");
    assert_eq!(report.completeness, 1.0, "SMP complete for RULES");
}

#[test]
fn ub_bounds_the_full_run_recall() {
    let w = prepare("hepth", 0.01, Some(8));
    let matcher = w.mln_matcher();
    let scorer = em_core::ProbabilisticMatcher::global_scorer(&matcher, &w.dataset);
    let ub = upper_bound(&w.dataset, scorer.as_ref(), w.truth_oracle());
    let full = matcher.match_view(&w.dataset.full_view(), &Evidence::none());
    let true_pairs = w.truth.true_pair_count();
    let ub_recall = pairwise_metrics(&ub, w.truth_oracle(), true_pairs).recall();
    let full_recall = pairwise_metrics(&full, w.truth_oracle(), true_pairs).recall();
    assert!(
        ub_recall >= full_recall - 1e-9,
        "UB recall {ub_recall} must bound full-run recall {full_recall}"
    );
}

#[test]
fn closure_of_mmp_output_is_consistent_with_clusters() {
    let w = prepare("dblp", 0.006, Some(2));
    let out = session(&w, Scheme::Mmp, Backend::Sequential).run();
    let closed = transitive_closure(&out.matches);
    assert!(out.matches.is_subset(&closed));
    // Idempotent closure.
    assert_eq!(transitive_closure(&closed), closed);
}

#[test]
fn negative_evidence_is_respected_end_to_end() {
    let w = prepare("dblp", 0.006, Some(17));
    let baseline = session(&w, Scheme::Smp, Backend::Sequential).run();
    let Some(blocked) = baseline.matches.iter().next() else {
        panic!("expected at least one match");
    };
    let negative: em::PairSet = [blocked].into_iter().collect();
    let out = Pipeline::new(w.dataset.clone())
        .cover(w.cover.clone())
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Smp)
        .evidence(Evidence::new(em::PairSet::new(), negative))
        .build()
        .expect("coherent")
        .run();
    assert!(!out.matches.contains(blocked));
}
