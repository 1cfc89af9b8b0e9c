//! The `em::Pipeline` surface: builder validation (every
//! [`em::PipelineError`] variant is constructible), equivalence of the
//! deprecated free-function wrappers with the sessions that replace
//! them, and the warm-start/growth contract on small workloads.

use em::{
    Backend, DatasetDelta, DatasetGrowth, Evidence, MatcherChoice, Pipeline, PipelineError, Scheme,
    SplitPolicy,
};
use em_core::testing::paper_example;
use em_core::{Dataset, EntityId, Pair, SimLevel};
use em_datagen::{generate, DatasetProfile};

fn sharded(shards: usize) -> Backend {
    Backend::Sharded {
        shards,
        split_policy: SplitPolicy::Split,
    }
}

// ---------------------------------------------------------------------
// Builder validation: one test per error variant.
// ---------------------------------------------------------------------

#[test]
fn mmp_with_type_i_matcher_is_rejected() {
    let (dataset, cover, _, _) = paper_example();
    let err = Pipeline::new(dataset)
        .cover(cover)
        .matcher(MatcherChoice::Rules)
        .scheme(Scheme::Mmp)
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::MmpNeedsProbabilistic { matcher: "rules" }
        ),
        "{err}"
    );
}

#[test]
fn walksat_with_incremental_mmp_builds_and_warm_reruns_probe_free() {
    // PR 7 lifted the old IncrementalNeedsExact rejection: approximate
    // inference now runs incremental MMP under the score-gap
    // certificate gate. An unchanged warm re-run is quiescent exactly
    // like the exact matcher's.
    let (dataset, cover, _, _) = paper_example();
    let mut session = Pipeline::new(dataset)
        .cover(cover)
        .matcher(MatcherChoice::MlnWalksat)
        .scheme(Scheme::Mmp)
        .build()
        .expect("walksat + incremental MMP is a coherent combination now");
    let first = session.run();
    assert!(first.stats.conditioned_probes > 0, "the cold run probes");
    let second = session.run();
    assert_eq!(first.matches, second.matches);
    assert_eq!(
        second.stats.conditioned_probes, 0,
        "an unchanged walksat re-run is quiescent under the banked memos"
    );
}

#[test]
fn walksat_under_sharded_mmp_builds_and_agrees_with_sequential() {
    // The old ShardedMmpNeedsExact rejection is lifted too: certificates
    // ride the shard drivers. The sharded walksat run must produce the
    // sequential walksat run's matches (same deterministic seed, and the
    // epoch protocol serializes promotions identically here).
    let (dataset, cover, _, _) = paper_example();
    let sequential = Pipeline::new(dataset.clone())
        .cover(cover.clone())
        .matcher(MatcherChoice::MlnWalksat)
        .scheme(Scheme::Mmp)
        .build()
        .expect("coherent")
        .run();
    let sharded_out = Pipeline::new(dataset)
        .cover(cover)
        .matcher(MatcherChoice::MlnWalksat)
        .scheme(Scheme::Mmp)
        .backend(sharded(2))
        .build()
        .expect("walksat + sharded MMP is a coherent combination now")
        .run();
    assert_eq!(sequential.matches, sharded_out.matches);
}

#[test]
fn infinite_certificate_slack_breaches_every_certificate() {
    // ∞ slack is the probe-everything control arm: identical machinery,
    // but every consulted certificate breaches, so nothing is ever
    // elided — on growth, every delta-touched pair re-probes.
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetDelta::carve(&template, 0..n / 2).apply(&mut base);
    let build = |dataset: Dataset, slack: f64| {
        Pipeline::new(dataset)
            .matcher(MatcherChoice::MlnWalksat)
            .scheme(Scheme::Mmp)
            .certificate_slack(slack)
            .build()
            .expect("infinite slack is a control arm, not an error")
    };
    let mut everything = build(base.clone(), f64::INFINITY);
    let mut certified = build(base, em_core::framework::DEFAULT_CERTIFICATE_SLACK);
    everything.run();
    certified.run();
    let grow = DatasetDelta::carve(&template, n / 2..n);
    everything.update(&grow);
    certified.update(&grow);
    let all = everything.run();
    let gated = certified.run();
    assert_eq!(
        gated.matches, all.matches,
        "the certificate gate must be an elision device, not an \
         approximation device"
    );
    assert_eq!(all.stats.probes_elided, 0);
    assert_eq!(
        all.stats.certificates_checked, all.stats.certificates_breached,
        "∞ slack breaches every certificate it consults"
    );
    assert!(
        gated.stats.conditioned_probes <= all.stats.conditioned_probes,
        "the gated arm never probes more than the control arm"
    );
}

#[test]
fn sharded_no_mp_equals_sequential_no_mp() {
    let (dataset, cover, matcher, _) = paper_example();
    let run = |backend: Backend| {
        Pipeline::new(dataset.clone())
            .cover(cover.clone())
            .matcher(MatcherChoice::custom_probabilistic(matcher.clone()))
            .scheme(Scheme::NoMp)
            .backend(backend)
            .build()
            .expect("NO-MP builds on every backend")
            .run()
    };
    let sequential = run(Backend::Sequential);
    for shards in [1, 2, 4] {
        let out = run(sharded(shards));
        assert_eq!(out.matches, sequential.matches, "shards={shards}");
        assert_eq!(
            out.stats.neighborhoods_processed,
            sequential.stats.neighborhoods_processed
        );
        assert!(matches!(out.backend, em::BackendReport::Sharded(_)));
    }
}

#[test]
fn zero_shards_are_rejected() {
    let (dataset, cover, _, _) = paper_example();
    let err = Pipeline::new(dataset)
        .cover(cover)
        .backend(sharded(0))
        .build()
        .unwrap_err();
    assert!(matches!(err, PipelineError::ZeroShards), "{err}");
}

#[test]
fn zero_memo_capacity_is_rejected() {
    let (dataset, cover, _, _) = paper_example();
    let err = Pipeline::new(dataset)
        .cover(cover)
        .memo_capacity(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, PipelineError::ZeroMemoCapacity), "{err}");
}

#[test]
fn mln_without_coauthor_relation_is_rejected() {
    // A dataset with entities but no `coauthor` relation.
    let mut dataset = Dataset::new();
    let ty = dataset.entities.intern_type("author_ref");
    let name = dataset.entities.intern_attr("name");
    for i in 0..4 {
        let e = dataset.entities.add_entity(ty);
        dataset.entities.set_attr(e, name, format!("author {i}"));
    }
    let err = Pipeline::new(dataset).build().unwrap_err();
    match err {
        PipelineError::MissingRelation { relation } => assert_eq!(relation, "coauthor"),
        other => panic!("expected MissingRelation, got {other}"),
    }
}

#[test]
fn non_total_cover_is_rejected() {
    let (dataset, _, _, _) = paper_example();
    // A cover over only the first two entities loses tuples and pairs.
    let partial = em::Cover::from_neighborhoods(vec![vec![EntityId(0), EntityId(1)]]);
    let err = Pipeline::new(dataset).cover(partial).build().unwrap_err();
    assert!(matches!(err, PipelineError::InvalidCover(_)), "{err}");
}

// ---------------------------------------------------------------------
// Deprecated-wrapper equivalence: the old free functions and the
// sessions that replace them produce byte-identical matches.
// ---------------------------------------------------------------------

#[test]
#[allow(deprecated)]
fn deprecated_wrappers_agree_with_sessions() {
    let (dataset, cover, matcher, expected) = paper_example();
    let none = Evidence::none();
    let build = |scheme: Scheme| {
        Pipeline::new(dataset.clone())
            .cover(cover.clone())
            .matcher(MatcherChoice::custom_probabilistic(matcher.clone()))
            .scheme(scheme)
            .build()
            .expect("coherent")
            .run()
    };

    let nomp = em_core::framework::no_mp(&matcher, &dataset, &cover, &none);
    assert_eq!(nomp.matches, build(Scheme::NoMp).matches);

    let smp = em_core::framework::smp(&matcher, &dataset, &cover, &none);
    assert_eq!(smp.matches, build(Scheme::Smp).matches);

    let mmp = em_core::framework::mmp(
        &matcher,
        &dataset,
        &cover,
        &none,
        &em_core::framework::MmpConfig::default(),
    );
    assert_eq!(mmp.matches, expected);
    assert_eq!(mmp.matches, build(Scheme::Mmp).matches);
}

// ---------------------------------------------------------------------
// Session behaviour: warm re-runs, growth, and the blocking-managed
// cover requirement.
// ---------------------------------------------------------------------

#[test]
fn warm_rerun_is_byte_identical_and_probe_free() {
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let mut session = Pipeline::new(template)
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .build()
        .expect("coherent");
    let first = session.run();
    assert!(!first.warm_started);
    let second = session.run();
    assert!(second.warm_started);
    assert_eq!(second.run_index, 1);
    assert_eq!(first.matches, second.matches);
    assert_eq!(
        second.stats.conditioned_probes, 0,
        "an unchanged warm re-run replays every probe"
    );
}

#[test]
#[allow(deprecated)]
fn extend_grown_session_equals_cold_run_with_fewer_probes() {
    let template = generate(&DatasetProfile::hepth().scaled(0.006)).dataset;
    let n = template.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetGrowth::carve(&template, 0..n / 2).apply(&mut base);
    let mut session = Pipeline::new(base)
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .build()
        .expect("coherent");
    session.run();
    session.extend(&DatasetGrowth::carve(&template, n / 2..n));
    let warm = session.run();
    assert!(warm.warm_started);

    let mut full = Dataset::new();
    DatasetGrowth::carve(&template, 0..n).apply(&mut full);
    let cold = Pipeline::new(full)
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .build()
        .expect("coherent")
        .run();
    assert_eq!(warm.matches, cold.matches, "warm-start must be invisible");
    assert!(
        warm.stats.conditioned_probes < cold.stats.conditioned_probes,
        "warm {} vs cold {}",
        warm.stats.conditioned_probes,
        cold.stats.conditioned_probes
    );
}

#[test]
#[allow(deprecated)]
fn growth_linking_existing_entities_drops_carried_state_but_stays_correct() {
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetGrowth::carve(&template, 0..n).apply(&mut base);
    let mut session = Pipeline::new(base)
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .build()
        .expect("coherent");
    let first = session.run();

    // A batch linking two existing references (a coauthor edge between
    // pre-existing entities) invalidates carried memos; the session must
    // fall back to a full recompute and still agree with a cold run.
    let mut batch = DatasetGrowth::new();
    let (a, b) = {
        let mut refs = template
            .entities
            .ids()
            .filter(|&e| template.entities.attr(e, "name").is_some());
        (refs.next().expect("a ref"), refs.nth(3).expect("a ref"))
    };
    assert!(!batch.has_existing_link());
    batch.add_tuple(
        "coauthor",
        true,
        em::GrowthRef::Existing(a),
        em::GrowthRef::Existing(b),
    );
    assert!(batch.has_existing_link());
    session.extend(&batch);
    let warm = session.run();

    let mut grown = Dataset::new();
    DatasetGrowth::carve(&template, 0..n).apply(&mut grown);
    batch.apply(&mut grown);
    let cold = Pipeline::new(grown)
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .build()
        .expect("coherent")
        .run();
    assert_eq!(warm.matches, cold.matches);
    assert!(first.matches.is_subset(&warm.matches), "growth is monotone");
}

#[test]
#[allow(deprecated)]
#[should_panic(expected = "blocking-managed cover")]
fn extend_on_a_provided_cover_panics() {
    let (dataset, cover, matcher, _) = paper_example();
    let mut session = Pipeline::new(dataset)
        .cover(cover)
        .matcher(MatcherChoice::custom_probabilistic(matcher))
        .build()
        .expect("coherent");
    let mut growth = DatasetGrowth::new();
    growth.add_entity("author_ref", &[("name", "new author")]);
    session.extend(&growth);
}

#[test]
fn provided_evidence_reaches_every_backend() {
    let (dataset, cover, matcher, _) = paper_example();
    let e = EntityId;
    // Block the pair the paper example always matches.
    let blocked = Pair::new(e(5), e(6));
    let negative: em::PairSet = [blocked].into_iter().collect();
    // Positive evidence: a candidate pair (b1, b3), a non-candidate pair
    // inside the first view (a2, b2), and a non-candidate pair no view
    // contains (a1, d1).
    let positive: em::PairSet = [
        Pair::new(e(2), e(4)),
        Pair::new(e(1), e(3)),
        Pair::new(e(0), e(8)),
    ]
    .into_iter()
    .collect();
    let run = |scheme, backend| {
        Pipeline::new(dataset.clone())
            .cover(cover.clone())
            .matcher(MatcherChoice::custom_probabilistic(matcher.clone()))
            .scheme(scheme)
            .backend(backend)
            .evidence(Evidence::new(positive.clone(), negative.clone()))
            .build()
            .expect("coherent")
            .run()
            .matches
    };
    let mut outputs = Vec::new();
    for scheme in [Scheme::NoMp, Scheme::Smp, Scheme::Mmp] {
        let sequential = run(scheme, Backend::Sequential);
        assert!(!sequential.contains(blocked), "{scheme:?}");
        assert!(positive.is_subset(&sequential), "{scheme:?}");
        assert_eq!(sequential, run(scheme, sharded(2)), "{scheme:?} sharded(2)");
        outputs.push(sequential);
    }
    // (b1, b3) makes (c1, c3) worth matching inside the second view;
    // only MMP's maximal messages recover (a1, a2)-(b2, b3) and (c2, c3).
    let mut smp = positive.clone();
    smp.insert(Pair::new(e(5), e(7)));
    assert_eq!(outputs[0], smp, "NO-MP");
    assert_eq!(outputs[1], smp, "SMP");
    let mut mmp = smp;
    mmp.extend([
        Pair::new(e(0), e(1)),
        Pair::new(e(3), e(4)),
        Pair::new(e(6), e(7)),
    ]);
    assert_eq!(outputs[2], mmp, "MMP");
}

// ---------------------------------------------------------------------
// The bidirectional `DatasetDelta` surface: wrapper equivalence with
// the deprecated growth API, retraction soundness, and the degrade
// paths.
// ---------------------------------------------------------------------

fn mmp_session(dataset: Dataset) -> em::MatchSession {
    Pipeline::new(dataset)
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .build()
        .expect("coherent")
}

#[test]
#[allow(deprecated)]
fn deprecated_extend_wrapper_equals_update() {
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let growth = DatasetGrowth::carve(&template, n / 2..n);
    let delta = DatasetDelta::from_growth(&growth);

    let mut base = Dataset::new();
    DatasetGrowth::carve(&template, 0..n / 2).apply(&mut base);
    let mut via_extend = mmp_session(base.clone());
    via_extend.run();
    via_extend.extend(&growth);
    let extend_out = via_extend.run();

    let mut via_update = mmp_session(base);
    via_update.run();
    let report = via_update.update(&delta);
    let update_out = via_update.run();

    assert_eq!(extend_out.matches, update_out.matches);
    assert_eq!(
        extend_out.stats.conditioned_probes, update_out.stats.conditioned_probes,
        "the wrapper must not change the work either"
    );
    assert!(!report.degraded_to_cold());
    assert_eq!(report.entities_retracted, 0);
    assert_eq!(report.entities_added, growth.entities.len() as u64);
}

#[test]
fn update_with_retractions_equals_cold_run() {
    let template = generate(&DatasetProfile::hepth().scaled(0.005)).dataset;
    let n = template.entities.len() as u32;
    let mut mirror = Dataset::new();
    DatasetDelta::carve(&template, 0..n).apply(&mut mirror);
    let mut session = mmp_session(mirror.clone());
    let first = session.run();

    // Retract every 13th entity plus one explicit tuple and one link.
    let mut delta = DatasetDelta::new();
    for e in mirror.entities.ids().filter(|e| e.0 % 13 == 5) {
        delta.retract_entity(e);
    }
    let report = session.update(&delta);
    delta.apply(&mut mirror);
    assert!(report.entities_retracted > 0);
    assert!(!report.degraded_to_cold(), "exact MMP rolls back");

    let warm = session.run();
    let cold = mmp_session(mirror).run();
    assert_eq!(
        warm.matches, cold.matches,
        "post-retraction warm run must be byte-identical to cold"
    );
    assert!(
        warm.stats.conditioned_probes <= cold.stats.conditioned_probes,
        "rollback must not probe more than cold ({} > {})",
        warm.stats.conditioned_probes,
        cold.stats.conditioned_probes
    );
    assert!(
        !first.matches.is_subset(&warm.matches) || warm.matches.len() <= first.matches.len(),
        "retraction is non-monotone in general"
    );
    // Rollback accounting surfaces on the next run's stats too.
    assert_eq!(
        warm.stats.components_invalidated,
        report.components_invalidated
    );
    assert_eq!(warm.stats.messages_dropped, report.messages_dropped);
    assert_eq!(warm.stats.pairs_reblocked, report.pairs_reblocked);
}

#[test]
fn retracting_a_tuple_rolls_back_its_region() {
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let mut mirror = Dataset::new();
    DatasetDelta::carve(&template, 0..n).apply(&mut mirror);
    let mut session = mmp_session(mirror.clone());
    session.run();

    let co = mirror.relations.relation_id("coauthor").expect("coauthor");
    let tuples: Vec<(EntityId, EntityId)> = mirror.relations.tuples(co).to_vec();
    let mut delta = DatasetDelta::new();
    for &(a, b) in tuples.iter().take(4) {
        delta.retract_tuple("coauthor", a, b);
        assert!(mirror.relations.remove_tuple(co, a, b));
    }
    let report = session.update(&delta);

    let warm = session.run();
    let cold = mmp_session(mirror).run();
    assert_eq!(warm.matches, cold.matches);
    assert!(!report.degraded_to_cold());
    assert!(
        warm.stats.conditioned_probes <= cold.stats.conditioned_probes,
        "{} > {}",
        warm.stats.conditioned_probes,
        cold.stats.conditioned_probes
    );
}

#[test]
fn retracting_an_asserted_link_stays_gone_and_equals_cold() {
    // A caller-asserted link between records the kernel would never
    // co-locate: retraction removes it for good (blocking cannot
    // re-derive it) and the session still equals a cold run. A
    // kernel-derived candidacy, by contrast, is re-derived on both
    // sides — use negative evidence to forbid such a match.
    let mut template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let refs: Vec<EntityId> = template.entities.ids().take(64).collect();
    let (far_a, far_b) = (refs[0], refs[63]);
    let link = Pair::new(far_a, far_b);
    template.set_similar(link, SimLevel(3));

    let mut session = mmp_session(template.clone());
    session.run();
    assert!(session.dataset().is_candidate(link));

    let mut delta = DatasetDelta::new();
    delta.retract_link(link);
    session.update(&delta);
    let warm = session.run();

    let mut mirror = template;
    mirror.retract_similar(link).expect("asserted above");
    let cold = mmp_session(mirror).run();
    assert_eq!(warm.matches, cold.matches);
}

#[test]
fn retracted_kernel_link_stays_suppressed_across_three_updates() {
    // A *kernel-derived* candidacy: without the session's suppression
    // list every later re-block would re-derive it and the caller's
    // retraction would silently evaporate (the PR 5 leftover).
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetDelta::carve(&template, 0..n / 2).apply(&mut base);
    let mut session = mmp_session(base);
    session.run();
    let link = session
        .dataset()
        .candidate_pairs()
        .map(|(p, _)| p)
        .next()
        .expect("blocking derives candidates on hepth");

    let mut delta = DatasetDelta::new();
    delta.retract_link(link);
    session.update(&delta);
    session.run();
    assert!(!session.dataset().is_candidate(link));

    // Three growth updates, each re-blocking a region the kernel uses
    // to re-derive the pair's canopy — the session must remember the
    // retraction through every one of them.
    let step = (n - n / 2) / 3;
    for i in 0..3u32 {
        let lo = n / 2 + i * step;
        let hi = if i == 2 { n } else { lo + step };
        session.update(&DatasetDelta::carve(&template, lo..hi));
        session.run();
        assert!(
            !session.dataset().is_candidate(link),
            "update {i}: retracted link re-entered via re-block"
        );
        assert_eq!(session.suppressed_links(), vec![link]);
    }

    // Re-asserting lifts suppression: the caller's latest intent wins.
    let mut readd = DatasetDelta::new();
    readd.add_link(
        em::GrowthRef::Existing(link.lo()),
        em::GrowthRef::Existing(link.hi()),
        SimLevel(2),
    );
    session.update(&readd);
    assert!(session.dataset().is_candidate(link));
    assert!(session.suppressed_links().is_empty());
}

#[test]
fn type_i_sessions_degrade_to_cold_on_retraction_but_stay_correct() {
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let mut mirror = Dataset::new();
    DatasetDelta::carve(&template, 0..n).apply(&mut mirror);
    let build = |dataset: Dataset| {
        Pipeline::new(dataset)
            .matcher(MatcherChoice::Rules)
            .scheme(Scheme::Smp)
            .build()
            .expect("coherent")
    };
    let mut session = build(mirror.clone());
    session.run();
    let mut delta = DatasetDelta::new();
    let victim = mirror.entities.ids().nth(3).expect("entities");
    delta.retract_entity(victim);
    let report = session.update(&delta);
    assert!(
        report.degraded_to_cold(),
        "a Type-I matcher has no scorer to scope the rollback with"
    );
    assert_eq!(report.degraded, Some(em::DegradeReason::TypeIMatcher));
    assert!(!report.degraded.unwrap().is_overload(), "policy, not load");
    assert_eq!(session.last_degrade(), report.degraded);
    delta.apply(&mut mirror);
    let warm = session.run();
    assert!(!warm.warm_started, "degrade means the next run is cold");
    let cold = build(mirror).run();
    assert_eq!(warm.matches, cold.matches);
}

#[test]
fn reset_warm_clears_the_pair_score_cache() {
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetDelta::carve(&template, 0..n / 2).apply(&mut base);
    let delta = DatasetDelta::carve(&template, n / 2..n);

    // Warm path: the growth re-block only scores pairs touching new
    // entities.
    let mut warm_session = mmp_session(base.clone());
    warm_session.run();
    let warm_scored = warm_session.update(&delta).pairs_reblocked;

    // Reset path: reset_warm() must also clear the pair-score cache and
    // the canopy memo (it used to leave both populated), so the same
    // update re-scores from scratch like a truly cold session would.
    let mut reset_session = mmp_session(base);
    reset_session.run();
    reset_session.reset_warm();
    let reset_scored = reset_session.update(&delta).pairs_reblocked;
    assert!(
        reset_scored > warm_scored,
        "a reset session must re-score what the warm session replays \
         ({reset_scored} <= {warm_scored})"
    );
    let next = reset_session.run();
    assert!(!next.warm_started, "reset also drops the warm fixpoint");
}

#[test]
fn non_positive_loose_threshold_updates_without_panicking() {
    // loose <= 0 has no canopy identity to diff: build() and update()
    // both fall back to the full blocking pass, and retraction degrades
    // to cold instead of attempting a scoped rollback.
    let template = generate(&DatasetProfile::hepth().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    let mut mirror = Dataset::new();
    DatasetDelta::carve(&template, 0..n / 2).apply(&mut mirror);
    let blocking = em::BlockingConfig {
        canopy: em_blocking::CanopyParams {
            loose: 0.0,
            ..Default::default()
        },
        kernel: em::SimilarityKernel::AuthorName,
        ..Default::default()
    };
    let build = |dataset: Dataset| {
        Pipeline::new(dataset)
            .blocking(blocking.clone())
            .matcher(MatcherChoice::MlnExact)
            .scheme(Scheme::Mmp)
            .build()
            .expect("coherent")
    };
    let mut session = build(mirror.clone());
    session.run();
    // Additions-only update works (the pre-delta behaviour).
    let grow = DatasetDelta::carve(&template, n / 2..n / 2 + 4);
    let report = session.update(&grow);
    grow.apply(&mut mirror);
    assert!(
        !report.degraded_to_cold(),
        "pure growth keeps the warm state"
    );
    session.run();
    // A retraction degrades but stays correct.
    let victim = mirror.entities.ids().next().expect("entities");
    let mut fix = DatasetDelta::new();
    fix.retract_entity(victim);
    let report = session.update(&fix);
    fix.apply(&mut mirror);
    assert_eq!(report.degraded, Some(em::DegradeReason::UnscopedBlocking));
    let warm = session.run();
    let cold = build(mirror).run();
    assert_eq!(warm.matches, cold.matches);
}

#[test]
fn rollback_budget_exceeded_sheds_to_cold_and_stays_correct() {
    // A zero budget makes any non-empty invalid closure an overload:
    // the session sheds its warm state wholesale (always sound) and
    // reports the one overload-class DegradeReason.
    let template = generate(&DatasetProfile::hepth().scaled(0.005)).dataset;
    let n = template.entities.len() as u32;
    let mut mirror = Dataset::new();
    DatasetDelta::carve(&template, 0..n).apply(&mut mirror);
    let mut session = Pipeline::new(mirror.clone())
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .rollback_budget(0)
        .build()
        .expect("coherent");
    session.run();

    let mut delta = DatasetDelta::new();
    for e in mirror.entities.ids().filter(|e| e.0 % 13 == 5) {
        delta.retract_entity(e);
    }
    let report = session.update(&delta);
    delta.apply(&mut mirror);
    assert_eq!(
        report.degraded,
        Some(em::DegradeReason::RollbackBudgetExceeded),
        "a zero budget must shed this retraction's closure"
    );
    assert!(report.degraded.unwrap().is_overload());
    assert!(report.warm_matches_dropped > 0, "the shed is counted");
    assert_eq!(session.status().last_degrade, report.degraded);

    let warm = session.run();
    assert!(
        !warm.warm_started,
        "shed-to-cold means the next run is cold"
    );
    let cold = mmp_session(mirror).run();
    assert_eq!(warm.matches, cold.matches, "shedding is always sound");
}

#[test]
fn unbudgeted_session_never_reports_overload() {
    // The default budget is unbounded: the same retraction rolls back
    // component-scoped, and the overload reason never appears.
    let template = generate(&DatasetProfile::hepth().scaled(0.005)).dataset;
    let n = template.entities.len() as u32;
    let mut mirror = Dataset::new();
    DatasetDelta::carve(&template, 0..n).apply(&mut mirror);
    let mut session = mmp_session(mirror.clone());
    session.run();
    let mut delta = DatasetDelta::new();
    for e in mirror.entities.ids().filter(|e| e.0 % 13 == 5) {
        delta.retract_entity(e);
    }
    let report = session.update(&delta);
    assert_eq!(report.degraded, None);
    assert_eq!(session.last_degrade(), None);
}

#[test]
fn matches_and_status_serve_the_last_fixpoint_between_updates() {
    let template = generate(&DatasetProfile::hepth().scaled(0.005)).dataset;
    let n = template.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetDelta::carve(&template, 0..n / 2).apply(&mut base);
    let mut session = mmp_session(base);

    // Before the first run the query path serves the empty fixpoint.
    assert!(session.matches().is_empty());
    assert_eq!(session.status().warm_matches, 0);
    assert_eq!(session.status().runs, 0);

    let first = session.run();
    // The borrowed accessor is exactly the last outcome's match set.
    assert_eq!(*session.matches(), first.matches);
    let status = session.status();
    assert_eq!(status.runs, 1);
    assert_eq!(status.warm_matches, first.matches.len() as u64);
    assert_eq!(status.state_epoch, session.state_epoch());
    assert_eq!(status.last_degrade, None);
    assert!(!status.durable);

    // A growth-only update between runs leaves the served fixpoint
    // untouched: a query between updates sees exactly the previous
    // run's matches.
    let grow = DatasetDelta::carve(&template, n / 2..n / 2 + 6);
    session.update(&grow);
    assert_eq!(
        *session.matches(),
        first.matches,
        "a query between update and run serves the previous fixpoint"
    );
    assert_eq!(
        session.status().warm_matches,
        first.matches.len() as u64,
        "status counts the served fixpoint, not the pending re-block"
    );

    let second = session.run();
    assert_eq!(*session.matches(), second.matches);
    assert_eq!(session.status().runs, 2);
}

#[test]
#[should_panic(expected = "blocking-managed cover")]
fn update_on_a_provided_cover_panics() {
    let (dataset, cover, matcher, _) = paper_example();
    let mut session = Pipeline::new(dataset)
        .cover(cover)
        .matcher(MatcherChoice::custom_probabilistic(matcher))
        .build()
        .expect("coherent");
    let mut delta = DatasetDelta::new();
    delta.add_entity("author_ref", &[("name", "new author")]);
    session.update(&delta);
}

#[test]
fn carved_growth_is_append_only_by_construction() {
    let template = generate(&DatasetProfile::dblp().scaled(0.004)).dataset;
    let n = template.entities.len() as u32;
    for cut in [n / 3, n / 2, 2 * n / 3] {
        assert!(!DatasetGrowth::carve(&template, cut..n).has_existing_link());
    }
}

#[test]
fn pre_annotated_similar_pairs_survive_carving() {
    let mut template = generate(&DatasetProfile::dblp().scaled(0.004)).dataset;
    let refs: Vec<EntityId> = template.entities.ids().take(4).collect();
    template.set_similar(Pair::new(refs[0], refs[1]), SimLevel(2));
    template.set_similar(Pair::new(refs[2], refs[3]), SimLevel(3));
    let n = template.entities.len() as u32;
    let mut rebuilt = Dataset::new();
    DatasetGrowth::carve(&template, 0..n / 2).apply(&mut rebuilt);
    DatasetGrowth::carve(&template, n / 2..n).apply(&mut rebuilt);
    assert_eq!(
        rebuilt.similarity(Pair::new(refs[0], refs[1])),
        Some(SimLevel(2))
    );
    assert_eq!(
        rebuilt.similarity(Pair::new(refs[2], refs[3])),
        Some(SimLevel(3))
    );
}
