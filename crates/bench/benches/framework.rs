//! Criterion benchmarks for the message-passing framework itself:
//! NO-MP / SMP / MMP end-to-end on small generated workloads, NO-MP
//! against growing caller evidence (a neighborhood's local evidence
//! should cost its members' evidence degree, not |evidence|), plus the
//! paper's running example as a constant-factor canary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use em_bench::prepare;
use em_core::evidence::Evidence;
use em_core::framework::{
    mmp_with_order, no_mp_baseline, smp_with_order, DependencyIndex, MmpConfig,
};
use em_core::pair::{Pair, PairSet};
use em_core::testing::paper_example;
use em_core::EntityId;
use em_shard::{estimate_costs, shard_smp_planned_opts, RuntimeOptions, ShardPlan, SplitPolicy};
use std::hint::black_box;

fn bench_paper_example(c: &mut Criterion) {
    let (ds, cover, matcher, _) = paper_example();
    let none = Evidence::none();
    let mut group = c.benchmark_group("paper_example");
    group.bench_function("no_mp", |b| {
        b.iter(|| black_box(no_mp_baseline(&matcher, &ds, &cover, &none)))
    });
    group.bench_function("smp", |b| {
        b.iter(|| black_box(smp_with_order(&matcher, &ds, &cover, &none, None)))
    });
    group.bench_function("mmp", |b| {
        b.iter(|| {
            black_box(mmp_with_order(
                &matcher,
                &ds,
                &cover,
                &none,
                &MmpConfig::default(),
                None,
            ))
        })
    });
    group.finish();
}

fn bench_schemes_on_workload(c: &mut Criterion) {
    let w = prepare("dblp", 0.005, Some(11));
    let matcher = w.mln_matcher();
    let none = Evidence::none();
    let mut group = c.benchmark_group("dblp_0.005");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("no_mp", w.cover.len()), &w, |b, w| {
        b.iter(|| black_box(no_mp_baseline(&matcher, &w.dataset, &w.cover, &none)))
    });
    group.bench_with_input(BenchmarkId::new("smp", w.cover.len()), &w, |b, w| {
        b.iter(|| black_box(smp_with_order(&matcher, &w.dataset, &w.cover, &none, None)))
    });
    group.bench_with_input(BenchmarkId::new("mmp", w.cover.len()), &w, |b, w| {
        b.iter(|| {
            black_box(mmp_with_order(
                &matcher,
                &w.dataset,
                &w.cover,
                &none,
                &MmpConfig::default(),
                None,
            ))
        })
    });
    let index = DependencyIndex::build(&w.dataset, &w.cover);
    let plan = ShardPlan::build(
        &index,
        4,
        &estimate_costs(&w.dataset, &w.cover),
        SplitPolicy::Split,
    );
    group.bench_with_input(
        BenchmarkId::new("sharded_smp_4", w.cover.len()),
        &w,
        |b, w| {
            b.iter(|| {
                black_box(shard_smp_planned_opts(
                    &matcher,
                    &w.dataset,
                    &w.cover,
                    &index,
                    &plan,
                    &none,
                    &RuntimeOptions::default(),
                ))
            })
        },
    );
    group.finish();
}

/// `count` distinct pseudo-random pairs over the entity ids in `ids`.
fn spread_pairs(ids: std::ops::Range<u32>, count: usize) -> PairSet {
    let mut out = PairSet::with_capacity(count);
    let mut x: u64 = 1;
    while out.len() < count {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let a = ids.start + (x >> 33) as u32 % ids.len() as u32;
        let b = ids.start + (x >> 13) as u32 % ids.len() as u32;
        if a != b {
            out.insert(Pair::new(EntityId(a), EntityId(b)));
        }
    }
    out
}

/// NO-MP over the `dblp_0.005` cover with caller evidence about 1,000
/// records outside it. Every view's local evidence is empty at every
/// size, so the matcher's work is fixed and only what a first visit
/// pays to find its evidence can grow with the evidence.
fn bench_caller_evidence(c: &mut Criterion) {
    let w = prepare("dblp", 0.005, Some(11));
    let matcher = w.mln_matcher();
    let mut dataset = w.dataset.clone();
    let first = dataset.entities.len() as u32;
    let ty = dataset.entities.intern_type("author_ref");
    for _ in 0..1_000 {
        dataset.entities.add_entity(ty);
    }
    let mut group = c.benchmark_group("dblp_0.005_evidence");
    group.sample_size(10);
    for pairs in [1_000usize, 10_000, 50_000] {
        let evidence = Evidence::positive(spread_pairs(first..first + 1_000, pairs));
        group.bench_with_input(BenchmarkId::new("no_mp", pairs), &evidence, |b, ev| {
            b.iter(|| black_box(no_mp_baseline(&matcher, &dataset, &w.cover, ev)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_paper_example,
    bench_schemes_on_workload,
    bench_caller_evidence
);
criterion_main!(benches);
