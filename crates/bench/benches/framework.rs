//! Criterion benchmarks for the message-passing framework itself:
//! NO-MP / SMP / MMP end-to-end on small generated workloads, plus the
//! paper's running example as a constant-factor canary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use em_bench::prepare;
use em_core::evidence::Evidence;
use em_core::framework::{
    mmp_with_order, no_mp_baseline, smp_with_order, DependencyIndex, MmpConfig,
};
use em_core::testing::paper_example;
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

criterion_group!(benches, bench_paper_example, bench_schemes_on_workload);
criterion_main!(benches);
