//! Criterion microbenchmarks for the substrates: similarity kernels,
//! canopy blocking, max-flow, MLN grounding + inference, RULES fixpoint.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use em_blocking::{
    block_dataset_with_features, canopies, BlockingConfig, CanopyParams, SimilarityKernel,
};
use em_core::evidence::Evidence;
use em_core::{Dataset, EntityId, Matcher, Pair, SimLevel};
use em_datagen::{generate, DatasetProfile};
use em_mln::{ground, solve_map, MapSolver, MlnMatcher, MlnModel};
use em_rules::{paper_rules, RulesMatcher};
use em_similarity::{author_name_score, jaro_winkler, levenshtein, soundex};
use std::hint::black_box;

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    let pairs = [
        ("vibhor rastogi", "v rastogi"),
        ("nilesh dalvi", "nilesh dalvi"),
        ("minos garofalakis", "minos garofalaki"),
        // Non-ASCII names take the decoded-`char` path.
        ("jürgen müller", "jurgen müller"),
    ];
    group.bench_function("jaro_winkler", |b| {
        b.iter(|| {
            for (x, y) in pairs {
                black_box(jaro_winkler(black_box(x), black_box(y)));
            }
        })
    });
    group.bench_function("levenshtein", |b| {
        b.iter(|| {
            for (x, y) in pairs {
                black_box(levenshtein(black_box(x), black_box(y)));
            }
        })
    });
    group.bench_function("author_name_score", |b| {
        b.iter(|| {
            for (x, y) in pairs {
                black_box(author_name_score(black_box(x), black_box(y)));
            }
        })
    });
    group.bench_function("soundex", |b| {
        b.iter(|| black_box(soundex(black_box("garofalakis"))))
    });
    group.finish();
}

fn bench_canopy(c: &mut Criterion) {
    let generated = generate(&DatasetProfile::dblp().scaled(0.01));
    let points: Vec<(EntityId, String)> = generated
        .references
        .iter()
        .map(|&r| {
            (
                r,
                generated
                    .dataset
                    .entities
                    .attr(r, "name")
                    .expect("name")
                    .to_owned(),
            )
        })
        .collect();
    let mut group = c.benchmark_group("blocking");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("canopies", points.len()),
        &points,
        |b, points| b.iter(|| black_box(canopies(points, &CanopyParams::default()))),
    );
    // The whole blocking pipeline as `em_bench::prepare` runs it:
    // canopies over the render-time feature cache, AuthorName scoring,
    // cover assembly and validation.
    let world = generate(&DatasetProfile::dblp().scaled(0.05).with_seed(7));
    let config = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };
    group.bench_with_input(
        BenchmarkId::new("pipeline", world.references.len()),
        &world,
        |b, world| {
            b.iter_batched(
                || world.dataset.clone(),
                |mut dataset| {
                    black_box(
                        block_dataset_with_features(&mut dataset, &config, Some(&world.features))
                            .expect("total cover"),
                    )
                },
                BatchSize::LargeInput,
            )
        },
    );
    group.finish();
}

/// A chain instance: n refs in pairs connected through coauthor edges.
fn chain_dataset(pairs: u32) -> (Dataset, MlnModel) {
    chains_dataset(1, pairs, SimLevel(1))
}

/// `chains` disjoint chain instances of `pairs` pairs each, every pair
/// similar at `level`: one ground component per chain.
fn chains_dataset(chains: u32, pairs: u32, level: SimLevel) -> (Dataset, MlnModel) {
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..chains * pairs * 2 {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    for c in 0..chains {
        let first = c * pairs * 2;
        for i in 0..pairs {
            let (a, b) = (first + 2 * i, first + 2 * i + 1);
            ds.set_similar(Pair::new(EntityId(a), EntityId(b)), level);
            if i + 1 < pairs {
                ds.relations.add_tuple(co, EntityId(a), EntityId(a + 2));
                ds.relations.add_tuple(co, EntityId(b), EntityId(b + 2));
            }
        }
    }
    let model = MlnModel::paper_model(co);
    (ds, model)
}

fn bench_mln(c: &mut Criterion) {
    let mut group = c.benchmark_group("mln");
    for pairs in [32u32, 128, 512] {
        let (ds, model) = chain_dataset(pairs);
        group.bench_with_input(BenchmarkId::new("ground", pairs), &ds, |b, ds| {
            b.iter(|| black_box(ground(&model, &ds.full_view())))
        });
        let gm = ground(&model, &ds.full_view());
        group.bench_with_input(BenchmarkId::new("solve_map", pairs), &gm, |b, gm| {
            b.iter(|| black_box(solve_map(gm, &Evidence::none())))
        });
    }
    // Probes. A single chain has no pair outside its base optimum (every
    // probe of it is an early return), so probes run on many two-pair
    // chains: the cost should not grow with the number of components
    // around the probed one.
    for components in [32u32, 128, 512] {
        let (ds, model) = chains_dataset(components, 2, SimLevel(2));
        let gm = ground(&model, &ds.full_view());
        let last = 4 * (components - 1);
        let probe = Pair::new(EntityId(last), EntityId(last + 1));
        group.bench_with_input(
            BenchmarkId::new("probe_components", components),
            &gm,
            |b, gm| {
                let solver = MapSolver::new(gm, &Evidence::none());
                assert!(!solver.base_solution().contains(probe), "a real probe");
                b.iter(|| black_box(solver.probe_delta(black_box(probe))))
            },
        );
    }
    group.finish();
}

fn bench_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("rules");
    for pairs in [32u32, 128] {
        let (ds, _) = chain_dataset(pairs);
        let matcher = RulesMatcher::new(paper_rules());
        group.bench_with_input(BenchmarkId::new("fixpoint", pairs), &ds, |b, ds| {
            b.iter_batched(
                || ds.full_view(),
                |view| black_box(matcher.match_view(&view, &Evidence::none())),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_matcher_end_to_end(c: &mut Criterion) {
    let (ds, model) = chain_dataset(128);
    let matcher = MlnMatcher::new(model);
    c.bench_function("mln/match_view_128", |b| {
        b.iter_batched(
            || ds.full_view(),
            |view| black_box(matcher.match_view(&view, &Evidence::none())),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_similarity,
    bench_canopy,
    bench_mln,
    bench_rules,
    bench_matcher_end_to_end
);
criterion_main!(benches);
