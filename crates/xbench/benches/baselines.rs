//! Criterion bench: the backends behind the `DistanceOracle` trait —
//! hopset oracle vs sequential Dijkstra vs Δ-stepping — plus bare
//! hop-limited Bellman–Ford (the E10 comparison). The bare rows run
//! `plain_bellman_ford`, the same distance-only kernel the hopset rows
//! run.

use criterion::{criterion_group, criterion_main, Criterion};
use pgraph::gen;
use pram::pool::threads_from_env;
use pram::Executor;
use sssp::baseline::plain_bellman_ford;
use sssp::{DeltaSteppingOracle, DijkstraOracle, DistanceOracle, Oracle};
use std::hint::black_box;
use std::sync::Arc;

fn bench_query_vs_baselines(c: &mut Criterion) {
    let n = 4096usize;
    let g = Arc::new(gen::road_grid(64, 64, 7, 1.0, 10.0));
    let exec = Executor::new(threads_from_env());
    let backends: Vec<Box<dyn DistanceOracle>> = vec![
        Box::new(
            Oracle::builder(Arc::clone(&g))
                .eps(0.25)
                .kappa(4)
                .executor(exec.clone())
                .build()
                .unwrap(),
        ),
        Box::new(DijkstraOracle::new(Arc::clone(&g))),
        Box::new(DeltaSteppingOracle::new(Arc::clone(&g)).with_executor(exec.clone())),
    ];

    let mut group = c.benchmark_group("baselines/road-grid-4096");
    group.sample_size(20);
    for backend in &backends {
        group.bench_function(backend.name(), |b| {
            b.iter(|| black_box(backend.distances_from(0).unwrap()))
        });
    }
    group.bench_function("bare-bf-to-convergence", |b| {
        b.iter(|| black_box(plain_bellman_ford(&exec, &g, 0, n)))
    });
    group.finish();
}

fn bench_bf_round_counts(c: &mut Criterion) {
    // Not a timing comparison: demonstrates the *round* (depth) advantage.
    // The bare path graph needs n-1 rounds; G ∪ H needs the β budget.
    let g = Arc::new(gen::path(4096));
    let exec = Executor::new(threads_from_env());
    let oracle = Oracle::builder(Arc::clone(&g))
        .eps(0.25)
        .kappa(4)
        .executor(exec.clone())
        .build()
        .unwrap();

    let mut group = c.benchmark_group("baselines/path-4096-rounds");
    group.sample_size(10);
    group.bench_function("bare-bf-full-rounds", |b| {
        b.iter(|| black_box(plain_bellman_ford(&exec, &g, 0, 4096)))
    });
    group.bench_function("hopset-bf-beta-rounds", |b| {
        b.iter(|| black_box(oracle.distances_from(0).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_query_vs_baselines, bench_bf_round_counts);
criterion_main!(benches);
