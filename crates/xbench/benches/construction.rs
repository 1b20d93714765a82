//! Criterion bench: hopset construction wall-clock across sizes, families
//! and modes (the timing companion of experiments E1/E3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hopset::{build_hopset_on, BuildOptions, HopsetParams, ParamMode};
use pgraph::gen;
use pram::pool::threads_from_env;
use pram::Executor;
use std::hint::black_box;

fn params(g: &pgraph::Graph, eps: f64) -> HopsetParams {
    HopsetParams::new(
        g.num_vertices(),
        eps,
        4,
        0.3,
        ParamMode::Practical,
        g.aspect_ratio_bound(),
        None,
    )
    .unwrap()
}

fn bench_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction/gnm");
    group.sample_size(10);
    let exec = Executor::new(threads_from_env());
    for &n in &[256usize, 512, 1024, 2048] {
        let g = gen::gnm_connected(n, 4 * n, 7, 1.0, 16.0);
        let p = params(&g, 0.25);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(build_hopset_on(&exec, &g, &p, BuildOptions::default())))
        });
    }
    group.finish();
}

fn bench_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction/family");
    group.sample_size(10);
    let exec = Executor::new(threads_from_env());
    let n = 1024usize;
    let cases: Vec<(&str, pgraph::Graph)> = vec![
        ("gnm", gen::gnm_connected(n, 4 * n, 7, 1.0, 16.0)),
        ("road-grid", gen::road_grid(32, 32, 5, 1.0, 10.0)),
        ("clique-chain", gen::clique_chain(64, 16, 2.0)),
        ("path", gen::path(n)),
    ];
    for (name, g) in &cases {
        let p = params(g, 0.25);
        group.bench_function(*name, |b| {
            b.iter(|| black_box(build_hopset_on(&exec, g, &p, BuildOptions::default())))
        });
    }
    group.finish();
}

fn bench_path_reporting_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction/path-reporting");
    group.sample_size(10);
    let exec = Executor::new(threads_from_env());
    let g = gen::clique_chain(32, 16, 2.0);
    let p = params(&g, 0.25);
    group.bench_function("plain", |b| {
        b.iter(|| {
            black_box(build_hopset_on(
                &exec,
                &g,
                &p,
                BuildOptions {
                    record_paths: false,
                },
            ))
        })
    });
    group.bench_function("with-paths", |b| {
        b.iter(|| {
            black_box(build_hopset_on(
                &exec,
                &g,
                &p,
                BuildOptions { record_paths: true },
            ))
        })
    });
    group.finish();
}

fn bench_vs_random_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction/vs-random");
    group.sample_size(10);
    let exec = Executor::new(threads_from_env());
    let g = gen::gnm_connected(1024, 4096, 23, 1.0, 12.0);
    let p = params(&g, 0.25);
    group.bench_function("deterministic", |b| {
        b.iter(|| black_box(build_hopset_on(&exec, &g, &p, BuildOptions::default())))
    });
    group.bench_function("randomized-sampling", |b| {
        b.iter(|| black_box(hopset::baseline::build_random_hopset(&exec, &g, &p, 42)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sizes,
    bench_families,
    bench_path_reporting_overhead,
    bench_vs_random_baseline
);
criterion_main!(benches);
