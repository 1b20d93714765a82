//! Criterion bench: query latency — β-hop Bellman–Ford over `G ∪ H`
//! (aSSSD / aMSSD, Theorem 3.8) and SPT extraction (Theorem 4.6), all
//! served by the owned `sssp::Oracle`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgraph::gen;
use pram::pool::threads_from_env;
use sssp::{DistanceOracle, Oracle};
use std::hint::black_box;

fn bench_single_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("query/sssd");
    for &n in &[1024usize, 4096] {
        let g = gen::gnm_connected(n, 4 * n, 7, 1.0, 16.0);
        let oracle = Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(oracle.distances_from(0).unwrap()))
        });
    }
    group.finish();
}

fn bench_multi_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("query/amssd");
    group.sample_size(20);
    let n = 2048usize;
    let g = gen::gnm_connected(n, 4 * n, 9, 1.0, 16.0);
    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .threads(threads_from_env())
        .build()
        .unwrap();
    for &s in &[1usize, 4, 16] {
        let sources: Vec<u32> = (0..s).map(|i| (i * n / s) as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            b.iter(|| black_box(oracle.distances_multi(&sources).unwrap()))
        });
    }
    group.finish();
}

fn bench_spt(c: &mut Criterion) {
    let mut group = c.benchmark_group("query/spt");
    group.sample_size(20);
    let g = gen::clique_chain(32, 16, 2.0);
    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .paths(true)
        .threads(threads_from_env())
        .build()
        .unwrap();
    group.bench_function("clique-chain-512", |b| {
        b.iter(|| black_box(oracle.spt(0).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_single_source, bench_multi_source, bench_spt);
criterion_main!(benches);
