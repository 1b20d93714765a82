//! Criterion bench: per-round dispatch latency of the persistent worker
//! pool (condvar wake + barrier per round) on the sub-millisecond rounds
//! the oracle pipeline actually issues. The `repro pool-overhead`
//! experiment prints the same measurement as a table; recorded numbers
//! live in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pram::{pool, Executor};
use std::hint::black_box;
use xbench::exp_pool::persistent_round;

fn bench_dispatch_overhead(c: &mut Criterion) {
    let len = 1 << 16; // 64k u64 sums: well under a millisecond per round
    let data: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(31) % 257).collect();

    let mut persistent = c.benchmark_group("pool_overhead/persistent");
    persistent.sample_size(20);
    for &t in &[1usize, 2, 4, 8] {
        let bounds = pool::chunk_bounds(len, t);
        let exec = Executor::new(t);
        persistent.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| black_box(persistent_round(&exec, &bounds, &data)))
        });
    }
    persistent.finish();
}

criterion_group!(benches, bench_dispatch_overhead);
criterion_main!(benches);
