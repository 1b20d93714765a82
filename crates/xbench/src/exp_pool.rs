//! Pool-overhead experiment: dispatch latency of the persistent worker
//! pool on sub-millisecond rounds — the workload shape of the whole oracle
//! pipeline (thousands of tiny β-limited Bellman–Ford pulses and
//! ruling-set rounds).
//!
//! This is a **wall-clock** measurement (the one thing the `Ledger`
//! deliberately does not capture): the per-round cost of *starting* a
//! parallel round over a fixed array sum (the warm-up rounds assert the
//! total).

use crate::table::Table;
use crate::Config;
use pram::{pool, Executor};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// One measured thread count.
#[derive(Clone, Copy, Debug)]
pub struct OverheadRow {
    /// Thread count.
    pub threads: usize,
    /// Chunks per round at this count.
    pub chunks: usize,
    /// Mean ns per round, persistent pool (wake + barrier per round).
    pub persistent_ns: f64,
}

/// One round on the persistent pool.
fn persistent_round(exec: &Executor, bounds: &[Range<usize>], data: &[u64]) -> u64 {
    exec.run_chunks(bounds, |r| data[r].iter().sum::<u64>())
        .into_iter()
        .sum()
}

/// Measure mean per-round wall-clock of the pool over `rounds` rounds of a
/// length-`len` reduction, at t ∈ {1, 2, 4, 8}.
pub fn measure(len: usize, rounds: usize) -> Vec<OverheadRow> {
    let data: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(31) % 257).collect();
    let expect: u64 = data.iter().sum();
    let mut rows = Vec::new();
    for &t in &[1usize, 2, 4, 8] {
        let bounds = pool::chunk_bounds(len, t);
        let exec = Executor::new(t);
        // Warm-up: fault pages in, park the workers once.
        for _ in 0..3 {
            assert_eq!(black_box(persistent_round(&exec, &bounds, &data)), expect);
        }
        let t0 = Instant::now();
        for _ in 0..rounds {
            black_box(persistent_round(&exec, &bounds, &data));
        }
        let persistent_ns = t0.elapsed().as_nanos() as f64 / rounds as f64;
        rows.push(OverheadRow {
            threads: t,
            chunks: bounds.len(),
            persistent_ns,
        });
    }
    rows
}

/// The `pool-overhead` experiment: print the dispatch-latency table
/// (recorded in EXPERIMENTS.md).
pub fn pool_overhead(cfg: &Config) {
    let len = 16 * cfg.sz(4096); // 64k full / 16k quick: sub-ms rounds
    let rounds = if cfg.quick { 200 } else { 1000 };
    let rows = measure(len, rounds);
    let mut t = Table::new(&["threads", "chunks", "persistent ns/round"]);
    for r in &rows {
        t.row(vec![
            r.threads.to_string(),
            r.chunks.to_string(),
            format!("{:.0}", r.persistent_ns),
        ]);
    }
    t.print(&format!(
        "pool-overhead: per-round dispatch latency of the persistent pool \
         (len = {len}, {rounds} rounds; wall-clock, not a PRAM claim)"
    ));
    let records: Vec<crate::json::Record> = rows
        .iter()
        .map(|r| {
            crate::json::Record::new("pool-overhead")
                .u64("n", len as u64)
                .u64("threads", r.threads as u64)
                .u64("chunks", r.chunks as u64)
                .f64("persistent_ns", r.persistent_ns)
        })
        .collect();
    crate::json::emit(cfg, &records);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_all_thread_counts() {
        let rows = measure(8192, 5);
        assert_eq!(
            rows.iter().map(|r| r.threads).collect::<Vec<_>>(),
            [1, 2, 4, 8]
        );
        assert!(rows.iter().all(|r| r.persistent_ns > 0.0));
    }
}
