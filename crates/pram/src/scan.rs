//! Prefix sums (scan), the workhorse for PRAM array compaction.
//!
//! The Klein–Sairam reduction (Appendix C) is described in the original as
//! "combining parallel prefix computation with the connected components
//! algorithm of Shiloach and Vishkin"; this module supplies the prefix part.
//! Charged at depth `⌈log2 m⌉`, work `m`.

use crate::pool::Executor;
use crate::Ledger;

/// Exclusive prefix sum: `out[i] = Σ_{j<i} xs[j]`, plus the grand total.
///
/// Parallel three-phase scan on the persistent pool (per-chunk sums →
/// sequential scan of the chunk sums → chunk-local rescan into disjoint
/// output chunks); deterministic because addition over `u64` is associative
/// — the chunk boundaries ([`Executor::chunk_bounds`]) depend only on input
/// length and the executor's thread count, and the *values* don't depend on
/// them at all.
pub fn exclusive_prefix_sum(exec: &Executor, xs: &[u64], ledger: &mut Ledger) -> (Vec<u64>, u64) {
    ledger.scan(xs.len() as u64);
    if !exec.parallel_eligible(xs.len()) {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0u64;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        return (out, acc);
    }
    let bounds = exec.chunk_bounds(xs.len());
    let chunk_sums = exec.run_chunks(&bounds, |r| xs[r].iter().sum::<u64>());
    let mut chunk_off = Vec::with_capacity(chunk_sums.len());
    let mut acc = 0u64;
    for &s in &chunk_sums {
        chunk_off.push(acc);
        acc += s;
    }
    let mut out = vec![0u64; xs.len()];
    let starts: Vec<usize> = bounds.iter().map(|r| r.start).collect();
    exec.for_each_chunk_mut(&mut out, &bounds, |ci, o| {
        let mut a = chunk_off[ci];
        for (slot, &x) in o.iter_mut().zip(&xs[starts[ci]..]) {
            *slot = a;
            a += x;
        }
    });
    (out, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_prefix_sum() {
        let mut l = Ledger::new();
        let (out, total) = exclusive_prefix_sum(&Executor::sequential(), &[3, 1, 4, 1, 5], &mut l);
        assert_eq!(out, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
        assert!(l.depth() > 0);
    }

    #[test]
    fn empty_prefix_sum() {
        let mut l = Ledger::new();
        let (out, total) = exclusive_prefix_sum(&Executor::sequential(), &[], &mut l);
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn large_prefix_sum_matches_sequential() {
        let xs: Vec<u64> = (0..100_000).map(|i| (i * 7 + 3) % 11).collect();
        let mut l = Ledger::new();
        let (out, total) = exclusive_prefix_sum(&Executor::new(4), &xs, &mut l);
        let mut acc = 0u64;
        for i in 0..xs.len() {
            assert_eq!(out[i], acc, "index {i}");
            acc += xs[i];
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn identical_across_thread_counts() {
        let xs: Vec<u64> = (0..20_001).map(|i| (i * 2654435761) % 1009).collect();
        let mut l1 = Ledger::new();
        let baseline = exclusive_prefix_sum(&Executor::sequential(), &xs, &mut l1);
        for threads in [2usize, 3, 4, 8] {
            let mut l = Ledger::new();
            let got = exclusive_prefix_sum(&Executor::new(threads), &xs, &mut l);
            assert_eq!(got, baseline, "threads={threads}");
            assert_eq!(l, l1, "ledger threads={threads}");
        }
    }
}
