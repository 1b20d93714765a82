//! Instrumented parallel sorting — the AKS-network stand-in.
//!
//! The paper sorts arrays in O(log n) PRAM depth by invoking the AKS sorting
//! network \[AKS83\] (Appendix A, Algorithm 3; §4.1's peeling sorts the global
//! array M). AKS is a purely theoretical device; every implementation-minded
//! treatment substitutes a practical sort and keeps the counted cost. We run
//! a *stable* chunked parallel merge sort on [`crate::pool`] (stability ⇒
//! output independent of thread count even with equal keys) and charge depth
//! `⌈log2 m⌉`, work `m·⌈log2 m⌉` on the [`Ledger`].
//!
//! Parallel scheme: the slice is split at the executor's deterministic chunk
//! boundaries, each chunk is stably sorted on its own pool worker, and a
//! final sequential stable pass merges the presorted runs (std's stable
//! sort is run-adaptive, so that pass costs the merge, not a full re-sort).
//! A stable comparison sort has a *unique* output, so the result is the
//! same as a fully sequential `sort_by` for every thread count.

use crate::pool::Executor;
use crate::Ledger;
use std::cmp::Ordering;

/// Inputs shorter than this sort sequentially (perf-book: avoid parallel
/// overhead on small inputs).
const PAR_SORT_THRESHOLD: usize = 1 << 13;

/// Sort `v` by `cmp`, charging the PRAM cost to `ledger`.
///
/// `cmp` must be a total order. The sort is stable, so the result is uniquely
/// determined by the input even when `cmp` has ties.
pub fn sort_by<T: Send>(
    exec: &Executor,
    v: &mut [T],
    ledger: &mut Ledger,
    cmp: impl Fn(&T, &T) -> Ordering + Sync,
) {
    ledger.sort(v.len() as u64);
    if v.len() < PAR_SORT_THRESHOLD || exec.effective_threads() <= 1 {
        v.sort_by(|a, b| cmp(a, b));
        return;
    }
    let bounds = exec.chunk_bounds(v.len());
    exec.for_each_chunk_mut(v, &bounds, |_, chunk| chunk.sort_by(|a, b| cmp(a, b)));
    v.sort_by(|a, b| cmp(a, b));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_charges() {
        let mut v = vec![5, 3, 9, 1, 1, 7];
        let mut l = Ledger::new();
        sort_by(&Executor::sequential(), &mut v, &mut l, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 1, 3, 5, 7, 9]);
        assert_eq!(l.depth(), 3); // ceil(log2 6)
        assert_eq!(l.work(), 18);
    }

    #[test]
    fn large_sort_matches_sequential() {
        let mut v: Vec<u64> = (0..50_000).map(|i| (i * 2654435761u64) % 10_007).collect();
        let mut expect = v.clone();
        expect.sort();
        let mut l = Ledger::new();
        sort_by(&Executor::new(4), &mut v, &mut l, |a, b| a.cmp(b));
        assert_eq!(v, expect);
    }

    #[test]
    fn stability_makes_ties_deterministic() {
        // Pairs sharing a key must keep input order.
        let mut v: Vec<(u32, u32)> = (0..20_000).map(|i| (i % 5, i)).collect();
        let mut l = Ledger::new();
        sort_by(&Executor::new(8), &mut v, &mut l, |a, b| a.0.cmp(&b.0));
        for w in v.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn identical_across_thread_counts_with_ties() {
        let mk = || -> Vec<(u32, u32)> {
            (0..30_000u32)
                .map(|i| ((i.wrapping_mul(2654435761)) % 7, i))
                .collect()
        };
        let mut baseline = mk();
        let mut l1 = Ledger::new();
        sort_by(&Executor::sequential(), &mut baseline, &mut l1, |a, b| {
            a.0.cmp(&b.0)
        });
        for threads in [2usize, 3, 4, 8] {
            let mut v = mk();
            let mut l = Ledger::new();
            sort_by(&Executor::new(threads), &mut v, &mut l, |a, b| {
                a.0.cmp(&b.0)
            });
            assert_eq!(v, baseline, "threads={threads}");
            assert_eq!(l, l1);
        }
    }
}
