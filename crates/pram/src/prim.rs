//! Deterministic data-parallel helpers.
//!
//! Thin wrappers over the persistent worker pool ([`crate::pool`]) that
//! (a) take the execution context — an explicit [`Executor`] handle —
//! as an argument instead of resolving ambient thread-count state per
//! call, (b) keep results in input order (per-chunk outputs land in
//! chunk-indexed slots, so output never depends on scheduling), and
//! (c) fall back to sequential execution for small inputs, where even a
//! wake + barrier dominates (perf-book: parallelize hot code only).
//!
//! Threshold contract (pinned by the boundary tests below and the
//! proptests in `tests/proptests.rs`): inputs with
//! `len < PAR_THRESHOLD` run sequentially on the calling thread; inputs
//! with `len >= PAR_THRESHOLD` — *including exactly* `PAR_THRESHOLD` —
//! take the chunked parallel path whenever the executor has more than one
//! effective thread. Both paths compute identical results; the reductions
//! here are order-independent (total-order keys with smallest-index
//! tie-breaks, associative `u64` sums, `bool` any), so outputs are
//! bit-identical at any thread count.

use crate::pool::Executor;

pub use crate::pool::PAR_THRESHOLD;

/// Concatenate per-chunk outputs in chunk order.
fn concat<U>(parts: Vec<Vec<U>>, len: usize) -> Vec<U> {
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Map every element, preserving order. Deterministic regardless of thread
/// count.
pub fn par_map<T: Sync, U: Send>(
    exec: &Executor,
    items: &[T],
    f: impl Fn(&T) -> U + Sync + Send,
) -> Vec<U> {
    if !exec.parallel_eligible(items.len()) {
        return items.iter().map(f).collect();
    }
    let bounds = exec.chunk_bounds(items.len());
    let parts = exec.run_chunks(&bounds, |r| items[r].iter().map(&f).collect::<Vec<U>>());
    concat(parts, items.len())
}

/// Map every index `0..n`, preserving order.
pub fn par_map_range<U: Send>(
    exec: &Executor,
    n: usize,
    f: impl Fn(usize) -> U + Sync + Send,
) -> Vec<U> {
    if !exec.parallel_eligible(n) {
        return (0..n).map(f).collect();
    }
    let bounds = exec.chunk_bounds(n);
    let parts = exec.run_chunks(&bounds, |r| r.map(&f).collect::<Vec<U>>());
    concat(parts, n)
}

/// Overwrite `out[i] = f(i)` in parallel (disjoint chunk writes — no merge
/// step at all).
pub fn par_fill<U: Send>(exec: &Executor, out: &mut [U], f: impl Fn(usize) -> U + Sync + Send) {
    if !exec.parallel_eligible(out.len()) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let bounds = exec.chunk_bounds(out.len());
    let starts: Vec<usize> = bounds.iter().map(|r| r.start).collect();
    exec.for_each_chunk_mut(out, &bounds, |ci, chunk| {
        let base = starts[ci];
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = f(base + i);
        }
    });
}

/// Minimum element index by a total-order key, ties to the smallest index —
/// an order-independent (hence deterministic) reduction.
pub fn par_argmin_by_key<T: Sync, K: Ord + Send>(
    exec: &Executor,
    items: &[T],
    key: impl Fn(&T) -> K + Sync + Send,
) -> Option<usize> {
    if items.is_empty() {
        return None;
    }
    let pick = |a: (usize, K), b: (usize, K)| -> (usize, K) {
        match a.1.cmp(&b.1) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => {
                if a.0 <= b.0 {
                    a
                } else {
                    b
                }
            }
        }
    };
    if !exec.parallel_eligible(items.len()) {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| (i, key(t)))
            .reduce(pick)
            .map(|(i, _)| i);
    }
    let bounds = exec.chunk_bounds(items.len());
    // Per-chunk argmin, then a fold over the (few) chunk winners in chunk
    // order. `pick` is associative and commutative over the total order
    // `(key, index)`, so the grouping cannot affect the result.
    let locals = exec.run_chunks(&bounds, |r| r.map(|i| (i, key(&items[i]))).reduce(&pick));
    locals.into_iter().flatten().reduce(pick).map(|(i, _)| i)
}

/// Sum of `f(i)` over `0..n` (u64) — order-independent.
pub fn par_sum_range(exec: &Executor, n: usize, f: impl Fn(usize) -> u64 + Sync + Send) -> u64 {
    if !exec.parallel_eligible(n) {
        return (0..n).map(f).sum();
    }
    let bounds = exec.chunk_bounds(n);
    exec.run_chunks(&bounds, |r| r.map(&f).sum::<u64>())
        .into_iter()
        .sum()
}

/// `true` if `f(i)` holds for any `i in 0..n` — order-independent. Every
/// chunk runs to completion (no cross-chunk early exit): the answer is a
/// disjunction, so completion order cannot matter.
pub fn par_any_range(exec: &Executor, n: usize, f: impl Fn(usize) -> bool + Sync + Send) -> bool {
    if !exec.parallel_eligible(n) {
        return (0..n).any(f);
    }
    let bounds = exec.chunk_bounds(n);
    exec.run_chunks(&bounds, |r| r.into_iter().any(&f))
        .into_iter()
        .any(|b| b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let exec = Executor::new(4);
        let v: Vec<u32> = (0..10_000).collect();
        let out = par_map(&exec, &v, |x| x * 2);
        assert_eq!(out[0], 0);
        assert_eq!(out[9999], 19998);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn map_range_matches_sequential() {
        let big = par_map_range(&Executor::new(8), 20_000, |i| i as u64 * 3);
        let small = par_map_range(&Executor::sequential(), 10, |i| i as u64 * 3);
        assert_eq!(big[12345], 12345 * 3);
        assert_eq!(small, vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    }

    #[test]
    fn fill_in_place() {
        let exec = Executor::new(4);
        let mut v = vec![0u64; 5000];
        par_fill(&exec, &mut v, |i| (i as u64).pow(2) % 97);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i as u64).pow(2) % 97);
        }
    }

    #[test]
    fn argmin_ties_to_smallest_index() {
        let exec = Executor::new(4);
        let v = vec![3u32, 1, 5, 1, 2];
        assert_eq!(par_argmin_by_key(&exec, &v, |&x| x), Some(1));
        let empty: Vec<u32> = vec![];
        assert_eq!(par_argmin_by_key(&exec, &empty, |&x| x), None);
        // Large input exercising the parallel path.
        let big: Vec<u64> = (0..50_000).map(|i| (i * 2654435761) % 1000).collect();
        let seq = big
            .iter()
            .enumerate()
            .min_by_key(|(i, &x)| (x, *i))
            .map(|(i, _)| i);
        assert_eq!(par_argmin_by_key(&exec, &big, |&x| x), seq);
    }

    #[test]
    fn sum_and_any() {
        let exec = Executor::new(4);
        assert_eq!(par_sum_range(&exec, 100, |i| i as u64), 4950);
        assert_eq!(par_sum_range(&exec, 100_000, |_| 1), 100_000);
        assert!(par_any_range(&exec, 10_000, |i| i == 9_999));
        assert!(!par_any_range(&exec, 10_000, |i| i == 10_000));
    }

    /// The `PAR_THRESHOLD` edge, pinned: results at `threshold − 1`,
    /// `threshold`, and `threshold + 1` are identical to the sequential
    /// reference at every thread count.
    #[test]
    fn threshold_boundary_lengths_match_reference() {
        for len in [PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 1] {
            let reference: Vec<u64> = (0..len)
                .map(|i| (i as u64).wrapping_mul(31) % 257)
                .collect();
            let ref_sum: u64 = reference.iter().sum();
            let ref_argmin = reference
                .iter()
                .enumerate()
                .min_by_key(|(i, &x)| (x, *i))
                .map(|(i, _)| i);
            for threads in [1usize, 2, 3, 4, 8] {
                let exec = Executor::new(threads);
                let m = par_map_range(&exec, len, |i| (i as u64).wrapping_mul(31) % 257);
                assert_eq!(m, reference, "map len={len} threads={threads}");
                let mut filled = vec![0u64; len];
                par_fill(&exec, &mut filled, |i| (i as u64).wrapping_mul(31) % 257);
                assert_eq!(filled, reference, "fill len={len} threads={threads}");
                assert_eq!(
                    par_sum_range(&exec, len, |i| (i as u64).wrapping_mul(31) % 257),
                    ref_sum,
                    "sum len={len} threads={threads}"
                );
                assert_eq!(
                    par_argmin_by_key(&exec, &reference, |&x| x),
                    ref_argmin,
                    "argmin len={len} threads={threads}"
                );
                assert!(par_any_range(&exec, len, |i| i == len - 1));
            }
        }
    }
}
