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
//! effective thread. Both paths compute identical results: each output
//! element is a function of its index alone, so outputs are bit-identical
//! at any thread count.

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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The `PAR_THRESHOLD` edge, pinned: results at `threshold − 1`,
    /// `threshold`, and `threshold + 1` are identical to the sequential
    /// reference at every thread count.
    #[test]
    fn threshold_boundary_lengths_match_reference() {
        for len in [PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 1] {
            let reference: Vec<u64> = (0..len)
                .map(|i| (i as u64).wrapping_mul(31) % 257)
                .collect();
            for threads in [1usize, 2, 3, 4, 8] {
                let exec = Executor::new(threads);
                let m = par_map_range(&exec, len, |i| (i as u64).wrapping_mul(31) % 257);
                assert_eq!(m, reference, "map len={len} threads={threads}");
                let mut filled = vec![0u64; len];
                par_fill(&exec, &mut filled, |i| (i as u64).wrapping_mul(31) % 257);
                assert_eq!(filled, reference, "fill len={len} threads={threads}");
            }
        }
    }
}
