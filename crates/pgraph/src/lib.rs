#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pgraph — graph substrate for the `pram-sssp` workspace
//!
//! This crate provides the graph machinery that the deterministic hopset
//! construction of Elkin–Matar (SPAA 2021) is built on:
//!
//! * [`Graph`] — a compact CSR representation of undirected, positively
//!   weighted graphs with `u32` vertex ids and `f64` weights,
//! * [`UnionView`] — a zero-copy adjacency view over `E ∪ H` (a base graph
//!   plus an overlay edge set, e.g. a hopset), which is the object all
//!   hop-limited explorations in the paper run on, and [`UnionGraph`] — its
//!   owned, `Arc`-backed, `Send + Sync` sibling for long-lived query engines,
//! * [`gen`] — deterministic graph generators used by tests, examples and
//!   the experiment harness,
//! * [`exact`] — exact reference algorithms (Dijkstra, hop-limited
//!   Bellman–Ford, BFS) used as ground truth when measuring stretch,
//! * [`io`] — ingestion of external graph files: [`io::dimacs`] (the
//!   standard DIMACS `.gr` challenge format) and [`io::edge_list`],
//! * [`snapshot`] — versioned binary snapshots of the CSR columns
//!   (chunked column decode, one validation pass; DESIGN.md §11).
//!
//! Everything in this crate is deterministic; randomized generators take an
//! explicit seed.

pub mod csr;
pub mod exact;
pub mod gen;
pub mod io;
pub mod snapshot;
pub mod view;

pub use csr::{Graph, GraphBuilder};
pub use snapshot::SnapshotError;
pub use view::{EdgeTag, OverlayCsr, OverlayCsrBuilder, UnionGraph, UnionView};

/// Vertex identifier. Graphs are limited to `u32::MAX` vertices, which keeps
/// adjacency arrays compact (see the perf-book guidance on smaller integers).
pub type VId = u32;

/// Edge weight. The hopset construction requires strictly positive, finite
/// weights with minimum weight `>= 1` (the paper's normalization, §1.5).
pub type Weight = f64;

/// The "infinite" distance sentinel.
pub const INF: Weight = f64::INFINITY;

/// Compare two weights with a total order (no NaNs are ever produced by this
/// workspace; this is still total-order safe if they were). Takes references
/// so it can be passed straight to `sort_by`/`min_by`/`max_by`.
#[inline]
pub fn wcmp(a: &Weight, b: &Weight) -> std::cmp::Ordering {
    a.total_cmp(b)
}

/// `ceil(log2(x))` for `x >= 1`, as used all over the paper's parameter
/// arithmetic. `ceil_log2(1) == 0`.
#[inline]
pub fn ceil_log2(x: usize) -> u32 {
    debug_assert!(x >= 1);
    (usize::BITS - (x - 1).leading_zeros()).min(usize::BITS) * u32::from(x > 1)
}

/// `floor(log2(x))` for `x >= 1`.
#[inline]
pub fn floor_log2(x: usize) -> u32 {
    debug_assert!(x >= 1);
    usize::BITS - 1 - x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn floor_log2_small_values() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(1023), 9);
        assert_eq!(floor_log2(1024), 10);
    }

    #[test]
    fn wcmp_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(wcmp(&1.0, &2.0), Less);
        assert_eq!(wcmp(&2.0, &1.0), Greater);
        assert_eq!(wcmp(&1.5, &1.5), Equal);
        assert_eq!(wcmp(&1.0, &INF), Less);
    }
}
