#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pram-sssp — Deterministic PRAM approximate shortest paths
//!
//! A comprehensive Rust reproduction of
//!
//! > Michael Elkin and Shaked Matar.
//! > *Deterministic PRAM Approximate Shortest Paths in Polylogarithmic Time
//! > and Slightly Super-Linear Work.* SPAA 2021 (arXiv:2009.14729).
//!
//! The paper gives the first **deterministic** parallel (PRAM) algorithm
//! computing `(1+ε)`-approximate single-source shortest paths in
//! polylogarithmic time with `O(|E|·n^ρ)` work, built on the first
//! efficient deterministic parallel construction of **hopsets**. The
//! derandomization engine is the replacement of random sampling in the
//! superclustering-and-interconnection framework by deterministic
//! `(3, 2·log n)`-**ruling sets** over virtual cluster graphs.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`pgraph`] — graphs, generators, exact oracles;
//! * [`pram`] — the PRAM work/depth cost model and parallel primitives;
//! * [`hopset`] — the paper's contribution: deterministic hopsets
//!   (Theorem 3.7), the weight reduction (Theorem C.2), path reporting
//!   (Theorems 4.6/D.2) and the randomized comparison baseline;
//! * [`sssp`] — the applications behind one facade: the owned,
//!   thread-safe [`sssp::Oracle`] serving aSSSD/aMSSD (Theorem 3.8),
//!   `(1+ε)`-shortest-path trees, and the exact baselines through the
//!   [`sssp::DistanceOracle`] trait.
//!
//! ## Quickstart
//!
//! ```
//! use pram_sssp::prelude::*;
//!
//! // A weighted graph (road-network-like grid). The oracle takes
//! // ownership (internally an Arc<Graph>).
//! let g = pgraph::gen::road_grid(12, 12, 7, 1.0, 10.0);
//!
//! // One fluent configuration path: stretch 1+ε, sparsity κ; the plain
//! // vs weight-reduced pipeline is picked from the aspect-ratio bound.
//! let oracle = Oracle::builder(g).eps(0.25).kappa(4).build().unwrap();
//!
//! // The same built object answers every query.
//! let approx = oracle.distances_from(0).unwrap();
//! let d_pair = oracle.distance(0, 77).unwrap();
//! assert!((d_pair - approx[77]).abs() < 1e-12);
//!
//! // Compare against the exact oracle: never below, at most (1+ε) above.
//! let exact = pgraph::exact::dijkstra(oracle.graph(), 0).dist;
//! for v in 0..oracle.num_vertices() {
//!     assert!(approx[v] >= exact[v] - 1e-9);
//!     assert!(approx[v] <= oracle.stretch_bound() * exact[v] + 1e-9);
//! }
//!
//! // Share it: Oracle is Send + Sync, so Arc<Oracle> serves threads.
//! let shared = std::sync::Arc::new(oracle);
//! let handle = {
//!     let o = std::sync::Arc::clone(&shared);
//!     std::thread::spawn(move || o.distances_from(5).unwrap())
//! };
//! assert_eq!(handle.join().unwrap()[5], 0.0);
//!
//! // Serving: a bounded, deterministic LRU source cache in front —
//! // hot sources answer from a cached row, bit-identical to cold.
//! let served = CachedOracle::new(std::sync::Arc::clone(&shared), 4).unwrap();
//! let cold = served.distances_from(0).unwrap(); // miss: fills the cache
//! let warm = served.distances_from(0).unwrap(); // hit: no exploration
//! assert_eq!(cold, warm);
//! assert_eq!(served.stats().hits, 1);
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md`/`EXPERIMENTS.md`
//! for the reproduction methodology and measured results.

pub use hopset;
pub use pgraph;
pub use pram;
pub use sssp;

/// The most commonly used items in one import.
pub mod prelude {
    pub use hopset::path_report::{build_spt_on, validate_spt, SptResult};
    pub use hopset::reduction::build_reduced_hopset_on;
    pub use hopset::{build_hopset_on, BuildOptions, BuiltHopset, HopsetParams, ParamMode};
    pub use pgraph::{exact, gen, Graph, GraphBuilder, UnionGraph, UnionView, INF};
    pub use pram::{Executor, Ledger};
    pub use sssp::{
        delta_stepping_on, AdmissionConfig, CacheConfig, CacheStats, CachedOracle, CachedRow,
        DeltaSteppingOracle, DijkstraOracle, DistanceMatrix, DistanceOracle, FillPolicy,
        LandmarkBounds, LandmarkConfig, LandmarkPlane, MultiSourceResult, Oracle, OracleBuilder,
        Pipeline, SnapshotError, SsspError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_compose() {
        let g = gen::path(16);
        let oracle = Oracle::builder(g).eps(0.5).kappa(4).build().unwrap();
        let d = oracle.distances_from(0).unwrap();
        assert!((d[15] - 15.0).abs() <= 15.0 * 0.5 + 1e-9);
        assert_eq!(oracle.distance(0, 15).unwrap(), d[15]);
    }
}
