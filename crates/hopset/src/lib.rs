#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # hopset — deterministic PRAM hopsets (Elkin–Matar, SPAA 2021)
//!
//! A `(1+ε, β)`-**hopset** of a weighted undirected graph `G = (V, E, ω)` is
//! an edge set `H` such that for every `u, v ∈ V`
//!
//! ```text
//! d_G(u, v) ≤ d^{(β)}_{G∪H}(u, v) ≤ (1+ε)·d_G(u, v)        (eq. 1)
//! ```
//!
//! where `d^{(β)}` is the minimum weight of a path with at most `β` edges.
//! With a hopset, a `β`-round Bellman–Ford answers `(1+ε)`-approximate
//! shortest-distance queries — the engine of the paper's deterministic
//! polylogarithmic-time, `O(|E|·n^ρ)`-work SSSP (Theorems 3.7/3.8).
//!
//! This crate implements the paper's **deterministic** construction:
//!
//! * [`params`] — every parameter of §2/§3.4 (with the documented erratum
//!   fix for the δ-schedule),
//! * [`virtual_bfs`] — Algorithm 2 (bounded explorations in the virtual
//!   cluster graph),
//! * [`ruling`] — Algorithm 4 (deterministic `(3, 2·log n)`-ruling sets;
//!   the derandomization engine replacing \[EN19\]'s sampling),
//! * [`single_scale`] — the superclustering-and-interconnection phase loop,
//!   whose choice of centers is a crate-private center rule,
//! * [`multi_scale`] — `H = ⋃_k H_k` for polynomial aspect ratio
//!   (Theorem 3.7),
//! * [`reduction`] — the Klein–Sairam weight reduction removing the
//!   aspect-ratio dependence (Appendix C, Theorem C.2),
//! * [`path_report`] — path-reporting hopsets and `(1+ε)`-SPT extraction
//!   (§4, Appendix D, Theorems 4.6/D.2),
//! * [`baseline`] — the seeded sampling center rule the paper derandomizes,
//!   run through the same phase loop for the E9 comparison (the only
//!   module that consumes randomness),
//! * [`validate`] — invariant checkers used by tests and experiments.
//!
//! ## Determinism
//!
//! The construction never consumes randomness; all parallel reductions are
//! order-independent; outputs are bit-identical across thread counts (see
//! DESIGN.md §5 and the cross-thread tests).
//!
//! ## Quick start
//!
//! ```
//! use pgraph::gen;
//! use hopset::{BuildOptions, HopsetParams, ParamMode};
//! use pram::Executor;
//!
//! let g = gen::gnm_connected(64, 192, 7, 1.0, 4.0);
//! let params = HopsetParams::new(
//!     64, 0.25, 4, 0.3, ParamMode::Practical, g.aspect_ratio_bound(), None,
//! ).unwrap();
//! let exec = Executor::sequential();
//! let built = hopset::build_hopset_on(&exec, &g, &params, BuildOptions::default());
//! assert!(!built.hopset.is_empty() || g.num_edges() == 0);
//! ```

pub mod baseline;
pub mod label;
pub mod multi_scale;
pub mod params;
pub mod partition;
pub mod path;
pub mod path_report;
pub mod reduction;
pub mod ruling;
pub mod single_scale;
pub mod snapshot;
pub mod store;
pub mod validate;
pub mod virtual_bfs;

pub use label::{reduce_labels_two_sort, Label, LabelArena};
pub use multi_scale::{build_hopset_on, BuildOptions, BuiltHopset};
pub use params::{DeltaSchedule, HopsetParams, ParamError, ParamMode, ScaleParams};
pub use partition::{Cluster, ClusterMemory, Partition};
pub use path::{MemEdge, MemoryPath};
pub use ruling::{ruling_set, RulingTrace};
pub use single_scale::{PhaseStats, ScaleReport};
pub use snapshot::{read_hopset_snapshot, write_hopset_snapshot};
pub use store::{EdgeKind, Hopset, HopsetEdge, ScaleSlice};
pub use virtual_bfs::{ExploreScratch, Explorer};

/// The executor unit tests run on: `PRAM_SSSP_THREADS` threads, else the
/// hardware's, so the CI thread matrix reaches every suite.
#[cfg(test)]
pub(crate) fn test_exec() -> pram::Executor {
    pram::Executor::new(pram::pool::threads_from_env())
}
