#![warn(missing_docs)]
//! # pram — PRAM CREW cost model and instrumented parallel primitives
//!
//! The paper (Elkin–Matar, SPAA 2021) states its results in the CREW PRAM
//! model (§1.5.1): computation proceeds in synchronous rounds; *depth* is the
//! number of rounds and *work* is the total number of operations. Those are
//! **counted** quantities, not wall-clock times, so this crate reproduces
//! them with a deterministic [`Ledger`] that charges every primitive exactly
//! as the paper charges it:
//!
//! | primitive | depth charged | work charged | paper reference |
//! |---|---|---|---|
//! | elementwise step over `m` items | 1 | `m` | §1.5.1 |
//! | sort of `m` items | `⌈log2 m⌉` | `m · ⌈log2 m⌉` | AKS \[AKS83\], App. A |
//! | prefix sums over `m` items | `⌈log2 m⌉` | `m` | folklore, used in App. C |
//! | pointer-jumping round | 1 | `m` | \[SV82\], §4.2 |
//!
//! Actual execution uses [`pool`] — a **persistent worker-pool runtime**
//! (std-only: parked workers, condvar dispatch, barrier per round) behind
//! the explicit [`Executor`] handle every primitive takes. Chunk
//! boundaries are a pure function of `(len, threads)` and reductions are
//! order-independent, so results are bit-identical across thread counts
//! (tested, `tests/determinism.rs`). The caller picks the count:
//! `Executor::new(t)` is a private pool of `t` threads, and
//! `Executor::sequential()` is the one-thread executor, which spawns no
//! workers and runs every round inline. No library code reads the
//! environment or the hardware; binaries and tests resolve
//! `PRAM_SSSP_THREADS` through [`pool::threads_from_env`].
//!
//! Modules:
//! * [`ledger`] — the work/depth ledger,
//! * [`pool`] — the persistent worker pool + [`Executor`] handle all
//!   primitives execute on,
//! * [`prim`] — deterministic parallel map/reduce helpers,
//! * [`scan`] — prefix sums,
//! * [`sort`] — instrumented sorting (the AKS stand-in),
//! * [`jump`] — pointer jumping (§4.2, Appendix C.4),
//! * [`cc`] — Shiloach–Vishkin connected components + spanning forests
//!   (needed by the Klein–Sairam reduction, Appendix C),
//! * [`bford`] — multi-source hop-limited Bellman–Ford over union views
//!   (the final exploration of Theorems 3.8/C.3),
//! * [`phase`] — construction-phase markers observed by the memory-audit
//!   hook in the experiment harness.

pub mod bford;
pub mod cc;
pub mod jump;
pub mod ledger;
pub mod phase;
pub mod pool;
pub mod prim;
pub mod scan;
pub mod sort;

pub use bford::{
    bellman_ford, bellman_ford_into, bellman_ford_to, BellmanFordResult, BfordScratch, ParentEdge,
    TargetResult,
};
pub use cc::{connected_components, spanning_forest, CcResult};
pub use jump::pointer_jump_distances;
pub use ledger::Ledger;
pub use pool::Executor;
