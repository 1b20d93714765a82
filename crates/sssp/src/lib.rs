#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # sssp — (1+ε)-approximate shortest paths from deterministic hopsets
//!
//! The application layer of the reproduction: Theorem 3.8 (approximate
//! single-/multi-source shortest **distances**), Theorem 4.6 (approximate
//! shortest-path **trees**), and Theorems C.3/D.2 (the same without any
//! aspect-ratio assumption), plus the baselines the experiments compare
//! against and the stretch-measurement utilities.
//!
//! The public query surface is the [`oracle`] module: one owned,
//! `Send + Sync` [`Oracle`] (built fluently with [`Oracle::builder`])
//! serves every query the paper supports, and the [`DistanceOracle`]
//! trait puts the exact baselines ([`DeltaSteppingOracle`],
//! [`DijkstraOracle`]) behind the same interface.
//!
//! ```
//! use pgraph::gen;
//! use sssp::{DistanceOracle, Oracle};
//!
//! let g = gen::gnm_connected(128, 384, 3, 1.0, 8.0);
//! let exact = pgraph::exact::dijkstra(&g, 0).dist;
//! let oracle = Oracle::builder(g).eps(0.25).kappa(4).build().unwrap();
//! let d = oracle.distances_from(0).unwrap();
//! for v in 0..128 {
//!     assert!(d[v] >= exact[v] - 1e-9);
//!     assert!(d[v] <= oracle.stretch_bound() * exact[v] + 1e-9);
//! }
//! ```

pub mod baseline;
pub mod cache;
pub mod delta_stepping;
pub mod eval;
pub mod landmark;
pub mod oracle;
pub mod snapshot;

pub use cache::{AdmissionConfig, CacheConfig, CacheStats, CachedOracle, CachedRow, FillPolicy};
pub use delta_stepping::{delta_stepping_on, DeltaSteppingResult};
pub use eval::{stretch_vs_hops, HopCurvePoint};
pub use landmark::{LandmarkBounds, LandmarkConfig, LandmarkPlane};
pub use oracle::{
    DeltaSteppingOracle, DijkstraOracle, DistanceMatrix, DistanceOracle, MultiSourceResult, Oracle,
    OracleBuilder, Pipeline, SsspError,
};
pub use snapshot::{SnapshotError, ORACLE_MAGIC};
