//! The unified distance-oracle facade: one owned, thread-safe query object
//! over every backend in the workspace.
//!
//! The paper's whole point is that a single artifact — the deterministic
//! `(1+ε, β)`-hopset of Theorem 3.7 — answers *every* downstream query:
//! approximate single-source distances (aSSSD, Theorem 3.8), multi-source
//! batches (aMSSD), and `(1+ε)`-shortest-path trees (Theorems 4.6/D.2).
//! This module makes that one artifact one *object*:
//!
//! * [`DistanceOracle`] — the object-safe query trait (`distances_from`,
//!   [`distances_multi`](DistanceOracle::distances_multi),
//!   [`distance`](DistanceOracle::distance), nearest-source,
//!   [`stretch_bound`](DistanceOracle::stretch_bound), and
//!   [`cost`](DistanceOracle::cost) ledger reporting), implemented by the
//!   hopset engine and by the exact baselines, so experiments and callers
//!   compare backends generically;
//! * [`Oracle`] + [`OracleBuilder`] — the hopset engine, built fluently
//!   (`Oracle::builder(g).eps(0.25).kappa(4).paths(true).build()?`). It
//!   **owns** the graph via `Arc<Graph>`, pre-builds the `G ∪ H` union CSR
//!   once (queries reuse it), builds no hopset at all when one exploration
//!   certifies that `G` alone is exact within the hop budget (DESIGN.md
//!   §4), otherwise auto-selects the plain (§2) vs Klein–Sairam-reduced
//!   (Appendix C) pipeline from the aspect-ratio bound, serves SPT
//!   extraction from the same built object, and can pin
//!   its own `pram::pool` thread count
//!   ([`threads`](OracleBuilder::threads)) for construction and queries —
//!   results are bit-identical for every choice (DESIGN.md §5);
//! * [`DeltaSteppingOracle`] / [`DijkstraOracle`] — the exact baselines of
//!   experiment E10 behind the same trait;
//! * [`SsspError`] — one error type for parameter validation, invalid
//!   sources, and configuration conflicts (no panics in the query path);
//! * [`DistanceMatrix`] — flat row-major storage for multi-source results
//!   (one allocation, cache-friendly).
//!
//! Everything here is owned data: `Oracle` is `Send + Sync`, so an
//! `Arc<Oracle>` can serve concurrent query traffic from many threads —
//! the serving-system architecture the ROADMAP targets.
//!
//! ```
//! use pgraph::gen;
//! use sssp::{DistanceOracle, Oracle};
//!
//! let g = gen::road_grid(8, 8, 3, 1.0, 6.0);
//! let oracle = Oracle::builder(g).eps(0.25).kappa(4).build().unwrap();
//! let d = oracle.distances_from(0).unwrap();
//! assert!(d[63].is_finite());
//! assert!(oracle.stretch_bound() == 1.25);
//! ```

use crate::delta_stepping::{default_delta, delta_stepping_on};
use hopset::multi_scale::{build_hopset_on, BuildOptions, BuiltHopset};
use hopset::params::{HopsetParams, ParamError, ParamMode};
use hopset::path_report::{build_spt_on, build_spt_reduced_on, SptResult};
use hopset::reduction::{build_reduced_hopset_on, ReducedHopset};
use hopset::store::Hopset;
use pgraph::{ceil_log2, Graph, OverlayCsr, UnionGraph, UnionView, VId, Weight, INF};
use pram::pool::Executor;
use pram::{bford, cc, pool, Ledger};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Unified error type of the query layer: parameter validation, invalid
/// sources, and builder configuration conflicts. Replaces the panics and
/// ad-hoc `Result` shapes of the pre-oracle API.
#[derive(Clone, Debug, PartialEq)]
pub enum SsspError {
    /// Hopset parameter validation failed (ε, κ, ρ, n out of range).
    Params(ParamError),
    /// A query named a vertex outside `[0, n)` (as a source **or** a
    /// destination — `source` holds whichever argument was offending).
    InvalidSource {
        /// The offending vertex id.
        source: VId,
        /// Number of vertices of the oracle's graph.
        n: usize,
    },
    /// The query needs recorded memory paths, but the oracle was built
    /// without [`OracleBuilder::paths`]`(true)`.
    PathsNotRecorded,
    /// Builder options conflict (the message names the conflict).
    Config(String),
    /// The serving layer's admission gate rejected the request: the
    /// number of in-flight backend explorations already met the
    /// configured capacity and the gate's policy is reject-not-queue.
    /// Retryable by construction — the observed load is part of the
    /// error so callers can shed or back off deliberately.
    Overloaded {
        /// Explorations in flight when the request arrived.
        in_flight: usize,
        /// The configured in-flight bound.
        capacity: usize,
    },
}

impl std::fmt::Display for SsspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsspError::Params(e) => write!(f, "invalid parameters: {e}"),
            SsspError::InvalidSource { source, n } => {
                write!(
                    f,
                    "query vertex {source} out of range (graph has {n} vertices)"
                )
            }
            SsspError::PathsNotRecorded => write!(
                f,
                "SPT extraction requires an oracle built with .paths(true)"
            ),
            SsspError::Config(msg) => write!(f, "conflicting oracle configuration: {msg}"),
            SsspError::Overloaded {
                in_flight,
                capacity,
            } => write!(
                f,
                "admission gate rejected the request: {in_flight} explorations \
                 in flight at capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for SsspError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SsspError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for SsspError {
    fn from(e: ParamError) -> Self {
        SsspError::Params(e)
    }
}

#[inline]
pub(crate) fn check_source(n: usize, v: VId) -> Result<(), SsspError> {
    if (v as usize) < n {
        Ok(())
    } else {
        Err(SsspError::InvalidSource { source: v, n })
    }
}

// ---------------------------------------------------------------------------
// DistanceMatrix / MultiSourceResult
// ---------------------------------------------------------------------------

/// Flat row-major distance matrix: row `i` holds the distances from the
/// `i`-th queried source to every vertex. One allocation, cache-friendly —
/// the serving-ready replacement for `Vec<Vec<Weight>>`.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    /// Row-major data: `data[i * num_targets + v]`.
    data: Vec<Weight>,
    /// Row length (the number of vertices of the queried graph).
    num_targets: usize,
}

impl DistanceMatrix {
    /// An empty matrix pre-allocating space for `rows` rows.
    pub fn with_capacity(rows: usize, num_targets: usize) -> Self {
        DistanceMatrix {
            data: Vec::with_capacity(rows * num_targets),
            num_targets,
        }
    }

    /// Append one row. Panics if `row.len() != num_targets` (rows are
    /// produced by this crate's own query engines).
    pub fn push_row(&mut self, row: &[Weight]) {
        assert_eq!(row.len(), self.num_targets, "row length mismatch");
        self.data.extend_from_slice(row);
    }

    /// Number of rows (sources).
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.data.len().checked_div(self.num_targets).unwrap_or(0)
    }

    /// Number of columns (target vertices).
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// Row `i`: the distances from the `i`-th source to every vertex.
    #[inline]
    pub fn row(&self, i: usize) -> &[Weight] {
        &self.data[i * self.num_targets..(i + 1) * self.num_targets]
    }

    /// The flat row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[Weight] {
        &self.data
    }
}

/// Result of a multi-source (aMSSD) query.
#[derive(Clone, Debug)]
pub struct MultiSourceResult {
    /// `dist.row(i)[v]` = approximate distance from `sources[i]` to `v`.
    pub dist: DistanceMatrix,
    /// The sources queried.
    pub sources: Vec<VId>,
    /// Combined PRAM cost: depth = max over explorations (they run in
    /// parallel), work = sum.
    pub ledger: Ledger,
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// An object-safe, thread-safe distance oracle over a fixed graph.
///
/// Implemented by the hopset engine ([`Oracle`]) and the exact baselines
/// ([`DeltaSteppingOracle`], [`DijkstraOracle`]), so that experiments,
/// benchmarks, and callers compare backends through one surface:
///
/// ```
/// use pgraph::gen;
/// use sssp::{DeltaSteppingOracle, DijkstraOracle, DistanceOracle, Oracle};
/// use std::sync::Arc;
///
/// let g = Arc::new(gen::path(32));
/// let backends: Vec<Box<dyn DistanceOracle>> = vec![
///     Box::new(Oracle::builder(Arc::clone(&g)).build().unwrap()),
///     Box::new(DeltaSteppingOracle::new(Arc::clone(&g))),
///     Box::new(DijkstraOracle::new(g)),
/// ];
/// for b in &backends {
///     let d = b.distances_from(0).unwrap();
///     assert!(d[31] <= b.stretch_bound() * 31.0 + 1e-9);
/// }
/// ```
///
/// The `Send + Sync` supertrait is the serving contract: every implementor
/// owns its data (no graph lifetime parameter), so `Arc<dyn DistanceOracle>`
/// can be queried from many threads concurrently.
pub trait DistanceOracle: Send + Sync {
    /// A short stable backend name (table rows, logs).
    fn name(&self) -> &'static str;

    /// Number of vertices of the underlying graph.
    fn num_vertices(&self) -> usize;

    /// Guaranteed multiplicative stretch: answers are within
    /// `[d, stretch_bound() * d]` of the exact distance `d`. Exact backends
    /// return `1.0`; a backend with no guarantee (an [`Oracle`] under a
    /// binding [`hop_cap`](OracleBuilder::hop_cap)) returns
    /// `f64::INFINITY`. A gate against it must not multiply by a zero
    /// distance (`∞ · 0` is NaN): at `d = 0` the answer must be `0`.
    fn stretch_bound(&self) -> f64;

    /// The construction-cost ledger (PRAM work/depth paid up front, before
    /// any query). Exact baselines have no precomputation and report an
    /// empty ledger.
    fn cost(&self) -> &Ledger;

    /// Distances from one source plus the query's own PRAM cost.
    fn distances_from_with_ledger(&self, source: VId) -> Result<(Vec<Weight>, Ledger), SsspError>;

    /// Distances from one source (aSSSD).
    fn distances_from(&self, source: VId) -> Result<Vec<Weight>, SsspError> {
        Ok(self.distances_from_with_ledger(source)?.0)
    }

    /// Distances for all pairs in `S × V` (aMSSD): `|S|` independent
    /// explorations, charged as parallel (work adds, depth does not).
    fn distances_multi(&self, sources: &[VId]) -> Result<MultiSourceResult, SsspError> {
        let n = self.num_vertices();
        let mut dist = DistanceMatrix::with_capacity(sources.len(), n);
        let mut ledger = Ledger::new();
        for &s in sources {
            let (row, l) = self.distances_from_with_ledger(s)?;
            ledger.absorb_parallel(&l);
            dist.push_row(&row);
        }
        Ok(MultiSourceResult {
            dist,
            sources: sources.to_vec(),
            ledger,
        })
    }

    /// Nearest-source distances: `min_{s ∈ S} d(s, v)` for every `v` — the
    /// "forest" flavor of aMSSD (facility-location style queries).
    fn distances_to_nearest(&self, sources: &[VId]) -> Result<Vec<Weight>, SsspError> {
        let n = self.num_vertices();
        let mut best = vec![INF; n];
        for &s in sources {
            let row = self.distances_from(s)?;
            for (b, d) in best.iter_mut().zip(&row) {
                if *d < *b {
                    *b = *d;
                }
            }
        }
        Ok(best)
    }

    /// Point-to-point distance `u → v`. The default computes a full row;
    /// backends override it with early-exit variants that are
    /// **bit-identical** to `distances_from(u)[v]` (the serving contract,
    /// DESIGN.md §9).
    fn distance(&self, u: VId, v: VId) -> Result<Weight, SsspError> {
        check_source(self.num_vertices(), v)?;
        Ok(self.distances_from(u)?[v as usize])
    }
}

/// Sharing an oracle behind an `Arc` keeps the trait surface: every method
/// delegates, so backend overrides (early-exit `distance`, batched
/// `distances_multi`, single-pass `distances_to_nearest`) stay in effect —
/// the shape the serving layer ([`crate::CachedOracle`]) composes over.
impl<T: DistanceOracle + ?Sized> DistanceOracle for Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn stretch_bound(&self) -> f64 {
        (**self).stretch_bound()
    }

    fn cost(&self) -> &Ledger {
        (**self).cost()
    }

    fn distances_from_with_ledger(&self, source: VId) -> Result<(Vec<Weight>, Ledger), SsspError> {
        (**self).distances_from_with_ledger(source)
    }

    fn distances_from(&self, source: VId) -> Result<Vec<Weight>, SsspError> {
        (**self).distances_from(source)
    }

    fn distances_multi(&self, sources: &[VId]) -> Result<MultiSourceResult, SsspError> {
        (**self).distances_multi(sources)
    }

    fn distances_to_nearest(&self, sources: &[VId]) -> Result<Vec<Weight>, SsspError> {
        (**self).distances_to_nearest(sources)
    }

    fn distance(&self, u: VId, v: VId) -> Result<Weight, SsspError> {
        (**self).distance(u, v)
    }
}

// ---------------------------------------------------------------------------
// The hopset oracle + builder
// ---------------------------------------------------------------------------

/// Which hopset pipeline backs (or should back) an [`Oracle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// Certify the distance range first (DESIGN.md §4): a graph on which
    /// `G` alone is exact within the hop budget gets the plain backend
    /// with no scale. Otherwise pick from the aspect-ratio bound: plain
    /// while `Λ ≤ n²` (the `log Λ` scale count stays within the poly(n)
    /// budget of §2), Klein–Sairam reduced beyond (Appendix C keeps every
    /// level's aspect at `O(n/ε)`).
    Auto,
    /// §2/§3: bounded aspect ratio, plain multi-scale (Theorems 3.7/4.6).
    Plain,
    /// Appendix C/D: weight-reduced, no aspect-ratio assumption
    /// (Theorems C.3/D.2).
    Reduced,
}

#[derive(Debug)]
pub(crate) enum OracleBackend {
    Plain(BuiltHopset),
    Reduced(ReducedHopset),
}

/// Fluent configuration for [`Oracle`]. Obtain via [`Oracle::builder`];
/// every setter has a documented default, and [`OracleBuilder::build`]
/// validates the combination (returning [`SsspError`] instead of panicking).
#[derive(Clone, Debug)]
pub struct OracleBuilder {
    graph: Arc<Graph>,
    eps: f64,
    kappa: usize,
    rho: Option<f64>,
    mode: ParamMode,
    hop_cap: Option<usize>,
    paths: bool,
    pipeline: Pipeline,
    threads: Option<usize>,
    executor: Option<Executor>,
}

impl OracleBuilder {
    /// Target stretch `1 + eps`, `eps ∈ (0, 1)`. Default `0.25`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sparsity parameter `κ ≥ 2` (hopset size `O(n^{1+1/κ})` per scale).
    /// Default `4`.
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.kappa = kappa;
        self
    }

    /// Work parameter `ρ ∈ (0, 1/2)`. Default `min(1/κ, 0.499…)` — the
    /// setting of the SSSP corollary after Theorem 3.8.
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = Some(rho);
        self
    }

    /// Constant-instantiation mode ([`ParamMode::Practical`] by default).
    pub fn mode(mut self, mode: ParamMode) -> Self {
        self.mode = mode;
        self
    }

    /// Clamp exploration/query hop budgets (practical-scale runs). Only
    /// meaningful on the plain pipeline; conflicts with
    /// [`Pipeline::Reduced`] (under [`Pipeline::Auto`] it forces plain).
    /// A cap below `min(β, n)` binds: it voids the `(1+ε)` bound, so the
    /// oracle's [`stretch_bound`](DistanceOracle::stretch_bound) is
    /// `f64::INFINITY` and no landmark plane builds over it, and it skips
    /// the distance-range certificate (DESIGN.md §4): the capped build is
    /// the full construction.
    pub fn hop_cap(mut self, cap: usize) -> Self {
        self.hop_cap = Some(cap);
        self
    }

    /// Record memory paths on every hopset edge (§4), enabling
    /// [`Oracle::spt`]. Default `false` (paths cost memory).
    pub fn paths(mut self, record: bool) -> Self {
        self.paths = record;
        self
    }

    /// Select the construction pipeline explicitly. Default
    /// [`Pipeline::Auto`].
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Pin the thread count: [`build`](OracleBuilder::build) creates a
    /// **private** persistent `pram` pool ([`Executor::new`]) of this size
    /// that serves the construction and every subsequent query — no global
    /// execution state is shared with other oracles (the deterministic
    /// chunked scheduling makes results bit-identical for every choice, so
    /// this knob trades wall-clock only). `0` clamps to `1` per
    /// [`Executor::new`]'s documented rule. Default: one thread
    /// ([`Executor::sequential`], no workers spawned). The builder never
    /// reads the environment; a binary that wants `PRAM_SSSP_THREADS`
    /// passes `pram::pool::threads_from_env()` here.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Run on an explicit executor handle instead (e.g. one pool shared by
    /// several oracles, or a bench-controlled one). Takes precedence over
    /// [`threads`](OracleBuilder::threads).
    pub fn executor(mut self, exec: Executor) -> Self {
        self.executor = Some(exec);
        self
    }

    /// Build the oracle: validate the input graph and the configuration,
    /// certify the distance range, run the deterministic hopset
    /// construction unless the certificate shows `G` alone is exact
    /// (DESIGN.md §4), and assemble the owned `G ∪ H` union CSR that every
    /// subsequent query reuses.
    ///
    /// Errors: [`ParamError::TooFewVertices`] below 2 vertices, and
    /// [`SsspError::Config`] for a minimum edge weight below 1 — the
    /// construction and the certificate assume the paper's normalization
    /// (§1.5); [`Graph::scaled_to_unit_min`] applies it.
    pub fn build(self) -> Result<Oracle, SsspError> {
        let g = &self.graph;
        let n = g.num_vertices();
        if n < 2 {
            return Err(ParamError::TooFewVertices(n).into());
        }
        if let Some(mn) = g.min_weight().filter(|&mn| mn < 1.0 - 1e-12) {
            return Err(SsspError::Config(format!(
                "minimum edge weight {mn} is below 1; normalize the graph with \
                 Graph::scaled_to_unit_min() first"
            )));
        }
        if self.pipeline == Pipeline::Reduced && self.hop_cap.is_some() {
            return Err(SsspError::Config(
                "hop_cap applies to the plain pipeline only; the reduced pipeline's \
                 hop budget is 6β+5 (Theorem C.3)"
                    .into(),
            ));
        }
        let aspect = g.aspect_ratio_bound();
        let rho = self
            .rho
            .unwrap_or_else(|| (1.0 / self.kappa as f64).min(0.499_999));
        let opts = BuildOptions {
            record_paths: self.paths,
        };
        // The executor the oracle owns: an injected handle wins, then a
        // pinned private pool, then one thread (construction and every
        // query run on the same pool either way — "parallel round =
        // barrier", never "parallel round = spawn").
        let exec = match (self.executor, self.threads) {
            (Some(exec), _) => exec,
            (None, Some(t)) => Executor::new(t),
            (None, None) => Executor::sequential(),
        };
        // `ledger` holds the certificate's charge (if it ran); the build's
        // own ledger is absorbed after it.
        let reduced = |mut ledger: Ledger| -> Result<(OracleBackend, usize), SsspError> {
            let r = build_reduced_hopset_on(&exec, g, self.eps, self.kappa, rho, self.mode, opts)?;
            ledger.absorb_sequential(&r.ledger);
            let hops = r.query_hops;
            Ok((OracleBackend::Reduced(ReducedHopset { ledger, ..r }), hops))
        };
        let (backend, query_hops) = match self.pipeline {
            Pipeline::Reduced => reduced(Ledger::new())?,
            Pipeline::Plain | Pipeline::Auto => {
                let params = HopsetParams::new(
                    n,
                    self.eps,
                    self.kappa,
                    rho,
                    self.mode,
                    aspect,
                    self.hop_cap,
                )?;
                let hops = params.query_hops;
                let mut ledger = Ledger::new();
                // A binding cap already voids Theorem 3.7's hop budget, so
                // capped builds skip the certificate and stay exactly as
                // they were.
                if !cap_binds(&params) && g_alone_is_exact(&exec, g, hops, &mut ledger) {
                    let k0 = params.k0();
                    let built = BuiltHopset {
                        hopset: Hopset::new(),
                        params,
                        scales: Vec::new(),
                        ledger,
                        k0,
                        lambda: k0 - 1,
                    };
                    (OracleBackend::Plain(built), hops)
                } else if self.pipeline == Pipeline::Auto
                    && self.hop_cap.is_none()
                    && aspect > (n as f64).powi(2)
                {
                    // Plain pays ⌈log Λ⌉ scales; beyond Λ = n² the
                    // reduction's per-level O(n/ε) aspect bound wins. A hop
                    // cap is a plain-pipeline knob, so it pins Auto to plain.
                    reduced(ledger)?
                } else {
                    let built = build_hopset_on(&exec, g, &params, opts);
                    ledger.absorb_sequential(&built.ledger);
                    (OracleBackend::Plain(BuiltHopset { ledger, ..built }), hops)
                }
            }
        };

        // The union CSR is built exactly once, bucketed straight from the
        // store's flat columns — no `(u, v, w)` triple list is ever
        // materialized; distances_from / distances_multi / spt all reuse it.
        let union = {
            let _ph = pram::phase::PhaseScope::enter("oracle-assembly");
            let h = match &backend {
                OracleBackend::Plain(b) => &b.hopset,
                OracleBackend::Reduced(r) => &r.hopset,
            };
            let csr = OverlayCsr::build_columns(self.graph.num_vertices(), h.us(), h.vs(), h.ws());
            UnionGraph::from_csr(Arc::clone(&self.graph), csr)
        };

        Ok(Oracle {
            union,
            backend,
            eps: self.eps,
            kappa: self.kappa,
            query_hops,
            paths: self.paths,
            exec,
        })
    }
}

/// Whether a hop cap binds: the query budget is below `min(β, n)`, the
/// budget Theorem 3.7's `(1+ε)` bound assumes. A binding cap voids the
/// bound (a capped row can overshoot it, or miss a connected vertex) and
/// skips the distance-range certificate. Derived from the params alone, so
/// a loaded snapshot gets the same answer as the build it came from.
fn cap_binds(params: &HopsetParams) -> bool {
    params.query_hops < params.beta.min(params.n)
}

/// The distance-range certificate (DESIGN.md §4): one `query_hops`-round
/// exploration over `G` alone, from the smallest id of every component.
/// When it reaches every vertex, `D̂ = 2·max d̃` bounds every finite
/// distance (`d(u,v) ≤ d̃(r,u) + d̃(r,v)` for the representative `r` of
/// their component). Weights are ≥ 1, so if `D̂ ≤ query_hops` every
/// shortest path has at most `query_hops` edges, a bare query exploration
/// is exact for every pair, and Eq. (1) holds with `H = ∅`. The components
/// pass and the exploration are charged to `ledger`.
fn g_alone_is_exact(exec: &Executor, g: &Graph, query_hops: usize, ledger: &mut Ledger) -> bool {
    let _ph = pram::phase::PhaseScope::enter("certify");
    let cc = cc::connected_components(exec, g, ledger);
    // A component's label is its smallest id, so its representative is
    // the one vertex labelled with itself.
    let roots: Vec<VId> = (0..g.num_vertices() as VId)
        .filter(|&v| cc.label[v as usize] == v)
        .collect();
    let mut scratch = bford::BfordScratch::new();
    bford::bellman_ford_into(
        exec,
        &UnionView::base_only(g),
        &roots,
        query_hops,
        ledger,
        &mut scratch,
    );
    scratch
        .dist()
        .iter()
        .copied()
        .max_by(pgraph::wcmp)
        .is_some_and(|far| 2.0 * far <= query_hops as Weight)
}

/// The hopset-backed distance oracle: the paper's one artifact as one
/// owned, thread-safe object.
///
/// Built once via [`Oracle::builder`], it serves aSSSD
/// ([`DistanceOracle::distances_from`]), aMSSD batches
/// ([`DistanceOracle::distances_multi`]), nearest-source queries,
/// point-to-point [`DistanceOracle::distance`], and — when built with
/// [`OracleBuilder::paths`]`(true)` — `(1+ε)`-shortest-path trees
/// ([`Oracle::spt`]), all from the same pre-built `G ∪ H` union CSR.
///
/// `Oracle` is `Send + Sync` and owns the graph via `Arc<Graph>`: wrap it
/// in an `Arc` and query it from as many threads as you like.
#[derive(Debug)]
pub struct Oracle {
    pub(crate) union: UnionGraph,
    pub(crate) backend: OracleBackend,
    pub(crate) eps: f64,
    pub(crate) kappa: usize,
    pub(crate) query_hops: usize,
    pub(crate) paths: bool,
    /// The persistent pool construction ran on and every query runs on.
    pub(crate) exec: Executor,
}

impl Oracle {
    /// Start configuring an oracle over `graph` (accepts a `Graph` by value
    /// or an existing `Arc<Graph>`).
    pub fn builder(graph: impl Into<Arc<Graph>>) -> OracleBuilder {
        OracleBuilder {
            graph: graph.into(),
            eps: 0.25,
            kappa: 4,
            rho: None,
            mode: ParamMode::Practical,
            hop_cap: None,
            paths: false,
            pipeline: Pipeline::Auto,
            threads: None,
            executor: None,
        }
    }

    /// The graph the oracle answers queries on.
    pub fn graph(&self) -> &Graph {
        self.union.base()
    }

    /// The shared handle to the graph (cheap to clone).
    pub fn graph_arc(&self) -> &Arc<Graph> {
        self.union.base_arc()
    }

    /// The ε the oracle was built with (stretch bound is `1 + ε`).
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The κ the oracle was built with.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// The hop budget queries run with (β, or 6β+5 on the reduced pipeline).
    pub fn query_hops(&self) -> usize {
        self.query_hops
    }

    /// Which pipeline backs the oracle ([`Pipeline::Plain`] or
    /// [`Pipeline::Reduced`]; never `Auto` after building).
    pub fn pipeline(&self) -> Pipeline {
        match &self.backend {
            OracleBackend::Plain(_) => Pipeline::Plain,
            OracleBackend::Reduced(_) => Pipeline::Reduced,
        }
    }

    /// Number of hopset edges backing the oracle.
    pub fn hopset_size(&self) -> usize {
        match &self.backend {
            OracleBackend::Plain(b) => b.hopset.len(),
            OracleBackend::Reduced(r) => r.hopset.len(),
        }
    }

    /// Whether memory paths were recorded (i.e. [`Oracle::spt`] works).
    pub fn has_paths(&self) -> bool {
        self.paths
    }

    /// The persistent executor this oracle owns: construction ran on it and
    /// every query runs on it. Cloning the handle shares the same pool.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The plain-pipeline construction report, if that pipeline backs the
    /// oracle. A certified oracle reports no scale (`λ = k₀ − 1`).
    pub fn built(&self) -> Option<&BuiltHopset> {
        match &self.backend {
            OracleBackend::Plain(b) => Some(b),
            OracleBackend::Reduced(_) => None,
        }
    }

    /// The reduced-pipeline construction report, if that pipeline backs the
    /// oracle.
    pub fn reduced(&self) -> Option<&ReducedHopset> {
        match &self.backend {
            OracleBackend::Plain(_) => None,
            OracleBackend::Reduced(r) => Some(r),
        }
    }

    /// Extract the `(1+ε)`-shortest-path tree rooted at `source`
    /// (Theorem 4.6 / D.2). Requires [`OracleBuilder::paths`]`(true)`.
    pub fn spt(&self, source: VId) -> Result<SptResult, SsspError> {
        check_source(self.num_vertices(), source)?;
        if !self.paths {
            return Err(SsspError::PathsNotRecorded);
        }
        let view = self.union.view();
        Ok(match &self.backend {
            OracleBackend::Plain(b) => build_spt_on(&self.exec, &view, b, source),
            OracleBackend::Reduced(r) => build_spt_reduced_on(&self.exec, &view, r, source),
        })
    }
}

impl DistanceOracle for Oracle {
    fn name(&self) -> &'static str {
        match &self.backend {
            OracleBackend::Plain(_) => "hopset",
            OracleBackend::Reduced(_) => "hopset-reduced",
        }
    }

    fn num_vertices(&self) -> usize {
        self.union.num_vertices()
    }

    /// `1 + ε`, or `f64::INFINITY` when a binding
    /// [`hop_cap`](OracleBuilder::hop_cap) voids the bound.
    fn stretch_bound(&self) -> f64 {
        match &self.backend {
            OracleBackend::Plain(b) if cap_binds(&b.params) => f64::INFINITY,
            _ => 1.0 + self.eps,
        }
    }

    fn cost(&self) -> &Ledger {
        match &self.backend {
            OracleBackend::Plain(b) => &b.ledger,
            OracleBackend::Reduced(r) => &r.ledger,
        }
    }

    fn distances_from_with_ledger(&self, source: VId) -> Result<(Vec<Weight>, Ledger), SsspError> {
        check_source(self.num_vertices(), source)?;
        let mut ledger = Ledger::new();
        let mut scratch = bford::BfordScratch::new();
        bford::bellman_ford_into(
            &self.exec,
            &self.union.view(),
            &[source],
            self.query_hops,
            &mut ledger,
            &mut scratch,
        );
        Ok((scratch.into_dist(), ledger))
    }

    /// `|S|` independent β-hop explorations, batched: **one** union view
    /// and **one** reusable [`bford::BfordScratch`] serve the whole
    /// request batch instead of reallocating per source. On graphs below
    /// `PAR_THRESHOLD` vertices (where the per-round primitives stay
    /// sequential) the pool fans out **across sources** instead — coarse
    /// `task_bounds` chunks of the source list, one scratch per chunk,
    /// rows merged in source order (chunks are contiguous and increasing),
    /// so the result is bit-identical either way. The batch is *charged*
    /// as parallel on the ledger regardless (Theorem 3.8: work adds,
    /// depth does not — the PRAM claim is the counted one).
    fn distances_multi(&self, sources: &[VId]) -> Result<MultiSourceResult, SsspError> {
        let n = self.num_vertices();
        for &s in sources {
            check_source(n, s)?;
        }
        let hops = self.query_hops;
        // The overlay traversal state is amortized across the batch: the
        // view is materialized once, outside the per-source loop.
        let view = self.union.view();
        let mut ledger = Ledger::new();
        let mut dist = DistanceMatrix::with_capacity(sources.len(), n);
        if n < pool::PAR_THRESHOLD && sources.len() > 1 && self.exec.effective_threads() > 1 {
            let bounds = self.exec.task_bounds(sources.len());
            let per_chunk = self.exec.run_chunks(&bounds, |r| {
                // Inside a cross-source fan-out the per-round primitives
                // collapse to sequential on the same executor (nested
                // rounds never spawn or deadlock).
                let mut scratch = bford::BfordScratch::new();
                r.map(|i| {
                    let mut l = Ledger::new();
                    bford::bellman_ford_into(
                        &self.exec,
                        &view,
                        &[sources[i]],
                        hops,
                        &mut l,
                        &mut scratch,
                    );
                    (scratch.dist().to_vec(), l)
                })
                .collect::<Vec<_>>()
            });
            for (row, l) in per_chunk.into_iter().flatten() {
                ledger.absorb_parallel(&l);
                dist.push_row(&row);
            }
        } else {
            let mut scratch = bford::BfordScratch::new();
            for &s in sources {
                let mut l = Ledger::new();
                bford::bellman_ford_into(&self.exec, &view, &[s], hops, &mut l, &mut scratch);
                ledger.absorb_parallel(&l);
                // The row is copied straight into the flat matrix — the
                // scratch buffers are reused by the next source.
                dist.push_row(scratch.dist());
            }
        }
        Ok(MultiSourceResult {
            dist,
            sources: sources.to_vec(),
            ledger,
        })
    }

    /// One multi-source exploration (not `|S|` of them): the hopset engine
    /// answers nearest-source queries in a single β-round pass.
    fn distances_to_nearest(&self, sources: &[VId]) -> Result<Vec<Weight>, SsspError> {
        let n = self.num_vertices();
        for &s in sources {
            check_source(n, s)?;
        }
        let mut ledger = Ledger::new();
        let mut scratch = bford::BfordScratch::new();
        bford::bellman_ford_into(
            &self.exec,
            &self.union.view(),
            sources,
            self.query_hops,
            &mut ledger,
            &mut scratch,
        );
        Ok(scratch.into_dist())
    }

    /// True point-to-point: the β-round loop stops as soon as `v`'s label
    /// settles, and until then a vertex whose label is not below `v`'s
    /// does not propagate ([`bford::bellman_ford_to`]; both rules proven
    /// in DESIGN.md §9). Bit-identical to `distances_from(u)[v]` — the
    /// early exit skips only rounds, and the bound only offers, that
    /// provably cannot change `v`'s label, so the `(1+ε)` stretch bound
    /// carries over unchanged.
    fn distance(&self, u: VId, v: VId) -> Result<Weight, SsspError> {
        let n = self.num_vertices();
        check_source(n, v)?;
        check_source(n, u)?;
        let mut ledger = Ledger::new();
        let r = bford::bellman_ford_to(
            &self.exec,
            &self.union.view(),
            &[u],
            v,
            self.query_hops,
            &mut ledger,
        );
        Ok(r.dist)
    }
}

// ---------------------------------------------------------------------------
// Baseline oracles
// ---------------------------------------------------------------------------

/// Δ-stepping \[Meyer–Sanders 2003\] behind the [`DistanceOracle`] trait:
/// exact answers, no precomputation, `Θ(diameter/Δ)` depth — the practical
/// parallel competitor of experiment E10.
pub struct DeltaSteppingOracle {
    graph: Arc<Graph>,
    delta: Weight,
    build_cost: Ledger,
    /// The persistent pool relaxation rounds run on (one thread unless
    /// [`DeltaSteppingOracle::with_executor`] swaps in another).
    exec: Executor,
}

impl DeltaSteppingOracle {
    /// Use the standard width heuristic [`default_delta`]. Queries run on
    /// one thread until [`DeltaSteppingOracle::with_executor`] supplies a
    /// pool.
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        let graph = graph.into();
        let delta = default_delta(&graph);
        DeltaSteppingOracle {
            graph,
            delta,
            build_cost: Ledger::new(),
            exec: Executor::sequential(),
        }
    }

    /// Use an explicit bucket width `delta > 0`.
    pub fn with_delta(graph: impl Into<Arc<Graph>>, delta: Weight) -> Result<Self, SsspError> {
        if !(delta > 0.0 && delta.is_finite()) {
            return Err(SsspError::Config(format!(
                "delta-stepping bucket width must be positive and finite, got {delta}"
            )));
        }
        Ok(DeltaSteppingOracle {
            graph: graph.into(),
            delta,
            build_cost: Ledger::new(),
            exec: Executor::sequential(),
        })
    }

    /// Run queries on an explicit executor (builder-style).
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The executor queries run on.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The bucket width in use.
    pub fn delta(&self) -> Weight {
        self.delta
    }
}

impl DistanceOracle for DeltaSteppingOracle {
    fn name(&self) -> &'static str {
        "delta-stepping"
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn stretch_bound(&self) -> f64 {
        1.0
    }

    fn cost(&self) -> &Ledger {
        &self.build_cost
    }

    fn distances_from_with_ledger(&self, source: VId) -> Result<(Vec<Weight>, Ledger), SsspError> {
        check_source(self.num_vertices(), source)?;
        let r = delta_stepping_on(&self.exec, &self.graph, source, self.delta);
        Ok((r.dist, r.ledger))
    }

    /// Early exit on the settled-bucket invariant
    /// ([`crate::delta_stepping::delta_stepping_to_on`]): bit-identical to
    /// the full run's `dist[v]`, so E4/E10 backend comparisons stay like
    /// with like.
    fn distance(&self, u: VId, v: VId) -> Result<Weight, SsspError> {
        let n = self.num_vertices();
        check_source(n, v)?;
        check_source(n, u)?;
        let r =
            crate::delta_stepping::delta_stepping_to_on(&self.exec, &self.graph, u, v, self.delta);
        Ok(r.dist)
    }
}

/// Exact sequential Dijkstra behind the [`DistanceOracle`] trait: the work
/// and wall-clock baseline of experiment E10. Its ledger charges every
/// operation as its own round (a sequential machine has depth = work).
pub struct DijkstraOracle {
    graph: Arc<Graph>,
    build_cost: Ledger,
}

impl DijkstraOracle {
    /// Wrap `graph`; there is no precomputation.
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        DijkstraOracle {
            graph: graph.into(),
            build_cost: Ledger::new(),
        }
    }
}

impl DistanceOracle for DijkstraOracle {
    fn name(&self) -> &'static str {
        "dijkstra"
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn stretch_bound(&self) -> f64 {
        1.0
    }

    fn cost(&self) -> &Ledger {
        &self.build_cost
    }

    fn distances_from_with_ledger(&self, source: VId) -> Result<(Vec<Weight>, Ledger), SsspError> {
        check_source(self.num_vertices(), source)?;
        let r = pgraph::exact::dijkstra(&self.graph, source);
        // Sequential accounting: 2m edge relaxations + n log n heap
        // operations, one per round.
        let n = self.graph.num_vertices().max(1);
        let ops = 2 * self.graph.num_edges() as u64 + (n as u64) * ceil_log2(n).max(1) as u64;
        let mut ledger = Ledger::new();
        ledger.steps(ops, 1);
        Ok((r.dist, ledger))
    }

    /// Pop-`v` termination ([`pgraph::exact::dijkstra_to`]): the classical
    /// settled-vertex invariant makes the popped label final, bit-identical
    /// to the full run's `dist[v]`.
    fn distance(&self, u: VId, v: VId) -> Result<Weight, SsspError> {
        let n = self.num_vertices();
        check_source(n, v)?;
        check_source(n, u)?;
        Ok(pgraph::exact::dijkstra_to(&self.graph, u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::exact::dijkstra;
    use pgraph::gen;
    use pram::pool::threads_from_env;

    #[test]
    fn builder_defaults_match_contract() {
        let g = gen::gnm_connected(120, 360, 6, 1.0, 9.0);
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert_eq!(oracle.pipeline(), Pipeline::Plain);
        assert_eq!(oracle.stretch_bound(), 1.25);
        let exact = dijkstra(oracle.graph(), 17).dist;
        let d = oracle.distances_from(17).unwrap();
        for v in 0..120 {
            assert!(d[v] >= exact[v] - 1e-6 * exact[v].max(1.0));
            assert!(d[v] <= 1.25 * exact[v] + 1e-9, "v={v}");
        }
        // Vertices no path reaches stay infinite.
        let g = Graph::from_edges(5, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let d = oracle.distances_from(0).unwrap();
        assert_eq!(d[3], INF);
        assert_eq!(d[4], INF);
        assert!(d[2].is_finite());
    }

    #[test]
    fn auto_pipeline_selects_reduced_on_huge_aspect() {
        let g = gen::exponential_path(28, 3.0); // aspect 3^26 >> n^2
        let oracle = Oracle::builder(g)
            .eps(0.5)
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert_eq!(oracle.pipeline(), Pipeline::Reduced);
        assert_eq!(oracle.name(), "hopset-reduced");
        let exact = dijkstra(oracle.graph(), 0).dist;
        let d = oracle.distances_from(0).unwrap();
        for v in 0..28 {
            assert!(d[v] >= exact[v] * (1.0 - 1e-9));
            assert!(d[v] <= 1.5 * exact[v] + 1e-9, "v={v}");
        }
    }

    #[test]
    fn auto_pipeline_stays_plain_on_unit_weights() {
        let g = gen::path(64);
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert_eq!(oracle.pipeline(), Pipeline::Plain);
        assert_eq!(oracle.name(), "hopset");
    }

    #[test]
    fn builder_errors_are_typed() {
        let g = Arc::new(gen::path(16));
        match Oracle::builder(Arc::clone(&g))
            .eps(2.0)
            .threads(threads_from_env())
            .build()
        {
            Err(SsspError::Params(ParamError::BadEps(e))) => assert_eq!(e, 2.0),
            other => panic!("expected BadEps, got {other:?}"),
        }
        match Oracle::builder(Arc::clone(&g))
            .hop_cap(16)
            .pipeline(Pipeline::Reduced)
            .threads(threads_from_env())
            .build()
        {
            Err(SsspError::Config(msg)) => assert!(msg.contains("hop_cap")),
            other => panic!("expected Config error, got {:?}", other.map(|_| ())),
        }
        // Auto + hop_cap resolves to plain instead of conflicting.
        let o = Oracle::builder(g)
            .hop_cap(16)
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert_eq!(o.pipeline(), Pipeline::Plain);
        assert!(o.query_hops() <= 16);
    }

    #[test]
    fn builder_rejects_tiny_and_unnormalized_graphs() {
        let light = Graph::from_edges(4, [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 2.0)]).unwrap();
        for pipeline in [Pipeline::Auto, Pipeline::Plain, Pipeline::Reduced] {
            for n in [0, 1] {
                match Oracle::builder(Graph::empty(n))
                    .pipeline(pipeline)
                    .threads(threads_from_env())
                    .build()
                {
                    Err(SsspError::Params(ParamError::TooFewVertices(got))) => assert_eq!(got, n),
                    other => panic!("{pipeline:?}, n = {n}: got {:?}", other.map(|_| ())),
                }
            }
            match Oracle::builder(light.clone())
                .pipeline(pipeline)
                .threads(threads_from_env())
                .build()
            {
                Err(SsspError::Config(msg)) => assert!(msg.contains("scaled_to_unit_min"), "{msg}"),
                other => panic!("{pipeline:?}, w_min 0.5: got {:?}", other.map(|_| ())),
            }
            // Normalized (weights 1, 2, 4), the same graph builds.
            let o = Oracle::builder(light.scaled_to_unit_min())
                .pipeline(pipeline)
                .threads(threads_from_env())
                .build()
                .unwrap();
            let d = o.distance(0, 3).unwrap();
            assert!(
                (7.0..=1.25 * 7.0).contains(&d),
                "{pipeline:?}: d(0, 3) = {d}"
            );
        }
    }

    #[test]
    fn invalid_sources_are_rejected_not_panicked() {
        let g = gen::path(10);
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert!(matches!(
            oracle.distances_from(10),
            Err(SsspError::InvalidSource { source: 10, n: 10 })
        ));
        assert!(matches!(
            oracle.distances_multi(&[0, 99]),
            Err(SsspError::InvalidSource { source: 99, .. })
        ));
        assert!(matches!(
            oracle.distance(0, 10),
            Err(SsspError::InvalidSource { .. })
        ));
        assert!(matches!(oracle.spt(0), Err(SsspError::PathsNotRecorded)));
    }

    #[test]
    fn spt_from_the_same_built_object() {
        let g = gen::clique_chain(4, 7, 2.0);
        let oracle = Oracle::builder(g)
            .paths(true)
            .threads(threads_from_env())
            .build()
            .unwrap();
        // Distances and trees from one build.
        let d = oracle.distances_from(0).unwrap();
        let spt = oracle.spt(0).unwrap();
        let val = hopset::path_report::validate_spt(oracle.graph(), &spt);
        assert_eq!(val.non_graph_edges, 0);
        assert_eq!(val.missing, 0);
        assert!(val.max_stretch <= 1.25 + 1e-9, "{val:?}");
        // Every vertex the distance query reaches, the tree reaches too.
        for (td, qd) in spt.dist.iter().zip(&d) {
            assert_eq!(td.is_finite(), qd.is_finite());
        }
    }

    #[test]
    fn multi_source_rows_match_single_source() {
        let g = gen::road_grid(10, 10, 4, 1.0, 5.0);
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let sources = vec![0u32, 37, 99];
        let multi = oracle.distances_multi(&sources).unwrap();
        assert_eq!(multi.dist.num_sources(), 3);
        assert_eq!(multi.dist.num_targets(), 100);
        for (i, &s) in sources.iter().enumerate() {
            let single = oracle.distances_from(s).unwrap();
            assert_eq!(multi.dist.row(i), &single[..], "source {s}");
        }
        assert_eq!(multi.dist.row(1)[37], 0.0);
    }

    #[test]
    fn nearest_source_is_one_exploration() {
        let g = gen::path(30);
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let d = oracle.distances_to_nearest(&[0, 29]).unwrap();
        assert_eq!(d[0], 0.0);
        assert_eq!(d[29], 0.0);
        assert!(d[15] <= 15.0 * 1.25 + 1e-9);
        assert!(d[15] >= 14.0 - 1e-9);
    }

    #[test]
    fn baselines_are_exact_through_the_trait() {
        let g = Arc::new(gen::gnm_connected(80, 240, 2, 1.0, 9.0));
        let exact = dijkstra(&g, 0).dist;
        let backends: Vec<Box<dyn DistanceOracle>> = vec![
            Box::new(
                DeltaSteppingOracle::new(Arc::clone(&g))
                    .with_executor(Executor::new(threads_from_env())),
            ),
            Box::new(DijkstraOracle::new(Arc::clone(&g))),
        ];
        for b in &backends {
            assert_eq!(b.stretch_bound(), 1.0);
            assert_eq!(b.cost().work(), 0, "no precompute for {}", b.name());
            let d = b.distances_from(0).unwrap();
            for v in 0..80 {
                assert!(
                    (d[v] - exact[v]).abs() < 1e-9 || (d[v] == INF && exact[v] == INF),
                    "{} v={v}",
                    b.name()
                );
            }
            // Generic point-to-point + nearest-source through the trait.
            assert!((b.distance(0, 40).unwrap() - exact[40]).abs() < 1e-9);
            let near = b.distances_to_nearest(&[0, 79]).unwrap();
            assert_eq!(near[0], 0.0);
            assert_eq!(near[79], 0.0);
        }
    }

    #[test]
    fn delta_stepping_oracle_validates_delta() {
        let g = Arc::new(gen::path(8));
        assert!(matches!(
            DeltaSteppingOracle::with_delta(Arc::clone(&g), 0.0),
            Err(SsspError::Config(_))
        ));
        let o = DeltaSteppingOracle::with_delta(g, 2.5).unwrap();
        assert_eq!(o.delta(), 2.5);
    }

    // Send/Sync static assertions, object safety, and cross-thread
    // determinism are pinned at the public surface in tests/oracle_api.rs.

    #[test]
    fn distance_matrix_shape() {
        let mut m = DistanceMatrix::with_capacity(2, 3);
        assert_eq!(m.num_sources(), 0);
        m.push_row(&[0.0, 1.0, 2.0]);
        m.push_row(&[5.0, 0.0, 1.0]);
        assert_eq!(m.num_sources(), 2);
        assert_eq!(m.row(1), &[5.0, 0.0, 1.0]);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 5.0, 0.0, 1.0]);
    }
}
