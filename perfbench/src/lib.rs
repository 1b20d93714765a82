//! The repository's benchmark: two fixed workloads driven through the
//! public API of `pgraph`, `pram`, `hopset` and `sssp`.
//!
//! A run generates its inputs from the workload seed, builds the
//! query-ready stack (the hopset oracle plus its landmark plane),
//! measures it for a fixed time, checks sampled answers
//! against exact Dijkstra outside the timed regions, and reports either
//! the end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run; only that process installs the `pram::phase` hook).
//!
//! `perfbench/README.md` records what each workload is for and which end-to-end
//! metric each per-layer metric should move.

pub mod inputs;
pub mod layers;
pub mod load;
pub mod stats;

use inputs::{Inputs, Request, Shape, Stream};
use load::Served;
use pgraph::{exact, gen, Graph, OverlayCsr, UnionGraph, VId, Weight};
use pram::{bford, prim, Ledger};
use sssp::{
    CacheConfig, CachedOracle, DistanceOracle, FillPolicy, LandmarkConfig, LandmarkPlane, Oracle,
    OracleBuilder, SsspError,
};
use stats::{quantile, sample, secs, trimmed_mean, Ops, Rng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The benchmark's workloads (names as the command line takes them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `road_grid(128, 128)`: deep, sparse explorations.
    Road,
    /// `gnm_connected(16 384, 32 768)`: shallow, dense explorations.
    Gnm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Road, Workload::Gnm];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Road => "road",
            Workload::Gnm => "gnm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Instance size: the benchmark's own, or a tiny one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The instances the benchmark is defined on.
    Full,
    /// Same shapes, a few hundred vertices (the crate's own tests).
    Tiny,
}

/// Graph family and shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// `gen::road_grid(rows, cols, seed, 1, 10)`.
    RoadGrid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// `gen::gnm_connected(n, m, seed, 1, 10)`.
    Gnm {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
    },
}

/// Everything that defines a workload's instance.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Graph family and shape; weights are uniform in `[1, 10]`.
    pub family: Family,
    /// Target stretch `1 + eps`.
    pub eps: f64,
    /// Sparsity parameter κ.
    pub kappa: usize,
    /// The oracle's pinned executor size.
    pub threads: usize,
    /// Landmark plane `(L, δ)` of the served stack.
    pub landmarks: LandmarkConfig,
    /// Open-loop arrival rate of the served mix, requests per second.
    pub rate: f64,
}

const W_LO: Weight = 1.0;
const W_HI: Weight = 10.0;

impl Spec {
    /// The instance of `workload` at `size`.
    pub fn new(workload: Workload, size: Size) -> Spec {
        let full = size == Size::Full;
        let family = match workload {
            Workload::Road => {
                let side = if full { 128 } else { 14 };
                Family::RoadGrid {
                    rows: side,
                    cols: side,
                }
            }
            Workload::Gnm => {
                let n = if full { 16_384 } else { 192 };
                Family::Gnm { n, m: 2 * n }
            }
        };
        Spec {
            workload,
            family,
            eps: 0.25,
            kappa: 4,
            threads: 2,
            landmarks: LandmarkConfig::new(if full { 16 } else { 4 }, 1.0),
            rate: 100.0,
        }
    }

    /// Generate the instance's graph for `seed`.
    pub fn graph(&self, seed: u64) -> Graph {
        match self.family {
            Family::RoadGrid { rows, cols } => gen::road_grid(rows, cols, seed, W_LO, W_HI),
            Family::Gnm { n, m } => gen::gnm_connected(n, m, seed, W_LO, W_HI),
        }
    }

    /// One line describing the instance.
    pub fn describe(&self) -> String {
        let family = match self.family {
            Family::RoadGrid { rows, cols } => format!("road_grid({rows},{cols})"),
            Family::Gnm { n, m } => format!("gnm_connected({n},{m})"),
        };
        let c = &self.landmarks;
        format!(
            "workload={} instance={} weights=U[{W_LO},{W_HI}] eps={} kappa={} threads={} L={} delta={} rate={}/s",
            self.workload.name(),
            family,
            self.eps,
            self.kappa,
            self.threads,
            c.count,
            c.delta,
            self.rate
        )
    }
}

// ---------------------------------------------------------------------------
// Metric catalog
// ---------------------------------------------------------------------------

/// A named metric with its unit.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics of an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("row_p50_ms", "ms"),
    m("row_p90_ms", "ms"),
    m("p2p_p50_ms", "ms"),
    m("p2p_p90_ms", "ms"),
    m("served_p50_us", "us"),
    m("snapshot_load_ms", "ms"),
];

/// The per-layer metrics of a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("pool.round_us", "us"),
    m("bford.row_rounds_p50", "count"),
    m("bford.row_ns_per_round", "ns"),
    m("bford.slots_per_round", "count"),
    m("bford.p2p_rounds_p50", "count"),
    m("bford.p2p_settled_early_share", "share"),
    m("sssp.multi8_ms", "ms"),
    m("hopset.detect_s", "s"),
    m("hopset.supercluster_s", "s"),
    m("hopset.interconnect_s", "s"),
    m("hopset.overlay_csr_s", "s"),
    m("sssp.assembly_s", "s"),
    m("hopset.p0_detect_s", "s"),
    m("hopset.p0_ruling_s", "s"),
    m("hopset.p0_bfs_s", "s"),
    m("hopset.edges", "count"),
    m("hopset.scales", "count"),
    m("hopset.ruling_levels", "count"),
    m("hopset.ruling_bfs", "count"),
    m("hopset.ledger_work", "count"),
    m("hopset.ledger_depth", "count"),
    m("landmark.build_s", "s"),
    m("landmark.certified_share", "share"),
    m("landmark.certify_ns_p50", "ns"),
    m("cache.hit_ns_p50", "ns"),
    m("cache.hits", "count"),
    m("cache.landmark_answers", "count"),
    m("cache.fallbacks", "count"),
    m("served.latency_p99_ms", "ms"),
    m("served.service_p99_ms", "ms"),
    m("served.capacity_qps", "1/s"),
    m("loadgen.late_p50_us", "us"),
    m("loadgen.late_p99_ms", "ms"),
    m("snapshot.save_s", "s"),
    m("snapshot.bytes", "bytes"),
    m("trace.overhead_s", "s"),
];

/// The metrics a run reports: every per-layer metric if `trace`, every
/// end-to-end metric otherwise, on every workload.
pub fn metrics_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Operations issued and failed; `failed == 0` means every check passed.
    pub ops: Ops,
    /// `(name, unit, value)` in catalog order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Context printed beside the metrics (`# key=value` lines).
    pub notes: Vec<String>,
}

impl Report {
    /// The value of a metric, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload instance.
    pub spec: Spec,
    /// The workload seed: graph and request streams derive from it.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Directory for the snapshot file (removed before the run returns).
    pub scratch_dir: PathBuf,
}

/// Rounds of an untraced run. Each round sets the stack up afresh
/// (`setup_s` is the median over rounds) and then cycles [`SLICES`] times
/// through every phase. The query metrics thus sample the whole run, and
/// a slow spell of a shared machine lands on all metrics alike instead
/// of on whichever phase it happens to hit.
pub const ROUNDS: usize = 3;

/// Passes through every phase per round.
pub const SLICES: usize = 4;

/// Rows and pairs the gate checks per run (each costs a Dijkstra).
const GATE_ROWS: usize = 4;
const GATE_PAIRS: usize = 24;

/// Shares of an untraced run's measurement time per phase (sum 1).
const SHARE_ROWS: f64 = 0.35;
const SHARE_P2P: f64 = 0.35;
const SHARE_SERVED: f64 = 0.25;
const SHARE_SNAPSHOT: f64 = 0.05;

/// Shares of a traced run's measurement time for the open and the closed
/// loop.
const TRACE_SHARE_SERVED: f64 = 0.5;
const TRACE_SHARE_CAPACITY: f64 = 0.2;

/// The query-ready stack.
struct Stack {
    oracle: Arc<Oracle>,
    plane: Arc<LandmarkPlane>,
    /// Seconds from generated graph to query-ready stack.
    setup_s: f64,
    /// Seconds of that spent in `LandmarkPlane::build`.
    plane_s: f64,
}

fn setup(spec: &Spec, g: &Arc<Graph>) -> Result<Stack, SsspError> {
    let t = Instant::now();
    let oracle = Oracle::builder(Arc::clone(g))
        .eps(spec.eps)
        .kappa(spec.kappa)
        .threads(spec.threads)
        .build()?;
    let tp = Instant::now();
    let plane = Arc::new(LandmarkPlane::build(&oracle, &spec.landmarks)?);
    Ok(Stack {
        oracle: Arc::new(oracle),
        plane,
        setup_s: secs(t),
        plane_s: secs(tp),
    })
}

/// Run one workload per `cfg`. `Err` is a failure that leaves nothing to
/// measure (no stack could be built, or the snapshot could not be saved).
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let spec = &cfg.spec;
    let g = Arc::new(spec.graph(Rng::new(cfg.seed, 1).next_u64()));
    let shape = match spec.family {
        Family::RoadGrid { rows, cols } => Shape::Grid(rows, cols),
        Family::Gnm { n, .. } => Shape::Ids(n),
    };
    let mut bench = Bench {
        cfg,
        g,
        inputs: Inputs::new(shape, Rng::new(cfg.seed, 2).next_u64()),
        ops: Ops::default(),
        values: BTreeMap::new(),
        gate: Gate::default(),
    };
    let snap = SnapFile(cfg.scratch_dir.join(format!(
        "perfbench-{}-{}.snap",
        std::process::id(),
        spec.workload.name()
    )));
    let stack = if cfg.trace {
        bench.traced(&snap.0)?
    } else {
        bench.end_to_end(&snap.0)?
    };
    drop(snap);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let notes = vec![
        spec.describe(),
        format!(
            "seed={} trace={} seconds={}",
            cfg.seed, cfg.trace, cfg.seconds
        ),
        format!(
            "nproc={nproc} executor_threads={} n={} m={} hopset_edges={} beta={}",
            stack.oracle.executor().threads(),
            bench.g.num_vertices(),
            bench.g.num_edges(),
            stack.oracle.hopset_size(),
            stack.oracle.query_hops()
        ),
    ];
    bench.check(&stack);

    let mut metrics = Vec::new();
    for d in metrics_for(cfg.trace) {
        match bench.values.get(d.name) {
            Some(&v) if v.is_finite() => metrics.push((d.name, d.unit, v)),
            _ => bench
                .ops
                .fail(format!("metric {} was not measured", d.name)),
        }
    }
    Ok(Report {
        ops: bench.ops,
        metrics,
        notes,
    })
}

/// The snapshot file of a run, removed when dropped.
struct SnapFile(PathBuf);

impl Drop for SnapFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Sampled answers kept for the correctness gate.
#[derive(Default)]
struct Gate {
    /// Full rows `(source, row)`.
    rows: Vec<(VId, Vec<Weight>)>,
    /// Oracle p2p answers `(u, v, d)`.
    pairs: Vec<(VId, VId, Weight)>,
    /// Served p2p answers `(u, v, d)`.
    served: Vec<(VId, VId, Weight)>,
    /// The served stack's stretch bound.
    served_bound: f64,
    /// Hot rows as the served stack returns them.
    served_rows: Vec<(VId, Vec<Weight>)>,
    /// One oracle reloaded from the snapshot.
    reloaded: Option<Oracle>,
}

struct Bench<'a> {
    cfg: &'a RunConfig,
    g: Arc<Graph>,
    inputs: Inputs,
    ops: Ops,
    values: BTreeMap<&'static str, f64>,
    gate: Gate,
}

fn ms(t: Instant) -> f64 {
    secs(t) * 1e3
}

impl Bench<'_> {
    fn spec(&self) -> &Spec {
        &self.cfg.spec
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Record the `p`-quantile of `v` times `scale` (nothing if `v` is
    /// empty: the metric is then reported as not measured).
    fn set_quantile(&mut self, name: &'static str, v: &mut [f64], p: f64, scale: f64) {
        if !v.is_empty() {
            self.set(name, quantile(v, p) * scale);
        }
    }

    /// This share of the measurement time, split over every slice of
    /// every round.
    fn slice(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds * share / (ROUNDS * SLICES) as f64)
    }

    fn n(&self) -> usize {
        self.g.num_vertices()
    }

    /// Traced: one untraced set-up, then the hook, then one traced set-up
    /// whose phase times are the construction's per-layer metrics.
    fn traced_setup(&mut self) -> Result<Stack, String> {
        self.ops.issue_many(2);
        let plain = setup(self.spec(), &self.g).map_err(|e| format!("setup: {e}"))?;
        let plain_s = plain.setup_s;
        drop(plain);
        layers::install()?;
        layers::reset_phases();
        let s = setup(self.spec(), &self.g).map_err(|e| format!("traced setup: {e}"))?;
        self.set("trace.overhead_s", s.setup_s - plain_s);
        for (phase, name) in [
            ("detect", "hopset.detect_s"),
            ("supercluster", "hopset.supercluster_s"),
            ("interconnect", "hopset.interconnect_s"),
            ("overlay-csr", "hopset.overlay_csr_s"),
            ("oracle-assembly", "sssp.assembly_s"),
        ] {
            self.set(name, layers::phase_seconds(phase));
        }
        self.set("landmark.build_s", s.plane_s);
        Ok(s)
    }

    /// The served stack over `stack`: capacity 8, landmark answers, and an
    /// admission gate that queues beyond one exploration (nothing is
    /// refused). The hot rows are made resident before any timing.
    fn served(&mut self, stack: &Stack) -> Result<Served, String> {
        let cfg = CacheConfig::new(8)
            .policy(FillPolicy::LandmarkOnly)
            .landmark_plane(Arc::clone(&stack.plane))
            .admission(1, true);
        let s = CachedOracle::with_config(Arc::clone(&stack.oracle), cfg)
            .map_err(|e| format!("served stack: {e}"))?;
        for &h in self.inputs.hot() {
            self.ops.issue();
            s.row(h).map_err(|e| format!("hot row {h}: {e}"))?;
        }
        Ok(s)
    }

    /// One untimed row first: the first query after a build pays page
    /// faults no later one does.
    fn warm_up(&mut self, o: &Oracle) {
        self.ops.issue();
        if let Err(e) = o.distances_from(0) {
            self.ops.fail(format!("warm-up row: {e}"));
        }
    }

    /// Time `distances_from` on the row sources from `*next` on; returns
    /// `(ms, ledger)` per row.
    fn rows(
        &mut self,
        o: &Oracle,
        budget: Duration,
        min: usize,
        next: &mut usize,
    ) -> Vec<(f64, Ledger)> {
        let (inputs, ops, gate) = (&self.inputs, &mut self.ops, &mut self.gate);
        let mut out = Vec::new();
        sample(budget, min, next, |i| {
            let s = inputs.vertex(Stream::Rows, i);
            ops.issue();
            let t = Instant::now();
            match o.distances_from_with_ledger(s) {
                Ok((row, ledger)) => {
                    let el = ms(t);
                    if gate.rows.len() < GATE_ROWS {
                        gate.rows.push((s, row));
                    }
                    out.push((el, ledger));
                    Some(el)
                }
                Err(e) => {
                    ops.fail(format!("row {s}: {e}"));
                    None
                }
            }
        });
        out
    }

    /// Time `Oracle::distance` (early-exit exploration) on direct pairs.
    fn p2ps(&mut self, o: &Oracle, budget: Duration, min: usize, next: &mut usize) -> Vec<f64> {
        let (inputs, ops, gate) = (&self.inputs, &mut self.ops, &mut self.gate);
        sample(budget, min, next, |i| {
            let (u, v) = inputs.pair(Stream::Pairs, i);
            ops.issue();
            let t = Instant::now();
            match o.distance(u, v) {
                Ok(d) => {
                    let el = ms(t);
                    if gate.pairs.len() < GATE_PAIRS {
                        gate.pairs.push((u, v, d));
                    }
                    Some(el)
                }
                Err(e) => {
                    ops.fail(format!("p2p ({u}, {v}): {e}"));
                    None
                }
            }
        })
    }

    /// Time `OracleBuilder::from_snapshot_on` of the saved oracle (restart
    /// cost); the first reload is kept for the bit-identity check.
    fn loads(
        &mut self,
        o: &Oracle,
        snap: &Path,
        budget: Duration,
        min: usize,
        next: &mut usize,
    ) -> Vec<f64> {
        let (ops, gate) = (&mut self.ops, &mut self.gate);
        sample(budget, min, next, |_| {
            ops.issue();
            let t = Instant::now();
            match OracleBuilder::from_snapshot_on(snap, o.executor().clone()) {
                Ok(loaded) => {
                    let el = ms(t);
                    gate.reloaded.get_or_insert(loaded);
                    Some(el)
                }
                Err(e) => {
                    ops.fail(format!("load snapshot: {e}"));
                    None
                }
            }
        })
    }

    /// Play `requests` open loop at the workload's rate.
    fn play(&mut self, s: &Served, requests: &[Request]) -> load::OpenLoop {
        let open = load::open_loop(s, requests, self.spec().rate, 2);
        self.ops.issue_many(requests.len());
        for e in &open.errors {
            self.ops.fail(e.clone());
        }
        let room = GATE_PAIRS.saturating_sub(self.gate.served.len());
        self.gate.served.extend(open.pairs.iter().take(room));
        open
    }

    /// Keep the served stack's hot rows and stretch bound for the gate.
    fn keep_served_rows(&mut self, s: &Served) {
        self.gate.served_bound = s.stretch_bound();
        for &h in self.inputs.hot() {
            self.ops.issue();
            match s.row(h) {
                Ok((row, _)) => self.gate.served_rows.push((h, row.dist().to_vec())),
                Err(e) => self.ops.fail(format!("served row {h}: {e}")),
            }
        }
    }

    /// The cold pairs of `stream`, balanced by `plane`'s certification.
    fn cold_pairs(&self, stream: Stream, plane: &LandmarkPlane) -> Vec<(VId, VId)> {
        self.inputs
            .cold_pairs(stream, |u, v| plane.certify(u, v).is_some())
    }

    /// The open-loop request stream for `share` of the measurement time.
    fn requests(&self, share: f64, plane: &LandmarkPlane) -> Vec<Request> {
        let count = ((self.spec().rate * self.cfg.seconds * share).round() as usize).max(20);
        let cold = self.cold_pairs(Stream::Mix, plane);
        (0..count).map(|i| self.inputs.request(&cold, i)).collect()
    }

    /// Untraced: [`ROUNDS`] rounds of set-up plus one slice of every
    /// phase; returns the last stack.
    fn end_to_end(&mut self, snap: &Path) -> Result<Stack, String> {
        let (t_rows, t_p2p) = (self.slice(SHARE_ROWS), self.slice(SHARE_P2P));
        let t_snap = self.slice(SHARE_SNAPSHOT);
        let mut requests = Vec::new();
        let mut next = [0usize; 3];
        let (mut setups, mut row_ms, mut p2p_ms) = (vec![], vec![], vec![]);
        let (mut served_s, mut load_ms) = (Vec::new(), Vec::new());
        let mut last: Option<Stack> = None;
        for r in 0..ROUNDS {
            drop(last.take());
            self.ops.issue();
            let stack = setup(self.spec(), &self.g).map_err(|e| format!("setup: {e}"))?;
            setups.push(stack.setup_s);
            if r == 0 {
                self.save_snapshot(&stack, snap)?;
                requests = self.requests(SHARE_SERVED, &stack.plane);
            }
            let o = &stack.oracle;
            self.warm_up(o);
            let served = self.served(&stack)?;
            for k in 0..SLICES {
                row_ms.extend(
                    self.rows(o, t_rows, 1, &mut next[0])
                        .into_iter()
                        .map(|x| x.0),
                );
                p2p_ms.extend(self.p2ps(o, t_p2p, 2, &mut next[1]));
                let (i, parts) = (r * SLICES + k, ROUNDS * SLICES);
                let part = &requests[i * requests.len() / parts..(i + 1) * requests.len() / parts];
                served_s.extend(self.play(&served, part).latency);
                load_ms.extend(self.loads(o, snap, t_snap, 1, &mut next[2]));
            }
            if r + 1 == ROUNDS {
                self.keep_served_rows(&served);
            }
            last = Some(stack);
        }
        self.set_quantile("setup_s", &mut setups, 0.5, 1.0);
        self.set_quantile("row_p50_ms", &mut row_ms, 0.5, 1.0);
        self.set_quantile("row_p90_ms", &mut row_ms, 0.9, 1.0);
        self.set_quantile("p2p_p50_ms", &mut p2p_ms, 0.5, 1.0);
        self.set_quantile("p2p_p90_ms", &mut p2p_ms, 0.9, 1.0);
        self.set_quantile("served_p50_us", &mut served_s, 0.5, 1e6);
        if !load_ms.is_empty() {
            // A load is fast or slow depending on whether the host lets
            // both executor threads run; the trimmed mean follows the mix
            // smoothly where the median would jump between the modes.
            self.set("snapshot_load_ms", trimmed_mean(&mut load_ms, 0.1));
        }
        Ok(last.expect("ROUNDS > 0"))
    }

    /// Traced: set up (with the phase hook), save the snapshot, measure
    /// every layer once; returns the stack.
    fn traced(&mut self, snap: &Path) -> Result<Stack, String> {
        let stack = self.traced_setup()?;
        self.save_snapshot(&stack, snap)?;
        self.per_layer(&stack, snap)?;
        Ok(stack)
    }

    fn per_layer(&mut self, stack: &Stack, snap: &Path) -> Result<(), String> {
        let o = &stack.oracle;
        let n = self.n();
        let exec = o.executor();
        self.warm_up(o);

        // pram.pool: one parallel fill round over n slots.
        let mut buf = vec![0u64; n];
        let mut round_us = sample(Duration::from_millis(200), 200, &mut 0, |i| {
            let t = Instant::now();
            prim::par_fill(exec, &mut buf, |j| (i ^ j) as u64);
            black_box(&buf);
            Some(secs(t) * 1e6)
        });
        self.set_quantile("pool.round_us", &mut round_us, 0.5, 1.0);

        // pram.bford: a fixed number of rows, so round counts repeat.
        let rows = self.rows(o, Duration::ZERO, 8, &mut 0);
        let mut rounds: Vec<f64> = rows.iter().map(|r| r.1.depth() as f64).collect();
        let per_round = |(t, l): &(f64, Ledger)| t * 1e6 / l.depth().max(1) as f64;
        let mut ns_per_round: Vec<f64> = rows.iter().map(per_round).collect();
        let mut slots: Vec<f64> = rows
            .iter()
            .map(|(_, l)| l.work() as f64 / l.depth().max(1) as f64)
            .collect();
        self.set_quantile("bford.row_rounds_p50", &mut rounds, 0.5, 1.0);
        self.set_quantile("bford.row_ns_per_round", &mut ns_per_round, 0.5, 1.0);
        self.set_quantile("bford.slots_per_round", &mut slots, 0.5, 1.0);

        // Early-exit p2p over a union rebuilt from the built hopset; each
        // answer must match the oracle's bit for bit.
        let built = o.built().ok_or("the oracle is not on the plain pipeline")?;
        let h = &built.hopset;
        let union = UnionGraph::from_csr(
            Arc::clone(o.graph_arc()),
            OverlayCsr::build_columns(n, h.us(), h.vs(), h.ws()),
        );
        let view = union.view();
        let (mut p2p_rounds, mut settled) = (Vec::new(), 0usize);
        for i in 0..GATE_PAIRS {
            let (u, v) = self.inputs.pair(Stream::Pairs, i);
            self.ops.issue();
            let mut ledger = Ledger::new();
            let r = bford::bellman_ford_to(exec, &view, &[u], v, o.query_hops(), &mut ledger);
            p2p_rounds.push(r.rounds_run as f64);
            settled += r.settled_early as usize;
            match o.distance(u, v) {
                Ok(d) if d.to_bits() == r.dist.to_bits() => self.gate.pairs.push((u, v, d)),
                Ok(d) => self.ops.fail(format!(
                    "p2p ({u}, {v}): oracle {d} differs from the rebuilt union's {}",
                    r.dist
                )),
                Err(e) => self.ops.fail(format!("p2p ({u}, {v}): {e}")),
            }
        }
        self.set_quantile("bford.p2p_rounds_p50", &mut p2p_rounds, 0.5, 1.0);
        self.set(
            "bford.p2p_settled_early_share",
            settled as f64 / GATE_PAIRS as f64,
        );

        // aMSSD batch of 8 (the shape of the landmark build).
        let batch: Vec<VId> = (0..8)
            .map(|i| self.inputs.vertex(Stream::Roots, i))
            .collect();
        let mut multi = Vec::new();
        for _ in 0..3 {
            self.ops.issue();
            let t = Instant::now();
            match o.distances_multi(&batch) {
                Ok(r) => {
                    multi.push(ms(t));
                    black_box(r);
                }
                Err(e) => self.ops.fail(format!("distances_multi: {e}")),
            }
        }
        self.set_quantile("sssp.multi8_ms", &mut multi, 0.5, 1.0);

        // hopset construction: counts, then phase 0 rebuilt from parts.
        let (mut ruling_levels, mut ruling_bfs) = (0usize, 0usize);
        for l in built
            .scales
            .iter()
            .flat_map(|s| &s.phases)
            .flat_map(|p| &p.ruling_trace.levels)
        {
            ruling_levels += 1;
            ruling_bfs += (l.sources > 0 && l.candidates > 0) as usize;
        }
        self.set("hopset.edges", o.hopset_size() as f64);
        self.set("hopset.scales", built.scales.len() as f64);
        self.set("hopset.ruling_levels", ruling_levels as f64);
        self.set("hopset.ruling_bfs", ruling_bfs as f64);
        self.set("hopset.ledger_work", built.ledger.work() as f64);
        self.set("hopset.ledger_depth", built.ledger.depth() as f64);
        self.ops.issue();
        let p0 = layers::phase_zero(o).ok_or("the oracle is not on the plain pipeline")?;
        if p0.mismatches > 0 {
            self.ops.fail(format!(
                "phase-0 rebuild: {} scales disagree with the construction's ruling set",
                p0.mismatches
            ));
        }
        self.set("hopset.p0_detect_s", p0.detect_s);
        self.set("hopset.p0_ruling_s", p0.ruling_s);
        self.set("hopset.p0_bfs_s", p0.bfs_s);

        // Certification over a fixed probe set, timed in batches (one call
        // takes tens of nanoseconds).
        let plane = &stack.plane;
        let probes: Vec<(VId, VId)> = (0..4096)
            .map(|i| self.inputs.pair(Stream::Probes, i))
            .collect();
        let (mut certified, mut per_call) = (0usize, Vec::new());
        for chunk in probes.chunks(64) {
            let t = Instant::now();
            for &(u, v) in chunk {
                certified += black_box(plane.certify(u, v)).is_some() as usize;
            }
            per_call.push(secs(t) * 1e9 / chunk.len() as f64);
        }
        self.ops.issue_many(probes.len());
        self.set(
            "landmark.certified_share",
            certified as f64 / probes.len() as f64,
        );
        self.set_quantile("landmark.certify_ns_p50", &mut per_call, 0.5, 1.0);

        let s = self.served(stack)?;
        let requests = self.requests(TRACE_SHARE_SERVED, plane);
        let before = s.stats();
        let open = self.play(&s, &requests);
        let after = s.stats();
        self.set("cache.hits", (after.hits - before.hits) as f64);
        self.set(
            "cache.landmark_answers",
            (after.landmark_answers - before.landmark_answers) as f64,
        );
        self.set(
            "cache.fallbacks",
            (after.fallbacks - before.fallbacks) as f64,
        );
        let (mut latency, mut service, mut late) = (open.latency, open.service, open.late);
        self.set_quantile("served.latency_p99_ms", &mut latency, 0.99, 1e3);
        self.set_quantile("served.service_p99_ms", &mut service, 0.99, 1e3);
        self.set_quantile("loadgen.late_p50_us", &mut late, 0.5, 1e6);
        self.set_quantile("loadgen.late_p99_ms", &mut late, 0.99, 1e3);

        // The same mix closed loop: two clients, each issuing its next
        // request when the previous one is answered.
        let cold = self.cold_pairs(Stream::Capacity, plane);
        let window = Duration::from_secs_f64(self.cfg.seconds * TRACE_SHARE_CAPACITY);
        let (issued, done, errors) = load::closed_loop(&s, &self.inputs, &cold, &mut 0, 2, window);
        self.ops.issue_many(issued);
        for e in errors {
            self.ops.fail(e);
        }
        self.set("served.capacity_qps", done as f64 / window.as_secs_f64());

        // Hit path: batches of hot-row lookups, per-call median.
        let hot = self.inputs.hot().to_vec();
        let mut per_call = sample(Duration::ZERO, 200, &mut 0, |b| {
            let t = Instant::now();
            for k in 0..64 {
                black_box(s.row(hot[(b + k) % hot.len()]).ok());
            }
            Some(secs(t) * 1e9 / 64.0)
        });
        self.ops.issue_many(per_call.len() * 64);
        self.set_quantile("cache.hit_ns_p50", &mut per_call, 0.5, 1.0);
        self.keep_served_rows(&s);
        self.loads(o, snap, Duration::ZERO, 1, &mut 0);
        Ok(())
    }

    /// Save the built oracle to `path` (the traced run reports the time
    /// and size).
    fn save_snapshot(&mut self, stack: &Stack, path: &Path) -> Result<(), String> {
        let o = &stack.oracle;
        self.ops.issue();
        let t = Instant::now();
        o.save_snapshot(path)
            .map_err(|e| format!("save snapshot to {}: {e}", path.display()))?;
        self.set("snapshot.save_s", secs(t));
        self.set("snapshot.bytes", o.snapshot_size() as f64);
        Ok(())
    }

    /// The correctness gate, outside every timed region: sampled answers
    /// against exact Dijkstra, and reloaded rows bit for bit against the
    /// built oracle's.
    fn check(&mut self, stack: &Stack) {
        let o = &stack.oracle;
        let g = o.graph();
        let stretch = o.stretch_bound();
        let mut exact_rows: BTreeMap<VId, Vec<Weight>> = BTreeMap::new();
        let mut exact = |s: VId| -> Vec<Weight> {
            exact_rows
                .entry(s)
                .or_insert_with(|| exact::dijkstra(g, s).dist)
                .clone()
        };
        let gate = std::mem::take(&mut self.gate);
        for (s, row) in gate.rows.iter().chain(&gate.served_rows) {
            let d_g = exact(*s);
            if let Some(v) = (0..row.len()).find(|&v| !within(row[v], d_g[v], stretch)) {
                self.ops.fail(format!(
                    "row {s}: d({v}) = {} outside [{}, {stretch}x]",
                    row[v], d_g[v]
                ));
            }
        }
        for &(u, v, d) in &gate.pairs {
            let d_g = exact(u)[v as usize];
            if !within(d, d_g, stretch) {
                self.ops
                    .fail(format!("p2p ({u}, {v}) = {d} outside [{d_g}, {stretch}x]"));
            }
        }
        for &(u, v, d) in &gate.served {
            let d_g = exact(u)[v as usize];
            if !within(d, d_g, gate.served_bound) {
                self.ops.fail(format!(
                    "served ({u}, {v}) = {d} outside [{d_g}, {}x]",
                    gate.served_bound
                ));
            }
        }
        let Some(re) = &gate.reloaded else {
            self.ops.fail("no snapshot reload to check".into());
            return;
        };
        for i in 0..2 {
            let s = self.inputs.vertex(Stream::Rows, i);
            let same = match (o.distances_from(s), re.distances_from(s)) {
                (Ok(a), Ok(b)) => a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                _ => false,
            };
            if !same {
                self.ops
                    .fail(format!("reloaded row {s} differs from the built oracle's"));
            }
        }
    }
}

/// `d` is never below the exact distance `d_g` and at most `bound · d_g`
/// (relative slack 1e-9 for floating-point summation order).
fn within(d: Weight, d_g: Weight, bound: f64) -> bool {
    if d_g.is_infinite() {
        return d.is_infinite();
    }
    let slack = 1e-9 * d_g.max(1.0);
    d >= d_g - slack && d <= bound * d_g + slack
}
