//! Experiment SERVE-OPEN — the query plane under open-loop load
//! (DESIGN.md §6, §9).
//!
//! Requests arrive on a *fixed* SplitMix64-seeded schedule (`t_i = i/rate`,
//! rate swept), not when the previous answer returns, so queueing delay
//! is visible instead of hidden by client back-off. The cache runs with
//! the admission gate in reject mode; the sweep shows the gate bounding
//! p99 at overload — rejections rise instead of latency collapsing.
//! One JSON record is emitted **per rate point**, not at the end: a
//! failure at the highest rate must not lose the records already earned
//! (the same rule `repro memory` follows per size).
//!
//! Latencies are wall-clock and machine-dependent; the *correctness* of
//! every answer served here — bit-identity of the fast paths, the
//! `(1+δ)` stretch of landmark answers — is pinned by `tests/serving.rs`
//! and `tests/landmark.rs`, not measured.

use crate::json::{emit, Record};
use crate::table::{f, n as fmt_n, Table};
use crate::Config;
use pgraph::gen;
use sssp::{
    CacheConfig, CachedOracle, DistanceOracle, FillPolicy, LandmarkConfig, LandmarkPlane, Oracle,
    SsspError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, deterministic request-sequence generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// `p`-th percentile of an ascending-sorted latency list (nearest rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One request of the deterministic open-loop mix.
#[derive(Clone, Copy)]
enum Request {
    /// Hot traffic: a full cached row.
    Row(u32),
    /// Cold traffic: a point-to-point pair.
    Pair(u32, u32),
}

/// The deterministic 80/20 hot-row / cold-p2p mix: a pure function of
/// `(n, hot, ops, seed)` — the schedule never depends on timing.
fn request_mix(n: usize, hot: &[u32], ops: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng(seed);
    (0..ops)
        .map(|_| {
            if rng.below(10) < 8 {
                Request::Row(hot[rng.below(hot.len())])
            } else {
                Request::Pair(rng.below(n) as u32, rng.below(n) as u32)
            }
        })
        .collect()
}

/// Measurements of one open-loop rate point.
struct RatePoint {
    rate: f64,
    ops: usize,
    accepted: usize,
    rejected: u64,
    p50_us: f64,
    p99_us: f64,
    stats: sssp::CacheStats,
}

/// Run one open-loop rate point: requests arrive at `t_i = i / rate`
/// regardless of completions; `workers` threads pull the next request
/// index, sleep until its scheduled arrival, and issue it. Latency is
/// measured from the *scheduled* arrival (queueing delay included — the
/// whole point of open loop). Rejections come from the admission gate.
fn open_loop_point(
    served: &Arc<CachedOracle<Arc<Oracle>>>,
    requests: &[Request],
    rate: f64,
    workers: usize,
) -> (Vec<f64>, u64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (lat, rejected) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let served = Arc::clone(served);
                let next = &next;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut rejected = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        let sched_s = i as f64 / rate;
                        let now_s = start.elapsed().as_secs_f64();
                        if now_s < sched_s {
                            std::thread::sleep(Duration::from_secs_f64(sched_s - now_s));
                        }
                        let res = match requests[i] {
                            Request::Row(s) => served.row(s).map(|_| ()),
                            Request::Pair(u, v) => served.distance(u, v).map(|_| ()),
                        };
                        let done_s = start.elapsed().as_secs_f64();
                        match res {
                            Ok(()) => lat.push((done_s - sched_s) * 1e6),
                            Err(SsspError::Overloaded { .. }) => rejected += 1,
                            Err(e) => panic!("open-loop request failed: {e}"),
                        }
                    }
                    (lat, rejected)
                })
            })
            .collect();
        let mut lat = Vec::with_capacity(requests.len());
        let mut rejected = 0u64;
        for h in handles {
            let (l, r) = h.join().expect("open-loop worker");
            lat.extend(l);
            rejected += r;
        }
        (lat, rejected)
    });
    (lat, rejected)
}

/// Sweep the arrival rates; emit the JSON record for each rate point
/// **as soon as it completes** (a failure at the next rate must not lose
/// it), then return the points for the summary table.
fn open_loop_sweep(
    cfg: &Config,
    oracle: &Arc<Oracle>,
    plane: &Arc<LandmarkPlane>,
    rates: &[f64],
    secs: f64,
    max_inflight: usize,
    workers: usize,
) -> Vec<RatePoint> {
    let n = oracle.num_vertices();
    let hot: Vec<u32> = (0..4).map(|i| (i * n / 4) as u32).collect();
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        // Fresh cache per rate point (counters start at zero), one shared
        // landmark plane (built once — the expensive part).
        let served = Arc::new(
            CachedOracle::with_config(
                Arc::clone(oracle),
                CacheConfig::new(8)
                    .policy(FillPolicy::LandmarkOnly)
                    .landmark_plane(Arc::clone(plane))
                    .admission(max_inflight, false),
            )
            .expect("config"),
        );
        for &h in &hot {
            let _ = served.row(h).expect("prewarm"); // hot rows resident
        }
        let ops = ((rate * secs) as usize).clamp(20, 10_000);
        let requests = request_mix(n, &hot, ops, 0xA11C_E000 + rate as u64);
        let (mut lat, rejected) = open_loop_point(&served, &requests, rate, workers);
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let point = RatePoint {
            rate,
            ops,
            accepted: lat.len(),
            rejected,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
            stats: served.stats(),
        };
        // Per rate point, not once at the end: a failed or killed sweep
        // keeps every record already earned.
        emit(
            cfg,
            &[Record::new("serve-open")
                .u64("n", n as u64)
                .f64("rate_per_s", point.rate)
                .u64("ops", point.ops as u64)
                .u64("accepted", point.accepted as u64)
                .u64("rejected", point.rejected)
                .f64("p50_us", point.p50_us)
                .f64("p99_us", point.p99_us)
                .u64("hits", point.stats.hits)
                .u64("landmark_answers", point.stats.landmark_answers)
                .u64("fallbacks", point.stats.fallbacks)
                .u64("rejections", point.stats.rejections)
                .u64("max_inflight", max_inflight as u64)],
        );
        println!(
            "[serve-open] rate {:>6.0}/s: {} ops, {} ok, {} rejected, \
             p50 = {:.0} us, p99 = {:.0} us",
            point.rate, point.ops, point.accepted, point.rejected, point.p50_us, point.p99_us
        );
        points.push(point);
    }
    points
}

/// The `serve-open` experiment: open-loop arrival-rate sweep over the
/// landmark-backed, admission-gated cache (EXPERIMENTS.md). The instance
/// is a road grid: landmark triangle bounds are informative on metrically
/// spread graphs — on an expander all distances concentrate and the lower
/// bounds collapse.
pub fn serve_open(cfg: &Config) {
    let side = if cfg.quick { 64 } else { 253 };
    let n = side * side; // 64 009 full / 4 096 quick
    let g = gen::road_grid(side, side, 11, 1.0, 10.0);
    let t_build = Instant::now();
    let oracle = Arc::new(
        Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .threads(cfg.threads)
            .build()
            .expect("params"),
    );
    let built_s = t_build.elapsed().as_secs_f64();
    let t_plane = Instant::now();
    let plane =
        Arc::new(LandmarkPlane::build(&oracle, &LandmarkConfig::new(16, 1.0)).expect("landmarks"));
    println!(
        "[serve-open] built {}x{} road grid (n = {}, m = {}): |H| = {}, beta = {}, {:.1} s; \
         landmark plane L = {}, delta = {:.2}, {:.1} s",
        side,
        side,
        fmt_n(n),
        fmt_n(oracle.graph().num_edges()),
        fmt_n(oracle.hopset_size()),
        oracle.query_hops(),
        built_s,
        plane.landmarks().len(),
        plane.delta(),
        t_plane.elapsed().as_secs_f64()
    );
    // The full grid is certified, so a fallback explores `G` alone in a
    // few ms and the gate first fills beyond 6 400 req/s: the two top
    // rates are the ones that show it shedding load (EXPERIMENTS.md).
    let rates: &[f64] = if cfg.quick {
        &[50.0, 200.0]
    } else {
        &[100.0, 400.0, 1600.0, 6400.0, 25_600.0, 102_400.0]
    };
    let secs = if cfg.quick { 0.4 } else { 1.5 };
    let max_inflight = 4;
    let workers = 8;
    let points = open_loop_sweep(cfg, &oracle, &plane, rates, secs, max_inflight, workers);

    let mut t = Table::new(&[
        "rate/s", "ops", "ok", "rejected", "hits", "lm", "fallback", "p50 us", "p99 us",
    ]);
    for p in &points {
        t.row(vec![
            f(p.rate),
            fmt_n(p.ops),
            fmt_n(p.accepted),
            fmt_n(p.rejected as usize),
            fmt_n(p.stats.hits as usize),
            fmt_n(p.stats.landmark_answers as usize),
            fmt_n(p.stats.fallbacks as usize),
            f(p.p50_us),
            f(p.p99_us),
        ]);
    }
    t.print(&format!(
        "serve-open: open-loop arrival sweep (n = {}, {} workers, admission \
         gate = {} in-flight explorations, reject mode; latency measured \
         from scheduled arrival)",
        fmt_n(n),
        workers,
        max_inflight
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram::pool::threads_from_env;

    /// Regression (PR 10 satellite): the open-loop sweep must emit its
    /// JSON record per rate point as each completes — a late failure
    /// must not lose earlier records. Runs the real sweep on a tiny
    /// instance and counts the lines in the artifact.
    #[test]
    fn open_loop_sweep_emits_one_json_record_per_rate_point() {
        let g = gen::road_grid(8, 8, 3, 1.0, 4.0);
        let oracle = Arc::new(
            Oracle::builder(g)
                .eps(0.5)
                .kappa(4)
                .threads(threads_from_env())
                .build()
                .unwrap(),
        );
        let plane = Arc::new(LandmarkPlane::build(&oracle, &LandmarkConfig::new(4, 1.0)).unwrap());
        let dir = std::env::temp_dir().join(format!("xbench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve_open.json");
        let _ = std::fs::remove_file(&path);
        let cfg = Config {
            quick: true,
            json: Some(path.clone()),
            threads: threads_from_env(),
        };
        let rates = [500.0, 1000.0];
        let points = open_loop_sweep(&cfg, &oracle, &plane, &rates, 0.05, 2, 2);
        assert_eq!(points.len(), rates.len());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), rates.len(), "one JSON record per rate point");
        for (line, rate) in lines.iter().zip(rates) {
            assert!(line.contains("\"experiment\":\"serve-open\""));
            assert!(line.contains(&format!("\"rate_per_s\":{rate}")));
        }
        // Every request was either answered or typed-rejected — none lost.
        for p in &points {
            assert_eq!(p.accepted + p.rejected as usize, p.ops);
        }
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    /// The open-loop mix is a pure function of its seed.
    #[test]
    fn request_mix_is_deterministic() {
        let hot = [0u32, 7, 13];
        let a = request_mix(100, &hot, 64, 42);
        let b = request_mix(100, &hot, 64, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Request::Row(s), Request::Row(t)) => assert_eq!(s, t),
                (Request::Pair(u1, v1), Request::Pair(u2, v2)) => {
                    assert_eq!((u1, v1), (u2, v2))
                }
                _ => panic!("mix diverged between identical seeds"),
            }
        }
    }
}
