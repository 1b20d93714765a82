//! Landmark-plane + admission pinning suite (DESIGN.md §9, PR 10).
//!
//! The landmark plane is the one serving fast path that is *not*
//! bit-identical to the slow path it replaces — it answers with a
//! documented `(1+δ)` stretch instead. That makes its contract three
//! separate claims, each pinned here:
//!
//! 1. **soundness** — the triangle bounds sandwich the exact distance
//!    (`lower ≤ d ≤ upper`) on random graphs × landmark counts, and a
//!    certified answer lands in `[d, (1+δ)·d]` (proptest);
//! 2. **determinism** — selection, rows, bounds, and certified answers
//!    are bit-identical at threads 1/2/4/8 and across fresh rebuilds;
//! 3. **admission** — the gate's decisions are typed
//!    (`SsspError::Overloaded`), counted, recoverable, and sequential
//!    traffic is never rejected (decisions are a pure function of the
//!    in-flight count).
//!
//! The two fill policies (never-fill default, landmark-only) are pinned
//! at this level too, because they are the serving behaviors a deployment
//! actually selects between.

use pram::pool::threads_from_env;
use pram_sssp::pgraph::{VId, Weight};
use pram_sssp::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn arb_graph() -> impl Strategy<Value = Graph> {
    (16usize..64, 2usize..4, any::<u64>())
        .prop_map(|(n, density, seed)| gen::gnm_connected(n, n * density, seed, 1.0, 10.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness of the triangle bounds over (1+ε)-approximate rows: for
    /// every pair, `lower ≤ d_exact ≤ upper` — the deflated lower bound
    /// absorbs the rows' one-sided error (DESIGN.md §9).
    #[test]
    fn triangle_bounds_sandwich_the_exact_distance(g in arb_graph(), count in 1usize..6) {
        let n = g.num_vertices();
        let oracle = Oracle::builder(g.clone())
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(count, 1.0)).unwrap();
        for u in [0u32, (n / 2) as u32, (n - 1) as u32] {
            let exact = exact::dijkstra(&g, u).dist;
            for v in 0..n as u32 {
                let b = plane.bounds(u, v).unwrap();
                let d = exact[v as usize];
                prop_assert!(b.lower <= b.upper + 1e-9);
                if d.is_finite() {
                    prop_assert!(b.lower <= d + 1e-9,
                        "L={count} ({u},{v}): lower {} > exact {d}", b.lower);
                    prop_assert!(b.upper >= d - 1e-9,
                        "L={count} ({u},{v}): upper {} < exact {d}", b.upper);
                } else {
                    // An unreachable pair can never get a finite upper
                    // bound: a finite landmark detour would be a path.
                    prop_assert!(b.upper.is_infinite());
                }
            }
        }
    }

    /// A certified answer is within the documented composed stretch of
    /// the exact distance: `d ≤ answer ≤ (1+δ)·d` — δ alone, the rows'
    /// ε is absorbed by the deflated lower bound.
    #[test]
    fn certified_answers_meet_the_composed_stretch(g in arb_graph(), delta_pct in 60u32..240) {
        let delta = delta_pct as f64 / 100.0;
        let n = g.num_vertices();
        let oracle = Oracle::builder(g.clone())
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(4.min(n), delta)).unwrap();
        prop_assert!((plane.stretch_bound() - (1.0 + delta)).abs() < 1e-12);
        for u in [0u32, (n / 3) as u32] {
            let exact = exact::dijkstra(&g, u).dist;
            for v in 0..n as u32 {
                if let Some(ans) = plane.certify(u, v) {
                    let d = exact[v as usize];
                    if d.is_finite() {
                        prop_assert!(ans >= d - 1e-9,
                            "({u},{v}): certified {ans} < exact {d}");
                        prop_assert!(ans <= (1.0 + delta) * d + 1e-9,
                            "({u},{v}): certified {ans} > (1+{delta})*{d}");
                    } else {
                        prop_assert!(ans.is_infinite());
                    }
                }
            }
        }
    }
}

/// Selection, rows, bounds, and certified answers are pure functions of
/// (graph, backend config, landmark config): bit-identical at every
/// thread count and across fresh rebuilds.
#[test]
fn plane_is_bit_identical_across_thread_counts_and_rebuilds() {
    let g = gen::road_grid(9, 9, 4, 1.0, 6.0);
    let cfg = LandmarkConfig::new(5, 1.0);
    let build_plane = |g: &Graph, threads: usize| {
        let oracle = Oracle::builder(g.clone())
            .eps(0.25)
            .kappa(4)
            .threads(threads)
            .build()
            .expect("params");
        LandmarkPlane::build(&oracle, &cfg).expect("landmarks")
    };
    let n = g.num_vertices() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .step_by(7)
        .flat_map(|u| [(u, (u * 13 + 5) % n), (u, n - 1 - u)])
        .collect();
    let reference = build_plane(&g, 1);
    // Rebuild at the same thread count: identical, not just equivalent.
    let rebuilt = build_plane(&g, 1);
    assert_eq!(reference.landmarks(), rebuilt.landmarks());
    for &t in &THREADS[1..] {
        let got = build_plane(&g, t);
        assert_eq!(
            reference.landmarks(),
            got.landmarks(),
            "threads={t}: selection diverged"
        );
        for i in 0..reference.landmarks().len() {
            for (v, (a, b)) in reference.row(i).iter().zip(got.row(i)).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={t}: row {i} v={v}");
            }
        }
        for &(u, v) in &pairs {
            let a = reference.bounds(u, v).expect("in range");
            let b = got.bounds(u, v).expect("in range");
            assert_eq!(
                a.lower.to_bits(),
                b.lower.to_bits(),
                "threads={t} ({u},{v})"
            );
            assert_eq!(
                a.upper.to_bits(),
                b.upper.to_bits(),
                "threads={t} ({u},{v})"
            );
            match (reference.certify(u, v), got.certify(u, v)) {
                (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (None, None) => {}
                (x, y) => panic!("threads={t} ({u},{v}): certify diverged {x:?} vs {y:?}"),
            }
        }
    }
}

/// The PR 6 default, pinned: `CachedOracle::new` serves with
/// `FillPolicy::NeverFill` — a p2p miss delegates to the backend
/// (bit-identical), never consults a plane, never fills the row cache.
#[test]
fn default_policy_is_never_fill_and_p2p_misses_do_not_fill() {
    let g = gen::gnm_connected(80, 240, 5, 1.0, 9.0);
    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .threads(threads_from_env())
        .build()
        .expect("params");
    let reference = oracle.distances_from(3).expect("in range");
    let served = CachedOracle::new(oracle, 4).expect("capacity");
    assert_eq!(served.policy(), FillPolicy::NeverFill);
    assert!(served.landmark_plane().is_none());
    assert!(served.admission().is_none());
    let d = served.distance(3, 41).expect("in range");
    assert_eq!(d.to_bits(), reference[41].to_bits());
    let st = served.stats();
    assert_eq!(st.len, 0, "a p2p miss never fills under the default policy");
    assert_eq!(st.fallbacks, 1);
    assert_eq!(st.landmark_answers, 0);
}

/// `LandmarkOnly` without a plane is a typed configuration error, not a
/// silent no-op.
#[test]
fn landmark_only_without_a_plane_is_a_config_error() {
    let oracle = Oracle::builder(gen::path(16))
        .threads(threads_from_env())
        .build()
        .expect("params");
    match CachedOracle::with_config(oracle, CacheConfig::new(4).policy(FillPolicy::LandmarkOnly)) {
        Err(SsspError::Config(msg)) => assert!(msg.contains("landmark")),
        other => panic!("expected Config error, got {:?}", other.map(|_| ())),
    }
}

/// Through the serving stack: a landmark-backed cache answers a real
/// fraction of cold p2p traffic without exploration, every answer within
/// the composed stretch, and the counters account for every request.
#[test]
fn landmark_backed_cache_serves_cold_p2p_within_stretch() {
    let g = gen::road_grid(11, 11, 4, 1.0, 6.0);
    let n = g.num_vertices() as u32;
    let oracle = Oracle::builder(g.clone())
        .eps(0.25)
        .kappa(4)
        .threads(threads_from_env())
        .build()
        .expect("params");
    let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(8, 1.0)).expect("plane");
    let served = CachedOracle::with_config(
        oracle,
        CacheConfig::new(4)
            .policy(FillPolicy::LandmarkOnly)
            .landmark_plane(Arc::new(plane)),
    )
    .expect("config");
    let delta = served.landmark_plane().expect("plane").delta();
    assert!(served.stretch_bound() >= 1.0 + delta);
    let mut p2p = 0u64;
    for u in (0..n).step_by(5) {
        let exact = exact::dijkstra(&g, u).dist;
        for v in (0..n).step_by(7) {
            let d = served.distance(u, v).expect("in range");
            p2p += 1;
            assert!(d >= exact[v as usize] - 1e-9, "({u},{v}): {d} undershoots");
            assert!(
                d <= served.stretch_bound() * exact[v as usize] + 1e-9,
                "({u},{v}): {d} > bound * {}",
                exact[v as usize]
            );
        }
    }
    let st = served.stats();
    assert!(st.landmark_answers > 0, "the plane must answer something");
    assert_eq!(st.landmark_answers + st.fallbacks, p2p - st.hits);
    assert_eq!(st.len, 0, "LandmarkOnly never fills from p2p traffic");
}

/// A backend whose exploration blocks until released: lets the tests
/// hold an admission slot open deterministically.
struct Blocking {
    n: usize,
    ledger: Ledger,
    open: Mutex<bool>,
    cv: Condvar,
    entered: std::sync::mpsc::Sender<()>,
}

impl DistanceOracle for Blocking {
    fn name(&self) -> &'static str {
        "blocking"
    }
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn stretch_bound(&self) -> f64 {
        1.0
    }
    fn cost(&self) -> &Ledger {
        &self.ledger
    }
    fn distances_from_with_ledger(&self, _source: VId) -> Result<(Vec<Weight>, Ledger), SsspError> {
        self.entered.send(()).expect("test alive");
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        Ok((vec![0.0; self.n], Ledger::new()))
    }
}

/// The admission gate in reject mode: over-capacity requests fail with
/// the typed, counted `Overloaded` — and succeed again once load drains.
#[test]
fn admission_gate_rejects_typed_counted_and_recoverable() {
    let (tx, rx) = std::sync::mpsc::channel();
    let served = Arc::new(
        CachedOracle::with_config(
            Blocking {
                n: 8,
                ledger: Ledger::new(),
                open: Mutex::new(false),
                cv: Condvar::new(),
                entered: tx,
            },
            CacheConfig::new(4).admission(1, false),
        )
        .expect("config"),
    );
    assert_eq!(
        served.admission(),
        Some(AdmissionConfig {
            max_inflight: 1,
            queue: false
        })
    );
    let holder = {
        let s = Arc::clone(&served);
        std::thread::spawn(move || s.row(0).map(|r| r.1))
    };
    rx.recv().expect("holder entered the backend");
    match served.row(1) {
        Err(
            e @ SsspError::Overloaded {
                in_flight,
                capacity,
            },
        ) => {
            assert_eq!((in_flight, capacity), (1, 1));
            let msg = format!("{e}");
            assert!(msg.contains("admission") && msg.contains('1'), "{msg}");
        }
        other => panic!("expected Overloaded, got {:?}", other.map(|r| r.1)),
    }
    assert_eq!(served.stats().rejections, 1);
    {
        let b = served.inner();
        *b.open.lock().unwrap() = true;
        b.cv.notify_all();
    }
    assert!(
        !holder.join().expect("holder").expect("row"),
        "miss, not hit"
    );
    assert!(served.row(1).is_ok(), "gate recovered after the drain");
}

/// Sequential traffic is never rejected: admission is a pure function of
/// the in-flight count, which a serialized sequence keeps at zero — so
/// the decision trace (and every counter) is reproducible run over run.
#[test]
fn sequential_requests_are_never_rejected_and_stats_are_reproducible() {
    let g = gen::road_grid(9, 9, 4, 1.0, 6.0);
    let sequence = [0u32, 5, 0, 9, 5, 0, 80, 9];
    let mut runs = Vec::new();
    for _ in 0..2 {
        let oracle = Oracle::builder(g.clone())
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .expect("params");
        let served = CachedOracle::with_config(oracle, CacheConfig::new(2).admission(1, false))
            .expect("config");
        for &s in &sequence {
            let _ = served.row(s).expect("sequential: never overloaded");
            let _ = served.distance(s, 3).expect("sequential: never overloaded");
        }
        runs.push(served.stats());
    }
    assert_eq!(runs[0], runs[1], "same sequence, same stats");
    assert_eq!(runs[0].rejections, 0);
}
