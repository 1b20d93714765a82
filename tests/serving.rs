//! Serving-grade pinning suite for the query plane (DESIGN.md §9).
//!
//! The serving layer (early-exit point-to-point, batched multi-source,
//! the LRU source cache) is only usable because every fast path is
//! **bit-identical** to the slow path it replaces. This file pins that
//! contract the same way `tests/determinism.rs` pins the pool contract:
//! `f64::to_bits` equality, no epsilon anywhere, across three graph
//! families × both pipelines × threads {1, 2, 4, 8}, plus the cache's
//! determinism (same request sequence ⇒ same hit/miss trace) and its
//! behavior under concurrent mixed hit/miss load.

use pram::pool::threads_from_env;
use pram_sssp::prelude::*;
use std::sync::Arc;

/// The same three families the determinism suite pins: sparse random,
/// planar-ish road grid, and a wide-weight-range family.
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnm", gen::gnm_connected(120, 360, 6, 1.0, 9.0)),
        ("road-grid", gen::road_grid(9, 9, 4, 1.0, 6.0)),
        ("wide-weights", gen::wide_weights(80, 160, 12, 5)),
    ]
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn build(g: &Graph, pipeline: Pipeline, threads: usize) -> Oracle {
    Oracle::builder(g.clone())
        .eps(0.25)
        .kappa(4)
        .pipeline(pipeline)
        .threads(threads)
        .build()
        .expect("params")
}

/// (1) Early-exit `distance(u, v)` is bit-identical to the full row's
/// entry, on every family × pipeline × thread count × several (u, v).
#[test]
fn early_exit_p2p_bit_identical_to_full_row() {
    for (name, g) in families() {
        for (pname, pipeline) in [("plain", Pipeline::Plain), ("reduced", Pipeline::Reduced)] {
            for &t in &THREADS {
                let oracle = build(&g, pipeline, t);
                let n = oracle.num_vertices() as u32;
                for &u in &[0u32, n / 3, n - 1] {
                    let row = oracle.distances_from(u).expect("in range");
                    for &v in &[0u32, 1, u, n / 2, n - 2, n - 1] {
                        let p2p = oracle.distance(u, v).expect("in range");
                        assert_eq!(
                            p2p.to_bits(),
                            row[v as usize].to_bits(),
                            "{name}/{pname}/threads={t}: {u} -> {v}: {p2p} vs {}",
                            row[v as usize]
                        );
                    }
                }
            }
        }
    }
}

/// (1b) The same over a built plain hopset, on a grid long enough that the
/// distance-range certificate fails and the construction builds scales:
/// p2p explorations over `G ∪ H` drop the writes at or above the target's
/// label from their frontier and still read the row's bits.
#[test]
fn target_bounded_p2p_over_a_built_hopset_bit_identical_to_full_row() {
    let g = gen::road_grid(4, 256, 3, 1.0, 10.0);
    for &t in &THREADS {
        let oracle = build(&g, Pipeline::Plain, t);
        assert!(oracle.hopset_size() > 0, "threads={t}: no hopset built");
        let n = oracle.num_vertices() as u32;
        let sources = [0u32, n / 2, n - 1];
        for &u in &sources {
            let row = oracle.distances_from(u).expect("in range");
            for v in (0..n).step_by(7).chain(sources) {
                let p2p = oracle.distance(u, v).expect("in range");
                assert_eq!(
                    p2p.to_bits(),
                    row[v as usize].to_bits(),
                    "threads={t}: {u} -> {v}: {p2p} vs {}",
                    row[v as usize]
                );
            }
        }
    }
}

/// (2) Batched `distances_multi` is bit-identical (rows **and** batch
/// ledger) to querying the same sources one by one.
#[test]
fn batched_multi_source_bit_identical_to_sequential() {
    for (name, g) in families() {
        for &t in &THREADS {
            let oracle = build(&g, Pipeline::Plain, t);
            let n = oracle.num_vertices() as u32;
            // Repeated source included: batching must not dedup.
            let sources = vec![0u32, n / 3, n - 1, n / 3];
            let multi = oracle.distances_multi(&sources).expect("in range");
            assert_eq!(multi.sources, sources);
            let mut ledger = Ledger::new();
            for (i, &s) in sources.iter().enumerate() {
                let (row, l) = oracle.distances_from_with_ledger(s).expect("in range");
                ledger.absorb_parallel(&l);
                let batched = multi.dist.row(i);
                assert_eq!(batched.len(), row.len());
                for (v, (a, b)) in batched.iter().zip(&row).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{name}/threads={t}: row {i} vertex {v}"
                    );
                }
            }
            assert_eq!(multi.ledger, ledger, "{name}/threads={t}: batch ledger");
        }
    }
}

/// The exact baselines' early exits (pop-`v` Dijkstra, settled-bucket
/// Δ-stepping) keep `distance` bit-identical to their own full rows.
#[test]
fn exact_backend_p2p_bit_identical_to_full_row() {
    for (name, g) in families() {
        let g = Arc::new(g);
        let backends: Vec<Box<dyn DistanceOracle>> = vec![
            Box::new(DijkstraOracle::new(Arc::clone(&g))),
            Box::new(
                DeltaSteppingOracle::new(Arc::clone(&g))
                    .with_executor(Executor::new(threads_from_env())),
            ),
        ];
        let n = g.num_vertices() as u32;
        for b in &backends {
            for &u in &[0u32, n / 2] {
                let row = b.distances_from(u).expect("in range");
                for &v in &[0u32, u, n / 3, n - 1] {
                    let p2p = b.distance(u, v).expect("in range");
                    assert_eq!(
                        p2p.to_bits(),
                        row[v as usize].to_bits(),
                        "{name}/{}: {u} -> {v}",
                        b.name()
                    );
                }
            }
        }
    }
}

/// (3a) Cache hits are bit-identical to cold answers — rows, ledgers, and
/// p2p reads through the cached row.
#[test]
fn cache_hits_bit_identical_to_cold_answers() {
    for (name, g) in families() {
        let oracle = build(&g, Pipeline::Plain, threads_from_env());
        let n = oracle.num_vertices() as u32;
        let reference: Vec<Vec<f64>> = (0..n)
            .step_by((n as usize / 4).max(1))
            .map(|s| oracle.distances_from(s).expect("in range"))
            .collect();
        let sources: Vec<u32> = (0..n).step_by((n as usize / 4).max(1)).collect();
        let served = CachedOracle::new(oracle, 2).expect("capacity");
        // Two passes: misses fill (and evict — capacity 2 < sources), hits
        // re-serve; every answer equals the cold reference bit for bit.
        for pass in 0..2 {
            for (i, &s) in sources.iter().enumerate() {
                let row = served.distances_from(s).expect("in range");
                for (v, (a, b)) in row.iter().zip(&reference[i]).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name}: pass {pass} s={s} v={v}");
                }
                let p2p = served.distance(s, n - 1).expect("in range");
                assert_eq!(p2p.to_bits(), reference[i][n as usize - 1].to_bits());
            }
        }
        let st = served.stats();
        assert!(st.hits > 0, "{name}: second pass must hit");
        assert!(st.len <= 2, "{name}: bounded");
    }
}

/// (3b) Concurrent mixed hit/miss load from ≥ 4 caller threads: every
/// answer, from every thread, is bit-identical to the cold reference, and
/// the counters account for every row request.
#[test]
fn cache_concurrent_mixed_load_is_bit_identical() {
    let g = gen::gnm_connected(120, 360, 6, 1.0, 9.0);
    let oracle = build(&g, Pipeline::Plain, threads_from_env());
    let n = oracle.num_vertices() as u32;
    let reference: Arc<Vec<Vec<f64>>> = Arc::new(
        (0..n)
            .map(|s| oracle.distances_from(s).expect("in range"))
            .collect(),
    );
    let served = Arc::new(CachedOracle::new(oracle, 3).expect("capacity"));
    const CLIENTS: usize = 6;
    const OPS: usize = 40;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let s = Arc::clone(&served);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut row_requests = 0u64;
                for i in 0..OPS {
                    // Deterministic per-thread mix: a small hot set (cache
                    // hits land here), a rotating cold tail (misses +
                    // evictions), and p2p reads between them.
                    let hot = (c % 3) as u32;
                    let cold = ((c * OPS + i) % n as usize) as u32;
                    let src = if i % 3 == 0 { cold } else { hot };
                    match i % 2 {
                        0 => {
                            let row = s.distances_from(src).expect("in range");
                            row_requests += 1;
                            for (v, (a, b)) in row.iter().zip(&reference[src as usize]).enumerate()
                            {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "client {c} op {i} src {src} v {v}"
                                );
                            }
                        }
                        _ => {
                            let v = (i as u32 * 7) % n;
                            let d = s.distance(src, v).expect("in range");
                            assert_eq!(
                                d.to_bits(),
                                reference[src as usize][v as usize].to_bits(),
                                "client {c} op {i} p2p {src} -> {v}"
                            );
                        }
                    }
                }
                row_requests
            })
        })
        .collect();
    let total_rows: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
    let st = served.stats();
    // Every row request was counted as a hit or a miss; p2p requests add
    // hits (resident row) or silent delegations, never rows.
    assert!(st.hits + st.misses >= total_rows);
    assert!(st.misses >= 1);
    assert!(st.hits >= 1);
    assert!(st.len <= 3);
}

/// (4) Eviction determinism: the same request sequence on a fresh cache
/// produces the same hit/miss trace and the same counters, every time.
#[test]
fn cache_eviction_trace_is_deterministic() {
    let g = gen::road_grid(9, 9, 4, 1.0, 6.0);
    // LRU, capacity 2, sequence: 0m 1m 2m(evict 0) 0m(evict 1) 0h
    // 1m(evict 2) 2m(evict 0) — the trace is a pure function of the
    // sequence and the capacity.
    let sequence = [0u32, 1, 2, 0, 0, 1, 2];
    let expected = [false, false, false, false, true, false, false];
    let mut traces = Vec::new();
    for _ in 0..2 {
        let served =
            CachedOracle::new(build(&g, Pipeline::Plain, threads_from_env()), 2).expect("capacity");
        let trace: Vec<bool> = sequence
            .iter()
            .map(|&s| served.row(s).expect("in range").1)
            .collect();
        let st = served.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 6);
        assert_eq!(st.evictions, 4);
        assert_eq!(st.len, 2);
        // Row-only traffic under the default policy touches none of the
        // PR 10 serving counters.
        assert_eq!(st.landmark_answers, 0);
        assert_eq!(st.fallbacks, 0);
        assert_eq!(st.rejections, 0);
        traces.push(trace);
    }
    assert_eq!(traces[0], expected);
    assert_eq!(traces[0], traces[1], "same sequence, same trace");
}

/// (4b) The extended counter set (landmark answers, fallbacks) is part
/// of the same contract: a fixed mixed row/p2p request sequence over a
/// landmark-backed cache produces the identical `CacheStats` on every
/// fresh run.
#[test]
fn extended_counter_trace_is_deterministic() {
    let g = gen::road_grid(9, 9, 4, 1.0, 6.0);
    let n = 81u32;
    // Mixed sequence: hot rows, repeated cold p2p on one source, and
    // scattered cold p2p (landmark or fallback — decided purely by the
    // plane's bounds).
    let rows = [0u32, 40, 0];
    let pairs = [
        (7u32, 60u32),
        (7, 61),
        (7, 62),
        (13, 70),
        (25, 33),
        (0, 80),
        (44, 44),
    ];
    let mut runs = Vec::new();
    for _ in 0..2 {
        let oracle = build(&g, Pipeline::Plain, threads_from_env());
        let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(6, 1.0)).expect("plane");
        let served = CachedOracle::with_config(
            oracle,
            CacheConfig::new(2)
                .policy(FillPolicy::LandmarkOnly)
                .landmark_plane(Arc::new(plane)),
        )
        .expect("config");
        for &s in &rows {
            let _ = served.row(s).expect("in range");
        }
        for &(u, v) in &pairs {
            assert!(u < n && v < n);
            let _ = served.distance(u, v).expect("in range");
        }
        runs.push(served.stats());
    }
    assert_eq!(runs[0], runs[1], "same sequence, same extended counters");
    let st = runs[0];
    // The sequence exercises every counter class it is meant to pin.
    assert_eq!(st.hits + st.misses, (rows.len() + pairs.len()) as u64);
    // Every miss is either a row fill (the [0, 40, 0] prefix misses
    // exactly twice) or a p2p request resolved by the plane or a
    // fallback exploration — nothing is dropped from the accounting.
    assert_eq!(st.misses, 2 + st.landmark_answers + st.fallbacks);
    assert!(
        st.landmark_answers > 0,
        "plane answered the trivial pair at least"
    );
    assert!(st.fallbacks > 0, "some pair fell through to exploration");
}

/// The serving wrapper crosses threads and erases like every other
/// backend (compile-time + object-safety check).
#[test]
fn cached_oracle_is_send_sync_and_object_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CachedOracle<Oracle>>();
    assert_send_sync::<Arc<CachedOracle<Oracle>>>();
    assert_send_sync::<CachedOracle<Arc<Oracle>>>();

    let g = Arc::new(gen::path(32));
    let backends: Vec<Box<dyn DistanceOracle>> = vec![
        Box::new(
            CachedOracle::new(
                Oracle::builder(Arc::clone(&g))
                    .threads(threads_from_env())
                    .build()
                    .expect("params"),
                4,
            )
            .expect("capacity"),
        ),
        Box::new(CachedOracle::new(DijkstraOracle::new(g), 4).expect("capacity")),
    ];
    for b in &backends {
        assert_eq!(b.name(), "cached");
        let d = b.distances_from(0).expect("in range");
        assert_eq!(
            b.distance(0, 31).expect("in range").to_bits(),
            d[31].to_bits()
        );
        let near = b.distances_to_nearest(&[0, 31]).expect("in range");
        assert_eq!(near[0], 0.0);
    }
}

/// Cached answers are bit-identical across thread counts too: the cache
/// composes with the pool contract instead of weakening it.
#[test]
fn cached_rows_bit_identical_across_thread_counts() {
    let g = gen::wide_weights(80, 160, 12, 5);
    let base = {
        let served = CachedOracle::new(build(&g, Pipeline::Plain, 1), 4).expect("capacity");
        let cold = served.distances_from(7).expect("in range");
        let warm = served.distances_from(7).expect("in range");
        (cold, warm)
    };
    for &t in &THREADS[1..] {
        let got = {
            let served = CachedOracle::new(build(&g, Pipeline::Plain, t), 4).expect("capacity");
            let cold = served.distances_from(7).expect("in range");
            let warm = served.distances_from(7).expect("in range");
            (cold, warm)
        };
        for (v, ((a, b), (c, d))) in base
            .0
            .iter()
            .zip(&base.1)
            .zip(got.0.iter().zip(&got.1))
            .enumerate()
        {
            assert_eq!(a.to_bits(), c.to_bits(), "threads={t} cold v={v}");
            assert_eq!(b.to_bits(), d.to_bits(), "threads={t} warm v={v}");
        }
    }
}
