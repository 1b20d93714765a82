//! Cross-crate integration tests: full pipelines on several graph
//! families, exercising the public API exactly as a downstream user would.

use pram::pool::threads_from_env;
use pram_sssp::prelude::*;

/// The executor the suite runs on: `PRAM_SSSP_THREADS` threads, else the
/// hardware's.
fn exec() -> Executor {
    Executor::new(threads_from_env())
}

/// The core contract on one graph: approximate distances never undershoot
/// and respect (1+eps) at the engine's hop budget.
fn assert_sssp_contract(g: &Graph, eps: f64, kappa: usize, sources: &[u32]) {
    let oracle = Oracle::builder(g.clone())
        .eps(eps)
        .kappa(kappa)
        .threads(threads_from_env())
        .build()
        .expect("params");
    for &s in sources {
        let approx = oracle.distances_from(s).expect("source in range");
        let exact = exact::dijkstra(g, s).dist;
        for v in 0..g.num_vertices() {
            if exact[v] == INF {
                assert_eq!(approx[v], INF, "phantom connectivity at {v}");
                continue;
            }
            assert!(
                approx[v] >= exact[v] - 1e-6 * exact[v].max(1.0),
                "undershoot at {v}: {} < {}",
                approx[v],
                exact[v]
            );
            assert!(
                approx[v] <= (1.0 + eps) * exact[v] + 1e-9,
                "stretch bust at {v}: {} vs {}",
                approx[v],
                exact[v]
            );
        }
    }
}

#[test]
fn sssp_contract_random_graph() {
    let g = gen::gnm_connected(200, 700, 5, 1.0, 12.0);
    assert_sssp_contract(&g, 0.25, 4, &[0, 99, 199]);
}

#[test]
fn sssp_contract_road_grid() {
    let g = gen::road_grid(14, 14, 9, 1.0, 7.0);
    assert_sssp_contract(&g, 0.25, 4, &[0, 97, 195]);
}

#[test]
fn sssp_contract_clique_chain() {
    let g = gen::clique_chain(8, 10, 2.5);
    assert_sssp_contract(&g, 0.2, 4, &[0, 40, 79]);
}

#[test]
fn sssp_contract_weighted_path() {
    let g = gen::path_weighted(160, |i| 1.0 + (i % 9) as f64);
    assert_sssp_contract(&g, 0.25, 3, &[0, 80, 159]);
}

#[test]
fn sssp_contract_varied_kappa() {
    let g = gen::gnm_connected(120, 360, 2, 1.0, 6.0);
    for kappa in [2, 3, 4, 6] {
        assert_sssp_contract(&g, 0.3, kappa, &[7]);
    }
}

#[test]
fn sssp_contract_varied_eps() {
    let g = gen::gnm_connected(120, 360, 8, 1.0, 6.0);
    for eps in [0.1, 0.25, 0.5, 0.9] {
        assert_sssp_contract(&g, eps, 4, &[11]);
    }
}

#[test]
fn determinism_across_thread_counts() {
    // The headline property: the construction is deterministic. Run the
    // full pipeline under thread pools of different sizes and demand
    // bit-identical hopsets.
    let g = gen::gnm_connected(150, 500, 13, 1.0, 9.0);
    let params = HopsetParams::new(
        150,
        0.25,
        4,
        0.3,
        ParamMode::Practical,
        g.aspect_ratio_bound(),
        None,
    )
    .unwrap();
    let run = |threads: usize| {
        build_hopset_on(
            &Executor::new(threads),
            &g,
            &params,
            BuildOptions::default(),
        )
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    for other in [&b, &c] {
        assert_eq!(a.hopset.len(), other.hopset.len());
        for (x, y) in a.hopset.iter().zip(other.hopset.iter()) {
            assert_eq!((x.u, x.v, x.scale), (y.u, y.v, y.scale));
            assert_eq!(
                x.w.to_bits(),
                y.w.to_bits(),
                "weights must be bit-identical"
            );
        }
        assert_eq!(a.ledger, other.ledger);
    }
}

#[test]
fn spt_pipeline_end_to_end() {
    // The plain pipeline, and the weight-reduced one on an aspect ratio of
    // 3^26 (Theorem D.2).
    let cases = [
        (
            gen::clique_chain(6, 9, 2.0),
            0.25,
            Pipeline::Auto,
            vec![0u32, 26, 53],
        ),
        (
            gen::exponential_path(28, 3.0),
            0.5,
            Pipeline::Reduced,
            vec![0],
        ),
    ];
    for (g, eps, pipeline, sources) in cases {
        let oracle = Oracle::builder(g.clone())
            .eps(eps)
            .kappa(4)
            .paths(true)
            .pipeline(pipeline)
            .threads(threads_from_env())
            .build()
            .expect("params");
        for src in sources {
            let spt = oracle.spt(src).expect("paths recorded");
            let val = validate_spt(&g, &spt);
            assert_eq!(val.non_graph_edges, 0, "src {src}: {val:?}");
            assert_eq!(val.weight_mismatches, 0);
            assert_eq!(val.distance_mismatches, 0);
            assert_eq!(val.missing, 0);
            assert!(val.max_stretch <= 1.0 + eps + 1e-9, "src {src}: {val:?}");
        }
    }
}

#[test]
fn reduced_pipeline_end_to_end() {
    let g = gen::exponential_path(40, 2.5);
    let reduced = build_reduced_hopset_on(
        &exec(),
        &g,
        0.5,
        4,
        0.3,
        ParamMode::Practical,
        BuildOptions::default(),
    )
    .expect("params");
    let sl = reduced.hopset.all_slice();
    let view = UnionView::with_overlay_columns(&g, sl.us(), sl.vs(), sl.ws());
    let mut ledger = Ledger::new();
    let bf = pram::bellman_ford(&exec(), &view, &[0], reduced.query_hops, &mut ledger);
    let exact = exact::dijkstra(&g, 0).dist;
    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
    for v in 0..40 {
        assert!(bf.dist[v] >= exact[v] * (1.0 - 1e-9));
        assert!(bf.dist[v] <= 1.5 * exact[v] + 1e-9, "v={v}");
    }
}

#[test]
fn hop_reduction_is_real() {
    // The actual point of a hopset: with budget ≪ hop diameter, the bare
    // graph cannot answer, G ∪ H can.
    let g = gen::path(300);
    let oracle = Oracle::builder(g.clone())
        .eps(0.25)
        .kappa(4)
        .rho(0.3)
        .mode(ParamMode::Practical)
        .hop_cap(40)
        .threads(threads_from_env())
        .build()
        .expect("params");
    let approx = oracle.distances_from(0).expect("source in range");
    let (bare, _) = sssp::baseline::plain_bellman_ford(&exec(), &g, 0, oracle.query_hops());
    assert_eq!(bare[299], INF, "bare graph cannot span 299 hops in 40");
    assert!(approx[299].is_finite(), "hopset must shortcut");
    assert!(approx[299] <= 1.25 * 299.0 + 1e-9);
    assert!(approx[299] >= 299.0 - 1e-6);
}

#[test]
fn io_roundtrip_through_public_api() {
    let g = gen::gnm_connected(60, 150, 21, 1.0, 5.0);
    let mut buf = Vec::new();
    pgraph::snapshot::write_graph_snapshot(&g, &mut buf).unwrap();
    let h = pgraph::snapshot::read_graph_snapshot(buf.as_slice()).unwrap();
    assert_eq!(g.edges(), h.edges());
    // The reloaded graph builds the same hopset.
    let p = HopsetParams::practical(60, 0.25, 4, g.aspect_ratio_bound()).unwrap();
    let a = build_hopset_on(&exec(), &g, &p, BuildOptions::default());
    let b = build_hopset_on(&exec(), &h, &p, BuildOptions::default());
    assert_eq!(a.hopset.len(), b.hopset.len());
}

#[test]
fn rejects_unnormalized_weights() {
    // Construction requires min weight ≥ 1; the panic is the documented
    // contract (normalize with scaled_to_unit_min).
    let g = Graph::from_edges(4, [(0, 1, 0.5), (1, 2, 2.0)]).unwrap();
    let p = HopsetParams::practical(4, 0.25, 4, g.aspect_ratio_bound()).unwrap();
    let r = std::panic::catch_unwind(|| build_hopset_on(&exec(), &g, &p, BuildOptions::default()));
    assert!(r.is_err(), "must reject min weight < 1");
    // And the documented fix works.
    let g2 = g.scaled_to_unit_min();
    let p2 = HopsetParams::practical(4, 0.25, 4, g2.aspect_ratio_bound()).unwrap();
    let _ = build_hopset_on(&exec(), &g2, &p2, BuildOptions::default());
}

#[test]
fn reduced_pipeline_determinism_across_threads() {
    // The reduction stack (CC, forests, centers, per-level hopsets) must be
    // as deterministic as the plain pipeline.
    let g = pgraph::gen::wide_weights(80, 160, 12, 5);
    let run = |threads: usize| {
        build_reduced_hopset_on(
            &Executor::new(threads),
            &g,
            0.4,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.hopset.len(), b.hopset.len());
    assert_eq!(a.star_edges, b.star_edges);
    for (x, y) in a.hopset.iter().zip(b.hopset.iter()) {
        assert_eq!((x.u, x.v, x.scale), (y.u, y.v, y.scale));
        assert_eq!(x.w.to_bits(), y.w.to_bits());
    }
}

#[test]
fn spt_determinism_across_threads() {
    let g = pgraph::gen::clique_chain(5, 8, 2.0);
    let run = |threads: usize| {
        let exec = Executor::new(threads);
        let p = HopsetParams::practical(g.num_vertices(), 0.25, 4, g.aspect_ratio_bound()).unwrap();
        let built = build_hopset_on(&exec, &g, &p, BuildOptions { record_paths: true });
        let sl = built.hopset.all_slice();
        let view = UnionView::with_overlay_columns(&g, sl.us(), sl.vs(), sl.ws());
        build_spt_on(&exec, &view, &built, 0)
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.parent, b.parent);
    for (x, y) in a.dist.iter().zip(&b.dist) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn hopset_serialization_through_public_api() {
    // Build → save → load → query: the production precompute workflow.
    let g = pgraph::gen::gnm_connected(80, 240, 31, 1.0, 6.0);
    let p = HopsetParams::practical(80, 0.25, 4, g.aspect_ratio_bound()).unwrap();
    let built = build_hopset_on(&exec(), &g, &p, BuildOptions::default());
    let mut buf = Vec::new();
    hopset::write_hopset_snapshot(&built.hopset, &mut buf).unwrap();
    let loaded = hopset::read_hopset_snapshot(buf.as_slice()).unwrap();
    let v1 = UnionView::with_extra(&g, &built.hopset.all_slice().to_overlay_vec());
    let v2 = UnionView::with_extra(&g, &loaded.all_slice().to_overlay_vec());
    let d1 = exact::bellman_ford_hops(&v1, &[3], p.query_hops);
    let d2 = exact::bellman_ford_hops(&v2, &[3], p.query_hops);
    assert_eq!(d1, d2);
}

#[test]
fn delta_stepping_agrees_with_engine() {
    // Two very different algorithms, one truth: Δ-stepping (exact) lower-
    // bounds the hopset oracle's approximate answers — both behind the
    // same DistanceOracle trait.
    let g = std::sync::Arc::new(pgraph::gen::road_grid(12, 12, 5, 1.0, 8.0));
    let hopset: Box<dyn DistanceOracle> = Box::new(
        Oracle::builder(std::sync::Arc::clone(&g))
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap(),
    );
    let dstep: Box<dyn DistanceOracle> = Box::new(
        DeltaSteppingOracle::with_delta(std::sync::Arc::clone(&g), 2.0)
            .unwrap()
            .with_executor(exec()),
    );
    let approx = hopset.distances_from(0).unwrap();
    let ds = dstep.distances_from(0).unwrap();
    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
    for v in 0..g.num_vertices() {
        assert!(approx[v] >= ds[v] - 1e-9);
        assert!(approx[v] <= hopset.stretch_bound() * ds[v] + 1e-9);
    }
}
