//! The distance-range certificate of `OracleBuilder::build` (DESIGN.md
//! §4): before any construction runs, one `query_hops`-round exploration
//! over `G` alone decides whether the oracle needs a hopset at all.
//!
//! * A certified graph builds no scale (`λ = k₀ − 1`, empty hopset), and
//!   every row is the bare exploration over `G`, exact against Dijkstra.
//! * Every other build is unchanged: some vertex unreached,
//!   `D̂ > query_hops`, or a binding hop cap. Its hopset is exactly the one
//!   `build_hopset_on` builds for `g.aspect_ratio_bound()`, and its ledger
//!   is today's plus the certificate's charge (none when capped).
//! * Both paths are bit-identical across thread counts. Where β binds,
//!   the construction stays under the end-to-end contracts the other
//!   suites now check on certified graphs only.

use pram::pool::threads_from_env;
use pram_sssp::hopset::build_hopset_on;
use pram_sssp::pram::{bford, cc};
use pram_sssp::prelude::*;
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn assert_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: vertex {v}");
    }
}

/// A small-diameter graph: 2·ecc(0) is far below its 400-hop budget.
fn certified_graph() -> Graph {
    gen::gnm_connected(400, 1_200, 3, 1.0, 6.0)
}

/// A weighted path whose hop diameter (599) exceeds β = 399 at ε = 0.9:
/// the bare exploration from vertex 0 leaves 200 vertices unreached.
fn beta_binding_path() -> Graph {
    gen::path_weighted(600, |i| 1.0 + (i % 7) as f64)
}

/// The parameters the builder derives: practical mode, default
/// ρ = 1/κ, κ = 4, and the graph's aspect-ratio bound.
fn builder_params(g: &Graph, eps: f64, cap: Option<usize>) -> HopsetParams {
    HopsetParams::new(
        g.num_vertices(),
        eps,
        4,
        0.25,
        ParamMode::Practical,
        g.aspect_ratio_bound(),
        cap,
    )
    .expect("params")
}

/// The certificate recomputed from its definition: the components pass
/// plus one exploration over `G` from every component's smallest id.
/// Returns its charge and the explored distances.
fn certificate(exec: &Executor, g: &Graph, hops: usize) -> (Ledger, Vec<f64>) {
    let mut ledger = Ledger::new();
    let comps = cc::connected_components(exec, g, &mut ledger);
    let roots: Vec<u32> = comps.components().iter().map(|(l, _)| *l).collect();
    let r = bford::bellman_ford(exec, &UnionView::base_only(g), &roots, hops, &mut ledger);
    (ledger, r.dist)
}

/// `oracle` built no scale, and every row from `sources` is the bare
/// exploration over `G` at its hop budget, exact against Dijkstra.
fn assert_no_scale(oracle: &Oracle, g: &Graph, sources: &[u32]) {
    let built = oracle.built().expect("a certified oracle is plain");
    assert_eq!(built.lambda + 1, built.k0, "λ = k₀ − 1");
    assert_eq!(built.num_scales(), 0);
    assert!(built.scales.is_empty());
    assert_eq!(built.size_bound(), 0.0);
    assert_eq!(oracle.hopset_size(), 0);
    let exec = oracle.executor();
    let (cert, _) = certificate(exec, g, oracle.query_hops());
    assert_eq!(oracle.cost(), &cert, "the ledger is the certificate alone");
    for &s in sources {
        let row = oracle.distances_from(s).expect("in range");
        let mut l = Ledger::new();
        let bare = bford::bellman_ford(
            exec,
            &UnionView::base_only(g),
            &[s],
            oracle.query_hops(),
            &mut l,
        );
        assert_bits(&row, &bare.dist, &format!("row {s} vs bare G"));
        let exact = exact::dijkstra(g, s).dist;
        for (v, (&d, &e)) in row.iter().zip(&exact).enumerate() {
            if e == INF {
                assert_eq!(d, INF, "phantom connectivity {s} → {v}");
            } else {
                assert!((d - e).abs() <= 1e-9 * e.max(1.0), "{s} → {v}: {d} vs {e}");
            }
        }
    }
}

/// `oracle` built exactly the hopset `build_hopset_on` builds for
/// `params`; its ledger adds the certificate's charge if `certified_ran`.
fn assert_builds_todays_hopset(
    oracle: &Oracle,
    g: &Graph,
    params: &HopsetParams,
    certified_ran: bool,
) {
    let exec = oracle.executor();
    let built = oracle.built().expect("plain backend");
    let today = build_hopset_on(exec, g, params, BuildOptions::default());
    assert!(!today.hopset.is_empty(), "the instance must need a hopset");
    assert_eq!((built.k0, built.lambda), (today.k0, today.lambda));
    assert_eq!(built.lambda, params.lambda(g.aspect_ratio_bound()));
    assert_eq!(built.scales.len(), today.scales.len());
    let (h, t) = (&built.hopset, &today.hopset);
    assert_eq!(h.us(), t.us());
    assert_eq!(h.vs(), t.vs());
    assert_eq!(h.scales(), t.scales());
    assert_eq!(h.kinds(), t.kinds());
    assert_bits(h.ws(), t.ws(), "hopset weights");
    let mut want = if certified_ran {
        certificate(exec, g, oracle.query_hops()).0
    } else {
        Ledger::new()
    };
    want.absorb_sequential(&today.ledger);
    assert_eq!(oracle.cost(), &want);
}

/// Max stretch of `oracle`'s rows from `sources`, asserting no undershoot
/// and no phantom connectivity on the way.
fn max_stretch(oracle: &Oracle, sources: &[u32]) -> f64 {
    let mut worst: f64 = 1.0;
    for &s in sources {
        let row = oracle.distances_from(s).expect("in range");
        let exact = exact::dijkstra(oracle.graph(), s).dist;
        for (v, (&d, &e)) in row.iter().zip(&exact).enumerate() {
            if e == INF {
                assert_eq!(d, INF, "phantom connectivity {s} → {v}");
            } else if e > 0.0 {
                assert!(
                    d >= e - 1e-6 * e.max(1.0),
                    "undershoot {s} → {v}: {d} < {e}"
                );
                worst = worst.max(d / e);
            }
        }
    }
    worst
}

#[test]
fn small_diameter_graph_builds_no_scale() {
    let g = certified_graph();
    let oracle = Oracle::builder(g.clone())
        .threads(threads_from_env())
        .build()
        .expect("params");
    assert_eq!(oracle.query_hops(), 400);
    assert_eq!(oracle.stretch_bound(), 1.25);
    assert_no_scale(&oracle, &g, &[0, 57, 399]);
    // Same answers through the point-to-point and batch paths.
    let multi = oracle.distances_multi(&[0, 399]).expect("in range");
    assert_eq!(
        oracle.distance(0, 399).expect("in range").to_bits(),
        multi.dist.row(0)[399].to_bits()
    );
}

#[test]
fn every_component_gets_its_own_certificate() {
    // A gnm component, a road-grid component and ten isolated vertices.
    let (a, c) = (
        gen::gnm_connected(100, 300, 5, 1.0, 4.0),
        gen::road_grid(10, 15, 2, 1.0, 4.0),
    );
    let mut b = GraphBuilder::new(260);
    for &(u, v, w) in a.edges() {
        b.add_edge(u, v, w);
    }
    for &(u, v, w) in c.edges() {
        b.add_edge(u + 100, v + 100, w);
    }
    let g = b.build().expect("graph");
    let oracle = Oracle::builder(g.clone())
        .threads(threads_from_env())
        .build()
        .expect("params");
    let (_, dist) = certificate(oracle.executor(), &g, oracle.query_hops());
    assert!(
        dist.iter().all(|d| d.is_finite()),
        "every root reaches its component"
    );
    assert!(
        dist[250..].iter().all(|&d| d == 0.0),
        "isolated vertices are roots"
    );
    assert_no_scale(&oracle, &g, &[0, 99, 100, 249, 250, 259]);

    // All or nothing: one component past the budget builds the full hopset.
    let path = beta_binding_path();
    let mut b = GraphBuilder::new(700);
    for &(u, v, w) in a.edges() {
        b.add_edge(u, v, w);
    }
    for &(u, v, w) in path.edges() {
        b.add_edge(u + 100, v + 100, w);
    }
    let g = b.build().expect("graph");
    let oracle = Oracle::builder(g.clone())
        .eps(0.9)
        .threads(threads_from_env())
        .build()
        .expect("params");
    assert_builds_todays_hopset(&oracle, &g, &builder_params(&g, 0.9, None), true);
    assert!(max_stretch(&oracle, &[0, 100, 699]) <= 1.9 + 1e-9);
}

#[test]
fn an_unreached_vertex_builds_todays_hopset() {
    let g = beta_binding_path();
    let oracle = Oracle::builder(g.clone())
        .eps(0.9)
        .threads(threads_from_env())
        .build()
        .expect("params");
    assert_eq!(oracle.query_hops(), 399);
    let (_, dist) = certificate(oracle.executor(), &g, 399);
    assert_eq!(dist.iter().filter(|&&d| d == INF).count(), 200);
    assert_builds_todays_hopset(&oracle, &g, &builder_params(&g, 0.9, None), true);
    assert!(max_stretch(&oracle, &[0, 300, 599]) <= 1.9 + 1e-9);
}

#[test]
fn a_reached_graph_past_the_budget_builds_todays_hopset() {
    let g = gen::road_grid(3, 200, 5, 1.0, 10.0);
    let oracle = Oracle::builder(g.clone())
        .eps(0.9)
        .threads(threads_from_env())
        .build()
        .expect("params");
    let hops = oracle.query_hops();
    assert_eq!(hops, 399);
    let (_, dist) = certificate(oracle.executor(), &g, hops);
    let far = dist.iter().copied().max_by(f64::total_cmp).expect("n > 0");
    assert!(far.is_finite(), "every vertex is reached");
    assert!(2.0 * far > hops as f64, "D̂ = {} ≤ {hops}", 2.0 * far);
    assert_builds_todays_hopset(&oracle, &g, &builder_params(&g, 0.9, None), true);
    assert!(max_stretch(&oracle, &[0, 299, 599]) <= 1.9 + 1e-9);
}

#[test]
fn a_binding_hop_cap_skips_the_certificate() {
    let g = certified_graph();
    let oracle = Oracle::builder(g.clone())
        .hop_cap(16)
        .threads(threads_from_env())
        .build()
        .expect("params");
    assert_eq!(oracle.query_hops(), 16);
    assert_eq!(oracle.stretch_bound(), f64::INFINITY);
    assert_builds_todays_hopset(&oracle, &g, &builder_params(&g, 0.25, Some(16)), false);

    // A cap at min(β, n) does not bind: the certificate runs, and the
    // bound stays 1 + ε, also after a snapshot round trip.
    let oracle = Oracle::builder(g.clone())
        .hop_cap(400)
        .threads(threads_from_env())
        .build()
        .expect("params");
    assert_no_scale(&oracle, &g, &[0]);
    assert_eq!(oracle.stretch_bound(), 1.25);
    assert_eq!(reloaded(&oracle).stretch_bound(), 1.25);
}

/// `oracle` written to a snapshot and read back on its own executor.
fn reloaded(oracle: &Oracle) -> Oracle {
    let mut bytes = Vec::new();
    oracle.write_snapshot(&mut bytes).expect("write snapshot");
    OracleBuilder::from_snapshot_reader(bytes.as_slice(), oracle.executor().clone())
        .expect("read snapshot")
}

/// Two instances whose rows at a binding cap overshoot `1 + ε = 1.25`,
/// each with its cap.
fn capped_instances() -> [(Graph, usize); 2] {
    [
        (gen::gnm_connected(400, 1_200, 5, 1.0, 10.0), 3),
        (gen::road_grid(12, 12, 3, 1.0, 10.0), 6),
    ]
}

/// A binding hop cap voids Theorem 3.7's `(1+ε)` bound, and the capped
/// rows do overshoot it. The oracle reports `f64::INFINITY`, also after a
/// snapshot round trip and behind the cache, and no landmark plane builds
/// over it: its lower bounds deflate by the backend's bound.
#[test]
fn a_binding_hop_cap_voids_the_stretch_bound() {
    for (g, cap) in capped_instances() {
        let n = g.num_vertices() as u32;
        let oracle = Arc::new(
            Oracle::builder(g)
                .eps(0.25)
                .kappa(4)
                .hop_cap(cap)
                .threads(threads_from_env())
                .build()
                .expect("params"),
        );
        assert_eq!(oracle.query_hops(), cap);
        let bound = oracle.stretch_bound();
        assert_eq!(bound, f64::INFINITY, "cap {cap}");
        let sources = [0, n / 2, n - 1];
        let worst = max_stretch(&oracle, &sources);
        assert!(worst > 1.25, "cap {cap}: worst row stretch {worst}");
        // The rows meet the reported bound under a gate that never forms
        // `bound · 0`: `∞ · 0` is NaN, and no answer compares below NaN.
        // A zero distance must be answered with zero.
        for s in sources {
            let row = oracle.distances_from(s).expect("in range");
            let exact = exact::dijkstra(oracle.graph(), s).dist;
            for (v, (&d, &e)) in row.iter().zip(&exact).enumerate() {
                let ok = if e == 0.0 { d == 0.0 } else { d <= bound * e };
                assert!(ok, "cap {cap}: {s} → {v}: {d} vs {e}");
            }
        }
        assert_eq!(reloaded(&oracle).stretch_bound(), f64::INFINITY);
        assert_eq!(
            CachedOracle::new(Arc::clone(&oracle), 4)
                .expect("capacity")
                .stretch_bound(),
            f64::INFINITY
        );
        match LandmarkPlane::build(&oracle, &LandmarkConfig::new(4, 1.0)) {
            Err(SsspError::Config(msg)) => assert!(msg.contains("stretch bound"), "{msg}"),
            other => panic!(
                "cap {cap}: expected Config error, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

/// λ, the hopset, the rows and the ledger are bit-identical for every
/// thread count, on the no-scale path and on the full build.
#[test]
fn builds_are_thread_independent() {
    for (g, eps) in [(certified_graph(), 0.25), (beta_binding_path(), 0.9)] {
        let n = g.num_vertices() as u32;
        let sources = [0u32, n / 2, n - 1];
        let run = |t: usize| {
            let o = Oracle::builder(g.clone())
                .eps(eps)
                .threads(t)
                .build()
                .expect("params");
            let m = o.distances_multi(&sources).expect("in range");
            (o, m)
        };
        let (reference, ref_multi) = run(1);
        let rb = reference.built().expect("plain");
        for t in THREADS {
            let (o, m) = run(t);
            let b = o.built().expect("plain");
            assert_eq!((b.k0, b.lambda), (rb.k0, rb.lambda), "t={t}");
            assert_eq!(b.hopset.us(), rb.hopset.us(), "t={t}");
            assert_eq!(b.hopset.vs(), rb.hopset.vs(), "t={t}");
            assert_eq!(b.hopset.scales(), rb.hopset.scales(), "t={t}");
            assert_bits(b.hopset.ws(), rb.hopset.ws(), &format!("t={t} weights"));
            assert_eq!(o.cost(), reference.cost(), "t={t}");
            assert_eq!(m.ledger, ref_multi.ledger, "t={t}");
            for i in 0..sources.len() {
                assert_bits(
                    m.dist.row(i),
                    ref_multi.dist.row(i),
                    &format!("t={t} row {i}"),
                );
            }
        }
    }
}

/// Sibling of `executor_isolation::
/// concurrent_oracles_with_different_thread_counts_are_bit_identical`,
/// whose instance is now certified: two differently-pinned oracles over
/// the β-binding path, built and queried concurrently.
#[test]
fn concurrent_oracles_are_bit_identical_when_beta_binds() {
    let g = beta_binding_path();
    let sources = vec![0u32, 150, 300, 599];
    let build = |g: Graph, t: usize| {
        Oracle::builder(g)
            .eps(0.9)
            .threads(t)
            .build()
            .expect("params")
    };
    let reference = build(g.clone(), 1);
    assert!(reference.hopset_size() > 0);
    let ref_multi = reference.distances_multi(&sources).expect("in range");
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| build(g.clone(), 2));
        let hb = s.spawn(|| build(g.clone(), 4));
        (ha.join().expect("build t=2"), hb.join().expect("build t=4"))
    });
    assert_eq!(a.hopset_size(), reference.hopset_size());
    assert_eq!(b.hopset_size(), reference.hopset_size());
    let (a, b) = (Arc::new(a), Arc::new(b));
    std::thread::scope(|s| {
        for caller in 0..3 {
            for oracle in [Arc::clone(&a), Arc::clone(&b)] {
                let (sources, ref_multi) = (&sources, &ref_multi);
                s.spawn(move || {
                    let got = oracle.distances_multi(sources).expect("in range");
                    for i in 0..sources.len() {
                        assert_bits(
                            ref_multi.dist.row(i),
                            got.dist.row(i),
                            &format!("caller {caller} t={} row {i}", oracle.executor().threads()),
                        );
                    }
                });
            }
        }
    });
}

/// Siblings of `end_to_end::sssp_contract_varied_{kappa,eps}`, whose
/// instances are now certified: the same contract where β binds.
#[test]
fn sssp_contract_varied_kappa_when_beta_binds() {
    let g = beta_binding_path();
    for kappa in [2, 3, 4, 6] {
        let oracle = Oracle::builder(g.clone())
            .eps(0.3)
            .kappa(kappa)
            .threads(threads_from_env())
            .build()
            .expect("params");
        assert!(oracle.hopset_size() > 0, "kappa {kappa} built no hopset");
        let s = max_stretch(&oracle, &[0, 599]);
        assert!(s <= 1.3 + 1e-9, "kappa {kappa}: stretch {s}");
    }
}

#[test]
fn sssp_contract_varied_eps_when_beta_binds() {
    let g = beta_binding_path();
    for eps in [0.1, 0.25, 0.5, 0.9] {
        let oracle = Oracle::builder(g.clone())
            .eps(eps)
            .threads(threads_from_env())
            .build()
            .expect("params");
        assert!(oracle.hopset_size() > 0, "eps {eps} built no hopset");
        let s = max_stretch(&oracle, &[0, 599]);
        assert!(s <= 1.0 + eps + 1e-9, "eps {eps}: stretch {s}");
    }
}
