//! Property-based tests (proptest): the paper's invariants under random
//! graphs and parameters.
//!
//! Strategy note: graphs are generated through the seeded deterministic
//! generators, with proptest driving (n, m, seed, ε, κ) — this keeps shrink
//! behavior sane (a failing case is a small tuple, not a giant edge list)
//! while still covering a wide input space.

use pram::pool::threads_from_env;
use pram_sssp::prelude::*;
use proptest::prelude::*;

/// The executor the properties run on: `PRAM_SSSP_THREADS` threads, else
/// the hardware's.
fn exec() -> Executor {
    Executor::new(threads_from_env())
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (12usize..80, 1usize..4, any::<u64>())
        .prop_map(|(n, density, seed)| gen::gnm_connected(n, n * density, seed, 1.0, 10.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// eq. (1) left side + Lemmas 2.3/2.9: the hopset never shortens any
    /// distance, at any hop budget.
    #[test]
    fn never_undershoots(g in arb_graph(), src_sel in 0usize..8) {
        let n = g.num_vertices();
        let src = ((src_sel * n) / 8) as u32;
        let p = HopsetParams::practical(n, 0.25, 4, g.aspect_ratio_bound()).unwrap();
        let built = build_hopset_on(&exec(), &g, &p, BuildOptions::default());
        let sl = built.hopset.all_slice();
        let view = UnionView::with_overlay_columns(&g, sl.us(), sl.vs(), sl.ws());
        let exact = exact::dijkstra(&g, src).dist;
        for hops in [2usize, 5, n] {
            let d = exact::bellman_ford_hops(&view, &[src], hops);
            for v in 0..n {
                prop_assert!(d[v] >= exact[v] - 1e-6 * exact[v].max(1.0),
                    "hops={hops} v={v}: {} < {}", d[v], exact[v]);
            }
        }
    }

    /// eq. (1) right side at the engine's hop budget.
    #[test]
    fn stretch_holds_at_query_budget(g in arb_graph(), eps_pct in 15u32..60) {
        let eps = eps_pct as f64 / 100.0;
        let oracle = Oracle::builder(g.clone())
            .eps(eps)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let src = 0u32;
        let approx = oracle.distances_from(src).unwrap();
        let exact = exact::dijkstra(&g, src).dist;
        for v in 0..g.num_vertices() {
            if exact[v].is_finite() && exact[v] > 0.0 {
                prop_assert!(approx[v] <= (1.0 + eps) * exact[v] + 1e-9,
                    "v={v}: {} > (1+{eps})*{}", approx[v], exact[v]);
            }
        }
    }

    /// Determinism: same input, same hopset, bit for bit.
    #[test]
    fn construction_is_deterministic(g in arb_graph()) {
        let p = HopsetParams::practical(g.num_vertices(), 0.3, 4, g.aspect_ratio_bound()).unwrap();
        let a = build_hopset_on(&exec(), &g, &p, BuildOptions::default());
        let b = build_hopset_on(&exec(), &g, &p, BuildOptions::default());
        prop_assert_eq!(a.hopset.len(), b.hopset.len());
        for (x, y) in a.hopset.iter().zip(b.hopset.iter()) {
            prop_assert_eq!((x.u, x.v, x.scale), (y.u, y.v, y.scale));
            prop_assert_eq!(x.w.to_bits(), y.w.to_bits());
        }
    }

    /// eq. (10): |H| ≤ ⌈log Λ⌉·n^{1+1/κ} (with the per-scale bound of
    /// eq. (9) summed over the scales actually built).
    #[test]
    fn size_bound_holds(g in arb_graph(), kappa in 2usize..6) {
        let p = HopsetParams::practical(g.num_vertices(), 0.25, kappa, g.aspect_ratio_bound()).unwrap();
        let built = build_hopset_on(&exec(), &g, &p, BuildOptions::default());
        prop_assert!((built.hopset.len() as f64) <= built.size_bound() + 1.0,
            "{} > {}", built.hopset.len(), built.size_bound());
    }

    /// §4: the SPT is a real tree of graph edges realizing its distances.
    #[test]
    fn spt_well_formed(g in arb_graph()) {
        let oracle = Oracle::builder(g.clone())
            .eps(0.25)
            .kappa(4)
            .paths(true)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let spt = oracle.spt(0).unwrap();
        let val = validate_spt(&g, &spt);
        prop_assert_eq!(val.non_graph_edges, 0);
        prop_assert_eq!(val.weight_mismatches, 0);
        prop_assert_eq!(val.distance_mismatches, 0);
        prop_assert_eq!(val.missing, 0);
        prop_assert!(val.max_stretch <= 1.25 + 1e-9);
    }

    /// Memory property (§4.1) on every recorded path.
    #[test]
    fn memory_paths_sound(g in arb_graph()) {
        let p = HopsetParams::practical(g.num_vertices(), 0.25, 4, g.aspect_ratio_bound()).unwrap();
        let built = build_hopset_on(&exec(), &g, &p, BuildOptions { record_paths: true });
        let errs = hopset::validate::check_memory_paths(&g, &built.hopset);
        prop_assert!(errs.is_empty(), "{:?}", errs);
    }

    /// Klein–Sairam reduction invariants on wide-weight graphs: per-level
    /// weight ratio O(n/ε), star count ≤ n·log n, no undershoots.
    #[test]
    fn reduction_invariants(n in 16usize..64, levels in 4u32..12, seed in any::<u64>()) {
        let g = gen::wide_weights(n, 2 * n, levels, seed);
        let eps = 0.4;
        let r = build_reduced_hopset_on(
            &exec(),
            &g,
            eps,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .unwrap();
        let nf = n as f64;
        prop_assert!((r.star_edges as f64) <= nf * nf.log2() + 1.0);
        for lvl in r.levels.iter().filter(|l| l.edges > 0) {
            prop_assert!(lvl.aspect_ratio <= (1.0 + eps / 3.0) * nf / (eps / 6.0) * 2.0,
                "level {} ratio {}", lvl.k, lvl.aspect_ratio);
        }
        let bad = hopset::validate::find_shortcut_violations(&g, &r.hopset);
        prop_assert!(bad.is_empty(), "{:?}", bad);
    }

    /// Thm 3.8 (aMSSD, nearest-source form): `distances_to_nearest` never
    /// undershoots the brute-force min-over-Dijkstra-rows reference, stays
    /// within the (1+ε) stretch of it, and does so at every thread count;
    /// the exact backend matches the reference outright.
    #[test]
    fn nearest_source_vs_brute_force(g in arb_graph(), k_sel in 1usize..4, seed in any::<u64>()) {
        let n = g.num_vertices();
        // k deterministic, well-spread sources (duplicates allowed).
        let k = k_sel + 1;
        let sources: Vec<u32> = (0..k)
            .map(|i| (((seed as usize).wrapping_add(i * n / k)) % n) as u32)
            .collect();
        // Brute force: min over one full Dijkstra row per source.
        let rows: Vec<Vec<f64>> = sources.iter().map(|&s| exact::dijkstra(&g, s).dist).collect();
        let reference: Vec<f64> = (0..n)
            .map(|v| rows.iter().map(|r| r[v]).fold(INF, f64::min))
            .collect();

        let eps = 0.25;
        for &t in &[1usize, 2, 4, 8] {
            let oracle = Oracle::builder(g.clone()).eps(eps).kappa(4).threads(t).build().unwrap();
            let got = oracle.distances_to_nearest(&sources).unwrap();
            for v in 0..n {
                prop_assert!(got[v] >= reference[v] - 1e-9,
                    "threads={t} v={v}: {} undershoots {}", got[v], reference[v]);
                prop_assert!(got[v] <= (1.0 + eps) * reference[v] + 1e-9,
                    "threads={t} v={v}: {} > (1+{eps})*{}", got[v], reference[v]);
            }
        }

        let exact_backend = DijkstraOracle::new(g.clone());
        let exact_near = exact_backend.distances_to_nearest(&sources).unwrap();
        for v in 0..n {
            prop_assert!((exact_near[v] - reference[v]).abs() < 1e-9
                || (exact_near[v] == INF && reference[v] == INF),
                "exact backend v={v}: {} vs {}", exact_near[v], reference[v]);
        }
    }

    /// The exact Bellman–Ford recurrence: d^{(h)} is non-increasing in h
    /// and reaches Dijkstra at h = n (sanity for the whole query stack).
    #[test]
    fn bounded_distance_monotone(g in arb_graph(), src_sel in 0usize..4) {
        let n = g.num_vertices();
        let src = ((src_sel * n) / 4) as u32;
        let view = UnionView::base_only(&g);
        let exact = exact::dijkstra(&g, src).dist;
        let mut prev = exact::bellman_ford_hops(&view, &[src], 1);
        for h in [2usize, 4, 8, n] {
            let cur = exact::bellman_ford_hops(&view, &[src], h);
            for v in 0..n {
                prop_assert!(cur[v] <= prev[v]);
            }
            prev = cur;
        }
        for v in 0..n {
            prop_assert!((prev[v] - exact[v]).abs() < 1e-9 || (prev[v] == INF && exact[v] == INF));
        }
    }
}
