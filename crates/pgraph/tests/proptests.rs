//! Property tests for the graph substrate.

use pgraph::exact::{bellman_ford_hops, dijkstra};
use pgraph::{gen, snapshot, EdgeTag, Graph, GraphBuilder, OverlayCsrBuilder, UnionView, INF};
use proptest::prelude::*;

/// Random overlay edge batches over `n` vertices: a list of "scales", each
/// a list of `(u, v, w)` with `u != v`.
fn arb_scale_batches(n: usize) -> impl Strategy<Value = Vec<Vec<(u32, u32, f64)>>> {
    let edge = (0..n as u32, 1..n as u32, 1u32..50).prop_map(move |(u, d, w)| {
        let v = (u + d) % n as u32;
        (u.min(v), u.max(v), w as f64)
    });
    proptest::collection::vec(proptest::collection::vec(edge, 0..12), 1..5)
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..60, 0usize..4, any::<u64>(), 1u32..20)
        .prop_map(|(n, d, seed, wmax)| gen::gnm(n, n * d + 1, seed, 1.0, wmax as f64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Binary snapshot round trip is the identity on canonical edge lists,
    /// bit for bit on the weights.
    #[test]
    fn io_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        snapshot::write_graph_snapshot(&g, &mut buf).unwrap();
        let h = snapshot::read_graph_snapshot(buf.as_slice()).unwrap();
        prop_assert_eq!(g.num_vertices(), h.num_vertices());
        prop_assert_eq!(g.edges().len(), h.edges().len());
        for (a, b) in g.edges().iter().zip(h.edges()) {
            prop_assert_eq!((a.0, a.1, a.2.to_bits()), (b.0, b.1, b.2.to_bits()));
        }
    }

    /// Dijkstra distances satisfy the triangle inequality over edges and
    /// are symmetric (undirected graphs).
    #[test]
    fn dijkstra_triangle_and_symmetry(g in arb_graph()) {
        let n = g.num_vertices();
        let d0 = dijkstra(&g, 0).dist;
        // Edge relaxation is tight at a fixpoint.
        for &(u, v, w) in g.edges() {
            if d0[u as usize].is_finite() {
                prop_assert!(d0[v as usize] <= d0[u as usize] + w + 1e-9);
            }
            if d0[v as usize].is_finite() {
                prop_assert!(d0[u as usize] <= d0[v as usize] + w + 1e-9);
            }
        }
        // Symmetry: d(0, x) == d(x, 0).
        for x in [n / 2, n - 1] {
            let dx = dijkstra(&g, x as u32).dist;
            prop_assert!(
                (d0[x] - dx[0]).abs() < 1e-9
                    || (d0[x] == INF && dx[0] == INF)
            );
        }
    }

    /// Shortest paths reconstructed from parents realize the distances.
    #[test]
    fn dijkstra_paths_realize_distances(g in arb_graph()) {
        let r = dijkstra(&g, 0);
        for v in 0..g.num_vertices() as u32 {
            let Some(path) = r.path_to(v) else { continue };
            let mut acc = 0.0;
            for w in path.windows(2) {
                acc += g.edge_weight(w[0], w[1]).expect("path edge");
            }
            prop_assert!((acc - r.dist[v as usize]).abs() < 1e-9);
        }
    }

    /// Hop-bounded distances interpolate between direct edges and Dijkstra.
    #[test]
    fn bounded_bf_sandwich(g in arb_graph(), hops in 1usize..8) {
        let view = UnionView::base_only(&g);
        let exact = dijkstra(&g, 0).dist;
        let bounded = bellman_ford_hops(&view, &[0], hops);
        let full = bellman_ford_hops(&view, &[0], g.num_vertices());
        for v in 0..g.num_vertices() {
            prop_assert!(bounded[v] >= full[v] - 1e-9);
            prop_assert!(full[v] <= exact[v] + 1e-9);
            prop_assert!(
                (full[v] - exact[v]).abs() < 1e-9
                    || (full[v] == INF && exact[v] == INF)
            );
        }
    }

    /// The builder's parallel-edge dedup keeps the lightest copy, whatever
    /// the insertion order.
    #[test]
    fn builder_dedup_keeps_min(mut ws in proptest::collection::vec(1.0f64..100.0, 1..10)) {
        let mut b = GraphBuilder::new(2);
        for &w in &ws {
            b.add_edge(0, 1, w);
        }
        let g = b.build().unwrap();
        ws.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(g.num_edges(), 1);
        prop_assert_eq!(g.edge_weight(0, 1), Some(ws[0]));
    }

    /// Generators honor their seed contract: same seed same graph,
    /// different seeds (almost always) different graphs.
    #[test]
    fn generator_seed_contract(n in 10usize..50, seed in any::<u64>()) {
        let a = gen::gnm(n, 2 * n, seed, 1.0, 5.0);
        let b = gen::gnm(n, 2 * n, seed, 1.0, 5.0);
        prop_assert_eq!(a.edges(), b.edges());
    }

    /// UnionView::edge_weight equals the min over both layers.
    #[test]
    fn union_view_min_weight(g in arb_graph(), w in 0.5f64..50.0) {
        if g.num_vertices() < 2 { return Ok(()); }
        let extra = vec![(0u32, 1u32, w)];
        let view = UnionView::with_extra(&g, &extra);
        let base = g.edge_weight(0, 1);
        let expect = match base {
            Some(b) => b.min(w),
            None => w,
        };
        prop_assert_eq!(view.edge_weight(0, 1), Some(expect));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The rolling `OverlayCsrBuilder` is semantics-preserving: every block
    /// it returns equals a from-scratch `OverlayCsr::build` over its batch,
    /// with ids shifted by the block's global base.
    #[test]
    fn overlay_builder_matches_vec_reference(
        n in 4usize..24,
        batches in arb_scale_batches(16),
    ) {
        let n = n.max(16); // batches address vertices 0..16
        let g = Graph::empty(n);
        let mut builder = OverlayCsrBuilder::rolling(n);
        for batch in &batches {
            let us: Vec<u32> = batch.iter().map(|e| e.0).collect();
            let vs: Vec<u32> = batch.iter().map(|e| e.1).collect();
            let ws: Vec<f64> = batch.iter().map(|e| e.2).collect();
            let base = builder.num_extra() as u32;
            let blk_view = UnionView::with_csr(&g, builder.append_scale_seq(&us, &vs, &ws));
            let ref_view = UnionView::with_extra(&g, batch);
            prop_assert_eq!(blk_view.num_extra(), batch.len());
            for v in 0..n as u32 {
                let a: Vec<_> = blk_view.neighbors(v).collect();
                let b: Vec<_> = ref_view
                    .neighbors(v)
                    .map(|(nb, w, t)| match t {
                        EdgeTag::Extra(i) => (nb, w, EdgeTag::Extra(base + i)),
                        t => (nb, w, t),
                    })
                    .collect();
                prop_assert_eq!(a, b, "block mismatch at vertex {}", v);
            }
        }
        let total: usize = batches.iter().map(Vec::len).sum();
        prop_assert_eq!(builder.num_extra(), total);
    }
}
