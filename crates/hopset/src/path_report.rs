//! Path-reporting hopsets and `(1+ε)`-SPT extraction (§4, Theorem 4.6).
//!
//! A hopset built with [`crate::BuildOptions::record_paths`] gives every
//! edge the *memory property* (§4.1): an attached path in
//! `G_{k-1} = (V, E ∪ H_{k-1})` of weight at most the edge's weight. This
//! module implements Algorithm 1:
//!
//! 1. run a `β`-hop Bellman–Ford from the source over `G ∪ H`, producing a
//!    tree `T = T_λ` that may use hopset edges;
//! 2. **peel** scale by scale, `k = λ … k₀`: every tree edge of `H_k` is
//!    replaced by its memory path. The replacing vertex writes, for every
//!    interior path vertex, a `⟨vertex, estimate, parent⟩` triplet into a
//!    global array `M`; `M` is sorted and each vertex adopts its best
//!    improving entry (§4.1). Lemma 4.1 (estimates strictly decrease toward
//!    the root) keeps `T` a tree; Lemma 4.2 shows the final tree uses only
//!    edges of `G`;
//! 3. recompute exact tree distances by pointer jumping (§4.2, Lemma 4.3).
//!
//! The result is a spanning tree of the source's component with
//! `d_T(s, v) ≤ (1+ε)·d_G(s, v)` — the full shortest-path *tree* that the
//! implicit mechanism of \[EN18, EN19\] cannot produce (§1.3).

use crate::multi_scale::BuiltHopset;
use crate::path::MemEdge;
use crate::reduction::ReducedHopset;
use crate::store::Hopset;
use pgraph::{EdgeTag, Graph, UnionView, VId, Weight, INF};
use pram::{bford, jump, sort as psort, Executor, Ledger};

/// Composition of the working tree during peeling (experiment F11's series).
#[derive(Clone, Copy, Debug)]
pub struct PeelStats {
    /// Scale being eliminated this iteration.
    pub scale: u32,
    /// Tree edges that are plain graph edges before the iteration.
    pub graph_edges: usize,
    /// Tree edges that are hopset edges before the iteration.
    pub hopset_edges: usize,
    /// Hopset edges of `scale` replaced in this iteration.
    pub replaced: usize,
    /// Triplets written to the global array `M`.
    pub triplets: usize,
    /// Vertices that improved their estimate from `M`.
    pub improved: usize,
}

/// A `(1+ε)`-approximate shortest-path tree with edges in `E`.
#[derive(Clone, Debug)]
pub struct SptResult {
    /// The source.
    pub source: VId,
    /// `parent[v] = Some((p, w))`: tree edge `p—v` of weight `w` (an edge of
    /// the original graph). `None` for the source and unreachable vertices.
    pub parent: Vec<Option<(VId, Weight)>>,
    /// Exact distance to the source *in the tree* (INF if unreachable).
    pub dist: Vec<Weight>,
    /// Per-iteration peeling statistics (descending scale).
    pub peel_stats: Vec<PeelStats>,
    /// PRAM cost of the query (Bellman–Ford + peeling + pointer jumping).
    pub ledger: Ledger,
}

impl SptResult {
    /// Tree path from the source to `v` (source first), `None` if
    /// unreachable.
    pub fn path_to(&self, v: VId) -> Option<Vec<VId>> {
        if self.dist[v as usize] == INF {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent[cur as usize] {
            path.push(p);
            cur = p;
            debug_assert!(path.len() <= self.parent.len(), "parent cycle");
        }
        path.reverse();
        Some(path)
    }
}

/// The working per-vertex tree pointer during peeling.
#[derive(Clone, Copy, Debug)]
struct Ptr {
    parent: VId,
    weight: Weight,
    /// Provenance: graph edge or hopset edge (global index).
    link: MemEdge,
}

/// Extract a `(1+ε)`-SPT rooted at `source` from a path-reporting hopset
/// (Algorithm 1) on `exec`, over a pre-built `G ∪ H` view whose overlay
/// covers the whole hopset with global edge ids (`EdgeTag::Extra(i)` maps
/// to hopset edge `i` — what [`Hopset::all_slice`]-derived CSRs produce).
/// Long-lived query engines build the view once, own an executor, and
/// call this per query. Panics if the hopset was built without
/// [`crate::BuildOptions::record_paths`].
pub fn build_spt_on(
    exec: &Executor,
    view: &UnionView<'_>,
    built: &BuiltHopset,
    source: VId,
) -> SptResult {
    spt_core(exec, view, &built.hopset, source, built.params.query_hops)
}

/// Extract a `(1+ε)`-SPT from a *weight-reduced* path-reporting hopset
/// (Appendix D, Theorem D.2) on `exec`, over a pre-built `G ∪ H` view (see
/// [`build_spt_on`] for the overlay-index contract). The same peeling
/// engine applies: the reduction's encoded provenance scales strictly
/// descend through mapped hopset edges, then star edges, then graph
/// edges — realizing the three-step replacement of §D.2 (Figure 11) in
/// one uniform loop.
pub fn build_spt_reduced_on(
    exec: &Executor,
    view: &UnionView<'_>,
    reduced: &ReducedHopset,
    source: VId,
) -> SptResult {
    spt_core(exec, view, &reduced.hopset, source, reduced.query_hops)
}

fn spt_core(
    exec: &Executor,
    view: &UnionView<'_>,
    hopset: &Hopset,
    source: VId,
    query_hops: usize,
) -> SptResult {
    assert!(
        hopset.all_paths_recorded(),
        "path-reporting SPT requires a hopset built with record_paths"
    );
    debug_assert_eq!(
        view.num_extra(),
        hopset.len(),
        "view overlay must cover the whole hopset (global edge ids)"
    );
    let n = view.num_vertices();
    let mut ledger = Ledger::new();

    // ---- 1. β-hop Bellman–Ford over G ∪ H (Algorithm 1, line 3).
    let bf = bford::bellman_ford(exec, view, &[source], query_hops, &mut ledger);

    let mut dist: Vec<Weight> = bf.dist.clone();
    let mut ptr: Vec<Option<Ptr>> = bf
        .parent
        .iter()
        .map(|p| {
            p.map(|pe| Ptr {
                parent: pe.parent,
                weight: pe.weight,
                link: match pe.tag {
                    EdgeTag::Base => MemEdge::Base,
                    EdgeTag::Extra(i) => MemEdge::Hop(i),
                },
            })
        })
        .collect();

    // ---- 2. Peeling, scale by scale (Algorithm 1, lines 4-5). The scale
    // set is whatever provenance the hopset carries (plain scales for §2,
    // encoded level/scale pairs for Appendix C/D), in descending order —
    // memory paths only ever reference strictly smaller scales. The store
    // is scale-indexed, so this is its offset table reversed (no edge
    // scan, no sort).
    let mut scales: Vec<u32> = hopset.scales_present().collect();
    scales.reverse();
    let mut peel_stats = Vec::new();
    for k in scales {
        let stats = peel_scale(exec, hopset, k, &mut dist, &mut ptr, &mut ledger);
        peel_stats.push(stats);
        debug_assert!(estimates_decrease(&dist, &ptr), "Lemma 4.1 violated");
    }

    // All hopset edges are gone (Lemma 4.2).
    debug_assert!(ptr
        .iter()
        .flatten()
        .all(|p| matches!(p.link, MemEdge::Base)));

    // ---- 3. Exact tree distances by pointer jumping (§4.2).
    let mut parent_arr: Vec<VId> = (0..n as VId).collect();
    let mut weight_arr: Vec<Weight> = vec![0.0; n];
    for v in 0..n {
        if let Some(p) = &ptr[v] {
            parent_arr[v] = p.parent;
            weight_arr[v] = p.weight;
        }
    }
    let (tree_dist, root) =
        jump::pointer_jump_distances(exec, &parent_arr, &weight_arr, &mut ledger);
    let mut final_dist = vec![INF; n];
    let mut parent: Vec<Option<(VId, Weight)>> = vec![None; n];
    for v in 0..n {
        if v as VId == source {
            final_dist[v] = 0.0;
        } else if root[v] == source {
            final_dist[v] = tree_dist[v];
            let p = ptr[v].as_ref().expect("non-root reachable vertex");
            parent[v] = Some((p.parent, p.weight));
        }
    }

    SptResult {
        source,
        parent,
        dist: final_dist,
        peel_stats,
        ledger,
    }
}

/// One peeling iteration (§4.1): replace tree edges of scale `k`.
fn peel_scale(
    exec: &Executor,
    hopset: &Hopset,
    k: u32,
    dist: &mut [Weight],
    ptr: &mut [Option<Ptr>],
    ledger: &mut Ledger,
) -> PeelStats {
    let n = ptr.len();
    let mut stats = PeelStats {
        scale: k,
        graph_edges: 0,
        hopset_edges: 0,
        replaced: 0,
        triplets: 0,
        improved: 0,
    };
    for p in ptr.iter().flatten() {
        match p.link {
            MemEdge::Base => stats.graph_edges += 1,
            MemEdge::Hop(_) => stats.hopset_edges += 1,
        }
    }

    // Global array M of ⟨vertex, estimate, parent, link, weight⟩ triplets.
    let mut m_array: Vec<(VId, u64, VId, MemEdge, Weight)> = Vec::new();
    let mut self_updates: Vec<(VId, Ptr)> = Vec::new();

    ledger.step(n as u64);
    for v in 0..n as u32 {
        let Some(p) = &ptr[v as usize] else { continue };
        let MemEdge::Hop(eidx) = p.link else { continue };
        if hopset.scale_of(eidx) != k {
            continue;
        }
        stats.replaced += 1;
        // Orient the memory path parent → v.
        let mp = hopset.path_of(eidx).expect("memory property");
        let oriented;
        let mp = if mp.start() == p.parent && mp.end() == v {
            mp
        } else {
            debug_assert!(mp.start() == v && mp.end() == p.parent);
            oriented = mp.reversed();
            &oriented
        };
        let prefix = mp.prefix_dists();
        let base = dist[p.parent as usize];
        let t = mp.len();
        // v's own new parent: the last interior vertex (x_{t-1}).
        let (last_link, last_w) = mp.links[t - 1];
        self_updates.push((
            v,
            Ptr {
                parent: mp.verts[t - 1],
                weight: last_w,
                link: last_link,
            },
        ));
        // Triplets for the path vertices x_1 … x_t (§4.1 writes x_1…x_{t-1};
        // including x_t = v is harmless — the improving-only update rule
        // applies — and lets v benefit when the memory path is lighter than
        // the replaced edge).
        #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
        for i in 1..=t {
            let (link, w) = mp.links[i - 1];
            m_array.push((
                mp.verts[i],
                (base + prefix[i]).to_bits(),
                mp.verts[i - 1],
                link,
                w,
            ));
            stats.triplets += 1;
        }
    }

    // Apply v's unconditional parent swap first (its estimate is unchanged;
    // Lemma 4.1's case 2 covers why this keeps estimates decreasing).
    for (v, new_ptr) in self_updates {
        ptr[v as usize] = Some(new_ptr);
    }

    // Sort M by (vertex, estimate) and let every vertex adopt its best
    // improving entry (§4.1 sorts and binary-searches; same cost charged).
    psort::sort_by(exec, &mut m_array, ledger, |a, b| {
        a.0.cmp(&b.0).then(a.1.cmp(&b.1))
    });
    ledger.binary_search(n as u64, m_array.len().max(1) as u64);
    let mut i = 0;
    while i < m_array.len() {
        let (x, est_bits, par, link, w) = m_array[i];
        // Skip the rest of this vertex's run.
        let mut j = i + 1;
        while j < m_array.len() && m_array[j].0 == x {
            j += 1;
        }
        let est = f64::from_bits(est_bits);
        if est < dist[x as usize] {
            dist[x as usize] = est;
            ptr[x as usize] = Some(Ptr {
                parent: par,
                weight: w,
                link,
            });
            stats.improved += 1;
        }
        i = j;
    }
    stats
}

/// Lemma 4.1's invariant: `d(x) > d(p(x))` for every non-root vertex.
fn estimates_decrease(dist: &[Weight], ptr: &[Option<Ptr>]) -> bool {
    ptr.iter().enumerate().all(|(v, p)| match p {
        Some(p) => dist[p.parent as usize] < dist[v] || dist[v] == INF,
        None => true,
    })
}

/// Validation report for an [`SptResult`] (experiment E7).
#[derive(Clone, Copy, Debug, Default)]
pub struct SptValidation {
    /// Tree edges not present in `G` (must be 0 — Lemma 4.2).
    pub non_graph_edges: usize,
    /// Tree-edge weights disagreeing with `G` (must be 0).
    pub weight_mismatches: usize,
    /// Vertices whose `dist` differs from the recomputed path weight
    /// (must be 0 — Lemma 4.3).
    pub distance_mismatches: usize,
    /// Largest `d_T(s, v) / d_G(s, v)` over reachable vertices.
    pub max_stretch: f64,
    /// Reachable vertices the tree misses (must be 0).
    pub missing: usize,
}

/// Validate an SPT against the graph and exact distances.
pub fn validate_spt(g: &Graph, spt: &SptResult) -> SptValidation {
    let n = g.num_vertices();
    let exact = pgraph::exact::dijkstra(g, spt.source).dist;
    let mut val = SptValidation {
        max_stretch: 1.0,
        ..Default::default()
    };
    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
    for v in 0..n {
        if let Some((p, w)) = spt.parent[v] {
            match g.edge_weight(p, v as VId) {
                None => val.non_graph_edges += 1,
                Some(gw) if (gw - w).abs() > 1e-9 * gw.max(1.0) => val.weight_mismatches += 1,
                Some(_) => {}
            }
            let expect = spt.dist[p as usize] + w;
            if (spt.dist[v] - expect).abs() > 1e-6 * expect.max(1.0) {
                val.distance_mismatches += 1;
            }
        }
        if exact[v].is_finite() && exact[v] > 0.0 {
            if spt.dist[v] == INF {
                val.missing += 1;
            } else {
                val.max_stretch = val.max_stretch.max(spt.dist[v] / exact[v]);
            }
        }
    }
    val
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_scale::{build_hopset_on, BuildOptions};
    use crate::params::{HopsetParams, ParamMode};
    use crate::test_exec;
    use pgraph::gen;

    /// [`build_spt_on`] over the `G ∪ H` view of the whole hopset.
    fn spt(g: &Graph, built: &BuiltHopset, source: VId) -> SptResult {
        let sl = built.hopset.all_slice();
        let view = UnionView::with_overlay_columns(g, sl.us(), sl.vs(), sl.ws());
        build_spt_on(&test_exec(), &view, built, source)
    }

    fn build(g: &Graph, eps: f64) -> BuiltHopset {
        let p = HopsetParams::new(
            g.num_vertices(),
            eps,
            4,
            0.3,
            ParamMode::Practical,
            g.aspect_ratio_bound(),
            None,
        )
        .unwrap();
        build_hopset_on(&test_exec(), g, &p, BuildOptions { record_paths: true })
    }

    #[test]
    fn spt_on_clique_chain() {
        let g = gen::clique_chain(4, 8, 2.0);
        let built = build(&g, 0.25);
        assert!(!built.hopset.is_empty(), "need hopset edges to peel");
        let spt = spt(&g, &built, 0);
        let val = validate_spt(&g, &spt);
        assert_eq!(val.non_graph_edges, 0, "{val:?}");
        assert_eq!(val.weight_mismatches, 0);
        assert_eq!(val.distance_mismatches, 0);
        assert_eq!(val.missing, 0);
        assert!(
            val.max_stretch <= 1.25 + 1e-9,
            "stretch {}",
            val.max_stretch
        );
    }

    #[test]
    fn spt_on_weighted_path() {
        let g = gen::path_weighted(80, |i| 1.0 + (i % 7) as f64);
        let built = build(&g, 0.25);
        let spt = spt(&g, &built, 40);
        let val = validate_spt(&g, &spt);
        assert_eq!(
            (
                val.non_graph_edges,
                val.weight_mismatches,
                val.distance_mismatches,
                val.missing
            ),
            (0, 0, 0, 0),
            "{val:?}"
        );
        assert!(val.max_stretch <= 1.25 + 1e-9);
        // On a path, the SPT *is* the path: exact distances.
        let exact = pgraph::exact::dijkstra(&g, 40).dist;
        #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
        for v in 0..80 {
            assert!((spt.dist[v] - exact[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn spt_on_random_graph() {
        let g = gen::gnm_connected(100, 300, 11, 1.0, 8.0);
        let built = build(&g, 0.2);
        for src in [0u32, 55, 99] {
            let spt = spt(&g, &built, src);
            let val = validate_spt(&g, &spt);
            assert_eq!(val.non_graph_edges, 0);
            assert_eq!(val.distance_mismatches, 0);
            assert_eq!(val.missing, 0);
            assert!(val.max_stretch <= 1.2 + 1e-9, "src {src}: {val:?}");
        }
    }

    #[test]
    fn spt_paths_are_walkable() {
        let g = gen::clique_chain(3, 7, 2.5);
        let built = build(&g, 0.25);
        let spt = spt(&g, &built, 0);
        for v in 0..g.num_vertices() as u32 {
            let path = spt.path_to(v).expect("connected");
            assert_eq!(path[0], 0);
            assert_eq!(*path.last().unwrap(), v);
            // Consecutive vertices joined by graph edges; weights sum to dist.
            let mut acc = 0.0;
            for w in path.windows(2) {
                acc += g.edge_weight(w[0], w[1]).expect("tree edge in G");
            }
            assert!((acc - spt.dist[v as usize]).abs() < 1e-9 * acc.max(1.0));
        }
    }

    #[test]
    fn spt_on_disconnected_graph() {
        let mut b = pgraph::GraphBuilder::new(20);
        for i in 0..9 {
            b.add_edge(i, i + 1, 1.0);
        }
        for i in 10..19 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build().unwrap();
        let built = build(&g, 0.25);
        let spt = spt(&g, &built, 0);
        for v in 0..10 {
            assert!(spt.dist[v].is_finite());
        }
        for v in 10..20 {
            assert_eq!(spt.dist[v], INF);
            assert!(spt.parent[v].is_none());
        }
    }

    #[test]
    fn peel_stats_eliminate_hopset_edges() {
        let g = gen::clique_chain(5, 8, 2.0);
        let built = build(&g, 0.25);
        let spt = spt(&g, &built, 0);
        if let Some(last) = spt.peel_stats.last() {
            assert!(last.hopset_edges >= last.replaced);
        }
        let val = validate_spt(&g, &spt);
        assert_eq!(val.non_graph_edges, 0);
    }

    #[test]
    #[should_panic(expected = "record_paths")]
    fn refuses_pathless_hopset() {
        let g = gen::clique_chain(3, 6, 2.0);
        let p = HopsetParams::new(
            g.num_vertices(),
            0.25,
            4,
            0.3,
            ParamMode::Practical,
            g.aspect_ratio_bound(),
            None,
        )
        .unwrap();
        let built = build_hopset_on(
            &test_exec(),
            &g,
            &p,
            BuildOptions {
                record_paths: false,
            },
        );
        if built.hopset.is_empty() {
            // Ensure the assertion is actually exercised.
            panic!("record_paths");
        }
        let _ = spt(&g, &built, 0);
    }
}

#[cfg(test)]
mod reduced_tests {
    use super::*;
    use crate::multi_scale::BuildOptions;
    use crate::params::ParamMode;
    use crate::reduction::build_reduced_hopset_on;
    use crate::test_exec;
    use pgraph::gen;

    /// [`build_spt_reduced_on`] over the `G ∪ H` view of the whole hopset.
    fn spt(g: &Graph, reduced: &ReducedHopset, source: VId) -> SptResult {
        let sl = reduced.hopset.all_slice();
        let view = UnionView::with_overlay_columns(g, sl.us(), sl.vs(), sl.ws());
        build_spt_reduced_on(&test_exec(), &view, reduced, source)
    }

    #[test]
    fn reduced_spt_on_huge_aspect_ratio() {
        // Theorem D.2 end-to-end: SPT through the weight reduction.
        let g = gen::exponential_path(32, 3.0);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.5,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions { record_paths: true },
        )
        .unwrap();
        let spt = spt(&g, &r, 0);
        let val = validate_spt(&g, &spt);
        assert_eq!(val.non_graph_edges, 0, "{val:?}");
        assert_eq!(val.weight_mismatches, 0);
        assert_eq!(val.distance_mismatches, 0);
        assert_eq!(val.missing, 0);
        assert!(val.max_stretch <= 1.5 + 1e-9, "stretch {}", val.max_stretch);
    }

    #[test]
    fn reduced_spt_on_wide_weights() {
        let g = gen::wide_weights(64, 128, 10, 7);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.5,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions { record_paths: true },
        )
        .unwrap();
        for src in [0u32, 31, 63] {
            let spt = spt(&g, &r, src);
            let val = validate_spt(&g, &spt);
            assert_eq!(val.non_graph_edges, 0, "src {src}: {val:?}");
            assert_eq!(val.distance_mismatches, 0);
            assert_eq!(val.missing, 0);
            assert!(val.max_stretch <= 1.5 + 1e-9, "src {src}: {val:?}");
        }
    }

    #[test]
    fn reduced_spt_paths_walkable() {
        let g = gen::wide_weights(48, 100, 8, 2);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.4,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions { record_paths: true },
        )
        .unwrap();
        let spt = spt(&g, &r, 5);
        for v in 0..48u32 {
            let path = spt.path_to(v).expect("connected");
            let mut acc = 0.0;
            for w in path.windows(2) {
                acc += g.edge_weight(w[0], w[1]).expect("tree edge in G");
            }
            assert!((acc - spt.dist[v as usize]).abs() < 1e-9 * acc.max(1.0));
        }
    }
}
