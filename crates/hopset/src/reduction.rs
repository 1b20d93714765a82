//! The Klein–Sairam weight reduction (Appendix C, Theorems C.2/C.3) and its
//! path-reporting variant (Appendix D).
//!
//! The bounded-aspect-ratio pipeline of §2 pays `log Λ` in size and time.
//! Appendix C removes the dependence: for every *relevant* scale `k` (one
//! with an edge of weight in `((ε/n)·2^k, 2^{k+1}]`), build a contracted
//! graph `𝒢_k`:
//!
//! * **nodes** `V_k` = connected components over edges of weight
//!   `≤ (ε/n)·2^k` (computed with Shiloach–Vishkin, which also yields a
//!   spanning tree `T_U` per node — Appendix C.2),
//! * **edges**: the lightest original edge between two nodes, if
//!   `≤ 2^{k+1}`, reweighted `W(X,Y) = ω(x,y) + (|X|+|Y|)·(ε/n)·2^k`
//!   (eq. (21)), giving aspect ratio `O(n/ε)` (eq. (22)),
//! * **centers**: chosen by the largest-child rule over the laminar node
//!   family (Appendix C.3), which caps the star-edge count at `n·log n`
//!   (Lemma C.1, eq. (24)),
//! * **star edges** `S`: center-to-member edges weighted by the `T_U` tree
//!   path (the Appendix D refinement of \[EN19\]'s `|U|·(ε/n)·2^k`, needed
//!   so stars are *realizable paths* and path reporting works).
//!
//! A full multi-scale hopset is built per `𝒢_k` (aspect `O(n/ε)`, so
//! `log(n/ε)` scales); its top scales (covering the image of
//! `(2^k, 2^{k+1}]`) map back to node-center edges of the ultimate hopset
//! `H`, which also contains `S`. Per \[EN19\] Lemma 4.3, `H` is a
//! `(1+6ε, 6β+5)`-hopset of `G` — so we build with `ε/6` internally and
//! query with `6β+5` hops.
//!
//! For path reporting (Appendix D), *all* scales of each `𝒢_k` hopset map
//! in (the peeling needs them — §D.1), every mapped memory path routes
//! explicitly through node centers (`center → member → member → center`),
//! and star edges carry their tree path. The provenance scale is encoded so
//! that peeling strictly descends: stars of level `k` sit below every
//! mapped hopset edge of level `k`, which sit below level `k+1` (see
//! [`encode_scale`]).

use crate::multi_scale::{build_hopset_on, BuildOptions, BuiltHopset};
use crate::params::{HopsetParams, ParamError, ParamMode};
use crate::path::{MemEdge, MemoryPath};
use crate::store::{EdgeKind, Hopset, HopsetEdge};
use pgraph::{Graph, GraphBuilder, VId, Weight};
use pram::{cc, jump, Executor, Ledger};

/// Per-level (relevant scale) report for experiment E8.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// The scale `k`.
    pub k: u32,
    /// Number of nodes `|V_k|`.
    pub nodes: usize,
    /// Nodes that are not isolated in `𝒢_k` — the quantity eq. (26) bounds
    /// by `O(n·log n)` summed over all levels.
    pub non_isolated_nodes: usize,
    /// Non-singleton nodes.
    pub contracted_nodes: usize,
    /// Edges of `𝒢_k`.
    pub edges: usize,
    /// Weight ratio `max ω / min ω` of `𝒢_k` (eq. (22) bounds it by
    /// `O(n/ε)` — the quantity that determines the number of scales).
    pub aspect_ratio: f64,
    /// Star edges added at this level.
    pub star_edges: usize,
    /// Hopset edges mapped into `H` from this level.
    pub mapped_edges: usize,
}

/// A hopset of `G` built through the weight reduction.
#[derive(Clone, Debug)]
pub struct ReducedHopset {
    /// Star edges plus mapped node-center edges, on original vertex ids.
    pub hopset: Hopset,
    /// Per-level reports (ascending `k`).
    pub levels: Vec<LevelReport>,
    /// Total PRAM cost (levels charged in parallel, per Appendix C.4).
    pub ledger: Ledger,
    /// Hop budget for queries over `G ∪ H`: `6β+5`, capped at `n`.
    pub query_hops: usize,
    /// Total star edges `|S|` (eq. (24) bounds by `n·log2 n`).
    pub star_edges: usize,
    /// The ε the caller asked for (internally scales are built with ε/6).
    pub eps: f64,
}

/// Encode the peeling order for reduced-hopset provenance: level-`k` star
/// edges < level-`k` mapped hopset edges (by ascending `𝒢_k` scale) <
/// level-`k+1` anything. `gk_scale = None` marks a star edge.
pub fn encode_scale(k: u32, gk_scale: Option<u32>) -> u32 {
    (k << 21)
        | match gk_scale {
            None => 0,
            Some(s) => s + 1,
        }
}

/// Build a `(1+ε, 6β+5)`-hopset of `g` without any aspect-ratio assumption
/// (Theorem C.2; with `record_paths`, Theorem D.1) on `exec`: the
/// components/forest/pointer-jumping substrate and every per-level hopset
/// construction run on it.
///
/// `g` must have minimum edge weight ≥ 1 (normalize with
/// [`Graph::scaled_to_unit_min`]).
pub fn build_reduced_hopset_on(
    exec: &Executor,
    g: &Graph,
    eps: f64,
    kappa: usize,
    rho: f64,
    mode: ParamMode,
    opts: BuildOptions,
) -> Result<ReducedHopset, ParamError> {
    let n = g.num_vertices();
    if let Some(mn) = g.min_weight() {
        assert!(mn >= 1.0 - 1e-12, "min edge weight must be >= 1");
    }
    let eps_internal = eps / 6.0; // [EN19] Lemma 4.3: final stretch ≤ 1+6ε′.
    let mut ledger = Ledger::new();
    let mut hopset = Hopset::new();
    let mut levels = Vec::new();
    let mut total_stars = 0usize;
    let mut max_beta = 2usize;

    // Relevant scales: k with an edge of weight in ((ε/n)·2^k, 2^{k+1}].
    let ks = relevant_scales(g, eps_internal);

    // The laminar family: levels processed in ascending k; remember the
    // previous level's nodes for the largest-child rule.
    let mut prev: Option<LevelNodes> = None;

    for &k in &ks {
        let mut level_ledger = Ledger::new();
        let lvl = build_level(exec, g, k, eps_internal, prev.as_ref(), &mut level_ledger);

        // --- star edges (with tree-path memory in path mode).
        let star_count = add_star_edges(g, &lvl, prev.as_ref(), k, opts.record_paths, &mut hopset);
        total_stars += star_count;

        // --- 𝒢_k hopset (scaled to unit min weight).
        let (mapped, beta_hops) = if lvl.gk.num_vertices() >= 2 && lvl.gk.num_edges() > 0 {
            build_and_map_level_hopset(
                exec,
                &lvl,
                k,
                eps_internal,
                kappa,
                rho,
                mode,
                opts.record_paths,
                &mut hopset,
                &mut level_ledger,
            )
        } else {
            (0, 2)
        };
        max_beta = max_beta.max(beta_hops);

        levels.push(LevelReport {
            k,
            nodes: lvl.gk.num_vertices(),
            non_isolated_nodes: (0..lvl.gk.num_vertices() as u32)
                .filter(|&u| lvl.gk.degree(u) > 0)
                .count(),
            contracted_nodes: lvl.node_sizes.iter().filter(|&&s| s > 1).count(),
            edges: lvl.gk.num_edges(),
            aspect_ratio: match (lvl.gk.max_weight(), lvl.gk.min_weight()) {
                (Some(mx), Some(mn)) if mn > 0.0 => mx / mn,
                _ => 1.0,
            },
            star_edges: star_count,
            mapped_edges: mapped,
        });
        // Appendix C.4: the per-scale hopsets are computed in parallel.
        ledger.absorb_parallel(&level_ledger);
        prev = Some(lvl);
    }

    // 6β+5 hops, capped at n (a hop bound ≥ n−1 is exact).
    let query_hops = (6 * max_beta + 5).min(n.max(2));

    Ok(ReducedHopset {
        hopset,
        levels,
        ledger,
        query_hops,
        star_edges: total_stars,
        eps,
    })
}

/// All the per-level state the laminar family needs.
struct LevelNodes {
    /// Node index per vertex (dense, sorted by component label).
    node_of: Vec<u32>,
    /// Node center per node index.
    center: Vec<VId>,
    /// Center of the largest previous-level child per node (`None` at the
    /// lowest level): members of that child inherit its star edges
    /// (Appendix C.3's rule, behind Lemma C.1's `n·log n` count).
    largest_child_center: Vec<Option<VId>>,
    /// Node sizes.
    node_sizes: Vec<usize>,
    /// Tree parent/weight arrays oriented toward the node center.
    tree_parent: Vec<VId>,
    tree_weight: Vec<Weight>,
    /// Tree distance of every vertex to its node center.
    tree_dist: Vec<Weight>,
    /// The contracted graph `𝒢_k` (vertices = node indices).
    gk: Graph,
    /// For each canonical `𝒢_k` edge, the original edge `(x, y, ω)`.
    orig_edge: Vec<(VId, VId, Weight)>,
}

/// Relevant scales of `g` for internal ε (ascending).
pub fn relevant_scales(g: &Graph, eps: f64) -> Vec<u32> {
    let n = g.num_vertices().max(2) as f64;
    let mut ks: Vec<u32> = Vec::new();
    let lambda = g.aspect_ratio_bound().max(2.0).log2().ceil() as u32;
    for k in 0..=lambda {
        let lo = (eps / n) * (2.0f64).powi(k as i32);
        let hi = (2.0f64).powi(k as i32 + 1);
        if g.edges().iter().any(|&(_, _, w)| w > lo && w <= hi) {
            ks.push(k);
        }
    }
    ks
}

fn build_level(
    exec: &Executor,
    g: &Graph,
    k: u32,
    eps: f64,
    prev: Option<&LevelNodes>,
    ledger: &mut Ledger,
) -> LevelNodes {
    let n = g.num_vertices();
    let contract_w = (eps / n.max(2) as f64) * (2.0f64).powi(k as i32);
    let keep_w = (2.0f64).powi(k as i32 + 1);
    let edges = g.edges();

    // Nodes = components over light edges; spanning forest for the trees.
    let (cc_res, forest) = cc::spanning_forest(exec, g, |e| edges[e].2 <= contract_w, ledger);
    let label = cc_res.label;
    // Dense node indexing, sorted by label.
    let mut labels: Vec<VId> = (0..n)
        .filter(|&v| label[v] == v as VId)
        .map(|v| v as VId)
        .collect();
    labels.sort_unstable();
    // Keyed lookup only — never iterated, so no iteration order can leak
    // into the output (legal under xlint D1; the sorted `labels` Vec above
    // carries the deterministic order).
    let mut index_of_label = std::collections::HashMap::with_capacity(labels.len());
    for (i, &l) in labels.iter().enumerate() {
        index_of_label.insert(l, i as u32);
    }
    let node_of: Vec<u32> = (0..n).map(|v| index_of_label[&label[v]]).collect();
    let mut node_sizes = vec![0usize; labels.len()];
    for v in 0..n {
        node_sizes[node_of[v] as usize] += 1;
    }

    // Centers by the largest-child rule (Appendix C.3). The lowest level
    // takes the smallest-id vertex ("an arbitrary vertex").
    let mut center: Vec<VId> = labels.clone();
    let mut largest_child_center: Vec<Option<VId>> = vec![None; labels.len()];
    if let Some(prev) = prev {
        // Children of node U = previous-level nodes contained in U
        // (components nest because the weight threshold only grows).
        // (size desc, center asc) picks X1 deterministically.
        let mut best: Vec<(usize, VId)> = vec![(0, VId::MAX); labels.len()];
        for ci in 0..prev.center.len() {
            let child_center = prev.center[ci];
            let u = node_of[child_center as usize] as usize;
            let cand = (prev.node_sizes[ci], child_center);
            let (bs, bc) = best[u];
            if cand.0 > bs || (cand.0 == bs && cand.1 < bc) {
                best[u] = cand;
            }
        }
        for u in 0..labels.len() {
            if best[u].1 != VId::MAX {
                center[u] = best[u].1;
                largest_child_center[u] = Some(best[u].1);
            }
        }
        ledger.step(n as u64);
    }

    // Orient the per-node spanning trees toward the centers and compute
    // tree distances by pointer jumping (Appendix C.3 / §4.2).
    let center_of_label = |l: VId| -> VId { center[index_of_label[&l] as usize] };
    let (tree_parent, tree_weight) =
        cc::orient_forest(exec, n, g, &forest, center_of_label, &label, ledger);
    let (tree_dist, _roots) =
        jump::pointer_jump_distances(exec, &tree_parent, &tree_weight, ledger);

    // 𝒢_k edges: lightest original edge per node pair, reweighted (eq. 21).
    let mut proposals: Vec<(u32, u32, Weight, VId, VId)> = Vec::new();
    for &(x, y, w) in edges {
        if w > keep_w {
            continue;
        }
        let (nx, ny) = (node_of[x as usize], node_of[y as usize]);
        if nx == ny {
            continue;
        }
        let (a, b) = (nx.min(ny), nx.max(ny));
        proposals.push((a, b, w, x, y));
    }
    ledger.sort(proposals.len().max(1) as u64);
    proposals.sort_by(|p, q| {
        p.0.cmp(&q.0)
            .then(p.1.cmp(&q.1))
            .then(p.2.total_cmp(&q.2))
            .then(p.3.cmp(&q.3))
            .then(p.4.cmp(&q.4))
    });
    proposals.dedup_by(|nx, pv| nx.0 == pv.0 && nx.1 == pv.1);

    let mut b = GraphBuilder::with_capacity(labels.len().max(1), proposals.len());
    let mut orig_edge = Vec::with_capacity(proposals.len());
    for &(a, bb, w, x, y) in &proposals {
        let wk = w + (node_sizes[a as usize] + node_sizes[bb as usize]) as f64 * contract_w;
        b.add_edge(a, bb, wk);
        orig_edge.push((x, y, w));
    }
    let gk = b.build().expect("contracted graph is valid");
    // The canonical edge order of `gk` equals the (a, b)-sorted proposal
    // order (already deduped and endpoint-sorted), so `orig_edge[i]`
    // corresponds to `gk.edges()[i]`.
    debug_assert_eq!(gk.num_edges(), orig_edge.len());

    LevelNodes {
        node_of,
        center,
        largest_child_center,
        node_sizes,
        tree_parent,
        tree_weight,
        tree_dist,
        gk,
        orig_edge,
    }
}

/// Add the star edges of level `k` (with tree-path memory in path mode).
/// Members of the largest previous-level child inherit its star edges
/// (Appendix C.3); the others get fresh ones weighted by the `T_U` path.
fn add_star_edges(
    g: &Graph,
    lvl: &LevelNodes,
    prev: Option<&LevelNodes>,
    k: u32,
    record_paths: bool,
    hopset: &mut Hopset,
) -> usize {
    let n = g.num_vertices();
    let mut count = 0usize;
    for v in 0..n as u32 {
        let u = lvl.node_of[v as usize] as usize;
        let c = lvl.center[u];
        if c == v {
            continue;
        }
        let w = lvl.tree_dist[v as usize];
        if w == 0.0 {
            continue; // singleton node
        }
        if let (Some(x1c), Some(prev)) = (lvl.largest_child_center[u], prev) {
            // v inside the largest child X1: its star edge to the (same)
            // center already exists from a lower level (Lemma C.1's rule).
            if prev.node_of[v as usize] == prev.node_of[x1c as usize] {
                continue;
            }
        }
        let path_id = record_paths.then(|| {
            let mp = tree_path(lvl, v);
            debug_assert_eq!(mp.start(), c);
            debug_assert_eq!(mp.end(), v);
            hopset.push_path(mp)
        });
        hopset.push(HopsetEdge {
            u: c,
            v,
            w,
            scale: encode_scale(k, None),
            kind: EdgeKind::Star,
            path: path_id,
        });
        count += 1;
    }
    count
}

/// The tree path center → v as a memory path of base edges.
fn tree_path(lvl: &LevelNodes, v: VId) -> MemoryPath {
    let mut verts = vec![v];
    let mut links: Vec<(MemEdge, Weight)> = Vec::new();
    let mut cur = v;
    while lvl.tree_parent[cur as usize] != cur {
        let p = lvl.tree_parent[cur as usize];
        links.push((MemEdge::Base, lvl.tree_weight[cur as usize]));
        verts.push(p);
        cur = p;
        debug_assert!(verts.len() <= lvl.tree_parent.len());
    }
    verts.reverse();
    links.reverse();
    MemoryPath { verts, links }
}

/// Build the multi-scale hopset of `𝒢_k` and map it onto node centers.
/// Returns (mapped edge count, query hops of the level's construction).
#[allow(clippy::too_many_arguments)]
fn build_and_map_level_hopset(
    exec: &Executor,
    lvl: &LevelNodes,
    k: u32,
    eps: f64,
    kappa: usize,
    rho: f64,
    mode: ParamMode,
    record_paths: bool,
    hopset: &mut Hopset,
    ledger: &mut Ledger,
) -> (usize, usize) {
    // Scale to unit minimum weight (stretch-invariant).
    let factor = lvl.gk.min_weight().unwrap_or(1.0);
    let gk_scaled = lvl.gk.scaled_to_unit_min();
    let params = match HopsetParams::new(
        gk_scaled.num_vertices(),
        eps,
        kappa,
        rho,
        mode,
        gk_scaled.aspect_ratio_bound(),
        None,
    ) {
        Ok(p) => p,
        Err(_) => return (0, 2),
    };
    let built: BuiltHopset =
        build_hopset_on(exec, &gk_scaled, &params, BuildOptions { record_paths });
    ledger.absorb_sequential(&built.ledger);

    // Which 𝒢_k scales to keep: without path reporting, only the scales
    // covering the image of (2^k, 2^{k+1}] (eq. (28)'s size accounting);
    // with path reporting, all of them (Appendix D.1).
    let target_lo_scaled = (2.0f64).powi(k as i32) / factor;
    let min_keep_scale = if record_paths {
        0
    } else {
        target_lo_scaled.max(2.0).log2().floor().max(1.0) as u32 - 1
    };

    // Map 𝒢_k hopset edges (and memory paths) onto G. Mapped edge index
    // bookkeeping lets memory paths reference mapped lower-scale edges.
    let mut mapped_id: Vec<Option<u32>> = vec![None; built.hopset.len()];
    let mut mapped = 0usize;
    for (i, e) in built.hopset.iter().enumerate() {
        if e.scale < min_keep_scale {
            continue;
        }
        let cu = lvl.center[e.u as usize];
        let cv = lvl.center[e.v as usize];
        // Distinct nodes have distinct centers (a center is a member).
        debug_assert_ne!(cu, cv);
        let w = e.w * factor;
        let path_id = if record_paths {
            let gk_path = built
                .hopset
                .path_of(i as u32)
                .expect("path-reporting build");
            let mp = map_memory_path(lvl, gk_path, factor, &mapped_id, hopset);
            // Memory paths may be stored in either orientation.
            debug_assert_eq!(
                (mp.start().min(mp.end()), mp.start().max(mp.end())),
                (cu.min(cv), cu.max(cv))
            );
            Some(hopset.push_path(mp))
        } else {
            None
        };
        let gid = hopset.push(HopsetEdge {
            u: cu,
            v: cv,
            // The mapped weight must dominate the mapped path (center
            // detours add tree-path weight the 𝒢_k weight already budgets
            // for via eq. (21)'s (|X|+|Y|)·(ε/n)·2^k term).
            w,
            scale: encode_scale(k, Some(e.scale)),
            kind: e.kind,
            path: path_id,
        });
        mapped_id[i] = Some(gid);
        mapped += 1;
    }
    (mapped, built.params.query_hops)
}

/// Map a `𝒢_k` memory path (over nodes) to a `G` memory path (over original
/// vertices) routed through node centers: a node-graph edge `(X, Y)`
/// realized by original edge `(x, y)` becomes
/// `center(X) →tree x →graph y →tree center(Y)`; a node-hopset link becomes
/// the corresponding mapped hopset edge (Appendix D's center paths).
fn map_memory_path(
    lvl: &LevelNodes,
    gk_path: &MemoryPath,
    factor: f64,
    mapped_id: &[Option<u32>],
    hopset: &Hopset,
) -> MemoryPath {
    let mut out = MemoryPath::trivial(lvl.center[gk_path.start() as usize]);
    for (i, &(link, w)) in gk_path.links.iter().enumerate() {
        let from_node = gk_path.verts[i];
        let to_node = gk_path.verts[i + 1];
        match link {
            MemEdge::Base => {
                // Find the original edge behind this 𝒢_k edge.
                let (a, b) = (from_node.min(to_node), from_node.max(to_node));
                let idx = lvl
                    .gk
                    .edges()
                    .binary_search_by(|&(u, v, _)| (u, v).cmp(&(a, b)))
                    .expect("gk edge exists");
                let (x, y, ow) = lvl.orig_edge[idx];
                // Orient x inside from_node.
                let (x, y) = if lvl.node_of[x as usize] == from_node {
                    (x, y)
                } else {
                    (y, x)
                };
                // center(from) → x (tree), x → y (graph), y → center(to).
                let t1 = tree_path(lvl, x); // center → x
                out = out.concat(&t1);
                out.verts.push(y);
                out.links.push((MemEdge::Base, ow));
                let t2 = tree_path(lvl, y).reversed(); // y → center
                out = out.concat(&t2);
            }
            MemEdge::Hop(j) => {
                let gid = mapped_id[j as usize]
                    .expect("memory paths reference lower scales, mapped first");
                let e = hopset.edge(gid);
                let cur = out.end();
                let nxt = if e.u == cur {
                    e.v
                } else {
                    debug_assert_eq!(e.v, cur, "mapped path must be contiguous");
                    e.u
                };
                out.verts.push(nxt);
                out.links.push((MemEdge::Hop(gid), e.w));
                debug_assert!((e.w - w * factor).abs() <= 1e-6 * e.w.max(1.0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_exec;
    use crate::validate::{find_shortcut_violations, measure_stretch};
    use pgraph::exact::{bellman_ford_hops, dijkstra};
    use pgraph::{gen, UnionView};

    #[test]
    fn relevant_scales_cover_weights() {
        let g = gen::exponential_path(12, 4.0); // weights 1, 4, ..., 4^10
        let ks = relevant_scales(&g, 0.25 / 6.0);
        assert!(!ks.is_empty());
        for &(_, _, w) in g.edges() {
            let n = g.num_vertices() as f64;
            assert!(
                ks.iter().any(|&k| {
                    w > (0.25 / 6.0 / n) * 2f64.powi(k as i32) && w <= 2f64.powi(k as i32 + 1)
                }),
                "weight {w} uncovered"
            );
        }
    }

    #[test]
    fn reduced_hopset_on_huge_aspect_ratio() {
        // Aspect ratio 4^22: far beyond what poly(n) scales would cover
        // comfortably; the reduction contracts aggressively instead.
        let g = gen::exponential_path(24, 4.0);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.5,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .unwrap();
        assert!(find_shortcut_violations(&g, &r.hopset).is_empty());
        let rep = measure_stretch(&g, &r.hopset, &[0, 12, 23], r.query_hops);
        assert_eq!(rep.undershoots, 0);
        assert_eq!(rep.unreached, 0);
        assert!(rep.max_stretch <= 1.5 + 1e-9, "stretch {}", rep.max_stretch);
    }

    #[test]
    fn level_aspect_ratios_are_bounded() {
        let g = gen::wide_weights(64, 128, 12, 5);
        let eps = 0.25;
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            eps,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .unwrap();
        let n = g.num_vertices() as f64;
        for lvl in &r.levels {
            if lvl.edges == 0 {
                continue;
            }
            // eq. (22): Λ(𝒢_k) = O(n/ε) for internal ε' = ε/6.
            let bound = (1.0 + 2.0 * eps / 6.0) * n / (eps / 6.0) * 2.0;
            assert!(
                lvl.aspect_ratio <= bound,
                "level {} aspect {} > {}",
                lvl.k,
                lvl.aspect_ratio,
                bound
            );
        }
    }

    #[test]
    fn star_count_within_lemma_c1() {
        let g = gen::wide_weights(96, 200, 14, 9);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.25,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .unwrap();
        let n = g.num_vertices() as f64;
        assert!(
            (r.star_edges as f64) <= n * n.log2(),
            "|S| = {} > n log n",
            r.star_edges
        );
    }

    #[test]
    fn stars_are_real_tree_paths() {
        let g = gen::wide_weights(48, 96, 10, 3);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.25,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions { record_paths: true },
        )
        .unwrap();
        let mut stars = 0;
        for (i, e) in r.hopset.iter().enumerate() {
            if !matches!(e.kind, EdgeKind::Star) {
                continue;
            }
            stars += 1;
            let mp = r.hopset.path_of(i as u32).expect("paths recorded");
            assert!(mp.links.iter().all(|l| matches!(l.0, MemEdge::Base)));
            assert!((mp.weight() - e.w).abs() <= 1e-9 * e.w.max(1.0));
            for (j, win) in mp.verts.windows(2).enumerate() {
                let gw = g.edge_weight(win[0], win[1]).expect("tree edge in G");
                assert!((gw - mp.links[j].1).abs() <= 1e-12 * gw.max(1.0));
            }
        }
        assert_eq!(stars, r.star_edges);
    }

    #[test]
    fn memory_paths_valid_for_reduced_hopset() {
        let g = gen::wide_weights(48, 96, 10, 3);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.25,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions { record_paths: true },
        )
        .unwrap();
        // Scale-order validation uses the encoded scales; weight and
        // path-reality checks are scale-agnostic.
        let errs: Vec<_> = crate::validate::check_memory_paths(&g, &r.hopset)
            .into_iter()
            .filter(|e| !matches!(e, crate::validate::MemoryPathError::TooHeavy { .. }))
            .collect();
        assert!(errs.is_empty(), "{errs:?}");
        // TooHeavy must not occur either: mapped weights budget the
        // detours via eq. (21).
        let heavy: Vec<_> = crate::validate::check_memory_paths(&g, &r.hopset)
            .into_iter()
            .filter(|e| matches!(e, crate::validate::MemoryPathError::TooHeavy { .. }))
            .collect();
        assert!(heavy.is_empty(), "{heavy:?}");
    }

    #[test]
    fn reduced_matches_plain_on_small_aspect() {
        // With unit-ish weights nothing contracts; the reduction must agree
        // with the plain pipeline's guarantees.
        let g = gen::gnm_connected(64, 160, 13, 1.0, 4.0);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.3,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .unwrap();
        assert_eq!(r.star_edges, 0, "no contraction at unit-ish weights");
        let rep = measure_stretch(&g, &r.hopset, &[0, 32], r.query_hops);
        assert_eq!(rep.undershoots, 0);
        assert!(rep.max_stretch <= 1.3 + 1e-9);
    }

    #[test]
    fn reduced_hopset_shortcuts_hops() {
        let g = gen::exponential_path(64, 2.0);
        let r = build_reduced_hopset_on(
            &test_exec(),
            &g,
            0.5,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .unwrap();
        let sl = r.hopset.all_slice();
        let view = UnionView::with_overlay_columns(&g, sl.us(), sl.vs(), sl.ws());
        let cap = r.query_hops.min(32);
        let with = bellman_ford_hops(&view, &[0], cap);
        let exact = dijkstra(&g, 0).dist;
        for v in [32usize, 63] {
            assert!(with[v].is_finite(), "v={v} unreached at {cap} hops");
            assert!(with[v] <= 1.5 * exact[v] + 1e-9);
            assert!(with[v] >= exact[v] - 1e-6 * exact[v]);
        }
    }
}
