//! Connected components in the Shiloach–Vishkin style \[SV82\], plus spanning
//! forests — the substrate of the Klein–Sairam weight reduction (Appendix C),
//! which contracts all edges lighter than a threshold into "nodes" and needs,
//! "as a byproduct of the connected components algorithm, … a spanning tree
//! T_U" per node (Appendix C.2).
//!
//! The variant here is the deterministic hook-to-minimum formulation: each
//! round, every root is hooked onto the smallest neighboring label (a
//! min-reduction — order-independent, hence thread-count-independent), then
//! pointer jumping fully compresses the forest. Labels strictly decrease, so
//! the hook edges form a spanning forest and the algorithm terminates; the
//! round count is logarithmic in practice (each surviving component absorbs
//! at least one neighbor per round).

use crate::pool::Executor;
use crate::{prim, Ledger};
use pgraph::{Graph, VId};

/// Output of [`connected_components`].
#[derive(Clone, Debug)]
pub struct CcResult {
    /// `label[v]` = smallest vertex id in `v`'s component.
    pub label: Vec<VId>,
    /// Number of components.
    pub count: usize,
    /// Rounds of hook+compress executed.
    pub rounds: usize,
}

impl CcResult {
    /// True if `u` and `v` are in the same component.
    #[inline]
    pub fn same(&self, u: VId, v: VId) -> bool {
        self.label[u as usize] == self.label[v as usize]
    }

    /// The members of every component, keyed by label, sorted by label then
    /// id — deterministic.
    pub fn components(&self) -> Vec<(VId, Vec<VId>)> {
        let mut by_label: Vec<(VId, VId)> = self
            .label
            .iter()
            .enumerate()
            .map(|(v, &l)| (l, v as VId))
            .collect();
        by_label.sort_unstable();
        let mut out: Vec<(VId, Vec<VId>)> = Vec::new();
        for (l, v) in by_label {
            match out.last_mut() {
                Some((ll, members)) if *ll == l => members.push(v),
                _ => out.push((l, vec![v])),
            }
        }
        out
    }
}

/// Connected components over the subgraph of `g` containing only the edges
/// whose index satisfies `edge_filter`. Passing `|_| true` uses the whole
/// graph. The filter is how Appendix C selects "edges of weight ≤ (ε/n)·2^k".
pub fn connected_components_filtered(
    exec: &Executor,
    g: &Graph,
    edge_filter: impl Fn(usize) -> bool + Sync,
    ledger: &mut Ledger,
) -> CcResult {
    let (res, _forest) = cc_with_forest(exec, g, edge_filter, ledger);
    res
}

/// Connected components of the whole graph.
pub fn connected_components(exec: &Executor, g: &Graph, ledger: &mut Ledger) -> CcResult {
    connected_components_filtered(exec, g, |_| true, ledger)
}

/// Connected components *and* a spanning forest (edge indices into
/// `g.edges()`) of the filtered subgraph. Every component of size `s`
/// contributes exactly `s − 1` forest edges.
pub fn spanning_forest(
    exec: &Executor,
    g: &Graph,
    edge_filter: impl Fn(usize) -> bool + Sync,
    ledger: &mut Ledger,
) -> (CcResult, Vec<usize>) {
    cc_with_forest(exec, g, edge_filter, ledger)
}

fn cc_with_forest(
    exec: &Executor,
    g: &Graph,
    edge_filter: impl Fn(usize) -> bool + Sync,
    ledger: &mut Ledger,
) -> (CcResult, Vec<usize>) {
    let n = g.num_vertices();
    let edges = g.edges();
    let m = edges.len();
    let mut label: Vec<VId> = (0..n as VId).collect();
    let mut forest: Vec<usize> = Vec::new();
    let mut rounds = 0usize;

    let active: Vec<usize> = (0..m).filter(|&e| edge_filter(e)).collect();
    if n == 0 {
        return (
            CcResult {
                label,
                count: 0,
                rounds,
            },
            forest,
        );
    }

    loop {
        rounds += 1;
        // --- Hook: every root computes the minimum neighboring label over
        // all incident (filtered) edges; ties broken by edge index.
        // One PRAM round of O(m) work.
        ledger.step(active.len() as u64 + n as u64);
        // proposals[r] = (candidate_label, edge_idx) — min-reduced.
        let mut proposal: Vec<(VId, usize)> = vec![(VId::MAX, usize::MAX); n];
        for &e in &active {
            let (u, v, _) = edges[e];
            let lu = label[u as usize];
            let lv = label[v as usize];
            if lu == lv {
                continue;
            }
            let (hi, lo) = if lu > lv { (lu, lv) } else { (lv, lu) };
            let p = &mut proposal[hi as usize];
            if (lo, e) < *p {
                *p = (lo, e);
            }
        }
        let mut changed = false;
        for r in 0..n {
            let (cand, e) = proposal[r];
            // Only current roots (label[r] == r) accept hooks; `r` is a label
            // value, so label[r] == r exactly for roots after compression.
            if cand != VId::MAX && label[r] == r as VId {
                label[r] = cand;
                forest.push(e);
                changed = true;
            }
        }
        if !changed {
            rounds -= 1;
            break;
        }
        // --- Compress: full pointer jumping (reads previous array only).
        loop {
            ledger.step(n as u64);
            let next: Vec<VId> = prim::par_map_range(exec, n, |v| label[label[v] as usize]);
            let stable = next == label;
            label = next;
            if stable {
                break;
            }
        }
    }

    forest.sort_unstable();
    let mut count = 0usize;
    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
    for v in 0..n {
        if label[v] == v as VId {
            count += 1;
        }
    }
    (
        CcResult {
            label,
            count,
            rounds,
        },
        forest,
    )
}

/// Orient a spanning forest: given tree edges (indices into `g.edges()`) and
/// a root per component (`root[c_label]`), produce parent pointers and
/// parent-edge weights (roots point to themselves with weight 0).
///
/// `roots` maps a component label to its chosen root vertex; components whose
/// label is absent use the label vertex itself as root.
///
/// The forest adjacency scratch is a flat CSR built with a degree count and
/// a prefix-sum pass on `exec` (the workspace's flat-layout discipline —
/// no per-vertex `Vec` allocation), then BFS-style rounds over it (depth ≤
/// forest diameter). The paper's node trees are an internal device of
/// Appendix C/D, where this orientation cost is dominated by the hopset
/// construction.
pub fn orient_forest(
    exec: &Executor,
    n: usize,
    g: &Graph,
    tree_edges: &[usize],
    root_of_label: impl Fn(VId) -> VId,
    labels: &[VId],
    ledger: &mut Ledger,
) -> (Vec<VId>, Vec<f64>) {
    // Flat CSR over the forest edges: count, scan, place, sort runs.
    let edges = g.edges();
    let mut deg = vec![0u64; n];
    for &e in tree_edges {
        let (u, v, _) = edges[e];
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let (offsets, total) = crate::scan::exclusive_prefix_sum(exec, &deg, ledger);
    let mut off: Vec<usize> = Vec::with_capacity(n + 1);
    off.extend(offsets.iter().map(|&x| x as usize));
    off.push(total as usize);
    let mut cursor = off[..n].to_vec();
    let mut adj: Vec<(VId, f64)> = vec![(0, 0.0); total as usize];
    for &e in tree_edges {
        let (u, v, w) = edges[e];
        adj[cursor[u as usize]] = (v, w);
        cursor[u as usize] += 1;
        adj[cursor[v as usize]] = (u, w);
        cursor[v as usize] += 1;
    }
    for v in 0..n {
        // Neighbors are unique within a forest run, so unstable is exact.
        adj[off[v]..off[v + 1]].sort_unstable_by_key(|a| a.0);
    }
    let run = |v: usize| &adj[off[v]..off[v + 1]];

    let mut parent: Vec<VId> = (0..n as VId).collect();
    let mut pw: Vec<f64> = vec![0.0; n];
    let mut visited = vec![false; n];
    let mut frontier: Vec<VId> = Vec::new();
    for v in 0..n as VId {
        let r = root_of_label(labels[v as usize]);
        if r == v {
            visited[v as usize] = true;
            frontier.push(v);
        }
    }
    while !frontier.is_empty() {
        ledger.step(
            frontier
                .iter()
                .map(|&v| run(v as usize).len() as u64)
                .sum::<u64>()
                + 1,
        );
        let mut next = Vec::new();
        for &u in &frontier {
            for &(v, w) in run(u as usize) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    parent[v as usize] = u;
                    pw[v as usize] = w;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    (parent, pw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::gen;

    fn exec() -> Executor {
        Executor::new(2)
    }

    #[test]
    fn single_component_path() {
        let g = gen::path(10);
        let mut l = Ledger::new();
        let cc = connected_components(&exec(), &g, &mut l);
        assert_eq!(cc.count, 1);
        assert!(cc.label.iter().all(|&x| x == 0));
    }

    #[test]
    fn disconnected_components() {
        let g = Graph::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (4, 5, 1.0)]).unwrap();
        let mut l = Ledger::new();
        let cc = connected_components(&exec(), &g, &mut l);
        assert_eq!(cc.count, 3); // {0,1,2}, {3}, {4,5}
        assert!(cc.same(0, 2));
        assert!(!cc.same(2, 3));
        assert!(cc.same(4, 5));
        let comps = cc.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], (0, vec![0, 1, 2]));
        assert_eq!(comps[1], (3, vec![3]));
        assert_eq!(comps[2], (4, vec![4, 5]));
    }

    #[test]
    fn edge_filter_restricts_components() {
        // Path 0-1-2-3 with weights 1, 10, 1. Filtering to weight < 5 splits
        // into {0,1}, {2,3} — the Appendix C node construction.
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 10.0), (2, 3, 1.0)]).unwrap();
        let edges = g.edges().to_vec();
        let mut l = Ledger::new();
        let cc = connected_components_filtered(&exec(), &g, |e| edges[e].2 < 5.0, &mut l);
        assert_eq!(cc.count, 2);
        assert!(cc.same(0, 1));
        assert!(cc.same(2, 3));
        assert!(!cc.same(1, 2));
    }

    #[test]
    fn forest_has_right_size_and_spans() {
        let g = gen::gnm_connected(200, 500, 17, 1.0, 2.0);
        let mut l = Ledger::new();
        let (cc, forest) = spanning_forest(&exec(), &g, |_| true, &mut l);
        assert_eq!(cc.count, 1);
        assert_eq!(forest.len(), 199);
        // Forest edges must connect the graph: run CC over forest edges only.
        let mut forest_set: Vec<usize> = forest.to_vec();
        forest_set.sort_unstable();
        let mut l2 = Ledger::new();
        let cc2 = connected_components_filtered(
            &exec(),
            &g,
            |e| forest_set.binary_search(&e).is_ok(),
            &mut l2,
        );
        assert_eq!(cc2.count, 1);
    }

    #[test]
    fn forest_per_component_size() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0), // triangle: 2 tree edges
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 4, 1.0), // triangle: 2 tree edges
            ],
        )
        .unwrap();
        let mut l = Ledger::new();
        let (cc, forest) = spanning_forest(&exec(), &g, |_| true, &mut l);
        assert_eq!(cc.count, 3); // two triangles + isolated 3
        assert_eq!(forest.len(), 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = gen::gnm(300, 900, 5, 1.0, 3.0);
        let mut l1 = Ledger::new();
        let mut l2 = Ledger::new();
        let (a, fa) = spanning_forest(&exec(), &g, |_| true, &mut l1);
        let (b, fb) = spanning_forest(&exec(), &g, |_| true, &mut l2);
        assert_eq!(a.label, b.label);
        assert_eq!(fa, fb);
        assert_eq!(l1, l2);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Big enough that the compress rounds cross PAR_THRESHOLD and
        // really fan out on the pool.
        let g = gen::gnm(6000, 12_000, 5, 1.0, 3.0);
        let mut l1 = Ledger::new();
        let (base, base_forest) = spanning_forest(&Executor::sequential(), &g, |_| true, &mut l1);
        for threads in [2usize, 4, 8] {
            let mut l = Ledger::new();
            let (got, forest) = spanning_forest(&Executor::new(threads), &g, |_| true, &mut l);
            assert_eq!(got.label, base.label, "threads={threads}");
            assert_eq!(got.rounds, base.rounds);
            assert_eq!(forest, base_forest);
            assert_eq!(l, l1);
        }
    }

    #[test]
    fn orient_forest_parents() {
        let g = Graph::from_edges(5, [(0, 1, 2.0), (1, 2, 3.0), (3, 4, 1.0)]).unwrap();
        let mut l = Ledger::new();
        let (cc, forest) = spanning_forest(&exec(), &g, |_| true, &mut l);
        // Root component {0,1,2} at 2; component {3,4} at 3.
        let (parent, pw) = orient_forest(
            &exec(),
            5,
            &g,
            &forest,
            |label| if label == 0 { 2 } else { 3 },
            &cc.label,
            &mut l,
        );
        assert_eq!(parent[2], 2);
        assert_eq!(parent[1], 2);
        assert_eq!(parent[0], 1);
        assert_eq!(pw[0], 2.0);
        assert_eq!(pw[1], 3.0);
        assert_eq!(parent[3], 3);
        assert_eq!(parent[4], 3);
        assert_eq!(pw[4], 1.0);
    }

    #[test]
    fn label_is_component_minimum() {
        let g = gen::gnm(128, 200, 33, 1.0, 2.0);
        let mut l = Ledger::new();
        let cc = connected_components(&exec(), &g, &mut l);
        // Reference: simple DFS union.
        let mut ref_label: Vec<VId> = (0..128).collect();
        let mut stack = Vec::new();
        let mut seen = [false; 128];
        for s in 0..128u32 {
            if seen[s as usize] {
                continue;
            }
            stack.push(s);
            seen[s as usize] = true;
            while let Some(u) = stack.pop() {
                ref_label[u as usize] = s;
                for (v, _) in g.neighbors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.push(v);
                    }
                }
            }
        }
        assert_eq!(cc.label, ref_label);
    }
}
