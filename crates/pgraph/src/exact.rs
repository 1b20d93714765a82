//! Exact reference algorithms: Dijkstra, hop-limited Bellman–Ford, BFS.
//!
//! These are the sequential ground-truth oracles used to *measure* the
//! stretch of hopset-based approximate distances, and the sequential-work
//! baseline (Dijkstra) of experiment E10. They intentionally live apart from
//! the PRAM-instrumented parallel algorithms in the `pram` crate.

use crate::{Graph, UnionView, VId, Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source exact computation.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// `dist[v]` = exact distance from the source (INF if unreachable).
    pub dist: Vec<Weight>,
    /// `parent[v]` = predecessor on a shortest path (`None` for the source
    /// and unreachable vertices).
    pub parent: Vec<Option<VId>>,
}

impl SsspResult {
    /// Reconstruct the shortest path to `v` (source first). `None` if `v`
    /// is unreachable.
    pub fn path_to(&self, v: VId) -> Option<Vec<VId>> {
        if self.dist[v as usize] == INF {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur as usize] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Binary-heap Dijkstra on the base graph.
pub fn dijkstra(g: &Graph, src: VId) -> SsspResult {
    dijkstra_view(&UnionView::base_only(g), src)
}

/// Binary-heap Dijkstra over a [`UnionView`] (i.e. on `G ∪ H`): the exact
/// oracle for "could the hopset ever shorten a distance" checks
/// (Lemmas 2.3/2.9 state it cannot).
pub fn dijkstra_view(view: &UnionView<'_>, src: VId) -> SsspResult {
    let n = view.num_vertices();
    let mut dist = vec![INF; n];
    let mut parent = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, VId)>> = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((dk, u))) = heap.pop() {
        let du = key_to_f64(dk);
        if du > dist[u as usize] {
            continue;
        }
        view.for_each_neighbor(u, |v, w, _| {
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                parent[v as usize] = Some(u);
                heap.push(Reverse((f64_to_key(nd), v)));
            }
        });
    }
    SsspResult { dist, parent }
}

/// Point-to-point Dijkstra with pop-`target` early termination: when the
/// heap pops `target`, its label is final (the classical settled-vertex
/// invariant under positive weights), so the search stops there instead of
/// draining the heap. Labels are only ever overwritten by strict
/// improvements, so the answer is **bit-identical** to
/// `dijkstra(g, src).dist[target]` — including `INF` for unreachable
/// targets (the heap drains without popping `target`).
pub fn dijkstra_to(g: &Graph, src: VId, target: VId) -> Weight {
    let view = UnionView::base_only(g);
    let n = view.num_vertices();
    let mut dist = vec![INF; n];
    let mut heap: BinaryHeap<Reverse<(u64, VId)>> = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((dk, u))) = heap.pop() {
        let du = key_to_f64(dk);
        if du > dist[u as usize] {
            continue;
        }
        if u == target {
            return du;
        }
        view.for_each_neighbor(u, |v, w, _| {
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((f64_to_key(nd), v)));
            }
        });
    }
    dist[target as usize]
}

/// Order-preserving mapping from non-negative finite `f64` to `u64`, so the
/// binary heap can order keys without float wrappers.
#[inline]
fn f64_to_key(x: f64) -> u64 {
    debug_assert!(x >= 0.0);
    x.to_bits()
}

#[inline]
fn key_to_f64(k: u64) -> f64 {
    f64::from_bits(k)
}

/// Sequential hop-limited Bellman–Ford over a view: returns
/// `d^{(hops)}(src, ·)`, the minimum length of a path using at most `hops`
/// edges — the central quantity of the paper (the "β-bounded distance" of
/// eq. (1)).
pub fn bellman_ford_hops(view: &UnionView<'_>, sources: &[VId], hops: usize) -> Vec<Weight> {
    let n = view.num_vertices();
    let mut dist = vec![INF; n];
    for &s in sources {
        dist[s as usize] = 0.0;
    }
    let mut next = dist.clone();
    for _ in 0..hops {
        let mut changed = false;
        for u in 0..n as VId {
            let du = dist[u as usize];
            if du == INF {
                continue;
            }
            view.for_each_neighbor(u, |v, w, _| {
                let nd = du + w;
                if nd < next[v as usize] {
                    next[v as usize] = nd;
                    changed = true;
                }
            });
        }
        dist.copy_from_slice(&next);
        if !changed {
            break;
        }
    }
    dist
}

/// Unweighted BFS distances (number of hops) from `src` on the base graph.
pub fn bfs_hops(g: &Graph, src: VId) -> Vec<usize> {
    let n = g.num_vertices();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u) {
            if dist[v as usize] == usize::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn weighted_square() -> Graph {
        // 0-1 (1), 1-2 (1), 2-3 (1), 0-3 (10): shortest 0→3 is 3 hops, len 3.
        Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)]).unwrap()
    }

    #[test]
    fn dijkstra_simple() {
        let g = weighted_square();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(r.path_to(3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn dijkstra_unreachable() {
        let g = Graph::from_edges(3, [(0, 1, 1.0)]).unwrap();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], INF);
        assert_eq!(r.path_to(2), None);
    }

    #[test]
    fn dijkstra_on_union_view_uses_overlay() {
        let g = weighted_square();
        let extra = vec![(0, 3, 2.0)];
        let view = UnionView::with_extra(&g, &extra);
        let r = dijkstra_view(&view, 0);
        assert_eq!(r.dist[3], 2.0);
    }

    #[test]
    fn dijkstra_to_matches_full_run_bit_for_bit() {
        let g = gen::gnm(64, 192, 42, 1.0, 8.0);
        let full = dijkstra(&g, 5).dist;
        for target in [0u32, 5, 31, 63] {
            let d = dijkstra_to(&g, 5, target);
            assert_eq!(d.to_bits(), full[target as usize].to_bits(), "t={target}");
        }
        // Unreachable target reports INF like the full run.
        let g2 = Graph::from_edges(3, [(0, 1, 1.0)]).unwrap();
        assert_eq!(dijkstra_to(&g2, 0, 2), INF);
        // Source-as-target is 0.0 without any relaxation.
        assert_eq!(dijkstra_to(&g2, 0, 0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn bellman_ford_hop_limits() {
        let g = weighted_square();
        let view = UnionView::base_only(&g);
        // With 1 hop, 0→3 can only use the direct heavy edge.
        let d1 = bellman_ford_hops(&view, &[0], 1);
        assert_eq!(d1[3], 10.0);
        // With 3 hops the light path is available.
        let d3 = bellman_ford_hops(&view, &[0], 3);
        assert_eq!(d3[3], 3.0);
        // Multi-source.
        let dm = bellman_ford_hops(&view, &[0, 3], 1);
        assert_eq!(dm[2], 1.0);
        assert_eq!(dm[1], 1.0);
    }

    #[test]
    fn bellman_ford_converges_to_dijkstra() {
        let g = gen::gnm(64, 192, 42, 1.0, 8.0);
        let view = UnionView::base_only(&g);
        let bf = bellman_ford_hops(&view, &[0], 64);
        let dj = dijkstra(&g, 0);
        #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
        for v in 0..64 {
            assert!(
                (bf[v] - dj.dist[v]).abs() < 1e-9 || (bf[v] == INF && dj.dist[v] == INF),
                "v={v}: bf={} dj={}",
                bf[v],
                dj.dist[v]
            );
        }
    }

    #[test]
    fn bfs_and_hop_counts() {
        let g = weighted_square();
        assert_eq!(bfs_hops(&g, 0), vec![0, 1, 2, 1]);
    }
}
