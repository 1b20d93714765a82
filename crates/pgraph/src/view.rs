//! Union adjacency views over `E ∪ H`.
//!
//! Every exploration in the paper runs on the graph `G_{k-1} = (V, E ∪
//! H_{k-1}, ω_{k-1})`, where `H_{k-1}` is the hopset of the previous scale
//! (§2). Rather than materializing a merged CSR for every scale, we overlay
//! the base graph with an *extra* edge set and iterate both. Parallel edges
//! between the two layers are resolved by the paper's rule `ω_k(u,v) =
//! min{ω(u,v), ω_{H_k}(u,v)}` implicitly: explorations simply relax both.
//!
//! The overlay keeps the *index* of each extra edge, so downstream consumers
//! (path-reporting, §4) can attribute a relaxation to a specific hopset edge.
//!
//! Storage comes in three flavors:
//!
//! * [`OverlayCsr`] — one bucketed CSR block over an extra edge set, built
//!   either from an edge list ([`OverlayCsr::build`]) or zero-copy from
//!   structure-of-arrays columns ([`OverlayCsr::build_columns`]);
//! * [`OverlayCsrBuilder`] — the construction-side rolling store: one CSR
//!   block per appended scale, bucketed exactly once (counting-sort over a
//!   caller-supplied prefix-sum — the oracle's executor in practice), with
//!   only the newest block kept, because a scale-`k` exploration reads
//!   exactly `H_{k-1}` (§3.2);
//! * [`UnionView`] / [`UnionGraph`] — borrowed and owned (Arc-backed,
//!   `Send + Sync`) views over a base graph plus at most one block.

use crate::{Graph, VId, Weight};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Identifies which layer an adjacency entry came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeTag {
    /// An edge of the base graph `E`.
    Base,
    /// The `i`-th edge of the overlay (e.g. hopset edge index). Blocks
    /// produced by [`OverlayCsrBuilder::append_scale`] carry the **global**
    /// overlay index (the hopset's edge id), not a block-local one.
    Extra(u32),
}

/// The overlay half of a union view: a CSR over an extra edge set, built
/// once and shareable between [`UnionView`] (borrowed) and [`UnionGraph`]
/// (owned).
#[derive(Clone, Debug, Default)]
pub struct OverlayCsr {
    /// `off[v]..off[v+1]` indexes `adj` for vertex `v`.
    off: Vec<usize>,
    /// (neighbor, weight, overlay edge index)
    adj: Vec<(VId, Weight, u32)>,
    extra_count: usize,
}

/// Sequential exclusive prefix sum (the fallback scan for callers without
/// an executor in scope; `pram::scan::exclusive_prefix_sum` is the parallel
/// one — same values by the determinism contract).
fn seq_exclusive_scan(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0u64;
    for &x in xs {
        out.push(acc);
        acc += x;
    }
    out
}

impl OverlayCsr {
    /// Bucket `extra` (undirected edges `(u, v, w)`) into a CSR over `n`
    /// vertices, with a deterministic per-vertex order (neighbor, then
    /// overlay index).
    ///
    /// Panics if an overlay endpoint is out of range or a weight is not
    /// positive and finite — overlay edges are produced by this workspace's
    /// own algorithms, so a violation is a logic error, not bad input.
    pub fn build(n: usize, extra: &[(VId, VId, Weight)]) -> Self {
        let mut deg = vec![0u64; n];
        for &(u, v, w) in extra {
            validate_overlay_edge(n, u, v, w);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let offsets = seq_exclusive_scan(&deg);
        let mut csr = Self::place(n, &offsets, 2 * extra.len(), extra.len(), |put| {
            for (i, &(u, v, w)) in extra.iter().enumerate() {
                put(u, v, w, i as u32);
            }
        });
        csr.sort_runs();
        csr
    }

    /// [`OverlayCsr::build`] from structure-of-arrays columns (the hopset
    /// store's native layout) — no `(u, v, w)` triple list is materialized.
    pub fn build_columns(n: usize, us: &[VId], vs: &[VId], ws: &[Weight]) -> Self {
        Self::build_block(n, us, vs, ws, 0, seq_exclusive_scan)
    }

    /// One builder block: columns bucketed by a caller-supplied exclusive
    /// prefix sum over the per-vertex degree array (counting-sort), with
    /// overlay indices `base..base + us.len()` — the **global** ids the
    /// block's [`EdgeTag::Extra`] entries report.
    fn build_block(
        n: usize,
        us: &[VId],
        vs: &[VId],
        ws: &[Weight],
        base: u32,
        scan: impl FnOnce(&[u64]) -> Vec<u64>,
    ) -> Self {
        assert_eq!(us.len(), vs.len(), "overlay columns must align");
        assert_eq!(us.len(), ws.len(), "overlay columns must align");
        let m = us.len();
        let mut deg = vec![0u64; n];
        for i in 0..m {
            validate_overlay_edge(n, us[i], vs[i], ws[i]);
            deg[us[i] as usize] += 1;
            deg[vs[i] as usize] += 1;
        }
        let offsets = scan(&deg);
        assert_eq!(offsets.len(), n, "scan must return one offset per vertex");
        let mut csr = Self::place(n, &offsets, 2 * m, m, |put| {
            for i in 0..m {
                put(us[i], vs[i], ws[i], base + i as u32);
            }
        });
        csr.sort_runs();
        csr
    }

    /// Shared placement step: turn exclusive per-vertex offsets into `off`
    /// and scatter both directions of every edge via the `put` callback.
    fn place(
        n: usize,
        offsets: &[u64],
        slots: usize,
        extra_count: usize,
        fill: impl FnOnce(&mut dyn FnMut(VId, VId, Weight, u32)),
    ) -> Self {
        // `offsets` already count adjacency entries (each undirected edge
        // was charged to both endpoints' degrees).
        let mut off: Vec<usize> = Vec::with_capacity(n + 1);
        off.extend(offsets.iter().map(|&x| x as usize));
        off.push(slots);
        let mut cursor = off[..n].to_vec();
        let mut adj = vec![(0 as VId, 0.0, 0u32); slots];
        fill(&mut |u, v, w, idx| {
            adj[cursor[u as usize]] = (v, w, idx);
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = (u, w, idx);
            cursor[v as usize] += 1;
        });
        OverlayCsr {
            off,
            adj,
            extra_count,
        }
    }

    /// Deterministic iteration order within the overlay: (neighbor, index).
    /// Keys are unique (an index appears at most once per vertex run), so an
    /// unstable sort is exact.
    fn sort_runs(&mut self) {
        let n = self.off.len() - 1;
        for v in 0..n {
            self.adj[self.off[v]..self.off[v + 1]].sort_unstable_by_key(|e| (e.0, e.2));
        }
    }

    /// Number of overlay edges in this block.
    #[inline]
    pub fn num_extra(&self) -> usize {
        self.extra_count
    }

    /// The `(neighbor, weight, overlay index)` run of vertex `v`.
    #[inline]
    fn run(&self, v: VId) -> &[(VId, Weight, u32)] {
        &self.adj[self.off[v as usize]..self.off[v as usize + 1]]
    }
}

#[inline]
fn validate_overlay_edge(n: usize, u: VId, v: VId, w: Weight) {
    assert!(
        (u as usize) < n && (v as usize) < n,
        "overlay endpoint out of range"
    );
    assert!(w.is_finite() && w > 0.0, "overlay weight must be positive");
    assert_ne!(u, v, "overlay self loop");
}

/// Rolling overlay store for the multi-scale construction: scales are
/// appended in ascending order, each bucketed exactly once into one
/// [`OverlayCsr`] block, and only the newest block is kept — a scale-`k`
/// exploration reads exactly `H_{k-1}`, and a dense per-block offset array
/// kept per scale would cost `O(scales · n)` memory for nothing.
///
/// Overlay indices are **global and contiguous**: the `i`-th appended
/// block tags its edges `base..base + len`, where `base` is the total edge
/// count of all earlier blocks — the hopset's global edge ids when scales
/// are appended in push order. Within a block, per-vertex runs are sorted
/// by (neighbor, index), exactly [`OverlayCsr::build`]'s order.
#[derive(Clone, Debug)]
pub struct OverlayCsrBuilder {
    n: usize,
    base: u32,
    newest: Option<OverlayCsr>,
}

impl OverlayCsrBuilder {
    /// An empty builder over an `n`-vertex base graph.
    pub fn rolling(n: usize) -> Self {
        OverlayCsrBuilder {
            n,
            base: 0,
            newest: None,
        }
    }

    /// Total overlay edges appended so far (= the next block's index base).
    #[inline]
    pub fn num_extra(&self) -> usize {
        self.base as usize
    }

    /// Append one scale's edges (structure-of-arrays columns) as a new CSR
    /// block, bucketing **only** these edges; the previous block is
    /// dropped. `scan` supplies the exclusive prefix sum over the
    /// per-vertex degree array (the counting-sort offsets); pass
    /// `pram::scan::exclusive_prefix_sum` on the construction's executor to
    /// run it as a parallel round, or [`OverlayCsrBuilder::append_scale_seq`]
    /// when no executor is in scope. Returns the new block; its
    /// [`EdgeTag::Extra`] entries carry global indices
    /// `num_extra()..num_extra() + us.len()` (evaluated before the append).
    pub fn append_scale(
        &mut self,
        us: &[VId],
        vs: &[VId],
        ws: &[Weight],
        scan: impl FnOnce(&[u64]) -> Vec<u64>,
    ) -> &OverlayCsr {
        let block = OverlayCsr::build_block(self.n, us, vs, ws, self.base, scan);
        self.base += us.len() as u32;
        self.newest.insert(block)
    }

    /// [`OverlayCsrBuilder::append_scale`] with a sequential prefix sum.
    pub fn append_scale_seq(&mut self, us: &[VId], vs: &[VId], ws: &[Weight]) -> &OverlayCsr {
        self.append_scale(us, vs, ws, seq_exclusive_scan)
    }
}

/// A read-only adjacency view over a base [`Graph`] plus an overlay edge set.
pub struct UnionView<'g> {
    base: &'g Graph,
    /// `None` for the base graph alone.
    overlay: Option<Cow<'g, OverlayCsr>>,
    extra_total: usize,
}

impl<'g> UnionView<'g> {
    /// View of the base graph alone (allocates nothing: there is no
    /// overlay).
    pub fn base_only(base: &'g Graph) -> Self {
        UnionView {
            overlay: None,
            extra_total: 0,
            base,
        }
    }

    /// Overlay `extra` (undirected edges `(u, v, w)`) on `base`.
    ///
    /// Panics if an overlay endpoint is out of range or a weight is not
    /// positive and finite — overlay edges are produced by this workspace's
    /// own algorithms, so a violation is a logic error, not bad input.
    ///
    /// This builds (buckets + sorts) the overlay CSR; callers issuing many
    /// queries over the same `G ∪ H` should build a [`UnionGraph`] once and
    /// reuse its [`UnionGraph::view`] instead.
    pub fn with_extra(base: &'g Graph, extra: &[(VId, VId, Weight)]) -> Self {
        let csr = OverlayCsr::build(base.num_vertices(), extra);
        UnionView {
            extra_total: csr.extra_count,
            overlay: Some(Cow::Owned(csr)),
            base,
        }
    }

    /// Like [`UnionView::with_extra`], but straight from structure-of-arrays
    /// columns (no `(u, v, w)` triple list).
    pub fn with_overlay_columns(base: &'g Graph, us: &[VId], vs: &[VId], ws: &[Weight]) -> Self {
        let csr = OverlayCsr::build_columns(base.num_vertices(), us, vs, ws);
        UnionView {
            extra_total: csr.extra_count,
            overlay: Some(Cow::Owned(csr)),
            base,
        }
    }

    /// View over a pre-built overlay CSR (no copying, no sorting).
    pub fn with_csr(base: &'g Graph, csr: &'g OverlayCsr) -> Self {
        debug_assert_eq!(csr.off.len(), base.num_vertices() + 1);
        UnionView {
            base,
            extra_total: csr.extra_count,
            overlay: Some(Cow::Borrowed(csr)),
        }
    }

    /// The overlay block, or `None` when the overlay holds no edge, so
    /// adjacency scans skip an empty block's offset column.
    #[inline]
    fn overlay(&self) -> Option<&OverlayCsr> {
        if self.extra_total == 0 {
            return None;
        }
        self.overlay.as_deref()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of undirected edges in the union (base + overlay; parallel
    /// edges between the layers are counted twice, matching the PRAM
    /// processor-allocation accounting of §1.5.1).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.extra_total
    }

    /// Number of overlay edges.
    #[inline]
    pub fn num_extra(&self) -> usize {
        self.extra_total
    }

    /// The base graph.
    #[inline]
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// Total degree of `v` in the union.
    #[inline]
    pub fn degree(&self, v: VId) -> usize {
        self.base.degree(v) + self.overlay().map_or(0, |o| o.run(v).len())
    }

    /// Visit every `(neighbor, weight, tag)` of `v`: base edges first
    /// (sorted by neighbor), then overlay edges (sorted by neighbor, then
    /// index).
    #[inline]
    pub fn for_each_neighbor(&self, v: VId, mut f: impl FnMut(VId, Weight, EdgeTag)) {
        for (nb, w) in self.base.neighbors(v) {
            f(nb, w, EdgeTag::Base);
        }
        if let Some(o) = self.overlay() {
            for &(nb, w, idx) in o.run(v) {
                f(nb, w, EdgeTag::Extra(idx));
            }
        }
    }

    /// Visit every adjacency slot of the rows `vs` as `(owner, neighbor,
    /// weight, tag)`: the base slots of rows `vs` in CSR order, then their
    /// overlay slots in CSR order. Each row's slots come in
    /// [`UnionView::for_each_neighbor`]'s order, and an empty row
    /// contributes nothing. The base loop zips the graph's owner column
    /// with its neighbor and weight columns, so it has no per-vertex
    /// structure: this is the stream a dense exploration round folds, one
    /// offer per slot, into the slot's owner. The overlay slots stream
    /// row by row (DESIGN.md §8 says why the block keeps no owner column).
    ///
    /// The base graph's owner column is derived from its offsets and built
    /// on the first call (4 B per slot; DESIGN.md §8). Panics if `vs`
    /// reaches past the last vertex.
    #[inline]
    pub fn for_each_slot(&self, vs: Range<usize>, mut f: impl FnMut(VId, VId, Weight, EdgeTag)) {
        let (src, neigh, wt) = self.base.slots(vs.clone());
        for ((&v, &u), &w) in src.iter().zip(neigh).zip(wt) {
            f(v, u, w, EdgeTag::Base);
        }
        if let Some(o) = self.overlay() {
            for v in vs {
                for &(u, w, idx) in o.run(v as VId) {
                    f(v as VId, u, w, EdgeTag::Extra(idx));
                }
            }
        }
    }

    /// Iterate neighbors of `v` as an iterator (allocation-free).
    pub fn neighbors(&self, v: VId) -> impl Iterator<Item = (VId, Weight, EdgeTag)> + '_ {
        let base = self.base.neighbors(v).map(|(nb, w)| (nb, w, EdgeTag::Base));
        let extra = self.overlay().into_iter().flat_map(move |o| {
            o.run(v)
                .iter()
                .map(|&(nb, w, idx)| (nb, w, EdgeTag::Extra(idx)))
        });
        base.chain(extra)
    }

    /// The minimum weight of an edge `(u, v)` in the union, if any.
    pub fn edge_weight(&self, u: VId, v: VId) -> Option<Weight> {
        let base = self.base.edge_weight(u, v);
        let extra = self
            .overlay()
            .into_iter()
            .flat_map(|o| o.run(u).iter())
            .filter(|e| e.0 == v)
            .map(|e| e.1)
            .min_by(crate::wcmp);
        match (base, extra) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// An **owned** union graph `G ∪ H`: the base graph behind an `Arc` plus a
/// pre-built overlay CSR.
///
/// This is the storage a long-lived query engine wants: no graph lifetime
/// parameter, `Send + Sync` (everything inside is plain owned data), and
/// [`UnionGraph::view`] is free — the expensive bucketing/sorting of
/// [`UnionView::with_extra`] happens exactly once, at construction.
#[derive(Clone, Debug)]
pub struct UnionGraph {
    base: Arc<Graph>,
    csr: OverlayCsr,
}

impl UnionGraph {
    /// Own `base` with a pre-built overlay CSR (e.g.
    /// [`OverlayCsr::build_columns`] over the hopset's columns). Panics if
    /// the CSR was built for a different vertex count.
    pub fn from_csr(base: Arc<Graph>, csr: OverlayCsr) -> Self {
        assert_eq!(
            csr.off.len(),
            base.num_vertices() + 1,
            "overlay CSR built for a different vertex count"
        );
        UnionGraph { base, csr }
    }

    /// A borrowed [`UnionView`] over the owned data — O(1), no allocation.
    #[inline]
    pub fn view(&self) -> UnionView<'_> {
        UnionView::with_csr(&self.base, &self.csr)
    }

    /// The base graph.
    #[inline]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// The base graph's `Arc` (cheap to clone, shareable across threads).
    #[inline]
    pub fn base_arc(&self) -> &Arc<Graph> {
        &self.base
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of overlay edges.
    #[inline]
    pub fn num_extra(&self) -> usize {
        self.csr.extra_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path3() -> Graph {
        Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap()
    }

    #[test]
    fn base_only_mirrors_graph() {
        let g = path3();
        let v = UnionView::base_only(&g);
        assert_eq!(v.num_edges(), 3);
        assert_eq!(v.degree(1), 2);
        let mut seen = Vec::new();
        v.for_each_neighbor(1, |nb, w, t| seen.push((nb, w, t)));
        assert_eq!(seen, vec![(0, 1.0, EdgeTag::Base), (2, 1.0, EdgeTag::Base)]);
    }

    #[test]
    fn overlay_edges_visible_and_tagged() {
        let g = path3();
        let extra = vec![(0, 3, 2.5), (1, 3, 9.0)];
        let v = UnionView::with_extra(&g, &extra);
        assert_eq!(v.num_edges(), 5);
        assert_eq!(v.num_extra(), 2);
        assert_eq!(v.degree(3), 3);
        let mut tags = Vec::new();
        v.for_each_neighbor(3, |nb, _, t| tags.push((nb, t)));
        assert_eq!(
            tags,
            vec![
                (2, EdgeTag::Base),
                (0, EdgeTag::Extra(0)),
                (1, EdgeTag::Extra(1))
            ]
        );
        assert_eq!(v.edge_weight(0, 3), Some(2.5));
    }

    #[test]
    fn columns_match_edge_list_build() {
        let g = path3();
        let extra = vec![(0u32, 3u32, 2.5), (1, 3, 9.0), (0, 2, 4.0)];
        let us: Vec<VId> = extra.iter().map(|e| e.0).collect();
        let vs: Vec<VId> = extra.iter().map(|e| e.1).collect();
        let ws: Vec<Weight> = extra.iter().map(|e| e.2).collect();
        let a = UnionView::with_extra(&g, &extra);
        let b = UnionView::with_overlay_columns(&g, &us, &vs, &ws);
        for v in 0..4 {
            let x: Vec<_> = a.neighbors(v).collect();
            let y: Vec<_> = b.neighbors(v).collect();
            assert_eq!(x, y, "vertex {v}");
        }
    }

    #[test]
    fn union_edge_weight_takes_min_across_layers() {
        let g = path3();
        // overlay a *heavier* parallel edge: base must win
        let v = UnionView::with_extra(&g, &[(0, 1, 10.0)]);
        assert_eq!(v.edge_weight(0, 1), Some(1.0));
        // overlay a lighter parallel edge: overlay must win
        let v2 = UnionView::with_extra(&g, &[(0, 1, 0.5)]);
        assert_eq!(v2.edge_weight(0, 1), Some(0.5));
    }

    #[test]
    fn neighbors_iterator_matches_for_each() {
        let g = path3();
        let extra = vec![(1, 3, 4.0)];
        let v = UnionView::with_extra(&g, &extra);
        for u in 0..4 {
            let mut a = Vec::new();
            v.for_each_neighbor(u, |nb, w, t| a.push((nb, w, t)));
            let b: Vec<_> = v.neighbors(u).collect();
            assert_eq!(a, b);
        }
    }

    /// The slot stream against the neighbor runs, over empty rows: the
    /// base graph has isolated vertices at the first, a middle and the
    /// last id, and most overlay runs are empty (row 5's base run is empty
    /// but its overlay run is not). Every range, including those that
    /// start or end on an empty row, streams the base slots of its rows
    /// and then their overlay slots, with each slot's owner.
    #[test]
    fn slot_stream_matches_neighbor_runs_over_empty_rows() {
        let n = 10;
        let g = Graph::from_edges(
            n,
            [
                (1, 2, 1.0),
                (2, 3, 2.0),
                (1, 4, 3.0),
                (3, 4, 1.5),
                (4, 6, 2.5),
                (6, 7, 2.0),
                (7, 8, 1.0),
            ],
        )
        .unwrap();
        assert!([0, 5, 9].iter().all(|&v| g.degree(v) == 0));
        let extra = [(2, 7, 4.0), (3, 7, 5.0), (5, 8, 6.0)];
        let views = [
            UnionView::base_only(&g),
            UnionView::with_extra(&g, &[]),
            UnionView::with_extra(&g, &extra),
        ];
        for view in &views {
            for a in 0..=n {
                for b in a..=n {
                    let mut base = Vec::new();
                    let mut over = Vec::new();
                    for v in a as VId..b as VId {
                        view.for_each_neighbor(v, |u, w, tag| match tag {
                            EdgeTag::Base => base.push((v, u, w, tag)),
                            EdgeTag::Extra(_) => over.push((v, u, w, tag)),
                        });
                    }
                    base.extend(over);
                    let mut got = Vec::new();
                    view.for_each_slot(a..b, |v, u, w, tag| got.push((v, u, w, tag)));
                    assert_eq!(got, base, "rows {a}..{b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlay weight must be positive")]
    fn overlay_rejects_bad_weight() {
        let g = path3();
        let _ = UnionView::with_extra(&g, &[(0, 1, -1.0)]);
    }

    #[test]
    fn builder_blocks_carry_global_indices() {
        let g = path3();
        let mut b = OverlayCsrBuilder::rolling(4);
        b.append_scale_seq(&[0, 1], &[2, 3], &[5.0, 6.0]); // ids 0, 1
        let blk = b.append_scale_seq(&[0], &[3], &[7.0]); // id 2
        assert_eq!(blk.num_extra(), 1);
        let v = UnionView::with_csr(&g, blk);
        let mut tags = Vec::new();
        v.for_each_neighbor(0, |nb, _, t| tags.push((nb, t)));
        assert_eq!(tags, vec![(1, EdgeTag::Base), (3, EdgeTag::Extra(2))]);
        assert_eq!(b.num_extra(), 3);
    }

    #[test]
    fn rolling_builder_keeps_only_the_newest_block() {
        let g = path3();
        let mut b = OverlayCsrBuilder::rolling(4);
        b.append_scale_seq(&[0], &[2], &[5.0]); // id 0
        let blk = b.append_scale_seq(&[1], &[3], &[6.0]); // id 1
        let v = UnionView::with_csr(&g, blk);
        assert_eq!(
            v.num_extra(),
            1,
            "the first scale's edge is not in the block"
        );
        assert_eq!(v.edge_weight(0, 2), None);
        let mut tags = Vec::new();
        v.for_each_neighbor(3, |nb, _, t| tags.push((nb, t)));
        assert_eq!(tags, vec![(2, EdgeTag::Base), (1, EdgeTag::Extra(1))]);
        assert_eq!(b.num_extra(), 2, "global index assignment unchanged");
    }

    #[test]
    fn owned_union_graph_matches_borrowed_view() {
        let g = Arc::new(path3());
        let extra = vec![(0u32, 3u32, 2.5), (1, 3, 9.0)];
        let owned = UnionGraph::from_csr(Arc::clone(&g), OverlayCsr::build(4, &extra));
        let borrowed = UnionView::with_extra(&g, &extra);
        assert_eq!(owned.num_extra(), 2);
        for v in 0..4 {
            let a: Vec<_> = owned.view().neighbors(v).collect();
            let b: Vec<_> = borrowed.neighbors(v).collect();
            assert_eq!(a, b, "vertex {v}");
        }
        assert_eq!(owned.view().edge_weight(0, 3), Some(2.5));
    }

    #[test]
    fn union_graph_from_prebuilt_csr() {
        let g = Arc::new(path3());
        let csr = OverlayCsr::build_columns(4, &[0], &[3], &[2.5]);
        let owned = UnionGraph::from_csr(Arc::clone(&g), csr);
        assert_eq!(owned.num_extra(), 1);
        assert_eq!(owned.view().edge_weight(0, 3), Some(2.5));
    }

    #[test]
    fn union_graph_is_send_sync_and_shareable() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let ug = UnionGraph::from_csr(Arc::new(path3()), OverlayCsr::build(4, &[]));
        assert_send_sync(&ug);
        let shared = Arc::new(ug);
        let s2 = Arc::clone(&shared);
        let handle = std::thread::spawn(move || s2.view().degree(1));
        assert_eq!(handle.join().unwrap(), 2);
    }
}
