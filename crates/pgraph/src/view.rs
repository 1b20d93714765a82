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
//! * [`OverlayCsrBuilder`] — the **incremental** construction-side store: one
//!   CSR block per appended scale, each bucketed exactly once (counting-sort
//!   over a caller-supplied prefix-sum — the oracle's executor in practice),
//!   never re-bucketing earlier scales. Any prefix of blocks is a zero-copy
//!   "base + scales ≤ k" view ([`UnionView::with_stack`]), and
//!   [`OverlayCsrBuilder::union_all`] merges the blocks into the single CSR
//!   a from-scratch [`OverlayCsr::build`] over the whole edge set would
//!   produce — per-vertex merges of already-sorted runs, no global re-sort;
//! * [`UnionView`] / [`UnionGraph`] — borrowed and owned (Arc-backed,
//!   `Send + Sync`) views over a base graph plus one block or a block stack.

use crate::{Graph, VId, Weight};
use std::borrow::Cow;
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
    /// An empty overlay for an `n`-vertex base graph.
    pub fn empty(n: usize) -> Self {
        OverlayCsr {
            off: vec![0; n + 1],
            adj: Vec::new(),
            extra_count: 0,
        }
    }

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

/// Incremental overlay store for the multi-scale construction: one
/// [`OverlayCsr`] block per appended scale, appended in ascending scale
/// order and bucketed exactly once.
///
/// Invariants (what makes the blocks composable):
///
/// * overlay indices are **global and contiguous**: the `i`-th appended
///   block tags its edges `base..base + len` where `base` is the total edge
///   count of all earlier blocks — matching the hopset's global edge ids
///   when scales are appended in push order;
/// * within a block, per-vertex runs are sorted by (neighbor, index) —
///   exactly [`OverlayCsr::build`]'s order;
/// * across blocks, index ranges ascend, so concatenating per-vertex runs
///   block by block keeps same-neighbor entries index-sorted. That is why
///   [`OverlayCsrBuilder::union_all`] only needs a stable per-vertex merge
///   (no global re-sort) to reproduce `OverlayCsr::build` over the union,
///   and why any block prefix is a valid "base + scales ≤ k" overlay
///   ([`UnionView::with_stack`]) without copying anything.
///
/// Retention: [`OverlayCsrBuilder::new`] keeps every block (the prefix-view
/// and [`OverlayCsrBuilder::union_all`] capability);
/// [`OverlayCsrBuilder::rolling`] keeps only the newest — the construction
/// hot path's mode, since a scale-`k` exploration reads exactly `H_{k-1}`
/// and a dense per-block offset array retained per scale would cost
/// `O(scales · n)` memory for nothing.
#[derive(Clone, Debug)]
pub struct OverlayCsrBuilder {
    n: usize,
    base: u32,
    blocks: Vec<OverlayCsr>,
    rolling: bool,
}

impl OverlayCsrBuilder {
    /// An empty builder over an `n`-vertex base graph, retaining every
    /// appended block.
    pub fn new(n: usize) -> Self {
        OverlayCsrBuilder {
            n,
            base: 0,
            blocks: Vec::new(),
            rolling: false,
        }
    }

    /// An empty builder retaining only the most recently appended block
    /// (earlier blocks are dropped on append). Global index assignment is
    /// unchanged; [`OverlayCsrBuilder::blocks`]/`blocks_upto`/`union_all`
    /// see only the retained suffix ([`union_all`](Self::union_all) panics
    /// in this mode — derive the full union from the source columns with
    /// [`OverlayCsr::build_columns`] instead).
    pub fn rolling(n: usize) -> Self {
        OverlayCsrBuilder {
            n,
            base: 0,
            blocks: Vec::new(),
            rolling: true,
        }
    }

    /// Number of vertices of the base graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Total overlay edges appended so far (= the next block's index base).
    #[inline]
    pub fn num_extra(&self) -> usize {
        self.base as usize
    }

    /// Number of appended scale blocks.
    #[inline]
    pub fn num_scales(&self) -> usize {
        self.blocks.len()
    }

    /// Append one scale's edges (structure-of-arrays columns) as a new CSR
    /// block, bucketing **only** these edges — earlier blocks are never
    /// touched. `scan` supplies the exclusive prefix sum over the per-vertex
    /// degree array (the counting-sort offsets); pass
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
        if self.rolling {
            self.blocks.clear();
        }
        self.blocks.push(block);
        self.blocks.last().expect("just pushed")
    }

    /// [`OverlayCsrBuilder::append_scale`] with a sequential prefix sum.
    pub fn append_scale_seq(&mut self, us: &[VId], vs: &[VId], ws: &[Weight]) -> &OverlayCsr {
        self.append_scale(us, vs, ws, seq_exclusive_scan)
    }

    /// All appended blocks, in append (= ascending scale) order.
    #[inline]
    pub fn blocks(&self) -> &[OverlayCsr] {
        &self.blocks
    }

    /// Block `i` (the `i`-th appended scale).
    #[inline]
    pub fn block(&self, i: usize) -> &OverlayCsr {
        &self.blocks[i]
    }

    /// The zero-copy block prefix covering the first `count` appended scales
    /// — "base + scales ≤ k" for [`UnionView::with_stack`].
    #[inline]
    pub fn blocks_upto(&self, count: usize) -> &[OverlayCsr] {
        &self.blocks[..count]
    }

    /// Merge every block into the single [`OverlayCsr`] that
    /// [`OverlayCsr::build`] over the whole (global-index-ordered) edge set
    /// would produce: per-vertex stable merge of already-sorted runs. Cost
    /// is linear in the output plus the per-vertex sorts of same-neighbor
    /// ties — no global re-bucket.
    pub fn union_all(&self) -> OverlayCsr {
        assert!(
            !self.rolling,
            "union_all needs every block; a rolling builder dropped all but the last \
             (build the union from the source columns with OverlayCsr::build_columns)"
        );
        let n = self.n;
        let total: usize = self.blocks.iter().map(|b| b.adj.len()).sum();
        // Degree accumulation and placement stream each block linearly
        // (block-major passes) rather than touching every block per vertex.
        let mut off = vec![0usize; n + 1];
        for b in &self.blocks {
            for v in 0..n {
                off[v + 1] += b.off[v + 1] - b.off[v];
            }
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut cursor = off[..n].to_vec();
        let mut adj: Vec<(VId, Weight, u32)> = vec![(0, 0.0, 0); total];
        for b in &self.blocks {
            for v in 0..n {
                let run = b.run(v as VId);
                adj[cursor[v]..cursor[v] + run.len()].copy_from_slice(run);
                cursor[v] += run.len();
            }
        }
        // Stable by neighbor: per-vertex regions hold the blocks' runs in
        // block order, so same-neighbor entries are already index-ascending
        // (within and across blocks) — sorting yields exactly the
        // (neighbor, index) order of `OverlayCsr::build`.
        for v in 0..n {
            adj[off[v]..off[v + 1]].sort_by_key(|e| e.0);
        }
        OverlayCsr {
            off,
            adj,
            extra_count: self.base as usize,
        }
    }
}

/// The overlay side of a [`UnionView`]: one CSR (owned or borrowed) or a
/// borrowed stack of builder blocks.
enum OverlayPart<'g> {
    One(Cow<'g, OverlayCsr>),
    Stack(&'g [OverlayCsr]),
}

/// A read-only adjacency view over a base [`Graph`] plus an overlay edge set.
pub struct UnionView<'g> {
    base: &'g Graph,
    overlay: OverlayPart<'g>,
    extra_total: usize,
}

impl<'g> UnionView<'g> {
    /// View of the base graph alone (allocates nothing: the overlay is an
    /// empty block stack).
    pub fn base_only(base: &'g Graph) -> Self {
        UnionView {
            overlay: OverlayPart::Stack(&[]),
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
            overlay: OverlayPart::One(Cow::Owned(csr)),
            base,
        }
    }

    /// Like [`UnionView::with_extra`], but straight from structure-of-arrays
    /// columns (no `(u, v, w)` triple list).
    pub fn with_overlay_columns(base: &'g Graph, us: &[VId], vs: &[VId], ws: &[Weight]) -> Self {
        let csr = OverlayCsr::build_columns(base.num_vertices(), us, vs, ws);
        UnionView {
            extra_total: csr.extra_count,
            overlay: OverlayPart::One(Cow::Owned(csr)),
            base,
        }
    }

    /// View over a pre-built overlay CSR (no copying, no sorting).
    pub fn with_csr(base: &'g Graph, csr: &'g OverlayCsr) -> Self {
        debug_assert_eq!(csr.off.len(), base.num_vertices() + 1);
        UnionView {
            base,
            extra_total: csr.extra_count,
            overlay: OverlayPart::One(Cow::Borrowed(csr)),
        }
    }

    /// View over a stack of pre-built blocks (no copying, no sorting):
    /// "base + scales ≤ k" is `with_stack(g, builder.blocks_upto(k))`.
    /// Adjacency order is base edges, then each block's run in stack order
    /// (ascending scale); [`EdgeTag::Extra`] reports each block's stored
    /// (global) indices.
    pub fn with_stack(base: &'g Graph, blocks: &'g [OverlayCsr]) -> Self {
        debug_assert!(blocks
            .iter()
            .all(|b| b.off.len() == base.num_vertices() + 1));
        UnionView {
            base,
            extra_total: blocks.iter().map(|b| b.extra_count).sum(),
            overlay: OverlayPart::Stack(blocks),
        }
    }

    /// The overlay blocks, unified: one slice whatever the storage flavor,
    /// and none at all when the overlay holds no edge, so adjacency scans
    /// skip an empty block's offset column.
    #[inline]
    fn blocks(&self) -> &[OverlayCsr] {
        if self.extra_total == 0 {
            return &[];
        }
        match &self.overlay {
            OverlayPart::One(c) => std::slice::from_ref(c.as_ref()),
            OverlayPart::Stack(s) => s,
        }
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
        self.base.degree(v) + self.blocks().iter().map(|b| b.run(v).len()).sum::<usize>()
    }

    /// Visit every `(neighbor, weight, tag)` of `v`: base edges first
    /// (sorted by neighbor), then overlay edges block by block (each block
    /// sorted by neighbor, then index).
    #[inline]
    pub fn for_each_neighbor(&self, v: VId, mut f: impl FnMut(VId, Weight, EdgeTag)) {
        for (nb, w) in self.base.neighbors(v) {
            f(nb, w, EdgeTag::Base);
        }
        for b in self.blocks() {
            for &(nb, w, idx) in b.run(v) {
                f(nb, w, EdgeTag::Extra(idx));
            }
        }
    }

    /// Iterate neighbors of `v` as an iterator (allocation-free).
    pub fn neighbors(&self, v: VId) -> impl Iterator<Item = (VId, Weight, EdgeTag)> + '_ {
        let base = self.base.neighbors(v).map(|(nb, w)| (nb, w, EdgeTag::Base));
        let extra = self.blocks().iter().flat_map(move |b| {
            b.run(v)
                .iter()
                .map(|&(nb, w, idx)| (nb, w, EdgeTag::Extra(idx)))
        });
        base.chain(extra)
    }

    /// The minimum weight of an edge `(u, v)` in the union, if any.
    pub fn edge_weight(&self, u: VId, v: VId) -> Option<Weight> {
        let base = self.base.edge_weight(u, v);
        let extra = self
            .blocks()
            .iter()
            .flat_map(|b| b.run(u).iter())
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
    /// Own `base` and overlay `extra` on it (builds the overlay CSR once).
    ///
    /// Panics on invalid overlay edges, exactly like
    /// [`UnionView::with_extra`].
    pub fn new(base: Arc<Graph>, extra: &[(VId, VId, Weight)]) -> Self {
        let csr = OverlayCsr::build(base.num_vertices(), extra);
        UnionGraph { base, csr }
    }

    /// Own `base` with a pre-built overlay CSR — e.g. a construction-side
    /// [`OverlayCsrBuilder::union_all`], so nothing is re-bucketed at query
    /// setup. Panics if the CSR was built for a different vertex count.
    pub fn from_csr(base: Arc<Graph>, csr: OverlayCsr) -> Self {
        assert_eq!(
            csr.off.len(),
            base.num_vertices() + 1,
            "overlay CSR built for a different vertex count"
        );
        UnionGraph { base, csr }
    }

    /// Own `base` with an empty overlay.
    pub fn base_only(base: Arc<Graph>) -> Self {
        let csr = OverlayCsr::empty(base.num_vertices());
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

    #[test]
    #[should_panic(expected = "overlay weight must be positive")]
    fn overlay_rejects_bad_weight() {
        let g = path3();
        let _ = UnionView::with_extra(&g, &[(0, 1, -1.0)]);
    }

    #[test]
    fn builder_blocks_carry_global_indices() {
        let g = path3();
        let mut b = OverlayCsrBuilder::new(4);
        b.append_scale_seq(&[0, 1], &[2, 3], &[5.0, 6.0]); // ids 0, 1
        b.append_scale_seq(&[0], &[3], &[7.0]); // id 2
        assert_eq!(b.num_extra(), 3);
        let blk = b.block(b.num_scales() - 1);
        assert_eq!(blk.num_extra(), 1);
        let v = UnionView::with_csr(&g, blk);
        let mut tags = Vec::new();
        v.for_each_neighbor(0, |nb, _, t| tags.push((nb, t)));
        assert_eq!(tags, vec![(1, EdgeTag::Base), (3, EdgeTag::Extra(2))]);
    }

    #[test]
    fn builder_union_matches_from_scratch_build() {
        let g = path3();
        let all = vec![(0u32, 2u32, 5.0), (1, 3, 6.0), (0, 3, 7.0), (0, 2, 8.0)];
        let mut b = OverlayCsrBuilder::new(4);
        b.append_scale_seq(&[0, 1], &[2, 3], &[5.0, 6.0]);
        b.append_scale_seq(&[0, 0], &[3, 2], &[7.0, 8.0]);
        let merged = b.union_all();
        let reference = UnionView::with_extra(&g, &all);
        let view = UnionView::with_csr(&g, &merged);
        assert_eq!(view.num_extra(), 4);
        for v in 0..4 {
            let x: Vec<_> = view.neighbors(v).collect();
            let y: Vec<_> = reference.neighbors(v).collect();
            assert_eq!(x, y, "vertex {v}");
        }
    }

    #[test]
    fn stacked_view_slices_scales_without_copying() {
        let g = path3();
        let mut b = OverlayCsrBuilder::new(4);
        b.append_scale_seq(&[0], &[2], &[5.0]); // "scale 0"
        b.append_scale_seq(&[1], &[3], &[6.0]); // "scale 1"
        b.append_scale_seq(&[0], &[3], &[7.0]); // "scale 2"
                                                // Base + scales ≤ 1 (two blocks), zero-copy.
        let v = UnionView::with_stack(&g, b.blocks_upto(2));
        assert_eq!(v.num_extra(), 2);
        assert_eq!(v.edge_weight(0, 2), Some(5.0));
        assert_eq!(v.edge_weight(1, 3), Some(6.0));
        assert_eq!(v.edge_weight(0, 3), None, "scale 2 not in the prefix");
        // The full stack sees everything, with global tags.
        let full = UnionView::with_stack(&g, b.blocks());
        assert_eq!(full.num_extra(), 3);
        let mut tags = Vec::new();
        full.for_each_neighbor(0, |nb, _, t| tags.push((nb, t)));
        assert_eq!(
            tags,
            vec![
                (1, EdgeTag::Base),
                (2, EdgeTag::Extra(0)),
                (3, EdgeTag::Extra(2))
            ]
        );
        assert_eq!(full.degree(0), 3);
    }

    #[test]
    fn rolling_builder_keeps_only_the_newest_block() {
        let g = path3();
        let mut b = OverlayCsrBuilder::rolling(4);
        b.append_scale_seq(&[0], &[2], &[5.0]); // id 0
        b.append_scale_seq(&[1], &[3], &[6.0]); // id 1
        assert_eq!(b.num_scales(), 1, "earlier blocks dropped");
        assert_eq!(b.num_extra(), 2, "global index assignment unchanged");
        let v = UnionView::with_csr(&g, b.block(0));
        let mut tags = Vec::new();
        v.for_each_neighbor(3, |nb, _, t| tags.push((nb, t)));
        assert_eq!(tags, vec![(2, EdgeTag::Base), (1, EdgeTag::Extra(1))]);
    }

    #[test]
    #[should_panic(expected = "union_all needs every block")]
    fn rolling_builder_refuses_union_all() {
        let mut b = OverlayCsrBuilder::rolling(4);
        b.append_scale_seq(&[0], &[2], &[5.0]);
        b.append_scale_seq(&[1], &[3], &[6.0]);
        let _ = b.union_all();
    }

    #[test]
    fn owned_union_graph_matches_borrowed_view() {
        let g = Arc::new(path3());
        let extra = vec![(0u32, 3u32, 2.5), (1, 3, 9.0)];
        let owned = UnionGraph::new(Arc::clone(&g), &extra);
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
        let mut b = OverlayCsrBuilder::new(4);
        b.append_scale_seq(&[0], &[3], &[2.5]);
        let owned = UnionGraph::from_csr(Arc::clone(&g), b.union_all());
        assert_eq!(owned.num_extra(), 1);
        assert_eq!(owned.view().edge_weight(0, 3), Some(2.5));
    }

    #[test]
    fn union_graph_is_send_sync_and_shareable() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let ug = UnionGraph::base_only(Arc::new(path3()));
        assert_send_sync(&ug);
        let shared = Arc::new(ug);
        let s2 = Arc::clone(&shared);
        let handle = std::thread::spawn(move || s2.view().degree(1));
        assert_eq!(handle.join().unwrap(), 2);
    }
}
