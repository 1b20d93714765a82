//! The hopset edge store, with per-edge provenance and optional memory paths.
//!
//! Layout: a **scale-indexed structure of arrays**. Edge fields live in
//! flat parallel columns (`u`, `v`, `w`, `scale`, `kind`, `path`), and
//! edges are pushed in non-decreasing scale order (asserted), so the edges
//! of each scale occupy one contiguous index range recorded in a sparse
//! `scale_starts` offset table. The consequences, which the construction
//! hot path relies on (DESIGN.md §8):
//!
//! * [`Hopset::scale_slice`] / [`Hopset::all_slice`] are **zero-copy**
//!   column slices ([`ScaleSlice`]) — no per-scale `O(|H|)` scan, no
//!   filtered copies;
//! * the global edge ids of scale `k` are exactly
//!   `slice.start()..slice.start() + slice.len()`, so overlay CSR blocks
//!   built from a slice tag adjacency entries with the true hopset edge id
//!   (no side-table from overlay index to edge id);
//! * [`Hopset::size_by_scale`] and the peeling scale list
//!   ([`Hopset::scales_present`]) are offset arithmetic over
//!   `scale_starts`; [`Hopset::kind_counts`] is a running tally.
//!
//! The AoS record type [`HopsetEdge`] remains the unit of [`Hopset::push`]
//! and [`Hopset::edge`] — a `Copy` value assembled from (or scattered into)
//! the columns at the boundary.

use crate::path::MemoryPath;
use pgraph::{VId, Weight};

/// Why an edge was inserted (§2.1: superclustering vs interconnection;
/// Appendix C adds star edges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Superclustering edge from a cluster center to its supercluster's
    /// center, added in the given phase (§2.1.1).
    Supercluster {
        /// Phase `i ∈ [0, ℓ−1]` that created the edge.
        phase: u8,
    },
    /// Interconnection edge between centers of neighboring `U_i` clusters
    /// (§2.1.2).
    Interconnect {
        /// Phase `i ∈ [0, ℓ]` that created the edge.
        phase: u8,
    },
    /// Star edge from a node center to a node member (Appendix C.3).
    Star,
}

/// One hopset edge, as a value (the push/read record of the columnar
/// [`Hopset`]).
#[derive(Clone, Copy, Debug)]
pub struct HopsetEdge {
    /// One endpoint.
    pub u: VId,
    /// Other endpoint.
    pub v: VId,
    /// Weight `ω_H(u, v)` — never shorter than `d_G(u, v)` (Lemmas 2.3/2.9;
    /// validated in tests).
    pub w: Weight,
    /// The scale `k` whose single-scale hopset `H_k` contains this edge.
    pub scale: u32,
    /// Provenance.
    pub kind: EdgeKind,
    /// Index into [`Hopset::paths`] when built path-reporting (§4).
    pub path: Option<u32>,
}

/// Column sentinel for "no memory path recorded" (see [`Hopset::NO_PATH`]).
const NO_PATH: u32 = u32::MAX;

/// A zero-copy view of one contiguous scale range of a [`Hopset`]: borrowed
/// column slices plus the global id of the first edge. This is what the
/// per-scale overlay of the construction consumes — `iter()` for edge
/// triples, `us()`/`vs()`/`ws()` for direct column access (e.g.
/// [`pgraph::OverlayCsrBuilder::append_scale`]), `start()` to translate a
/// slice-local index back to a global edge id.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSlice<'a> {
    us: &'a [VId],
    vs: &'a [VId],
    ws: &'a [Weight],
    start: u32,
}

impl<'a> ScaleSlice<'a> {
    /// Number of edges in the slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// True if the slice covers no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// Global edge id of the slice's first edge (the ids are
    /// `start()..start() + len()`); for an empty slice, the id the scale's
    /// first edge would have.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Global edge id of slice-local edge `i`.
    #[inline]
    pub fn global_id(&self, i: usize) -> u32 {
        debug_assert!(i < self.len());
        self.start + i as u32
    }

    /// The `u` endpoint column.
    #[inline]
    pub fn us(&self) -> &'a [VId] {
        self.us
    }

    /// The `v` endpoint column.
    #[inline]
    pub fn vs(&self) -> &'a [VId] {
        self.vs
    }

    /// The weight column.
    #[inline]
    pub fn ws(&self) -> &'a [Weight] {
        self.ws
    }

    /// Iterate the slice's `(u, v, w)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (VId, VId, Weight)> + 'a {
        let (us, vs, ws) = (self.us, self.vs, self.ws);
        (0..us.len()).map(move |i| (us[i], vs[i], ws[i]))
    }
}

/// The accumulated hopset `H = ⋃_k H_k` in scale-indexed SoA layout (see
/// the module docs for the layout contract).
#[derive(Clone, Debug, Default)]
pub struct Hopset {
    us: Vec<VId>,
    vs: Vec<VId>,
    ws: Vec<Weight>,
    scales: Vec<u32>,
    kinds: Vec<EdgeKind>,
    /// Path arena index per edge, [`NO_PATH`] when absent.
    path_ids: Vec<u32>,
    /// `(scale, first edge index)` per distinct scale, both strictly
    /// ascending — the offset table behind every per-scale query.
    scale_starts: Vec<(u32, u32)>,
    /// Running (supercluster, interconnect, star) tally.
    kind_tally: [usize; 3],
    /// Memory-path arena (§4.1's arrays `A(u, v)`).
    pub paths: Vec<MemoryPath>,
}

impl Hopset {
    /// The `path_ids` column sentinel for "no memory path recorded" —
    /// public so the snapshot layer can stream the column verbatim.
    pub const NO_PATH: u32 = NO_PATH;

    /// Empty hopset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// True if no edges.
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// The `u` endpoint column.
    #[inline]
    pub fn us(&self) -> &[VId] {
        &self.us
    }

    /// The `v` endpoint column.
    #[inline]
    pub fn vs(&self) -> &[VId] {
        &self.vs
    }

    /// The weight column.
    #[inline]
    pub fn ws(&self) -> &[Weight] {
        &self.ws
    }

    /// The scale column (non-decreasing by the push contract).
    #[inline]
    pub fn scales(&self) -> &[u32] {
        &self.scales
    }

    /// The kind column.
    #[inline]
    pub fn kinds(&self) -> &[EdgeKind] {
        &self.kinds
    }

    /// The raw path-id column ([`Hopset::NO_PATH`] = none) — the snapshot
    /// layer streams this verbatim; use [`Hopset::path_id`] for typed access.
    #[inline]
    pub fn path_ids(&self) -> &[u32] {
        &self.path_ids
    }

    /// The sparse `(scale, first edge index)` offset table, both columns
    /// strictly ascending.
    #[inline]
    pub fn scale_starts(&self) -> &[(u32, u32)] {
        &self.scale_starts
    }

    /// Edge `i`, assembled from the columns.
    #[inline]
    pub fn edge(&self, i: u32) -> HopsetEdge {
        let i = i as usize;
        HopsetEdge {
            u: self.us[i],
            v: self.vs[i],
            w: self.ws[i],
            scale: self.scales[i],
            kind: self.kinds[i],
            path: self.path_id(i as u32),
        }
    }

    /// The scale of edge `i` (a column read — the peeling inner loop's
    /// query).
    #[inline]
    pub fn scale_of(&self, i: u32) -> u32 {
        self.scales[i as usize]
    }

    /// The path arena index of edge `i`, if recorded.
    #[inline]
    pub fn path_id(&self, i: u32) -> Option<u32> {
        match self.path_ids[i as usize] {
            NO_PATH => None,
            p => Some(p),
        }
    }

    /// Iterate all edges as values, in global id order.
    pub fn iter(&self) -> impl Iterator<Item = HopsetEdge> + '_ {
        (0..self.len() as u32).map(|i| self.edge(i))
    }

    /// Zero-copy slice covering every edge (global ids `0..len`).
    pub fn all_slice(&self) -> ScaleSlice<'_> {
        ScaleSlice {
            us: &self.us,
            vs: &self.vs,
            ws: &self.ws,
            start: 0,
        }
    }

    /// Zero-copy slice of scale `k`'s edges: a binary search in the
    /// `scale_starts` offset table plus column slicing — no edge scan. For
    /// a scale with no edges the slice is empty and `start()` reports the
    /// id its first edge would have (the insertion point), so cumulative
    /// consumers (e.g. an overlay builder appending scales in order) stay
    /// aligned with the global ids.
    pub fn scale_slice(&self, k: u32) -> ScaleSlice<'_> {
        let idx = self.scale_starts.partition_point(|&(s, _)| s < k);
        let (lo, hi) = match self.scale_starts.get(idx) {
            Some(&(s, st)) if s == k => {
                let end = self
                    .scale_starts
                    .get(idx + 1)
                    .map_or(self.len() as u32, |&(_, st2)| st2);
                (st, end)
            }
            Some(&(_, st)) => (st, st),
            None => (self.len() as u32, self.len() as u32),
        };
        ScaleSlice {
            us: &self.us[lo as usize..hi as usize],
            vs: &self.vs[lo as usize..hi as usize],
            ws: &self.ws[lo as usize..hi as usize],
            start: lo,
        }
    }

    /// The distinct scales present, ascending — offset-table arithmetic
    /// (peeling iterates this reversed).
    pub fn scales_present(&self) -> impl Iterator<Item = u32> + '_ {
        self.scale_starts.iter().map(|&(s, _)| s)
    }

    /// Number of edges per scale, ascending by scale — consecutive-offset
    /// differences, no edge scan.
    pub fn size_by_scale(&self) -> Vec<(u32, usize)> {
        let mut out = Vec::with_capacity(self.scale_starts.len());
        for (i, &(s, st)) in self.scale_starts.iter().enumerate() {
            let end = self
                .scale_starts
                .get(i + 1)
                .map_or(self.len() as u32, |&(_, st2)| st2);
            out.push((s, (end - st) as usize));
        }
        out
    }

    /// Count edges by kind: (supercluster, interconnect, star) — a running
    /// tally maintained by [`Hopset::push`].
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        (self.kind_tally[0], self.kind_tally[1], self.kind_tally[2])
    }

    /// True when every edge carries a memory path (the path-reporting SPT
    /// precondition).
    pub fn all_paths_recorded(&self) -> bool {
        self.path_ids.iter().all(|&p| p != NO_PATH)
    }

    /// Append an edge, returning its global index.
    ///
    /// Panics if `e.scale` is smaller than the last pushed scale: the
    /// scale-contiguity invariant (edges of a scale form one index range)
    /// is what makes every per-scale query offset arithmetic, and every
    /// construction in this workspace naturally pushes scales in ascending
    /// order.
    pub fn push(&mut self, e: HopsetEdge) -> u32 {
        let id = self.us.len() as u32;
        match self.scale_starts.last() {
            Some(&(s, _)) if e.scale < s => {
                panic!("hopset edges must be pushed in non-decreasing scale order (scale {} after {s})", e.scale)
            }
            Some(&(s, _)) if e.scale == s => {}
            _ => self.scale_starts.push((e.scale, id)),
        }
        self.us.push(e.u);
        self.vs.push(e.v);
        self.ws.push(e.w);
        self.scales.push(e.scale);
        self.kinds.push(e.kind);
        self.path_ids.push(e.path.unwrap_or(NO_PATH));
        self.kind_tally[match e.kind {
            EdgeKind::Supercluster { .. } => 0,
            EdgeKind::Interconnect { .. } => 1,
            EdgeKind::Star => 2,
        }] += 1;
        id
    }

    /// Register a memory path, returning its arena index.
    pub fn push_path(&mut self, p: MemoryPath) -> u32 {
        let id = self.paths.len() as u32;
        self.paths.push(p);
        id
    }

    /// The memory path of edge `edge_idx`, if recorded.
    pub fn path_of(&self, edge_idx: u32) -> Option<&MemoryPath> {
        self.path_id(edge_idx).map(|p| &self.paths[p as usize])
    }

    /// Assemble a hopset directly from validated columns. Callers (the
    /// snapshot loader) must have checked every layout invariant — column
    /// lengths equal, scales non-decreasing, `scale_starts` matching the
    /// scale column, tally matching the kind column, path ids in range.
    /// Debug assertions spot-check shape only.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        us: Vec<VId>,
        vs: Vec<VId>,
        ws: Vec<Weight>,
        scales: Vec<u32>,
        kinds: Vec<EdgeKind>,
        path_ids: Vec<u32>,
        scale_starts: Vec<(u32, u32)>,
        kind_tally: [usize; 3],
        paths: Vec<MemoryPath>,
    ) -> Hopset {
        debug_assert_eq!(us.len(), vs.len());
        debug_assert_eq!(us.len(), ws.len());
        debug_assert_eq!(us.len(), scales.len());
        debug_assert_eq!(us.len(), kinds.len());
        debug_assert_eq!(us.len(), path_ids.len());
        debug_assert_eq!(kind_tally.iter().sum::<usize>(), us.len());
        debug_assert!(scales.windows(2).all(|w| w[0] <= w[1]));
        Hopset {
            us,
            vs,
            ws,
            scales,
            kinds,
            path_ids,
            scale_starts,
            kind_tally,
            paths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::MemEdge;

    fn edge(u: VId, v: VId, w: Weight, scale: u32) -> HopsetEdge {
        HopsetEdge {
            u,
            v,
            w,
            scale,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: None,
        }
    }

    #[test]
    fn slices_are_offset_arithmetic() {
        let mut h = Hopset::new();
        h.push(edge(0, 1, 2.0, 3));
        h.push(edge(1, 2, 4.0, 4));
        h.push(edge(2, 3, 5.0, 4));
        h.push(edge(3, 4, 6.0, 7));
        let all = h.all_slice();
        assert_eq!(all.len(), 4);
        assert_eq!(all.start(), 0);
        assert_eq!(
            all.iter().collect::<Vec<_>>(),
            vec![(0, 1, 2.0), (1, 2, 4.0), (2, 3, 5.0), (3, 4, 6.0)]
        );
        let s4 = h.scale_slice(4);
        assert_eq!(s4.start(), 1);
        assert_eq!(s4.len(), 2);
        assert_eq!(s4.global_id(1), 2);
        assert_eq!(s4.us(), &[1, 2]);
        assert_eq!(s4.vs(), &[2, 3]);
        assert_eq!(s4.ws(), &[4.0, 5.0]);
        // Absent scales: empty slice at the insertion point.
        assert!(h.scale_slice(2).is_empty());
        assert_eq!(h.scale_slice(2).start(), 0);
        let s5 = h.scale_slice(5);
        assert!(s5.is_empty());
        assert_eq!(s5.start(), 3, "between scale 4 and scale 7");
        assert_eq!(h.scale_slice(9).start(), 4, "past the last scale");
        assert_eq!(h.scales_present().collect::<Vec<_>>(), vec![3, 4, 7]);
    }

    #[test]
    fn size_and_kind_accounting() {
        let mut h = Hopset::new();
        h.push(edge(0, 1, 1.0, 3));
        h.push(edge(0, 2, 1.0, 3));
        h.push(HopsetEdge {
            u: 1,
            v: 2,
            w: 5.0,
            scale: 4,
            kind: EdgeKind::Supercluster { phase: 1 },
            path: None,
        });
        h.push(HopsetEdge {
            u: 3,
            v: 4,
            w: 5.0,
            scale: 4,
            kind: EdgeKind::Star,
            path: None,
        });
        assert_eq!(h.size_by_scale(), vec![(3, 2), (4, 2)]);
        assert_eq!(h.kind_counts(), (1, 2, 1));
        assert_eq!(h.len(), 4);
        let e = h.edge(2);
        assert_eq!((e.u, e.v, e.scale), (1, 2, 4));
        assert!(matches!(e.kind, EdgeKind::Supercluster { phase: 1 }));
    }

    #[test]
    #[should_panic(expected = "non-decreasing scale order")]
    fn out_of_order_scale_push_rejected() {
        let mut h = Hopset::new();
        h.push(edge(0, 1, 1.0, 5));
        h.push(edge(1, 2, 1.0, 4));
    }

    #[test]
    fn memory_path_roundtrip() {
        let mut h = Hopset::new();
        let pid = h.push_path(MemoryPath {
            verts: vec![0, 3, 1],
            links: vec![(MemEdge::Base, 1.0), (MemEdge::Base, 2.0)],
        });
        let eid = h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 3.0,
            scale: 5,
            kind: EdgeKind::Interconnect { phase: 2 },
            path: Some(pid),
        });
        let p = h.path_of(eid).unwrap();
        assert_eq!(p.start(), 0);
        assert_eq!(p.end(), 1);
        assert!((p.weight() - 3.0).abs() < 1e-12);
        assert_eq!(h.path_of(eid).unwrap().len(), 2);
        assert!(h.all_paths_recorded());
        h.push(edge(0, 2, 1.0, 6));
        assert!(!h.all_paths_recorded());
    }

    #[test]
    fn empty_hopset() {
        let h = Hopset::new();
        assert!(h.is_empty());
        assert!(h.all_slice().is_empty());
        assert!(h.scale_slice(3).is_empty());
        assert!(h.size_by_scale().is_empty());
        assert_eq!(h.scales_present().count(), 0);
    }

    #[test]
    fn iter_matches_edge_accessor() {
        let mut h = Hopset::new();
        h.push(edge(0, 1, 2.0, 3));
        h.push(edge(1, 2, 4.0, 4));
        let collected: Vec<HopsetEdge> = h.iter().collect();
        assert_eq!(collected.len(), 2);
        for (i, e) in collected.iter().enumerate() {
            let f = h.edge(i as u32);
            assert_eq!((e.u, e.v, e.scale, e.path), (f.u, f.v, f.scale, f.path));
            assert_eq!(e.w.to_bits(), f.w.to_bits());
        }
    }
}
