//! Compact CSR representation of undirected, positively weighted graphs.
//!
//! The hopset construction makes many synchronized passes over adjacency
//! lists, so the layout is optimized for streaming: one `offsets` array and
//! parallel `neigh`/`wt` arrays (structure-of-arrays, per the perf-book
//! guidance on cache-friendly layouts). Adjacency lists are sorted by
//! neighbor id, which makes `edge_weight` a binary search and makes all
//! iteration deterministic.

use crate::{VId, Weight};
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// An immutable undirected weighted graph in CSR form.
///
/// Invariants (enforced by [`GraphBuilder`]):
/// * no self loops,
/// * parallel edges collapsed to the minimum weight,
/// * all weights strictly positive and finite,
/// * adjacency lists sorted by neighbor id.
#[derive(Clone)]
pub struct Graph {
    n: usize,
    /// `offsets[v]..offsets[v+1]` indexes `neigh`/`wt` for vertex `v`.
    offsets: Vec<usize>,
    neigh: Vec<VId>,
    wt: Vec<Weight>,
    /// Canonical edge list with `u < v`, sorted lexicographically: the
    /// CSR's upper triangle in scan order. [`GraphBuilder::build`] fills
    /// it from the list it already sorted; any other graph derives it on
    /// the first [`Graph::edges`] call, so a loaded graph that only
    /// answers queries never pays its 16 B per edge. Not part of the
    /// graph's value.
    edges: OnceLock<Vec<(VId, VId, Weight)>>,
    /// The owner of every slot, parallel to `neigh`: derived from
    /// `offsets` by the first slot stream that reads it
    /// ([`crate::UnionView::for_each_slot`]), so a graph that runs no
    /// dense round never pays its 4 B per slot. Not part of the graph's
    /// value.
    src: OnceLock<Vec<VId>>,
}

/// A graph's value is its CSR; the edge list and the owner column are
/// derived from it, so they are left out.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        let Graph {
            n,
            offsets,
            neigh,
            wt,
            edges: _,
            src: _,
        } = self;
        *n == other.n && *offsets == other.offsets && *neigh == other.neigh && *wt == other.wt
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.num_edges())
            .finish()
    }
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neigh.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Iterate over `(neighbor, weight)` pairs of `v`, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        let v = v as usize;
        let r = self.offsets[v]..self.offsets[v + 1];
        self.neigh[r.clone()]
            .iter()
            .copied()
            .zip(self.wt[r].iter().copied())
    }

    /// The canonical undirected edge list (`u < v`, lexicographically
    /// sorted). A graph not made by [`GraphBuilder`] builds it from the
    /// CSR on the first call.
    #[inline]
    pub fn edges(&self) -> &[(VId, VId, Weight)] {
        self.edges.get_or_init(|| {
            let mut edges = Vec::with_capacity(self.num_edges());
            for u in 0..self.n as VId {
                edges.extend(
                    self.neighbors(u)
                        .filter(|&(v, _)| u < v)
                        .map(|(v, w)| (u, v, w)),
                );
            }
            edges
        })
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: VId, v: VId) -> Option<Weight> {
        let ui = u as usize;
        let (lo, hi) = (self.offsets[ui], self.offsets[ui + 1]);
        let slice = &self.neigh[lo..hi];
        slice.binary_search(&v).ok().map(|i| self.wt[lo + i])
    }

    /// Minimum edge weight, or `None` for an edgeless graph.
    pub fn min_weight(&self) -> Option<Weight> {
        self.wt.iter().copied().min_by(crate::wcmp)
    }

    /// Maximum edge weight, or `None` for an edgeless graph.
    pub fn max_weight(&self) -> Option<Weight> {
        self.wt.iter().copied().max_by(crate::wcmp)
    }

    /// An upper bound on the diameter: `(n - 1) * max_weight`.
    ///
    /// The hopset construction only needs an upper bound on the aspect ratio
    /// Λ (it determines how many distance scales exist). A loose bound never
    /// weakens a guarantee, but it is not free: every scale above the real
    /// diameter is still built, typically as a star of superclustering
    /// edges around one hub that no query needs. `sssp`'s oracle builder
    /// therefore certifies the real distance range first and builds no
    /// scale when `G` alone is exact within the query hop budget.
    pub fn diameter_upper_bound(&self) -> Weight {
        match self.max_weight() {
            Some(w) => w * (self.n.max(2) - 1) as Weight,
            None => 0.0,
        }
    }

    /// Upper bound on the aspect ratio `Λ = max dist / min dist`, using
    /// `diameter_upper_bound / min_weight`.
    pub fn aspect_ratio_bound(&self) -> Weight {
        match self.min_weight() {
            Some(mn) if mn > 0.0 => self.diameter_upper_bound() / mn,
            _ => 1.0,
        }
    }

    /// Returns a copy of the graph with all weights scaled so that the
    /// minimum weight is exactly 1 (the paper's normalization, §1.5).
    /// Stretch is invariant under uniform scaling. No-op for edgeless graphs.
    pub fn scaled_to_unit_min(&self) -> Graph {
        let Some(mn) = self.min_weight() else {
            return self.clone();
        };
        if mn == 1.0 {
            return self.clone();
        }
        let inv = 1.0 / mn;
        let mut g = self.clone();
        for w in &mut g.wt {
            *w *= inv;
        }
        for e in g.edges.get_mut().into_iter().flatten() {
            e.2 *= inv;
        }
        g
    }

    /// The raw CSR offsets column (`n + 1` entries; `offsets[v]..offsets[v+1]`
    /// indexes the adjacency columns of vertex `v`). Exposed for the snapshot
    /// layer, which streams columns verbatim.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw neighbor-id column (`2m` entries, each adjacency run sorted).
    #[inline]
    pub fn neighbor_column(&self) -> &[VId] {
        &self.neigh
    }

    /// The raw weight column, parallel to [`Graph::neighbor_column`].
    #[inline]
    pub fn weight_column(&self) -> &[Weight] {
        &self.wt
    }

    /// The slots of rows `vs` as parallel owner, neighbor and weight
    /// columns, in CSR order. Builds the owner column on first use.
    #[inline]
    pub(crate) fn slots(&self, vs: Range<usize>) -> (&[VId], &[VId], &[Weight]) {
        let r = self.offsets[vs.start]..self.offsets[vs.end];
        let src = self
            .src
            .get_or_init(|| slot_owners(&self.offsets, self.neigh.len()));
        (&src[r.clone()], &self.neigh[r.clone()], &self.wt[r])
    }

    /// Assemble a graph directly from validated columns. Callers (the
    /// snapshot loader) must have checked every [`Graph`] invariant: the
    /// debug assertions here only spot-check shape. The edge list is
    /// left to [`Graph::edges`].
    pub(crate) fn from_raw_parts(
        n: usize,
        offsets: Vec<usize>,
        neigh: Vec<VId>,
        wt: Vec<Weight>,
    ) -> Graph {
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(neigh.len() % 2, 0);
        debug_assert_eq!(wt.len(), neigh.len());
        Graph {
            n,
            offsets,
            neigh,
            wt,
            edges: OnceLock::new(),
            src: OnceLock::new(),
        }
    }
}

/// The owner column of a CSR with `offsets` (`n + 1` non-decreasing
/// entries from 0 to `slots`): every slot of row `v` gets `v`, and an
/// empty row gets no slot.
fn slot_owners(offsets: &[usize], slots: usize) -> Vec<VId> {
    let mut src = Vec::with_capacity(slots);
    for (v, &end) in offsets[1..].iter().enumerate() {
        src.resize(end, v as VId);
    }
    debug_assert_eq!(src.len(), slots);
    src
}

/// Errors raised when assembling a [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint id was `>= n`.
    VertexOutOfRange {
        /// The offending edge.
        edge: (VId, VId),
        /// The declared vertex count.
        n: usize,
    },
    /// A self loop was supplied.
    SelfLoop {
        /// The looping vertex.
        v: VId,
    },
    /// A non-positive or non-finite weight was supplied.
    BadWeight {
        /// The offending edge.
        edge: (VId, VId),
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { edge, n } => {
                write!(f, "edge ({}, {}) has endpoint >= n = {}", edge.0, edge.1, n)
            }
            GraphError::SelfLoop { v } => write!(f, "self loop at vertex {v}"),
            GraphError::BadWeight { edge } => write!(
                f,
                "edge ({}, {}) has non-positive or non-finite weight",
                edge.0, edge.1
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// ```
/// use pgraph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(1, 2, 2.0);
/// b.add_edge(2, 3, 1.5);
/// b.add_edge(2, 3, 9.0); // parallel edge: min weight wins
/// let g = b.build().unwrap();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.edge_weight(2, 3), Some(1.5));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VId, VId, Weight)>,
}

impl GraphBuilder {
    /// Start a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids are u32");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Start a builder with capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Add an undirected edge. Order of endpoints does not matter.
    pub fn add_edge(&mut self, u: VId, v: VId, w: Weight) -> &mut Self {
        self.edges.push((u.min(v), u.max(v), w));
        self
    }

    /// Add every edge from an iterator.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (VId, VId, Weight)>) -> &mut Self {
        for (u, v, w) in it {
            self.add_edge(u, v, w);
        }
        self
    }

    /// Number of (possibly duplicate) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Validate and assemble the CSR graph.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        let n = self.n;
        for &(u, v, w) in &self.edges {
            if u as usize >= n || v as usize >= n {
                return Err(GraphError::VertexOutOfRange { edge: (u, v), n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { v });
            }
            if !(w.is_finite() && w > 0.0) {
                return Err(GraphError::BadWeight { edge: (u, v) });
            }
        }
        // Deduplicate parallel edges keeping the lightest (deterministic).
        self.edges.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(crate::wcmp(&a.2, &b.2))
        });
        self.edges
            .dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);

        let m = self.edges.len();
        let mut deg = vec![0usize; n + 1];
        for &(u, v, _) in &self.edges {
            deg[u as usize + 1] += 1;
            deg[v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg;
        let mut cursor = offsets.clone();
        let mut neigh = vec![0 as VId; 2 * m];
        let mut wt = vec![0.0; 2 * m];
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize];
            neigh[cu] = v;
            wt[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            neigh[cv] = u;
            wt[cv] = w;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency list by neighbor id (weights follow).
        for v in 0..n {
            let r = offsets[v]..offsets[v + 1];
            let mut pairs: Vec<(VId, Weight)> = neigh[r.clone()]
                .iter()
                .copied()
                .zip(wt[r.clone()].iter().copied())
                .collect();
            pairs.sort_by_key(|a| a.0);
            for (i, (nb, w)) in pairs.into_iter().enumerate() {
                neigh[offsets[v] + i] = nb;
                wt[offsets[v] + i] = w;
            }
        }
        Ok(Graph {
            n,
            offsets,
            neigh,
            wt,
            edges: OnceLock::from(self.edges),
            src: OnceLock::new(),
        })
    }
}

impl Graph {
    /// Convenience constructor from an edge list.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (VId, VId, Weight)>,
    ) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges);
        b.build()
    }

    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Graph {
        GraphBuilder::new(n).build().expect("empty graph is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        Graph::from_edges(4, [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 1.0)]).unwrap()
    }

    #[test]
    fn csr_basics() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 2);
        let n0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(g.edge_weight(3, 1), Some(2.0));
        assert_eq!(g.edge_weight(0, 3), None);
        assert_eq!(g.edge_weight(2, 0), Some(2.0));
    }

    #[test]
    fn parallel_edges_keep_min() {
        let g = Graph::from_edges(2, [(0, 1, 5.0), (1, 0, 2.0), (0, 1, 7.0)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn rejects_self_loop() {
        let e = Graph::from_edges(3, [(1, 1, 1.0)]).unwrap_err();
        assert_eq!(e, GraphError::SelfLoop { v: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let e = Graph::from_edges(3, [(0, 3, 1.0)]).unwrap_err();
        assert!(matches!(e, GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, 0.0)]).unwrap_err(),
            GraphError::BadWeight { .. }
        ));
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, -1.0)]).unwrap_err(),
            GraphError::BadWeight { .. }
        ));
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, f64::INFINITY)]).unwrap_err(),
            GraphError::BadWeight { .. }
        ));
        assert!(matches!(
            Graph::from_edges(2, [(0, 1, f64::NAN)]).unwrap_err(),
            GraphError::BadWeight { .. }
        ));
    }

    #[test]
    fn weight_extrema_and_bounds() {
        let g = diamond();
        assert_eq!(g.min_weight(), Some(1.0));
        assert_eq!(g.max_weight(), Some(2.0));
        assert_eq!(g.diameter_upper_bound(), 6.0);
        assert_eq!(g.aspect_ratio_bound(), 6.0);
        assert_eq!(Graph::empty(5).min_weight(), None);
    }

    #[test]
    fn scaling_normalizes_min_weight() {
        let g = Graph::from_edges(3, [(0, 1, 0.5), (1, 2, 2.0)]).unwrap();
        let s = g.scaled_to_unit_min();
        assert_eq!(s.min_weight(), Some(1.0));
        assert_eq!(s.edge_weight(1, 2), Some(4.0));
        // Already-normalized graphs are returned unchanged.
        let t = s.scaled_to_unit_min();
        assert_eq!(t, s);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.neighbors(2).count(), 0);
    }

    /// The owner column is derived data: once a slot stream has built it,
    /// the graph still equals its snapshot reload, its clone and a fresh
    /// build of the same edges, none of which has built the column.
    #[test]
    fn owner_column_is_not_part_of_the_value() {
        let edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 4, 1.5)];
        let g = Graph::from_edges(5, edges).unwrap();
        let mut owners = Vec::new();
        crate::UnionView::base_only(&g).for_each_slot(0..5, |v, _, _, _| owners.push(v));
        assert_eq!(owners, [0, 1, 1, 2, 2, 4]);
        let reloaded = reload(&g);
        assert_eq!(g, reloaded);
        assert_eq!(reloaded, g);
        assert_eq!(g, g.clone());
        assert_eq!(g, Graph::from_edges(5, edges).unwrap());
    }

    fn reload(g: &Graph) -> Graph {
        let mut bytes = Vec::new();
        crate::snapshot::write_graph_snapshot(g, &mut bytes).unwrap();
        crate::snapshot::read_graph_snapshot(&bytes[..]).unwrap()
    }

    fn edge_bits(g: &Graph) -> Vec<(VId, VId, u64)> {
        g.edges()
            .iter()
            .map(|&(u, v, w)| (u, v, w.to_bits()))
            .collect()
    }

    /// The edge list is derived data: the builder fills it, a reload
    /// builds it on the first `edges()` call, and the two graphs compare
    /// equal before and after that call, with bit-identical lists.
    #[test]
    fn edge_list_is_derived_on_first_use() {
        let g = crate::gen::gnm(60, 150, 4, 0.5, 9.0);
        let h = reload(&g);
        assert!(g.edges.get().is_some(), "the builder keeps its sorted list");
        assert!(h.edges.get().is_none(), "a reload builds no list");
        assert_eq!(h.num_edges(), g.num_edges());
        assert_eq!(g, h);
        assert_eq!(edge_bits(&h), edge_bits(&g));
        assert!(h.edges.get().is_some());
        assert_eq!(g, h);
        assert_eq!(h, g);
    }

    /// Scaling a reload whose list was never built gives the scaled built
    /// graph, and the list it derives later matches the builder's scaled
    /// list bit for bit.
    #[test]
    fn scaling_a_reload_matches_scaling_the_built_graph() {
        let g = crate::gen::gnm(60, 150, 5, 0.5, 9.0);
        assert_ne!(g.min_weight(), Some(1.0));
        let s = reload(&g).scaled_to_unit_min();
        assert!(s.edges.get().is_none());
        let t = g.scaled_to_unit_min();
        assert_eq!(s, t);
        assert_eq!(edge_bits(&s), edge_bits(&t));
    }

    #[test]
    fn edges_are_canonical() {
        let g = Graph::from_edges(4, [(3, 1, 1.0), (2, 0, 1.0)]).unwrap();
        assert_eq!(g.edges(), &[(0, 2, 1.0), (1, 3, 1.0)]);
    }
}
