//! Memory paths — the "memory property" of §4.1.
//!
//! A hopset edge `(u, v) ∈ H_k` has the *memory property* if it carries a
//! path `π_{G_{k-1}}(u, v)` in `G_{k-1} = (V, E ∪ H_{k-1})` of weight at most
//! the edge's weight, together with prefix distances (§4.1). The peeling
//! process of Algorithm 1 replaces hopset edges by these paths scale by
//! scale until only original edges remain.
//!
//! Two representations:
//! * [`MemoryPath`] — the materialized array `A(u, v)` of §4.1 (vertices,
//!   per-link provenance, weights);
//! * [`PathHandle`] — a persistent (structurally shared) builder used while
//!   labels propagate through explorations, so extending a path by one edge
//!   is O(1) and common prefixes are shared (an `Arc` cons list with
//!   spliced-in shared segments for the cluster-memory detours of §4.3).

use pgraph::{VId, Weight};
use std::sync::Arc;

/// Provenance of one link of a memory path: either an edge of the original
/// graph, or a hopset edge (identified by its global index in the
/// accumulated [`crate::Hopset`]), which a later peeling iteration will
/// itself expand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemEdge {
    /// An edge of the base graph `E`.
    Base,
    /// The hopset edge with this global index (always of a *lower* scale
    /// than the edge carrying this path — Lemma 4.2's termination argument).
    Hop(u32),
}

/// A materialized path: `verts[0] … verts[L]` with `links[i]` describing the
/// edge `verts[i] → verts[i+1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryPath {
    /// The vertices, in order; length `L + 1` (at least 1).
    pub verts: Vec<VId>,
    /// Per-link provenance and weight; length `L`.
    pub links: Vec<(MemEdge, Weight)>,
}

impl MemoryPath {
    /// The trivial path sitting at `v`.
    pub fn trivial(v: VId) -> Self {
        MemoryPath {
            verts: vec![v],
            links: Vec::new(),
        }
    }

    /// First vertex.
    #[inline]
    pub fn start(&self) -> VId {
        self.verts[0]
    }

    /// Last vertex.
    #[inline]
    pub fn end(&self) -> VId {
        *self.verts.last().expect("non-empty")
    }

    /// Number of links (hops).
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True for a trivial single-vertex path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Total weight.
    pub fn weight(&self) -> Weight {
        self.links.iter().map(|l| l.1).sum()
    }

    /// Prefix distances from `start()` to every vertex (length `L + 1`,
    /// first entry 0) — the `Ldist` field of §4.3's messages.
    pub fn prefix_dists(&self) -> Vec<Weight> {
        let mut out = Vec::with_capacity(self.verts.len());
        let mut acc = 0.0;
        out.push(0.0);
        for &(_, w) in &self.links {
            acc += w;
            out.push(acc);
        }
        out
    }

    /// The same path traversed end → start (undirected edges reverse freely).
    pub fn reversed(&self) -> MemoryPath {
        let mut verts = self.verts.clone();
        verts.reverse();
        let mut links = self.links.clone();
        links.reverse();
        MemoryPath { verts, links }
    }

    /// Concatenate with `other`, which must start where `self` ends.
    pub fn concat(&self, other: &MemoryPath) -> MemoryPath {
        assert_eq!(
            self.end(),
            other.start(),
            "concat endpoints must meet ({} vs {})",
            self.end(),
            other.start()
        );
        let mut verts = Vec::with_capacity(self.verts.len() + other.verts.len() - 1);
        verts.extend_from_slice(&self.verts);
        verts.extend_from_slice(&other.verts[1..]);
        let mut links = Vec::with_capacity(self.links.len() + other.links.len());
        links.extend_from_slice(&self.links);
        links.extend_from_slice(&other.links);
        MemoryPath { verts, links }
    }

    /// Structural sanity check: lengths match and every vertex id < `n`.
    pub fn validate(&self, n: usize) -> bool {
        self.verts.len() == self.links.len() + 1
            && self.verts.iter().all(|&v| (v as usize) < n)
            && self.links.iter().all(|l| l.1.is_finite() && l.1 >= 0.0)
    }
}

/// One node of the persistent path builder.
#[derive(Debug)]
pub struct PathNode {
    prev: Option<PathHandle>,
    step: PathStep,
}

/// One step of a persistent path.
#[derive(Debug)]
enum PathStep {
    /// The path begins at this vertex.
    Start(VId),
    /// Extend by a single edge to `to`.
    Edge { to: VId, via: MemEdge, w: Weight },
    /// Splice in a shared materialized segment, which must begin at the
    /// current end vertex (possibly reversed first). Used for the
    /// cluster-memory (`CP`) detours of §4.3.
    Segment { seg: Arc<MemoryPath>, reverse: bool },
}

/// Shared handle to a persistent path. Cloning is O(1).
pub type PathHandle = Arc<PathNode>;

impl Drop for PathNode {
    // Default recursive drop would overflow the stack on long cons lists
    // (labels accumulate one node per exploration hop); unlink iteratively.
    fn drop(&mut self) {
        let mut cur = self.prev.take();
        while let Some(node) = cur {
            match Arc::into_inner(node) {
                Some(mut inner) => cur = inner.prev.take(),
                None => break, // shared elsewhere: someone else will free it
            }
        }
    }
}

/// Start a persistent path at `v`.
pub fn path_start(v: VId) -> PathHandle {
    Arc::new(PathNode {
        prev: None,
        step: PathStep::Start(v),
    })
}

/// Extend by one edge. O(1).
pub fn path_extend(p: &PathHandle, to: VId, via: MemEdge, w: Weight) -> PathHandle {
    Arc::new(PathNode {
        prev: Some(p.clone()),
        step: PathStep::Edge { to, via, w },
    })
}

/// Splice a shared segment (reversed if `reverse`). The segment's entry
/// vertex (start, or end if reversed) must equal the path's current end;
/// checked at materialization. O(1).
pub fn path_splice(p: &PathHandle, seg: &Arc<MemoryPath>, reverse: bool) -> PathHandle {
    // Splicing a trivial segment is a no-op.
    if seg.is_empty() {
        return p.clone();
    }
    Arc::new(PathNode {
        prev: Some(p.clone()),
        step: PathStep::Segment {
            seg: seg.clone(),
            reverse,
        },
    })
}

/// Materialize a persistent path into a [`MemoryPath`] (start → end).
/// Panics if spliced segments do not meet — construction-time logic error.
pub fn path_materialize(p: &PathHandle) -> MemoryPath {
    // Collect nodes back-to-front without recursion (paths can be long).
    let mut nodes: Vec<&PathNode> = Vec::new();
    let mut cur: Option<&PathHandle> = Some(p);
    while let Some(h) = cur {
        nodes.push(h);
        cur = h.prev.as_ref();
    }
    nodes.reverse();
    let mut out: Option<MemoryPath> = None;
    for node in nodes {
        match &node.step {
            PathStep::Start(v) => {
                debug_assert!(out.is_none(), "Start step must come first");
                out = Some(MemoryPath::trivial(*v));
            }
            PathStep::Edge { to, via, w } => {
                let path = out.as_mut().expect("path begins with Start");
                path.verts.push(*to);
                path.links.push((*via, *w));
            }
            PathStep::Segment { seg, reverse } => {
                let path = out.as_mut().expect("path begins with Start");
                let seg2;
                let seg_ref: &MemoryPath = if *reverse {
                    seg2 = seg.reversed();
                    &seg2
                } else {
                    seg
                };
                assert_eq!(
                    path.end(),
                    seg_ref.start(),
                    "spliced segment must start at the path end"
                );
                path.verts.extend_from_slice(&seg_ref.verts[1..]);
                path.links.extend_from_slice(&seg_ref.links);
            }
        }
    }
    out.expect("non-empty persistent path")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryPath {
        MemoryPath {
            verts: vec![3, 7, 1],
            links: vec![(MemEdge::Base, 2.0), (MemEdge::Hop(5), 1.5)],
        }
    }

    #[test]
    fn basic_accessors() {
        let p = sample();
        assert_eq!(p.start(), 3);
        assert_eq!(p.end(), 1);
        assert_eq!(p.len(), 2);
        assert!((p.weight() - 3.5).abs() < 1e-12);
        assert_eq!(p.prefix_dists(), vec![0.0, 2.0, 3.5]);
        assert!(p.validate(8));
        assert!(!p.validate(7)); // vertex 7 out of range
    }

    #[test]
    fn trivial_path() {
        let t = MemoryPath::trivial(4);
        assert_eq!(t.start(), 4);
        assert_eq!(t.end(), 4);
        assert!(t.is_empty());
        assert_eq!(t.weight(), 0.0);
        assert_eq!(t.prefix_dists(), vec![0.0]);
    }

    #[test]
    fn reversal() {
        let p = sample();
        let r = p.reversed();
        assert_eq!(r.verts, vec![1, 7, 3]);
        assert_eq!(r.links, vec![(MemEdge::Hop(5), 1.5), (MemEdge::Base, 2.0)]);
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn concatenation() {
        let p = sample();
        let q = MemoryPath {
            verts: vec![1, 9],
            links: vec![(MemEdge::Base, 4.0)],
        };
        let c = p.concat(&q);
        assert_eq!(c.verts, vec![3, 7, 1, 9]);
        assert!((c.weight() - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "concat endpoints must meet")]
    fn concat_mismatch_panics() {
        let p = sample();
        let q = MemoryPath::trivial(0);
        let _ = p.concat(&q);
    }

    #[test]
    fn persistent_build_and_materialize() {
        let h = path_start(0);
        let h = path_extend(&h, 2, MemEdge::Base, 1.0);
        let h = path_extend(&h, 5, MemEdge::Hop(3), 2.0);
        let m = path_materialize(&h);
        assert_eq!(m.end(), 5);
        assert_eq!(m.verts, vec![0, 2, 5]);
        assert_eq!(m.links, vec![(MemEdge::Base, 1.0), (MemEdge::Hop(3), 2.0)]);
    }

    #[test]
    fn persistent_sharing() {
        let root = path_start(1);
        let a = path_extend(&root, 2, MemEdge::Base, 1.0);
        let b = path_extend(&root, 3, MemEdge::Base, 1.0);
        assert_eq!(path_materialize(&a).end(), 2);
        assert_eq!(path_materialize(&b).end(), 3);
    }

    #[test]
    fn splice_forward_and_reverse() {
        let seg = Arc::new(MemoryPath {
            verts: vec![5, 6, 7],
            links: vec![(MemEdge::Base, 1.0), (MemEdge::Base, 2.0)],
        });
        let h = path_start(5);
        let fwd = path_splice(&h, &seg, false);
        assert_eq!(path_materialize(&fwd).end(), 7);
        assert_eq!(path_materialize(&fwd).verts, vec![5, 6, 7]);

        let h2 = path_start(7);
        let rev = path_splice(&h2, &seg, true);
        assert_eq!(path_materialize(&rev).end(), 5);
        assert_eq!(path_materialize(&rev).verts, vec![7, 6, 5]);
    }

    #[test]
    fn splice_trivial_is_noop() {
        let h = path_start(4);
        let seg = Arc::new(MemoryPath::trivial(9));
        let s = path_splice(&h, &seg, false);
        assert_eq!(path_materialize(&s).verts, vec![4]);
    }

    #[test]
    #[should_panic(expected = "spliced segment must start at the path end")]
    fn splice_mismatch_detected_at_materialize() {
        let h = path_start(0);
        let seg = Arc::new(MemoryPath {
            verts: vec![5, 6],
            links: vec![(MemEdge::Base, 1.0)],
        });
        let s = path_splice(&h, &seg, false);
        let _ = path_materialize(&s);
    }

    #[test]
    fn long_path_materializes_without_stack_overflow() {
        let mut h = path_start(0);
        for i in 1..100_000u32 {
            h = path_extend(&h, i % 1000, MemEdge::Base, 1.0);
        }
        let m = path_materialize(&h);
        assert_eq!(m.len(), 99_999);
    }
}
