//! Invariant checkers — the executable versions of the paper's lemmas.
//!
//! Used by tests, property tests and the experiment harness to verify:
//!
//! * **no-shortcut** (Lemmas 2.3/2.9): no hopset edge weight undercuts the
//!   exact `G` distance between its endpoints;
//! * **hopset property** (eq. (1)): `d_G ≤ d^{(β)}_{G∪H} ≤ (1+ε)·d_G` on
//!   sampled sources;
//! * **memory property** (§4.1): every recorded path is a real path in the
//!   union graph, has weight ≤ its edge's weight, matches the edge's
//!   endpoints, and references only lower scales.

use crate::store::Hopset;
use pgraph::exact::{bellman_ford_hops, dijkstra};
use pgraph::{Graph, UnionView, Weight, INF};

/// Result of a stretch measurement (experiment E2's row).
#[derive(Clone, Copy, Debug, Default)]
pub struct StretchReport {
    /// Largest observed `d^{(β)}_{G∪H} / d_G` over sampled pairs.
    pub max_stretch: f64,
    /// Mean observed stretch.
    pub mean_stretch: f64,
    /// Pairs where the β-bounded distance is infinite but `d_G` is not.
    pub unreached: usize,
    /// Pairs where the approximate distance undercuts `d_G` beyond float
    /// tolerance (must be 0 — Lemmas 2.3/2.9).
    pub undershoots: usize,
    /// Pairs measured.
    pub pairs: usize,
}

/// Measure the hopset property from the given sources at the given hop
/// budget.
pub fn measure_stretch(
    g: &Graph,
    hopset: &Hopset,
    sources: &[u32],
    query_hops: usize,
) -> StretchReport {
    let sl = hopset.all_slice();
    let view = UnionView::with_overlay_columns(g, sl.us(), sl.vs(), sl.ws());
    let mut rep = StretchReport {
        max_stretch: 1.0,
        ..Default::default()
    };
    let mut sum = 0.0;
    for &s in sources {
        let approx = bellman_ford_hops(&view, &[s], query_hops);
        let exact = dijkstra(g, s).dist;
        for v in 0..g.num_vertices() {
            let e = exact[v];
            if e == 0.0 {
                continue;
            }
            if e == INF {
                debug_assert_eq!(approx[v], INF, "hopset connected disconnected vertices");
                continue;
            }
            rep.pairs += 1;
            let a = approx[v];
            if a == INF {
                rep.unreached += 1;
                continue;
            }
            if a < e - 1e-6 * e.max(1.0) {
                rep.undershoots += 1;
            }
            let ratio = a / e;
            rep.max_stretch = rep.max_stretch.max(ratio);
            sum += ratio;
        }
    }
    let counted = rep.pairs - rep.unreached;
    rep.mean_stretch = if counted > 0 {
        sum / counted as f64
    } else {
        1.0
    };
    rep
}

/// Check the no-shortcut property edge by edge (exact, O(|H|) Dijkstras —
/// test-scale only). Returns the offending edges.
pub fn find_shortcut_violations(g: &Graph, hopset: &Hopset) -> Vec<(u32, Weight, Weight)> {
    let mut bad = Vec::new();
    // Group by source endpoint to reuse Dijkstra runs.
    let mut by_u: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for (i, e) in hopset.iter().enumerate() {
        by_u.entry(e.u).or_default().push(i as u32);
    }
    for (u, ids) in by_u {
        let d = dijkstra(g, u).dist;
        for i in ids {
            let e = hopset.edge(i);
            let exact = d[e.v as usize];
            if e.w < exact - 1e-6 * exact.max(1.0) {
                bad.push((i, e.w, exact));
            }
        }
    }
    bad
}

/// Errors found by [`check_memory_paths`].
#[derive(Clone, Debug, PartialEq)]
pub enum MemoryPathError {
    /// The edge has no recorded path although recording was requested.
    Missing {
        /// Offending edge index.
        edge: u32,
    },
    /// Path endpoints don't match the edge endpoints.
    Endpoints {
        /// Offending edge index.
        edge: u32,
    },
    /// Path weight exceeds the edge weight (violates §4.1).
    TooHeavy {
        /// Offending edge index.
        edge: u32,
        /// The path's weight.
        path_w: Weight,
        /// The edge's weight.
        edge_w: Weight,
    },
    /// A link is not present in the union graph (not a real path).
    PhantomLink {
        /// Offending edge index.
        edge: u32,
        /// Link position within the path.
        pos: usize,
    },
    /// A link references a hopset edge of the same or higher scale
    /// (peeling would not terminate — Lemma 4.2).
    ScaleOrder {
        /// Offending edge index.
        edge: u32,
        /// Link position within the path.
        pos: usize,
    },
    /// A link's endpoints/weight disagree with the referenced hopset edge.
    LinkMismatch {
        /// Offending edge index.
        edge: u32,
        /// Link position within the path.
        pos: usize,
    },
}

/// Verify the memory property (§4.1) of every edge of a path-reporting
/// hopset. Empty result = all good.
pub fn check_memory_paths(g: &Graph, hopset: &Hopset) -> Vec<MemoryPathError> {
    let mut errs = Vec::new();
    for (i, e) in hopset.iter().enumerate() {
        let i = i as u32;
        let Some(mp) = hopset.path_of(i) else {
            errs.push(MemoryPathError::Missing { edge: i });
            continue;
        };
        let ends = (mp.start().min(mp.end()), mp.start().max(mp.end()));
        if ends != (e.u.min(e.v), e.u.max(e.v)) {
            errs.push(MemoryPathError::Endpoints { edge: i });
            continue;
        }
        let pw = mp.weight();
        if pw > e.w * (1.0 + 1e-9) + 1e-9 {
            errs.push(MemoryPathError::TooHeavy {
                edge: i,
                path_w: pw,
                edge_w: e.w,
            });
        }
        for (pos, ((&a, &b), link)) in mp
            .verts
            .iter()
            .zip(mp.verts.iter().skip(1))
            .zip(mp.links.iter())
            .enumerate()
        {
            match link.0 {
                crate::path::MemEdge::Base => match g.edge_weight(a, b) {
                    Some(w) if (w - link.1).abs() <= 1e-9 * w.max(1.0) => {}
                    Some(_) | None => {
                        errs.push(MemoryPathError::PhantomLink { edge: i, pos });
                    }
                },
                crate::path::MemEdge::Hop(j) => {
                    if (j as usize) >= hopset.len() {
                        errs.push(MemoryPathError::LinkMismatch { edge: i, pos });
                        continue;
                    }
                    let ref_edge = hopset.edge(j);
                    if ref_edge.scale >= e.scale {
                        errs.push(MemoryPathError::ScaleOrder { edge: i, pos });
                    }
                    let same = (ref_edge.u == a && ref_edge.v == b)
                        || (ref_edge.u == b && ref_edge.v == a);
                    if !same || (ref_edge.w - link.1).abs() > 1e-9 * ref_edge.w.max(1.0) {
                        errs.push(MemoryPathError::LinkMismatch { edge: i, pos });
                    }
                }
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_scale::{build_hopset_on, BuildOptions};
    use crate::params::{HopsetParams, ParamMode};
    use crate::path::{MemEdge, MemoryPath};
    use crate::store::{EdgeKind, HopsetEdge};
    use crate::test_exec;
    use pgraph::gen;

    fn build(g: &Graph, record_paths: bool) -> Hopset {
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
        build_hopset_on(&test_exec(), g, &p, BuildOptions { record_paths }).hopset
    }

    #[test]
    fn measure_stretch_on_real_hopset() {
        let g = gen::gnm_connected(96, 288, 4, 1.0, 6.0);
        let h = build(&g, false);
        let rep = measure_stretch(&g, &h, &[0, 50], 96);
        assert_eq!(rep.undershoots, 0);
        assert_eq!(rep.unreached, 0);
        assert!(rep.max_stretch <= 1.25 + 1e-9);
        assert!(rep.mean_stretch >= 1.0 && rep.mean_stretch <= rep.max_stretch + 1e-12);
        assert_eq!(rep.pairs, 2 * 95);
    }

    #[test]
    fn no_shortcut_violations_on_real_hopset() {
        let g = gen::clique_chain(4, 6, 3.0);
        let h = build(&g, false);
        assert!(find_shortcut_violations(&g, &h).is_empty());
    }

    #[test]
    fn shortcut_violation_detected_on_corrupted_edge() {
        let g = gen::path(6);
        let mut h = Hopset::new();
        h.push(HopsetEdge {
            u: 0,
            v: 5,
            w: 1.0, // true distance is 5
            scale: 3,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: None,
        });
        let bad = find_shortcut_violations(&g, &h);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 0);
    }

    #[test]
    fn memory_paths_validate_on_real_hopset() {
        let g = gen::clique_chain(4, 6, 3.0);
        let h = build(&g, true);
        assert!(!h.is_empty());
        let errs = check_memory_paths(&g, &h);
        assert!(errs.is_empty(), "memory path errors: {errs:?}");
    }

    #[test]
    fn memory_path_checker_catches_problems() {
        let g = gen::path(4);
        let mut h = Hopset::new();
        // Edge with no path.
        h.push(HopsetEdge {
            u: 0,
            v: 2,
            w: 2.0,
            scale: 3,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: None,
        });
        assert_eq!(
            check_memory_paths(&g, &h),
            vec![MemoryPathError::Missing { edge: 0 }]
        );
        // Edge with phantom link (0-3 not a graph edge).
        let pid = h.push_path(MemoryPath {
            verts: vec![0, 3],
            links: vec![(MemEdge::Base, 3.0)],
        });
        h.push(HopsetEdge {
            u: 0,
            v: 3,
            w: 3.0,
            scale: 3,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: Some(pid),
        });
        let errs = check_memory_paths(&g, &h);
        assert!(errs.contains(&MemoryPathError::PhantomLink { edge: 1, pos: 0 }));
        // Edge whose path is heavier than the edge.
        let pid2 = h.push_path(MemoryPath {
            verts: vec![0, 1],
            links: vec![(MemEdge::Base, 1.0)],
        });
        h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 0.5,
            scale: 3,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: Some(pid2),
        });
        let errs = check_memory_paths(&g, &h);
        assert!(errs
            .iter()
            .any(|e| matches!(e, MemoryPathError::TooHeavy { edge: 2, .. })));
    }

    #[test]
    fn scale_order_violation_detected() {
        let g = gen::path(3);
        let mut h = Hopset::new();
        let e0 = h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 1.0,
            scale: 5,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: None,
        });
        let pid = h.push_path(MemoryPath {
            verts: vec![0, 1],
            links: vec![(MemEdge::Hop(e0), 1.0)],
        });
        // Edge at scale 5 referencing a scale-5 edge: peeling would loop.
        h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 1.0,
            scale: 5,
            kind: EdgeKind::Supercluster { phase: 0 },
            path: Some(pid),
        });
        let errs = check_memory_paths(&g, &h);
        assert!(errs
            .iter()
            .any(|e| matches!(e, MemoryPathError::ScaleOrder { edge: 1, pos: 0 })));
        // Edge 0 has no path: also reported.
        assert!(errs
            .iter()
            .any(|e| matches!(e, MemoryPathError::Missing { edge: 0 })));
    }
}
