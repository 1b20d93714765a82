//! The multi-scale hopset `H = ⋃_{k ∈ [k₀, λ]} H_k` for graphs of bounded
//! aspect ratio (§2–§3, Theorem 3.7).
//!
//! Scales are built in ascending order; the construction of `H_k` explores
//! `G_{k-1} = (V, E ∪ H_{k-1})` — only the *previous* scale's hopset is
//! overlaid ("Edges of the hopsets H_{k-2}, H_{k-3}, … are not used
//! explicitly", §3.2). The stretch of `G_{k-1}` compounds per Lemma 3.6:
//! `1 + ε_k = (1 + ε_{k-1})(1 + ε′)`.

use crate::params::{HopsetParams, ScaleParams};
use crate::single_scale::{build_scale_with, ruling_rule, CenterRule, ScaleContext, ScaleReport};
use crate::store::Hopset;
use pgraph::{Graph, OverlayCsrBuilder, UnionView};
use pram::{scan, Executor, Ledger};

/// A built multi-scale hopset plus everything the experiments report.
#[derive(Clone, Debug)]
pub struct BuiltHopset {
    /// The hopset `H`.
    pub hopset: Hopset,
    /// The parameters used.
    pub params: HopsetParams,
    /// Per-scale construction reports (ascending `k`).
    pub scales: Vec<ScaleReport>,
    /// PRAM cost of the whole construction.
    pub ledger: Ledger,
    /// First scale `k₀`.
    pub k0: u32,
    /// Last scale `λ`. `λ = k₀ − 1` is the no-scale state: the oracle
    /// builder proved that `G` alone is exact within the query budget, so
    /// the range `k₀..=λ` is empty and so is the hopset.
    pub lambda: u32,
}

impl BuiltHopset {
    /// Overlay edge list for querying `G ∪ H` (allocates; prefer the
    /// hopset's zero-copy columns — [`Hopset::all_slice`] — for anything
    /// hot).
    pub fn overlay(&self) -> Vec<(pgraph::VId, pgraph::VId, pgraph::Weight)> {
        self.hopset.all_slice().to_overlay_vec()
    }

    /// Number of scales in `k₀..=λ`; 0 in the no-scale state. Computed in
    /// `u64` and saturating at 0, so no stored pair of bounds can overflow
    /// or underflow it.
    pub fn num_scales(&self) -> u64 {
        (u64::from(self.lambda) + 1).saturating_sub(u64::from(self.k0))
    }

    /// The paper's size bound `⌈log Λ⌉ · n^{1+1/κ}` (eq. (10)) for the
    /// scales the hopset was built with (0 with no scale).
    pub fn size_bound(&self) -> f64 {
        self.num_scales() as f64 * (self.params.n as f64).powf(1.0 + 1.0 / self.params.kappa as f64)
    }
}

/// Build options.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildOptions {
    /// Record memory paths on every hopset edge (§4 path reporting).
    pub record_paths: bool,
}

/// Build the multi-scale hopset of `g` (Theorem 3.7) on `exec`: every
/// exploration round of every scale runs on it.
///
/// Requirements (checked): `g` has minimum edge weight ≥ 1 (§1.5 — use
/// [`Graph::scaled_to_unit_min`]) — edgeless graphs trivially return an
/// empty hopset.
pub fn build_hopset_on(
    exec: &Executor,
    g: &Graph,
    params: &HopsetParams,
    opts: BuildOptions,
) -> BuiltHopset {
    build_scales(exec, g, params, opts, &ruling_rule(params))
}

/// The scale driver of [`build_hopset_on`], with the centers of every
/// phase picked by `rule`.
pub(crate) fn build_scales(
    exec: &Executor,
    g: &Graph,
    params: &HopsetParams,
    opts: BuildOptions,
    rule: &CenterRule<'_>,
) -> BuiltHopset {
    assert_eq!(params.n, g.num_vertices(), "params built for another n");
    if let Some(mn) = g.min_weight() {
        assert!(
            mn >= 1.0 - 1e-12,
            "hopset construction requires min edge weight >= 1 (got {mn}); \
             normalize with Graph::scaled_to_unit_min()"
        );
    }
    let mut ledger = Ledger::new();
    let mut hopset = Hopset::new();
    let mut scales = Vec::new();
    let k0 = params.k0();
    let lambda = params.lambda(g.aspect_ratio_bound());
    // The incremental overlay store: scale k's exploration appends exactly
    // H_{k-1}'s column slice as one new CSR block (counting-sorted with a
    // prefix-sum round on `exec`) — earlier scales are never re-bucketed,
    // no filtered edge copy is ever made, and rolling retention keeps
    // exactly one block alive (§3.2 reads only the previous scale).
    let mut overlay = OverlayCsrBuilder::rolling(g.num_vertices());

    let mut eps_prev = 0.0f64;
    for k in k0..=lambda {
        // Overlay only the previous scale's edges.
        let block = if k == k0 {
            None
        } else {
            let sl = hopset.scale_slice(k - 1);
            debug_assert_eq!(
                overlay.num_extra() as u32,
                sl.start(),
                "overlay blocks must stay aligned with global edge ids"
            );
            let _ph = pram::phase::PhaseScope::enter("overlay-csr");
            Some(overlay.append_scale(sl.us(), sl.vs(), sl.ws(), |deg| {
                scan::exclusive_prefix_sum(exec, deg, &mut ledger).0
            }))
        };
        let view = match block {
            Some(csr) => UnionView::with_csr(g, csr),
            None => UnionView::base_only(g),
        };
        let sp = ScaleParams::derive(params, k, eps_prev);
        let ctx = ScaleContext {
            exec,
            view: &view,
            params,
            sp: &sp,
            record_paths: opts.record_paths,
        };
        let report = build_scale_with(&ctx, &mut hopset, &mut ledger, rule);
        scales.push(report);
        // Lemma 3.6: stretch compounds by (1+ε′) per scale.
        eps_prev = (1.0 + eps_prev) * (1.0 + params.eps_scale) - 1.0;
    }

    BuiltHopset {
        hopset,
        params: params.clone(),
        scales,
        ledger,
        k0,
        lambda,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamMode;
    use crate::test_exec;
    use pgraph::exact::{bellman_ford_hops, dijkstra};
    use pgraph::{gen, INF};

    fn practical_params(g: &Graph, eps: f64) -> HopsetParams {
        HopsetParams::new(
            g.num_vertices(),
            eps,
            4,
            0.3,
            ParamMode::Practical,
            g.aspect_ratio_bound(),
            None,
        )
        .unwrap()
    }

    /// Measured stretch of β-hop-limited distances in G ∪ H from `src`.
    fn max_stretch(g: &Graph, built: &BuiltHopset, src: u32) -> f64 {
        let overlay = built.overlay();
        let view = UnionView::with_extra(g, &overlay);
        let approx = bellman_ford_hops(&view, &[src], built.params.query_hops);
        let exact = dijkstra(g, src).dist;
        let mut worst: f64 = 1.0;
        for v in 0..g.num_vertices() {
            if exact[v] == 0.0 {
                continue;
            }
            if exact[v] == INF {
                assert_eq!(approx[v], INF);
                continue;
            }
            assert!(
                approx[v] >= exact[v] - 1e-6,
                "hopset shortened a distance: v={v} {} < {}",
                approx[v],
                exact[v]
            );
            worst = worst.max(approx[v] / exact[v]);
        }
        worst
    }

    #[test]
    fn stretch_on_weighted_path() {
        let g = gen::path_weighted(96, |i| 1.0 + (i % 5) as f64);
        let p = practical_params(&g, 0.25);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        let s = max_stretch(&g, &built, 0);
        assert!(s <= 1.25 + 1e-9, "stretch {s} exceeds 1.25");
    }

    #[test]
    fn stretch_on_grid() {
        let g = gen::unit_grid(8, 12);
        let p = practical_params(&g, 0.25);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        for src in [0u32, 47, 95] {
            let s = max_stretch(&g, &built, src);
            assert!(s <= 1.25 + 1e-9, "stretch {s} from {src}");
        }
    }

    #[test]
    fn stretch_on_random_graph() {
        let g = gen::gnm_connected(128, 384, 21, 1.0, 9.0);
        let p = practical_params(&g, 0.2);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        let s = max_stretch(&g, &built, 5);
        assert!(s <= 1.2 + 1e-9, "stretch {s}");
    }

    #[test]
    fn hopset_reduces_hop_radius() {
        // On a long unit path the whole point of the hopset is fewer hops:
        // the β-hop distance in G alone is infinite past β vertices.
        let g = gen::path(200);
        let p = practical_params(&g, 0.25).with_hop_cap(48);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        let overlay = built.overlay();
        let view = UnionView::with_extra(&g, &overlay);
        let without = bellman_ford_hops(&UnionView::base_only(&g), &[0], p.query_hops);
        let with = bellman_ford_hops(&view, &[0], p.query_hops);
        assert_eq!(without[199], INF, "48 hops cannot cross 199 edges");
        assert!(with[199].is_finite(), "hopset must shortcut the path");
        let exact = dijkstra(&g, 0).dist[199];
        assert!(with[199] <= 1.25 * exact + 1e-9);
    }

    #[test]
    fn size_within_paper_bound() {
        let g = gen::gnm_connected(128, 512, 3, 1.0, 4.0);
        let p = practical_params(&g, 0.25);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        assert!(
            (built.hopset.len() as f64) <= built.size_bound(),
            "{} edges > bound {}",
            built.hopset.len(),
            built.size_bound()
        );
    }

    #[test]
    fn determinism_end_to_end() {
        let g = gen::gnm_connected(64, 160, 12, 1.0, 7.0);
        let p = practical_params(&g, 0.25);
        let a = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        let b = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        assert_eq!(a.hopset.len(), b.hopset.len());
        for (x, y) in a.hopset.iter().zip(b.hopset.iter()) {
            assert_eq!((x.u, x.v, x.scale), (y.u, y.v, y.scale));
            assert_eq!(x.w, y.w);
        }
        assert_eq!(a.ledger, b.ledger);
    }

    #[test]
    fn scale_count_saturates_at_the_no_scale_state() {
        let g = gen::path(8);
        let built = build_hopset_on(
            &test_exec(),
            &g,
            &practical_params(&g, 0.25),
            BuildOptions::default(),
        );
        assert_eq!(built.num_scales(), built.scales.len() as u64);
        let none = BuiltHopset {
            lambda: built.k0 - 1,
            ..built.clone()
        };
        assert_eq!((none.num_scales(), none.size_bound()), (0, 0.0));
        let below = BuiltHopset {
            k0: 5,
            lambda: 0,
            ..built
        };
        assert_eq!(below.num_scales(), 0);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::empty(4);
        let p = practical_params(&g, 0.25);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        assert!(built.hopset.is_empty());

        let g2 = gen::path(2);
        let p2 = practical_params(&g2, 0.25);
        let built2 = build_hopset_on(&test_exec(), &g2, &p2, BuildOptions::default());
        // A single edge needs no hopset but must not break anything.
        let s = max_stretch(&g2, &built2, 0);
        assert!(s <= 1.25);
    }

    #[test]
    fn no_shortcut_below_true_distance_exhaustive() {
        let g = gen::gnm_connected(48, 144, 8, 1.0, 5.0);
        let p = practical_params(&g, 0.25);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        // Every hopset edge's weight ≥ exact distance (Lemmas 2.3/2.9).
        for e in built.hopset.iter() {
            let exact = dijkstra(&g, e.u).dist[e.v as usize];
            assert!(e.w >= exact - 1e-6);
        }
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two components; hopset must not connect them.
        let mut b = pgraph::GraphBuilder::new(40);
        for i in 0..19 {
            b.add_edge(i, i + 1, 1.0);
        }
        for i in 20..39 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build().unwrap();
        let p = practical_params(&g, 0.25);
        let built = build_hopset_on(&test_exec(), &g, &p, BuildOptions::default());
        for e in built.hopset.iter() {
            assert_eq!(
                (e.u < 20),
                (e.v < 20),
                "hopset edge crosses components: ({}, {})",
                e.u,
                e.v
            );
        }
        let s = max_stretch(&g, &built, 0);
        assert!(s <= 1.25 + 1e-9);
    }
}
