//! One single-scale hopset `H_k` (§2.1): the superclustering-and-
//! interconnection phase loop.
//!
//! Phases `i ∈ [0, ℓ]`, input `P_i` (phase 0: singletons):
//!
//! 1. **Detection** (§2.1.1 / Lemma A.3): `deg_i + 1` parallel explorations
//!    to depth 1 in `G̃_i` give every cluster its array `m(C)`; `C` is
//!    *popular* iff `m(C)` is full (`≥ deg_i` neighbors).
//! 2. **Ruling set** (Corollary B.4): a `(3, 2·log n)`-ruling set `Q_i` for
//!    the popular clusters `W_i`.
//! 3. **Superclustering**: BFS to depth `2·log2 n` in `G̃_i` from `Q_i`;
//!    every detected cluster joins the supercluster of its detecting origin
//!    and its center gains a superclustering edge to the origin's center.
//!    `P_{i+1}` = the superclusters.
//! 4. **Interconnection** (§2.1.2): clusters not superclustered form `U_i`;
//!    each connects its center to the centers of its `m(C)`-neighbors that
//!    are also in `U_i`. Lemma 2.4 guarantees `U_i ∩ W_i = ∅`, so `m(C)` is
//!    complete for every `U_i` cluster.
//!
//! Phase `ℓ` skips superclustering; all of `P_ℓ` interconnects (eq. (5)
//! bounds `|P_ℓ| ≤ n^ρ` under valid parameters).
//!
//! Steps 1–3's choice of centers is the loop's one pluggable step, a
//! crate-private `CenterRule`: it returns `m(C)`, the BFS detections and
//! the popular and center sets, and the loop runs interconnection,
//! supercluster formation, cluster memory and the partition rebuild around
//! it. `ruling_rule` is the paper's rule; `baseline` plugs in the
//! sampling rule of \[EN19\], and a deterministic network decomposition
//! would plug in the same way.
//!
//! Edge weights: `Theory` mode uses the paper's formulas (superclustering:
//! `2((1+ε_{k-1})δ_i + 2R_i)·log2 n`; interconnection: `d + 2R_i`), which
//! Lemmas 2.3/2.9 prove never undercut real distances. `Practical` mode uses
//! the *realized path weight* `pw` (never larger than the formula —
//! asserted — and trivially a real path's weight, so the no-shortcut
//! guarantee is by construction).

use crate::label::{Label, LabelArena};
use crate::params::{HopsetParams, ParamMode, ScaleParams};
use crate::partition::{Cluster, ClusterMemory, Partition};
use crate::path::path_materialize;
use crate::ruling::{ruling_set, RulingTrace};
use crate::store::{EdgeKind, Hopset, HopsetEdge};
use crate::virtual_bfs::{Detection, ExploreScratch, Explorer};
use pgraph::{UnionView, VId, Weight};
use pram::{Executor, Ledger};

/// Statistics of one phase (experiment E5/E6 fodder).
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|`.
    pub clusters: usize,
    /// `deg_i`.
    pub degree: usize,
    /// `|W_i|` (popular clusters); 0 under the sampling rule, which
    /// detects no popularity.
    pub popular: usize,
    /// `|Q_i|` (ruling set size); the sampled-center count under the
    /// sampling rule.
    pub ruling: usize,
    /// Number of clusters superclustered (including `Q_i` members).
    pub superclustered: usize,
    /// `|U_i|`.
    pub unclustered: usize,
    /// Superclustering edges added.
    pub super_edges: usize,
    /// Interconnection edges added.
    pub inter_edges: usize,
    /// Knock-out recursion trace of the ruling-set computation.
    pub ruling_trace: RulingTrace,
}

/// Outcome of one scale.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// The scale `k`.
    pub k: u32,
    /// Per-phase statistics.
    pub phases: Vec<PhaseStats>,
    /// Edges added to `H_k`.
    pub edges_added: usize,
    /// Practical/Theory weight-bound violations observed (realized path
    /// weight exceeding the paper's formula weight) — must stay 0.
    pub weight_bound_violations: usize,
}

/// Context for building one scale.
pub struct ScaleContext<'a> {
    /// The executor every exploration round of the scale runs on.
    pub exec: &'a Executor,
    /// The exploration graph `G_{k-1} = (V, E ∪ H_{k-1})`. Overlay entries
    /// must carry global hopset edge ids (scale-block CSRs do).
    pub view: &'a UnionView<'a>,
    /// Global parameters.
    pub params: &'a HopsetParams,
    /// Scale-derived parameters.
    pub sp: &'a ScaleParams,
    /// Record memory paths (§4).
    pub record_paths: bool,
}

/// The centers a [`CenterRule`] picks for phase `i < ℓ`.
pub(crate) struct Centers {
    /// The arrays `m(C)`; interconnection reads them for `U_i`.
    pub(crate) m: LabelArena,
    /// The BFS detections from the centers; an undetected cluster is in
    /// `U_i`.
    pub(crate) det: Vec<Option<Detection>>,
    /// The popular clusters `W_i`.
    pub(crate) popular: Vec<u32>,
    /// The centers `Q_i`, the BFS sources.
    pub(crate) centers: Vec<u32>,
    /// Knock-out trace of the ruling-set computation, if one ran.
    pub(crate) trace: RulingTrace,
}

/// How phase `i < ℓ` of scale `k` picks its centers, given the phase's
/// explorer, scratch and ledger.
pub(crate) type CenterRule<'a> =
    dyn Fn(&Explorer<'_>, u32, usize, &mut ExploreScratch, &mut Ledger) -> Centers + 'a;

/// The paper's rule: detection with `x = deg_i + 1` (step 1), a ruling set
/// of the popular clusters (step 2) and the BFS to depth `2·log2 n` from
/// it (step 3).
pub(crate) fn ruling_rule(
    p: &HopsetParams,
) -> impl Fn(&Explorer<'_>, u32, usize, &mut ExploreScratch, &mut Ledger) -> Centers + '_ {
    move |ex, _k, i, scratch, ledger| {
        let x = p.degrees[i] + 1;
        let m = {
            let _ph = pram::phase::PhaseScope::enter("detect");
            ex.detect_neighbors(x, scratch, ledger)
        };
        let popular: Vec<u32> = (0..ex.part.len() as u32)
            .filter(|&c| m.len_of(c as usize) >= x)
            .collect();
        // One "supercluster" phase for the audit.
        let mut trace = RulingTrace::default();
        let (q_set, det) = {
            let _ph = pram::phase::PhaseScope::enter("supercluster");
            let q_set = ruling_set(ex, &popular, scratch, ledger, Some(&mut trace));
            let det = ex.bfs(&q_set, p.supercluster_depth(), scratch, ledger);
            (q_set, det)
        };
        // Lemma 2.4: every popular cluster must be detected.
        debug_assert!(
            popular.iter().all(|&c| det[c as usize].is_some()),
            "popular cluster escaped superclustering (Lemma 2.4)"
        );
        Centers {
            m,
            det,
            popular,
            centers: q_set,
            trace,
        }
    }
}

/// Build `H_k`, appending its edges into `hopset` (global ids stay stable).
pub fn build_single_scale(
    ctx: &ScaleContext<'_>,
    hopset: &mut Hopset,
    ledger: &mut Ledger,
) -> ScaleReport {
    build_scale_with(ctx, hopset, ledger, &ruling_rule(ctx.params))
}

/// [`build_single_scale`] with the centers of each phase `i < ℓ` picked by
/// `rule`.
pub(crate) fn build_scale_with(
    ctx: &ScaleContext<'_>,
    hopset: &mut Hopset,
    ledger: &mut Ledger,
    rule: &CenterRule<'_>,
) -> ScaleReport {
    let n = ctx.view.num_vertices();
    let p = ctx.params;
    let mut part = Partition::singletons(n);
    let mut cm = ClusterMemory::trivial(n, ctx.record_paths);
    let mut phases = Vec::with_capacity(p.ell + 1);
    let edges_before = hopset.len();
    let mut violations = 0usize;
    // One scratch serves every exploration of the scale (per-pulse label
    // tables and both propagation kernels' step buffers are reset, not
    // reallocated).
    let mut scratch = ExploreScratch::new();

    for i in 0..=p.ell {
        let deg_i = p.degrees[i];
        let threshold = ctx.sp.thresholds[i];
        let ex = Explorer {
            exec: ctx.exec,
            view: ctx.view,
            part: &part,
            cm: &cm,
            threshold,
            hop_limit: p.hop_limit,
            record_paths: ctx.record_paths,
        };
        let n_clusters = part.len();
        if n_clusters == 0 {
            break;
        }

        if i == p.ell {
            // ---- Final phase: no superclustering; everyone interconnects.
            let x = n_clusters; // |P_ℓ| parallel explorations (§2.1.2)
            let m = {
                let _ph = pram::phase::PhaseScope::enter("detect");
                ex.detect_neighbors(x, &mut scratch, ledger)
            };
            let _ph = pram::phase::PhaseScope::enter("interconnect");
            let inter = interconnect(
                ctx,
                hopset,
                &part,
                &m,
                &(0..n_clusters as u32).collect::<Vec<_>>(),
                i,
                &mut violations,
            );
            phases.push(PhaseStats {
                phase: i,
                clusters: n_clusters,
                degree: deg_i,
                popular: 0,
                ruling: 0,
                superclustered: 0,
                unclustered: n_clusters,
                super_edges: 0,
                inter_edges: inter,
                ruling_trace: RulingTrace::default(),
            });
            break;
        }

        // ---- 1–3. The rule picks the centers and runs their BFS.
        let c = rule(&ex, ctx.sp.k, i, &mut scratch, ledger);

        // ---- 4. Interconnection of U_i (undetected clusters). Runs against
        // the *current* partition P_i, before superclusters replace it.
        let u_set: Vec<u32> = (0..n_clusters as u32)
            .filter(|&ci| c.det[ci as usize].is_none())
            .collect();
        let inter = {
            let _ph = pram::phase::PhaseScope::enter("interconnect");
            interconnect(ctx, hopset, &part, &c.m, &u_set, i, &mut violations)
        };

        // ---- 3b. Form the superclusters: rebuilds `part` into P_{i+1}.
        let super_edges = {
            let _ph = pram::phase::PhaseScope::enter("supercluster");
            form_superclusters(ctx, hopset, &mut part, &mut cm, &c.det, i, &mut violations)
        };

        phases.push(PhaseStats {
            phase: i,
            clusters: n_clusters,
            degree: deg_i,
            popular: c.popular.len(),
            ruling: c.centers.len(),
            superclustered: n_clusters - u_set.len(),
            unclustered: u_set.len(),
            super_edges,
            inter_edges: inter,
            ruling_trace: c.trace,
        });
    }

    ScaleReport {
        k: ctx.sp.k,
        phases,
        edges_added: hopset.len() - edges_before,
        weight_bound_violations: violations,
    }
}

/// Add interconnection edges for the clusters `u_set` (phase `i`): centers
/// of `C` and `C' ∈ Γ(C) ∩ U_i` get an edge of weight
/// `d^{(2β+1)}(C, C') + 2R_i` (Theory) or the realized path weight
/// (Practical). Returns the number of edges added.
fn interconnect(
    ctx: &ScaleContext<'_>,
    hopset: &mut Hopset,
    part: &Partition,
    m: &LabelArena,
    u_set: &[u32],
    phase: usize,
    violations: &mut usize,
) -> usize {
    // Sorted membership table (not a HashSet): lookup-only today, but a
    // sorted Vec can never grow an order-dependent iteration (xlint D1).
    let mut in_u: Vec<VId> = u_set.iter().map(|&c| part.center(c)).collect();
    in_u.sort_unstable();
    // Collect directed proposals, dedup by unordered pair keeping the
    // lightest realized weight (floating-point sums may differ by ulps
    // between the two directions).
    let mut proposals: Vec<(VId, VId, Weight, Option<&Label>)> = Vec::new();
    for &c in u_set {
        let rc = part.center(c);
        for l in m.labels(c as usize) {
            if l.src == rc || in_u.binary_search(&l.src).is_err() {
                continue;
            }
            let formula_w = ctx.sp.interconnect_weight(phase, l.dist);
            if l.pw > formula_w * (1.0 + 1e-9) {
                *violations += 1;
            }
            let w = match ctx.params.mode {
                ParamMode::Theory => formula_w.max(l.pw),
                ParamMode::Practical => l.pw.max(f64::MIN_POSITIVE),
            };
            let (a, b) = (rc.min(l.src), rc.max(l.src));
            proposals.push((a, b, w, ctx.record_paths.then_some(l)));
        }
    }
    proposals.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.total_cmp(&y.2)));
    proposals.dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);
    let count = proposals.len();
    for (u, v, w, label) in proposals {
        let path_id = label.map(|l| {
            let mp = path_materialize(l.path.as_ref().expect("path recorded"));
            hopset.push_path(mp)
        });
        hopset.push(HopsetEdge {
            u,
            v,
            w,
            scale: ctx.sp.k,
            kind: EdgeKind::Interconnect { phase: phase as u8 },
            path: path_id,
        });
    }
    count
}

/// Form the superclusters of phase `i` from the BFS detections, rebuild the
/// partition and cluster memory, and add superclustering edges. Returns the
/// number of edges added.
fn form_superclusters(
    ctx: &ScaleContext<'_>,
    hopset: &mut Hopset,
    part: &mut Partition,
    cm: &mut ClusterMemory,
    det: &[Option<Detection>],
    phase: usize,
    violations: &mut usize,
) -> usize {
    let n = part.cluster_of.len();
    let formula_w = ctx.sp.supercluster_weights[phase];
    let mut edges = 0usize;

    // Group detected clusters by origin, in deterministic order.
    let mut members_of: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for (ci, d) in det.iter().enumerate() {
        if let Some(d) = d {
            members_of.entry(d.src_cluster).or_default().push(ci as u32);
        }
    }

    // Add superclustering edges and extend cluster memory.
    // Memory-path bookkeeping per absorbed cluster: (old center → new
    // center) path and weight, applied to each member below.
    let mut absorb: Vec<(u32, Option<crate::path::MemoryPath>, Weight)> = Vec::new();
    for (&q, members) in &members_of {
        let rq = part.center(q);
        for &c in members {
            if c == q {
                continue;
            }
            let d = det[c as usize].as_ref().expect("detected");
            let rc = part.center(c);
            let mem_path = d.path.as_ref().map(path_materialize);
            if let Some(mp) = &mem_path {
                debug_assert_eq!(mp.start(), rq);
                debug_assert_eq!(mp.end(), rc);
            }
            let (w, path_id) = match ctx.params.mode {
                ParamMode::Theory => {
                    if d.pw > formula_w * (1.0 + 1e-9) {
                        *violations += 1;
                    }
                    let pid = mem_path.clone().map(|p| hopset.push_path(p));
                    (formula_w.max(d.pw), pid)
                }
                ParamMode::Practical => {
                    if d.pw > formula_w * (1.0 + 1e-9) {
                        *violations += 1;
                    }
                    let pid = mem_path.clone().map(|p| hopset.push_path(p));
                    (d.pw.max(f64::MIN_POSITIVE), pid)
                }
            };
            hopset.push(HopsetEdge {
                u: rc,
                v: rq,
                w,
                scale: ctx.sp.k,
                kind: EdgeKind::Supercluster { phase: phase as u8 },
                path: path_id,
            });
            edges += 1;
            // Members of c will extend memory by the rc → rq path.
            absorb.push((c, mem_path.map(|p| p.reversed()), d.pw));
        }
    }

    // Extend the cluster memory of members of absorbed clusters.
    for (c, rev_path, w) in &absorb {
        let members = part.clusters[*c as usize].members.clone();
        for v in members {
            cm.extend(v, rev_path.as_ref(), *w);
        }
    }

    // Rebuild the partition: one cluster per origin q.
    let mut new_clusters: Vec<Cluster> = Vec::with_capacity(members_of.len());
    for (&q, members) in &members_of {
        let mut verts: Vec<VId> = Vec::new();
        for &c in members {
            verts.extend_from_slice(&part.clusters[c as usize].members);
        }
        verts.sort_unstable();
        new_clusters.push(Cluster {
            center: part.center(q),
            members: verts,
        });
    }
    new_clusters.sort_by_key(|c| c.center);
    let mut cluster_of: Vec<Option<u32>> = vec![None; n];
    for (ci, cl) in new_clusters.iter().enumerate() {
        for &v in &cl.members {
            cluster_of[v as usize] = Some(ci as u32);
        }
    }
    *part = Partition {
        cluster_of,
        clusters: new_clusters,
    };
    debug_assert!(part.validate(n));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamMode;
    use pgraph::gen;

    fn scale_setup(n: usize, mode: ParamMode) -> (HopsetParams, ScaleParams) {
        // Scale k = 5 (distances 32..64): with ε = 0.25 and ℓ = 4 the phase
        // thresholds start at δ_0 = 64·0.25³ = 1, matching unit weights.
        let p = HopsetParams::new(n, 0.25, 4, 0.3, mode, n as f64, None).unwrap();
        let sp = ScaleParams::derive(&p, 5, 0.0);
        (p, sp)
    }

    #[test]
    fn builds_a_scale_on_clique_chain() {
        // Dense cliques: superclustering must fire.
        let g = gen::clique_chain(4, 8, 2.0);
        let (p, sp) = scale_setup(g.num_vertices(), ParamMode::Practical);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ctx = ScaleContext {
            exec: &exec,
            view: &view,
            params: &p,
            sp: &sp,
            record_paths: false,
        };
        let mut h = Hopset::new();
        let mut led = Ledger::new();
        let report = build_single_scale(&ctx, &mut h, &mut led);
        assert!(report.edges_added > 0);
        assert_eq!(report.weight_bound_violations, 0);
        assert!(!report.phases.is_empty());
        // Phase 0 on 32 singletons with deg_0 = n^{1/4} ≈ 3: cliques are
        // popular areas, so some superclustering happened.
        let ph0 = &report.phases[0];
        assert_eq!(ph0.clusters, 32);
        assert!(ph0.popular > 0, "cliques must contain popular clusters");
        assert!(ph0.super_edges > 0);
    }

    #[test]
    fn sparse_scale_interconnects_only() {
        // A path with unit weights at scale k=4 (distances 16..32): with
        // small thresholds at early phases nothing is popular for deg >= 3.
        let g = gen::path(24);
        let (p, sp) = scale_setup(24, ParamMode::Practical);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ctx = ScaleContext {
            exec: &exec,
            view: &view,
            params: &p,
            sp: &sp,
            record_paths: false,
        };
        let mut h = Hopset::new();
        let mut led = Ledger::new();
        let report = build_single_scale(&ctx, &mut h, &mut led);
        assert_eq!(report.weight_bound_violations, 0);
        // All edges must connect distinct vertices with positive weights.
        for e in h.iter() {
            assert_ne!(e.u, e.v);
            assert!(e.w > 0.0);
        }
    }

    #[test]
    fn interconnect_edges_never_undercut_distances() {
        let g = gen::gnm_connected(48, 120, 7, 1.0, 3.0);
        let (p, sp) = scale_setup(48, ParamMode::Practical);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ctx = ScaleContext {
            exec: &exec,
            view: &view,
            params: &p,
            sp: &sp,
            record_paths: false,
        };
        let mut h = Hopset::new();
        let mut led = Ledger::new();
        let report = build_single_scale(&ctx, &mut h, &mut led);
        assert_eq!(report.weight_bound_violations, 0);
        for e in h.iter() {
            let exact = pgraph::exact::dijkstra(&g, e.u).dist[e.v as usize];
            assert!(
                e.w >= exact - 1e-6,
                "edge ({},{}) w={} undercuts d_G={}",
                e.u,
                e.v,
                e.w,
                exact
            );
        }
    }

    #[test]
    fn memory_paths_match_edges() {
        let g = gen::clique_chain(3, 6, 2.0);
        let (p, sp) = scale_setup(g.num_vertices(), ParamMode::Practical);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ctx = ScaleContext {
            exec: &exec,
            view: &view,
            params: &p,
            sp: &sp,
            record_paths: true,
        };
        let mut h = Hopset::new();
        let mut led = Ledger::new();
        let report = build_single_scale(&ctx, &mut h, &mut led);
        assert!(report.edges_added > 0);
        for (i, e) in h.iter().enumerate() {
            let mp = h.path_of(i as u32).expect("paths recorded");
            // Path endpoints match the edge (in either orientation).
            let ends = (mp.start().min(mp.end()), mp.start().max(mp.end()));
            assert_eq!(ends, (e.u.min(e.v), e.u.max(e.v)));
            // Memory property: path weight ≤ edge weight (§4.1).
            assert!(
                mp.weight() <= e.w * (1.0 + 1e-9),
                "memory path heavier than its edge"
            );
            // Practical mode: weight IS the path weight.
            assert!((mp.weight() - e.w).abs() <= 1e-9 * e.w.max(1.0));
            assert!(mp.validate(g.num_vertices()));
        }
    }

    #[test]
    fn theory_mode_weights_use_formulas() {
        let g = gen::clique_chain(3, 6, 2.0);
        let (p, sp) = scale_setup(g.num_vertices(), ParamMode::Theory);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ctx = ScaleContext {
            exec: &exec,
            view: &view,
            params: &p,
            sp: &sp,
            record_paths: false,
        };
        let mut h = Hopset::new();
        let mut led = Ledger::new();
        let report = build_single_scale(&ctx, &mut h, &mut led);
        assert_eq!(
            report.weight_bound_violations, 0,
            "pw must stay within formula bounds"
        );
        for e in h.iter() {
            match e.kind {
                EdgeKind::Supercluster { phase } => {
                    assert!((e.w - sp.supercluster_weights[phase as usize]).abs() < 1e-9);
                }
                EdgeKind::Interconnect { phase } => {
                    assert!(e.w >= 2.0 * sp.radii[phase as usize] - 1e-9);
                }
                EdgeKind::Star => unreachable!("no star edges in single scale"),
            }
        }
    }

    #[test]
    fn determinism_of_scale_construction() {
        let g = gen::gnm_connected(40, 100, 9, 1.0, 4.0);
        let (p, sp) = scale_setup(40, ParamMode::Practical);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ctx = ScaleContext {
            exec: &exec,
            view: &view,
            params: &p,
            sp: &sp,
            record_paths: false,
        };
        let mut h1 = Hopset::new();
        let mut h2 = Hopset::new();
        let mut l1 = Ledger::new();
        let mut l2 = Ledger::new();
        build_single_scale(&ctx, &mut h1, &mut l1);
        build_single_scale(&ctx, &mut h2, &mut l2);
        assert_eq!(h1.len(), h2.len());
        for (a, b) in h1.iter().zip(h2.iter()) {
            assert_eq!((a.u, a.v, a.scale), (b.u, b.v, b.scale));
            assert_eq!(a.w, b.w);
        }
        assert_eq!(l1, l2);
    }

    #[test]
    fn cluster_count_decay_bounds() {
        // Lemma 2.6: |P_{i+1}| ≤ |P_i| / deg_i when superclustering fires;
        // globally |P_i| is non-increasing.
        let g = gen::clique_chain(6, 8, 2.0);
        let (p, sp) = scale_setup(g.num_vertices(), ParamMode::Practical);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ctx = ScaleContext {
            exec: &exec,
            view: &view,
            params: &p,
            sp: &sp,
            record_paths: false,
        };
        let mut h = Hopset::new();
        let mut led = Ledger::new();
        let report = build_single_scale(&ctx, &mut h, &mut led);
        for w in report.phases.windows(2) {
            assert!(w[1].clusters <= w[0].clusters);
        }
        // Lemma 2.5: every supercluster has ≥ deg_i + 1 clusters, so the
        // supercluster count is at most superclustered/(deg_i+1).
        for ph in &report.phases {
            if ph.super_edges > 0 {
                assert!(ph.superclustered >= ph.ruling * (ph.degree + 1));
            }
        }
    }
}
