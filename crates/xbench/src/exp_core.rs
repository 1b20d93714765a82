//! Experiments E1–E5: size, stretch, per-scale coverage, counted
//! work/depth, multi-source scaling, and phase decay (DESIGN.md §6).

use crate::table::{f, n as fmt_n, Table};
use crate::{practical, Config};
use hopset::validate::measure_stretch;
use hopset::{build_hopset_on, BuildOptions, HopsetParams, ParamMode};
use pgraph::{exact, gen, Graph, UnionView};
use pram::Executor;
use sssp::eval::spread_sources;
use sssp::DistanceOracle;

/// E1 — Theorem 3.7 / eq. (10): `|H| ≤ ⌈log Λ⌉ · n^{1+1/κ}`.
pub fn e1_size(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let mut t = Table::new(&[
        "n",
        "m",
        "kappa",
        "|H|",
        "bound",
        "|H|/bound",
        "super",
        "inter",
    ]);
    for &nn in &[cfg.sz(256), cfg.sz(512), cfg.sz(1024), cfg.sz(2048)] {
        for &kappa in &[2usize, 3, 4, 6] {
            let g = gen::gnm_connected(nn, 4 * nn, 7, 1.0, 16.0);
            let rho = (1.0 / kappa as f64).min(0.4999);
            let p = practical(&g, 0.25, kappa, rho);
            let built = build_hopset_on(&exec, &g, &p, BuildOptions::default());
            let bound = built.size_bound();
            let (s, i, _) = built.hopset.kind_counts();
            t.row(vec![
                fmt_n(nn),
                fmt_n(g.num_edges()),
                kappa.to_string(),
                fmt_n(built.hopset.len()),
                f(bound),
                f(built.hopset.len() as f64 / bound),
                fmt_n(s),
                fmt_n(i),
            ]);
        }
    }
    t.print("E1 size: |H| vs ceil(log L)*n^{1+1/kappa} (eq. 10) — ratio must be < 1");
}

/// E2 — Theorem 3.7 / Corollary 3.5: stretch at the query hop budget.
pub fn e2_stretch(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let mut t = Table::new(&[
        "family",
        "n",
        "eps",
        "hop cap",
        "beta",
        "max-stretch",
        "mean",
        "undershoot",
        "unreached",
    ]);
    let nn = cfg.sz(1024);
    let families: Vec<(&str, Graph)> = vec![
        ("gnm", gen::gnm_connected(nn, 4 * nn, 3, 1.0, 16.0)),
        ("road-grid", gen::road_grid(32, nn / 32, 5, 1.0, 10.0)),
        ("clique-chain", gen::clique_chain(nn / 16, 16, 2.0)),
        (
            "weighted-path",
            gen::path_weighted(nn, |i| 1.0 + (i % 11) as f64),
        ),
    ];
    for (name, g) in &families {
        for &eps in &[0.1, 0.25, 0.5] {
            // Uncapped (the theorem's budget) and a practical 48-hop cap.
            for cap in [None, Some(48usize)] {
                let p = HopsetParams::new(
                    g.num_vertices(),
                    eps,
                    4,
                    0.3,
                    ParamMode::Practical,
                    g.aspect_ratio_bound(),
                    cap,
                )
                .expect("valid params");
                let built = build_hopset_on(&exec, g, &p, BuildOptions::default());
                let sources = spread_sources(g.num_vertices(), 4);
                let rep = measure_stretch(g, &built.hopset, &sources, p.query_hops);
                t.row(vec![
                    name.to_string(),
                    fmt_n(g.num_vertices()),
                    f(eps),
                    cap.map(|c| c.to_string()).unwrap_or_else(|| "-".into()),
                    fmt_n(p.query_hops),
                    f(rep.max_stretch),
                    f(rep.mean_stretch),
                    rep.undershoots.to_string(),
                    rep.unreached.to_string(),
                ]);
            }
        }
    }
    t.print("E2 stretch at hop budget beta (contract: max-stretch <= 1+eps at budget beta, undershoot = 0)");
}

/// E2b — Lemmas 2.1/3.3: a single-scale hopset `H_k` together with `G`
/// serves *all* distances `≤ 2^{k+1}`, not only its own band.
pub fn e2b_scale(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(512);
    let g = gen::gnm_connected(nn, 3 * nn, 9, 1.0, 24.0);
    let p = practical(&g, 0.25, 4, 0.3);
    let built = build_hopset_on(&exec, &g, &p, BuildOptions::default());
    let sources = spread_sources(nn, 3);
    let mut t = Table::new(&[
        "scale k",
        "|H_k|",
        "pairs<=2^{k+1}",
        "max-stretch",
        "unreached",
    ]);
    for k in built.k0..=built.lambda {
        let sl = built.hopset.scale_slice(k);
        let sz = sl.len();
        let view = UnionView::with_overlay_columns(&g, sl.us(), sl.vs(), sl.ws());
        let ceil = 2f64.powi(k as i32 + 1);
        let mut max_stretch: f64 = 1.0;
        let mut pairs = 0usize;
        let mut unreached = 0usize;
        for &s in &sources {
            let ex = exact::dijkstra(&g, s).dist;
            let ap = exact::bellman_ford_hops(&view, &[s], p.query_hops);
            for v in 0..nn {
                if ex[v] > 0.0 && ex[v] <= ceil {
                    pairs += 1;
                    if ap[v].is_finite() {
                        max_stretch = max_stretch.max(ap[v] / ex[v]);
                    } else {
                        unreached += 1;
                    }
                }
            }
        }
        t.row(vec![
            k.to_string(),
            fmt_n(sz),
            fmt_n(pairs),
            f(max_stretch),
            unreached.to_string(),
        ]);
    }
    t.print("E2b per-scale coverage: G + H_k alone serves all d <= 2^{k+1}");
}

/// E3 — Theorem 3.7: counted work `O((|E|+n^{1+1/κ})·n^ρ·polylog)` and
/// polylogarithmic depth.
pub fn e3_work(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let mut t = Table::new(&[
        "n",
        "m",
        "rho",
        "work",
        "work/unit",
        "depth",
        "depth/log^3 n",
    ]);
    for &nn in &[
        cfg.sz(256),
        cfg.sz(512),
        cfg.sz(1024),
        cfg.sz(2048),
        cfg.sz(4096),
    ] {
        for &rho in &[0.26, 0.3, 0.4] {
            let g = gen::gnm_connected(nn, 4 * nn, 11, 1.0, 16.0);
            let p = practical(&g, 0.25, 4, rho);
            let built = build_hopset_on(&exec, &g, &p, BuildOptions::default());
            let unit = (g.num_edges() as f64 + (nn as f64).powf(1.25)) * (nn as f64).powf(rho);
            let lg = (nn as f64).log2();
            t.row(vec![
                fmt_n(nn),
                fmt_n(g.num_edges()),
                f(rho),
                fmt_n(built.ledger.work() as usize),
                f(built.ledger.work() as f64 / unit),
                fmt_n(built.ledger.depth() as usize),
                f(built.ledger.depth() as f64 / lg.powi(3)),
            ]);
        }
    }
    t.print(
        "E3 counted PRAM cost: work/((m+n^{1+1/k})n^rho) must stay polylog-flat; depth/log^3 n bounded",
    );
}

/// E4 — Theorem 3.8: aMSSD — work grows ~linearly with |S|, depth doesn't.
pub fn e4_msssd(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(1024);
    let g = gen::gnm_connected(nn, 4 * nn, 17, 1.0, 12.0);
    let oracle = sssp::Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .executor(exec)
        .build()
        .expect("params");
    let mut t = Table::new(&["|S|", "work", "work/|S|", "depth", "max-stretch"]);
    for &s in &[1usize, 2, 4, 8, 16] {
        let sources = spread_sources(nn, s);
        let r = oracle.distances_multi(&sources).expect("sources in range");
        let mut worst: f64 = 1.0;
        for (i, &src) in sources.iter().enumerate() {
            let ex = exact::dijkstra(oracle.graph(), src).dist;
            let row = r.dist.row(i);
            #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
            for v in 0..nn {
                if ex[v] > 0.0 && ex[v].is_finite() && row[v].is_finite() {
                    worst = worst.max(row[v] / ex[v]);
                }
            }
        }
        t.row(vec![
            s.to_string(),
            fmt_n(r.ledger.work() as usize),
            fmt_n((r.ledger.work() / s as u64) as usize),
            fmt_n(r.ledger.depth() as usize),
            f(worst),
        ]);
    }
    t.print("E4 aMSSD scaling: work ~ |S|, depth flat (parallel explorations)");
}

/// E5 — Lemmas 2.5–2.7 / eq. (5): per-phase cluster counts against the
/// paper's decay bounds, on two families: a clique chain (one dense scale)
/// and a hierarchical-community graph (dense at every scale, which drives
/// the phase loop through several rounds of superclustering).
pub fn e5_phases(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(1024);
    let families: Vec<(&str, Graph)> = vec![
        ("clique-chain", gen::clique_chain(nn / 16, 16, 2.0)),
        (
            "hierarchical",
            gen::hierarchical(4, if cfg.quick { 4 } else { 5 }, 6.0),
        ),
    ];
    for (name, g) in &families {
        let p = practical(g, 0.25, 4, 0.3);
        let built = build_hopset_on(&exec, g, &p, BuildOptions::default());
        // Representative scale: the one with the most phases executed.
        let rep = built
            .scales
            .iter()
            .max_by_key(|s| (s.phases.len(), s.edges_added))
            .expect("at least one scale");
        let n_f = g.num_vertices() as f64;
        let mut t = Table::new(&[
            "phase i", "deg_i", "|P_i|", "bound", "popular", "|Q_i|", "|U_i|", "s-edges", "i-edges",
        ]);
        for ph in &rep.phases {
            let i = ph.phase as f64;
            let i0 = p.i0 as f64;
            // Lemma 2.6 for the exponential stage, Lemma 2.7 afterwards.
            let bound = if (ph.phase as isize) <= p.i0 {
                n_f.powf(1.0 - (2f64.powf(i) - 1.0) / p.kappa as f64)
            } else {
                n_f.powf(1.0 + 1.0 / p.kappa as f64 - (i - i0) * p.rho)
            };
            t.row(vec![
                ph.phase.to_string(),
                fmt_n(ph.degree),
                fmt_n(ph.clusters),
                f(bound.min(n_f)),
                fmt_n(ph.popular),
                fmt_n(ph.ruling),
                fmt_n(ph.unclustered),
                fmt_n(ph.super_edges),
                fmt_n(ph.inter_edges),
            ]);
        }
        t.print(&format!(
            "E5 phase decay at scale k={} ({name} n={}): |P_i| <= bound (Lemmas 2.6/2.7)",
            rep.k,
            g.num_vertices()
        ));
    }
}
