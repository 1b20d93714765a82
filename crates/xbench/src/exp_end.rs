//! Experiments E10 and the figure series F1/F2/F9/F11 (DESIGN.md §6).

use crate::table::{f, n as fmt_n, Table};
use crate::{practical, spread_sources, Config};
use hopset::ruling::{ruling_set, RulingTrace};
use hopset::validate::measure_stretch;
use hopset::virtual_bfs::{ExploreScratch, Explorer};
use hopset::{build_hopset_on, BuildOptions, ClusterMemory, Hopset, Partition};
use pgraph::{exact, gen, Graph, UnionView, INF};
use pram::{Executor, Ledger};
use sssp::{DeltaSteppingOracle, DijkstraOracle, DistanceOracle, Oracle};
use std::sync::Arc;
use std::time::Instant;

/// E10 — Theorem 3.8 end-to-end: all three backends behind the one
/// [`DistanceOracle`] trait — hopset (β-round), Δ-stepping
/// (`Θ(diam/Δ)`-round, exact), sequential Dijkstra (exact) — measured
/// generically, plus the bare Bellman–Ford round count per family.
pub fn e10_sssp(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let mut t = Table::new(&[
        "family",
        "backend",
        "n",
        "m",
        "build ms",
        "query ms",
        "query work",
        "query depth",
        "bound",
        "stretch",
    ]);
    let nn = cfg.sz(4096);
    let families: Vec<(&str, Graph)> = vec![
        ("path", gen::path(nn)),
        ("road-grid", gen::road_grid(64, nn / 64, 7, 1.0, 10.0)),
        ("gnm", gen::gnm_connected(nn, 4 * nn, 5, 1.0, 16.0)),
    ];
    for (name, g) in families {
        let src = 0u32;
        let bare_rounds = sssp::baseline::bf_rounds_to_converge(&exec, &g, src);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let ex = exact::dijkstra(&g, src).dist;
        let g = Arc::new(g);

        // The three backends through the one trait; per-backend build time
        // measured around each constructor.
        let mut backends: Vec<(Box<dyn DistanceOracle>, f64)> = Vec::new();
        let t0 = Instant::now();
        let oracle = Oracle::builder(Arc::clone(&g))
            .eps(0.25)
            .kappa(4)
            .executor(exec.clone())
            .build()
            .expect("params");
        backends.push((Box::new(oracle), t0.elapsed().as_secs_f64() * 1e3));
        let t1 = Instant::now();
        let dstep = DeltaSteppingOracle::new(Arc::clone(&g)).with_executor(exec.clone());
        backends.push((Box::new(dstep), t1.elapsed().as_secs_f64() * 1e3));
        let t2 = Instant::now();
        let dij = DijkstraOracle::new(Arc::clone(&g));
        backends.push((Box::new(dij), t2.elapsed().as_secs_f64() * 1e3));

        for (backend, build_ms) in &backends {
            let tq = Instant::now();
            let (approx, qledger) = backend
                .distances_from_with_ledger(src)
                .expect("source in range");
            let query_ms = tq.elapsed().as_secs_f64() * 1e3;
            let mut worst: f64 = 1.0;
            for v in 0..n {
                if ex[v] > 0.0 && ex[v].is_finite() && approx[v].is_finite() {
                    worst = worst.max(approx[v] / ex[v]);
                }
            }
            t.row(vec![
                name.to_string(),
                backend.name().to_string(),
                fmt_n(n),
                fmt_n(m),
                f(*build_ms),
                f(query_ms),
                fmt_n(qledger.work() as usize),
                fmt_n(qledger.depth() as usize),
                f(backend.stretch_bound()),
                f(worst),
            ]);
        }
        println!("[e10] {name}: bare Bellman-Ford needs {bare_rounds} rounds to converge");
    }
    t.print(
        "E10 end-to-end SSSP via the DistanceOracle trait: query depth — \
         hopset beta, delta-stepping Theta(diam/Delta), dijkstra sequential (= work)",
    );
}

/// F1 — Figure 1 / Lemma 2.1: exploration reach — hop-limited distances in
/// `G_{k-1} = G ∪ H_{k-1}` stay within `(1+ε_{k-1})` for `d ≤ 2^{k+1}`.
pub fn f1_reach(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(512);
    let g = gen::gnm_connected(nn, 3 * nn, 13, 1.0, 24.0);
    let p = practical(&g, 0.25, 4, 0.3);
    let built = build_hopset_on(&exec, &g, &p, BuildOptions::default());
    let sources = spread_sources(nn, 3);
    let mut t = Table::new(&[
        "scale k",
        "1+eps_{k-1}",
        "pairs",
        "max d^(2b+1)/d",
        "unreached",
    ]);
    let mut eps_prev = 0.0f64;
    for k in built.k0..=built.lambda {
        let sl = built.hopset.scale_slice(k.saturating_sub(1));
        let view = if k == built.k0 {
            UnionView::base_only(&g)
        } else {
            UnionView::with_overlay_columns(&g, sl.us(), sl.vs(), sl.ws())
        };
        let ceil = 2f64.powi(k as i32 + 1);
        let mut worst: f64 = 1.0;
        let mut pairs = 0usize;
        let mut unreached = 0usize;
        for &s in &sources {
            let ex = exact::dijkstra(&g, s).dist;
            let ap = exact::bellman_ford_hops(&view, &[s], p.hop_limit);
            for v in 0..nn {
                if ex[v] > 0.0 && ex[v] <= ceil {
                    pairs += 1;
                    if ap[v] == INF {
                        unreached += 1;
                    } else {
                        worst = worst.max(ap[v] / ex[v]);
                    }
                }
            }
        }
        t.row(vec![
            k.to_string(),
            f(1.0 + eps_prev),
            fmt_n(pairs),
            f(worst),
            unreached.to_string(),
        ]);
        eps_prev = (1.0 + eps_prev) * (1.0 + p.eps_scale) - 1.0;
    }
    t.print("F1 exploration reach (Lemma 2.1): hop-limited G_{k-1} distances vs exact");
}

/// F2 — Figures 4–5 / eq. (18): the stretch-vs-hop-budget trade-off curve,
/// with and without the hopset.
pub fn f2_hops(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(1024);
    let budgets = [8usize, 16, 24, 32, 48, 64, 96, 128];
    let mut t = Table::new(&[
        "family",
        "hops",
        "with H: stretch",
        "with H: unreached",
        "bare: unreached",
    ]);
    let families: Vec<(&str, Graph)> = vec![
        ("path", gen::path(nn)),
        ("grid", gen::unit_grid(32, nn / 32)),
        ("road-grid", gen::road_grid(32, nn / 32, 3, 1.0, 10.0)),
    ];
    for (name, g) in families {
        let sources = spread_sources(g.num_vertices(), 2);
        // The figure's H is Theorem 3.7's hopset for the aspect bound, as in
        // F1: the oracle would certify these graphs at its β budget and
        // build no scale, which says nothing about budgets below β.
        let built = build_hopset_on(
            &exec,
            &g,
            &practical(&g, 0.25, 4, 0.3),
            BuildOptions::default(),
        );
        for hops in budgets {
            let with = measure_stretch(&g, &built.hopset, &sources, hops);
            let bare = measure_stretch(&g, &Hopset::new(), &sources, hops);
            t.row(vec![
                name.to_string(),
                hops.to_string(),
                f(with.max_stretch),
                with.unreached.to_string(),
                bare.unreached.to_string(),
            ]);
        }
    }
    t.print("F2 stretch vs hop budget (the eq. (2) trade-off, measured): hopset turns unreachable into (1+eps)");
}

/// F9 — Figure 9: the ruling-set knock-out recursion, level by level.
pub fn f9_knockout(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(512);
    let g = gen::gnm_connected(nn, 3 * nn, 7, 1.0, 4.0);
    let part = Partition::singletons(nn);
    let cm = ClusterMemory::trivial(nn, false);
    let view = UnionView::base_only(&g);
    let ex = Explorer {
        exec: &exec,
        view: &view,
        part: &part,
        cm: &cm,
        threshold: 2.5,
        hop_limit: 16,
        record_paths: false,
    };
    let w: Vec<u32> = (0..nn as u32).collect();
    let mut led = Ledger::new();
    let mut trace = RulingTrace::default();
    let q = ruling_set(
        &ex,
        &w,
        &mut ExploreScratch::new(),
        &mut led,
        Some(&mut trace),
    );
    let mut t = Table::new(&[
        "level (bit)",
        "sources B0",
        "candidates B1",
        "knocked out",
        "alive",
    ]);
    for l in &trace.levels {
        t.row(vec![
            l.level.to_string(),
            fmt_n(l.sources),
            fmt_n(l.candidates),
            fmt_n(l.knocked_out),
            fmt_n(l.alive_after),
        ]);
    }
    t.print(&format!(
        "F9 knock-out recursion (Fig. 9): |W| = {} -> |Q| = {} over {} bit levels",
        nn,
        q.len(),
        trace.levels.len()
    ));
}

/// F11 — Figure 11: the peeling process — edge-type composition of the
/// working tree per iteration.
pub fn f11_peeling(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(512);
    let g = gen::clique_chain(nn / 16, 16, 2.0);
    let p = practical(&g, 0.25, 4, 0.3);
    let built = build_hopset_on(&exec, &g, &p, BuildOptions { record_paths: true });
    let sl = built.hopset.all_slice();
    let view = UnionView::with_overlay_columns(&g, sl.us(), sl.vs(), sl.ws());
    let spt = hopset::path_report::build_spt_on(&exec, &view, &built, 0);
    let mut t = Table::new(&[
        "iteration (scale)",
        "graph edges",
        "hopset edges",
        "replaced",
        "triplets",
        "improved",
    ]);
    for st in &spt.peel_stats {
        t.row(vec![
            st.scale.to_string(),
            fmt_n(st.graph_edges),
            fmt_n(st.hopset_edges),
            fmt_n(st.replaced),
            fmt_n(st.triplets),
            fmt_n(st.improved),
        ]);
    }
    let val = hopset::path_report::validate_spt(&g, &spt);
    t.print(&format!(
        "F11 peeling composition (Fig. 11): hopset edges -> 0; final tree in G = {}, stretch = {:.4}",
        val.non_graph_edges == 0,
        val.max_stretch
    ));
}
