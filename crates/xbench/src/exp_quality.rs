//! Experiments E6–E9: ruling-set quality, path-reporting SPTs, the weight
//! reduction, and the derandomization-cost comparison (DESIGN.md §6).

use crate::table::{f, n as fmt_n, Table};
use crate::{practical, spread_sources, Config};
use hopset::baseline::build_random_hopset;
use hopset::path_report::validate_spt;
use hopset::reduction::build_reduced_hopset_on;
use hopset::ruling::{ruling_set, verify_ruling};
use hopset::validate::measure_stretch;
use hopset::virtual_bfs::{ExploreScratch, Explorer};
use hopset::{build_hopset_on, BuildOptions, ClusterMemory, ParamMode, Partition};
use pgraph::{gen, Graph, UnionView};
use pram::{Executor, Ledger};

/// E6 — Corollary B.4: `(3, 2·log n)`-ruling sets: measured separation ≥ 3
/// and covering radius ≤ 2·log2 n across graphs and thresholds.
pub fn e6_ruling(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(256);
    let mut t = Table::new(&[
        "graph",
        "threshold",
        "|W|",
        "|Q|",
        "min-sep",
        "max-cover",
        "2log n",
    ]);
    let graphs: Vec<(&str, Graph)> = vec![
        ("gnm", gen::gnm_connected(nn, 3 * nn, 3, 1.0, 4.0)),
        ("grid", gen::unit_grid(16, nn / 16)),
        ("path", gen::path(nn)),
    ];
    for (name, g) in &graphs {
        let part = Partition::singletons(g.num_vertices());
        let cm = ClusterMemory::trivial(g.num_vertices(), false);
        let view = UnionView::base_only(g);
        for &thr in &[1.5f64, 3.0, 6.0] {
            let mut scratch = ExploreScratch::new();
            let ex = Explorer {
                exec: &exec,
                view: &view,
                part: &part,
                cm: &cm,
                threshold: thr,
                hop_limit: 16,
                record_paths: false,
            };
            let w: Vec<u32> = (0..g.num_vertices() as u32).collect();
            let mut led = Ledger::new();
            let q = ruling_set(&ex, &w, &mut scratch, &mut led, None);
            let (sep, cover) = verify_ruling(
                &ex,
                &q,
                &w,
                4 * pgraph::ceil_log2(nn) as usize,
                &mut scratch,
                &mut led,
            );
            t.row(vec![
                name.to_string(),
                f(thr),
                fmt_n(w.len()),
                fmt_n(q.len()),
                if sep == usize::MAX {
                    "inf".into()
                } else {
                    sep.to_string()
                },
                cover.to_string(),
                (2 * pgraph::ceil_log2(nn)).to_string(),
            ]);
        }
    }
    t.print("E6 ruling sets (Cor B.4): min-sep >= 3, max-cover <= 2 log2 n");
}

/// E7 — Theorem 4.6: path-reporting SPTs: validity, stretch, and memory
/// overhead σ against eq. (20).
pub fn e7_spt(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(512);
    let mut t = Table::new(&[
        "family",
        "n",
        "|H|",
        "max path len",
        "sigma bound",
        "tree-in-G",
        "stretch",
        "mismatch",
    ]);
    let families: Vec<(&str, Graph)> = vec![
        ("clique-chain", gen::clique_chain(nn / 16, 16, 2.0)),
        ("gnm", gen::gnm_connected(nn, 3 * nn, 5, 1.0, 8.0)),
        (
            "weighted-path",
            gen::path_weighted(nn, |i| 1.0 + (i % 5) as f64),
        ),
    ];
    for (name, g) in &families {
        let p = practical(g, 0.25, 4, 0.3);
        let built = build_hopset_on(&exec, g, &p, BuildOptions { record_paths: true });
        let max_plen = built
            .hopset
            .paths
            .iter()
            .map(|q| q.len())
            .max()
            .unwrap_or(0);
        let sl = built.hopset.all_slice();
        let view = UnionView::with_overlay_columns(g, sl.us(), sl.vs(), sl.ws());
        let spt = hopset::path_report::build_spt_on(&exec, &view, &built, 0);
        let val = validate_spt(g, &spt);
        t.row(vec![
            name.to_string(),
            fmt_n(g.num_vertices()),
            fmt_n(built.hopset.len()),
            fmt_n(max_plen),
            fmt_n(p.sigma.min(1_000_000_000)),
            (val.non_graph_edges == 0).to_string(),
            f(val.max_stretch),
            (val.distance_mismatches + val.weight_mismatches + val.missing).to_string(),
        ]);
    }
    t.print("E7 path-reporting SPT (Thm 4.6): tree-in-G, stretch <= 1.25, path length <= sigma (eq. 20)");
}

/// E8 — Appendix C: weight-reduction invariants on huge-aspect inputs:
/// eq. (22) per-level weight ratio, eq. (24) star count, eq. (26) node sum.
pub fn e8_reduction(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let mut t = Table::new(&[
        "graph",
        "n",
        "levels",
        "sum nodes",
        "n log n",
        "|S|",
        "max Gk ratio",
        "O(n/eps)",
        "stretch",
    ]);
    let nn = cfg.sz(256);
    let eps = 0.4;
    let graphs: Vec<(&str, Graph)> = vec![
        ("exp-path", gen::exponential_path(nn.min(96), 3.0)),
        ("wide-weights", gen::wide_weights(nn, 2 * nn, 16, 5)),
        ("wide-dense", gen::wide_weights(nn, 4 * nn, 24, 8)),
    ];
    for (name, g) in &graphs {
        let r = build_reduced_hopset_on(
            &exec,
            g,
            eps,
            4,
            0.3,
            ParamMode::Practical,
            BuildOptions::default(),
        )
        .expect("params");
        let n_f = g.num_vertices() as f64;
        let sum_nodes: usize = r.levels.iter().map(|l| l.non_isolated_nodes).sum();
        let max_ratio = r
            .levels
            .iter()
            .filter(|l| l.edges > 0)
            .map(|l| l.aspect_ratio)
            .fold(1.0f64, f64::max);
        let rep = measure_stretch(
            g,
            &r.hopset,
            &spread_sources(g.num_vertices(), 3),
            r.query_hops,
        );
        t.row(vec![
            name.to_string(),
            fmt_n(g.num_vertices()),
            r.levels.len().to_string(),
            fmt_n(sum_nodes),
            fmt_n((n_f * n_f.log2()) as usize),
            fmt_n(r.star_edges),
            f(max_ratio),
            f((1.0 + eps / 3.0) * n_f / (eps / 6.0)),
            f(rep.max_stretch),
        ]);
    }
    t.print("E8 weight reduction (App C): sum-nodes & |S| <= n log n (eqs. 24/26), Gk ratio = O(n/eps) (eq. 22)");
}

/// E9 — the headline trade: deterministic (ruling sets) vs randomized
/// (sampling) superclustering — size, counted work, stretch.
pub fn e9_vs_random(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(512);
    let mut t = Table::new(&[
        "family",
        "det |H|",
        "rnd |H| (avg3)",
        "size ratio",
        "det work",
        "rnd work",
        "det stretch",
        "rnd stretch",
    ]);
    let families: Vec<(&str, Graph)> = vec![
        ("gnm", gen::gnm_connected(nn, 4 * nn, 23, 1.0, 12.0)),
        ("clique-chain", gen::clique_chain(nn / 16, 16, 2.0)),
        ("road-grid", gen::road_grid(16, nn / 16, 3, 1.0, 8.0)),
    ];
    for (name, g) in &families {
        let p = practical(g, 0.25, 4, 0.3);
        let det = build_hopset_on(&exec, g, &p, BuildOptions::default());
        let sources = spread_sources(g.num_vertices(), 3);
        let det_rep = measure_stretch(g, &det.hopset, &sources, p.query_hops);

        let mut rnd_sizes = 0usize;
        let mut rnd_work = 0u64;
        let mut rnd_worst: f64 = 1.0;
        for seed in [1u64, 2, 3] {
            let r = build_random_hopset(&exec, g, &p, seed);
            rnd_sizes += r.hopset.len();
            rnd_work += r.ledger.work();
            let rep = measure_stretch(g, &r.hopset, &sources, p.query_hops);
            rnd_worst = rnd_worst.max(rep.max_stretch);
        }
        let rnd_avg = rnd_sizes as f64 / 3.0;
        t.row(vec![
            name.to_string(),
            fmt_n(det.hopset.len()),
            f(rnd_avg),
            f(det.hopset.len() as f64 / rnd_avg.max(1.0)),
            fmt_n(det.ledger.work() as usize),
            fmt_n((rnd_work / 3) as usize),
            f(det_rep.max_stretch),
            f(rnd_worst),
        ]);
    }
    t.print("E9 derandomization cost: deterministic vs sampling baseline (ratios near 1 = 'no asymptotic cost')");
}
