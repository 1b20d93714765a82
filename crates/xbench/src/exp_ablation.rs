//! Ablations A1/A2: the design choices DESIGN.md §4 calls out.
//!
//! * **A1** — the δ-schedule erratum: the paper's printed
//!   `α = ℓ·2^{k+1}` (δ growing *past* the scale from phase 0) versus the
//!   erratum-corrected geometric schedule `δ_i = 2^{k+1}·ε^{ℓ-1-i}` that
//!   Lemma 2.8 / Corollary 3.5 actually require.
//! * **A2** — `ParamMode::Theory` (the paper's constants verbatim,
//!   including the §3.4 ε-rescaling) versus `ParamMode::Practical`
//!   (identical algorithm, measured constants).

use crate::table::{f, n as fmt_n, Table};
use crate::{spread_sources, Config};
use hopset::validate::measure_stretch;
use hopset::{build_hopset_on, BuildOptions, DeltaSchedule, HopsetParams, ParamMode};
use pgraph::{gen, Graph};
use pram::Executor;

/// A1 — PaperLiteral vs Corrected δ-schedule.
pub fn a1_delta(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(512);
    let mut t = Table::new(&[
        "family",
        "schedule",
        "|H|",
        "work",
        "max-stretch",
        "undershoot",
    ]);
    let families: Vec<(&str, Graph)> = vec![
        ("gnm", gen::gnm_connected(nn, 4 * nn, 3, 1.0, 16.0)),
        ("clique-chain", gen::clique_chain(nn / 16, 16, 2.0)),
        (
            "weighted-path",
            gen::path_weighted(nn, |i| 1.0 + (i % 11) as f64),
        ),
    ];
    for (name, g) in &families {
        for sched in [DeltaSchedule::Corrected, DeltaSchedule::PaperLiteral] {
            let mut p = HopsetParams::new(
                g.num_vertices(),
                0.25,
                4,
                0.3,
                ParamMode::Practical,
                g.aspect_ratio_bound(),
                None,
            )
            .expect("params");
            p.delta_schedule = sched;
            let built = build_hopset_on(&exec, g, &p, BuildOptions::default());
            let rep = measure_stretch(
                g,
                &built.hopset,
                &spread_sources(g.num_vertices(), 3),
                p.query_hops,
            );
            t.row(vec![
                name.to_string(),
                format!("{sched:?}"),
                fmt_n(built.hopset.len()),
                fmt_n(built.ledger.work() as usize),
                f(rep.max_stretch),
                rep.undershoots.to_string(),
            ]);
        }
    }
    t.print("A1 delta-schedule ablation: printed alpha = l*2^{k+1} vs erratum-corrected geometric (DESIGN.md §4)");
}

/// A2 — Theory vs Practical constants (small n; Theory's β is capped at n).
pub fn a2_mode(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let nn = cfg.sz(128).min(128);
    let mut t = Table::new(&[
        "mode",
        "eps_int",
        "beta",
        "|H|",
        "work",
        "max edge w",
        "max-stretch",
    ]);
    let g = gen::gnm_connected(nn, 3 * nn, 9, 1.0, 8.0);
    for mode in [ParamMode::Practical, ParamMode::Theory] {
        let p = HopsetParams::new(
            g.num_vertices(),
            0.25,
            4,
            0.3,
            mode,
            g.aspect_ratio_bound(),
            None,
        )
        .expect("params");
        let built = build_hopset_on(&exec, &g, &p, BuildOptions::default());
        let max_w = built.hopset.ws().iter().copied().fold(0.0f64, f64::max);
        let rep = measure_stretch(
            &g,
            &built.hopset,
            &spread_sources(g.num_vertices(), 3),
            p.query_hops,
        );
        t.row(vec![
            format!("{mode:?}"),
            f(p.eps_int),
            if p.beta == usize::MAX {
                "inf".into()
            } else {
                fmt_n(p.beta)
            },
            fmt_n(built.hopset.len()),
            fmt_n(built.ledger.work() as usize),
            f(max_w),
            f(rep.max_stretch),
        ]);
    }
    t.print("A2 mode ablation: Theory (paper constants, formula weights) vs Practical (realized weights)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_quick() {
        let cfg = Config {
            quick: true,
            threads: pram::pool::threads_from_env(),
            ..Default::default()
        };
        a1_delta(&cfg);
        a2_mode(&cfg);
    }
}
