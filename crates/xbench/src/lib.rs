#![warn(missing_docs)]
//! # xbench — the experiment harness
//!
//! One module per experiment family; every experiment regenerates one
//! "table" or "figure series" of the reproduction (the paper is pure
//! theory, so the tables are its formal claims measured — see DESIGN.md §6
//! for the index and EXPERIMENTS.md for recorded results).
//!
//! Wall-clock has one harness per job: perfbench (`BENCHMARK.json`) times
//! the library's paths on its fixed workloads, and the experiments here
//! keep the counted tables plus what perfbench does not time — E10's wall
//! columns, the `serve-open` rate sweep, the 1M `snapshot` leg and the
//! `memory` audit.
//!
//! Run everything: `cargo run --release -p xbench --bin repro -- all`
//! Run one: `cargo run --release -p xbench --bin repro -- e2-stretch`
//! Quick mode (smaller sizes): append `--quick`.

pub mod alloc;
pub mod exp_ablation;
pub mod exp_core;
pub mod exp_end;
pub mod exp_lint;
pub mod exp_memory;
pub mod exp_quality;
pub mod exp_serve;
pub mod exp_snapshot;
pub mod json;
pub mod table;

/// Global experiment configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Shrink sizes for fast smoke runs.
    pub quick: bool,
    /// Append machine-readable JSON-lines records here (`--json <path>`).
    pub json: Option<std::path::PathBuf>,
    /// Thread count of the pools the experiments run on (`0` clamps to
    /// `1`). `repro` resolves it once with
    /// [`pram::pool::threads_from_env`]; counted outputs do not depend on
    /// it (DESIGN.md §5).
    pub threads: usize,
}

impl Config {
    /// Scale a size down in quick mode.
    pub fn sz(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(32)
        } else {
            full
        }
    }
}

/// Practical-mode parameters for `g` with no hop cap: the construction
/// the experiments run unless they study a cap or Theory mode.
pub(crate) fn practical(
    g: &pgraph::Graph,
    eps: f64,
    kappa: usize,
    rho: f64,
) -> hopset::HopsetParams {
    hopset::HopsetParams::new(
        g.num_vertices(),
        eps,
        kappa,
        rho,
        hopset::ParamMode::Practical,
        g.aspect_ratio_bound(),
        None,
    )
    .expect("valid params")
}

/// The registry of experiments: (id, description, runner).
pub type Runner = fn(&Config);

/// All experiments in DESIGN.md §6 order.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "e1-size",
            "Thm 3.7: hopset size vs ceil(log L)*n^{1+1/k}",
            exp_core::e1_size,
        ),
        (
            "e2-stretch",
            "Thm 3.7/Cor 3.5: stretch at hop budget",
            exp_core::e2_stretch,
        ),
        (
            "e2b-scale",
            "Lemma 2.1/3.3: per-scale coverage",
            exp_core::e2b_scale,
        ),
        (
            "e3-work",
            "Thm 3.7: counted work/depth vs bounds",
            exp_core::e3_work,
        ),
        (
            "e4-msssd",
            "Thm 3.8: multi-source scaling",
            exp_core::e4_msssd,
        ),
        (
            "e5-phases",
            "Lemmas 2.5-2.7: cluster-count decay",
            exp_core::e5_phases,
        ),
        (
            "e6-ruling",
            "Cor B.4: ruling-set quality",
            exp_quality::e6_ruling,
        ),
        ("e7-spt", "Thm 4.6: path-reporting SPT", exp_quality::e7_spt),
        (
            "e8-reduction",
            "App C: weight-reduction invariants",
            exp_quality::e8_reduction,
        ),
        (
            "e9-vs-random",
            "derandomization cost vs sampling baseline",
            exp_quality::e9_vs_random,
        ),
        (
            "e10-sssp",
            "Thm 3.8 end-to-end vs baselines",
            exp_end::e10_sssp,
        ),
        (
            "f1-reach",
            "Fig 1/Lemma 2.1: exploration reach",
            exp_end::f1_reach,
        ),
        (
            "f2-hops",
            "Figs 4-5/eq 18: stretch-vs-hop-budget curves",
            exp_end::f2_hops,
        ),
        (
            "f9-knockout",
            "Fig 9: ruling-set knockout recursion",
            exp_end::f9_knockout,
        ),
        (
            "f11-peeling",
            "Fig 11: peeling composition series",
            exp_end::f11_peeling,
        ),
        (
            "a1-delta",
            "ablation: printed vs corrected delta schedule",
            exp_ablation::a1_delta,
        ),
        (
            "a2-mode",
            "ablation: Theory vs Practical constants",
            exp_ablation::a2_mode,
        ),
        (
            "serve-open",
            "serving: open-loop arrival sweep, admission gate bounding p99 (DESIGN.md §9)",
            exp_serve::serve_open,
        ),
        (
            "snapshot",
            "persistence: construct-vs-load wall times and bytes (DESIGN.md §11)",
            exp_snapshot::snapshot,
        ),
        (
            "memory",
            "construction at scale: per-phase heap audit + peak RSS (DESIGN.md §12)",
            exp_memory::memory,
        ),
        (
            "lint",
            "gate: xlint determinism-contract static analysis (DESIGN.md §10)",
            exp_lint::lint,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let reg = registry();
        let mut ids: Vec<_> = reg.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
        assert_eq!(reg.len(), 21);
    }

    /// The repository root (this crate sits at `crates/xbench`).
    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");

    /// DESIGN.md §6 tabulates exactly `registry()`'s ids, in order: the
    /// first backticked token of each table row is an id.
    #[test]
    fn registry_matches_design_table() {
        let design = std::fs::read_to_string(format!("{ROOT}DESIGN.md")).expect("DESIGN.md");
        let table: Vec<&str> = design
            .lines()
            .skip_while(|l| !l.starts_with("## §6 "))
            .skip(1)
            .take_while(|l| !l.starts_with("## "))
            .filter(|l| l.starts_with('|'))
            .filter_map(|l| l.split('`').nth(1))
            .collect();
        let ids: Vec<&str> = registry().iter().map(|r| r.0).collect();
        assert_eq!(table, ids, "DESIGN.md §6 and registry() disagree");
    }

    /// Every record of every `BENCH_*.json` at the root names a registered
    /// experiment: its `"experiment"` value is an id, or an id followed by
    /// `-` and a record kind (the memory audit writes `memory-phase`).
    #[test]
    fn bench_artifacts_name_registered_experiments() {
        let ids: Vec<&str> = registry().iter().map(|r| r.0).collect();
        let mut records = 0;
        for entry in std::fs::read_dir(ROOT).expect("repository root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let body = std::fs::read_to_string(&path).expect("artifact readable");
            for line in body.lines().filter(|l| !l.trim().is_empty()) {
                let experiment = line
                    .split("\"experiment\":\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or_else(|| panic!("{name}: record names no experiment: {line}"));
                assert!(
                    ids.iter().any(|id| experiment
                        .strip_prefix(id)
                        .is_some_and(|kind| kind.is_empty() || kind.starts_with('-'))),
                    "{name}: {experiment:?} is not a registered experiment"
                );
                records += 1;
            }
        }
        assert!(
            records > 0,
            "no BENCH_*.json records at the repository root"
        );
    }

    #[test]
    fn quick_mode_shrinks() {
        let c = Config {
            quick: true,
            ..Default::default()
        };
        assert_eq!(c.sz(1024), 256);
        assert_eq!(c.sz(64), 32);
        let f = Config::default();
        assert_eq!(f.sz(1024), 1024);
    }
}
