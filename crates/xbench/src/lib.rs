#![warn(missing_docs)]
//! # xbench — the experiment harness
//!
//! One module per experiment family; every experiment regenerates one
//! "table" or "figure series" of the reproduction (the paper is pure
//! theory, so the tables are its formal claims measured — see DESIGN.md §6
//! for the index and EXPERIMENTS.md for recorded results).
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
pub mod exp_pool;
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
            "pool-overhead",
            "runtime: per-round dispatch latency of the persistent pool",
            exp_pool::pool_overhead,
        ),
        (
            "serve",
            "serving: landmark-certified p2p, batched aMSSD, LRU source cache under load",
            exp_serve::serve,
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
        assert_eq!(reg.len(), 23);
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
