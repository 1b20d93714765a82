//! Experiment SNAPSHOT — the persistence plane (DESIGN.md §6, §11).
//!
//! The oracle is the expensive artifact: construction dominates, queries
//! are cheap. This experiment measures what the snapshot container buys:
//!
//! 1. **construct vs load** — build a road-grid oracle, save it with
//!    [`Oracle::save_snapshot`], reload it with
//!    [`OracleBuilder::from_snapshot_on`], and compare wall times. The
//!    headline: loading must sit an order of magnitude below constructing
//!    at n = 64k (the acceptance bar), and stay flat-cheap at n = 1M.
//! 2. **bytes on disk** — the container is the SoA columns verbatim plus
//!    a checksummed header, so size is predictable; the table records it
//!    next to |E| and |H|.
//! 3. **bit-identity spot checks** — a handful of `distance(u, v)` probes
//!    on the loaded oracle must equal the original to the bit (the full
//!    contract is pinned by `tests/snapshot.rs`; here we just refuse to
//!    print numbers for a snapshot that lies).
//!
//! Scenarios are road grids (the paper's motivating graph family for
//! serving): 256×256 (n = 65,536) at serving-grade parameters for the
//! speedup bar, and 1024×1024 (n = 1,048,576) for the at-scale run —
//! the latter with sparser construction parameters (κ = 8, hop budgets
//! capped) to keep the one-off construction affordable on one machine.

use crate::table::{f, n as fmt_n, Table};
use crate::Config;
use pgraph::gen;
use pram::Executor;
use sssp::{DistanceOracle, Oracle, OracleBuilder};
use std::time::Instant;

/// Spot-check probe pairs: near the corners and the middle (early-exit
/// point-to-point keeps these cheap even at n = 1M).
fn probe_pairs(n: usize) -> Vec<(u32, u32)> {
    let n = n as u32;
    vec![(0, 1), (0, n / 2), (n / 2, n / 2 + 1), (n - 2, n - 1)]
}

/// One scenario: build a `rows × cols` road-grid oracle on `exec`,
/// snapshot it to a temp file, reload it onto `exec`, verify, and append a
/// table row. Returns (construct seconds, load seconds).
fn scenario(
    exec: &Executor,
    t: &mut Table,
    label: &str,
    (rows, cols): (usize, usize),
    eps: f64,
    kappa: usize,
    hop_cap: Option<usize>,
) -> (f64, f64) {
    let g = gen::road_grid(rows, cols, 7, 1.0, 10.0);
    let (n, m) = (g.num_vertices(), g.num_edges());
    let t0 = Instant::now();
    let mut b = Oracle::builder(g)
        .eps(eps)
        .kappa(kappa)
        .executor(exec.clone());
    if let Some(cap) = hop_cap {
        b = b.hop_cap(cap);
    }
    let oracle = b.build().expect("params");
    let construct_s = t0.elapsed().as_secs_f64();

    let path = std::env::temp_dir().join(format!("pram-sssp-snapshot-{n}.bin"));
    let t0 = Instant::now();
    oracle.save_snapshot(&path).expect("save snapshot");
    let save_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).expect("snapshot file").len();
    assert_eq!(bytes, oracle.snapshot_size(), "declared size is exact");

    let t0 = Instant::now();
    let loaded = OracleBuilder::from_snapshot_on(&path, exec.clone()).expect("load snapshot");
    let load_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);

    for (u, v) in probe_pairs(n) {
        let a = oracle.distance(u, v).expect("in range");
        let b = loaded.distance(u, v).expect("in range");
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "loaded oracle must answer bit-identically (pair {u}-{v})"
        );
    }

    t.row(vec![
        label.to_string(),
        fmt_n(n),
        fmt_n(m),
        fmt_n(oracle.hopset_size()),
        f(construct_s),
        f(save_s),
        f(load_s),
        format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        format!("{:.0}x", construct_s / load_s.max(1e-9)),
    ]);
    (construct_s, load_s)
}

/// The `snapshot` experiment: persistence-plane wall times and sizes
/// (EXPERIMENTS.md).
pub fn snapshot(cfg: &Config) {
    let exec = Executor::new(cfg.threads);
    let mut t = Table::new(&[
        "scenario",
        "n",
        "m",
        "|H|",
        "construct s",
        "save s",
        "load s",
        "MiB",
        "speedup",
    ]);
    if cfg.quick {
        // CI smoke: one small grid, same code path end to end.
        scenario(&exec, &mut t, "grid 48x48", (48, 48), 0.25, 4, None);
    } else {
        // The speedup bar: serving-grade parameters at n = 64k.
        let (c64k, l64k) = scenario(&exec, &mut t, "grid 256x256", (256, 256), 0.25, 4, None);
        println!(
            "[snapshot] n = 64k: load is {:.0}x faster than construction \
             ({:.2} s -> {:.3} s)",
            c64k / l64k.max(1e-9),
            c64k,
            l64k
        );
        // The at-scale run: 1M vertices with sparser construction
        // parameters (κ = 8 ⇒ |H| ~ n^{1+1/8}, hop budgets capped at 32)
        // so the one-off build stays affordable on one machine — the
        // point here is the persistence plane at scale, not stretch.
        scenario(
            &exec,
            &mut t,
            "grid 1024x1024 (k=8 cap=32)",
            (1024, 1024),
            0.5,
            8,
            Some(32),
        );
    }
    t.print(
        "snapshot: construct once, load forever (bit-identity spot-checked \
         here; the full round-trip contract is pinned in tests/snapshot.rs)",
    );
}
