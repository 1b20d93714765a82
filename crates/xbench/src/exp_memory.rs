//! `memory` — construction at scale: per-phase heap audit + peak RSS.
//!
//! ROADMAP item 3: the evidence for *slightly super-linear work* topped
//! out at n = 64k because the construction path's memory footprint, not
//! the algorithm, was the ceiling. This experiment builds gnm oracles at
//! n up to 10⁷ under the counting allocator ([`crate::alloc`]) with the
//! phase collector armed, and reports
//!
//! * per phase (`gen`, `detect`, `supercluster`, `interconnect`,
//!   `overlay-csr`, `oracle-assembly`): invocation count, allocation
//!   events, peak live heap bytes while open, and net live-byte change;
//! * per size: wall time, edges/sec, peak live heap over the whole
//!   build, and the kernel's `VmHWM` (peak RSS) for the process.
//!
//! Construction parameters follow the at-scale precedent of the
//! `snapshot` experiment (ε = 0.5, κ = 8, hop budgets capped at 32):
//! the point is the construction envelope — bytes/edge and edges/sec —
//! not stretch. `--quick` runs a small single size so every CI leg can
//! smoke the whole accounting path in seconds.
//!
//! Caveat on `VmHWM`: it is a process-lifetime high-water mark, so in a
//! multi-size run only the largest size's value is meaningful; the
//! per-size heap peak comes from the resettable allocator watermark.

use crate::alloc;
use crate::json::{self, Record};
use crate::table::Table;
use crate::Config;
use pgraph::gen;
use pram::Executor;
use sssp::Oracle;

/// One size's measurement.
struct SizeRow {
    n: usize,
    m: usize,
    hopset: usize,
    ms: f64,
    peak_bytes: u64,
    vm_hwm: u64,
    edges_per_sec: f64,
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), 0 where the file is absent (non-Linux).
fn vm_hwm_bytes() -> u64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in s.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb = rest.trim().trim_end_matches("kB").trim();
            return kb.parse::<u64>().unwrap_or(0) * 1024;
        }
    }
    0
}

fn fmt_mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

fn fmt_mib_i(bytes: i64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Build one gnm oracle at size `n` on `exec` with the phase collector armed and
/// return the summary row plus the drained per-phase report.
fn measure(exec: &Executor, n: usize, seed: u64) -> (SizeRow, Vec<alloc::PhaseStats>) {
    let m = 2 * n;
    let _ = alloc::take_phase_report(); // drop stats from a previous size
    alloc::reset_watermark();
    let t0 = std::time::Instant::now();
    let g = {
        let _ph = pram::phase::PhaseScope::enter("gen");
        gen::gnm_connected(n, m, seed, 1.0, 8.0)
    };
    let oracle = Oracle::builder(g)
        .eps(0.5)
        .kappa(8)
        .hop_cap(32)
        .executor(exec.clone())
        .build()
        .expect("oracle construction");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let row = SizeRow {
        n,
        m,
        hopset: oracle.hopset_size(),
        ms,
        peak_bytes: alloc::watermark(),
        vm_hwm: vm_hwm_bytes(),
        edges_per_sec: m as f64 / (ms / 1e3),
    };
    drop(oracle);
    let mut phases = alloc::take_phase_report();
    // First-completion order interleaves scales; sort by peak so the big
    // consumers (LabelArena slots, overlay CSR blocks) lead the table.
    phases.sort_by_key(|p| std::cmp::Reverse(p.peak_bytes));
    (row, phases)
}

/// Entry point for `repro memory [--quick] [--json <path>]`.
pub fn memory(cfg: &Config) {
    alloc::install_phase_collector();
    let sizes: &[usize] = if cfg.quick {
        &[8_192]
    } else {
        &[65_536, 1_048_576, 10_000_000]
    };
    let exec = Executor::new(cfg.threads);
    let threads = exec.threads();
    // One round in which every thread holds a chunk at once (each chunk
    // waits for all the others), so every worker has started and run a
    // task: their start-up allocations land here, before any phase opens,
    // not in the first phase measured. A round whose chunks the caller
    // can claim alone does not wait for its workers (DESIGN.md §5).
    let all_in = std::sync::Barrier::new(threads);
    exec.run_chunks(&exec.task_bounds(threads), |_| {
        all_in.wait();
    });

    let mut summary: Vec<SizeRow> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let (row, phases) = measure(&exec, n, 90 + i as u64);
        let mut records: Vec<Record> = Vec::new();

        let mut t = Table::new(&["phase", "count", "allocs", "peak MiB", "net MiB"]);
        for p in &phases {
            t.row(vec![
                p.name.to_string(),
                p.count.to_string(),
                p.allocs.to_string(),
                fmt_mib(p.peak_bytes),
                fmt_mib_i(p.net_bytes),
            ]);
            records.push(
                Record::new("memory-phase")
                    .u64("n", n as u64)
                    .str("phase", p.name)
                    .u64("count", p.count)
                    .u64("allocs", p.allocs)
                    .u64("peak_bytes", p.peak_bytes)
                    .i64("net_bytes", p.net_bytes),
            );
        }
        t.print(&format!(
            "memory: per-phase heap audit, gnm n = {n}, m = {} (peaks are live-heap high-water marks)",
            row.m
        ));
        records.push(
            Record::new("memory")
                .u64("n", n as u64)
                .u64("m", row.m as u64)
                .u64("threads", threads as u64)
                .f64("ms", row.ms)
                .u64("peak_bytes", row.peak_bytes)
                .u64("vm_hwm_bytes", row.vm_hwm)
                .u64("hopset_edges", row.hopset as u64)
                .f64("edges_per_sec", row.edges_per_sec),
        );
        // Per size, not once at the end: an hours-long multi-size run
        // must not lose every record to a failure at the largest n.
        json::emit(cfg, &records);
        summary.push(row);
    }

    let mut t = Table::new(&[
        "n",
        "m",
        "|H|",
        "s",
        "edges/s",
        "heap peak MiB",
        "B/edge",
        "VmHWM MiB",
    ]);
    for r in &summary {
        t.row(vec![
            r.n.to_string(),
            r.m.to_string(),
            r.hopset.to_string(),
            format!("{:.1}", r.ms / 1e3),
            format!("{:.0}", r.edges_per_sec),
            fmt_mib(r.peak_bytes),
            format!("{:.0}", r.peak_bytes as f64 / r.m as f64),
            fmt_mib(r.vm_hwm),
        ]);
    }
    t.print(&format!(
        "memory: gnm construction envelope (eps 0.5, kappa 8, hop cap 32, threads {threads})"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_memory_runs_and_reports_phases() {
        alloc::run_alone(
            "exp_memory::tests::quick_memory_runs_and_reports_phases",
            || {
                alloc::install_phase_collector();
                let exec = Executor::new(pram::pool::threads_from_env());
                let (row, phases) = measure(&exec, 2_048, 7);
                assert_eq!(row.m, 4_096);
                assert!(row.hopset > 0, "a 2k gnm oracle must have hopset edges");
                assert!(row.peak_bytes > 0 && row.edges_per_sec > 0.0);
                // The construction phases must all have fired under the collector.
                for want in [
                    "gen",
                    "detect",
                    "supercluster",
                    "interconnect",
                    "oracle-assembly",
                ] {
                    assert!(
                        phases.iter().any(|p| p.name == want),
                        "phase {want} missing from report: {:?}",
                        phases.iter().map(|p| p.name).collect::<Vec<_>>()
                    );
                }
            },
        );
    }

    #[test]
    fn vm_hwm_parses_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(vm_hwm_bytes() > 0);
        }
    }
}
