//! Per-layer instruments of the traced run, all from outside the program:
//! a phase-hook observer summing the time spent inside the construction's
//! `pram::phase` scopes, and a rebuild of phase 0 of every scale from the
//! hopset crate's public parts, which times the ruling set apart from the
//! superclustering BFS.

use hopset::{ruling_set, ClusterMemory, ExploreScratch, Explorer, Partition, ScaleParams};
use pgraph::{OverlayCsrBuilder, UnionView};
use pram::phase::{install_phase_hook, phase_hook_installed, PhaseEvent};
use pram::Ledger;
use sssp::Oracle;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Whether this process installed [`on_phase`] as the phase hook.
static OURS: AtomicBool = AtomicBool::new(false);

/// Seconds spent inside each phase scope since the last [`reset_phases`].
static TOTALS: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());

thread_local! {
    /// The scopes open on this thread, innermost last.
    static OPEN: RefCell<Vec<(&'static str, Instant)>> = const { RefCell::new(Vec::new()) };
}

fn on_phase(ev: PhaseEvent, name: &'static str) {
    match ev {
        PhaseEvent::Enter => OPEN.with(|o| o.borrow_mut().push((name, Instant::now()))),
        PhaseEvent::Exit => {
            let Some((open, t)) = OPEN.with(|o| o.borrow_mut().pop()) else {
                return;
            };
            debug_assert_eq!(open, name, "phase scopes unwind in LIFO order");
            let dt = t.elapsed().as_secs_f64();
            // The hook must not panic: a poisoned lock only loses a sample.
            if let Ok(mut totals) = TOTALS.lock() {
                match totals.iter_mut().find(|(n, _)| *n == name) {
                    Some(slot) => slot.1 += dt,
                    None => totals.push((name, dt)),
                }
            }
        }
    }
}

/// Install the phase observer. The hook is process-global and the first
/// install wins, so only the traced run calls this, once per process.
/// Errors if another observer is already installed.
pub fn install() -> Result<(), String> {
    if install_phase_hook(on_phase) {
        OURS.store(true, Ordering::SeqCst);
    }
    if OURS.load(Ordering::SeqCst) && phase_hook_installed() {
        Ok(())
    } else {
        Err("another phase hook is installed in this process".into())
    }
}

/// Zero the phase totals.
pub fn reset_phases() {
    TOTALS.lock().expect("phase totals lock").clear();
}

/// Seconds spent inside the named phase since the last reset.
pub fn phase_seconds(name: &str) -> f64 {
    let totals = TOTALS.lock().expect("phase totals lock");
    totals.iter().find(|(n, _)| *n == name).map_or(0.0, |t| t.1)
}

/// Phase 0 of every scale, rebuilt from public parts.
#[derive(Debug, Default)]
pub struct PhaseZero {
    /// Seconds in `Explorer::detect_neighbors`.
    pub detect_s: f64,
    /// Seconds in `ruling_set`.
    pub ruling_s: f64,
    /// Seconds in the superclustering `Explorer::bfs`.
    pub bfs_s: f64,
    /// Scales whose rebuilt ruling set differs in size from the one the
    /// construction recorded (must be 0: the rebuild is the same phase).
    pub mismatches: usize,
}

/// Rebuild phase 0 of each scale `k` of `oracle`'s hopset on the same
/// exploration graph `G ∪ H_{k-1}` and executor, timing detection, the
/// ruling set and the superclustering BFS separately.
pub fn phase_zero(oracle: &Oracle) -> Option<PhaseZero> {
    let built = oracle.built()?;
    let p = &built.params;
    let g = oracle.graph();
    let n = g.num_vertices();
    let paths = oracle.has_paths();
    let mut out = PhaseZero::default();
    let mut overlay = OverlayCsrBuilder::rolling(n);
    let mut scratch = ExploreScratch::new();
    let mut ledger = Ledger::new();
    let mut eps_prev = 0.0f64;
    for (k, report) in (built.k0..=built.lambda).zip(&built.scales) {
        let view = if k == built.k0 {
            UnionView::base_only(g)
        } else {
            let sl = built.hopset.scale_slice(k - 1);
            UnionView::with_csr(g, overlay.append_scale_seq(sl.us(), sl.vs(), sl.ws()))
        };
        let sp = ScaleParams::derive(p, k, eps_prev);
        eps_prev = (1.0 + eps_prev) * (1.0 + p.eps_scale) - 1.0;
        let part = Partition::singletons(n);
        let cm = ClusterMemory::trivial(n, paths);
        let ex = Explorer {
            exec: oracle.executor(),
            view: &view,
            part: &part,
            cm: &cm,
            threshold: sp.thresholds[0],
            hop_limit: p.hop_limit,
            record_paths: paths,
        };
        // With ℓ = 0 phase 0 is the final phase: detection only.
        let x = if p.ell == 0 {
            part.len()
        } else {
            p.degrees[0] + 1
        };
        let t = Instant::now();
        let m = ex.detect_neighbors(x, &mut scratch, &mut ledger);
        out.detect_s += t.elapsed().as_secs_f64();
        if p.ell == 0 {
            continue;
        }
        let popular: Vec<u32> = (0..part.len() as u32)
            .filter(|&c| m.len_of(c as usize) >= x)
            .collect();
        let t = Instant::now();
        let q = ruling_set(&ex, &popular, &mut scratch, &mut ledger, None);
        out.ruling_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(ex.bfs(&q, p.supercluster_depth(), &mut scratch, &mut ledger));
        out.bfs_s += t.elapsed().as_secs_f64();
        if report.phases.first().map(|ph| ph.ruling) != Some(q.len()) {
            out.mismatches += 1;
        }
    }
    Some(out)
}
