//! Counting global allocator + per-phase memory accounting.
//!
//! Allocation counts show what wall-clock alone under-sells on a noisy
//! container (the `memory` table's per-phase `allocs` column). Beside
//! the count, the allocator keeps a full heap audit: live bytes, absolute
//! peak bytes, and a resettable *high-water mark* that lets a scoped
//! phase guard (`pram::phase::PhaseScope`) attribute peak usage to one
//! construction phase
//! (LabelArena slabs, per-scale CSR blocks, oracle assembly — ROADMAP
//! item 3).
//!
//! Costs: one relaxed `fetch_add` + two relaxed `fetch_max` per `alloc`,
//! one `fetch_sub` per `dealloc` — exact, not sampled. The hot loops this
//! workspace measures are allocation-free by design, so the bookkeeping
//! rides on the rare allocation, not on the measured rounds (the
//! `pool-overhead` table re-recorded under the counting allocator matched
//! the PR-4 numbers within noise; see EXPERIMENTS.md). If a future bench
//! becomes allocation-bound, gate this behind a feature.
//!
//! ## Phase attribution
//!
//! [`install_phase_collector`] hooks `pram::phase` (the seam the
//! algorithm crates bracket their construction phases with) and records,
//! per phase name: invocation count, allocation count, net bytes, and the
//! high-water mark of live heap bytes observed while the phase ran. The
//! watermark is a single global cell reset on phase entry; worker threads
//! allocating concurrently are *included* in the phase that is open —
//! that is the point (the pulse engine's arena grows on worker threads).
//! Nested phases fold their peak into the parent on exit so the parent's
//! watermark never under-reports. The collector is measurement-only: it
//! can overstate a child's peak by at most the parent's true peak under
//! concurrent allocation races, and it never affects computed values.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pram::phase::{install_phase_hook, PhaseEvent};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes right now (alloc adds, dealloc subtracts).
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Absolute peak of `BYTES` since process start. Never reset.
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Resettable high-water mark of `BYTES` — the phase-scoped peak.
static WATER: AtomicU64 = AtomicU64::new(0);

#[inline]
fn on_grow(sz: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let cur = BYTES.fetch_add(sz, Ordering::Relaxed) + sz;
    PEAK.fetch_max(cur, Ordering::Relaxed);
    WATER.fetch_max(cur, Ordering::Relaxed);
}

/// The counting wrapper around [`System`].
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded to
    // `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_grow(layout.size() as u64);
        }
        p
    }

    // SAFETY: `ptr`/`layout` came from `System.alloc` via the method above,
    // so forwarding the pair back to `System` is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: same forwarding argument as `dealloc` — the pointer being
    // reallocated was produced by `System` through this wrapper.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Charge the delta so BYTES stays exact; count it as one
            // allocation event either way.
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                on_grow(new - old);
            } else {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
                BYTES.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (`alloc` + `realloc` calls) since process start.
/// Subtract two readings to charge a region of code.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Live heap bytes right now.
pub fn current_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Absolute peak of live heap bytes since process start (never reset).
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// The resettable high-water mark: max live bytes since the last
/// [`reset_watermark`]. Equals [`peak_bytes`] if never reset.
pub fn watermark() -> u64 {
    WATER.load(Ordering::Relaxed)
}

/// Reset the high-water mark to the current live-byte count and return
/// the value it had. The absolute [`peak_bytes`] is unaffected.
pub fn reset_watermark() -> u64 {
    // An allocation racing the swap re-raises WATER via fetch_max; at
    // worst the new interval inherits a few in-flight bytes, never loses
    // a peak.
    WATER.swap(BYTES.load(Ordering::Relaxed), Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Phase collector
// ---------------------------------------------------------------------------

/// Aggregated statistics for one named construction phase.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Phase name as passed to `pram::phase::PhaseScope::enter`.
    pub name: &'static str,
    /// Times the phase was entered.
    pub count: u64,
    /// Heap allocation events while the phase was open.
    pub allocs: u64,
    /// Max live heap bytes observed while the phase was open (absolute
    /// value, i.e. including memory allocated before the phase).
    pub peak_bytes: u64,
    /// Net live-byte change across the phase (can be negative when a
    /// phase frees more than it allocates).
    pub net_bytes: i64,
}

/// One open phase frame on the collector stack.
struct Frame {
    name: &'static str,
    allocs_at_enter: u64,
    bytes_at_enter: u64,
    /// High-water mark of the *enclosing* interval, saved so the parent's
    /// peak survives the child's watermark reset.
    outer_water: u64,
}

#[derive(Default)]
struct Collector {
    stack: Vec<Frame>,
    done: Vec<PhaseStats>,
}

static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

fn phase_observer(ev: PhaseEvent, name: &'static str) {
    let mut guard = match COLLECTOR.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let Some(col) = guard.as_mut() else { return };
    match ev {
        PhaseEvent::Enter => {
            let outer_water = reset_watermark();
            col.stack.push(Frame {
                name,
                allocs_at_enter: alloc_count(),
                bytes_at_enter: current_bytes(),
                outer_water,
            });
        }
        PhaseEvent::Exit => {
            // Scopes are LIFO per thread and construction phases run on
            // the coordinating thread, so the top frame is ours. A
            // mismatched name means interleaved scopes from another
            // thread; drop the event rather than mis-attribute.
            let matches = col
                .stack
                .last()
                .is_some_and(|f| std::ptr::eq(f.name.as_ptr(), name.as_ptr()) || f.name == name);
            if !matches {
                return;
            }
            let f = col.stack.pop().expect("checked non-empty");
            let this_peak = watermark();
            let allocs = alloc_count() - f.allocs_at_enter;
            let net = current_bytes() as i64 - f.bytes_at_enter as i64;
            // Fold this interval's peak back so the parent's watermark
            // accounts for the child's usage.
            WATER.fetch_max(f.outer_water.max(this_peak), Ordering::Relaxed);
            match col.done.iter_mut().find(|s| s.name == name) {
                Some(s) => {
                    s.count += 1;
                    s.allocs += allocs;
                    s.peak_bytes = s.peak_bytes.max(this_peak);
                    s.net_bytes += net;
                }
                None => col.done.push(PhaseStats {
                    name,
                    count: 1,
                    allocs,
                    peak_bytes: this_peak,
                    net_bytes: net,
                }),
            }
        }
    }
}

/// Arm per-phase accounting: installs the `pram::phase` hook (first call
/// in the process wins; the harness calls this once at experiment start)
/// and activates the collector. Idempotent.
pub fn install_phase_collector() {
    {
        let mut guard = match COLLECTOR.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if guard.is_none() {
            *guard = Some(Collector::default());
        }
    }
    install_phase_hook(phase_observer);
}

/// Drain the aggregated phase report (in first-completion order) and
/// clear it for the next measured region. Returns an empty vec if
/// [`install_phase_collector`] was never called.
pub fn take_phase_report() -> Vec<PhaseStats> {
    let mut guard = match COLLECTOR.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    match guard.as_mut() {
        Some(col) => std::mem::take(&mut col.done),
        None => Vec::new(),
    }
}

/// Run the test `name` (its path in this test binary, e.g.
/// `alloc::tests::watermark_resets_but_peak_does_not`) with `body` as its
/// body, in a child process of the test binary that runs that test alone.
///
/// The live-byte counter, the watermark and the phase collector are global
/// to the process. Next to other tests, another test thread can free
/// memory between two reads of the live-byte counter, or drain the phase
/// report a test is about to read. In the child no other test runs, so
/// those reads see only `body`'s own heap traffic.
#[cfg(test)]
pub(crate) fn run_alone(name: &str, body: fn()) {
    const ALONE: &str = "XBENCH_TEST_ALONE";
    if std::env::var_os(ALONE).is_some_and(|v| v == name) {
        body();
        return;
    }
    let exe = std::env::current_exe().expect("path of the test binary");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads=1"])
        .env(ALONE, name)
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} failed when run alone:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_advances_on_allocation() {
        let before = alloc_count();
        let v: Vec<u64> = (0..1024).collect();
        std::hint::black_box(&v);
        assert!(alloc_count() > before);
    }

    #[test]
    fn bytes_track_live_heap_and_peak_is_monotone() {
        run_alone(
            "alloc::tests::bytes_track_live_heap_and_peak_is_monotone",
            || {
                let live0 = current_bytes();
                let peak0 = peak_bytes();
                let v: Vec<u64> = vec![0; 1 << 16]; // 512 KiB
                std::hint::black_box(&v);
                let live1 = current_bytes();
                assert!(
                    live1 >= live0 + (1 << 19),
                    "512 KiB allocation must show up in live bytes ({live0} -> {live1})"
                );
                assert!(peak_bytes() >= peak0.max(live1));
                drop(v);
                assert!(current_bytes() < live1, "dealloc must subtract");
                assert!(peak_bytes() >= live1, "absolute peak never decreases");
            },
        );
    }

    #[test]
    fn watermark_resets_but_peak_does_not() {
        run_alone("alloc::tests::watermark_resets_but_peak_does_not", || {
            let v: Vec<u8> = vec![0; 1 << 20];
            std::hint::black_box(&v);
            drop(v);
            let peak = peak_bytes();
            reset_watermark();
            let w = watermark();
            // Watermark restarts from current live bytes, strictly below the
            // 1 MiB spike we just freed; absolute peak keeps it.
            assert!(
                w <= current_bytes() + (1 << 16),
                "watermark {w} should restart near live"
            );
            assert!(peak_bytes() >= peak);
            let v2: Vec<u8> = vec![0; 1 << 18];
            std::hint::black_box(&v2);
            assert!(watermark() >= current_bytes());
        });
    }

    #[test]
    fn phase_collector_attributes_spikes() {
        run_alone("alloc::tests::phase_collector_attributes_spikes", || {
            install_phase_collector();
            let _ = take_phase_report();
            {
                let _outer = pram::phase::PhaseScope::enter("t-outer");
                {
                    let _inner = pram::phase::PhaseScope::enter("t-inner");
                    let v: Vec<u8> = vec![0; 1 << 21]; // 2 MiB spike inside inner
                    std::hint::black_box(&v);
                }
            }
            let report = take_phase_report();
            // Run alone, this collector is the process's only phase hook,
            // so both scopes must be in the report.
            let inner = report.iter().find(|s| s.name == "t-inner");
            let outer = report.iter().find(|s| s.name == "t-outer");
            let (inner, outer) = inner.zip(outer).expect("both phases reported");
            assert_eq!(inner.count, 1);
            assert!(inner.allocs >= 1);
            assert!(
                inner.peak_bytes >= (1 << 21),
                "2 MiB spike must be visible in inner peak ({})",
                inner.peak_bytes
            );
            // Folding: the parent's peak must cover the child's.
            assert!(outer.peak_bytes >= inner.peak_bytes);
        });
    }
}
