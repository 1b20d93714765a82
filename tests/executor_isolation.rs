//! Isolation and robustness contract of the persistent worker-pool
//! runtime (`pram::pool::Executor`, DESIGN.md §5):
//!
//! * two oracles pinned to *different* thread counts own *disjoint*
//!   executors, so they can be built and queried **concurrently** from
//!   many caller threads with zero global-state crosstalk — and every
//!   answer stays bit-identical to the single-threaded reference;
//! * a panicking task propagates to the dispatching caller but neither
//!   kills the workers nor deadlocks subsequent rounds;
//! * the `0 → 1` thread-count clamp (documented once, on
//!   `Executor::new`) holds at every layer that accepts a count;
//! * with neither a count nor an executor, oracles run on one thread: no
//!   library default reads `PRAM_SSSP_THREADS`.

use pram_sssp::prelude::*;
use std::sync::Arc;

fn test_graph() -> Graph {
    gen::gnm_connected(150, 450, 17, 1.0, 8.0)
}

fn assert_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: vertex {v}");
    }
}

/// The headline stress test: build two oracles with different pinned
/// thread counts *concurrently*, then hammer both with queries from
/// several caller threads at once. Every row must be bit-identical to the
/// sequential reference — pinned pools share nothing, and one executor
/// safely serializes rounds from concurrent callers.
#[test]
fn concurrent_oracles_with_different_thread_counts_are_bit_identical() {
    let g = test_graph();
    let n = g.num_vertices() as u32;
    let sources: Vec<u32> = vec![0, n / 4, n / 2, n - 1];

    // Sequential reference (its own private 1-thread executor).
    let reference = Oracle::builder(g.clone())
        .eps(0.25)
        .kappa(4)
        .threads(1)
        .build()
        .expect("params");
    let ref_multi = reference.distances_multi(&sources).expect("in range");

    // Two differently-pinned oracles, built in parallel.
    let (a, b) = std::thread::scope(|s| {
        let g2 = g.clone();
        let ha = s.spawn(move || {
            Oracle::builder(g2)
                .eps(0.25)
                .kappa(4)
                .threads(2)
                .build()
                .expect("params")
        });
        let g3 = g.clone();
        let hb = s.spawn(move || {
            Oracle::builder(g3)
                .eps(0.25)
                .kappa(4)
                .threads(4)
                .build()
                .expect("params")
        });
        (ha.join().expect("build t=2"), hb.join().expect("build t=4"))
    });
    assert_eq!(a.executor().threads(), 2);
    assert_eq!(b.executor().threads(), 4);
    assert_eq!(a.hopset_size(), reference.hopset_size());
    assert_eq!(b.hopset_size(), reference.hopset_size());

    // Query both simultaneously from several caller threads each.
    let a = Arc::new(a);
    let b = Arc::new(b);
    std::thread::scope(|s| {
        for caller in 0..3 {
            for oracle in [Arc::clone(&a), Arc::clone(&b)] {
                let sources = sources.clone();
                let ref_multi = ref_multi.dist.clone();
                s.spawn(move || {
                    for round in 0..4 {
                        let got = oracle.distances_multi(&sources).expect("in range");
                        for (i, _) in sources.iter().enumerate() {
                            assert_bits(
                                ref_multi.row(i),
                                got.dist.row(i),
                                &format!(
                                    "caller {caller} round {round} t={} row {i}",
                                    oracle.executor().threads()
                                ),
                            );
                        }
                    }
                });
            }
        }
    });
}

/// A panic inside a pool task must reach the caller as a panic — and the
/// pool must stay fully usable afterwards (workers park again; the next
/// dispatch completes). Three consecutive panics prove no one-shot luck.
#[test]
fn worker_panic_propagates_without_deadlocking_the_pool() {
    let exec = Executor::new(4);
    let bounds = pram::pool::chunk_bounds(16 * 2048, 4);
    assert!(bounds.len() > 1, "must actually dispatch to workers");
    for round in 0..3 {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run_chunks(&bounds, |r| {
                // Chunk assignment is dynamic (work-stealing counter), so
                // the panicking chunk may land on a worker (payload must
                // cross the pool boundary) or on the caller itself — both
                // paths must propagate, and repeated rounds exercise both.
                assert!(r.start == 0, "deliberate pool-task panic, round {round}");
                r.len()
            })
        }));
        assert!(caught.is_err(), "round {round} must panic");
    }
    // The same executor still answers; results are complete and ordered.
    let parts = exec.run_chunks(&bounds, |r| r.len());
    assert_eq!(parts.iter().sum::<usize>(), 16 * 2048);
    // And a full oracle query still runs on a fresh pinned oracle while
    // that battered executor is alive (no global fallout).
    let oracle = Oracle::builder(test_graph())
        .eps(0.25)
        .kappa(4)
        .threads(2)
        .build()
        .expect("params");
    assert!(oracle.distances_from(0).expect("in range")[1].is_finite());
}

/// The documented clamp rule (`Executor::new`: 0 ⇒ 1, never an error)
/// holds at every layer that accepts a thread count.
#[test]
fn zero_thread_counts_clamp_to_one_everywhere() {
    assert_eq!(Executor::new(0).threads(), 1);
    let oracle = Oracle::builder(gen::path(16))
        .eps(0.5)
        .kappa(4)
        .threads(0)
        .build()
        .expect("params");
    assert_eq!(oracle.executor().threads(), 1, "builder clamps 0 to 1");
    let d = oracle.distances_from(0).expect("in range");
    assert!((d[15] - 15.0).abs() <= 15.0 * 0.5 + 1e-9);
}

/// No library default reads the environment: an oracle built with
/// neither `threads` nor `executor`, and a Δ-stepping oracle built with
/// `new`, run on one thread whatever `PRAM_SSSP_THREADS` says (the CI
/// matrix runs this file at 1, 4 and 8).
#[test]
fn unpinned_oracles_run_on_one_thread() {
    let oracle = Oracle::builder(test_graph())
        .eps(0.25)
        .kappa(4)
        .build()
        .expect("params");
    assert_eq!(oracle.executor().threads(), 1);
    let dstep = DeltaSteppingOracle::new(test_graph());
    assert_eq!(dstep.executor().threads(), 1);
    // Pinning still wins, so the default is a choice, not a cap.
    let pinned = Oracle::builder(test_graph())
        .eps(0.25)
        .kappa(4)
        .threads(3)
        .build()
        .expect("params");
    assert_eq!(pinned.executor().threads(), 3);
    assert_bits(
        &oracle.distances_from(7).expect("in range"),
        &pinned.distances_from(7).expect("in range"),
        "unpinned vs pinned",
    );
}

/// An explicitly injected executor is shared, not copied: the oracle
/// reports the same pool it was given, and queries run on it.
#[test]
fn injected_executor_is_shared() {
    let exec = Executor::new(3);
    let oracle = Oracle::builder(test_graph())
        .eps(0.25)
        .kappa(4)
        .executor(exec.clone())
        .build()
        .expect("params");
    assert_eq!(oracle.executor().threads(), 3);
    let single = Oracle::builder(test_graph())
        .eps(0.25)
        .kappa(4)
        .threads(1)
        .build()
        .expect("params");
    assert_bits(
        &single.distances_from(7).expect("in range"),
        &oracle.distances_from(7).expect("in range"),
        "injected executor",
    );
}
