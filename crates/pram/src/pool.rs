//! The persistent worker-pool runtime: parked workers, barrier-cost
//! parallel rounds, bit-identical results at any thread count.
//!
//! PR 3 built real multi-threaded execution on `std::thread::scope`, which
//! paid a fresh OS-thread spawn (tens of microseconds) on **every**
//! primitive call. The oracle pipeline executes thousands of tiny parallel
//! rounds (β-limited Bellman–Ford pulses, ruling-set levels, per-scale
//! explorations), so spawn overhead swamped the per-round work —
//! EXPERIMENTS.md recorded construction getting *slower* at t=8. This
//! module replaces the scoped pool with a **persistent** one (still
//! std-only, no external dependencies): an [`Executor`] owns `threads − 1`
//! parked worker threads, and a parallel round costs a condvar wake plus a
//! barrier instead of a syscall storm.
//!
//! ## The `Executor` handle
//!
//! [`Executor`] is a cheap-to-clone, `Arc`-backed, `Send + Sync` handle.
//! Every `pram` primitive takes `&Executor` explicitly; no primitive, and
//! no library entry point, resolves a thread count by itself.
//! [`Executor::new(t)`](Executor::new) creates a **private** pool: its
//! workers serve only this handle's clones, and are shut down and joined
//! when the last clone drops. This is what `sssp::OracleBuilder::threads(t)`
//! pins, so two oracles with different thread counts run concurrently with
//! zero global-state crosstalk. [`Executor::sequential`] is the one-thread
//! executor every library default runs on; it spawns no workers.
//!
//! ## Dispatch / barrier protocol
//!
//! One parallel round (`run_chunks` / `for_each_chunk_mut`):
//!
//! 1. the caller takes the executor's **round lock** (rounds from
//!    concurrent caller threads on one executor serialize, they never
//!    interleave),
//! 2. publishes a lifetime-erased job — `(task, chunk-claim counter,
//!    chunk count)` — under the state mutex and wakes
//!    `min(workers, nchunks − 1)` workers (the caller participates too;
//!    a round never enrolls — or barriers on — more workers than it has
//!    chunks, so small rounds on big pools stay cheap),
//! 3. works itself: caller and enrolled workers claim chunk indices from
//!    one atomic counter until none remain (which chunk runs *where* is
//!    schedule-dependent; results are not — see the contract below),
//! 4. once its own claims have run the counter dry, withdraws the
//!    enrollment slots no worker has taken yet (a late worker finds no
//!    open slot and parks again), waits on the completion condvar until
//!    every worker that took a slot has checked in, then clears the job
//!    and releases the round lock.
//!
//! Step 4 is the barrier that makes the lifetime erasure sound: the
//! borrowed task and output slots outlive the round because `dispatch`
//! cannot return (or unwind) before every worker that took the job is
//! done with it, and no worker can take it once its slots are withdrawn. A
//! panicking task is caught on the worker, the worker checks in normally
//! (it stays parked for the next round — panics never poison or deadlock
//! the pool), and the payload is re-thrown on the caller after the
//! barrier.
//!
//! ## Determinism contract (DESIGN.md §5)
//!
//! * **Fixed chunk boundaries.** [`chunk_bounds`] derives the split purely
//!   from `(len, threads)`: `min(threads, len / MIN_CHUNK)` (at least one)
//!   contiguous chunks, sizes differing by at most one, earlier chunks
//!   larger. Nothing about the split depends on scheduling.
//! * **Merge in chunk order.** [`Executor::run_chunks`] writes each chunk's
//!   result into the slot indexed by its chunk number; completion order is
//!   unobservable.
//! * **Order-independent reductions.** Callers combine per-chunk results
//!   with associative, commutative operations over totally ordered keys,
//!   so the *values* do not depend on the boundaries either. Outputs are
//!   bit-identical for every thread count — and to the retired scoped
//!   implementation (`tests/determinism.rs` pins the full pipeline).
//!
//! ## Where the thread count comes from
//!
//! The count is an input: whoever creates an [`Executor`] picks it. The
//! one function that reads it from the environment is
//! [`threads_from_env`] (`PRAM_SSSP_THREADS`, else the hardware's
//! parallelism), and only binaries and tests call it — the CI
//! matrix reaches every suite through it. Library code never does.
//!
//! Inside a pool task the effective count is pinned to 1: nested
//! primitives run sequentially instead of deadlocking on their own pool or
//! fanning out `t²` threads. (Results are unaffected — only the schedule.)

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Inputs shorter than this run sequentially in every `prim` primitive;
/// inputs of **exactly** this length take the chunked parallel path.
///
/// This is the pool's documented, test-pinned threshold constant: the
/// boundary behavior (`len == PAR_THRESHOLD` ⇒ parallel) is asserted by
/// `prim`'s boundary tests and by the proptests straddling it, so changing
/// the value or the comparison direction fails loudly.
pub const PAR_THRESHOLD: usize = 4096;

/// No chunk is ever smaller than this (except when a single chunk covers
/// the whole input): even with persistent workers a chunk costs a wake +
/// barrier check-in, so chunks must carry enough work to be worth
/// distributing. With `PAR_THRESHOLD = 4096` and `MIN_CHUNK = 2048`, the
/// smallest parallel input splits into exactly two chunks.
pub const MIN_CHUNK: usize = 2048;

thread_local! {
    /// True while this thread is executing a pool task (a parked worker, or
    /// the caller processing chunks of a round): nested primitives go
    /// sequential.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The thread count a binary or test runs on: `PRAM_SSSP_THREADS`
/// when it holds a positive integer (surrounding whitespace allowed),
/// else the hardware's available parallelism; never below 1. This is the
/// one place the variable is read — library code takes an [`Executor`]
/// (or a count) from its caller instead.
pub fn threads_from_env() -> usize {
    parse_threads(std::env::var("PRAM_SSSP_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The parse rule of [`threads_from_env`]: `Some(t)` for a positive
/// integer `t`, `None` (fall back to the hardware) when the value is
/// unset, empty, zero or not a number.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&t| t > 0)
}

/// The deterministic chunking rule: split `0..len` into
/// `min(threads, len / MIN_CHUNK)` (at least 1) contiguous chunks whose
/// sizes differ by at most one, earlier chunks taking the remainder.
/// Depends on nothing but the two arguments — in particular, not on
/// scheduling — so the split is reproducible by construction.
pub fn chunk_bounds(len: usize, threads: usize) -> Vec<Range<usize>> {
    balanced_split(len, threads.max(1).min((len / MIN_CHUNK).max(1)))
}

/// `nchunks` balanced contiguous chunks of `0..len`, earlier chunks taking
/// the remainder (callers guarantee `1 ≤ nchunks ≤ len` unless `len == 0`).
fn balanced_split(len: usize, nchunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let base = len / nchunks;
    let rem = len % nchunks;
    let mut bounds = Vec::with_capacity(nchunks);
    let mut start = 0usize;
    for i in 0..nchunks {
        let size = base + usize::from(i < rem);
        bounds.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    bounds
}

/// Chunking for **coarse-grained task lists** — `len` items that are each
/// a substantial computation (e.g. one full Bellman–Ford exploration per
/// item), not array elements: `min(threads, len)` balanced contiguous
/// chunks with **no** [`MIN_CHUNK`] floor. Same determinism properties as
/// [`chunk_bounds`] (a pure function of the two arguments).
pub fn task_bounds(len: usize, threads: usize) -> Vec<Range<usize>> {
    balanced_split(len, threads.max(1).min(len.max(1)))
}

/// Run `f` with this thread marked as a pool participant (nested
/// primitives collapse to sequential). Restores the flag on exit.
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL.with(|c| c.set(self.0));
        }
    }
    let prev = IN_POOL.with(|c| c.get());
    let _restore = Restore(prev);
    IN_POOL.with(|c| c.set(true));
    f()
}

/// Poison-immune lock: a worker panic never happens while holding the
/// state mutex (tasks run outside it), but be robust anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Debug-build chunk-overlap race detector — the **dynamic** complement
/// to the `xlint` static pass (DESIGN.md §10).
///
/// `for_each_chunk_mut` is the one place in the workspace that hands out
/// `&mut` slices to concurrent workers; its soundness (and the
/// determinism contract's "disjoint pre-split writes" clause) rests on
/// the claimed chunks forming a genuine partition of the data, each
/// executed exactly once. The static asserts on the *bounds array* can't
/// see scheduling bugs — a chunk index handed to two workers, or a chunk
/// that never ran — so in `debug_assertions` builds every dispatch round
/// records the `(chunk index, range)` pairs **as they are claimed by the
/// executing thread** and, after the round barrier, verifies:
///
/// 1. every chunk index was claimed exactly once (no double execution,
///    no lost chunk);
/// 2. the claimed ranges are pairwise disjoint (no overlapping `&mut`);
/// 3. together they cover `0..len` with no gap (exhaustive).
///
/// Release builds compile all of this out. The detector is driven by the
/// pool itself on every debug round (so the whole test suite exercises
/// it continuously); `crates/pram/tests/overlap_detector.rs` additionally
/// feeds it deliberately overlapping / double-claimed / gapped rounds and
/// asserts it fires.
#[cfg(debug_assertions)]
pub mod overlap {
    use std::ops::Range;
    use std::sync::{Mutex, PoisonError};

    /// The claim record of one parallel round. Create before dispatch,
    /// [`claim`](RoundClaims::claim) from each executing chunk, and
    /// [`finish`](RoundClaims::finish) after the round barrier.
    #[derive(Debug)]
    pub struct RoundClaims {
        /// Length of the slice the round partitions.
        len: usize,
        /// Number of chunks the round was dispatched with.
        nchunks: usize,
        /// `(chunk index, bounds)` in claim order (schedule-dependent —
        /// which is exactly why `finish` sorts before judging).
        claims: Mutex<Vec<(usize, Range<usize>)>>,
    }

    impl RoundClaims {
        /// A fresh record for a round of `nchunks` chunks over `0..len`.
        pub fn new(len: usize, nchunks: usize) -> RoundClaims {
            RoundClaims {
                len,
                nchunks,
                claims: Mutex::new(Vec::with_capacity(nchunks)),
            }
        }

        /// Record that the executing thread claimed chunk `ci` with the
        /// given bounds. Called from worker threads; claim order is
        /// schedule-dependent and irrelevant.
        pub fn claim(&self, ci: usize, bounds: Range<usize>) {
            self.claims
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((ci, bounds));
        }

        /// Verify the round: panics unless every chunk index was claimed
        /// exactly once and the claimed ranges partition `0..len`.
        pub fn finish(&self) {
            let mut claims = self
                .claims
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            assert_eq!(
                claims.len(),
                self.nchunks,
                "round ended with {}/{} chunk claims (lost or extra execution)",
                claims.len(),
                self.nchunks,
            );
            claims.sort_by_key(|(ci, _)| *ci);
            for (slot, (ci, _)) in claims.iter().enumerate() {
                assert!(
                    *ci == slot,
                    "chunk {ci} claimed twice in one round (chunk {slot} never ran)",
                );
            }
            claims.sort_by_key(|(_, r)| (r.start, r.end));
            let mut covered = 0usize;
            for (ci, r) in &claims {
                assert!(
                    r.start >= covered,
                    "chunk overlap: chunk {ci} ({}..{}) overlaps the range claimed before it \
                     (covered up to {covered})",
                    r.start,
                    r.end,
                );
                assert!(
                    r.start == covered,
                    "chunk gap: nothing claimed {covered}..{} (chunk {ci} starts at {})",
                    r.start,
                    r.start,
                );
                assert!(r.end >= r.start, "chunk {ci} has decreasing bounds");
                covered = r.end;
            }
            assert_eq!(
                covered, self.len,
                "claims not exhaustive: covered 0..{covered} of 0..{}",
                self.len,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// A one-round job, lifetime-erased. Valid only while its round is in
/// flight: `dispatch` barriers on worker check-in before the referents
/// (caller stack data) go away.
#[derive(Clone, Copy)]
struct Job {
    /// The per-chunk task, `task(chunk_index)`.
    task: &'static (dyn Fn(usize) + Sync),
    /// The shared chunk-claim counter (caller-owned).
    next: &'static AtomicUsize,
    /// Number of chunks in the round.
    nchunks: usize,
}

struct PoolState {
    /// Round generation counter; workers run one job per bump.
    epoch: u64,
    /// The in-flight job, if any.
    job: Option<Job>,
    /// Enrolled workers that have not yet checked in for the current
    /// round, counting the slots not yet taken until they are withdrawn.
    active: usize,
    /// Enrollment slots left this round: `min(workers, nchunks − 1)` at
    /// publication, zero once the caller has claimed every chunk and
    /// withdrawn the rest. A worker that observes a new epoch with no slot
    /// left skips the round entirely — small rounds barrier on a small
    /// check-in set instead of the whole pool.
    enroll: usize,
    /// First worker panic of the round, re-thrown by the caller.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once by `Drop`: workers exit.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown).
    work_cv: Condvar,
    /// The dispatching caller waits here for `active == 0`.
    done_cv: Condvar,
    /// Serializes whole rounds across concurrent caller threads.
    round_lock: Mutex<()>,
    /// Number of worker threads (`threads − 1`).
    workers: usize,
}

fn worker_loop(shared: Arc<Shared>) {
    // A worker thread is permanently a pool participant: any primitive a
    // task calls transitively sees an effective thread count of 1.
    IN_POOL.with(|c| c.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    // Observe the round exactly once, enrolled or not.
                    seen_epoch = st.epoch;
                    match st.job {
                        Some(job) if st.enroll > 0 => {
                            st.enroll -= 1;
                            break job;
                        }
                        // Round already fully enrolled, its open slots
                        // withdrawn, or cleared: not a participant — go
                        // straight back to parking.
                        _ => continue,
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| run_job(&job)));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Claim and run chunks until the round's counter is exhausted.
fn run_job(job: &Job) {
    loop {
        let ci = job.next.fetch_add(1, Ordering::Relaxed);
        if ci >= job.nchunks {
            return;
        }
        (job.task)(ci);
    }
}

/// The executor's owned core: shared pool state plus the worker join
/// handles. Dropping the last [`Executor`] clone shuts the workers down.
struct Core {
    threads: usize,
    shared: Option<Arc<Shared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for Core {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            lock(&shared.state).shutdown = true;
            shared.work_cv.notify_all();
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// A shareable handle to a persistent worker pool — the explicit execution
/// context every `pram` primitive takes (see the module docs for the
/// dispatch protocol and the determinism contract).
///
/// Cloning is cheap (`Arc` bump); clones share one pool. The handle is
/// `Send + Sync`: concurrent rounds from different caller threads
/// serialize on the round lock, so a single executor can safely serve
/// multi-threaded query traffic.
#[derive(Clone)]
pub struct Executor {
    core: Arc<Core>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.core.threads)
            .finish()
    }
}

impl Executor {
    /// Create a **private** pool of `threads.max(1)` logical threads:
    /// `threads − 1` parked workers plus the dispatching caller. This is
    /// the **single canonical clamp rule** for thread counts in this
    /// workspace: `0` clamps to `1` (sequential), never an error — the
    /// rule `sssp::OracleBuilder::threads` inherits (and
    /// `tests/executor_isolation.rs` pins).
    ///
    /// Workers park immediately and are woken per round; they are shut
    /// down and joined when the last clone of the handle drops. A
    /// one-thread executor spawns no workers: every round runs inline.
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        let (shared, handles) = if threads > 1 {
            let shared = Arc::new(Shared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    active: 0,
                    enroll: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                round_lock: Mutex::new(()),
                workers: threads - 1,
            });
            let handles = (0..threads - 1)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("pram-worker-{i}"))
                        .spawn(move || worker_loop(shared))
                        .expect("spawn pool worker")
                })
                .collect();
            (Some(shared), handles)
        } else {
            (None, Vec::new())
        };
        Executor {
            core: Arc::new(Core {
                threads,
                shared,
                handles,
            }),
        }
    }

    /// A strictly sequential executor (one thread, no workers): what
    /// `sssp::OracleBuilder` and `sssp::DeltaSteppingOracle` run on when
    /// their caller names no thread count.
    pub fn sequential() -> Executor {
        Executor::new(1)
    }

    /// The logical thread count (chunk boundaries are derived from this —
    /// it is part of the determinism contract's `(len, threads)` input).
    #[inline]
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// The thread count a primitive called *right now on this thread*
    /// would fan out to: [`Executor::threads`], except 1 inside a pool
    /// task (nested parallelism collapses to sequential).
    #[inline]
    pub fn effective_threads(&self) -> usize {
        if IN_POOL.with(|c| c.get()) {
            1
        } else {
            self.core.threads
        }
    }

    /// True when a length-`len` input should take the chunked parallel
    /// path: `len >= PAR_THRESHOLD` **and** more than one effective thread.
    #[inline]
    pub fn parallel_eligible(&self, len: usize) -> bool {
        len >= PAR_THRESHOLD && self.effective_threads() > 1
    }

    /// [`chunk_bounds`] at this executor's thread count.
    #[inline]
    pub fn chunk_bounds(&self, len: usize) -> Vec<Range<usize>> {
        chunk_bounds(len, self.effective_threads())
    }

    /// [`task_bounds`] at this executor's thread count.
    #[inline]
    pub fn task_bounds(&self, len: usize) -> Vec<Range<usize>> {
        task_bounds(len, self.effective_threads())
    }

    /// The bounds of one data-parallel round over `0..len`, honoring the
    /// eligibility contract the `prim` primitives follow: the chunked split
    /// ([`Executor::chunk_bounds`]) when [`Executor::parallel_eligible`],
    /// otherwise a single chunk covering the input (empty for `len == 0`).
    /// Downstream round engines (e.g. `hopset`'s exploration pulses) use
    /// this instead of re-deriving the threshold rule, so a future change
    /// to the contract lands everywhere at once.
    pub fn round_bounds(&self, len: usize) -> Vec<Range<usize>> {
        if self.parallel_eligible(len) {
            self.chunk_bounds(len)
        } else if len == 0 {
            Vec::new()
        } else {
            std::iter::once(0..len).collect()
        }
    }

    /// Execute `task(chunk_index)` for every `chunk_index in 0..nchunks`,
    /// distributed over the persistent workers + the calling thread, and
    /// barrier until all are done. Runs inline (sequentially, in index
    /// order) when the round has ≤ 1 chunk, the executor is sequential, or
    /// the calling thread is itself a pool task.
    fn dispatch(&self, nchunks: usize, runner: &(dyn Fn(usize) + Sync)) {
        let pooled = nchunks > 1 && !IN_POOL.with(|c| c.get());
        let shared = match &self.core.shared {
            Some(shared) if pooled => shared,
            _ => {
                for ci in 0..nchunks {
                    runner(ci);
                }
                return;
            }
        };
        let next = AtomicUsize::new(0);
        let job = Job {
            // SAFETY: lifetime erasure of `runner`, borrowed from this
            // stack frame. A worker reads the job only after taking an
            // enrollment slot under the state lock, and every taken slot
            // stays counted in `active`. The barrier below withdraws the
            // slots still open (no worker can take the job after that)
            // and waits until every worker that took one has checked in
            // (and thus dropped its use of the job) before this function
            // returns or unwinds, so the 'static erasure never outlives
            // the borrow. The round lock guarantees no other caller can
            // overwrite the job while this round is in flight.
            task: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    runner,
                )
            },
            // SAFETY: same barrier argument as `task`: `next` lives on
            // this frame, and no worker touches the job after check-in.
            next: unsafe { std::mem::transmute::<&AtomicUsize, &'static AtomicUsize>(&next) },
            nchunks,
        };
        let round = lock(&shared.round_lock);
        // The caller participates too, so a round of `nchunks` chunks needs
        // at most `nchunks − 1` workers: small rounds wake and barrier on a
        // small check-in set, not the whole pool.
        let enrolled = shared.workers.min(nchunks - 1);
        {
            let mut st = lock(&shared.state);
            debug_assert!(st.job.is_none(), "round lock must serialize rounds");
            st.job = Some(job);
            st.active = enrolled;
            st.enroll = enrolled;
            st.epoch = st.epoch.wrapping_add(1);
            if enrolled == shared.workers {
                shared.work_cv.notify_all();
            } else {
                // notify_one per slot: a lost notification (target mid-loop
                // rather than parked) is harmless — every worker re-checks
                // the epoch under the lock before parking, so any
                // non-parked worker claims an open slot on its own.
                for _ in 0..enrolled {
                    shared.work_cv.notify_one();
                }
            }
        }
        // The caller is a full participant; its own panic must not skip
        // the barrier (the workers may still be using the job).
        let caller = catch_unwind(AssertUnwindSafe(|| as_worker(|| run_job(&job))));
        let mut st = lock(&shared.state);
        if caller.is_ok() {
            // The caller ran the counter dry, so every chunk is claimed. A
            // slot no worker has taken yet could only find nothing to do:
            // withdraw it, and wait only for the workers that took one. A
            // worker takes a slot only under this lock while `enroll > 0`,
            // so none can take the job from here on.
            st.active -= st.enroll;
            st.enroll = 0;
        }
        while st.active > 0 {
            st = shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        drop(round);
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
    }

    /// Execute `task` once per chunk and return the per-chunk results **in
    /// chunk order** (each result lands in the slot indexed by its chunk
    /// number — completion order is unobservable). A panicking task
    /// propagates to the caller after the round barrier; the pool remains
    /// usable.
    pub fn run_chunks<R: Send>(
        &self,
        bounds: &[Range<usize>],
        task: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(bounds.len(), || None);
        // Debug builds verify the "claimed exactly once" premise of the
        // SAFETY argument below dynamically (one synthetic unit range per
        // result slot): see [`overlap`].
        #[cfg(debug_assertions)]
        let claims = overlap::RoundClaims::new(bounds.len(), bounds.len());
        {
            #[cfg(debug_assertions)]
            let claims = &claims;
            let out = SendPtr(slots.as_mut_ptr());
            let runner = move |ci: usize| {
                #[cfg(debug_assertions)]
                claims.claim(ci, ci..ci + 1);
                let r = task(bounds[ci].clone());
                // SAFETY: each chunk index is claimed exactly once per
                // round (atomic counter), so writes are disjoint; the
                // dispatch barrier orders them before the read below.
                unsafe { *out.get().add(ci) = Some(r) };
            };
            self.dispatch(bounds.len(), &runner);
        }
        #[cfg(debug_assertions)]
        claims.finish();
        slots
            .into_iter()
            .map(|s| s.expect("every chunk executed"))
            .collect()
    }

    /// Split `data` at `bounds` (which must partition `0..data.len()`, as
    /// produced by [`chunk_bounds`]) and execute `task(chunk_index, chunk)`
    /// for every chunk. Writes are disjoint by construction, so no merge
    /// step exists and determinism is structural.
    pub fn for_each_chunk_mut<T: Send>(
        &self,
        data: &mut [T],
        bounds: &[Range<usize>],
        task: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let mut consumed = 0usize;
        for r in bounds {
            assert_eq!(r.start, consumed, "bounds must be contiguous from 0");
            // Together with contiguity and the final coverage check, this
            // is what makes the ranges a genuine partition: a decreasing
            // range could otherwise sneak an overlapping or out-of-bounds
            // slice past the other two asserts.
            assert!(r.end >= r.start, "bounds must be non-decreasing ranges");
            consumed = r.end;
        }
        assert_eq!(consumed, data.len(), "bounds must cover the whole slice");
        // This is the one place in the workspace that hands `&mut` slices
        // to concurrent workers; debug builds re-verify the partition
        // *as executed* — each chunk claimed exactly once, claimed ranges
        // disjoint and exhaustive — via the [`overlap`] race detector.
        #[cfg(debug_assertions)]
        let claims = overlap::RoundClaims::new(data.len(), bounds.len());
        #[cfg(debug_assertions)]
        let claims_ref = &claims;
        let base = SendPtr(data.as_mut_ptr());
        let runner = move |ci: usize| {
            let r = &bounds[ci];
            #[cfg(debug_assertions)]
            claims_ref.claim(ci, r.clone());
            // SAFETY: bounds partition `0..data.len()` (asserted above) and
            // each chunk index runs exactly once per round, so the slices
            // are disjoint; the dispatch barrier keeps them inside the
            // borrow of `data`.
            let piece = unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
            task(ci, piece);
        };
        self.dispatch(bounds.len(), &runner);
        #[cfg(debug_assertions)]
        claims.finish();
    }
}

/// A raw pointer whose cross-thread use is justified at each use site
/// (disjoint per-chunk writes under the dispatch barrier).
struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    /// Accessed through a method so closures capture the (Send + Sync)
    /// wrapper rather than the bare pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only dereferenced inside a dispatch round, where
// every chunk touches a disjoint region and the round barrier sequences
// all worker writes before the caller reads (see the SAFETY notes at the
// two use sites); moving the pointer value itself between threads is then
// sound exactly when `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` only exposes the pointer value (`get`); the
// disjoint-write argument above covers every actual access through it.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_pinned() {
        // The documented contract of the pool: 4096, and `len == threshold`
        // takes the parallel path (see `Executor::parallel_eligible`).
        assert_eq!(PAR_THRESHOLD, 4096);
        let exec = Executor::new(4);
        assert!(!exec.parallel_eligible(PAR_THRESHOLD - 1));
        assert!(exec.parallel_eligible(PAR_THRESHOLD));
        assert!(exec.parallel_eligible(PAR_THRESHOLD + 1));
        // One thread ⇒ never parallel, whatever the length.
        assert!(!Executor::sequential().parallel_eligible(PAR_THRESHOLD));
    }

    #[test]
    fn chunk_bounds_partition_and_balance() {
        for len in [0usize, 1, 2, 5, 4096, 4097, 10_000, 1 << 20] {
            for t in [1usize, 2, 3, 4, 8, 64] {
                let b = chunk_bounds(len, t);
                if len == 0 {
                    assert!(b.is_empty());
                    continue;
                }
                // The documented rule: min(threads, len / MIN_CHUNK), ≥ 1.
                assert_eq!(b.len(), t.min((len / MIN_CHUNK).max(1)), "len={len} t={t}");
                let mut next = 0usize;
                let mut sizes = Vec::new();
                for r in &b {
                    assert_eq!(r.start, next);
                    next = r.end;
                    sizes.push(r.len());
                }
                assert_eq!(next, len);
                let (max, min) = (sizes.iter().max().unwrap(), sizes.iter().min().unwrap());
                assert!(max - min <= 1, "len={len} t={t}");
                // Earlier chunks take the remainder, and no multi-chunk
                // split produces a sub-MIN_CHUNK chunk.
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
                if b.len() > 1 {
                    assert!(*min >= MIN_CHUNK, "len={len} t={t} min={min}");
                }
            }
        }
    }

    #[test]
    fn donation_rounds_merge_in_chunk_order_and_match_coarse() {
        // More chunks than threads: the claim counter hands trailing
        // chunks to whichever participant frees up first. The per-chunk
        // results still land in chunk-order slots, so the merged output is
        // bit-identical to the coarse split's. `run_chunks` accepts any
        // partition; this one is built by hand.
        let exec = Executor::new(2);
        let len = 1 << 15;
        let fine: Vec<Range<usize>> = (0..16).map(|i| i * len / 16..(i + 1) * len / 16).collect();
        assert!(fine.len() > exec.threads(), "more chunks than threads");
        let sum = |bounds: &[Range<usize>]| -> Vec<u64> {
            exec.run_chunks(bounds, |r| r.map(|i| i as u64 * 31).sum::<u64>())
        };
        for _ in 0..10 {
            let fine_parts = sum(&fine);
            // Chunk order: per-slot sums are increasing (earlier chunks
            // hold smaller indices), independent of completion order.
            assert!(fine_parts.windows(2).all(|w| w[0] < w[1]));
            let coarse_parts = sum(&exec.chunk_bounds(len));
            assert_eq!(
                fine_parts.iter().sum::<u64>(),
                coarse_parts.iter().sum::<u64>(),
                "fine and coarse splits reduce to identical totals"
            );
        }
    }

    #[test]
    fn task_bounds_has_no_min_chunk_floor() {
        // Coarse task lists split one-chunk-per-thread even when tiny —
        // the point is items that are each a big computation.
        for (len, t, expect) in [(64usize, 4usize, 4usize), (3, 8, 3), (1, 8, 1), (0, 4, 0)] {
            let b = task_bounds(len, t);
            assert_eq!(b.len(), expect, "len={len} t={t}");
            let covered: usize = b.iter().map(|r| r.len()).sum();
            assert_eq!(covered, len);
            if let (Some(max), Some(min)) = (
                b.iter().map(|r| r.len()).max(),
                b.iter().map(|r| r.len()).min(),
            ) {
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn run_chunks_merges_in_chunk_order() {
        let exec = Executor::new(4);
        let bounds = exec.chunk_bounds(10_000);
        let parts = exec.run_chunks(&bounds, |r| r.map(|i| i as u64).sum::<u64>());
        assert_eq!(parts.len(), 4);
        // Chunk order, not completion order: chunk 0's sum is the smallest.
        assert!(parts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(parts.iter().sum::<u64>(), 10_000 * 9_999 / 2);
    }

    #[test]
    fn for_each_chunk_mut_covers_disjointly() {
        let exec = Executor::new(8);
        let mut v = vec![0u32; 10_001];
        let bounds = exec.chunk_bounds(v.len());
        exec.for_each_chunk_mut(&mut v, &bounds, |ci, piece| {
            for slot in piece.iter_mut() {
                *slot += 1 + ci as u32;
            }
        });
        // Every slot written exactly once, chunk index recoverable.
        for (r, ci) in bounds.iter().zip(0u32..) {
            assert!(v[r.clone()].iter().all(|&x| x == 1 + ci));
        }
    }

    #[test]
    fn zero_threads_clamp_to_one() {
        // The canonical clamp rule (documented on Executor::new): 0 is
        // never an error and never "unset" — it is sequential.
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn threads_from_env_parse_rule() {
        // Unset, empty, zero and non-numeric values fall back to the
        // hardware (`None`); a positive count may carry whitespace.
        for value in [
            None,
            Some(""),
            Some("0"),
            Some("four"),
            Some("-2"),
            Some("2.5"),
        ] {
            assert_eq!(parse_threads(value), None, "{value:?}");
        }
        assert_eq!(parse_threads(Some(" 4 ")), Some(4));
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn executor_is_send_sync_and_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Executor>();
    }

    #[test]
    fn nested_calls_collapse_to_sequential() {
        let exec = Executor::new(4);
        let bounds = exec.chunk_bounds(4 * MIN_CHUNK);
        assert_eq!(bounds.len(), 4);
        let inner = exec.clone();
        let nested = exec.run_chunks(&bounds, move |_| inner.effective_threads());
        // Inside a pool task (worker or the caller acting as one) the
        // executor reports a single effective thread, so nested primitives
        // cannot fan out (or deadlock on their own pool).
        assert_eq!(nested, vec![1, 1, 1, 1]);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let exec = Executor::new(4);
        let bounds = chunk_bounds(8_192, 4);
        for round in 0..3 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                exec.run_chunks(&bounds, |r| {
                    assert!(r.start < 4_000, "deliberate test panic {round}");
                    0u8
                })
            }));
            assert!(caught.is_err(), "round {round} must propagate");
        }
        // The workers stayed parked (not dead, not deadlocked): a normal
        // round still completes on the same pool.
        let parts = exec.run_chunks(&bounds, |r| r.len() as u64);
        assert_eq!(parts.iter().sum::<u64>(), 8_192);
    }

    #[test]
    fn concurrent_dispatch_from_many_caller_threads() {
        // One executor, several caller threads issuing rounds at once:
        // the round lock serializes them, results stay correct.
        let exec = Executor::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let exec = exec.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        let bounds = exec.chunk_bounds(3 * MIN_CHUNK);
                        let parts = exec.run_chunks(&bounds, |r| r.map(|i| i as u64).sum::<u64>());
                        let total: u64 = parts.into_iter().sum();
                        let n = (3 * MIN_CHUNK) as u64;
                        assert_eq!(total, n * (n - 1) / 2);
                    }
                });
            }
        });
    }

    #[test]
    fn small_rounds_on_big_pools_enroll_few_workers() {
        // A 16-thread pool serving 2-chunk rounds: only one worker joins
        // the caller per round (the rest stay parked), and repeated rounds
        // stay correct. This is the many-core hot path: round width, not
        // pool size, bounds the per-round barrier.
        let exec = Executor::new(16);
        let bounds = chunk_bounds(2 * MIN_CHUNK, 16);
        assert_eq!(bounds.len(), 2, "MIN_CHUNK floors the chunk count");
        for _ in 0..50 {
            let parts = exec.run_chunks(&bounds, |r| r.map(|i| i as u64).sum::<u64>());
            let n = (2 * MIN_CHUNK) as u64;
            assert_eq!(parts.iter().sum::<u64>(), n * (n - 1) / 2);
        }
        // Wider rounds on the same pool still use it fully.
        let wide = chunk_bounds(16 * MIN_CHUNK, 16);
        assert_eq!(wide.len(), 16);
        let parts = exec.run_chunks(&wide, |r| r.len());
        assert_eq!(parts.iter().sum::<usize>(), 16 * MIN_CHUNK);
    }

    #[test]
    fn workers_stay_live_after_withdrawn_slots() {
        // Rounds of two one-element chunks: the caller often claims both
        // before the worker wakes, and then withdraws the worker's slot.
        let exec = Executor::new(2);
        let tiny = [0..1, 1..2];
        for round in 0..2_000usize {
            let parts = exec.run_chunks(&tiny, |r| r.start + round);
            assert_eq!(parts, [round, round + 1]);
        }
        // The worker still joins a round the caller cannot finish alone:
        // chunk 0 waits until chunk 1 has started on another thread.
        let started = Mutex::new(None);
        let cv = Condvar::new();
        let parts = exec.run_chunks(&tiny, |r| {
            let me = std::thread::current().id();
            if r.start == 1 {
                *lock(&started) = Some(me);
                cv.notify_all();
                return true;
            }
            let (other, wait) = cv
                .wait_timeout_while(lock(&started), std::time::Duration::from_secs(60), |s| {
                    s.is_none()
                })
                .unwrap_or_else(PoisonError::into_inner);
            !wait.timed_out() && *other != Some(me)
        });
        assert_eq!(parts, [true, true], "chunk 1 never started elsewhere");
    }

    #[test]
    fn private_pool_shuts_down_on_drop() {
        let exec = Executor::new(3);
        let bounds = chunk_bounds(2 * MIN_CHUNK, 2);
        let _ = exec.run_chunks(&bounds, |r| r.len());
        drop(exec); // joins the workers; must not hang.
    }
}
