//! The served traffic: the 80/20 hot-row / cold-p2p request mix of
//! [`crate::inputs`], played open loop at a fixed rate or closed loop by a
//! few clients against one `CachedOracle`. The generator adds at most two
//! threads.

use crate::inputs::{Inputs, Request};
use pgraph::{VId, Weight};
use sssp::{CachedOracle, DistanceOracle, Oracle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serving stack under test.
pub type Served = CachedOracle<Arc<Oracle>>;

/// Issue one request; a pair returns its distance, a row returns `None`.
fn issue(served: &Served, r: Request) -> Result<Option<Weight>, sssp::SsspError> {
    match r {
        Request::Row(s) => served.row(s).map(|_| None),
        Request::Pair(u, v) => served.distance(u, v).map(Some),
    }
}

/// Per-request timings of an open-loop run, in seconds.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Done minus scheduled arrival (what a user sees).
    pub latency: Vec<f64>,
    /// Issue minus scheduled arrival (how late the generator ran).
    pub late: Vec<f64>,
    /// Done minus issue (time inside the serving stack).
    pub service: Vec<f64>,
    /// Answered pairs `(u, v, d)`, for the correctness gate.
    pub pairs: Vec<(VId, VId, Weight)>,
    /// Failed requests, one line each.
    pub errors: Vec<String>,
}

/// Sleep until about this long before a deadline, then spin-yield: a
/// sleeping thread wakes tens of microseconds late, which would otherwise
/// be most of a hot request's latency.
const SPIN: Duration = Duration::from_micros(500);

fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Play `requests` open loop: request `i` is due at `i / rate` seconds
/// whether or not earlier ones are done. `workers` threads take the next
/// due request, wait for its arrival time and issue it.
pub fn open_loop(served: &Served, requests: &[Request], rate: f64, workers: usize) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    // xlint: allow(thread-spawn, the load generator's own client threads; they only issue requests)
    let parts: Vec<OpenLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = OpenLoop::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&r) = requests.get(i) else { break };
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let issued = Instant::now();
                        let res = issue(served, r);
                        let done = Instant::now();
                        match res {
                            Ok(d) => {
                                out.latency.push((done - due).as_secs_f64());
                                out.late.push((issued - due).as_secs_f64());
                                out.service.push((done - issued).as_secs_f64());
                                if let (Request::Pair(u, v), Some(d)) = (r, d) {
                                    out.pairs.push((u, v, d));
                                }
                            }
                            Err(e) => out.errors.push(format!("served {r:?}: {e}")),
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let mut all = OpenLoop::default();
    for p in parts {
        all.latency.extend(p.latency);
        all.late.extend(p.late);
        all.service.extend(p.service);
        all.pairs.extend(p.pairs);
        all.errors.extend(p.errors);
    }
    all.pairs.sort_by_key(|&(u, v, _)| (u, v));
    all
}

/// Closed loop: `clients` threads issue the mix over `cold`, each the
/// next request only after its previous answer, until `budget` has
/// passed. Request indices continue from `*next`. Returns `(issued,
/// completed within the budget, errors)`: a request still running at the
/// deadline is issued but not counted, so a window's count does not
/// depend on how long its last exploration overruns it.
pub fn closed_loop(
    served: &Served,
    inputs: &Inputs,
    cold: &[(VId, VId)],
    next: &mut usize,
    clients: usize,
    budget: Duration,
) -> (usize, usize, Vec<String>) {
    let shared = AtomicUsize::new(*next);
    let deadline = Instant::now() + budget;
    // xlint: allow(thread-spawn, the load generator's own client threads; they only issue requests)
    let parts: Vec<(usize, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let shared = &shared;
                scope.spawn(move || {
                    let (mut done, mut errors) = (0usize, Vec::new());
                    while Instant::now() < deadline {
                        let r = inputs.request(cold, shared.fetch_add(1, Ordering::Relaxed));
                        match issue(served, r) {
                            Ok(_) if Instant::now() <= deadline => done += 1,
                            Ok(_) => {}
                            Err(e) => errors.push(format!("closed loop {r:?}: {e}")),
                        }
                    }
                    (done, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let issued = shared.into_inner() - *next;
    *next += issued;
    let completed = parts.iter().map(|p| p.0).sum();
    let errors = parts.into_iter().flat_map(|p| p.1).collect();
    (issued, completed, errors)
}
