//! The serving-layer source cache: a bounded, deterministic LRU over
//! distance rows, with an optional landmark plane and admission control.
//!
//! "Build once, answer many" only pays off if *answering* is cheap, and
//! real query traffic is skewed: a handful of hot sources receive most of
//! the load. [`CachedOracle`] wraps any [`DistanceOracle`] and keeps the
//! rows of the most recently used sources behind `Arc`s, so a hit is one
//! mutex-protected scan of a tiny table plus an `Arc` clone — no
//! exploration at all — while misses delegate to the wrapped backend and
//! fill the cache.
//!
//! Three serving policies layer on top (configured via [`CacheConfig`]):
//!
//! * **fill policy** ([`FillPolicy`]) — what a point-to-point *miss*
//!   does: nothing (the default), or consult a prebuilt landmark
//!   plane ([`crate::LandmarkPlane`]) for an `O(L)` bounded-stretch
//!   answer first;
//! * **admission control** ([`CacheConfig::admission`]) — a bounded
//!   in-flight-exploration gate: a miss storm cannot pile unbounded
//!   explorations onto the executor; excess requests queue or are
//!   rejected with the typed [`SsspError::Overloaded`];
//! * **landmark answers** — the one deliberate exception to the
//!   bit-identity rule of DESIGN.md §9: a certified landmark answer is a
//!   documented `(1+δ)`-approximation of the exact distance instead of
//!   the backend's number, in exchange for skipping the exploration
//!   entirely.
//!
//! Determinism is part of the contract (DESIGN.md §9):
//!
//! * **answers** — a cached row is the backend's row, stored verbatim
//!   (including its query [`Ledger`]); hits are bit-identical to cold
//!   queries because nothing is recomputed; landmark answers are pure
//!   functions of (graph, backend config, landmark config);
//! * **eviction / counters** — strict LRU over a bounded table. The
//!   hit/miss/evict trace — and the landmark/fallback/rejection
//!   counters — are pure functions of the (serialized) request sequence
//!   and the configuration; concurrency changes only the interleaving of
//!   requests, never the answer any request receives.
//!
//! ```
//! use pgraph::gen;
//! use sssp::{CachedOracle, DistanceOracle, Oracle};
//!
//! let g = gen::road_grid(8, 8, 3, 1.0, 6.0);
//! let oracle = Oracle::builder(g).eps(0.25).kappa(4).build().unwrap();
//! let served = CachedOracle::new(oracle, 4).unwrap();
//! let cold = served.distances_from(0).unwrap(); // miss: fills the cache
//! let warm = served.distances_from(0).unwrap(); // hit: the cached row
//! assert_eq!(cold, warm);
//! assert_eq!(served.stats().hits, 1);
//! ```

use crate::landmark::LandmarkPlane;
use crate::oracle::{check_source, DistanceOracle, MultiSourceResult, SsspError};
use pgraph::{VId, Weight};
use pram::Ledger;
use std::sync::{Arc, Condvar, Mutex};

/// One cached source row: the backend's distances **and** its query
/// ledger, stored verbatim so a hit reproduces the cold answer exactly
/// (including batch cost accounting through
/// [`DistanceOracle::distances_multi`]).
#[derive(Clone, Debug)]
pub struct CachedRow {
    dist: Vec<Weight>,
    ledger: Ledger,
}

impl CachedRow {
    /// The cached distance row.
    #[inline]
    pub fn dist(&self) -> &[Weight] {
        &self.dist
    }

    /// The query ledger of the exploration that produced the row.
    #[inline]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

/// What a point-to-point miss (no resident row for the source) is
/// allowed to do. The PR 6 behavior — delegate to the backend's
/// early-exit exploration, never fill — is the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FillPolicy {
    /// Delegate every p2p miss to the backend's early-exit exploration;
    /// never consult the landmark plane, never fill the row cache (a
    /// single pair does not justify a full-row exploration).
    #[default]
    NeverFill,
    /// Consult the landmark plane first ([`LandmarkPlane::certify`]);
    /// certified pairs answer in `O(L)` with documented `(1+δ)` stretch,
    /// the rest fall through to the backend. Never fills the row cache.
    /// Requires a plane attached with [`CacheConfig::landmark_plane`].
    LandmarkOnly,
}

/// The admission gate's sizing and overflow behavior
/// ([`CacheConfig::admission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum backend explorations in flight at once (`≥ 1`). Cache
    /// hits and landmark answers never consume a slot.
    pub max_inflight: usize,
    /// What an over-capacity request does: `true` queues (blocks until a
    /// slot frees — backpressure), `false` rejects immediately with
    /// [`SsspError::Overloaded`] (load shedding).
    pub queue: bool,
}

/// Fluent configuration for [`CachedOracle::with_config`].
///
/// ```
/// use pgraph::gen;
/// use sssp::{CacheConfig, FillPolicy, LandmarkConfig, LandmarkPlane, Oracle};
/// use std::sync::Arc;
///
/// let oracle = Oracle::builder(gen::road_grid(8, 8, 3, 1.0, 6.0)).build().unwrap();
/// let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(4, 1.0)).unwrap();
/// let cfg = CacheConfig::new(8)
///     .policy(FillPolicy::LandmarkOnly)
///     .landmark_plane(Arc::new(plane))
///     .admission(4, false); // reject beyond 4 in-flight explorations
/// assert_eq!(cfg.capacity(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct CacheConfig {
    capacity: usize,
    policy: FillPolicy,
    plane: Option<Arc<LandmarkPlane>>,
    admission: Option<AdmissionConfig>,
}

impl CacheConfig {
    /// A config with `capacity` row slots and every other knob at its
    /// default: [`FillPolicy::NeverFill`], no landmarks, no admission
    /// gate — exactly [`CachedOracle::new`].
    pub fn new(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            policy: FillPolicy::default(),
            plane: None,
            admission: None,
        }
    }

    /// Set the point-to-point miss policy.
    pub fn policy(mut self, policy: FillPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a landmark plane built with [`LandmarkPlane::build`] (it
    /// must cover the backend's vertex count; validated at attach). One
    /// plane can be shared by many caches.
    pub fn landmark_plane(mut self, plane: Arc<LandmarkPlane>) -> Self {
        self.plane = Some(plane);
        self
    }

    /// Bound in-flight backend explorations to `max_inflight`; overflow
    /// queues (`queue = true`) or rejects with [`SsspError::Overloaded`].
    pub fn admission(mut self, max_inflight: usize, queue: bool) -> Self {
        self.admission = Some(AdmissionConfig {
            max_inflight,
            queue,
        });
        self
    }

    /// The configured row-slot bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A point-in-time snapshot of the cache counters
/// ([`CachedOracle::stats`]). Every counter is a pure function of the
/// serialized request sequence and the configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a cached row.
    pub hits: u64,
    /// Requests that had to go past the row table (row misses fill;
    /// p2p misses proceed per the fill policy).
    pub misses: u64,
    /// Rows evicted to make room (strict LRU order).
    pub evictions: u64,
    /// p2p misses answered by the landmark plane (`O(L)`, `(1+δ)`
    /// stretch, no exploration).
    pub landmark_answers: u64,
    /// p2p misses that fell through to a backend exploration.
    pub fallbacks: u64,
    /// Requests rejected by the admission gate ([`SsspError::Overloaded`]).
    pub rejections: u64,
    /// Rows currently resident.
    pub len: usize,
    /// The configured bound.
    pub capacity: usize,
}

/// Everything the mutex guards: the LRU table (most recently used at the
/// back; the table is deliberately tiny, so linear scans beat any pointer
/// structure) plus the counters.
#[derive(Debug)]
struct CacheState {
    entries: Vec<(VId, Arc<CachedRow>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    landmark_answers: u64,
    fallbacks: u64,
    rejections: u64,
}

/// The admission gate: a counting semaphore over backend explorations.
/// No clocks, no fairness heuristics — admission is a pure function of
/// the number of explorations currently in flight.
#[derive(Debug)]
struct Gate {
    cfg: AdmissionConfig,
    inflight: Mutex<usize>,
    freed: Condvar,
}

/// RAII slot: dropping releases the exploration slot and wakes one
/// queued waiter.
struct GatePermit<'a>(&'a Gate);

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut n = self.0.inflight.lock().unwrap();
        *n -= 1;
        self.0.freed.notify_one();
    }
}

impl Gate {
    /// Acquire a slot: queue (block) or reject per config. `Err` carries
    /// the observed in-flight count.
    fn admit(&self) -> Result<GatePermit<'_>, usize> {
        let mut n = self.inflight.lock().unwrap();
        if *n >= self.cfg.max_inflight {
            if !self.cfg.queue {
                return Err(*n);
            }
            while *n >= self.cfg.max_inflight {
                n = self.freed.wait(n).unwrap();
            }
        }
        *n += 1;
        Ok(GatePermit(self))
    }
}

/// A bounded, deterministic LRU source cache over any [`DistanceOracle`],
/// with optional landmark answers and admission control (module docs).
///
/// `CachedOracle` is `Send + Sync` whenever the wrapped backend is: rows
/// are `Arc`-swapped (readers keep their `Arc` across evictions; the lock
/// is never held during an exploration), so an `Arc<CachedOracle<_>>` can
/// serve concurrent mixed hit/miss traffic. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    capacity: usize,
    policy: FillPolicy,
    plane: Option<Arc<LandmarkPlane>>,
    gate: Option<Gate>,
    state: Mutex<CacheState>,
}

impl<O: DistanceOracle> CachedOracle<O> {
    /// Wrap `inner` with a cache holding at most `capacity ≥ 1` rows and
    /// every serving knob at its PR 6 default (no landmarks, no admission
    /// gate, [`FillPolicy::NeverFill`]).
    pub fn new(inner: O, capacity: usize) -> Result<Self, SsspError> {
        Self::with_config(inner, CacheConfig::new(capacity))
    }

    /// Wrap `inner` per `cfg`: validate the combination, adopt the
    /// landmark plane, and install the admission gate.
    pub fn with_config(inner: O, cfg: CacheConfig) -> Result<Self, SsspError> {
        if cfg.capacity == 0 {
            return Err(SsspError::Config(
                "source cache capacity must be at least 1 row".into(),
            ));
        }
        if let Some(a) = &cfg.admission {
            if a.max_inflight == 0 {
                return Err(SsspError::Config(
                    "admission gate capacity must be at least 1 in-flight exploration".into(),
                ));
            }
        }
        match &cfg.plane {
            None if cfg.policy == FillPolicy::LandmarkOnly => {
                return Err(SsspError::Config(
                    "FillPolicy::LandmarkOnly requires a landmark plane \
                     (CacheConfig::landmark_plane)"
                        .into(),
                ));
            }
            Some(p) if p.num_vertices() != inner.num_vertices() => {
                return Err(SsspError::Config(format!(
                    "landmark plane covers {} vertices but the backend has {}",
                    p.num_vertices(),
                    inner.num_vertices()
                )));
            }
            _ => {}
        }
        Ok(CachedOracle {
            inner,
            capacity: cfg.capacity,
            policy: cfg.policy,
            plane: cfg.plane,
            gate: cfg.admission.map(|a| Gate {
                cfg: a,
                inflight: Mutex::new(0),
                freed: Condvar::new(),
            }),
            state: Mutex::new(CacheState {
                entries: Vec::with_capacity(cfg.capacity),
                hits: 0,
                misses: 0,
                evictions: 0,
                landmark_answers: 0,
                fallbacks: 0,
                rejections: 0,
            }),
        })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The configured row bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The point-to-point miss policy in effect.
    pub fn policy(&self) -> FillPolicy {
        self.policy
    }

    /// The landmark plane, if one is attached.
    pub fn landmark_plane(&self) -> Option<&Arc<LandmarkPlane>> {
        self.plane.as_ref()
    }

    /// The admission gate's configuration, if one is installed.
    pub fn admission(&self) -> Option<AdmissionConfig> {
        self.gate.as_ref().map(|g| g.cfg)
    }

    /// Snapshot the counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let s = self.state.lock().unwrap();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            landmark_answers: s.landmark_answers,
            fallbacks: s.fallbacks,
            rejections: s.rejections,
            len: s.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Drop every cached row (counters are kept — they describe the whole
    /// lifetime of the cache).
    pub fn clear(&self) {
        self.state.lock().unwrap().entries.clear();
    }

    /// The serving entry point: the row for `source`, shared, plus whether
    /// it was a cache hit. An out-of-range `source` fails with
    /// [`SsspError::InvalidSource`] before it touches the table, the
    /// counters or the gate. Misses pass the admission gate (if
    /// configured), compute **outside** the lock (concurrent requests for
    /// other sources proceed) and then fill the cache, evicting the least
    /// recently used row if the table is full.
    pub fn row(&self, source: VId) -> Result<(Arc<CachedRow>, bool), SsspError> {
        check_source(self.num_vertices(), source)?;
        if let Some(row) = self.lookup(source) {
            return Ok((row, true));
        }
        let _permit = self.admit()?;
        let (dist, ledger) = self.inner.distances_from_with_ledger(source)?;
        Ok((self.insert(source, CachedRow { dist, ledger }), false))
    }

    /// Acquire an exploration slot from the gate (no-op without one);
    /// count and type the rejection otherwise.
    fn admit(&self) -> Result<Option<GatePermit<'_>>, SsspError> {
        match &self.gate {
            None => Ok(None),
            Some(g) => match g.admit() {
                Ok(p) => Ok(Some(p)),
                Err(observed) => {
                    self.state.lock().unwrap().rejections += 1;
                    Err(SsspError::Overloaded {
                        in_flight: observed,
                        capacity: g.cfg.max_inflight,
                    })
                }
            },
        }
    }

    /// Hit path: scan, refresh recency, count. `None` counts a miss.
    fn lookup(&self, source: VId) -> Option<Arc<CachedRow>> {
        let mut s = self.state.lock().unwrap();
        if let Some(i) = s.entries.iter().position(|(v, _)| *v == source) {
            let entry = s.entries.remove(i);
            let row = Arc::clone(&entry.1);
            s.entries.push(entry);
            s.hits += 1;
            Some(row)
        } else {
            s.misses += 1;
            None
        }
    }

    /// Fill path after a miss computed outside the lock. If a concurrent
    /// miss for the same source filled the table first, its row wins (rows
    /// for one source are bit-identical by the determinism contract, so
    /// the choice is unobservable in answers) and only its recency is
    /// refreshed.
    fn insert(&self, source: VId, row: CachedRow) -> Arc<CachedRow> {
        let mut s = self.state.lock().unwrap();
        if let Some(i) = s.entries.iter().position(|(v, _)| *v == source) {
            let entry = s.entries.remove(i);
            let row = Arc::clone(&entry.1);
            s.entries.push(entry);
            return row;
        }
        if s.entries.len() == self.capacity {
            s.entries.remove(0); // least recently used; readers keep their Arc
            s.evictions += 1;
        }
        let row = Arc::new(row);
        s.entries.push((source, Arc::clone(&row)));
        row
    }
}

impl<O: DistanceOracle> DistanceOracle for CachedOracle<O> {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    /// The worst answer any query can receive: the backend's stretch, or
    /// the landmark plane's `1+δ` when a policy lets the plane answer —
    /// whichever is larger.
    fn stretch_bound(&self) -> f64 {
        let inner = self.inner.stretch_bound();
        match &self.plane {
            Some(p) if !matches!(self.policy, FillPolicy::NeverFill) => {
                inner.max(p.stretch_bound())
            }
            _ => inner,
        }
    }

    fn cost(&self) -> &Ledger {
        self.inner.cost()
    }

    fn distances_from_with_ledger(&self, source: VId) -> Result<(Vec<Weight>, Ledger), SsspError> {
        let (row, _hit) = self.row(source)?;
        Ok((row.dist.clone(), row.ledger.clone()))
    }

    /// Mixed hit/miss batches go row by row through the cache (hits are
    /// free, misses fill — and pass the admission gate, so an overloaded
    /// server rejects the batch at its first cold row), merged in source
    /// order like every other backend. Every source is checked before the
    /// first row, so a batch with an out-of-range source explores nothing.
    fn distances_multi(&self, sources: &[VId]) -> Result<MultiSourceResult, SsspError> {
        let n = self.num_vertices();
        for &s in sources {
            check_source(n, s)?;
        }
        let mut dist = crate::DistanceMatrix::with_capacity(sources.len(), n);
        let mut ledger = Ledger::new();
        for &s in sources {
            let (row, _hit) = self.row(s)?;
            ledger.absorb_parallel(&row.ledger);
            dist.push_row(&row.dist);
        }
        Ok(MultiSourceResult {
            dist,
            sources: sources.to_vec(),
            ledger,
        })
    }

    /// Nearest-source queries are not per-source row queries — delegate to
    /// the backend (the hopset engine answers them in **one** multi-source
    /// exploration) without touching the cache.
    fn distances_to_nearest(&self, sources: &[VId]) -> Result<Vec<Weight>, SsspError> {
        self.inner.distances_to_nearest(sources)
    }

    /// Point-to-point, in increasing cost order, after both ids are checked
    /// (an out-of-range id fails with [`SsspError::InvalidSource`] before
    /// it touches the table, the counters or the gate):
    ///
    /// 1. a resident row for `u` answers immediately (hit, refreshes
    ///    recency) — bit-identical to the backend;
    /// 2. on a miss, a configured landmark plane (policy ≠
    ///    [`FillPolicy::NeverFill`]) answers certified pairs in `O(L)`
    ///    with documented `(1+δ)` stretch — no exploration, no gate;
    /// 3. otherwise the request passes the admission gate and falls back
    ///    to the backend's early-exit exploration (bit-identical to the
    ///    full row).
    fn distance(&self, u: VId, v: VId) -> Result<Weight, SsspError> {
        let n = self.num_vertices();
        check_source(n, v)?;
        check_source(n, u)?;
        if let Some(row) = self.lookup(u) {
            return Ok(row.dist[v as usize]);
        }
        if !matches!(self.policy, FillPolicy::NeverFill) {
            if let Some(plane) = &self.plane {
                if let Some(d) = plane.certify(u, v) {
                    self.state.lock().unwrap().landmark_answers += 1;
                    return Ok(d);
                }
            }
        }
        let _permit = self.admit()?;
        self.state.lock().unwrap().fallbacks += 1;
        self.inner.distance(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oracle;
    use pgraph::gen;
    use pram::pool::threads_from_env;

    fn served() -> CachedOracle<Oracle> {
        let g = gen::gnm_connected(100, 300, 7, 1.0, 8.0);
        let oracle = Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        CachedOracle::new(oracle, 2).unwrap()
    }

    #[test]
    fn capacity_zero_is_a_config_error() {
        let g = gen::path(8);
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert!(matches!(
            CachedOracle::new(oracle, 0),
            Err(SsspError::Config(_))
        ));
    }

    #[test]
    fn config_conflicts_are_typed() {
        let g = gen::path(8);
        let mk = || {
            Oracle::builder(gen::path(8))
                .threads(threads_from_env())
                .build()
                .unwrap()
        };
        // LandmarkOnly without a plane.
        assert!(matches!(
            CachedOracle::with_config(mk(), CacheConfig::new(2).policy(FillPolicy::LandmarkOnly)),
            Err(SsspError::Config(_))
        ));
        // Admission capacity 0.
        assert!(matches!(
            CachedOracle::with_config(mk(), CacheConfig::new(2).admission(0, false)),
            Err(SsspError::Config(_))
        ));
        // Prebuilt plane over the wrong graph.
        let small = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let plane = Arc::new(
            crate::LandmarkPlane::build(&small, &crate::LandmarkConfig::new(2, 1.0)).unwrap(),
        );
        let big = Oracle::builder(gen::path(16))
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert!(matches!(
            CachedOracle::with_config(big, CacheConfig::new(2).landmark_plane(plane)),
            Err(SsspError::Config(_))
        ));
    }

    #[test]
    fn hits_are_bit_identical_and_counted() {
        let c = served();
        let cold = c.distances_from(5).unwrap();
        let reference = c.inner().distances_from(5).unwrap();
        let warm = c.distances_from(5).unwrap();
        for ((a, b), r) in cold.iter().zip(&warm).zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), r.to_bits());
        }
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.len), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_is_strict_and_counted() {
        let c = served(); // capacity 2
        assert!(!c.row(0).unwrap().1);
        assert!(!c.row(1).unwrap().1);
        assert!(c.row(0).unwrap().1); // refreshes 0's recency: LRU is now 1
        assert!(!c.row(2).unwrap().1); // evicts 1
        assert!(c.row(0).unwrap().1); // 0 survived
        assert!(!c.row(1).unwrap().1); // 1 was evicted (evicts 2)
        let st = c.stats();
        assert_eq!(st.evictions, 2);
        assert_eq!(st.len, 2);
        assert_eq!(st.capacity, 2);
    }

    #[test]
    fn p2p_hits_read_the_row_and_misses_do_not_fill() {
        let c = served();
        let reference = c.inner().distances_from(3).unwrap();
        // Miss path (default NeverFill): no row resident, delegates, does
        // not fill, counts a fallback.
        let d = c.distance(3, 40).unwrap();
        assert_eq!(d.to_bits(), reference[40].to_bits());
        assert_eq!(c.stats().len, 0);
        assert_eq!(c.stats().fallbacks, 1);
        assert_eq!(c.stats().landmark_answers, 0);
        // Fill, then the p2p answer comes from the row (hit counted).
        c.row(3).unwrap();
        let hits_before = c.stats().hits;
        let d2 = c.distance(3, 40).unwrap();
        assert_eq!(d2.to_bits(), reference[40].to_bits());
        assert_eq!(c.stats().hits, hits_before + 1);
    }

    #[test]
    fn reject_policy_returns_overloaded_under_concurrent_misses() {
        use std::sync::mpsc;

        /// A backend whose row computation blocks until released — lets
        /// the test hold an exploration slot deterministically.
        struct Blocking {
            n: usize,
            gate: Mutex<bool>,
            cv: Condvar,
            entered: mpsc::Sender<()>,
        }
        impl DistanceOracle for Blocking {
            fn name(&self) -> &'static str {
                "blocking"
            }
            fn num_vertices(&self) -> usize {
                self.n
            }
            fn stretch_bound(&self) -> f64 {
                1.0
            }
            fn cost(&self) -> &Ledger {
                Box::leak(Box::new(Ledger::new()))
            }
            fn distances_from_with_ledger(
                &self,
                _source: VId,
            ) -> Result<(Vec<Weight>, Ledger), SsspError> {
                self.entered.send(()).unwrap();
                let mut open = self.gate.lock().unwrap();
                while !*open {
                    open = self.cv.wait(open).unwrap();
                }
                Ok((vec![0.0; self.n], Ledger::new()))
            }
        }

        let (tx, rx) = mpsc::channel();
        let backend = Blocking {
            n: 8,
            gate: Mutex::new(false),
            cv: Condvar::new(),
            entered: tx,
        };
        let c = Arc::new(
            CachedOracle::with_config(backend, CacheConfig::new(4).admission(1, false)).unwrap(),
        );
        // Thread 1 occupies the single exploration slot...
        let c1 = Arc::clone(&c);
        let t = std::thread::spawn(move || c1.row(0).map(|r| r.1));
        rx.recv().unwrap(); // ...and is provably inside the backend now.
                            // A second miss must be rejected, typed and counted.
        match c.row(1) {
            Err(SsspError::Overloaded {
                in_flight,
                capacity,
            }) => {
                assert_eq!((in_flight, capacity), (1, 1));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(c.stats().rejections, 1);
        // Release the blocked exploration; the first request completes.
        {
            let backend = c.inner();
            *backend.gate.lock().unwrap() = true;
            backend.cv.notify_all();
        }
        assert!(!t.join().unwrap().unwrap());
        // The slot is free again: the once-rejected request now succeeds.
        assert!(c.row(1).is_ok());
    }

    #[test]
    fn queue_policy_blocks_instead_of_rejecting() {
        let g = gen::gnm_connected(60, 180, 3, 1.0, 8.0);
        let oracle = Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let c = Arc::new(
            CachedOracle::with_config(oracle, CacheConfig::new(8).admission(1, true)).unwrap(),
        );
        // Many concurrent misses through a 1-slot queueing gate: all
        // succeed (backpressure, not shedding), none are rejected.
        let handles: Vec<_> = (0..6u32)
            .map(|s| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.row(s).is_ok())
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
        let st = c.stats();
        assert_eq!(st.rejections, 0);
        assert_eq!(st.misses, 6);
    }

    #[test]
    fn ledgers_are_cached_with_rows() {
        let c = served();
        let (_, cold_ledger) = c.distances_from_with_ledger(9).unwrap();
        let (_, warm_ledger) = c.distances_from_with_ledger(9).unwrap();
        assert_eq!(cold_ledger, warm_ledger);
        // Batches over hits reproduce cold batch ledgers exactly.
        let warm_batch = c.distances_multi(&[9]).unwrap();
        assert_eq!(warm_batch.ledger, cold_ledger);
    }

    #[test]
    fn invalid_sources_do_not_poison_the_cache() {
        let c = served();
        assert!(matches!(
            c.row(999),
            Err(SsspError::InvalidSource { source: 999, .. })
        ));
        assert!(matches!(
            c.distance(0, 999),
            Err(SsspError::InvalidSource { .. })
        ));
        // Nothing was looked up, counted or inserted.
        let st = c.stats();
        assert_eq!(st.len, 0);
        assert_eq!(st.misses, 0);
    }

    /// A cache over `road_grid(6, 6)` (n = 36) whose one-slot gate rejects.
    fn gated() -> CachedOracle<Oracle> {
        let oracle = Oracle::builder(gen::road_grid(6, 6, 3, 1.0, 6.0))
            .threads(threads_from_env())
            .build()
            .unwrap();
        CachedOracle::with_config(oracle, CacheConfig::new(2).admission(1, false)).unwrap()
    }

    /// `got` is `InvalidSource` for vertex 1000, and `c` counted nothing.
    fn assert_invalid_and_untouched<T: std::fmt::Debug>(
        c: &CachedOracle<Oracle>,
        got: Result<T, SsspError>,
    ) {
        assert!(
            matches!(
                got,
                Err(SsspError::InvalidSource {
                    source: 1000,
                    n: 36
                })
            ),
            "{got:?}"
        );
        let untouched = CacheStats {
            capacity: 2,
            ..CacheStats::default()
        };
        assert_eq!(c.stats(), untouched);
    }

    /// A bad row source is bad input whatever the load: with the gate's
    /// one slot held it is still `InvalidSource`, and it counts neither a
    /// miss nor a rejection.
    #[test]
    fn invalid_row_source_is_rejected_before_the_gate() {
        let c = gated();
        let _held = c.admit().unwrap();
        assert_invalid_and_untouched(&c, c.row(1000));
    }

    /// A bad p2p source fails before the row table counts a miss.
    #[test]
    fn invalid_p2p_source_counts_no_miss() {
        let c = gated();
        assert_invalid_and_untouched(&c, c.distance(1000, 3));
    }

    /// A batch with one bad source explores and caches nothing, as
    /// `Oracle::distances_multi` does.
    #[test]
    fn invalid_batch_source_explores_no_row() {
        let c = gated();
        assert_invalid_and_untouched(&c, c.distances_multi(&[5, 1000]));
    }
}
