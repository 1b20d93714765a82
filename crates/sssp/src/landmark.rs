//! The landmark plane: triangle-inequality distance bounds from a few
//! cached `(1+ε)`-rows, serving point-to-point queries for sources the
//! row cache has never seen.
//!
//! PR 6's serving layer left one hole: a point-to-point *miss* pays a
//! full early-exit exploration (p50 0.3–1.0 ms on the n = 16 384
//! benchmark graphs, from a calm to a busy host, 2 threads on a 2-vCPU
//! host, against about 0.2–0.5 µs for a landmark certification) even
//! though the answer is a single number.
//! This module closes it with the classic landmark (ALT-style) trick,
//! adapted to *approximate* rows: pick `L` landmarks by a deterministic
//! farthest-point sweep, cache their full distance rows once (the "few
//! sources, whole rows" economics that make multi-source hopset
//! computation pay off), and answer a p2p query
//! `(u, v)` from the sandwich
//!
//! > `lower(u, v) ≤ d(u, v) ≤ upper(u, v)`
//!
//! in `O(L)` time — no exploration at all — whenever the sandwich is
//! tight enough (`upper ≤ (1+δ)·lower`) for the configured answer budget
//! `δ`.
//!
//! **Soundness with `(1+ε)`-rows** (DESIGN.md §9). The cached rows are
//! the backend's, so they satisfy `d ≤ d̃ ≤ (1+ε)·d` per entry. Writing
//! `ũ = d̃(ℓ, u)`, `ṽ = d̃(ℓ, v)`:
//!
//! * **upper**: `d(u,v) ≤ d(ℓ,u) + d(ℓ,v) ≤ ũ + ṽ` — approximation
//!   error only *helps* the triangle upper bound;
//! * **lower**: `d(u,v) ≥ d(ℓ,u) − d(ℓ,v) ≥ ũ/(1+ε) − ṽ` (and
//!   symmetrically), so the usual `|ũ − ṽ|` must be *deflated* by the
//!   row stretch before it is a sound lower bound.
//!
//! When the certificate `upper ≤ (1+δ)·lower` holds, the returned answer
//! `upper` satisfies `d ≤ upper ≤ (1+δ)·lower ≤ (1+δ)·d`: the composed
//! stretch of a landmark answer is **`1+δ` against the exact distance**
//! (the `ε` is already absorbed by the deflation). Because the best
//! achievable ratio with `(1+ε)`-rows is about `(1+ε)²` even when `u`
//! *is* a landmark, configure `δ > ε·(2+ε)` or the plane will certify
//! (almost) nothing and every query will fall through.
//!
//! Determinism: landmark selection is a pure function of (graph rows,
//! config) — a farthest-point sweep seeded at vertex 0, ties broken by
//! smallest vertex id, no RNG anywhere — and the rows themselves are
//! bit-identical at every thread count by the pool contract (§5), so the
//! whole plane (selection, bounds, certificates) is reproducible bit for
//! bit across rebuilds and thread counts (`tests/landmark.rs`).

use crate::oracle::{check_source, DistanceMatrix, DistanceOracle, SsspError};
use pgraph::{VId, Weight, INF};
use pram::Ledger;

/// Configuration for [`LandmarkPlane::build`]: how many landmarks, and
/// the answer budget `δ`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LandmarkConfig {
    /// Number of landmarks `L ≥ 1` (each costs one full row exploration
    /// at attach time and `O(n)` resident memory).
    pub count: usize,
    /// Answer budget `δ > 0`: a query is answered from the plane only if
    /// `upper ≤ (1+δ)·lower`, making the answer a `(1+δ)`-approximation
    /// of the exact distance. Budgets at or below the row stretch's
    /// `ε·(2+ε)` certify almost nothing (module docs).
    pub delta: f64,
}

impl LandmarkConfig {
    /// A config with `count` landmarks and answer budget `delta`.
    pub fn new(count: usize, delta: f64) -> Self {
        LandmarkConfig { count, delta }
    }
}

/// The sandwich for one query pair ([`LandmarkPlane::bounds`]):
/// `lower ≤ d(u, v) ≤ upper`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LandmarkBounds {
    /// Sound lower bound on the exact distance (deflated difference
    /// bound; `INF` certifies the pair disconnected).
    pub lower: Weight,
    /// Sound upper bound on the exact distance (triangle bound).
    pub upper: Weight,
}

/// `L` landmarks with their cached `(1+ε)`-rows: a deterministic,
/// immutable, `Send + Sync` answer plane for point-to-point queries.
///
/// Built once from any [`DistanceOracle`] backend, then queried without
/// locks: [`bounds`](LandmarkPlane::bounds) returns the sandwich,
/// [`certify`](LandmarkPlane::certify) turns it into an answer when the
/// configured budget is met.
///
/// ```
/// use pgraph::gen;
/// use sssp::{DistanceOracle, LandmarkConfig, LandmarkPlane, Oracle};
///
/// let g = gen::road_grid(10, 10, 3, 1.0, 6.0);
/// let oracle = Oracle::builder(g).eps(0.25).kappa(4).build().unwrap();
/// let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(4, 1.0)).unwrap();
/// let exact = pgraph::exact::dijkstra(oracle.graph(), 7).dist;
/// let b = plane.bounds(7, 42).unwrap();
/// assert!(b.lower <= exact[42] + 1e-9);
/// assert!(b.upper >= exact[42] - 1e-9);
/// if let Some(d) = plane.certify(7, 42) {
///     assert!(d >= exact[42] - 1e-9);
///     assert!(d <= (1.0 + plane.delta()) * exact[42] + 1e-9);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct LandmarkPlane {
    /// The chosen landmarks, in selection order.
    landmarks: Vec<VId>,
    /// `landmarks.len() × n` row matrix: `rows.row(i)[v] = d̃(ℓᵢ, v)`.
    rows: DistanceMatrix,
    /// The backend's row stretch minus one (`d̃ ≤ (1+ε)·d`).
    eps: f64,
    /// The answer budget δ.
    delta: f64,
    /// Build cost: the seed row plus one row per landmark, absorbed as
    /// parallel (they are independent explorations).
    build_ledger: Ledger,
}

/// Deterministic farthest-point argmax: the vertex maximizing `key`,
/// treating `INF` as larger than any finite value (so uncovered
/// components are reached first), ties broken by smallest vertex id.
fn sweep_argmax(key: &[Weight]) -> VId {
    let mut best = 0usize;
    for (v, &k) in key.iter().enumerate().skip(1) {
        // Strict `>` keeps the smallest id among equals; INF > finite
        // holds natively for f64 and INF > INF is false, so the id rule
        // covers the all-INF and multi-INF cases too.
        if k > key[best] {
            best = v;
        }
    }
    best as VId
}

impl LandmarkPlane {
    /// Select `cfg.count` landmarks by the deterministic farthest-point
    /// sweep and cache their rows, computed through the backend's batched
    /// [`DistanceOracle::distances_multi`] path.
    ///
    /// The sweep: compute the row of vertex 0 (the fixed seed — discarded
    /// afterwards), take the farthest vertex as the first landmark, then
    /// repeatedly take the vertex farthest from the chosen set (`INF`
    /// counts as farthest, so disconnected components get covered; ties
    /// break to the smallest id). Selection depends only on the rows,
    /// which are bit-identical at every thread count, so the plane is a
    /// pure function of (graph, backend config, `cfg`).
    ///
    /// Errors: [`SsspError::Config`] for a count outside `[1, n]`, a δ
    /// that is not positive and finite, or a backend whose
    /// [`DistanceOracle::stretch_bound`] is not finite — the lower bounds
    /// deflate by it, and an oracle under a binding hop cap has none.
    pub fn build<O: DistanceOracle + ?Sized>(
        backend: &O,
        cfg: &LandmarkConfig,
    ) -> Result<Self, SsspError> {
        let n = backend.num_vertices();
        if cfg.count == 0 || cfg.count > n {
            return Err(SsspError::Config(format!(
                "landmark count must be in [1, n = {n}], got {}",
                cfg.count
            )));
        }
        if !(cfg.delta > 0.0 && cfg.delta.is_finite()) {
            return Err(SsspError::Config(format!(
                "landmark answer budget delta must be positive and finite, got {}",
                cfg.delta
            )));
        }
        let bound = backend.stretch_bound();
        if !bound.is_finite() {
            return Err(SsspError::Config(format!(
                "a landmark plane needs a backend with a finite stretch bound, got {bound} \
                 (a binding hop cap voids the bound)"
            )));
        }
        let eps = bound - 1.0;

        let mut build_ledger = Ledger::new();
        // Seed row: distances from vertex 0, used only to pick ℓ₀.
        let seed = backend.distances_multi(&[0])?;
        build_ledger.absorb_parallel(&seed.ledger);

        let mut landmarks: Vec<VId> = Vec::with_capacity(cfg.count);
        let mut rows = DistanceMatrix::with_capacity(cfg.count, n);
        // min over chosen landmarks of d̃(ℓ, v); starts as the seed row.
        let mut min_dist: Vec<Weight> = seed.dist.row(0).to_vec();
        for _ in 0..cfg.count {
            let next = sweep_argmax(&min_dist);
            let r = backend.distances_multi(&[next])?;
            build_ledger.absorb_parallel(&r.ledger);
            let row = r.dist.row(0);
            for (m, &d) in min_dist.iter_mut().zip(row) {
                if d < *m {
                    *m = d;
                }
            }
            landmarks.push(next);
            rows.push_row(row);
        }

        Ok(LandmarkPlane {
            landmarks,
            rows,
            eps,
            delta: cfg.delta,
            build_ledger,
        })
    }

    /// The chosen landmarks, in selection order.
    pub fn landmarks(&self) -> &[VId] {
        &self.landmarks
    }

    /// The cached row of the `i`-th landmark.
    pub fn row(&self, i: usize) -> &[Weight] {
        self.rows.row(i)
    }

    /// Number of vertices of the backing graph.
    pub fn num_vertices(&self) -> usize {
        self.rows.num_targets()
    }

    /// The answer budget δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Guaranteed multiplicative stretch of certified answers against the
    /// **exact** distance: `1 + δ` (module docs — the row `ε` is absorbed
    /// by the lower-bound deflation).
    pub fn stretch_bound(&self) -> f64 {
        1.0 + self.delta
    }

    /// The attach-time cost: seed row + one row per landmark, charged as
    /// parallel explorations.
    pub fn build_cost(&self) -> &Ledger {
        &self.build_ledger
    }

    /// The sandwich `lower ≤ d(u, v) ≤ upper` for one pair, scanned over
    /// all landmarks in selection order (`O(L)`).
    ///
    /// A landmark that reaches exactly one endpoint certifies the pair
    /// disconnected (`lower = upper = INF` — rows are hop-budget-complete,
    /// so `INF` means unreachable); one that reaches neither contributes
    /// nothing.
    pub fn bounds(&self, u: VId, v: VId) -> Result<LandmarkBounds, SsspError> {
        let n = self.num_vertices();
        check_source(n, u)?;
        check_source(n, v)?;
        if u == v {
            return Ok(LandmarkBounds {
                lower: 0.0,
                upper: 0.0,
            });
        }
        let deflate = 1.0 / (1.0 + self.eps);
        let (ui, vi) = (u as usize, v as usize);
        let mut lower: Weight = 0.0;
        let mut upper: Weight = INF;
        for i in 0..self.landmarks.len() {
            let row = self.rows.row(i);
            let (du, dv) = (row[ui], row[vi]);
            match (du.is_finite(), dv.is_finite()) {
                (true, true) => {
                    let up = du + dv;
                    if up < upper {
                        upper = up;
                    }
                    let lo = (du * deflate - dv).max(dv * deflate - du);
                    if lo > lower {
                        lower = lo;
                    }
                }
                (true, false) | (false, true) => {
                    // ℓ reaches one endpoint but not the other: the
                    // endpoints lie in different components.
                    return Ok(LandmarkBounds {
                        lower: INF,
                        upper: INF,
                    });
                }
                (false, false) => {}
            }
        }
        Ok(LandmarkBounds { lower, upper })
    }

    /// Answer the pair from the plane if the sandwich meets the budget:
    /// `Some(upper)` when `upper ≤ (1+δ)·lower` (a `(1+δ)`-approximation
    /// of the exact distance), `Some(INF)` when a landmark certifies the
    /// pair disconnected, `Some(0)` for `u == v`, else `None` (caller
    /// falls through to an exploration). Out-of-range vertices return
    /// `None` — range errors belong to the fallback path's checks.
    pub fn certify(&self, u: VId, v: VId) -> Option<Weight> {
        let b = self.bounds(u, v).ok()?;
        if b.lower.is_infinite() {
            return Some(INF);
        }
        if b.upper <= (1.0 + self.delta) * b.lower {
            return Some(b.upper);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oracle;
    use pgraph::{exact, gen};
    use pram::pool::threads_from_env;

    fn grid_plane(count: usize, delta: f64) -> (Oracle, LandmarkPlane) {
        let g = gen::road_grid(9, 9, 4, 1.0, 6.0);
        let oracle = Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(count, delta)).unwrap();
        (oracle, plane)
    }

    #[test]
    fn config_validation_is_typed() {
        let g = gen::path(8);
        let oracle = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        for bad in [
            LandmarkConfig::new(0, 1.0),
            LandmarkConfig::new(9, 1.0),
            LandmarkConfig::new(2, 0.0),
            LandmarkConfig::new(2, f64::INFINITY),
        ] {
            assert!(
                matches!(
                    LandmarkPlane::build(&oracle, &bad),
                    Err(SsspError::Config(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn selection_is_farthest_point_and_deterministic() {
        let (_, a) = grid_plane(4, 1.0);
        let (_, b) = grid_plane(4, 1.0);
        assert_eq!(a.landmarks(), b.landmarks(), "rebuild must agree");
        assert_eq!(a.landmarks().len(), 4);
        // Landmarks are distinct (a chosen landmark has min-dist 0 and
        // can never be the farthest again on a connected graph).
        let mut ls = a.landmarks().to_vec();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 4);
        for i in 0..4 {
            assert_eq!(
                a.row(i).iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                b.row(i).iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "row {i} must be bit-identical across rebuilds"
            );
        }
    }

    #[test]
    fn sandwich_is_sound_against_exact_distances() {
        let (oracle, plane) = grid_plane(5, 1.0);
        for u in [0usize, 13, 40, 80] {
            let exact = exact::dijkstra(oracle.graph(), u as u32).dist;
            for (v, &d) in exact.iter().enumerate() {
                let b = plane.bounds(u as u32, v as u32).unwrap();
                assert!(
                    b.lower <= d + 1e-9,
                    "({u},{v}): lower {} > exact {d}",
                    b.lower
                );
                assert!(
                    b.upper >= d - 1e-9,
                    "({u},{v}): upper {} < exact {d}",
                    b.upper
                );
            }
        }
    }

    #[test]
    fn certified_answers_meet_the_composed_stretch() {
        let (oracle, plane) = grid_plane(6, 1.0);
        let n = oracle.num_vertices();
        let mut certified = 0usize;
        for u in (0..n).step_by(7) {
            let exact = exact::dijkstra(oracle.graph(), u as u32).dist;
            for v in (0..n).step_by(5) {
                if let Some(d) = plane.certify(u as u32, v as u32) {
                    certified += 1;
                    assert!(d >= exact[v] - 1e-9, "({u},{v}): {d} < {}", exact[v]);
                    assert!(
                        d <= plane.stretch_bound() * exact[v] + 1e-9,
                        "({u},{v}): {d} > (1+delta)*{}",
                        exact[v]
                    );
                }
            }
        }
        assert!(certified > 0, "a 2x budget must certify some grid pairs");
    }

    #[test]
    fn self_pairs_and_landmark_pairs_certify() {
        let (_, plane) = grid_plane(4, 1.0);
        assert_eq!(plane.certify(17, 17), Some(0.0));
        // A landmark endpoint has the tightest possible sandwich
        // (ratio ≤ (1+ε)² = 1.5625 < 1+δ = 2).
        let l = plane.landmarks()[0];
        assert!(plane.certify(l, l / 2 + 1).is_some());
    }

    #[test]
    fn disconnected_pairs_are_certified_infinite() {
        // Two components: a path 0-1-2-3 and an isolated pair 4-5.
        let mut b = pgraph::GraphBuilder::new(6);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (4, 5)] {
            b.add_edge(u, v, 1.0);
        }
        let g = b.build().unwrap();
        let oracle = Oracle::builder(g)
            .eps(0.5)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let plane = LandmarkPlane::build(&oracle, &LandmarkConfig::new(2, 1.0)).unwrap();
        // The sweep's INF-first rule must have covered both components.
        assert_eq!(plane.certify(0, 4), Some(INF));
        assert_eq!(plane.certify(5, 2), Some(INF));
        // Within-component queries still work.
        let b = plane.bounds(4, 5).unwrap();
        assert!(b.upper.is_finite());
    }

    #[test]
    fn out_of_range_bounds_are_typed_and_certify_declines() {
        let (_, plane) = grid_plane(2, 1.0);
        assert!(matches!(
            plane.bounds(0, 999),
            Err(SsspError::InvalidSource { source: 999, .. })
        ));
        assert_eq!(plane.certify(999, 0), None);
    }

    #[test]
    fn tiny_budget_certifies_nothing_but_trivial_pairs() {
        // δ = 0.01 « ε(2+ε) = 0.5625: the deflated sandwich can never be
        // that tight on distinct connected pairs.
        let (oracle, plane) = grid_plane(4, 0.01);
        let n = oracle.num_vertices() as u32;
        for u in (0..n).step_by(11) {
            for v in (1..n).step_by(13) {
                if u != v {
                    assert_eq!(plane.certify(u, v), None, "({u},{v})");
                }
            }
        }
    }
}
