//! All parameters of the construction — the single source of truth.
//!
//! The paper's parameter zoo (§2, §2.1, §3.4):
//!
//! * `κ` governs hopset sparsity (`|H_k| ≤ n^{1+1/κ}`, eq. (9)),
//! * `ρ ∈ (0, 1/2)` governs work (`O((|E|+n^{1+1/κ})·n^ρ)` processors),
//! * `i₀ = ⌊log2 κρ⌋` ends the *exponential growth* stage,
//! * `ℓ = i₀ + ⌈(κ+1)/(κρ)⌉ − 1` is the last phase (eq. (5) then guarantees
//!   `|P_ℓ| ≤ n^ρ = deg_ℓ`, so phase ℓ has no popular clusters),
//! * `deg_i = n^{2^i/κ}` for `i ≤ i₀`, then `n^ρ` (§2.1),
//! * `δ_i` is the phase-`i` interconnection distance threshold,
//! * `R_i` bounds cluster radii (Lemma 2.2): `R_0 = 0`,
//!   `R_{i+1} = (2(1+ε_prev)δ_i + 4R_i)·log2 n + R_i`,
//! * `β` is the hopbound (eq. (2) in theory; the `h_i` recursion of
//!   Lemma 3.4 / eq. (17) in practical mode),
//! * `σ_i` bounds memory-path lengths for path reporting (§4.3):
//!   `σ_0 = 0`, `σ_{i+1} = (4·log2 n+1)σ_i + 2(2β+1)·log2 n`,
//!   `σ = 2σ_ℓ + 2β + 1` (eq. (20)).
//!
//! ## Erratum: the δ schedule
//!
//! §2.1 prints `δ_i = α·(1/ε)^i` with `α = ℓ·2^{k+1}`, under which δ₀
//! already exceeds the scale diameter — inconsistent with Lemma 2.8's step
//! "`d_G(C_u,C_v) ≤ δ_i ... thus d_G(C_u,C_v) ≤ 2^{k+1}`" and with
//! Corollary 3.5's identity `5·α·c(n)·(1/ε)^{ℓ-1} = 10·c(n)·2^k`, which
//! forces `α = 2^{k+1}·ε^{ℓ-1}`. We implement the consistent geometric
//! schedule `δ_i = 2^{k+1}·ε^{ℓ-1-i}` (so `δ_ℓ = 2^{k+1}/ε` covers the
//! scale), which is also the schedule of the randomized ancestor \[EN19\].
//! See DESIGN.md §4. [`DeltaSchedule::PaperLiteral`] retains the printed
//! `α = ℓ·2^{k+1}` for side-by-side comparison.

use pgraph::{ceil_log2, floor_log2, Weight};

/// How aggressively to instantiate the paper's constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamMode {
    /// The paper's formulas verbatim (constant 1 where the paper writes
    /// `O(·)`), including the §3.4 rescaling of ε. Guarantees hold but the
    /// hop budget is astronomically conservative — use for small-n validation.
    Theory,
    /// Identical algorithm; the internal ε *is* the user ε and the hop
    /// budget comes from the `h_i` recursion (eq. (17)) capped at `n`.
    /// Stretch is then measured rather than pre-paid (it passes with wide
    /// margin throughout the experiment suite — see EXPERIMENTS.md E2).
    Practical,
}

/// Which δ-schedule to use (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaSchedule {
    /// `δ_i = 2^{k+1}·ε^{ℓ-1-i}` — the erratum-corrected schedule (default).
    Corrected,
    /// `δ_i = ℓ·2^{k+1}·(1/ε)^i` — exactly as printed in §2.1.
    PaperLiteral,
}

/// Errors from parameter validation.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// ε must lie in (0, 1).
    BadEps(f64),
    /// κ must be ≥ 2 (Theorem 3.7).
    BadKappa(usize),
    /// ρ must lie in (0, 1/2).
    BadRho(f64),
    /// Need at least 2 vertices.
    TooFewVertices(usize),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::BadEps(e) => write!(f, "eps must be in (0,1), got {e}"),
            ParamError::BadKappa(k) => write!(f, "kappa must be >= 2, got {k}"),
            ParamError::BadRho(r) => write!(f, "rho must be in (0, 1/2), got {r}"),
            ParamError::TooFewVertices(n) => write!(f, "need n >= 2 vertices, got {n}"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Global (scale-independent) parameters.
#[derive(Clone, Debug)]
pub struct HopsetParams {
    /// Number of vertices of the input graph.
    pub n: usize,
    /// Target stretch is `1 + eps`.
    pub eps: f64,
    /// Sparsity parameter κ ≥ 2.
    pub kappa: usize,
    /// Work parameter ρ ∈ (0, 1/2) with κρ ≥ 1.
    pub rho: f64,
    /// Constant-instantiation mode.
    pub mode: ParamMode,
    /// δ-schedule selection (see module docs).
    pub delta_schedule: DeltaSchedule,
    /// `⌈log2 n⌉`.
    pub log2n: u32,
    /// End of the exponential-growth stage: `⌊log2 κρ⌋`. Negative when
    /// κρ < 1 (the exponential stage is then empty and every phase uses
    /// `deg_i = n^ρ` — the paper's schedule degenerates gracefully).
    pub i0: isize,
    /// Last phase index: `ℓ = i₀ + ⌈(κ+1)/(κρ)⌉ − 1`.
    pub ell: usize,
    /// `deg_i` for `i ∈ [0, ℓ]`.
    pub degrees: Vec<usize>,
    /// Internal ε driving the δ schedule (rescaled in Theory mode per §3.4).
    pub eps_int: f64,
    /// Per-scale stretch factor ε′ (Lemma 3.6 compounds `(1+ε′)` per scale).
    pub eps_scale: f64,
    /// The hopbound β.
    pub beta: usize,
    /// Hop budget actually used by explorations: `min(2β+1, n, hop_cap)`.
    /// A hop bound ≥ n−1 is exact, so the cap never weakens a guarantee.
    pub hop_limit: usize,
    /// Hop budget for answering queries over `G ∪ H`: `min(β, n, hop_cap)`.
    pub query_hops: usize,
    /// σ bound on memory-path lengths (path reporting, eq. (20)).
    pub sigma: usize,
}

impl HopsetParams {
    /// Validate and derive all quantities. `hop_cap` optionally clamps the
    /// exploration/query hop budgets (practical-scale runs).
    pub fn new(
        n: usize,
        eps: f64,
        kappa: usize,
        rho: f64,
        mode: ParamMode,
        aspect_ratio_bound: Weight,
        hop_cap: Option<usize>,
    ) -> Result<Self, ParamError> {
        if n < 2 {
            return Err(ParamError::TooFewVertices(n));
        }
        if !(eps > 0.0 && eps < 1.0) {
            return Err(ParamError::BadEps(eps));
        }
        if kappa < 2 {
            return Err(ParamError::BadKappa(kappa));
        }
        if !(rho > 0.0 && rho < 0.5) {
            return Err(ParamError::BadRho(rho));
        }
        let kr = kappa as f64 * rho;
        let log2n = ceil_log2(n).max(1);
        let i0 = kr.log2().floor() as isize; // ⌊log2 κρ⌋ (negative if κρ < 1)
        let ell = (i0 + ((kappa as f64 + 1.0) / kr).ceil() as isize - 1).max(1) as usize;
        let degrees: Vec<usize> = (0..=ell)
            .map(|i| {
                let expo = if (i as isize) <= i0 {
                    (1u64 << i) as f64 / kappa as f64
                } else {
                    rho
                };
                (n as f64).powf(expo).ceil() as usize
            })
            .collect();

        // Number of scales: λ = max(k0, ⌈log2 Λ⌉ − 1). Used by the Theory
        // rescaling (ε′ = ε″ / 2λ) and by β's log Λ factor.
        let log_lambda = (aspect_ratio_bound.max(2.0)).log2().ceil().max(1.0);

        let (eps_int, eps_scale) = match mode {
            ParamMode::Practical => (eps, eps),
            ParamMode::Theory => {
                // §3.4: ε″ = user ε; ε′ = ε″/(2λ); the construction's ε is
                // ε′/(20·log n·(ℓ+1)); also require ε < 1/(2(4 log n + 1)).
                let eps_scale = eps / (2.0 * log_lambda);
                let eps_int_raw = eps_scale / (20.0 * log2n as f64 * (ell as f64 + 1.0));
                let cap = 1.0 / (2.0 * (4.0 * log2n as f64 + 1.0));
                (eps_int_raw.min(cap * 0.999_999), eps_scale)
            }
        };

        let beta = match mode {
            ParamMode::Theory => {
                // eq. (2) with constant 1:
                // β = (log Λ · log n · (log κρ + 1/ρ) / ε)^ℓ
                let base = log_lambda * log2n as f64 * ((kr.log2().max(0.0)) + 1.0 / rho) / eps;
                saturating_pow(base, ell as u32)
            }
            ParamMode::Practical => {
                // h_i recursion of eq. (17): h_0 = 1,
                // h_i = (1/ε + 2)(h_{i-1} + 1) + 2i + 1 ; β = h_ℓ.
                let mut h = 1.0f64;
                for i in 1..=ell {
                    h = (1.0 / eps + 2.0) * (h + 1.0) + 2.0 * i as f64 + 1.0;
                }
                saturating_from_f64(h)
            }
        };

        let cap = hop_cap.unwrap_or(usize::MAX);
        let hop_limit = (2 * beta.min(usize::MAX / 2 - 1) + 1)
            .min(n)
            .min(cap.max(2));
        let query_hops = beta.min(n).min(cap.max(2));

        // σ (eq. 20): σ_0 = 0, σ_{i+1} = (4 log n + 1)σ_i + 2(2β+1) log n,
        // σ = 2σ_ℓ + 2β + 1, computed with the *capped* hop budget (we store
        // actual realized paths, whose length the cap bounds).
        let two_beta_one = hop_limit as f64;
        let mut sig = 0.0f64;
        for _ in 0..ell {
            sig = (4.0 * log2n as f64 + 1.0) * sig + 2.0 * two_beta_one * log2n as f64;
        }
        let sigma = saturating_from_f64(2.0 * sig + two_beta_one);

        Ok(HopsetParams {
            n,
            eps,
            kappa,
            rho,
            mode,
            delta_schedule: DeltaSchedule::Corrected,
            log2n,
            i0,
            ell,
            degrees,
            eps_int,
            eps_scale,
            beta,
            hop_limit,
            query_hops,
            sigma,
        })
    }

    /// Practical-mode parameters with the SSSP default ρ = 1/κ (the setting
    /// of the corollary after Theorem 3.8), aspect ratio from the graph.
    pub fn practical(n: usize, eps: f64, kappa: usize, aspect: Weight) -> Result<Self, ParamError> {
        let rho = (1.0 / kappa as f64).min(0.499_999);
        Self::new(n, eps, kappa, rho, ParamMode::Practical, aspect, None)
    }

    /// Override the exploration/query hop budgets (clamped to ≥ 2 and ≤ n).
    pub fn with_hop_cap(mut self, cap: usize) -> Self {
        self.hop_limit = self.hop_limit.min(cap.max(2));
        self.query_hops = self.query_hops.min(cap.max(2));
        self
    }

    /// The first scale with a non-empty hopset: `k₀ = ⌊log2 β⌋` (§2) —
    /// computed from the *effective* hop budget, so `2^{k₀} ≤ query_hops`:
    /// every distance ≤ `query_hops` has a shortest path of at most that
    /// many hops (min weight 1) and is exactly reachable within the budget.
    pub fn k0(&self) -> u32 {
        floor_log2(self.query_hops.max(2))
    }

    /// The last scale index `λ` for a given aspect-ratio bound:
    /// scales `k ∈ [k₀, λ]` with `(2^k, 2^{k+1}]` covering all distances.
    pub fn lambda(&self, aspect_ratio_bound: Weight) -> u32 {
        let need = aspect_ratio_bound.max(2.0).log2().ceil() as u32;
        need.saturating_sub(1).max(self.k0())
    }

    /// δ_i for scale `k` (see module docs on the two schedules).
    ///
    /// The corrected schedule floors `δ_i` at
    /// `max(1, 2^{k+1} / (query_hops/4))`. Rationale: with the paper's
    /// uncapped `β = (1/ε+5)^ℓ` and `k ≥ k₀ = ⌊log β⌋`, `δ_0 =
    /// 2^{k+1}·ε^{ℓ-1} ≥ 2/ε > 1` holds automatically and every scale's
    /// phase-0 threshold is proportional to the scale over the hop budget.
    /// A practical hop cap pushes `k₀` below that regime; an unfloored
    /// `δ_0 < 1` then makes phase 0 edgeless, all clusters retire into
    /// `U_0`, and the scale produces nothing — so scale-`k` distances become
    /// unreachable within the budget. The floor restores the paper's
    /// invariant *scale/δ_0 = O(hop budget)*: even if every cluster retires
    /// at phase 0, chains of phase-0 interconnection edges (which have zero
    /// radius slack, `R_0 = 0`) cross the scale within `query_hops/4` hops.
    /// Raising δ only enlarges `G̃_i`, which strengthens every coverage
    /// property; edge counts stay bounded because clusters with ≥ `deg_i`
    /// neighbors are popular and get superclustered instead of
    /// interconnected (Lemma 2.4).
    pub fn delta(&self, k: u32, i: usize) -> Weight {
        let scale_top = exp2w(k + 1);
        match self.delta_schedule {
            DeltaSchedule::Corrected => {
                let chain_budget = (self.query_hops / 3).max(8) as Weight;
                // Lift the bottom rungs to keep chains within the hop
                // budget, but never above the ε-rung — collapsing the whole
                // ladder to one rung would trade the stretch for hops.
                let floor = (scale_top / chain_budget)
                    .min(scale_top * self.eps_int)
                    .max(1.0);
                (scale_top * self.eps_int.powi(self.ell as i32 - 1 - i as i32)).max(floor)
            }
            DeltaSchedule::PaperLiteral => {
                self.ell.max(1) as Weight * scale_top * (1.0 / self.eps_int).powi(i as i32)
            }
        }
    }

    /// Number of pulses of the superclustering BFS: `2·log2 n` (§2.1.1).
    pub fn supercluster_depth(&self) -> usize {
        2 * self.log2n as usize
    }
}

/// Per-scale derived quantities (depend on the stretch `1+ε_prev` that the
/// previous scale's graph `G_{k-1}` guarantees).
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// The scale index `k` (distances `(2^k, 2^{k+1}]`).
    pub k: u32,
    /// Stretch of `G_{k-1}`: `ε_{k-1}` of Lemma 3.6.
    pub eps_prev: f64,
    /// `δ_i` for `i ∈ [0, ℓ]`.
    pub deltas: Vec<Weight>,
    /// Neighbor thresholds `(1+ε_prev)·δ_i`.
    pub thresholds: Vec<Weight>,
    /// Radius bounds `R_i` for `i ∈ [0, ℓ+1]` (Lemma 2.2).
    pub radii: Vec<Weight>,
    /// Superclustering edge weights `2((1+ε_prev)δ_i + 2R_i)·log2 n` per
    /// phase (§2.1.1).
    pub supercluster_weights: Vec<Weight>,
}

impl ScaleParams {
    /// Derive the scale-`k` quantities.
    pub fn derive(p: &HopsetParams, k: u32, eps_prev: f64) -> ScaleParams {
        let ell = p.ell;
        let deltas: Vec<Weight> = (0..=ell).map(|i| p.delta(k, i)).collect();
        let thresholds: Vec<Weight> = deltas.iter().map(|d| (1.0 + eps_prev) * d).collect();
        let mut radii = Vec::with_capacity(ell + 2);
        radii.push(0.0);
        for i in 0..=ell {
            let r = radii[i];
            radii.push((2.0 * (1.0 + eps_prev) * deltas[i] + 4.0 * r) * p.log2n as f64 + r);
        }
        let supercluster_weights: Vec<Weight> = (0..=ell)
            .map(|i| 2.0 * ((1.0 + eps_prev) * deltas[i] + 2.0 * radii[i]) * p.log2n as f64)
            .collect();
        ScaleParams {
            k,
            eps_prev,
            deltas,
            thresholds,
            radii,
            supercluster_weights,
        }
    }

    /// Interconnection edge weight for a measured cluster distance `d` at
    /// phase `i`: `d + 2R_i` (§2.1.2).
    pub fn interconnect_weight(&self, i: usize, d: Weight) -> Weight {
        d + 2.0 * self.radii[i]
    }
}

#[inline]
fn exp2w(k: u32) -> Weight {
    (2.0f64).powi(k as i32)
}

#[inline]
fn saturating_from_f64(x: f64) -> usize {
    if !x.is_finite() || x >= usize::MAX as f64 {
        usize::MAX
    } else {
        x.max(1.0) as usize
    }
}

#[inline]
fn saturating_pow(base: f64, e: u32) -> usize {
    saturating_from_f64(base.max(1.0).powi(e as i32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn practical(n: usize) -> HopsetParams {
        HopsetParams::new(n, 0.25, 4, 0.3, ParamMode::Practical, n as f64, None).unwrap()
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(matches!(
            HopsetParams::new(1, 0.1, 2, 0.5, ParamMode::Practical, 4.0, None),
            Err(ParamError::TooFewVertices(1))
        ));
        assert!(matches!(
            HopsetParams::new(16, 0.0, 2, 0.4, ParamMode::Practical, 4.0, None),
            Err(ParamError::BadEps(_))
        ));
        assert!(matches!(
            HopsetParams::new(16, 1.5, 2, 0.4, ParamMode::Practical, 4.0, None),
            Err(ParamError::BadEps(_))
        ));
        assert!(matches!(
            HopsetParams::new(16, 0.1, 1, 0.4, ParamMode::Practical, 4.0, None),
            Err(ParamError::BadKappa(1))
        ));
        assert!(matches!(
            HopsetParams::new(16, 0.1, 4, 0.6, ParamMode::Practical, 4.0, None),
            Err(ParamError::BadRho(_))
        ));
        // κρ < 1 is allowed: the exponential stage is empty (i0 < 0).
        let p = HopsetParams::new(16, 0.1, 4, 0.1, ParamMode::Practical, 4.0, None).unwrap();
        assert!(p.i0 < 0);
        assert!(p
            .degrees
            .iter()
            .all(|&d| d == (16f64.powf(0.1)).ceil() as usize));
    }

    #[test]
    fn phase_schedule_matches_paper() {
        // κ = 4, ρ = 0.3 : κρ = 1.2, i0 = 0, ℓ = 0 + ⌈5/1.2⌉ − 1 = 4.
        let p = practical(256);
        assert_eq!(p.i0, 0);
        assert_eq!(p.ell, 4);
        assert_eq!(p.degrees.len(), 5);
        // deg_0 = n^{1/4} = 4; deg_{i>0} = n^{0.3} = ceil(5.27) = 6.
        assert_eq!(p.degrees[0], 4);
        assert!(p.degrees[1..].iter().all(|&d| d == 6));
    }

    #[test]
    fn exponential_stage_squares_degrees() {
        // κ = 8, ρ = 0.49: κρ = 3.92, i0 = 1, exponential degrees n^{1/8}, n^{1/4}.
        let p = HopsetParams::new(4096, 0.2, 8, 0.49, ParamMode::Practical, 4096.0, None).unwrap();
        assert_eq!(p.i0, 1);
        assert_eq!(p.degrees[0], (4096f64.powf(1.0 / 8.0)).ceil() as usize);
        assert_eq!(p.degrees[1], (4096f64.powf(2.0 / 8.0)).ceil() as usize);
        assert_eq!(p.degrees[2], (4096f64.powf(0.49)).ceil() as usize);
        // ℓ − i0 = ⌈(κ+1)/(κρ)⌉ − 1 = ⌈9/3.92⌉ − 1 = 3 − 1 = 2.
        assert_eq!(p.ell, 3);
    }

    #[test]
    fn final_phase_has_few_clusters_guarantee() {
        // eq. (5): 1 + 1/κ − (ℓ−i0)·ρ ≤ ρ must hold for valid params.
        for (kappa, rho) in [(2usize, 0.499), (3, 0.34), (4, 0.3), (6, 0.25), (8, 0.49)] {
            let p = HopsetParams::new(1024, 0.2, kappa, rho, ParamMode::Practical, 1024.0, None)
                .unwrap();
            let lhs = 1.0 + 1.0 / kappa as f64 - (p.ell as isize - p.i0) as f64 * rho;
            assert!(
                lhs <= rho + 1e-9,
                "eq. (5) violated for kappa={kappa} rho={rho}: {lhs} > {rho}"
            );
        }
    }

    #[test]
    fn corrected_deltas_are_geometric_and_cover_scale() {
        let p = practical(256);
        let k = 6;
        for i in 0..p.ell {
            let ratio = p.delta(k, i + 1) / p.delta(k, i);
            assert!((ratio - 1.0 / p.eps_int).abs() < 1e-6);
        }
        // δ_ℓ = 2^{k+1}/ε ≥ 2^{k+1}: the top phase covers the scale.
        assert!(p.delta(k, p.ell) >= 2f64.powi(k as i32 + 1));
        // δ_{ℓ-1} = 2^{k+1} exactly.
        assert!((p.delta(k, p.ell - 1) - 2f64.powi(k as i32 + 1)).abs() < 1e-9);
    }

    #[test]
    fn paper_literal_deltas_grow_from_alpha() {
        let mut p = practical(256);
        p.delta_schedule = DeltaSchedule::PaperLiteral;
        let k = 5;
        let alpha = p.ell as f64 * 2f64.powi(k as i32 + 1);
        assert!((p.delta(k, 0) - alpha).abs() < 1e-9);
        assert!((p.delta(k, 2) - alpha * (1.0 / p.eps_int).powi(2)).abs() < 1e-6);
    }

    #[test]
    fn radii_satisfy_recurrence() {
        let p = practical(128);
        let sp = ScaleParams::derive(&p, 5, 0.0);
        assert_eq!(sp.radii[0], 0.0);
        for i in 0..=p.ell {
            let expect = (2.0 * sp.deltas[i] + 4.0 * sp.radii[i]) * p.log2n as f64 + sp.radii[i];
            assert!((sp.radii[i + 1] - expect).abs() < 1e-6);
        }
        // Monotone increasing.
        for w in sp.radii.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn radii_bound_from_eq_11() {
        // eq. (11): R_i ≤ 4(1+ε_prev)·α·log n·(1/ε)^{i-1} when
        // ε < 1/(2(4 log n + 1)) — check in Theory mode where that holds.
        let p = HopsetParams::new(256, 0.3, 4, 0.3, ParamMode::Theory, 256.0, None).unwrap();
        assert!(p.eps_int < 1.0 / (2.0 * (4.0 * p.log2n as f64 + 1.0)));
        let sp = ScaleParams::derive(&p, 8, 0.0);
        let alpha = p.delta(8, 0); // α = δ_0 in the geometric schedule
        let c = 4.0 * (1.0 + sp.eps_prev) * p.log2n as f64;
        for i in 1..=p.ell {
            let bound = c * alpha * (1.0 / p.eps_int).powi(i as i32 - 1);
            assert!(
                sp.radii[i] <= bound * (1.0 + 1e-9),
                "R_{i} = {} exceeds eq.(11) bound {}",
                sp.radii[i],
                bound
            );
        }
    }

    #[test]
    fn beta_practical_matches_h_recursion() {
        let p = practical(256);
        // h_0=1, h_i=(1/0.25+2)(h+1)+2i+1 = 6(h+1)+2i+1
        let mut h = 1.0f64;
        for i in 1..=p.ell {
            h = 6.0 * (h + 1.0) + 2.0 * i as f64 + 1.0;
        }
        assert_eq!(p.beta, h as usize);
        // eq. (18): h_ℓ ≤ (1/ε + 5)^ℓ
        assert!(p.beta as f64 <= (1.0 / p.eps + 5.0).powi(p.ell as i32));
    }

    #[test]
    fn hop_limit_capped_at_n() {
        let p = practical(64);
        assert!(p.hop_limit <= 64);
        assert!(p.query_hops <= 64);
        let p2 = practical(64).with_hop_cap(10);
        assert_eq!(p2.hop_limit, 10);
        assert_eq!(p2.query_hops, 10);
    }

    #[test]
    fn theory_mode_rescales_eps() {
        let p = HopsetParams::new(256, 0.5, 4, 0.3, ParamMode::Theory, 256.0, None).unwrap();
        assert!(p.eps_int < p.eps);
        assert!(p.eps_int < 1.0 / (2.0 * (4.0 * p.log2n as f64 + 1.0)));
        assert!(p.eps_scale < p.eps);
        // Theory β is enormous; the hop budget must still be capped at n.
        assert!(p.hop_limit <= 256);
    }

    #[test]
    fn scales_cover_aspect_ratio() {
        let p = practical(256);
        let lambda = p.lambda(1000.0); // ⌈log2 1000⌉ − 1 = 9
        assert_eq!(lambda, 9.max(p.k0()));
        assert!(p.k0() <= lambda);
        // 2^{λ+1} ≥ Λ: the last scale covers the largest distance.
        assert!(2f64.powi(lambda as i32 + 1) >= 1000.0);
    }

    #[test]
    fn interconnect_weight_adds_radius_slack() {
        let p = practical(128);
        let sp = ScaleParams::derive(&p, 5, 0.1);
        let w = sp.interconnect_weight(2, 10.0);
        assert!((w - (10.0 + 2.0 * sp.radii[2])).abs() < 1e-12);
    }

    #[test]
    fn sigma_positive_and_grows_with_ell() {
        let p = practical(256);
        assert!(p.sigma >= p.hop_limit);
    }
}
