//! Small measurement helpers: a seedable stream generator, percentiles,
//! time-boxed sampling and the attempted/failed ledger.

use std::time::{Duration, Instant};

/// SplitMix64: derives the graph seed, the stream seed and each input
/// stream's shift from the workload seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `tag` (so each phase's inputs do not depend on how far another
    /// phase got).
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Nearest-rank `p`-quantile of `v` (sorts `v`; `v` must be non-empty).
pub fn quantile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * p).round() as usize]
}

/// Mean of `v` without its lowest and highest `trim` share (sorts `v`;
/// `v` must be non-empty). Unlike the median it moves smoothly when a
/// bimodal distribution shifts weight between its modes.
pub fn trimmed_mean(v: &mut [f64], trim: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Call `op(i)` for `i = *next, *next + 1, …` until `budget` has passed
/// and at least `min` calls were made, leaving `*next` after the last
/// index used. Each call returns its latency, or `None` if it failed (the
/// op records the failure itself). Returns the latencies.
pub fn sample(
    budget: Duration,
    min: usize,
    next: &mut usize,
    mut op: impl FnMut(usize) -> Option<f64>,
) -> Vec<f64> {
    let deadline = Instant::now() + budget;
    let mut out = Vec::new();
    let mut calls = 0;
    while calls < min || Instant::now() < deadline {
        if let Some(x) = op(*next) {
            out.push(x);
        }
        *next += 1;
        calls += 1;
    }
    out
}

/// Operations attempted and failed over a run, with a note per failure.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations issued (builds, queries, requests, loads, checks' subjects).
    pub attempted: u64,
    /// Operations that returned a typed error or failed a correctness check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one issued operation.
    pub fn issue(&mut self) {
        self.attempted += 1;
    }

    /// Count `k` issued operations at once.
    pub fn issue_many(&mut self, k: usize) {
        self.attempted += k as u64;
    }

    /// Record a failure (typed error or correctness violation).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}
