//! Every query input of a run, as a pure function of the workload seed and
//! an index: the `i`-th row source, pair or request.
//!
//! Vertices are drawn by stratified (Halton) sampling with a seeded random
//! shift rather than independently: on a road grid a row's cost depends on
//! where its source sits, and stratified sources cover the grid evenly in
//! any prefix, so a run's medians vary far less from seed to seed than
//! with independent draws. On `gnm` the ids are random labels already and
//! only the first coordinate is used.

use crate::stats::Rng;
use pgraph::VId;

/// The independent input streams of a run (each gets its own shift).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Full-row sources.
    Rows,
    /// Sources of the multi-source batch.
    Roots,
    /// Direct p2p pairs.
    Pairs,
    /// Cold pairs of the open-loop mix.
    Mix,
    /// Cold pairs of the closed-loop mix.
    Capacity,
    /// Landmark-certification probes.
    Probes,
    /// Hot sources of the served mix.
    Hot,
}

/// Shape the vertex ids encode.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Row-major `rows × cols` grid.
    Grid(usize, usize),
    /// `n` unstructured ids.
    Ids(usize),
}

/// One request of the served mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Hot traffic: the full row of a resident source.
    Row(VId),
    /// Cold traffic: one point-to-point pair whose source is never hot.
    Pair(VId, VId),
}

/// Van der Corput radical inverse of `i` in base `b`.
fn radical_inverse(mut i: u64, b: u64) -> f64 {
    let (mut inv, mut f) = (0.0, 1.0 / b as f64);
    while i > 0 {
        inv += (i % b) as f64 * f;
        i /= b;
        f /= b as f64;
    }
    inv
}

fn frac(x: f64) -> f64 {
    x - x.floor()
}

/// The inputs of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    shape: Shape,
    seed: u64,
    hot: Vec<VId>,
}

/// Hot sources of the served mix.
const HOT_ROWS: usize = 4;

/// Cold pairs per served stream (cycled if a run needs more).
const COLD_POOL: usize = 4096;

impl Inputs {
    /// Inputs over `shape` for the stream seed `seed`.
    pub fn new(shape: Shape, seed: u64) -> Inputs {
        let mut inputs = Inputs {
            shape,
            seed,
            hot: Vec::new(),
        };
        let mut i = 0;
        while inputs.hot.len() < HOT_ROWS.min(inputs.n()) {
            let v = inputs.point(Stream::Hot, 0, i);
            if !inputs.hot.contains(&v) {
                inputs.hot.push(v);
            }
            i += 1;
        }
        inputs
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        match self.shape {
            Shape::Grid(r, c) => r * c,
            Shape::Ids(n) => n,
        }
    }

    /// The `i`-th point of `stream`; `dim` 0 and 1 are independent
    /// coordinates (bases 2, 3 and 5, 7), each with its own shift.
    fn point(&self, stream: Stream, dim: usize, i: usize) -> VId {
        let (b0, b1) = if dim == 0 { (2, 3) } else { (5, 7) };
        let mut rng = Rng::new(self.seed, 0x100 * stream as u64 + dim as u64);
        let (s0, s1) = (
            rng.next_u64() as f64 / 2f64.powi(64),
            rng.next_u64() as f64 / 2f64.powi(64),
        );
        let x = frac(radical_inverse(i as u64 + 1, b0) + s0);
        let y = frac(radical_inverse(i as u64 + 1, b1) + s1);
        let v = match self.shape {
            Shape::Grid(rows, cols) => {
                let r = ((x * rows as f64) as usize).min(rows - 1);
                let c = ((y * cols as f64) as usize).min(cols - 1);
                r * cols + c
            }
            Shape::Ids(n) => ((x * n as f64) as usize).min(n - 1),
        };
        v as VId
    }

    /// The `i`-th source of `stream`.
    pub fn vertex(&self, stream: Stream, i: usize) -> VId {
        self.point(stream, 0, i)
    }

    /// The `i`-th pair of `stream`.
    pub fn pair(&self, stream: Stream, i: usize) -> (VId, VId) {
        (self.point(stream, 0, i), self.point(stream, 1, i))
    }

    /// The served mix's hot sources.
    pub fn hot(&self) -> &[VId] {
        &self.hot
    }

    /// The cold pairs of a served stream: a pool drawn from `stream`,
    /// sources steered off the hot rows (so every cold request misses the
    /// row cache whatever the interleaving, and the cache counters are pure
    /// functions of the stream), reordered so that pairs the landmark plane
    /// `certified` and pairs it leaves to exploration are spread evenly
    /// over the pool. Any prefix then holds the pool's share of
    /// explorations, which is what a served run's tail and capacity depend
    /// on; the pool as a whole is unchanged.
    pub fn cold_pairs(
        &self,
        stream: Stream,
        certified: impl Fn(VId, VId) -> bool,
    ) -> Vec<(VId, VId)> {
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for k in 0..COLD_POOL {
            let (mut u, v) = self.pair(stream, k);
            while self.hot.contains(&u) {
                u = (u + 1) % self.n() as VId;
            }
            if certified(u, v) {
                fast.push((u, v));
            } else {
                slow.push((u, v));
            }
        }
        let (total, nf) = (COLD_POOL, fast.len());
        let (mut fast, mut slow) = (fast.into_iter(), slow.into_iter());
        let mut taken = 0;
        (0..total)
            .map(|j| {
                if taken < ((j + 1) * nf + total / 2) / total {
                    taken += 1;
                    fast.next()
                } else {
                    slow.next()
                }
                .expect("the pool holds both kinds in total")
            })
            .collect()
    }

    /// The `i`-th request of the 80/20 mix: every fifth request is the
    /// next cold pair, the rest cycle over the hot rows.
    pub fn request(&self, cold: &[(VId, VId)], i: usize) -> Request {
        if i % 5 == 4 {
            let (u, v) = cold[(i / 5) % cold.len()];
            Request::Pair(u, v)
        } else {
            Request::Row(self.hot[(i - i / 5) % self.hot.len()])
        }
    }
}
