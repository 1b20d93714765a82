//! The hub-overlay instances the Bellman–Ford kernel is tested on, shared
//! by `tests/proptests.rs` (the kernel against the full-pull reference)
//! and the kernel's own unit tests in `src/bford.rs` (both candidates
//! against each other).

use pgraph::{gen, Graph, UnionView, VId, Weight};

/// SplitMix64, the instance generator's stream.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }
}

/// A union view whose explorations mix sparse and dense rounds. The base
/// is a `rows × cols` grid with integer weights 1–4, so equal distances
/// through different parents are common. The overlay joins `hubs` hub
/// vertices to every `stride`-th vertex (a hub in the frontier makes the
/// round dense), and adds a parallel copy of every fourth base edge at
/// the base weight (a tie only the edge layer breaks), half a unit
/// lighter, or one heavier.
pub fn hub_instance(
    rows: usize,
    cols: usize,
    hubs: usize,
    stride: usize,
    seed: u64,
) -> (Graph, Vec<(VId, VId, Weight)>) {
    let g = gen::grid(rows, cols, |u, v| {
        let mut m = Mix(seed ^ ((u as u64) << 32 | v as u64));
        1.0 + m.below(4) as f64
    });
    let n = g.num_vertices();
    let mut mix = Mix(seed);
    let mut extra = Vec::new();
    for _ in 0..hubs {
        let hub = mix.below(n) as VId;
        for v in (mix.below(stride)..n).step_by(stride) {
            if v as VId != hub {
                extra.push((hub, v as VId, 2.0 + mix.below(12) as f64));
            }
        }
    }
    let mut i = 0usize;
    for u in 0..n as VId {
        for (v, w) in g.neighbors(u).filter(|&(v, _)| v > u) {
            if i.is_multiple_of(4) {
                let w2 = [w, w - 0.5, w + 1.0][mix.below(3)];
                extra.push((u, v, w2));
            }
            i += 1;
        }
    }
    (g, extra)
}

/// The instance whose rounds split into chunks at two or more threads:
/// 12 000 grid vertices and ten hubs joined to every vertex. The hubs
/// hold most of the slots, so a frontier of [`chunked_sources`] stays
/// under a quarter of them (a sparse round of at least `PAR_THRESHOLD`
/// vertices); the round after has every hub in its frontier and is dense.
pub fn chunked_instance() -> (Graph, Vec<(VId, VId, Weight)>) {
    hub_instance(120, 100, 10, 1, 7)
}

/// About 4 500 grid vertices of `view` (hubs left out), and one of them
/// again as a duplicate source.
pub fn chunked_sources(view: &UnionView<'_>) -> Vec<VId> {
    let mut sources: Vec<VId> = (0..view.num_vertices() as VId)
        .filter(|&v| v % 8 < 3 && view.degree(v) < 100)
        .collect();
    sources.push(sources[sources.len() / 2]);
    sources
}
