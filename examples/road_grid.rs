//! Road-network-style scenario: hop-limited queries on a weighted grid.
//! Plain Bellman–Ford needs Θ(hop diameter) rounds while `G ∪ H` needs β;
//! the hopset earns its keep once the hop diameter exceeds β. This grid's
//! hop diameter is far below β, so the builder certifies that `G` alone
//! is exact within the budget and builds no scale.
//!
//! ```sh
//! cargo run --release --example road_grid
//! ```

use pram_sssp::prelude::*;
use sssp::baseline;

fn main() {
    // A 64×64 "road network": planar-ish, bounded degree, jittered weights.
    let (rows, cols) = (64, 64);
    let g = gen::road_grid(rows, cols, 7, 1.0, 10.0);
    let n = g.num_vertices();
    println!("road grid: {rows}×{cols}, n = {n}, m = {}", g.num_edges());

    // How many Bellman-Ford rounds does the bare graph need?
    let src = 0;
    let plain_rounds = baseline::bf_rounds_to_converge(&Executor::sequential(), &g, src);
    println!("plain Bellman–Ford rounds to converge: {plain_rounds}");

    // Build the oracle (it takes ownership of the graph).
    let t0 = std::time::Instant::now();
    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .build()
        .expect("valid parameters");
    let scales = oracle.built().map_or(0, |b| b.num_scales());
    println!(
        "hopset: {} edges ({}) in {:?}; query hop budget β = {}",
        oracle.hopset_size(),
        if scales == 0 {
            "no scale needed".to_string()
        } else {
            format!("{scales} scales")
        },
        t0.elapsed(),
        oracle.query_hops()
    );

    // Approximate distances vs exact, from a corner (worst case for hops).
    let approx = oracle.distances_from(src).expect("source in range");
    let exact = exact::dijkstra(oracle.graph(), src).dist;
    let far = rows * cols - 1;
    println!(
        "corner-to-corner: exact = {:.1}, approx = {:.1} (ratio {:.4})",
        exact[far],
        approx[far],
        approx[far] / exact[far]
    );

    let mut max_stretch: f64 = 1.0;
    let mut mean = 0.0;
    let mut cnt = 0;
    for v in 0..n {
        if exact[v] > 0.0 && exact[v].is_finite() {
            let r = approx[v] / exact[v];
            max_stretch = max_stretch.max(r);
            mean += r;
            cnt += 1;
        }
    }
    println!(
        "stretch over all {} pairs: max = {:.4}, mean = {:.4}",
        cnt,
        max_stretch,
        mean / cnt as f64
    );
    assert!(
        max_stretch <= oracle.stretch_bound() + 1e-9,
        "stretch contract violated"
    );
    println!("OK");
}
