//! Quickstart: build a deterministic (1+ε)-hopset oracle and answer
//! approximate shortest-distance queries (Theorems 3.7 + 3.8).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pram_sssp::prelude::*;

fn main() {
    // A moderately sized weighted random graph.
    let n = 1024;
    let g = gen::gnm_connected(n, 4 * n, 42, 1.0, 16.0);
    println!("graph: n = {}, m = {}", g.num_vertices(), g.num_edges());

    // Build the deterministic oracle: target stretch 1+ε with ε = 0.25,
    // sparsity parameter κ = 4 (hopset size O(n^{1+1/κ}) per scale). The
    // oracle owns the graph and picks the construction pipeline from the
    // aspect-ratio bound.
    let t0 = std::time::Instant::now();
    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .build()
        .expect("valid parameters");
    // The builder first certifies the distance range: when one β-hop
    // exploration over G proves that every shortest path fits the hop
    // budget, it builds no scale and queries explore G alone.
    let built = oracle.built().expect("plain pipeline on unit-ish weights");
    let range = match built.num_scales() {
        0 => "no scale needed".to_string(),
        _ => format!("scales {}..={}", built.k0, built.lambda),
    };
    println!(
        "hopset: {} edges, {range}, built in {:?}",
        built.hopset.len(),
        t0.elapsed()
    );
    println!(
        "PRAM cost of construction: work = {}, depth = {} (polylog rounds)",
        oracle.cost().work(),
        oracle.cost().depth()
    );

    // Query: β-hop Bellman–Ford over the pre-built G ∪ H union CSR.
    let source = 0;
    let t1 = std::time::Instant::now();
    let approx = oracle.distances_from(source).expect("source in range");
    println!(
        "query: β = {} hops, answered in {:?}",
        oracle.query_hops(),
        t1.elapsed()
    );

    // Verify the (1+ε) contract against the exact oracle.
    let exact = exact::dijkstra(oracle.graph(), source).dist;
    let mut max_stretch: f64 = 1.0;
    for v in 0..oracle.num_vertices() {
        assert!(
            approx[v] >= exact[v] - 1e-6,
            "hopsets never shorten distances (Lemmas 2.3/2.9)"
        );
        if exact[v] > 0.0 && exact[v].is_finite() {
            max_stretch = max_stretch.max(approx[v] / exact[v]);
        }
    }
    println!(
        "max observed stretch: {max_stretch:.4} (contract: ≤ {})",
        oracle.stretch_bound()
    );
    assert!(max_stretch <= oracle.stretch_bound() + 1e-9);
    println!("OK");
}
