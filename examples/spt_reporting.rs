//! Path reporting (§4, Theorem 4.6): extract a full `(1+ε)`-approximate
//! shortest-path **tree** whose edges all belong to the original graph —
//! the capability previous hopsets lacked (§1.3) — from the same oracle
//! object that answers distance queries.
//!
//! ```sh
//! cargo run --release --example spt_reporting
//! ```

use pram_sssp::prelude::*;

fn main() {
    // Dense communities bridged sparsely: superclustering territory. The
    // heavy bridges put the distance range past the hop budget, so the
    // builder cannot certify G alone and builds the hopset to peel.
    let g = gen::clique_chain(12, 16, 12.0);
    println!("graph: n = {}, m = {}", g.num_vertices(), g.num_edges());

    // Path-reporting oracle (records memory paths on every hopset edge).
    let t0 = std::time::Instant::now();
    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .paths(true)
        .build()
        .expect("valid parameters");
    println!(
        "path-reporting hopset: {} edges in {:?}",
        oracle.hopset_size(),
        t0.elapsed()
    );

    // Extract the SPT and inspect the peeling process (Figure 11's story).
    let source = 0;
    let t1 = std::time::Instant::now();
    let spt = oracle.spt(source).expect("paths recorded, source in range");
    println!("SPT extracted in {:?}; peeling iterations:", t1.elapsed());
    println!("  scale | tree hop-edges | replaced | triplets | improved");
    for st in &spt.peel_stats {
        println!(
            "  {:>5} | {:>14} | {:>8} | {:>8} | {:>8}",
            st.scale, st.hopset_edges, st.replaced, st.triplets, st.improved
        );
    }

    // Validate: tree ⊆ E, exact tree distances, (1+ε) stretch.
    let val = validate_spt(oracle.graph(), &spt);
    println!(
        "validation: non-graph-edges = {}, distance mismatches = {}, \
         missing = {}, max stretch = {:.4}",
        val.non_graph_edges, val.distance_mismatches, val.missing, val.max_stretch
    );
    assert_eq!(val.non_graph_edges, 0);
    assert_eq!(val.distance_mismatches, 0);
    assert_eq!(val.missing, 0);
    assert!(val.max_stretch <= oracle.stretch_bound() + 1e-9);

    // The same object still answers plain distance queries.
    let d = oracle.distances_from(source).expect("source in range");
    let far = (oracle.num_vertices() - 1) as u32;
    println!(
        "distance query from the same oracle: d({source}, {far}) = {:.1}",
        d[far as usize]
    );

    // Walk one actual tree path.
    let path = spt.path_to(far).expect("connected");
    println!(
        "tree path {source} → {far}: {} hops, weight {:.1}",
        path.len() - 1,
        spt.dist[far as usize]
    );
    println!("OK");
}
