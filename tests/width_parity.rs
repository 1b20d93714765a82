//! Output goldens (DESIGN.md §12): FNV-1a fingerprints of a 64k CSR's
//! columns, its snapshot bytes (the offsets column stored at the width
//! the data needs), an oracle's outputs, and the memory paths of two
//! capped builds. The test names say "width" because these goldens once
//! held a `u32`-offset build to the same outputs as the `usize` one; they
//! pin the one build now. A fingerprint drift means construction itself
//! changed: re-record the goldens only in that case, with the tier-1
//! determinism suite green.

use pram::pool::threads_from_env;
use pram_sssp::prelude::*;

/// FNV-1a over a u64 stream — order-sensitive, width-independent.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn push_bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// The 64k construction the CSR and snapshot goldens pin: n = 65 536,
/// m = 2n.
fn graph_64k() -> Graph {
    gen::gnm_connected(65_536, 131_072, 41, 1.0, 8.0)
}

/// CSR columns of the 64k graph, offsets pushed as u64.
#[test]
fn csr_fingerprint_is_width_independent() {
    let g = graph_64k();
    let mut f = Fnv::new();
    f.push(g.num_vertices() as u64);
    f.push(g.num_edges() as u64);
    for &o in g.offsets() {
        f.push(o as u64);
    }
    for v in 0..g.num_vertices() as u32 {
        for (u, w) in g.neighbors(v) {
            f.push(u as u64);
            f.push(w.to_bits());
        }
    }
    assert_eq!(
        f.0, 0xf382_b486_a203_8ef8,
        "64k CSR fingerprint drifted (got {:#x})",
        f.0
    );
}

/// Snapshot bytes are a property of the data: the v2 header stores the
/// offset width that *fits* (4 here, since 2m < 2³²), not the width of
/// the in-memory `usize` column.
#[test]
fn snapshot_bytes_are_width_independent() {
    let g = graph_64k();
    let mut buf = Vec::new();
    pgraph::snapshot::write_graph_snapshot(&g, &mut buf).expect("write");
    let mut f = Fnv::new();
    f.push(buf.len() as u64);
    f.push_bytes(&buf);
    assert_eq!(
        f.0, 0x5006_55ae_72d9_041e,
        "64k snapshot byte fingerprint drifted (got {:#x})",
        f.0
    );
    // And it loads back to the same adjacency.
    let h = pgraph::snapshot::read_graph_snapshot(buf.as_slice()).expect("read");
    assert_eq!(h.num_edges(), g.num_edges());
    assert_eq!(h.edges(), g.edges());
}

/// End-to-end: a full oracle build plus queries on a subsampled size
/// (debug-profile friendly), fingerprinting hopset columns and distances.
/// This instance is certified (`G` alone is exact within β hops), so its
/// hopset is empty; the capped memory-path builds below pin construction.
#[test]
fn oracle_outputs_are_width_independent() {
    let g = gen::gnm_connected(2_048, 4_096, 7, 1.0, 8.0);
    let oracle = Oracle::builder(g)
        .eps(0.5)
        .kappa(8)
        .threads(threads_from_env())
        .build()
        .expect("params");
    let mut f = Fnv::new();
    f.push(oracle.hopset_size() as u64);
    let built = oracle.built().expect("constructed oracle keeps its hopset");
    for e in built.hopset.iter() {
        f.push(e.u as u64);
        f.push(e.v as u64);
        f.push(e.w.to_bits());
        f.push(e.scale as u64);
    }
    let sources = [0u32, 512, 1_024, 2_047];
    let multi = oracle.distances_multi(&sources).expect("in range");
    for i in 0..sources.len() {
        for &d in multi.dist.row(i) {
            f.push(d.to_bits());
        }
    }
    assert_eq!(
        f.0, 0x92ee_08d6_07af_e48b,
        "oracle output fingerprint drifted (got {:#x})",
        f.0
    );
}

/// Fingerprint of a path-recording oracle build: every hopset edge as
/// `(u, v, w bits, scale)` followed by its materialized memory path —
/// vertex count, vertices, and every link's tag and weight bits.
fn memory_path_fingerprint(g: Graph, hop_cap: usize) -> u64 {
    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .hop_cap(hop_cap)
        .paths(true)
        .threads(threads_from_env())
        .build()
        .expect("params");
    let built = oracle.built().expect("constructed oracle keeps its hopset");
    let h = &built.hopset;
    assert!(!h.is_empty(), "instance must produce hopset edges");
    assert!(h.all_paths_recorded(), "every edge carries a memory path");
    let mut f = Fnv::new();
    f.push(h.len() as u64);
    for i in 0..h.len() as u32 {
        let e = h.edge(i);
        f.push(e.u as u64);
        f.push(e.v as u64);
        f.push(e.w.to_bits());
        f.push(e.scale as u64);
        let p = h.path_of(i).expect("path recorded");
        f.push(p.verts.len() as u64);
        for &v in &p.verts {
            f.push(v as u64);
        }
        for &(tag, w) in &p.links {
            match tag {
                hopset::MemEdge::Base => f.push(u64::MAX),
                hopset::MemEdge::Hop(j) => f.push(j as u64),
            }
            f.push(w.to_bits());
        }
    }
    f.0
}

/// Memory paths of a unit-weight torus: distance ties are everywhere, so
/// the label propagation's adjacency-order tie-break decides which of the
/// equally short paths each hopset edge records. The hop cap of 8 puts the
/// first scale at k₀ = 3, so the build spans seven scales and most
/// explorations run over the previous scale's overlay (base/overlay
/// parallel edges included).
#[test]
fn torus_memory_paths_are_pinned() {
    let got = memory_path_fingerprint(gen::torus(24, 24), 8);
    assert_eq!(
        got, 0x311f_f1e3_288c_293b,
        "unit-weight torus memory-path fingerprint drifted (got {got:#x})"
    );
}

/// Memory paths of a small weighted road grid.
#[test]
fn road_grid_memory_paths_are_pinned() {
    let got = memory_path_fingerprint(gen::road_grid(14, 14, 3, 1.0, 10.0), 16);
    assert_eq!(
        got, 0x4df3_16ed_831c_1c91,
        "road-grid memory-path fingerprint drifted (got {got:#x})"
    );
}
