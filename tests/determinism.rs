//! Cross-thread-count determinism suite — the contract of `pram::pool`.
//!
//! The persistent worker pool executes every primitive with fixed chunk
//! boundaries and order-independent reductions (DESIGN.md §5), which
//! must make the *entire* oracle pipeline — hopset construction, aMSSD
//! batches, SPT extraction, and the PRAM cost ledger — **bit-identical**
//! for every thread count (and identical to what the retired scoped-spawn
//! implementation produced: neither the chunking rule nor any reduction
//! changed). This file runs the full pipeline (plain and
//! Klein–Sairam-reduced) at threads ∈ {1, 2, 4, 8} on three graph
//! families and compares every output against the single-threaded run,
//! `f64`s by `to_bits` (no epsilon anywhere: identical means identical).

use pram_sssp::prelude::*;
use sssp::MultiSourceResult;

/// The three graph families the suite pins: sparse random, planar-ish
/// road grid, and a wide-weight-range family (the reduced pipeline's
/// reason to exist).
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnm", gen::gnm_connected(120, 360, 6, 1.0, 9.0)),
        ("road-grid", gen::road_grid(9, 9, 4, 1.0, 6.0)),
        ("wide-weights", gen::wide_weights(80, 160, 12, 5)),
    ]
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One full pipeline run at a fixed thread count: build (with paths), an
/// aMSSD batch, SPT parents from two roots, and the construction ledger.
struct PipelineRun {
    construction: Ledger,
    multi: MultiSourceResult,
    spt_parents: Vec<Vec<Option<(u32, f64)>>>,
    spt_dists: Vec<Vec<f64>>,
    spt_ledgers: Vec<Ledger>,
    hopset_size: usize,
}

fn run_pipeline(g: &Graph, pipeline: Pipeline, threads: usize) -> PipelineRun {
    let oracle = Oracle::builder(g.clone())
        .eps(0.25)
        .kappa(4)
        .paths(true)
        .pipeline(pipeline)
        .threads(threads)
        .build()
        .expect("params");
    let n = g.num_vertices() as u32;
    let sources = vec![0u32, n / 3, n - 1];
    let multi = oracle.distances_multi(&sources).expect("sources in range");
    let mut spt_parents = Vec::new();
    let mut spt_dists = Vec::new();
    let mut spt_ledgers = Vec::new();
    for root in [0u32, n / 2] {
        let spt = oracle.spt(root).expect("paths recorded");
        spt_parents.push(spt.parent);
        spt_dists.push(spt.dist);
        spt_ledgers.push(spt.ledger);
    }
    PipelineRun {
        construction: oracle.cost().clone(),
        multi,
        spt_parents,
        spt_dists,
        spt_ledgers,
        hopset_size: oracle.hopset_size(),
    }
}

/// Bit-exact comparison of two distance rows (`-0.0 ≠ 0.0`, `NaN == NaN`:
/// stricter than `==` in both directions).
fn assert_rows_bit_identical(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: row length");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: vertex {v}: {x} vs {y}");
    }
}

fn assert_identical(base: &PipelineRun, got: &PipelineRun, ctx: &str) {
    // Ledger work counts: the PRAM cost accounting may not depend on the
    // schedule either.
    assert_eq!(base.construction, got.construction, "{ctx}: build ledger");
    assert_eq!(
        base.construction.work(),
        got.construction.work(),
        "{ctx}: build work count"
    );
    assert_eq!(base.hopset_size, got.hopset_size, "{ctx}: |H|");
    // aMSSD: the whole DistanceMatrix, bit for bit, plus its batch ledger.
    assert_eq!(base.multi.sources, got.multi.sources, "{ctx}: sources");
    for i in 0..base.multi.sources.len() {
        assert_rows_bit_identical(
            base.multi.dist.row(i),
            got.multi.dist.row(i),
            &format!("{ctx}: aMSSD row {i}"),
        );
    }
    assert_eq!(base.multi.ledger, got.multi.ledger, "{ctx}: aMSSD ledger");
    // SPT: parent trees (ids and parent-edge weights) and tree distances.
    for (r, (bp, gp)) in base.spt_parents.iter().zip(&got.spt_parents).enumerate() {
        assert_eq!(bp.len(), gp.len());
        for v in 0..bp.len() {
            match (&bp[v], &gp[v]) {
                (None, None) => {}
                (Some((p1, w1)), Some((p2, w2))) => {
                    assert_eq!(p1, p2, "{ctx}: SPT {r} parent of {v}");
                    assert_eq!(w1.to_bits(), w2.to_bits(), "{ctx}: SPT {r} weight at {v}");
                }
                (x, y) => panic!("{ctx}: SPT {r} parent presence at {v}: {x:?} vs {y:?}"),
            }
        }
    }
    for (r, (bd, gd)) in base.spt_dists.iter().zip(&got.spt_dists).enumerate() {
        assert_rows_bit_identical(bd, gd, &format!("{ctx}: SPT {r} dist"));
    }
    assert_eq!(base.spt_ledgers, got.spt_ledgers, "{ctx}: SPT ledgers");
}

#[test]
fn plain_pipeline_bit_identical_across_thread_counts() {
    for (name, g) in families() {
        let base = run_pipeline(&g, Pipeline::Plain, THREADS[0]);
        for &t in &THREADS[1..] {
            let got = run_pipeline(&g, Pipeline::Plain, t);
            assert_identical(&base, &got, &format!("plain/{name}/threads={t}"));
        }
    }
}

#[test]
fn reduced_pipeline_bit_identical_across_thread_counts() {
    for (name, g) in families() {
        let base = run_pipeline(&g, Pipeline::Reduced, THREADS[0]);
        for &t in &THREADS[1..] {
            let got = run_pipeline(&g, Pipeline::Reduced, t);
            assert_identical(&base, &got, &format!("reduced/{name}/threads={t}"));
        }
    }
}

/// The primitives underneath, driven through a public hot path with an
/// input big enough to cross `PAR_THRESHOLD`: a single large Bellman–Ford
/// must produce bit-identical distances at every thread count.
#[test]
fn large_bellman_ford_bit_identical_across_thread_counts() {
    let n = 6000usize;
    let g = gen::gnm_connected(n, 3 * n, 21, 1.0, 9.0);
    let view = UnionView::base_only(&g);
    let mut base_ledger = Ledger::new();
    let base = pram::bellman_ford(&Executor::sequential(), &view, &[0], 12, &mut base_ledger);
    for t in [2usize, 4, 8] {
        let mut ledger = Ledger::new();
        let got = pram::bellman_ford(&Executor::new(t), &view, &[0], 12, &mut ledger);
        assert_rows_bit_identical(&base.dist, &got.dist, &format!("bford threads={t}"));
        assert_eq!(base.parent, got.parent, "bford parents threads={t}");
        assert_eq!(base_ledger, ledger, "bford ledger threads={t}");
    }
}
