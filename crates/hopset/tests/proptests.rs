//! Property tests pinning the flat data plane against the retired
//! Vec-of-Vec reference semantics: the `LabelArena`, the scale-indexed
//! store's slices, and the incremental overlay blocks — same inputs ⇒
//! identical labels/overlays, at lengths straddling `PAR_THRESHOLD` and
//! thread counts 1–8.

use hopset::label::{labels_equal, Label, LabelArena};
use hopset::{ClusterMemory, EdgeKind, ExploreScratch, Explorer, Hopset, HopsetEdge, Partition};
use pgraph::{gen, OverlayCsrBuilder, UnionView, VId, Weight};
use pram::pool::PAR_THRESHOLD;
use pram::{scan, Executor, Ledger};
use proptest::prelude::*;

fn lab(src: VId, dist: Weight, pw: Weight) -> Label {
    Label {
        src,
        dist,
        pw,
        path: None,
    }
}

/// Random per-list operations replayed on both the arena and a
/// `Vec<Vec<Label>>` reference.
#[derive(Clone, Debug)]
enum ArenaOp {
    Push(usize, Label),
    SetList(usize, Vec<Label>),
}

fn arb_ops(n: usize, x: usize) -> impl Strategy<Value = Vec<ArenaOp>> {
    let label = (0u32..50, 0u32..30).prop_map(|(src, d)| lab(src, d as f64, d as f64));
    let op = (0usize..2, 0..n, proptest::collection::vec(label, 0..4)).prop_map(
        move |(kind, i, mut ls)| {
            if kind == 0 {
                match ls.pop() {
                    Some(l) => ArenaOp::Push(i, l),
                    None => ArenaOp::SetList(i, Vec::new()),
                }
            } else {
                ls.truncate(x);
                ArenaOp::SetList(i, ls)
            }
        },
    );
    proptest::collection::vec(op, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena list semantics == Vec-of-Vec reference under arbitrary push /
    /// overwrite interleavings (the `x`-cap is the arena's legality
    /// precondition, so reference pushes beyond `x` are skipped too).
    #[test]
    fn arena_matches_vec_of_vec(ops in arb_ops(6, 3)) {
        let (n, x) = (6usize, 3usize);
        let mut arena = LabelArena::new();
        arena.reset(n, x);
        let mut reference: Vec<Vec<Label>> = vec![Vec::new(); n];
        for op in ops {
            match op {
                ArenaOp::Push(i, l) => {
                    if reference[i].len() < x {
                        reference[i].push(l.clone());
                        arena.push(i, l);
                    }
                }
                ArenaOp::SetList(i, ls) => {
                    reference[i] = ls.clone();
                    arena.set_list(i, ls.into_iter());
                }
            }
            for (got, expect) in arena.iter_lists().zip(&reference) {
                prop_assert!(labels_equal(got, expect));
            }
        }
        // Reset returns to all-empty without reallocation concerns.
        arena.reset(n, x);
        prop_assert!(arena.iter_lists().all(|l| l.is_empty()));
    }

    /// Scale-indexed slices == the retired linear-scan reference on random
    /// scale-grouped edge streams, including absent scales and global ids.
    #[test]
    fn scale_slices_match_scan_reference(
        sizes in proptest::collection::vec(0usize..9, 1..6),
        gap in 1u32..3,
    ) {
        let mut h = Hopset::new();
        let mut reference: Vec<HopsetEdge> = Vec::new();
        let mut id = 0u32;
        for (si, &sz) in sizes.iter().enumerate() {
            let scale = si as u32 * gap;
            for j in 0..sz {
                let e = HopsetEdge {
                    u: id % 7,
                    v: id % 7 + 1 + (j as u32 % 3),
                    w: 1.0 + j as f64,
                    scale,
                    kind: EdgeKind::Interconnect { phase: 0 },
                    path: None,
                };
                h.push(e);
                reference.push(e);
                id += 1;
            }
        }
        let max_scale = sizes.len() as u32 * gap + 2;
        for k in 0..max_scale {
            // Retired reference: O(|H|) scan + filtered copies.
            let mut overlay = Vec::new();
            let mut ids = Vec::new();
            for (i, e) in reference.iter().enumerate() {
                if e.scale == k {
                    overlay.push((e.u, e.v, e.w));
                    ids.push(i as u32);
                }
            }
            let sl = h.scale_slice(k);
            prop_assert_eq!(sl.iter().collect::<Vec<_>>(), overlay, "scale {}", k);
            let got_ids: Vec<u32> = (0..sl.len()).map(|i| sl.global_id(i)).collect();
            prop_assert_eq!(got_ids, ids, "scale {} ids", k);
        }
        // size_by_scale == scan-accumulated counts.
        let mut counts: Vec<(u32, usize)> = Vec::new();
        for e in &reference {
            match counts.iter_mut().find(|(k, _)| *k == e.scale) {
                Some((_, c)) => *c += 1,
                None => counts.push((e.scale, 1)),
            }
        }
        counts.sort_unstable();
        prop_assert_eq!(h.size_by_scale(), counts);
        prop_assert_eq!(h.all_slice().len(), reference.len());
    }
}

/// The overlay builder's parallel counting-sort path, straddling
/// `PAR_THRESHOLD` (the scan runs over the `n`-length degree array) at
/// thread counts 1–8: bit-identical blocks to the sequential scan.
#[test]
fn builder_parallel_scan_matches_sequential_across_threads() {
    for n in [PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 1] {
        let g = pgraph::Graph::empty(n);
        let m = 3 * n / 2;
        let us: Vec<VId> = (0..m).map(|i| (i * 7919 % n) as VId).collect();
        let vs: Vec<VId> = (0..m)
            .map(|i| {
                let u = i * 7919 % n;
                ((u + 1 + i % (n - 1)) % n) as VId
            })
            .collect();
        let ws: Vec<Weight> = (0..m).map(|i| 1.0 + (i % 13) as f64).collect();
        let mut seq_builder = OverlayCsrBuilder::rolling(n);
        let seq_view = UnionView::with_csr(&g, seq_builder.append_scale_seq(&us, &vs, &ws));
        for threads in [1usize, 2, 3, 4, 8] {
            let exec = Executor::new(threads);
            let mut ledger = Ledger::new();
            let mut b = OverlayCsrBuilder::rolling(n);
            let block = b.append_scale(&us, &vs, &ws, |deg| {
                scan::exclusive_prefix_sum(&exec, deg, &mut ledger).0
            });
            let view = UnionView::with_csr(&g, block);
            for v in (0..n as VId).step_by(97) {
                let a: Vec<_> = view.neighbors(v).collect();
                let e: Vec<_> = seq_view.neighbors(v).collect();
                assert_eq!(a, e, "n={n} threads={threads} vertex={v}");
            }
            assert_eq!(view.num_extra(), seq_view.num_extra());
        }
    }
}

/// The arena-backed exploration engine at a vertex count straddling
/// `PAR_THRESHOLD` (so the pulse rounds genuinely fan out), thread counts
/// 1–8: identical label tables everywhere.
#[test]
fn arena_explorer_straddles_par_threshold_across_threads() {
    let n = PAR_THRESHOLD + 4;
    let g = gen::path(n);
    let view = UnionView::base_only(&g);
    let part = Partition::singletons(n);
    let cm = ClusterMemory::trivial(n, false);
    let run = |threads: usize| {
        let exec = Executor::new(threads);
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 3.5,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        (ex.detect_neighbors(3, &mut scratch, &mut led), led)
    };
    let (base, base_ledger) = run(1);
    for threads in [2usize, 4, 8] {
        let (got, ledger) = run(threads);
        assert_eq!(got.num_lists(), base.num_lists());
        for (v, (a, b)) in got.iter_lists().zip(base.iter_lists()).enumerate() {
            assert!(labels_equal(a, b), "threads={threads} vertex={v}");
        }
        assert_eq!(ledger, base_ledger, "threads={threads}");
    }
}
