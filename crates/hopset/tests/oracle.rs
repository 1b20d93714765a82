//! Oracle tests: the exploration engine (Algorithm 2) against brute-force
//! references, plus Theory-mode and schedule-ablation coverage.

use hopset::virtual_bfs::{ExploreScratch, Explorer};
use hopset::{
    build_hopset_on, BuildOptions, ClusterMemory, DeltaSchedule, HopsetParams, ParamMode, Partition,
};
use pgraph::exact::bellman_ford_hops;
use pgraph::{gen, Graph, UnionView, VId, Weight, INF};
use pram::pool::threads_from_env;
use pram::{Executor, Ledger};
use proptest::prelude::*;

/// Brute-force cluster-to-cluster hop/threshold-bounded distance: the min
/// over member pairs of `d^{(hops)}`, or None if above the threshold.
fn oracle_cluster_dist(
    g: &Graph,
    part: &Partition,
    a: u32,
    b: u32,
    hops: usize,
    threshold: Weight,
) -> Option<Weight> {
    let view = UnionView::base_only(g);
    let sources = &part.clusters[a as usize].members;
    let d = bellman_ford_hops(&view, sources, hops);
    let best = part.clusters[b as usize]
        .members
        .iter()
        .map(|&v| d[v as usize])
        .fold(INF, f64::min);
    (best <= threshold).then_some(best)
}

/// Deterministic pseudo-random partition of the vertices into clusters
/// (each cluster's center = its smallest member).
fn make_partition(n: usize, clusters: usize, seed: u64) -> Partition {
    let clusters = clusters.clamp(1, n);
    let mut assign: Vec<Vec<VId>> = vec![Vec::new(); clusters];
    let mut state = seed | 1;
    for v in 0..n as u32 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        assign[(state % clusters as u64) as usize].push(v);
    }
    let mut cls: Vec<hopset::Cluster> = assign
        .into_iter()
        .filter(|m| !m.is_empty())
        .map(|members| hopset::Cluster {
            center: members[0],
            members,
        })
        .collect();
    cls.sort_by_key(|c| c.center);
    let mut cluster_of = vec![None; n];
    for (ci, c) in cls.iter().enumerate() {
        for &v in &c.members {
            cluster_of[v as usize] = Some(ci as u32);
        }
    }
    Partition {
        cluster_of,
        clusters: cls,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 2's m(C) records equal the brute-force cluster distances
    /// whenever x is large enough to avoid truncation.
    #[test]
    fn detect_neighbors_matches_oracle(
        n in 10usize..40,
        m_per in 1usize..3,
        seed in any::<u64>(),
        nclusters in 2usize..8,
        thr in 2.0f64..12.0,
    ) {
        let g = gen::gnm_connected(n, n * m_per, seed, 1.0, 4.0);
        let part = make_partition(n, nclusters, seed ^ 0xabcdef);
        let cm = ClusterMemory::trivial(n, false);
        let view = UnionView::base_only(&g);
        let hops = n; // unbounded (cap at n): oracle uses the same
        let exec = Executor::new(2);
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: thr,
            hop_limit: hops,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let x = part.len() + 1; // no truncation
        let m = ex.detect_neighbors(x, &mut ExploreScratch::new(), &mut led);
        for a in 0..part.len() as u32 {
            for b in 0..part.len() as u32 {
                if a == b { continue; }
                let oracle = oracle_cluster_dist(&g, &part, a, b, hops, thr);
                let rec = m.labels(a as usize)
                    .iter()
                    .find(|l| l.src == part.center(b))
                    .map(|l| l.dist);
                match (oracle, rec) {
                    (None, None) => {}
                    (Some(o), Some(r)) => prop_assert!(
                        (o - r).abs() < 1e-9,
                        "clusters {a},{b}: oracle {o} vs engine {r}"
                    ),
                    (o, r) => prop_assert!(
                        false,
                        "clusters {a},{b}: oracle {o:?} vs engine {r:?}"
                    ),
                }
            }
        }
    }

    /// The BFS variant detects exactly the G̃-reachable clusters, in
    /// pulse = G̃-distance order (Lemma A.4).
    #[test]
    fn bfs_detection_matches_virtual_bfs(
        n in 10usize..36,
        seed in any::<u64>(),
        nclusters in 2usize..7,
        thr in 2.0f64..10.0,
    ) {
        let g = gen::gnm_connected(n, 2 * n, seed, 1.0, 4.0);
        let part = make_partition(n, nclusters, seed ^ 0x1234);
        let cm = ClusterMemory::trivial(n, false);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: thr,
            hop_limit: n,
            record_paths: false,
        };
        // Reference: BFS on the brute-force virtual graph.
        let nc = part.len();
        let mut adj = vec![Vec::new(); nc];
        for a in 0..nc as u32 {
            for b in 0..nc as u32 {
                if a != b && oracle_cluster_dist(&g, &part, a, b, n, thr).is_some() {
                    adj[a as usize].push(b);
                }
            }
        }
        let mut ref_dist = vec![usize::MAX; nc];
        let mut queue = std::collections::VecDeque::new();
        ref_dist[0] = 0;
        queue.push_back(0u32);
        while let Some(c) = queue.pop_front() {
            for &d in &adj[c as usize] {
                if ref_dist[d as usize] == usize::MAX {
                    ref_dist[d as usize] = ref_dist[c as usize] + 1;
                    queue.push_back(d);
                }
            }
        }
        let mut led = Ledger::new();
        let det = ex.bfs(&[0], nc + 2, &mut ExploreScratch::new(), &mut led);
        for c in 0..nc {
            match (&det[c], ref_dist[c]) {
                (None, usize::MAX) => {}
                (Some(d), r) => prop_assert_eq!(d.pulse, r, "cluster {}", c),
                (None, r) => prop_assert!(false, "cluster {} missed at G~ dist {}", c, r),
            }
        }
    }

    /// Practical-mode realized path weights are real: every label's pw is
    /// achievable, hence ≥ the true distance between the endpoints.
    #[test]
    fn label_pw_at_least_distance(
        n in 10usize..36,
        seed in any::<u64>(),
        nclusters in 2usize..7,
    ) {
        let g = gen::gnm_connected(n, 2 * n, seed, 1.0, 6.0);
        let part = make_partition(n, nclusters, seed);
        let cm = ClusterMemory::trivial(n, false);
        let view = UnionView::base_only(&g);
        let exec = Executor::new(2);
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 20.0,
            hop_limit: n,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let m = ex.detect_neighbors(part.len() + 1, &mut ExploreScratch::new(), &mut led);
        for (ci, recs) in m.iter_lists().enumerate() {
            for l in recs {
                // pw is always a realized path weight, never below dist.
                prop_assert!(l.pw >= l.dist - 1e-9);
                // With trivial cluster memory (no center detours yet), pw
                // realizes a member-to-member path, so it cannot undercut
                // the exact cluster-to-cluster distance.
                let src_idx = part.index_of_center(l.src).expect("center");
                if src_idx == ci as u32 { continue; }
                let oracle =
                    oracle_cluster_dist(&g, &part, src_idx, ci as u32, n, f64::INFINITY)
                        .expect("recorded labels are reachable");
                prop_assert!(l.pw >= oracle - 1e-6, "pw below true cluster distance");
            }
        }
    }
}

#[test]
fn theory_mode_end_to_end() {
    // Theory mode on a small graph: formula weights, rescaled ε, and the
    // full contract (β is astronomically large, so queries cap at n and
    // are exact — the interesting checks are no-shortcut and size).
    let g = gen::gnm_connected(64, 192, 4, 1.0, 6.0);
    let p = HopsetParams::new(
        64,
        0.5,
        4,
        0.3,
        ParamMode::Theory,
        g.aspect_ratio_bound(),
        None,
    )
    .unwrap();
    let built = build_hopset_on(
        &Executor::new(threads_from_env()),
        &g,
        &p,
        BuildOptions::default(),
    );
    assert!(
        built.scales.iter().all(|s| s.weight_bound_violations == 0),
        "realized paths must fit the formula weights"
    );
    let bad = hopset::validate::find_shortcut_violations(&g, &built.hopset);
    assert!(bad.is_empty(), "{bad:?}");
    assert!((built.hopset.len() as f64) <= built.size_bound());
    let rep = hopset::validate::measure_stretch(&g, &built.hopset, &[0, 32], p.query_hops);
    assert_eq!(rep.undershoots, 0);
    assert!(rep.max_stretch <= 1.5 + 1e-9);
}

#[test]
fn paper_literal_schedule_still_sound() {
    // The printed α = ℓ·2^{k+1} schedule (DESIGN.md §4 erratum) remains
    // *sound* (never undershoots, stays within size bound) even though its
    // analysis is inconsistent; A1 quantifies the quality difference.
    let g = gen::clique_chain(16, 8, 2.0);
    let mut p = HopsetParams::new(
        g.num_vertices(),
        0.25,
        4,
        0.3,
        ParamMode::Practical,
        g.aspect_ratio_bound(),
        None,
    )
    .unwrap();
    p.delta_schedule = DeltaSchedule::PaperLiteral;
    let built = build_hopset_on(
        &Executor::new(threads_from_env()),
        &g,
        &p,
        BuildOptions::default(),
    );
    let bad = hopset::validate::find_shortcut_violations(&g, &built.hopset);
    assert!(bad.is_empty());
    let rep = hopset::validate::measure_stretch(&g, &built.hopset, &[0, 64], p.query_hops);
    assert_eq!(rep.undershoots, 0);
    assert_eq!(rep.unreached, 0);
}

#[test]
fn explorer_over_union_views_uses_hopset_edges() {
    // Scale-k explorations run over G ∪ H_{k-1}: check that overlay edges
    // shorten *hop* counts in the engine (a 2-hop detection that the bare
    // graph needs many hops for).
    let g = gen::path(40);
    let overlay = vec![(0u32, 39u32, 39.0)];
    let view = UnionView::with_extra(&g, &overlay);
    let part = Partition::singletons(40);
    let cm = ClusterMemory::trivial(40, false);
    let exec = Executor::new(2);
    let ex = Explorer {
        exec: &exec,
        view: &view,
        part: &part,
        cm: &cm,
        threshold: 40.0,
        hop_limit: 2, // two hops only: bare path cannot see 0 from 39
        record_paths: false,
    };
    let mut led = Ledger::new();
    let m = ex.detect_neighbors(50, &mut ExploreScratch::new(), &mut led);
    let rec = m
        .labels(39)
        .iter()
        .find(|l| l.src == 0)
        .expect("overlay edge must carry the label in one hop");
    assert_eq!(rec.dist, 39.0);
}
