//! Property tests for the PRAM primitives against sequential references.
//!
//! The second block below targets the `pram::pool` persistent worker pool:
//! every pool-backed primitive must match its sequential reference on
//! arbitrary inputs, at arbitrary thread counts, with lengths specifically
//! straddling `PAR_THRESHOLD` (the sequential/parallel gate, including the
//! exact-threshold edge) and chunk boundaries (`len = threads·k ± 1`).
//!
//! The last block pins the frontier-driven Bellman–Ford kernel against
//! the full-pull round loop it replaced, kept here as the reference.

mod hub;

use hub::{chunked_instance, chunked_sources, hub_instance, Mix};
use pgraph::{gen, EdgeTag, Graph, UnionView, VId, Weight, INF};
use pram::{cc, jump, prim, scan, sort, BfordScratch, Executor, Ledger, ParentEdge};
use proptest::prelude::*;

/// Lengths the pool proptests probe: tiny, straddling `PAR_THRESHOLD`,
/// straddling `2·PAR_THRESHOLD` (two full parallel chunks per thread at
/// low thread counts), and exact multiples of the thread count ± 1 (the
/// balanced chunking rule's remainder edge).
fn boundary_len(sel: usize, off: usize, threads: usize) -> usize {
    match sel {
        0 => off,                                           // 0..5: degenerate
        1 => prim::PAR_THRESHOLD - 2 + off,                 // threshold − 2 .. + 2
        2 => 2 * prim::PAR_THRESHOLD - 2 + off,             // 2·threshold − 2 .. + 2
        _ => threads * (prim::PAR_THRESHOLD / 2) + off - 2, // k·threads ± 2
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..80, 0usize..3, any::<u64>())
        .prop_map(|(n, d, seed)| gen::gnm(n, n * d, seed, 1.0, 9.0))
}

/// Sequential union-find reference for component labels (min id).
fn ref_components(g: &Graph) -> Vec<VId> {
    let n = g.num_vertices();
    let mut label: Vec<VId> = (0..n as VId).collect();
    let mut stack = Vec::new();
    let mut seen = vec![false; n];
    for s in 0..n as u32 {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        stack.push(s);
        while let Some(u) = stack.pop() {
            label[u as usize] = s;
            for (v, _) in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
    }
    label
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Shiloach–Vishkin labels match the DFS reference exactly.
    #[test]
    fn cc_matches_reference(g in arb_graph()) {
        let mut l = Ledger::new();
        let res = cc::connected_components(&Executor::sequential(), &g, &mut l);
        prop_assert_eq!(res.label, ref_components(&g));
    }

    /// The spanning forest has exactly n - #components edges and connects
    /// whatever the graph connects.
    #[test]
    fn forest_spans(g in arb_graph()) {
        let mut l = Ledger::new();
        let (res, forest) = cc::spanning_forest(&Executor::sequential(), &g, |_| true, &mut l);
        prop_assert_eq!(forest.len(), g.num_vertices() - res.count);
        let set: std::collections::HashSet<usize> = forest.iter().copied().collect();
        let mut l2 = Ledger::new();
        let res2 =
            cc::connected_components_filtered(&Executor::sequential(), &g, |e| set.contains(&e), &mut l2);
        prop_assert_eq!(res.label, res2.label);
    }

    /// Prefix sums equal the sequential scan.
    #[test]
    fn scan_matches(xs in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut l = Ledger::new();
        let (out, total) = scan::exclusive_prefix_sum(&Executor::sequential(), &xs, &mut l);
        let mut acc = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    /// Pointer jumping computes exact root distances on random forests.
    #[test]
    fn jump_matches_walk(n in 2usize..200, seed in any::<u64>()) {
        // Random forest: parent[v] < v (acyclic by construction).
        let mut parent: Vec<VId> = vec![0; n];
        let mut weight: Vec<f64> = vec![0.0; n];
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for v in 1..n {
            // Some vertices are roots.
            if rnd() % 5 == 0 {
                parent[v] = v as VId;
            } else {
                parent[v] = (rnd() % v as u64) as VId;
                weight[v] = (rnd() % 50 + 1) as f64;
            }
        }
        let mut l = Ledger::new();
        let (dist, root) =
            jump::pointer_jump_distances(&Executor::sequential(), &parent, &weight, &mut l);
        for v in 0..n {
            // Walk reference.
            let mut cur = v;
            let mut acc = 0.0;
            while parent[cur] != cur as VId {
                acc += weight[cur];
                cur = parent[cur] as usize;
            }
            prop_assert!((dist[v] - acc).abs() < 1e-9, "v={v}");
            prop_assert_eq!(root[v], cur as VId);
        }
    }

    /// Parallel Bellman–Ford equals the sequential reference at every hop
    /// bound, including over union views.
    #[test]
    fn bellman_ford_matches(g in arb_graph(), hops in 1usize..12, extra_w in 1.0f64..20.0) {
        if g.num_vertices() < 3 { return Ok(()); }
        let extra = vec![(0u32, (g.num_vertices() - 1) as u32, extra_w)];
        let view = UnionView::with_extra(&g, &extra);
        let mut l = Ledger::new();
        let par = pram::bellman_ford(&Executor::sequential(), &view, &[0], hops, &mut l);
        let seq = pgraph::exact::bellman_ford_hops(&view, &[0], hops);
        prop_assert_eq!(par.dist, seq);
    }

    /// Ledger arithmetic: sequential absorb adds both axes; parallel absorb
    /// adds work, maxes depth.
    #[test]
    fn ledger_absorb_laws(steps_a in 0u64..50, steps_b in 0u64..50, w in 1u64..100) {
        let mut a = Ledger::new();
        a.steps(steps_a, w);
        let mut b = Ledger::new();
        b.steps(steps_b, w);
        let mut s = a.clone();
        s.absorb_sequential(&b);
        prop_assert_eq!(s.depth(), steps_a + steps_b);
        prop_assert_eq!(s.work(), (steps_a + steps_b) * w);
        let mut p = a.clone();
        p.absorb_parallel(&b);
        prop_assert_eq!(p.depth(), steps_a.max(steps_b));
        prop_assert_eq!(p.work(), (steps_a + steps_b) * w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `par_map_range` equals the sequential range map, in order.
    #[test]
    fn pool_map_range_matches(sel in 0usize..4, off in 0usize..5, threads in 1usize..9, mul in any::<u64>()) {
        let len = boundary_len(sel, off, threads);
        let f = |i: usize| (i as u64).wrapping_mul(mul) % 65_537;
        let expect: Vec<u64> = (0..len).map(f).collect();
        let got = prim::par_map_range(&Executor::new(threads), len, f);
        prop_assert_eq!(got, expect);
    }

    /// `par_fill` writes exactly the sequential fill.
    #[test]
    fn pool_fill_matches(sel in 0usize..4, off in 0usize..5, threads in 1usize..9, mul in any::<u64>()) {
        let len = boundary_len(sel, off, threads);
        let f = |i: usize| (i as u64).wrapping_add(mul).wrapping_mul(2654435761);
        let expect: Vec<u64> = (0..len).map(f).collect();
        let mut got = vec![0u64; len];
        prim::par_fill(&Executor::new(threads), &mut got, f);
        prop_assert_eq!(got, expect);
    }

    /// The pool-backed scan equals the sequential prefix sum at lengths
    /// around its parallel gate, at any thread count, with the same ledger.
    #[test]
    fn pool_scan_matches(sel in 0usize..4, off in 0usize..5, threads in 1usize..9, mul in any::<u64>()) {
        let len = boundary_len(sel, off, threads);
        let xs: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(mul) % 1009).collect();
        let mut seq_out = Vec::with_capacity(len);
        let mut acc = 0u64;
        for &x in &xs {
            seq_out.push(acc);
            acc += x;
        }
        let mut l = Ledger::new();
        let (out, total) = scan::exclusive_prefix_sum(&Executor::new(threads), &xs, &mut l);
        prop_assert_eq!(out, seq_out);
        prop_assert_eq!(total, acc);
        let mut l1 = Ledger::new();
        let _ = scan::exclusive_prefix_sum(&Executor::sequential(), &xs, &mut l1);
        prop_assert_eq!(l, l1);
    }

    /// The pool-backed stable sort equals `slice::sort_by` (unique stable
    /// output) around its own parallel threshold, with equal keys present.
    #[test]
    fn pool_sort_matches(delta in 0usize..5, threads in 1usize..9, mul in any::<u32>(), modulus in 1u32..9) {
        // PAR_SORT_THRESHOLD is 1 << 13; straddle it by ±2.
        let len = (1usize << 13) - 2 + delta;
        let mk = || -> Vec<(u32, u32)> {
            (0..len as u32).map(|i| (i.wrapping_mul(mul) % modulus, i)).collect()
        };
        let mut expect = mk();
        expect.sort_by_key(|e| e.0); // std stable sort: the reference
        let mut got = mk();
        let mut l = Ledger::new();
        sort::sort_by(&Executor::new(threads), &mut got, &mut l, |a, b| a.0.cmp(&b.0));
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// The Bellman–Ford kernel against the full-pull reference
// ---------------------------------------------------------------------------

type Candidate = (Weight, ParentEdge);

/// The kernel's tie-break order: distance, then parent id, then base edges
/// before overlay edges, then overlay index.
fn cand_key(c: &Candidate) -> (u64, VId, u8, u32) {
    let (layer, idx) = match c.1.tag {
        EdgeTag::Base => (0u8, 0u32),
        EdgeTag::Extra(i) => (1u8, i),
    };
    (c.0.to_bits(), c.1.parent, layer, idx)
}

/// Everything an exploration reports, plus the frontier of every round.
struct PullRun {
    dist: Vec<Weight>,
    parent: Vec<Option<ParentEdge>>,
    rounds_run: usize,
    converged_at: Option<usize>,
    settled: bool,
    ledger: Ledger,
    /// `(|F|, Σ_{u∈F} deg(u))` per round, where `F` holds the vertices
    /// written in the round before (the sources before round 1).
    frontiers: Vec<(usize, u64)>,
}

/// The reference: the Bellman–Ford round loop as it was before rounds
/// became frontier-driven. Every round, every vertex pulls the best
/// candidate over all its neighbors from the previous round's distances;
/// the ledger is charged `2|E∪H| + n` per round. With a target, the run
/// stops once the target is finite and no label written in the round is
/// below it.
fn pull_reference(
    view: &UnionView<'_>,
    sources: &[VId],
    target: Option<VId>,
    max_hops: usize,
) -> PullRun {
    let n = view.num_vertices();
    let mut run = PullRun {
        dist: vec![INF; n],
        parent: vec![None; n],
        rounds_run: 0,
        converged_at: None,
        settled: false,
        ledger: Ledger::new(),
        frontiers: Vec::new(),
    };
    for &s in sources {
        run.dist[s as usize] = 0.0;
    }
    if target.is_some_and(|t| run.dist[t as usize] == 0.0) {
        run.settled = true;
        return run;
    }
    let edge_slots = 2 * view.num_edges() as u64;
    let mut frontier: Vec<VId> = sources.to_vec();
    frontier.sort_unstable();
    frontier.dedup();
    for round in 1..=max_hops {
        run.ledger.step(edge_slots + n as u64);
        let touched = frontier.iter().map(|&u| view.degree(u) as u64).sum();
        run.frontiers.push((frontier.len(), touched));
        let prev = run.dist.clone();
        let updates: Vec<Option<Candidate>> = (0..n)
            .map(|v| {
                let mut best: Option<Candidate> = None;
                view.for_each_neighbor(v as VId, |u, w, tag| {
                    let nd = prev[u as usize] + w;
                    if prev[u as usize] == INF || nd >= prev[v] {
                        return;
                    }
                    let cand = (
                        nd,
                        ParentEdge {
                            parent: u,
                            weight: w,
                            tag,
                        },
                    );
                    if best.is_none_or(|b| cand_key(&cand) < cand_key(&b)) {
                        best = Some(cand);
                    }
                });
                best
            })
            .collect();
        frontier.clear();
        let mut min_changed = INF;
        for (v, update) in updates.into_iter().enumerate() {
            if let Some((nd, pe)) = update {
                run.dist[v] = nd;
                run.parent[v] = Some(pe);
                frontier.push(v as VId);
                min_changed = min_changed.min(nd);
            }
        }
        run.rounds_run = round;
        if frontier.is_empty() {
            run.converged_at = Some(round);
            break;
        }
        if let Some(t) = target {
            let dt = run.dist[t as usize];
            if dt.is_finite() && min_changed >= dt {
                run.settled = true;
                break;
            }
        }
    }
    run
}

/// The kernel's documented round-kind rule, `4·touched < 2|E∪H|`; used
/// only to check that an instance really mixes both kinds of round.
fn sparse_round(touched: u64, view: &UnionView<'_>) -> bool {
    4 * touched < 2 * view.num_edges() as u64
}

/// Assert one parent-carrying `bellman_ford` run and one distance-only
/// `bellman_ford_into` run through a reused scratch against the reference
/// at the same hop budget: the distance-only run has the same distance
/// bits, round counts and ledger as the reference, without a parent row.
fn check_full_run(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    hops: usize,
    scratch: &mut BfordScratch,
) -> Result<(), TestCaseError> {
    let want = pull_reference(view, sources, None, hops);
    let mut ledger = Ledger::new();
    let got = pram::bellman_ford(exec, view, sources, hops, &mut ledger);
    let bits = |d: &[Weight]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ctx = format!("threads={} hops={hops}", exec.threads());
    prop_assert_eq!(bits(&got.dist), bits(&want.dist), "dist {}", ctx);
    prop_assert_eq!(&got.parent, &want.parent, "parent {}", ctx);
    prop_assert_eq!(got.rounds_run, want.rounds_run, "rounds_run {}", ctx);
    prop_assert_eq!(got.converged_at, want.converged_at, "converged_at {}", ctx);
    prop_assert_eq!(&ledger, &want.ledger, "ledger {}", ctx);
    let mut ledger = Ledger::new();
    let (rounds, conv) = pram::bellman_ford_into(exec, view, sources, hops, &mut ledger, scratch);
    prop_assert_eq!(
        (rounds, conv),
        (want.rounds_run, want.converged_at),
        "into {}",
        ctx
    );
    prop_assert_eq!(bits(scratch.dist()), bits(&want.dist), "into dist {}", ctx);
    prop_assert_eq!(&ledger, &want.ledger, "into ledger {}", ctx);
    Ok(())
}

/// Assert one early-exit `bellman_ford_to` run against the reference.
fn check_target_run(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    target: VId,
    hops: usize,
) -> Result<(), TestCaseError> {
    let want = pull_reference(view, sources, Some(target), hops);
    let mut ledger = Ledger::new();
    let got = pram::bellman_ford_to(exec, view, sources, target, hops, &mut ledger);
    let ctx = format!("threads={} hops={hops} target={target}", exec.threads());
    prop_assert_eq!(
        got.dist.to_bits(),
        want.dist[target as usize].to_bits(),
        "dist {}",
        ctx
    );
    prop_assert_eq!(got.rounds_run, want.rounds_run, "rounds_run {}", ctx);
    prop_assert_eq!(
        got.settled_early,
        want.settled || want.converged_at.is_some(),
        "settled_early {}",
        ctx
    );
    prop_assert_eq!(&ledger, &want.ledger, "ledger {}", ctx);
    Ok(())
}

/// Hop budgets to probe: 1, 2, a drawn one, and the last rounds up to one
/// past convergence (`rounds` is the converged run's round count).
fn hop_budgets(rounds: usize, pick: usize) -> Vec<usize> {
    let mut hops = vec![
        1,
        2,
        1 + pick % rounds,
        rounds.saturating_sub(1),
        rounds,
        rounds + 1,
    ];
    hops.retain(|&h| h >= 1);
    hops.sort_unstable();
    hops.dedup();
    hops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The frontier-driven kernel equals the full-pull reference bit for
    /// bit: distances, parents, `rounds_run`, `converged_at`, the
    /// early-exit answer with its `settled_early`, and the ledger, in both
    /// its parent-carrying and its distance-only instantiation. Checked
    /// at 1/2/4/8 threads, at hop budgets from 1 through convergence,
    /// with duplicate sources, on hub overlays with base/overlay parallel
    /// edges; the target-bounded early exit at every [`probe_targets`]
    /// target of two budgets.
    #[test]
    fn bellman_ford_kernel_matches_full_pull(
        rows in 2usize..16,
        cols in 2usize..16,
        hubs in 0usize..4,
        stride in 1usize..6,
        nsrc in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (g, extra) = hub_instance(rows, cols, hubs, stride, seed);
        let view = UnionView::with_extra(&g, &extra);
        let n = g.num_vertices();
        let mut mix = Mix(seed ^ 0x5EED);
        let mut sources: Vec<VId> = (0..nsrc).map(|_| mix.below(n) as VId).collect();
        sources.push(sources[0]);
        let drawn = [mix.below(n) as VId, mix.below(n) as VId];
        let pick = mix.next() as usize;
        let full = pull_reference(&view, &sources, None, n + 1);
        let rounds = full.converged_at.expect("n + 1 rounds always converge");
        let target_hops = [1 + pick % rounds, rounds + 1];
        let targets: Vec<Vec<VId>> = target_hops
            .iter()
            .map(|&hops| {
                let run = pull_reference(&view, &sources, None, hops);
                probe_targets(&run, &sources, drawn)
            })
            .collect();
        let mut scratch = BfordScratch::new();
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::new(threads);
            for hops in hop_budgets(rounds, pick) {
                check_full_run(&exec, &view, &sources, hops, &mut scratch)?;
            }
            for (&hops, targets) in target_hops.iter().zip(&targets) {
                for &target in targets {
                    check_target_run(&exec, &view, &sources, target, hops)?;
                }
            }
        }
    }
}

/// The targets a point-to-point run is checked at, from both sides of its
/// target bound: every distinct source (label 0 before any round), the
/// farthest vertex `run` reaches (its bound keeps almost every write), the
/// first vertex `run` leaves at `INF` (no bound ever applies), and the
/// `drawn` vertices.
fn probe_targets(run: &PullRun, sources: &[VId], drawn: [VId; 2]) -> Vec<VId> {
    let n = run.dist.len() as VId;
    let reached = |v: &VId| run.dist[*v as usize] < INF;
    let farthest = (0..n)
        .filter(reached)
        .max_by(|&a, &b| run.dist[a as usize].total_cmp(&run.dist[b as usize]));
    let unreached = (0..n).find(|v| !reached(v));
    let mut targets: Vec<VId> = sources
        .iter()
        .copied()
        .chain(farthest)
        .chain(unreached)
        .collect();
    targets.extend(drawn);
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// The chunked paths: a sparse round whose frontier reaches
/// `PAR_THRESHOLD` splits into one candidate buffer per chunk at two or
/// more threads, and the dense round after it splits its 12 000 vertices
/// into per-chunk change lists (`hub::chunked_instance`).
#[test]
fn bellman_ford_kernel_chunks_large_sparse_frontiers() {
    let (g, extra) = chunked_instance();
    let view = UnionView::with_extra(&g, &extra);
    let n = g.num_vertices();
    let sources = chunked_sources(&view);
    let full = pull_reference(&view, &sources, None, n + 1);
    let rounds = full.converged_at.expect("converges");
    let (f0, t0) = full.frontiers[0];
    assert!(
        f0 >= prim::PAR_THRESHOLD && sparse_round(t0, &view),
        "|F|={f0}"
    );
    assert!(full.frontiers.iter().any(|&(_, t)| !sparse_round(t, &view)));
    let target = (n / 2) as VId;
    let mut scratch = BfordScratch::new();
    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::new(threads);
        for hops in [1, 2, rounds + 1] {
            check_full_run(&exec, &view, &sources, hops, &mut scratch).unwrap();
        }
        check_target_run(&exec, &view, &sources, target, rounds + 1).unwrap();
    }
}

/// The chunked dense round over empty adjacency runs. `gen::gnm(6000,
/// 6000, ..)` leaves about one vertex in seven isolated, and a two-hub
/// overlay joined to every 50th vertex leaves most overlay runs empty. A
/// source at every third vertex makes round 1 dense, and its 6 000
/// vertices split into two chunks at two or more threads, each streaming
/// the slots of its own vertex range across the empty rows.
#[test]
fn bellman_ford_kernel_streams_dense_rounds_over_empty_runs() {
    for seed in [1u64, 2] {
        let g = gen::gnm(6000, 6000, seed, 1.0, 9.0);
        let n = g.num_vertices();
        let mut mix = Mix(seed);
        let mut extra = Vec::new();
        for hub in [mix.below(n) as VId, mix.below(n) as VId] {
            for v in (mix.below(50)..n).step_by(50) {
                if v as VId != hub {
                    extra.push((hub, v as VId, 2.0 + mix.below(12) as f64));
                }
            }
        }
        let view = UnionView::with_extra(&g, &extra);
        let isolated = (0..n as VId).filter(|&v| view.degree(v) == 0).count();
        assert!(
            isolated > n / 20,
            "seed={seed}: {isolated} isolated vertices"
        );
        let sources: Vec<VId> = (0..n as VId).step_by(3).collect();
        let full = pull_reference(&view, &sources, None, n + 1);
        let rounds = full.converged_at.expect("converges");
        assert!(n >= prim::PAR_THRESHOLD, "dense rounds split into chunks");
        assert!(
            !sparse_round(full.frontiers[0].1, &view),
            "seed={seed}: round 1 is dense"
        );
        let farthest = (0..n as VId)
            .filter(|&v| full.dist[v as usize] < INF)
            .max_by(|&a, &b| full.dist[a as usize].total_cmp(&full.dist[b as usize]))
            .expect("sources are reached");
        let unreached = (0..n as VId).find(|&v| full.dist[v as usize] == INF);
        let mut scratch = BfordScratch::new();
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::new(threads);
            for hops in [1, 2, rounds + 1] {
                check_full_run(&exec, &view, &sources, hops, &mut scratch).unwrap();
            }
            for target in std::iter::once(farthest).chain(unreached) {
                check_target_run(&exec, &view, &sources, target, rounds + 1).unwrap();
            }
        }
    }
}

/// The write lists at their bound: a sparse round lists at most one first
/// write per touched slot. On a path with a source at every fifth vertex,
/// round 1 is sparse and every slot it touches is a distinct first write,
/// so its list is exactly full. At n = 2 000 the round runs as one chunk;
/// at n = 25 000 its 5 000-vertex frontier reaches `PAR_THRESHOLD` and
/// splits into chunks at two or more threads, and round 2 is dense.
#[test]
fn bellman_ford_kernel_fills_the_write_list_bound() {
    for n in [2_000usize, 25_000] {
        let g = gen::path(n);
        let view = UnionView::base_only(&g);
        let sources: Vec<VId> = (0..n as VId).step_by(5).collect();
        let full = pull_reference(&view, &sources, None, n + 1);
        let rounds = full.converged_at.expect("converges");
        let (f0, t0) = full.frontiers[0];
        let (f1, t1) = full.frontiers[1];
        assert!(sparse_round(t0, &view), "n={n}");
        assert_eq!(f1 as u64, t0, "n={n}: every touched slot is a first write");
        if n == 25_000 {
            assert!(f0 >= prim::PAR_THRESHOLD && !sparse_round(t1, &view));
        } else {
            assert!(f0 < prim::PAR_THRESHOLD);
        }
        let target = (n - 1) as VId;
        let mut scratch = BfordScratch::new();
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::new(threads);
            for hops in [1, 2, rounds + 1] {
                check_full_run(&exec, &view, &sources, hops, &mut scratch).unwrap();
            }
            check_target_run(&exec, &view, &sources, target, rounds + 1).unwrap();
        }
    }
}

/// The proptest instances do mix round kinds: one run over a hub overlay
/// has both sparse and dense rounds.
#[test]
fn hub_instances_mix_sparse_and_dense_rounds() {
    let (g, extra) = hub_instance(14, 14, 2, 1, 3);
    let view = UnionView::with_extra(&g, &extra);
    let run = pull_reference(&view, &[0], None, g.num_vertices() + 1);
    let kinds: Vec<bool> = run
        .frontiers
        .iter()
        .map(|&(_, t)| sparse_round(t, &view))
        .collect();
    assert!(kinds.contains(&true) && kinds.contains(&false), "{kinds:?}");
}
