//! Δ-stepping \[Meyer–Sanders 2003\]: the classical *practical* parallel
//! SSSP baseline, added to ground experiment E10 with a real parallel
//! competitor (the paper's related work positions PRAM SSSP against
//! exactly this family of label-correcting algorithms: fast in practice,
//! but with Θ(diameter/Δ) depth on adversarial inputs, which is what the
//! polylog-depth hopset approach eliminates).
//!
//! Implementation: bucketed label-correcting. Edges lighter than Δ
//! ("light") are relaxed iteratively inside a bucket until it settles;
//! heavier ones once when the bucket settles. Relaxation batches run in
//! parallel (deterministic: each round computes per-vertex minima with the
//! usual total order, double-buffered).

use pgraph::{Graph, VId, Weight, INF};
use pram::{prim, Executor, Ledger};

/// Result of a Δ-stepping run.
#[derive(Clone, Debug)]
pub struct DeltaSteppingResult {
    /// Exact distances from the source.
    pub dist: Vec<Weight>,
    /// Buckets processed.
    pub buckets: usize,
    /// Total inner (light-edge) iterations.
    pub light_rounds: usize,
    /// PRAM-style counted cost.
    pub ledger: Ledger,
}

/// Run Δ-stepping from `source` with bucket width `delta` on `exec` (what
/// [`crate::DeltaSteppingOracle`] owns): every relaxation batch is one
/// parallel round on `exec`.
///
/// Returns **exact** distances (it is a label-correcting method); its role
/// here is as a *depth* baseline: `buckets × light_rounds` is the round
/// count a synchronous parallel machine would pay.
pub fn delta_stepping_on(
    exec: &Executor,
    g: &Graph,
    source: VId,
    delta: Weight,
) -> DeltaSteppingResult {
    run(exec, g, source, None, delta).0
}

/// Result of a target-aware Δ-stepping run ([`delta_stepping_to_on`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaSteppingTargetResult {
    /// Exact distance `source → target`, bit-identical to the full run's
    /// `dist[target]`.
    pub dist: Weight,
    /// Buckets actually processed (≤ the full run's count).
    pub buckets: usize,
    /// Whether the settled-bucket criterion stopped the run before all
    /// buckets drained.
    pub settled_early: bool,
}

/// Point-to-point Δ-stepping with early exit on the settled-bucket
/// invariant: when the next bucket to process is `b`, every tentative
/// distance in a bucket `< b` is final — all later relaxations originate
/// from labels `≥ b·Δ` plus a strictly positive weight, so they write only
/// values `> b·Δ`. The moment the target's tentative label falls in a
/// bucket below `b` the run stops; updates apply only on strict
/// improvement, so the full run never rewrites that label and the early
/// answer is bit-identical (the pop-`v` termination of DESIGN.md §9, in
/// bucket form).
pub fn delta_stepping_to_on(
    exec: &Executor,
    g: &Graph,
    source: VId,
    target: VId,
    delta: Weight,
) -> DeltaSteppingTargetResult {
    let (r, settled_early) = run(exec, g, source, Some(target), delta);
    DeltaSteppingTargetResult {
        dist: r.dist[target as usize],
        buckets: r.buckets,
        settled_early,
    }
}

/// The shared bucket loop; with `target = Some(t)` it stops (returning
/// `true` in the second slot) once `t`'s label is provably final.
fn run(
    exec: &Executor,
    g: &Graph,
    source: VId,
    target: Option<VId>,
    delta: Weight,
) -> (DeltaSteppingResult, bool) {
    assert!(delta > 0.0 && delta.is_finite());
    let n = g.num_vertices();
    let mut ledger = Ledger::new();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0.0;

    let bucket_of = |d: Weight| -> usize { (d / delta) as usize };
    let mut current_bucket = 0usize;
    let mut buckets = 0usize;
    let mut light_rounds = 0usize;
    let mut settled_early = false;

    loop {
        // Find the next non-empty bucket.
        let next = dist
            .iter()
            .filter(|d| d.is_finite())
            .map(|&d| bucket_of(d))
            .filter(|&b| b >= current_bucket)
            .min();
        let Some(b) = next else { break };
        // Settled-bucket early exit: the target's label sits strictly
        // below the bucket about to be processed — it is final.
        if let Some(t) = target {
            let dt = dist[t as usize];
            if dt.is_finite() && bucket_of(dt) < b {
                settled_early = true;
                break;
            }
        }
        buckets += 1;

        // Settle the bucket with light-edge rounds.
        loop {
            light_rounds += 1;
            ledger.step(2 * g.num_edges() as u64 + n as u64);
            let prev = &dist;
            let updates: Vec<Option<Weight>> = prim::par_map_range(exec, n, |v| {
                let mut best = prev[v];
                for (u, w) in g.neighbors(v as VId) {
                    if w >= delta {
                        continue; // heavy edges wait for settlement
                    }
                    let du = prev[u as usize];
                    if du.is_finite() && bucket_of(du) == b {
                        let nd = du + w;
                        if nd < best {
                            best = nd;
                        }
                    }
                }
                (best < prev[v]).then_some(best)
            });
            let mut changed = false;
            for (v, u) in updates.into_iter().enumerate() {
                if let Some(nd) = u {
                    dist[v] = nd;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Relax heavy edges out of the settled bucket, once.
        ledger.step(2 * g.num_edges() as u64 + n as u64);
        let prev = &dist;
        let updates: Vec<Option<Weight>> = prim::par_map_range(exec, n, |v| {
            let mut best = prev[v];
            for (u, w) in g.neighbors(v as VId) {
                if w < delta {
                    continue;
                }
                let du = prev[u as usize];
                if du.is_finite() && bucket_of(du) == b {
                    let nd = du + w;
                    if nd < best {
                        best = nd;
                    }
                }
            }
            (best < prev[v]).then_some(best)
        });
        for (v, u) in updates.into_iter().enumerate() {
            if let Some(nd) = u {
                dist[v] = nd;
            }
        }

        current_bucket = b + 1;
    }

    (
        DeltaSteppingResult {
            dist,
            buckets,
            light_rounds,
            ledger,
        },
        settled_early,
    )
}

/// A standard width heuristic: Δ = max weight / average degree, clamped to
/// the weight range.
pub fn default_delta(g: &Graph) -> Weight {
    let m = g.num_edges().max(1) as f64;
    let n = g.num_vertices().max(1) as f64;
    let avg_deg = (2.0 * m / n).max(1.0);
    let max_w = g.max_weight().unwrap_or(1.0);
    (max_w / avg_deg).max(g.min_weight().unwrap_or(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::exact::dijkstra;
    use pgraph::gen;
    use pram::pool::threads_from_env;

    fn exec() -> Executor {
        Executor::new(threads_from_env())
    }

    fn assert_matches_dijkstra(g: &Graph, delta: Weight) {
        let r = delta_stepping_on(&exec(), g, 0, delta);
        let ex = dijkstra(g, 0).dist;
        #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
        for v in 0..g.num_vertices() {
            assert!(
                (r.dist[v] - ex[v]).abs() < 1e-9 || (r.dist[v] == INF && ex[v] == INF),
                "v={v}: {} vs {}",
                r.dist[v],
                ex[v]
            );
        }
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let g = gen::gnm_connected(80, 240, seed, 1.0, 9.0);
            for delta in [0.5, 2.0, 10.0] {
                assert_matches_dijkstra(&g, delta);
            }
        }
    }

    #[test]
    fn exact_on_path_and_grid() {
        assert_matches_dijkstra(&gen::path(60), 1.0);
        assert_matches_dijkstra(&gen::unit_grid(8, 12), 3.0);
        assert_matches_dijkstra(
            &gen::road_grid(8, 8, 3, 1.0, 7.0),
            default_delta(&gen::road_grid(8, 8, 3, 1.0, 7.0)),
        );
    }

    #[test]
    fn bucket_count_tracks_distance_range() {
        let g = gen::path(100); // diameter 99
        let r = delta_stepping_on(&exec(), &g, 0, 10.0);
        assert!(r.buckets >= 10, "99/10 buckets at least");
        assert!(r.buckets <= 11);
    }

    #[test]
    fn disconnected_stays_infinite() {
        let g = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap();
        let r = delta_stepping_on(&exec(), &g, 0, 1.0);
        assert_eq!(r.dist[2], INF);
        assert_eq!(r.dist[3], INF);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Above PAR_THRESHOLD vertices: the relaxation rounds run chunked
        // on the pool and must stay bit-identical.
        let g = gen::gnm_connected(5000, 10_000, 11, 1.0, 9.0);
        let base = delta_stepping_on(&Executor::sequential(), &g, 0, 2.0);
        for threads in [2usize, 4, 8] {
            let r = delta_stepping_on(&Executor::new(threads), &g, 0, 2.0);
            assert_eq!(r.buckets, base.buckets, "threads={threads}");
            assert_eq!(r.light_rounds, base.light_rounds);
            assert_eq!(r.ledger, base.ledger);
            for (x, y) in r.dist.iter().zip(&base.dist) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
    }

    /// Settled-bucket early exit: bit-identical to the full run's target
    /// entry, on every graph/Δ/target combination tried.
    #[test]
    fn target_early_exit_bit_identical_to_full_run() {
        let exec = Executor::new(2);
        for seed in [1u64, 7] {
            let g = gen::gnm_connected(90, 270, seed, 1.0, 9.0);
            for delta in [0.5, 2.0, 10.0] {
                let full = delta_stepping_on(&exec, &g, 0, delta);
                for target in [0u32, 3, 45, 89] {
                    let r = delta_stepping_to_on(&exec, &g, 0, target, delta);
                    assert_eq!(
                        r.dist.to_bits(),
                        full.dist[target as usize].to_bits(),
                        "seed={seed} delta={delta} target={target}"
                    );
                    assert!(r.buckets <= full.buckets);
                }
            }
        }
    }

    /// A nearby target on a long path stops after a few buckets, not
    /// diameter/Δ of them.
    #[test]
    fn target_early_exit_cuts_buckets_on_a_path() {
        let exec = Executor::new(2);
        let g = gen::path(512);
        let full = delta_stepping_on(&exec, &g, 0, 1.0);
        let r = delta_stepping_to_on(&exec, &g, 0, 4, 1.0);
        assert_eq!(r.dist, 4.0);
        assert!(r.settled_early);
        assert!(
            r.buckets * 8 < full.buckets,
            "{} vs {}",
            r.buckets,
            full.buckets
        );
        // Unreachable target: no early settle, INF answer.
        let g2 = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap();
        let r2 = delta_stepping_to_on(&exec, &g2, 0, 3, 1.0);
        assert_eq!(r2.dist, INF);
        assert!(!r2.settled_early);
    }

    #[test]
    fn depth_grows_with_diameter_unlike_hopset_queries() {
        // The point of E10: Δ-stepping's round count is Θ(diameter/Δ) on a
        // path, while the hopset query is a fixed β rounds.
        let short = delta_stepping_on(&exec(), &gen::path(64), 0, 1.0);
        let long = delta_stepping_on(&exec(), &gen::path(512), 0, 1.0);
        assert!(long.ledger.depth() > 4 * short.ledger.depth());
    }
}
