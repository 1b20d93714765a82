//! Baselines for the experiments: plain hop-limited Bellman–Ford *without*
//! a hopset (what the hopset accelerates) and convergence-round counting.
//! The exact sequential baseline is `pgraph::exact::dijkstra`.

use pgraph::{Graph, UnionView, VId, Weight};
use pram::{bford, Executor, Ledger};

/// Plain parallel Bellman–Ford on `G` alone with a hop budget, on `exec`.
/// Returns `(distances, ledger)`; distances are `d^{(hops)}_G`, *not*
/// `(1+ε)` anything — the whole point of the comparison.
pub fn plain_bellman_ford(
    exec: &Executor,
    g: &Graph,
    source: VId,
    hops: usize,
) -> (Vec<Weight>, Ledger) {
    let view = UnionView::base_only(g);
    let mut ledger = Ledger::new();
    let mut scratch = bford::BfordScratch::new();
    bford::bellman_ford_into(exec, &view, &[source], hops, &mut ledger, &mut scratch);
    (scratch.into_dist(), ledger)
}

/// Rounds a plain Bellman–Ford needs to converge to the exact distances —
/// the paper's motivation: without a hopset this is Θ(hop diameter), which
/// can be Θ(n); with a hopset it is β = polylog (E10's headline row).
/// Runs on `exec`.
pub fn bf_rounds_to_converge(exec: &Executor, g: &Graph, source: VId) -> usize {
    let view = UnionView::base_only(g);
    let mut ledger = Ledger::new();
    let (rounds_run, converged_at) = bford::bellman_ford_into(
        exec,
        &view,
        &[source],
        g.num_vertices() + 1,
        &mut ledger,
        &mut bford::BfordScratch::new(),
    );
    // `converged_at` = first round with no change; convergence was reached
    // the round before.
    converged_at.map(|c| c - 1).unwrap_or(rounds_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::gen;
    use pram::pool::threads_from_env;

    #[test]
    fn convergence_rounds_on_path() {
        // Path of n vertices: exactly n-1 rounds to converge from one end.
        let g = gen::path(40);
        let exec = Executor::new(threads_from_env());
        assert_eq!(bf_rounds_to_converge(&exec, &g, 0), 39);
        // From the middle: half.
        assert_eq!(bf_rounds_to_converge(&exec, &g, 20), 20);
    }

    #[test]
    fn plain_bf_hop_budget() {
        let g = gen::path(20);
        let exec = Executor::new(threads_from_env());
        let (d, ledger) = plain_bellman_ford(&exec, &g, 0, 5);
        assert_eq!(d[5], 5.0);
        assert_eq!(d[6], pgraph::INF);
        assert_eq!(ledger.depth(), 5);
    }
}
