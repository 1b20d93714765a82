//! Pointer jumping \[SV82\].
//!
//! §4.2 of the paper uses pointer jumping to turn per-edge parent weights
//! into exact root distances in `⌈log2 n⌉` rounds: every vertex `v` keeps a
//! pointer `q(v)` (initially its parent) and a partial distance `d'(v)`
//! (initially the parent-edge weight) and repeatedly performs
//! `d'(v) += d'(q(v)); q(v) = q(q(v))`. Appendix C.4 reuses the same device
//! to locate node centers in the laminar "nodes forest".

use crate::pool::Executor;
use crate::{prim, Ledger};
use pgraph::{VId, Weight};

/// Given a rooted forest as parent pointers (`parent[r] == r` for roots) and
/// the weight of each vertex's parent edge (`0.0` for roots), return
/// `(dist, root)` where `dist[v]` is the exact path weight from `v` to its
/// root and `root[v]` is that root. Lemma 4.3 is the correctness statement.
///
/// Runs `⌈log2 n⌉` synchronous rounds, each charged as one PRAM step of `n`
/// work. Panics (debug) if `parent` contains a cycle other than self loops
/// at roots — callers establish acyclicity (Lemma 4.1).
pub fn pointer_jump_distances(
    exec: &Executor,
    parent: &[VId],
    edge_weight: &[Weight],
    ledger: &mut Ledger,
) -> (Vec<Weight>, Vec<VId>) {
    let n = parent.len();
    assert_eq!(n, edge_weight.len());
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut q: Vec<VId> = parent.to_vec();
    let mut d: Vec<Weight> = edge_weight.to_vec();
    let rounds = pgraph::ceil_log2(n.max(2)) as usize + 1;
    for _ in 0..rounds {
        ledger.step(n as u64);
        // Double-buffered: reads see the previous round only (CREW style).
        let nd: Vec<Weight> = prim::par_map_range(exec, n, |v| d[v] + d[q[v] as usize]);
        let nq: Vec<VId> = prim::par_map_range(exec, n, |v| q[q[v] as usize]);
        d = nd;
        q = nq;
    }
    debug_assert!(
        (0..n).all(|v| q[q[v] as usize] == q[v]),
        "pointer jumping did not converge: parent array is not a forest"
    );
    (d, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> Executor {
        Executor::new(2)
    }

    #[test]
    fn single_path() {
        // 0 <- 1 <- 2 <- 3 with weights 1, 2, 3.
        let parent = vec![0, 0, 1, 2];
        let w = vec![0.0, 1.0, 2.0, 3.0];
        let mut l = Ledger::new();
        let (d, r) = pointer_jump_distances(&exec(), &parent, &w, &mut l);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 6.0]);
        assert_eq!(r, vec![0, 0, 0, 0]);
        assert_eq!(l.depth() as usize, pgraph::ceil_log2(4) as usize + 1);
    }

    #[test]
    fn forest_with_two_trees() {
        // tree A: 0 <- 1, 0 <- 2 ; tree B: 3 <- 4 <- 5
        let parent = vec![0, 0, 0, 3, 3, 4];
        let w = vec![0.0, 2.0, 5.0, 0.0, 1.0, 1.5];
        let mut l = Ledger::new();
        let (d, r) = pointer_jump_distances(&exec(), &parent, &w, &mut l);
        assert_eq!(d, vec![0.0, 2.0, 5.0, 0.0, 1.0, 2.5]);
        assert_eq!(r, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn long_chain_converges() {
        let n = 1000;
        let parent: Vec<VId> = (0..n)
            .map(|v| if v == 0 { 0 } else { v as VId - 1 })
            .collect();
        let w: Vec<Weight> = (0..n).map(|v| if v == 0 { 0.0 } else { 1.0 }).collect();
        let mut l = Ledger::new();
        let (d, r) = pointer_jump_distances(&exec(), &parent, &w, &mut l);
        for v in 0..n {
            assert_eq!(d[v], v as f64);
            assert_eq!(r[v], 0);
        }
    }

    #[test]
    fn roots_only() {
        let parent = vec![0, 0, 1, 2, 4, 4];
        let mut l = Ledger::new();
        let (_, r) = pointer_jump_distances(&exec(), &parent, &[0.0; 6], &mut l);
        assert_eq!(r, vec![0, 0, 0, 0, 4, 4]);
    }

    #[test]
    fn empty_input() {
        let mut l = Ledger::new();
        let (d, r) = pointer_jump_distances(&exec(), &[], &[], &mut l);
        assert!(d.is_empty() && r.is_empty());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // A chain above PAR_THRESHOLD so the jump rounds run chunked.
        let n = 6000usize;
        let parent: Vec<VId> = (0..n)
            .map(|v| if v == 0 { 0 } else { v as VId - 1 })
            .collect();
        let w: Vec<Weight> = (0..n).map(|v| if v == 0 { 0.0 } else { 0.5 }).collect();
        let mut l1 = Ledger::new();
        let (bd, br) = pointer_jump_distances(&Executor::sequential(), &parent, &w, &mut l1);
        for threads in [2usize, 4, 8] {
            let mut l = Ledger::new();
            let (d, r) = pointer_jump_distances(&Executor::new(threads), &parent, &w, &mut l);
            assert_eq!(r, br, "threads={threads}");
            for (x, y) in d.iter().zip(&bd) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
            assert_eq!(l, l1);
        }
    }
}
