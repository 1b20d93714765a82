//! Parallel multi-source hop-limited Bellman–Ford over `G ∪ H`.
//!
//! This is the final stage of Theorems 3.8/C.3: "execute a Bellman–Ford
//! exploration from a vertex v ∈ V limited to β hops … O(β·log n) time,
//! O(1) processors per vertex and edge". It is also the engine behind the
//! (1+ε)-SPT of §4 (Algorithm 1, line 3).
//!
//! Implementation notes:
//! * *frontier-driven rounds*: only a vertex whose distance changed in the
//!   previous round can offer a candidate that beats its neighbor's label
//!   (an unchanged vertex offered the same candidate last round, where it
//!   was taken or rejected). The kernel keeps those vertices as a list,
//!   the frontier `F`, and picks each round's kind from its union degree
//!   `touched = Σ_{u∈F} deg(u)`:
//!   - *sparse* (`4·touched < 2|E∪H|`): every frontier vertex pushes its
//!     improving candidates into a per-chunk buffer, and the caller folds
//!     the buffers into a per-target minimum. The round costs the
//!     frontier's slots, not `|E∪H|`;
//!   - *dense* (otherwise): every vertex pulls over all its neighbors.
//!     Each write is owned by one vertex — CREW-clean and trivially
//!     parallel;
//! * *determinism*: both kinds take the per-vertex minimum over the
//!   totally ordered key `(distance, parent id, edge layer, overlay
//!   index)`, and the set they minimize over is the same, so distances and
//!   parent trees are unique regardless of round kind or thread count
//!   (DESIGN.md §9 has the argument);
//! * *double buffering*: reads go to the previous round's array, exactly
//!   like the PRAM's odd/even read/write rounds (§1.5.1);
//! * *cost accounting*: the [`Ledger`] still charges Theorem 3.8's
//!   `2|E∪H| + n` work per round of either kind; wall time follows the
//!   slots the frontier actually touches.

use crate::pool::Executor;
use crate::{prim, Ledger};
use pgraph::{EdgeTag, UnionView, VId, Weight, INF};

/// The parent edge chosen for a vertex by the exploration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParentEdge {
    /// The neighbor the distance came from.
    pub parent: VId,
    /// Weight of the relaxed edge.
    pub weight: Weight,
    /// Which layer the edge belongs to (base graph or overlay index).
    pub tag: EdgeTag,
}

/// Result of [`bellman_ford`].
#[derive(Clone, Debug)]
pub struct BellmanFordResult {
    /// `dist[v]` = minimum weight of a path from the nearest source using at
    /// most `rounds_run` hops (`d^{(h)}` of eq. (1)).
    pub dist: Vec<Weight>,
    /// Parent edge of each vertex (`None` for sources and unreached).
    pub parent: Vec<Option<ParentEdge>>,
    /// Rounds actually executed (≤ the requested hop limit).
    pub rounds_run: usize,
    /// `Some(r)` if no distance changed in round `r` (the exploration
    /// converged to the unbounded shortest paths).
    pub converged_at: Option<usize>,
}

impl BellmanFordResult {
    /// Hop count of the tree path to `v` (follows parents). `None` if
    /// unreached.
    pub fn hops_to(&self, v: VId) -> Option<usize> {
        if self.dist[v as usize] == INF {
            return None;
        }
        let mut h = 0usize;
        let mut cur = v;
        while let Some(pe) = self.parent[cur as usize] {
            h += 1;
            cur = pe.parent;
            debug_assert!(h <= self.dist.len(), "parent cycle");
        }
        Some(h)
    }
}

/// A relaxation candidate: the distance it offers and the edge it comes
/// through. Candidates compare by [`cand_key`].
type Candidate = (Weight, ParentEdge);

/// Reusable buffers for repeated explorations over graphs of the same
/// size: the three `n`-sized arrays (distances, parents, per-round
/// updates), the frontier lists and the sparse rounds' candidate buffers
/// live here, so a serving batch pays one allocation set for the whole
/// batch instead of one per query ([`bellman_ford_into`]).
#[derive(Clone, Debug, Default)]
pub struct BfordScratch {
    dist: Vec<Weight>,
    parent: Vec<Option<ParentEdge>>,
    /// This round's best candidate per vertex; every slot is `None`
    /// between rounds.
    updates: Vec<Option<Candidate>>,
    /// The vertices written in the previous round (before round 1: the
    /// sorted, deduplicated sources).
    frontier: Vec<VId>,
    /// The vertices written in this round.
    next: Vec<VId>,
    /// One `(target, candidate)` buffer per sparse-round chunk.
    pushed: Vec<Vec<(VId, Candidate)>>,
}

impl BfordScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distance row written by the last exploration run on this
    /// scratch (`d^{(h)}` of eq. (1)).
    #[inline]
    pub fn dist(&self) -> &[Weight] {
        &self.dist
    }

    /// The parent row written by the last exploration.
    #[inline]
    pub fn parent(&self) -> &[Option<ParentEdge>] {
        &self.parent
    }

    fn reset(&mut self, n: usize, sources: &[VId]) {
        self.dist.clear();
        self.dist.resize(n, INF);
        self.parent.clear();
        self.parent.resize(n, None);
        self.updates.clear();
        self.updates.resize(n, None);
        for &s in sources {
            self.dist[s as usize] = 0.0;
        }
        self.frontier.clear();
        self.frontier.extend_from_slice(sources);
        self.frontier.sort_unstable();
        self.frontier.dedup();
    }
}

/// Result of a target-aware exploration ([`bellman_ford_to`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TargetResult {
    /// `d^{(β)}(S, target)` — bit-identical to the full run's value at the
    /// target (the settle criterion only ever stops rounds that provably
    /// cannot change it).
    pub dist: Weight,
    /// Rounds actually executed (≤ the requested hop limit).
    pub rounds_run: usize,
    /// Whether the run stopped before exhausting the hop budget (the
    /// target settled, or the whole exploration converged).
    pub settled_early: bool,
}

/// The shared round loop. With `target = Some(t)` it additionally applies
/// the serving-plane settle criterion (DESIGN.md §9): stop after round `r`
/// once `dist[t]` is finite and `min_changed_r ≥ dist[t]`, where
/// `min_changed_r` is the smallest distance written in round `r`. Safety:
/// an update can only apply through a neighbor whose distance changed in
/// the previous round (an unchanged neighbor's candidate was already
/// considered and rejected — the same fact that lets sparse rounds push
/// from the frontier alone), so every distance written after round `r` is
/// `> min_changed_r` — edge weights are strictly positive, a `pgraph`
/// construction invariant — and therefore can never undercut `dist[t]`.
/// The early answer is the full-β answer bit for bit.
///
/// Returns `(rounds_run, converged_at, settled_early)`.
fn explore(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    target: Option<VId>,
    max_hops: usize,
    ledger: &mut Ledger,
    scratch: &mut BfordScratch,
) -> (usize, Option<usize>, bool) {
    let n = view.num_vertices();
    scratch.reset(n, sources);
    if let Some(t) = target {
        // A target at distance 0 (it is a source) can never improve:
        // every candidate is a positive-weight path sum.
        if scratch.dist[t as usize] == 0.0 {
            return (0, None, true);
        }
    }
    let edge_slots = 2 * view.num_edges() as u64;
    let mut rounds_run = 0usize;
    let mut converged_at = None;
    let mut settled = false;

    for round in 1..=max_hops {
        ledger.step(edge_slots + n as u64);
        // Both round kinds read only the previous round's distances and
        // write the round's best candidates into `updates` (double
        // buffering), listing the written vertices in `next`.
        let BfordScratch {
            dist,
            parent,
            updates,
            frontier,
            next,
            pushed,
        } = scratch;
        next.clear();
        if is_sparse(view, frontier, edge_slots) {
            push_round(exec, view, dist, frontier, updates, next, pushed);
        } else {
            pull_round(exec, view, dist, updates);
            next.extend((0..n as VId).filter(|&v| updates[v as usize].is_some()));
        }
        let mut min_changed = INF;
        for &v in next.iter() {
            let (nd, pe) = updates[v as usize].take().expect("written this round");
            dist[v as usize] = nd;
            parent[v as usize] = Some(pe);
            if nd < min_changed {
                min_changed = nd;
            }
        }
        std::mem::swap(frontier, next);
        rounds_run = round;
        if frontier.is_empty() {
            converged_at = Some(round);
            break;
        }
        if let Some(t) = target {
            let dt = dist[t as usize];
            if dt.is_finite() && min_changed >= dt {
                settled = true;
                break;
            }
        }
    }
    (rounds_run, converged_at, settled)
}

/// The round-kind rule, a pure function of the data: sparse iff the
/// frontier's union degree is under a quarter of the union's slots,
/// `4·Σ_{u∈F} deg(u) < 2|E∪H|`. Stops summing once the answer is known.
fn is_sparse(view: &UnionView<'_>, frontier: &[VId], edge_slots: u64) -> bool {
    let mut touched = 0u64;
    for &u in frontier {
        touched += view.degree(u) as u64;
        if 4 * touched >= edge_slots {
            return false;
        }
    }
    4 * touched < edge_slots
}

/// Sparse round: each chunk of the frontier pushes every candidate that
/// beats its target's previous label into its own buffer; the buffers are
/// then folded, in chunk order, into a per-target minimum under
/// [`cand_key`]. A total-order minimum does not depend on the fold order,
/// so the result is the same for every chunking, i.e. at every thread
/// count. Leaves the written targets in `next` in first-write order; the
/// chunks are contiguous pieces of the frontier folded in chunk order, so
/// that order is the frontier scan's at every thread count too.
fn push_round(
    exec: &Executor,
    view: &UnionView<'_>,
    prev: &[Weight],
    frontier: &[VId],
    updates: &mut [Option<Candidate>],
    next: &mut Vec<VId>,
    pushed: &mut Vec<Vec<(VId, Candidate)>>,
) {
    let bounds = exec.round_bounds(frontier.len());
    if pushed.len() < bounds.len() {
        pushed.resize_with(bounds.len(), Vec::new);
    }
    let bufs = &mut pushed[..bounds.len()];
    // One unit range per buffer: chunk `ci` owns buffer `ci`.
    let owners: Vec<_> = (0..bounds.len()).map(|ci| ci..ci + 1).collect();
    exec.for_each_chunk_mut(bufs, &owners, |ci, buf| {
        let buf = &mut buf[0];
        buf.clear();
        for &u in &frontier[bounds[ci].clone()] {
            let du = prev[u as usize];
            view.for_each_neighbor(u, |v, w, tag| {
                let nd = du + w;
                if nd < prev[v as usize] {
                    let pe = ParentEdge {
                        parent: u,
                        weight: w,
                        tag,
                    };
                    buf.push((v, (nd, pe)));
                }
            });
        }
    });
    for buf in bufs.iter() {
        for &(v, cand) in buf {
            let slot = &mut updates[v as usize];
            *slot = Some(match *slot {
                None => {
                    next.push(v);
                    cand
                }
                Some(cur) => min_candidate(cur, cand),
            });
        }
    }
}

/// Dense round: every vertex pulls the best candidate over all its
/// neighbors (`None` where nothing beats its previous label).
fn pull_round(
    exec: &Executor,
    view: &UnionView<'_>,
    prev: &[Weight],
    updates: &mut [Option<Candidate>],
) {
    prim::par_fill(exec, updates, |v| {
        let vid = v as VId;
        let mut best: Option<Candidate> = None;
        view.for_each_neighbor(vid, |u, w, tag| {
            let du = prev[u as usize];
            if du == INF {
                return;
            }
            let nd = du + w;
            if nd >= prev[v] {
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
            best = Some(match best.take() {
                None => cand,
                Some(cur) => min_candidate(cur, cand),
            });
        });
        best
    });
}

/// Run a hop-limited multi-source Bellman–Ford exploration.
///
/// * `exec` — the pool the per-round relaxations run on;
/// * `view` — the graph `G ∪ H` (overlay = hopset);
/// * `sources` — the set `S` (Theorem 3.8's aMSSD sources);
/// * `max_hops` — the hop budget `β`;
/// * `ledger` — charged one step of `O(|E∪H| + n)` work per round.
pub fn bellman_ford(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    max_hops: usize,
    ledger: &mut Ledger,
) -> BellmanFordResult {
    let mut scratch = BfordScratch::new();
    let (rounds_run, converged_at) =
        bellman_ford_into(exec, view, sources, max_hops, ledger, &mut scratch);
    BellmanFordResult {
        dist: scratch.dist,
        parent: scratch.parent,
        rounds_run,
        converged_at,
    }
}

/// Like [`bellman_ford`], writing into caller-owned [`BfordScratch`]
/// buffers (read the row back with [`BfordScratch::dist`]). A request
/// batch reuses one scratch across all its explorations — the serving
/// path of `sssp::Oracle::distances_multi`. Returns
/// `(rounds_run, converged_at)`; results are bit-identical to
/// [`bellman_ford`].
pub fn bellman_ford_into(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    max_hops: usize,
    ledger: &mut Ledger,
    scratch: &mut BfordScratch,
) -> (usize, Option<usize>) {
    let (rounds_run, converged_at, _) =
        explore(exec, view, sources, None, max_hops, ledger, scratch);
    (rounds_run, converged_at)
}

/// Point-to-point exploration with early exit: identical rounds to
/// [`bellman_ford`], but the loop stops as soon as the target's label has
/// provably settled (the settle criterion is documented on the internal
/// `explore` loop; DESIGN.md §9 has the
/// proof sketch). The returned distance is **bit-identical** to
/// `bellman_ford(..).dist[target]` — only the number of rounds (and hence
/// the ledger's charge, which reflects work actually done) can shrink.
pub fn bellman_ford_to(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    target: VId,
    max_hops: usize,
    ledger: &mut Ledger,
) -> TargetResult {
    let mut scratch = BfordScratch::new();
    let (rounds_run, converged_at, settled) = explore(
        exec,
        view,
        sources,
        Some(target),
        max_hops,
        ledger,
        &mut scratch,
    );
    TargetResult {
        dist: scratch.dist[target as usize],
        rounds_run,
        settled_early: settled || converged_at.is_some(),
    }
}

/// Total order on relaxation candidates: distance, then parent id, then base
/// edges before overlay, then overlay index. Deterministic tie-breaking.
#[inline]
fn min_candidate(a: Candidate, b: Candidate) -> Candidate {
    let ka = cand_key(&a);
    let kb = cand_key(&b);
    if kb < ka {
        b
    } else {
        a
    }
}

#[inline]
fn cand_key(c: &Candidate) -> (u64, VId, u8, u32) {
    let (d, pe) = c;
    let (layer, idx) = match pe.tag {
        EdgeTag::Base => (0u8, 0u32),
        EdgeTag::Extra(i) => (1u8, i),
    };
    (d.to_bits(), pe.parent, layer, idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::exact;
    use pgraph::gen;
    use pgraph::Graph;

    fn exec() -> Executor {
        Executor::new(2)
    }

    #[test]
    fn hop_limit_respected() {
        // square: 0-1-2-3 light path, 0-3 heavy chord
        let g =
            Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)]).unwrap();
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r1 = bellman_ford(&exec(), &view, &[0], 1, &mut l);
        assert_eq!(r1.dist[3], 10.0);
        let r3 = bellman_ford(&exec(), &view, &[0], 3, &mut l);
        assert_eq!(r3.dist[3], 3.0);
        assert_eq!(r3.hops_to(3), Some(3));
    }

    #[test]
    fn matches_sequential_reference() {
        let g = gen::gnm_connected(100, 300, 9, 1.0, 6.0);
        let view = UnionView::base_only(&g);
        for hops in [1, 2, 5, 100] {
            let mut l = Ledger::new();
            let par = bellman_ford(&exec(), &view, &[0], hops, &mut l);
            let seq = exact::bellman_ford_hops(&view, &[0], hops);
            assert_eq!(par.dist, seq, "hops={hops}");
        }
    }

    #[test]
    fn multi_source() {
        let g = gen::path(9);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0, 8], 10, &mut l);
        assert_eq!(r.dist[4], 4.0);
        assert_eq!(r.dist[6], 2.0);
    }

    #[test]
    fn convergence_detection() {
        let g = gen::path(5);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 100, &mut l);
        // path of 4 edges converges after round 5 sees no change
        assert_eq!(r.converged_at, Some(5));
        assert_eq!(r.rounds_run, 5);
    }

    #[test]
    fn overlay_edges_take_part_and_are_tagged() {
        let g = gen::path(5); // 0-1-2-3-4
        let extra = vec![(0u32, 4u32, 1.5)];
        let view = UnionView::with_extra(&g, &extra);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 2, &mut l);
        assert_eq!(r.dist[4], 1.5);
        let pe = r.parent[4].unwrap();
        assert_eq!(pe.tag, EdgeTag::Extra(0));
        assert_eq!(pe.parent, 0);
    }

    #[test]
    fn parent_tree_is_consistent() {
        let g = gen::gnm_connected(80, 240, 4, 1.0, 4.0);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[7], 80, &mut l);
        for v in 0..80u32 {
            if v == 7 {
                assert!(r.parent[v as usize].is_none());
                continue;
            }
            let pe = r.parent[v as usize].expect("connected");
            // dist[v] == dist[parent] + w  (tree realizes the distances)
            let expect = r.dist[pe.parent as usize] + pe.weight;
            assert!((r.dist[v as usize] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn ledger_charges_per_round() {
        let g = gen::path(4);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 2, &mut l);
        assert_eq!(r.rounds_run, 2);
        assert_eq!(l.depth(), 2);
        assert_eq!(l.work(), 2 * (2 * 3 + 4));
    }

    #[test]
    fn unreachable_stays_infinite() {
        let g = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap();
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford(&exec(), &view, &[0], 10, &mut l);
        assert_eq!(r.dist[2], INF);
        assert_eq!(r.hops_to(2), None);
    }

    /// The settle criterion: early-exit p2p answers are bit-identical to
    /// the full run's target entry, across graphs, sources, targets and
    /// hop budgets.
    #[test]
    fn target_early_exit_bit_identical_to_full_run() {
        for seed in [3u64, 9, 21] {
            let g = gen::gnm_connected(90, 270, seed, 1.0, 8.0);
            let view = UnionView::base_only(&g);
            for hops in [1usize, 3, 8, 90] {
                let mut lf = Ledger::new();
                let full = bellman_ford(&exec(), &view, &[5], hops, &mut lf);
                for target in [0u32, 5, 44, 89] {
                    let mut lt = Ledger::new();
                    let p2p = bellman_ford_to(&exec(), &view, &[5], target, hops, &mut lt);
                    assert_eq!(
                        p2p.dist.to_bits(),
                        full.dist[target as usize].to_bits(),
                        "seed={seed} hops={hops} target={target}"
                    );
                    assert!(p2p.rounds_run <= full.rounds_run);
                }
            }
        }
    }

    /// A nearby target settles long before the hop budget runs out.
    #[test]
    fn target_early_exit_actually_cuts_rounds() {
        let g = gen::path(64); // 0-1-...-63
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford_to(&exec(), &view, &[0], 3, 64, &mut l);
        assert_eq!(r.dist, 3.0);
        assert!(r.settled_early);
        // Settling needs the frontier to pass the target: a handful of
        // rounds, not 64.
        assert!(r.rounds_run < 10, "rounds_run={}", r.rounds_run);
        // The ledger reflects the rounds actually run.
        assert_eq!(l.depth(), r.rounds_run as u64);
    }

    /// target ∈ sources: label 0.0 is final before any round runs.
    #[test]
    fn target_is_source_settles_at_round_zero() {
        let g = gen::path(8);
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford_to(&exec(), &view, &[2], 2, 8, &mut l);
        assert_eq!(r.dist.to_bits(), 0.0f64.to_bits());
        assert_eq!(r.rounds_run, 0);
        assert!(r.settled_early);
        assert_eq!(l.depth(), 0);
    }

    /// An unreachable target never settles early (short of convergence)
    /// and reports INF, like the full run.
    #[test]
    fn unreachable_target_matches_full_run() {
        let g = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap();
        let view = UnionView::base_only(&g);
        let mut l = Ledger::new();
        let r = bellman_ford_to(&exec(), &view, &[0], 3, 10, &mut l);
        assert_eq!(r.dist, INF);
        assert!(r.settled_early); // via whole-exploration convergence
    }

    /// Scratch reuse: back-to-back explorations through one scratch give
    /// the same bits as fresh runs (no state leaks between requests).
    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let g = gen::gnm_connected(70, 210, 13, 1.0, 6.0);
        let view = UnionView::base_only(&g);
        let mut scratch = BfordScratch::new();
        for src in [0u32, 33, 69, 7] {
            let mut l1 = Ledger::new();
            let (rounds, conv) =
                bellman_ford_into(&exec(), &view, &[src], 70, &mut l1, &mut scratch);
            let mut l2 = Ledger::new();
            let fresh = bellman_ford(&exec(), &view, &[src], 70, &mut l2);
            assert_eq!(rounds, fresh.rounds_run, "src={src}");
            assert_eq!(conv, fresh.converged_at);
            for (a, b) in scratch.dist().iter().zip(&fresh.dist) {
                assert_eq!(a.to_bits(), b.to_bits(), "src={src}");
            }
            assert_eq!(scratch.parent(), &fresh.parent[..]);
            assert_eq!(l1, l2);
        }
    }
}
