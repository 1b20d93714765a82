//! Parallel multi-source hop-limited Bellman–Ford over `G ∪ H`.
//!
//! This is the final stage of Theorems 3.8/C.3: "execute a Bellman–Ford
//! exploration from a vertex v ∈ V limited to β hops … O(β·log n) time,
//! O(1) processors per vertex and edge". It is also the engine behind the
//! (1+ε)-SPT of §4 (Algorithm 1, line 3).
//!
//! Implementation notes:
//! * *one round loop, two candidates*: a round minimizes, per vertex,
//!   either the distance alone ([`bellman_ford_into`],
//!   [`bellman_ford_to`]: every distance query) or the distance together
//!   with the edge it came through ([`bellman_ford`]: Theorem 4.6's parent
//!   edge, which only the SPT of §4 reads). A round's minimum distance
//!   does not depend on how equal distances break ties, so distances,
//!   frontiers (content and order), round counts and ledgers are the same
//!   in both;
//! * *one slot fold per candidate*: every write of a round into the
//!   per-vertex update slots goes through the candidate's fold-min. A
//!   distance folds without a data-dependent branch: an offer that does
//!   not beat the previous label becomes `INF`, and the slot takes the
//!   minimum. A push also writes the target to the round's write list
//!   every time but counts it only on the slot's first write; the list is
//!   sized once per round to the most first writes the round can make.
//!   The parent-carrying fold keeps its branches, which cost less than a
//!   select of its 32-byte candidate;
//! * *frontier-driven rounds*: only a vertex whose distance changed in the
//!   previous round can offer a candidate that beats its neighbor's label
//!   (an unchanged vertex offered the same candidate last round, where it
//!   was taken or rejected). The kernel keeps those vertices as a list,
//!   the frontier `F`, and picks each round's kind from its union degree
//!   `touched = Σ_{u∈F} deg(u)`:
//!   - *sparse* (`4·touched < 2|E∪H|`): every frontier vertex offers a
//!     candidate over each of its slots, kept iff it improves the target.
//!     A one-chunk round folds them straight into the per-vertex update
//!     slots, with at most one first write per touched slot; a chunked
//!     round appends the kept offers to one buffer per chunk, sized to the
//!     chunk's slots, and the caller folds the buffers in chunk order. The
//!     round costs the frontier's slots, not `|E∪H|`;
//!   - *dense* (otherwise): the round streams the adjacency slots of the
//!     vertex range in CSR order ([`UnionView::for_each_slot`]), and each
//!     slot's offer, kept iff it beats the owner's previous label, folds
//!     straight into the owner's update slot — one flat pass with no
//!     per-vertex loop. Each chunk of the vertex range folds only into its
//!     own update slots and then lists the vertices it wrote, in vertex
//!     order: exclusive writes, CREW-clean and trivially parallel;
//! * *target-bounded frontiers*: a point-to-point run ([`bellman_ford_to`])
//!   needs only the target's label, so once that label is finite the next
//!   frontier keeps only the round's writes below it. Every label below
//!   the target's, the target's own label, the round count and the ledger
//!   are the unbounded run's (DESIGN.md §9); only the slots later rounds
//!   read shrink. Rows, batches and trees run unbounded;
//! * *determinism*: both kinds take the per-vertex minimum over a total
//!   order (the distance, or with parents the key `(distance, parent id,
//!   edge layer, overlay index)`), and the set they minimize over is the
//!   same, so distances and parent trees are unique regardless of round
//!   kind or thread count (DESIGN.md §9 has the argument);
//! * *double buffering*: reads go to the previous round's array, exactly
//!   like the PRAM's odd/even read/write rounds (§1.5.1);
//! * *cost accounting*: the [`Ledger`] still charges Theorem 3.8's
//!   `2|E∪H| + n` work per round of either kind; wall time follows the
//!   slots the frontier actually touches.

use crate::pool::Executor;
use crate::Ledger;
use pgraph::{EdgeTag, UnionView, VId, Weight, INF};
use std::ops::Range;

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

/// What a round minimizes per vertex: the distance alone (`Weight`), or
/// the distance with the edge it came through (`(Weight, ParentEdge)`,
/// ordered by [`cand_key`]). The candidate also supplies the one slot fold
/// every round kind uses ([`Candidate::fold`]).
trait Candidate: Copy + Send + Sync {
    /// The least candidate at distance `d`: a candidate beats it iff its
    /// distance is below `d`. `at(INF)` marks an unwritten update slot;
    /// a real candidate is strictly below its target's previous label,
    /// hence finite.
    fn at(d: Weight) -> Self;
    /// The candidate offering `dist` through the edge from `parent` of
    /// weight `weight` in layer `tag`.
    fn new(dist: Weight, parent: VId, weight: Weight, tag: EdgeTag) -> Self;
    /// The distance this candidate offers.
    fn dist(self) -> Weight;
    /// Strictly smaller than `other` in the candidate order.
    fn beats(self, other: Self) -> bool;
    /// Folds the offer `c` into `slot` if `keep` (`c` beats the slot
    /// owner's previous label): the slot takes the minimum.
    fn fold_min(slot: &mut Self, c: Self, keep: bool);
    /// [`Candidate::fold_min`] into `v`'s update slot, appending `v` to
    /// `next` at `*len` on the slot's first write of the round. `next` has
    /// room for one entry per offer. Both folds take the same minimum and
    /// list first writes in offer order.
    fn fold(updates: &mut [Self], next: &mut [VId], len: &mut usize, v: VId, c: Self, keep: bool);
}

impl Candidate for Weight {
    #[inline]
    fn at(d: Weight) -> Self {
        d
    }

    #[inline]
    fn new(dist: Weight, _: VId, _: Weight, _: EdgeTag) -> Self {
        dist
    }

    #[inline]
    fn dist(self) -> Weight {
        self
    }

    #[inline]
    fn beats(self, other: Self) -> bool {
        self < other
    }

    /// Branch-free: an offer that is not kept becomes `INF`, and the slot
    /// takes the minimum.
    #[inline]
    fn fold_min(slot: &mut Self, c: Self, keep: bool) {
        let cand = if keep { c } else { INF };
        let old = *slot;
        *slot = if cand < old { cand } else { old };
    }

    /// Branch-free, like [`Candidate::fold_min`]; `v` is written at the
    /// end of the list every time but counted only on a first write.
    #[inline]
    fn fold(updates: &mut [Self], next: &mut [VId], len: &mut usize, v: VId, c: Self, keep: bool) {
        let cand = if keep { c } else { INF };
        let slot = &mut updates[v as usize];
        let old = *slot;
        *slot = if cand < old { cand } else { old };
        append(next, len, v, (old == INF) & (cand != INF));
    }
}

impl Candidate for (Weight, ParentEdge) {
    #[inline]
    fn at(d: Weight) -> Self {
        Self::new(d, 0, INF, EdgeTag::Base)
    }

    #[inline]
    fn new(dist: Weight, parent: VId, weight: Weight, tag: EdgeTag) -> Self {
        (
            dist,
            ParentEdge {
                parent,
                weight,
                tag,
            },
        )
    }

    #[inline]
    fn dist(self) -> Weight {
        self.0
    }

    #[inline]
    fn beats(self, other: Self) -> bool {
        cand_key(&self) < cand_key(&other)
    }

    /// Branching: a select of the 32-byte candidate costs more than the
    /// mispredictions it would save (DESIGN.md §9).
    #[inline]
    fn fold_min(slot: &mut Self, c: Self, keep: bool) {
        if keep && c.beats(*slot) {
            *slot = c;
        }
    }

    /// Branching, like [`Candidate::fold_min`].
    #[inline]
    fn fold(updates: &mut [Self], next: &mut [VId], len: &mut usize, v: VId, c: Self, keep: bool) {
        if !keep {
            return;
        }
        let slot = &mut updates[v as usize];
        if slot.0 == INF {
            append(next, len, v, true);
            *slot = c;
        } else if c.beats(*slot) {
            *slot = c;
        }
    }
}

/// Writes `x` at `buf[*len]` and keeps it iff `keep`: a branch-free append
/// into a buffer sized for every offer.
#[inline]
fn append<T>(buf: &mut [T], len: &mut usize, x: T, keep: bool) {
    buf[*len] = x;
    *len += keep as usize;
}

/// Sizes `buf` to `room` entries (`blank` fills any growth), lets `fill`
/// append to it ([`append`]), and keeps the `len` entries it appended.
fn append_into<T: Clone>(
    buf: &mut Vec<T>,
    room: usize,
    blank: T,
    fill: impl FnOnce(&mut [T], &mut usize),
) {
    buf.resize(room, blank);
    let mut len = 0;
    fill(buf, &mut len);
    buf.truncate(len);
}

/// One exploration's buffers for candidate type `C`: the distance row, the
/// per-round update slots, the frontier lists and the chunked pushes'
/// candidate buffers.
#[derive(Clone, Debug)]
struct Rounds<C> {
    dist: Vec<Weight>,
    /// This round's best candidate per vertex; every slot is `at(INF)`
    /// between rounds.
    updates: Vec<C>,
    /// The vertices written in the previous round (before round 1: the
    /// sorted, deduplicated sources).
    frontier: Vec<VId>,
    /// The vertices written in this round.
    next: Vec<VId>,
    /// One `(target, candidate)` buffer per chunk of a chunked push.
    pushed: Vec<Vec<(VId, C)>>,
}

impl<C> Default for Rounds<C> {
    fn default() -> Self {
        Rounds {
            dist: Vec::new(),
            updates: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            pushed: Vec::new(),
        }
    }
}

impl<C: Candidate> Rounds<C> {
    fn reset(&mut self, n: usize, sources: &[VId]) {
        self.dist.clear();
        self.dist.resize(n, INF);
        self.updates.clear();
        self.updates.resize(n, C::at(INF));
        for &s in sources {
            self.dist[s as usize] = 0.0;
        }
        self.frontier.clear();
        self.frontier.extend_from_slice(sources);
        self.frontier.sort_unstable();
        self.frontier.dedup();
    }
}

/// Reusable buffers for repeated distance-only explorations over graphs of
/// the same size: the two `n`-sized arrays (distances and per-round
/// updates), the frontier lists and the chunked pushes' candidate buffers
/// live here, so a serving batch pays one allocation set for the whole
/// batch instead of one per query ([`bellman_ford_into`]).
#[derive(Clone, Debug, Default)]
pub struct BfordScratch(Rounds<Weight>);

impl BfordScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distance row written by the last exploration run on this
    /// scratch (`d^{(h)}` of eq. (1)).
    #[inline]
    pub fn dist(&self) -> &[Weight] {
        &self.0.dist
    }

    /// The distance row written by the last exploration, moved out.
    pub fn into_dist(self) -> Vec<Weight> {
        self.0.dist
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

/// The shared round loop, generic over what a round minimizes; `record`
/// sees every vertex written in a round with its winning candidate. With
/// `target = Some(t)` it additionally applies
/// the serving-plane settle criterion (DESIGN.md §9): stop after round `r`
/// once `dist[t]` is finite and `min_changed_r ≥ dist[t]`, where
/// `min_changed_r` is the smallest distance written in round `r`. Safety:
/// an update can only apply through a neighbor whose distance changed in
/// the previous round (an unchanged neighbor's candidate was already
/// considered and rejected — the same fact that lets sparse rounds push
/// from the frontier alone), so every distance written after round `r` is
/// `> min_changed_r` — edge weights are strictly positive, a `pgraph`
/// construction invariant — and therefore can never undercut `dist[t]`.
/// Until it settles, a targeted run also keeps only the round's writes
/// below `dist[t]` as the next frontier: a label reached through a vertex
/// at or above the target's label is at or above it too, so the writes
/// below it, the target's label and the round count are the unbounded
/// run's. The early answer is the full-β answer bit for bit.
///
/// Returns `(rounds_run, converged_at, settled_early)`.
#[allow(clippy::too_many_arguments)]
fn explore<C: Candidate>(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    target: Option<VId>,
    max_hops: usize,
    ledger: &mut Ledger,
    rounds: &mut Rounds<C>,
    mut record: impl FnMut(VId, C),
) -> (usize, Option<usize>, bool) {
    let n = view.num_vertices();
    rounds.reset(n, sources);
    if let Some(t) = target {
        // A target at distance 0 (it is a source) can never improve:
        // every candidate is a positive-weight path sum.
        if rounds.dist[t as usize] == 0.0 {
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
        let Rounds {
            dist,
            updates,
            frontier,
            next,
            pushed,
        } = rounds;
        match sparse_slots(view, frontier, edge_slots) {
            Some(touched) => push_round(exec, view, dist, frontier, touched, updates, next, pushed),
            None => pull_round(exec, view, dist, updates, next),
        }
        let mut min_changed = INF;
        for &v in next.iter() {
            let c = std::mem::replace(&mut updates[v as usize], C::at(INF));
            let nd = c.dist();
            dist[v as usize] = nd;
            record(v, c);
            if nd < min_changed {
                min_changed = nd;
            }
        }
        if let Some(t) = target {
            // Target-bounded frontier: a write that is not below the
            // target's label cannot lead to one that is (DESIGN.md §9). A
            // round that does not settle keeps its smallest write.
            let dt = dist[t as usize];
            if dt.is_finite() && min_changed < dt {
                next.retain(|&v| dist[v as usize] < dt);
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

/// The round-kind rule, a pure function of the data: a round is sparse iff
/// the frontier's union degree is under a quarter of the union's slots,
/// `4·touched < 2|E∪H|` with `touched = Σ_{u∈F} deg(u)`. Returns `touched`
/// for a sparse round and `None` for a dense one; stops summing once the
/// round is known to be dense.
fn sparse_slots(view: &UnionView<'_>, frontier: &[VId], edge_slots: u64) -> Option<usize> {
    let mut touched = 0u64;
    for &u in frontier {
        touched += view.degree(u) as u64;
        if 4 * touched >= edge_slots {
            return None;
        }
    }
    (4 * touched < edge_slots).then_some(touched as usize)
}

/// Sparse round: every frontier vertex offers a candidate to each of its
/// `touched` neighbor slots, kept iff it beats the target's previous
/// label. A frontier below the parallel threshold folds them straight
/// into `updates`, listing at most one first write per touched slot; a
/// larger one is cut into chunks ([`in_chunks`]), each sized to its own
/// slots. Either way `next` lists the written targets in the order of the
/// frontier scan, at every thread count.
#[allow(clippy::too_many_arguments)]
fn push_round<C: Candidate>(
    exec: &Executor,
    view: &UnionView<'_>,
    prev: &[Weight],
    frontier: &[VId],
    touched: usize,
    updates: &mut [C],
    next: &mut Vec<VId>,
    pushed: &mut Vec<Vec<(VId, C)>>,
) {
    if !exec.parallel_eligible(frontier.len()) {
        append_into(next, touched, 0, |next, len| {
            for &u in frontier {
                push_from(view, prev, u, |v, c, keep| {
                    C::fold(updates, next, len, v, c, keep)
                });
            }
        });
        return;
    }
    let bounds = exec.chunk_bounds(frontier.len());
    in_chunks(exec, &bounds, pushed, updates, next, |r, buf| {
        let slots = frontier[r.clone()].iter().map(|&u| view.degree(u)).sum();
        append_into(buf, slots, (0, C::at(INF)), |buf, len| {
            for &u in &frontier[r] {
                push_from(view, prev, u, |v, c, keep| append(buf, len, (v, c), keep));
            }
        });
    });
}

/// Dense round: streams the adjacency slots of the whole vertex range in
/// CSR order ([`UnionView::for_each_slot`]) and folds each slot's offer,
/// kept iff it beats the owner's previous label, straight into the
/// owner's update slot. Below the parallel threshold one stream covers
/// every vertex; above it each chunk of the vertex range folds its own
/// slots into its own range of `updates` and lists its own writes in a
/// range of `next`, and the lists are concatenated in chunk order. Either
/// way `next` is in vertex order, and a chunk writes only its own slots.
fn pull_round<C: Candidate>(
    exec: &Executor,
    view: &UnionView<'_>,
    prev: &[Weight],
    updates: &mut [C],
    next: &mut Vec<VId>,
) {
    let n = prev.len();
    // Room for every vertex: each is written at most once.
    next.resize(n, 0);
    if !exec.parallel_eligible(n) {
        let len = pull_chunk(view, prev, 0..n, updates, next);
        next.truncate(len);
        return;
    }
    let bounds = exec.chunk_bounds(n);
    let mut parts = Vec::with_capacity(bounds.len());
    let (mut ups, mut list) = (&mut updates[..], &mut next[..]);
    for r in &bounds {
        let (u, rest) = std::mem::take(&mut ups).split_at_mut(r.len());
        let (l, tail) = std::mem::take(&mut list).split_at_mut(r.len());
        (ups, list) = (rest, tail);
        parts.push((u, l, 0usize));
    }
    // One unit range per part: chunk `ci` owns part `ci`.
    let owners: Vec<_> = (0..bounds.len()).map(|ci| ci..ci + 1).collect();
    exec.for_each_chunk_mut(&mut parts, &owners, |ci, part| {
        let (ups, list, len) = &mut part[0];
        *len = pull_chunk(view, prev, bounds[ci].clone(), ups, list);
    });
    let lens: Vec<usize> = parts.iter().map(|p| p.2).collect();
    let mut kept = 0;
    for (r, len) in bounds.iter().zip(lens) {
        next.copy_within(r.start..r.start + len, kept);
        kept += len;
    }
    next.truncate(kept);
}

/// Folds the slots of rows `vs` into `ups` (the update slots of `vs`),
/// then lists the written rows in `list` in vertex order; returns how many
/// it listed.
fn pull_chunk<C: Candidate>(
    view: &UnionView<'_>,
    prev: &[Weight],
    vs: Range<usize>,
    ups: &mut [C],
    list: &mut [VId],
) -> usize {
    let start = vs.start;
    view.for_each_slot(vs, |v, u, w, tag| {
        let c = C::new(prev[u as usize] + w, u, w, tag);
        C::fold_min(&mut ups[v as usize - start], c, c.dist() < prev[v as usize]);
    });
    let mut len = 0;
    for (v, c) in (start as VId..).zip(ups.iter()) {
        append(list, &mut len, v, c.dist() != INF);
    }
    len
}

/// Runs `fill` on every chunk of a chunked push's `bounds`, each into its
/// own buffer of kept `(target, candidate)` offers, then folds the buffers in chunk
/// order into `updates` ([`Candidate::fold`]). A total-order minimum does
/// not depend on the fold order, so the result is the same for every
/// chunking, i.e. at every thread count; `next` gets the written targets
/// in first-offer order, which is the chunks' own orders concatenated.
fn in_chunks<C: Candidate>(
    exec: &Executor,
    bounds: &[Range<usize>],
    pushed: &mut Vec<Vec<(VId, C)>>,
    updates: &mut [C],
    next: &mut Vec<VId>,
    fill: impl Fn(Range<usize>, &mut Vec<(VId, C)>) + Sync,
) {
    if pushed.len() < bounds.len() {
        pushed.resize_with(bounds.len(), Vec::new);
    }
    let bufs = &mut pushed[..bounds.len()];
    // One unit range per buffer: chunk `ci` owns buffer `ci`.
    let owners: Vec<_> = (0..bounds.len()).map(|ci| ci..ci + 1).collect();
    exec.for_each_chunk_mut(bufs, &owners, |ci, buf| {
        fill(bounds[ci].clone(), &mut buf[0])
    });
    // At most one first write per kept offer.
    let kept = bufs.iter().map(Vec::len).sum();
    append_into(next, kept, 0, |next, len| {
        for buf in bufs.iter() {
            for &(v, c) in buf {
                C::fold(updates, next, len, v, c, true);
            }
        }
    });
}

/// Offers `sink` frontier vertex `u`'s candidate for each neighbor, with
/// whether it beats that neighbor's previous label.
#[inline]
fn push_from<C: Candidate>(
    view: &UnionView<'_>,
    prev: &[Weight],
    u: VId,
    mut sink: impl FnMut(VId, C, bool),
) {
    let du = prev[u as usize];
    view.for_each_neighbor(u, |v, w, tag| {
        let nd = du + w;
        sink(v, C::new(nd, u, w, tag), nd < prev[v as usize]);
    });
}

/// Run a hop-limited multi-source Bellman–Ford exploration that also
/// returns the parent tree (Theorem 4.6's parent edges, the input of the
/// path-reporting SPT). Every other caller wants distances only and runs
/// [`bellman_ford_into`] or [`bellman_ford_to`], which skip the parents.
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
    let mut rounds = Rounds::default();
    let mut parent = vec![None; view.num_vertices()];
    let (rounds_run, converged_at, _) = explore(
        exec,
        view,
        sources,
        None,
        max_hops,
        ledger,
        &mut rounds,
        |v, (_, pe): (Weight, ParentEdge)| parent[v as usize] = Some(pe),
    );
    BellmanFordResult {
        dist: rounds.dist,
        parent,
        rounds_run,
        converged_at,
    }
}

/// Distance-only [`bellman_ford`], writing into caller-owned
/// [`BfordScratch`] buffers (read the row back with
/// [`BfordScratch::dist`], or take it with [`BfordScratch::into_dist`]).
/// A request batch reuses one scratch across all its explorations — the
/// serving path of `sssp::Oracle::distances_multi`. Returns
/// `(rounds_run, converged_at)`; the row, both counts and the ledger are
/// bit-identical to [`bellman_ford`]'s.
pub fn bellman_ford_into(
    exec: &Executor,
    view: &UnionView<'_>,
    sources: &[VId],
    max_hops: usize,
    ledger: &mut Ledger,
    scratch: &mut BfordScratch,
) -> (usize, Option<usize>) {
    let (rounds_run, converged_at, _) = explore(
        exec,
        view,
        sources,
        None,
        max_hops,
        ledger,
        &mut scratch.0,
        |_, _| {},
    );
    (rounds_run, converged_at)
}

/// Distance-only point-to-point exploration with early exit and a
/// target-bounded frontier: the loop stops as soon as the target's label
/// has provably settled, and before that a vertex whose new label is not
/// below the target's does not propagate (both rules are documented on
/// the internal `explore` loop; DESIGN.md §9 has the proofs). The
/// returned distance is **bit-identical** to
/// `bellman_ford(..).dist[target]`, and every round it runs is a round of
/// the full run — only the number of rounds (and hence the ledger's
/// charge, which reflects work actually done) can shrink, and each round
/// reads only the slots of its bounded frontier.
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
        &mut scratch.0,
        |_, _| {},
    );
    TargetResult {
        dist: scratch.dist()[target as usize],
        rounds_run,
        settled_early: settled || converged_at.is_some(),
    }
}

/// Total order on parent-carrying candidates: distance, then parent id,
/// then base edges before overlay, then overlay index. Deterministic
/// tie-breaking.
#[inline]
fn cand_key(c: &(Weight, ParentEdge)) -> (u64, VId, u8, u32) {
    let (d, pe) = c;
    let (layer, idx) = match pe.tag {
        EdgeTag::Base => (0u8, 0u32),
        EdgeTag::Extra(i) => (1u8, i),
    };
    (d.to_bits(), pe.parent, layer, idx)
}

#[cfg(test)]
#[path = "../tests/hub/mod.rs"]
mod hub;

#[cfg(test)]
mod tests {
    use super::hub::{chunked_instance, chunked_sources, hub_instance, Mix};
    use super::*;
    use pgraph::exact;
    use pgraph::gen;
    use pgraph::Graph;
    use proptest::prelude::*;

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
        // The tree path to 3 is the light one: 3 ← 2 ← 1 ← 0.
        let chain: Vec<VId> =
            std::iter::successors(Some(3), |&v| r3.parent[v as usize].map(|pe| pe.parent))
                .collect();
        assert_eq!(chain, vec![3, 2, 1, 0]);
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
        assert_eq!(r.parent[2], None);
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

    /// The target bound is live: a target whose label is final long before
    /// the run settles stops every write at or above its label from
    /// propagating, so over the same rounds the bounded run writes
    /// strictly fewer vertices than the unbounded one, with the same
    /// target bits.
    #[test]
    fn target_bound_writes_fewer_vertices_over_the_same_rounds() {
        let g = gen::road_grid(12, 12, 5, 1.0, 10.0);
        let view = UnionView::base_only(&g);
        // Grid cell (3, 4): seven hops from the corner source.
        let (source, target) = (0, 40);
        let run = |bound: Option<VId>, max_hops: usize| {
            let mut rounds = Rounds::<Weight>::default();
            let mut writes = 0usize;
            let (rounds_run, _, _) = explore(
                &exec(),
                &view,
                &[source],
                bound,
                max_hops,
                &mut Ledger::new(),
                &mut rounds,
                |_, _| writes += 1,
            );
            (rounds.dist[target as usize].to_bits(), rounds_run, writes)
        };
        let (bounded_bits, rounds_run, bounded) = run(Some(target), g.num_vertices());
        let (full_bits, full_rounds, full) = run(None, rounds_run);
        assert_eq!(bounded_bits, full_bits);
        assert_eq!(full_rounds, rounds_run);
        let final_at = (1..=rounds_run)
            .find(|&k| run(None, k).0 == full_bits)
            .unwrap();
        assert!(
            final_at + 2 < rounds_run,
            "final after {final_at} of {rounds_run} rounds"
        );
        assert!(bounded < full, "bounded {bounded} writes, unbounded {full}");
    }

    /// Scratch reuse: back-to-back distance-only explorations through one
    /// scratch give the same bits as fresh parent-carrying runs (no state
    /// leaks between requests).
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
            assert_eq!(l1, l2);
        }
    }

    /// What one run of the round loop over candidate `C` writes: every
    /// written vertex with its distance bits, in write order, and
    /// `(rounds_run, converged_at)`.
    type Writes = (Vec<(VId, u64)>, usize, Option<usize>);

    fn writes<C: Candidate>(exec: &Executor, view: &UnionView<'_>, sources: &[VId]) -> Writes {
        let mut log = Vec::new();
        let (rounds_run, converged_at, _) = explore(
            exec,
            view,
            sources,
            None,
            view.num_vertices() + 1,
            &mut Ledger::new(),
            &mut Rounds::<C>::default(),
            |v, c| log.push((v, c.dist().to_bits())),
        );
        (log, rounds_run, converged_at)
    }

    /// Both candidates write the same frontiers in the same order and run
    /// the same rounds (DESIGN.md §9), at 1/2/4/8 threads.
    fn assert_same_writes(view: &UnionView<'_>, sources: &[VId]) {
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::new(threads);
            let with_parents = writes::<(Weight, ParentEdge)>(&exec, view, sources);
            let distance_only = writes::<Weight>(&exec, view, sources);
            assert_eq!(with_parents, distance_only, "threads={threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// On the hub overlays, whose explorations mix sparse and dense
        /// rounds and whose ties only the parent order breaks.
        #[test]
        fn both_candidates_write_the_same_frontiers(
            rows in 2usize..16,
            cols in 2usize..16,
            hubs in 0usize..4,
            stride in 1usize..6,
            nsrc in 1usize..4,
            seed in any::<u64>(),
        ) {
            let (g, extra) = hub_instance(rows, cols, hubs, stride, seed);
            let view = UnionView::with_extra(&g, &extra);
            let mut mix = Mix(seed ^ 0x5EED);
            let sources: Vec<VId> =
                (0..nsrc).map(|_| mix.below(g.num_vertices()) as VId).collect();
            assert_same_writes(&view, &sources);
        }
    }

    /// On the instance whose sparse and dense rounds split into chunks.
    #[test]
    fn both_candidates_write_the_same_chunked_frontiers() {
        let (g, extra) = chunked_instance();
        let view = UnionView::with_extra(&g, &extra);
        assert_same_writes(&view, &chunked_sources(&view));
    }
}
