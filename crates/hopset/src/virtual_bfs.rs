//! Algorithm 2: parallel limited BFS explorations in the virtual cluster
//! graph `G̃_i`, simulated by hop- and distance-bounded label propagation in
//! `G_{k-1} = (V, E ∪ H_{k-1})` (Appendix A).
//!
//! Two clusters are neighbors in `G̃_i` iff
//! `d^{(2β+1)}_{G_{k-1}}(C, C') ≤ (1+ε_{k-1})·δ_i`. One *pulse* simulates
//! one hop of `G̃_i`: distribute cluster knowledge to members, propagate
//! `2β+1` steps through `G_{k-1}`, aggregate back into clusters.
//!
//! The two variants the construction uses (Appendix A.3):
//!
//! * [`Explorer::detect_neighbors`] — `d = 1`, `x ≥ 1`: every cluster learns
//!   its `x` nearest neighboring clusters (popularity detection, Lemma A.3,
//!   and the phase-ℓ interconnection);
//! * [`Explorer::bfs`] — `x = 1`, `d ≥ 1`: a multi-source BFS in `G̃_i`
//!   (Lemma A.4 / Corollary A.5) used for supercluster formation and for the
//!   ruling-set knock-outs.
//!
//! Execution: the explorer carries an explicit [`Executor`] handle (the
//! persistent pool of `pram::pool`); every propagation step is one parallel
//! round on it. Callers also pass an [`ExploreScratch`] down with the
//! executor: the label table is a flat [`LabelArena`] (one `n·x` slot
//! buffer + length array — see DESIGN.md §8), and each kernel's
//! per-vertex arrays live beside it, all reused across pulses, ruling-set
//! levels, and phases. Propagation has two kernels:
//!
//! * **push, `x = 1`** — every [`Explorer::bfs`] pulse (so the ruling set,
//!   the superclustering BFS, `verify_ruling` and the sampling baseline)
//!   and `detect_neighbors(1)`. Only the vertices written in the previous
//!   step (the frontier) offer candidates; each target keeps the minimum
//!   offer under Algorithm 3's order and is written only if that beats its
//!   label. With one label per vertex the reduction is a plain minimum, so
//!   a step costs the frontier's union slots — no sort, no pass over `n`;
//! * **pull, `x ≥ 2`** — detection: a merge over changed neighbors only.
//!   Every vertex with a changed neighbor starts from its own list and
//!   streams in the records of the neighbors whose list changed in the
//!   previous step, keeping a sorted list of at most `x` records
//!   (`merge`); most records are rejected with one comparison, and only
//!   survivors materialize a label. Changed flags live in a double
//!   buffer. Rounds split by the executor's `round_bounds`. Each parallel
//!   chunk reuses one bounded list, and new lists are written back into
//!   the arena's fixed per-vertex regions.
//!
//! Both kernels compute the labels, memory paths and step counts of the
//! full pull — every recomputed vertex reducing its own and all its
//! neighbors' records with Algorithm 3 — by the frontier lemma of
//! DESIGN.md §9: a neighbor unchanged since the previous step has nothing
//! left to offer. The tests below pin both to that full pull. The
//! [`Ledger`] charges Lemma A.3's `O((|E|+|H_{k-1}|)·x)` work per step
//! under either kernel.
//!
//! Edge provenance: overlay adjacency entries carry **global** hopset edge
//! ids directly (the scale-block CSRs of `pgraph::OverlayCsrBuilder` tag
//! them so), which is what [`crate::path::MemEdge::Hop`] records — no
//! overlay-to-global side table.
//!
//! Determinism: every per-vertex/per-cluster reduction uses the total order
//! of Algorithm 3 (see [`crate::label::reduce_labels_in_place_scratch`]);
//! the pull kernel's merge folds each vertex's candidates in a fixed order,
//! and the push kernel's per-target minimum does not depend on how the
//! frontier is chunked. Propagation reads only the
//! previous step's labels (the CREW discipline of §1.5.1), so results are
//! identical for any thread count.
//!
//! Early exit: propagation stops once no label list changes. This computes
//! the fixpoint `d^{(h*)}` for some `h* ≤` the hop budget; allowing *more*
//! hops than `2β+1` only shrinks measured distances, which enlarges `G̃_i`
//! monotonically — every coverage lemma (2.4, A.3, A.4) only needs the
//! paper's `G̃_i` to be a *subgraph* of the one actually used, and the
//! stretch analysis only needs recorded distances to be realizable, which
//! fixpoint distances are. (The hop budget still caps every exploration.)

use crate::label::{
    labels_equal, reduce_labels_in_place_scratch, Label, LabelArena, ReduceScratch,
};
use crate::partition::{ClusterMemory, Partition};
use crate::path::{path_extend, path_splice, path_start, MemEdge, PathHandle};
use pgraph::{EdgeTag, UnionView, VId, Weight};
use pram::{prim, Executor, Ledger};

/// Length sentinel for "vertex not recomputed this step".
const SKIP: u32 = u32::MAX;

/// One candidate of the push kernel: frontier vertex `from` offers its
/// previous-step label, relaxed over one union edge, to `target`. The
/// relaxed record is recomputed from `from`'s label when needed (the same
/// two additions, so the same bits), which keeps a buffered offer at 24
/// bytes.
#[derive(Clone, Copy, Debug)]
struct Offer {
    target: VId,
    from: VId,
    /// Weight and layer of the relaxed edge.
    w: Weight,
    tag: EdgeTag,
}

impl Offer {
    /// The offered record `(src, dist, pw)`, read off `from`'s label in
    /// `prev`.
    #[inline]
    fn record(&self, prev: &LabelArena) -> (VId, Weight, Weight) {
        let l = &prev.labels(self.from as usize)[0];
        (l.src, l.dist + self.w, l.pw + self.w)
    }

    /// Algorithm 3's order with one label per list: `(dist, src, pw)`,
    /// then the pull's candidate index — base edges before overlay edges,
    /// then neighbor id, then overlay index. That is `for_each_neighbor`'s
    /// order on every single-block view, which is what construction
    /// explores. Only the index part can tell equal records apart, and it
    /// only decides which memory path a winner records.
    #[inline]
    fn key(&self, prev: &LabelArena) -> (u64, VId, u64, u32, VId, u32) {
        let (src, dist, pw) = self.record(prev);
        let (layer, idx) = match self.tag {
            EdgeTag::Base => (0, 0),
            EdgeTag::Extra(i) => (1, i),
        };
        (dist.to_bits(), src, pw.to_bits(), layer, self.from, idx)
    }
}

/// Empty per-target slot of the push kernel; a full slot holds
/// `chunk << 32 | position` of the best offer in the chunk buffers.
const NO_OFFER: u64 = u64::MAX;

/// The buffered offer a per-target slot points at.
#[inline]
fn offer_at(bufs: &[Vec<Offer>], slot: u64) -> &Offer {
    &bufs[(slot >> 32) as usize][(slot & u32::MAX as u64) as usize]
}

/// True if the record `(src, dist, pw)` replaces the single-label list
/// `cur`: it is empty, or the record is strictly smaller on
/// `(dist, src, pw)`. An equal record is no change (`labels_equal`).
#[inline]
fn improves(src: VId, dist: Weight, pw: Weight, cur: &[Label]) -> bool {
    match cur.first() {
        None => true,
        Some(l) => (dist.to_bits(), src, pw.to_bits()) < (l.dist.to_bits(), l.src, l.pw.to_bits()),
    }
}

/// One record `(src, dist, pw)` of the pull kernel's bounded list, and
/// where it came from: slot `pos` of the recomputed vertex's own list
/// (`via = None`), or of neighbor `u`'s list relaxed over an edge of
/// weight `w` and layer `tag` (`via = Some((u, w, tag))`).
#[derive(Clone, Copy)]
struct Kept {
    src: VId,
    dist: Weight,
    pw: Weight,
    pos: usize,
    via: Option<(VId, Weight, EdgeTag)>,
}

impl Kept {
    /// Algorithm 3's rank: nearest first, ties by source id.
    #[inline]
    fn rank(&self) -> (u64, VId) {
        (self.dist.to_bits(), self.src)
    }
}

/// Fold candidate `k` into `list` (rank-sorted, one record per source, at
/// most `x`) as Algorithm 3 treats the whole candidate set: a source keeps
/// its least `(dist, pw)` record, the earlier one on a tie, and the `x`
/// best-ranked sources stay. A source cut off by a full list can only come
/// back strictly nearer, so folding one candidate at a time is exact. The
/// caller skips a `k` that ranks after the last record of a full list.
fn merge(list: &mut Vec<Kept>, x: usize, k: Kept) {
    let rank = k.rank();
    let at = list.partition_point(|e| e.rank() < rank);
    match list.iter().position(|e| e.src == k.src) {
        // The source already holds a nearer record, or an equally near one
        // realizing no larger a weight: `k` changes nothing.
        Some(p) if p < at => {}
        Some(p) if list[p].rank() == rank && list[p].pw.to_bits() <= k.pw.to_bits() => {}
        // `k` is strictly better: the source's record moves up to its rank.
        Some(p) => {
            list[at..=p].rotate_right(1);
            list[at] = k;
        }
        // A new source: a full list drops its last record.
        None => {
            list.truncate(x - 1);
            list.insert(at, k);
        }
    }
}

/// Caller-owned scratch for the exploration engine: the flat label arena
/// plus each propagation kernel's per-vertex arrays (the pull kernel's
/// changed flags; the push kernel's frontier lists and per-target slots).
/// One instance serves any number of [`Explorer::detect_neighbors`] /
/// [`Explorer::bfs`] calls (on graphs of any size — buffers are resized on
/// demand and retain their allocations), so the hot construction loop
/// allocates these once per scale instead of once per pulse. The push
/// kernel's offer buffers scale with a step's offers rather than with `n`
/// and live for one propagation only.
#[derive(Default)]
pub struct ExploreScratch {
    /// `labels.labels(v)`: up to `x` records sorted by `(dist, src)`.
    labels: LabelArena,
    /// Pull kernel (`x ≥ 2`): vertices whose label list changed in the
    /// previous step.
    changed: Vec<bool>,
    /// Pull kernel: write buffer for the current step's changed flags.
    next_changed: Vec<bool>,
    /// Push kernel (`x = 1`): the vertices written in the previous step,
    /// ascending (before step 1: the seeded vertices).
    frontier: Vec<VId>,
    /// Push kernel: the vertices written in this step.
    written: Vec<VId>,
    /// Push kernel: this step's best offer per target (see [`NO_OFFER`]);
    /// every slot is empty between steps.
    best: Vec<u64>,
}

impl ExploreScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear to the all-empty state for `n` lists of capacity `x`, keeping
    /// allocations.
    fn reset(&mut self, n: usize, x: usize) {
        self.labels.reset(n, x);
        self.changed.clear();
        self.changed.resize(n, false);
        self.next_changed.clear();
        self.next_changed.resize(n, false);
    }
}

/// A configured exploration engine for one phase of one scale.
pub struct Explorer<'a> {
    /// The executor the propagation rounds run on.
    pub exec: &'a Executor,
    /// The exploration graph `G_{k-1}`. Overlay entries must carry global
    /// hopset edge ids in their [`EdgeTag::Extra`] tags (scale-block CSRs
    /// and `all_slice()`-derived views both do).
    pub view: &'a UnionView<'a>,
    /// The clusters `P_i`.
    pub part: &'a Partition,
    /// Cluster memory (CP/CD arrays of §4.3).
    pub cm: &'a ClusterMemory,
    /// Distance threshold `(1+ε_{k-1})·δ_i`.
    pub threshold: Weight,
    /// Hop budget per pulse (`2β+1`, capped — see `HopsetParams::hop_limit`).
    pub hop_limit: usize,
    /// Record realized paths (path-reporting mode, §4.3).
    pub record_paths: bool,
}

/// Result of the BFS variant for one cluster.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Cluster index (within `P_i`) of the originating source.
    pub src_cluster: u32,
    /// Center id of the originating source.
    pub src_center: VId,
    /// Pulse at which this cluster was detected (0 for sources themselves).
    pub pulse: usize,
    /// Realized path weight from the source center to this cluster's center.
    pub pw: Weight,
    /// The realized path (source center → this center), when recording.
    pub path: Option<PathHandle>,
}

impl<'a> Explorer<'a> {
    fn mem_edge(&self, tag: EdgeTag) -> MemEdge {
        match tag {
            EdgeTag::Base => MemEdge::Base,
            EdgeTag::Extra(i) => MemEdge::Hop(i),
        }
    }

    /// Charge one propagation step: the paper's accounting is `O(log n)`
    /// depth with `O((|E|+|H_{k-1}|)·x)` processors per step (Lemma A.3).
    fn charge_step(&self, x: usize, ledger: &mut Ledger) {
        let n = self.view.num_vertices() as u64;
        let m = 2 * self.view.num_edges() as u64;
        let logn = pgraph::ceil_log2(self.view.num_vertices().max(2)) as u64;
        ledger.steps(logn.max(1), (m + n) * x as u64);
    }

    /// Seed label for member `v` of cluster `c` given the cluster-level
    /// record `(src_center, dist, pw, path-ending-at-center)`: the member
    /// extends the record by its center → v cluster-memory detour.
    fn seed_member(
        &self,
        v: VId,
        src_center: VId,
        dist: Weight,
        pw: Weight,
        center_path: Option<&PathHandle>,
    ) -> Label {
        let path = if self.record_paths {
            let base = match center_path {
                Some(p) => p.clone(),
                None => path_start(src_center),
            };
            // center → v is the reverse of CP(v) = v → center.
            Some(path_splice(&base, self.cm.path_of(v), true))
        } else {
            None
        };
        Label {
            src: src_center,
            dist,
            pw: pw + self.cm.weight[v as usize],
            path,
        }
    }

    /// Lift a vertex-level label at `v` to cluster level: append the
    /// v → center detour (dist unchanged — cluster distance is the min over
    /// members, Lemma A.3's `m(C)` semantics).
    fn lift_to_cluster(&self, v: VId, label: &Label) -> Label {
        Label {
            src: label.src,
            dist: label.dist,
            pw: label.pw + self.cm.weight[v as usize],
            path: if self.record_paths {
                Some(path_splice(
                    label.path.as_ref().expect("path recorded"),
                    self.cm.path_of(v),
                    false,
                ))
            } else {
                None
            },
        }
    }

    /// One chunk of a pull step. A vertex is recomputed iff a neighbor
    /// changed in the previous step: it starts from its own list and
    /// [`merge`]s in its changed neighbors' records in adjacency order. A
    /// neighbor's records are dist-ascending, and relaxing keeps them so:
    /// a neighbor stops at its first record past the threshold or past a
    /// full list's last distance, so most records cost one comparison.
    /// Relaxing can make distances equal and reorder them by source, so a
    /// record ranking after a full list's last is skipped, not stopped at.
    /// Survivors materialize last, in path mode with one `path_extend`
    /// each if pulled from a neighbor.
    fn relax_chunk(
        &self,
        r: std::ops::Range<usize>,
        cur: &LabelArena,
        prev_changed: &[bool],
        x: usize,
    ) -> (Vec<u32>, Vec<Label>) {
        let mut lens: Vec<u32> = Vec::with_capacity(r.len());
        let mut out: Vec<Label> = Vec::new();
        let mut list: Vec<Kept> = Vec::with_capacity(x);
        for v in r {
            let vid = v as VId;
            let mut any = false;
            self.view
                .for_each_neighbor(vid, |u, _, _| any |= prev_changed[u as usize]);
            if !any {
                lens.push(SKIP);
                continue;
            }
            let own = cur.labels(v);
            list.clear();
            list.extend(own.iter().enumerate().map(|(pos, l)| Kept {
                src: l.src,
                dist: l.dist,
                pw: l.pw,
                pos,
                via: None,
            }));
            self.view.for_each_neighbor(vid, |u, w, tag| {
                if !prev_changed[u as usize] {
                    return;
                }
                for (pos, l) in cur.labels(u as usize).iter().enumerate() {
                    let dist = l.dist + w;
                    let last = list.get(x - 1);
                    if dist > last.map_or(self.threshold, |k| k.dist) {
                        break;
                    }
                    if last.is_some_and(|k| (dist.to_bits(), l.src) > k.rank()) {
                        continue;
                    }
                    let k = Kept {
                        src: l.src,
                        dist,
                        pw: l.pw + w,
                        pos,
                        via: Some((u, w, tag)),
                    };
                    merge(&mut list, x, k);
                }
            });
            lens.push(list.len() as u32);
            out.extend(list.iter().map(|k| {
                Label {
                    src: k.src,
                    dist: k.dist,
                    pw: k.pw,
                    path: match k.via {
                        None => own[k.pos].path.clone(),
                        Some((u, w, tag)) => (cur.labels(u as usize)[k.pos].path.as_ref())
                            .map(|p| path_extend(p, vid, self.mem_edge(tag), w)),
                    },
                }
            }));
        }
        (lens, out)
    }

    /// Propagate `scratch.labels` to a fixpoint (≤ `hop_limit` steps),
    /// each step one parallel round on `self.exec`. Single-label lists
    /// (`x = 1`: every [`Explorer::bfs`] pulse and `detect_neighbors(1)`)
    /// take the push kernel; longer lists take the pull kernel.
    fn propagate(&self, scratch: &mut ExploreScratch, x: usize, ledger: &mut Ledger) {
        #[cfg(test)]
        if tests::FULL_PULL.with(|c| c.get()) {
            return tests::propagate_full_pull(self, scratch, x, ledger);
        }
        if x == 1 {
            self.propagate_push(scratch, ledger);
        } else {
            self.propagate_pull(scratch, x, ledger);
        }
    }

    /// The push kernel for `x = 1`. Only a vertex written in the previous
    /// step (the frontier; before step 1, the seeded vertices) can offer a
    /// label its neighbor does not already dominate — the frontier lemma
    /// of DESIGN.md §9, with labels ordered by `(dist, src, pw)`. So each
    /// step splits the frontier with `round_bounds`, every chunk pushes
    /// the offers that improve their target's previous label into its own
    /// buffer, and the caller folds the buffers into a per-target minimum
    /// under [`Offer::key`]. A total-order minimum does not depend on the
    /// fold order, so chunking cannot show. Every winner is built from the
    /// previous step's labels before any is written (CREW), and the
    /// written set, ascending, is the next frontier. It is exactly the
    /// full pull's changed set, so labels, paths, step counts and ledger
    /// charges are the pull's, while a step costs the frontier's slots.
    fn propagate_push(&self, scratch: &mut ExploreScratch, ledger: &mut Ledger) {
        let n = self.view.num_vertices();
        let ExploreScratch {
            labels,
            frontier,
            written,
            best,
            ..
        } = scratch;
        debug_assert_eq!(labels.num_lists(), n);
        debug_assert_eq!(labels.x(), 1);
        best.clear();
        best.resize(n, NO_OFFER);
        // One offer buffer per frontier chunk, and the step's new labels.
        // Both scale with a step's offers, not with `n`, so they live for
        // one propagation: kept in the scratch, the largest step's
        // capacity would ride along into the scale's later phases.
        let mut pushed: Vec<Vec<Offer>> = Vec::new();
        let mut winners: Vec<Label> = Vec::new();
        frontier.clear();
        frontier.extend((0..n as VId).filter(|&v| labels.len_of(v as usize) > 0));
        for _step in 0..self.hop_limit {
            if frontier.is_empty() {
                break;
            }
            self.charge_step(1, ledger);
            let bounds = self.exec.round_bounds(frontier.len());
            if pushed.len() < bounds.len() {
                pushed.resize_with(bounds.len(), Vec::new);
            }
            let bufs = &mut pushed[..bounds.len()];
            let prev = &*labels;
            if let [buf] = bufs {
                self.push_chunk(prev, frontier, buf);
            } else {
                // One unit range per buffer: chunk `ci` owns buffer `ci`.
                let owners: Vec<_> = (0..bounds.len()).map(|ci| ci..ci + 1).collect();
                let from = &*frontier;
                self.exec.for_each_chunk_mut(bufs, &owners, |ci, buf| {
                    self.push_chunk(prev, &from[bounds[ci].clone()], &mut buf[0]);
                });
            }
            let bufs = &*bufs;
            written.clear();
            for (ci, buf) in bufs.iter().enumerate() {
                for (pos, offer) in buf.iter().enumerate() {
                    let slot = &mut best[offer.target as usize];
                    if *slot == NO_OFFER {
                        written.push(offer.target);
                    } else if offer.key(prev) >= offer_at(bufs, *slot).key(prev) {
                        continue;
                    }
                    *slot = ((ci as u64) << 32) | pos as u64;
                }
            }
            written.sort_unstable();
            winners.clear();
            for &v in written.iter() {
                let slot = std::mem::replace(&mut best[v as usize], NO_OFFER);
                winners.push(self.winner_label(prev, v, offer_at(bufs, slot)));
            }
            for (&v, l) in written.iter().zip(winners.drain(..)) {
                labels.set_list(v as usize, std::iter::once(l));
            }
            std::mem::swap(frontier, written);
        }
    }

    /// One chunk of a push step: every frontier vertex `u` offers its label,
    /// relaxed over each union edge within the threshold, to every
    /// neighbor whose previous label it improves.
    fn push_chunk(&self, prev: &LabelArena, frontier: &[VId], buf: &mut Vec<Offer>) {
        buf.clear();
        for &u in frontier {
            let l = &prev.labels(u as usize)[0];
            self.view.for_each_neighbor(u, |v, w, tag| {
                let dist = l.dist + w;
                if dist > self.threshold {
                    return;
                }
                if improves(l.src, dist, l.pw + w, prev.labels(v as usize)) {
                    buf.push(Offer {
                        target: v,
                        from: u,
                        w,
                        tag,
                    });
                }
            });
        }
        assert!(
            buf.len() <= u32::MAX as usize,
            "offer position must fit its slot"
        );
    }

    /// The label `v` takes from its winning offer, read off the offering
    /// vertex's previous-step label. In path mode its path extends that
    /// label's by the relaxed edge — one `path_extend` per written vertex.
    fn winner_label(&self, prev: &LabelArena, v: VId, offer: &Offer) -> Label {
        let (src, dist, pw) = offer.record(prev);
        let path = self.record_paths.then(|| {
            let base = prev.labels(offer.from as usize)[0]
                .path
                .as_ref()
                .expect("path recorded");
            path_extend(base, v, self.mem_edge(offer.tag), offer.w)
        });
        Label {
            src,
            dist,
            pw,
            path,
        }
    }

    /// The pull kernel for `x ≥ 2`: every vertex with a changed neighbor
    /// merges its changed neighbors' records into its own list
    /// ([`Explorer::relax_chunk`]). A neighbor unchanged since the
    /// previous step was already folded in or had nothing to offer (the
    /// frontier lemma of DESIGN.md §9), so the result is the full pull's:
    /// Algorithm 3 over the own and every neighbor's records. The
    /// changed-flag double buffer lives in the scratch. Per step, each
    /// chunk produces one flat `(lens, labels)` buffer pair (no
    /// per-vertex vectors), which is then compared against — and moved
    /// into — the arena's fixed regions in vertex order.
    fn propagate_pull(&self, scratch: &mut ExploreScratch, x: usize, ledger: &mut Ledger) {
        let n = self.view.num_vertices();
        let ExploreScratch {
            labels,
            changed,
            next_changed,
            ..
        } = scratch;
        debug_assert_eq!(labels.num_lists(), n);
        for (v, c) in changed.iter_mut().enumerate() {
            *c = labels.len_of(v) > 0;
        }
        for _step in 0..self.hop_limit {
            if !changed.contains(&true) {
                break;
            }
            self.charge_step(x, ledger);
            let bounds = self.exec.round_bounds(n);
            let cur = &*labels;
            let prev_changed = &*changed;
            // Recompute v iff some neighbor changed last step. One output
            // buffer pair per chunk; `SKIP` marks untouched vertices.
            let chunks: Vec<(Vec<u32>, Vec<Label>)> = self
                .exec
                .run_chunks(&bounds, |r| self.relax_chunk(r, cur, prev_changed, x));
            // Apply: one pass per chunk — compare each new list against the
            // arena (the iterator's unconsumed slice), set the fixpoint
            // flag, then move it into the arena's region (overwriting a
            // list with equal content is a no-op for every later read).
            for b in next_changed.iter_mut() {
                *b = false;
            }
            for (ci, (lens, out)) in chunks.into_iter().enumerate() {
                let mut items = out.into_iter();
                for (off, &len) in lens.iter().enumerate() {
                    if len == SKIP {
                        continue;
                    }
                    let v = bounds[ci].start + off;
                    let new = &items.as_slice()[..len as usize];
                    if !labels_equal(new, labels.labels(v)) {
                        next_changed[v] = true;
                    }
                    labels.set_list(v, items.by_ref().take(len as usize));
                }
            }
            std::mem::swap(changed, next_changed);
        }
    }

    /// The `d = 1`, `x ≥ 1` variant (Lemma A.3): every cluster of `P_i`
    /// starts an exploration; afterwards `m(C)` holds up to `x` records —
    /// the nearest `x` clusters (including `C` itself at distance 0).
    ///
    /// * If the list is full (`len_of(c) ≥ x`), `C` has at least `x − 1`
    ///   neighbors (popular when `x = deg_i + 1`).
    /// * Otherwise `m(C)` lists *all* neighbors of `C` with their
    ///   `d^{(2β+1)}`-distances.
    ///
    /// Returns the per-cluster arrays `m(·)` as an owned [`LabelArena`]
    /// over cluster indices.
    pub fn detect_neighbors(
        &self,
        x: usize,
        scratch: &mut ExploreScratch,
        ledger: &mut Ledger,
    ) -> LabelArena {
        let n = self.view.num_vertices();
        scratch.reset(n, x);
        // Distribution: every member of every cluster seeds its own record.
        ledger.step(n as u64 * x as u64);
        for cl in self.part.clusters.iter() {
            for &v in &cl.members {
                let l = self.seed_member(v, cl.center, 0.0, 0.0, None);
                scratch.labels.push(v as usize, l);
            }
        }
        self.propagate(scratch, x, ledger);
        // Aggregation: fold member labels into m(C), chunked like the
        // propagate rounds (one buffer pair per chunk, no per-cluster Vec).
        ledger.sort(n as u64 * x as u64);
        let nc = self.part.len();
        let mut m = LabelArena::new();
        m.reset(nc, x);
        let labels = &scratch.labels;
        let bounds = self.exec.round_bounds(nc);
        let chunks: Vec<(Vec<u32>, Vec<Label>)> = self.exec.run_chunks(&bounds, |r| {
            let mut lens: Vec<u32> = Vec::with_capacity(r.len());
            let mut out: Vec<Label> = Vec::new();
            let mut cands: Vec<Label> = Vec::new();
            let mut scratch = ReduceScratch::new();
            for ci in r {
                let cl = &self.part.clusters[ci];
                cands.clear();
                for &v in &cl.members {
                    for l in labels.labels(v as usize) {
                        cands.push(self.lift_to_cluster(v, l));
                    }
                }
                reduce_labels_in_place_scratch(&mut cands, x, &mut scratch);
                lens.push(cands.len() as u32);
                out.append(&mut cands);
            }
            (lens, out)
        });
        for (ci, (lens, out)) in chunks.into_iter().enumerate() {
            let mut items = out.into_iter();
            for (off, &len) in lens.iter().enumerate() {
                m.set_list(bounds[ci].start + off, items.by_ref().take(len as usize));
            }
        }
        m
    }

    /// The `x = 1`, `d ≥ 1` variant (Lemma A.4 / Corollary A.5): a BFS to
    /// depth `pulses` in `G̃_i` from the clusters `sources`. Returns, per
    /// cluster of `P_i`, the detection record (sources detect themselves at
    /// pulse 0). Each pulse re-seeds from every detected cluster with a
    /// fresh hop/distance budget, exactly matching the pulse semantics of
    /// Appendix A.2; the label arena is reset (not reallocated) per pulse.
    pub fn bfs(
        &self,
        sources: &[u32],
        pulses: usize,
        scratch: &mut ExploreScratch,
        ledger: &mut Ledger,
    ) -> Vec<Option<Detection>> {
        let n = self.view.num_vertices();
        let nc = self.part.len();
        let mut det: Vec<Option<Detection>> = vec![None; nc];
        for &s in sources {
            let center = self.part.center(s);
            det[s as usize] = Some(Detection {
                src_cluster: s,
                src_center: center,
                pulse: 0,
                pw: 0.0,
                path: self.record_paths.then(|| path_start(center)),
            });
        }
        for pulse in 1..=pulses {
            // Distribute: members of every detected cluster carry the
            // origin's identity onward with a fresh per-pulse budget.
            scratch.reset(n, 1);
            ledger.step(n as u64);
            for (ci, cl) in self.part.clusters.iter().enumerate() {
                let Some(d) = &det[ci] else { continue };
                for &v in &cl.members {
                    let l = self.seed_member(v, d.src_center, 0.0, d.pw, d.path.as_ref());
                    scratch.labels.push(v as usize, l);
                }
            }
            self.propagate(scratch, 1, ledger);
            // Aggregate: undetected clusters reached this pulse are detected
            // by the best record (min by (dist, src) — deterministic).
            ledger.sort(n as u64);
            let mut newly = 0usize;
            let labels = &scratch.labels;
            let updates: Vec<Option<Detection>> = prim::par_map_range(self.exec, nc, |ci| {
                if det[ci].is_some() {
                    return None;
                }
                let cl = &self.part.clusters[ci];
                let mut best: Option<(Label, VId)> = None;
                for &v in &cl.members {
                    for l in labels.labels(v as usize) {
                        let better = match &best {
                            None => true,
                            Some((b, bv)) => {
                                (l.dist.to_bits(), l.src, l.pw.to_bits(), v)
                                    < (b.dist.to_bits(), b.src, b.pw.to_bits(), *bv)
                            }
                        };
                        if better {
                            best = Some((l.clone(), v));
                        }
                    }
                }
                best.map(|(l, v)| {
                    let lifted = self.lift_to_cluster(v, &l);
                    Detection {
                        src_cluster: self
                            .part
                            .index_of_center(lifted.src)
                            .expect("source is a cluster center"),
                        src_center: lifted.src,
                        pulse,
                        pw: lifted.pw,
                        path: lifted.path,
                    }
                })
            });
            for (ci, u) in updates.into_iter().enumerate() {
                if let Some(d) = u {
                    det[ci] = Some(d);
                    newly += 1;
                }
            }
            if newly == 0 {
                break; // BFS saturated: later pulses cannot reach more.
            }
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{HopsetParams, ParamMode};
    use pgraph::{gen, Graph};

    fn exploration_setup(g: &Graph) -> (UnionView<'_>, Partition, ClusterMemory) {
        let view = UnionView::base_only(g);
        let part = Partition::singletons(g.num_vertices());
        let cm = ClusterMemory::trivial(g.num_vertices(), false);
        (view, part, cm)
    }

    fn exec() -> Executor {
        Executor::new(2)
    }

    #[test]
    fn detect_neighbors_on_path() {
        // Path 0-1-2-3-4, unit weights, threshold 1.5: neighbors are exactly
        // the adjacent vertices.
        let g = gen::path(5);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 1.5,
            hop_limit: 8,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(10, &mut scratch, &mut led);
        // Vertex 0: itself + neighbor 1.
        let srcs0: Vec<VId> = m.labels(0).iter().map(|l| l.src).collect();
        assert_eq!(srcs0, vec![0, 1]);
        // Vertex 2: itself + 1 + 3.
        let srcs2: Vec<VId> = m.labels(2).iter().map(|l| l.src).collect();
        assert_eq!(srcs2, vec![2, 1, 3]);
        assert_eq!(m.labels(2)[1].dist, 1.0);
        assert!(led.work() > 0);
    }

    #[test]
    fn threshold_and_hops_bound_reach() {
        let g = gen::path(6);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        // Distance threshold 10 but only 2 hops: reach 2 vertices away.
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 10.0,
            hop_limit: 2,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(10, &mut scratch, &mut led);
        let srcs0: Vec<VId> = m.labels(0).iter().map(|l| l.src).collect();
        assert_eq!(srcs0, vec![0, 1, 2]);
    }

    #[test]
    fn x_truncates_to_nearest() {
        let g = gen::star(6); // center 0
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 3.0,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(3, &mut scratch, &mut led);
        // Leaf 1 sees itself (0), center (1.0), then the other leaves (2.0):
        // with x = 3 keep self, center, and the smallest-id leaf.
        let l1: Vec<(VId, Weight)> = m.labels(1).iter().map(|l| (l.src, l.dist)).collect();
        assert_eq!(l1, vec![(1, 0.0), (0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn bfs_detects_in_pulse_order() {
        // Path with unit weights; threshold 1.5 makes G̃ the same path.
        let g = gen::path(6);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 1.5,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let det = ex.bfs(&[0], 3, &mut scratch, &mut led);
        let pulses: Vec<Option<usize>> = det.iter().map(|d| d.as_ref().map(|x| x.pulse)).collect();
        assert_eq!(pulses, vec![Some(0), Some(1), Some(2), Some(3), None, None]);
        assert!(det.iter().flatten().all(|d| d.src_center == 0));
    }

    #[test]
    fn bfs_multi_source_takes_nearest_origin() {
        let g = gen::path(7);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 1.5,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let det = ex.bfs(&[0, 6], 10, &mut scratch, &mut led);
        assert_eq!(det[2].as_ref().unwrap().src_center, 0);
        assert_eq!(det[4].as_ref().unwrap().src_center, 6);
        // Midpoint 3: equal pulse from both sides → smaller center id wins.
        assert_eq!(det[3].as_ref().unwrap().src_center, 0);
    }

    #[test]
    fn bfs_early_exits_when_saturated() {
        let g = Graph::from_edges(4, [(0, 1, 1.0)]).unwrap(); // 2,3 isolated
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 5.0,
            hop_limit: 4,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let det = ex.bfs(&[0], 1000, &mut scratch, &mut led);
        assert!(det[1].is_some());
        assert!(det[2].is_none());
        assert!(det[3].is_none());
    }

    #[test]
    fn paths_recorded_and_consistent() {
        let g = gen::path(5);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(5);
        let cm = ClusterMemory::trivial(5, true);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 3.5,
            hop_limit: 8,
            record_paths: true,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(10, &mut scratch, &mut led);
        // Record for source 3 at cluster 0 must carry a real 3→0 path.
        let rec = m
            .labels(0)
            .iter()
            .find(|l| l.src == 3)
            .expect("3 within 3.5");
        assert_eq!(rec.dist, 3.0);
        assert_eq!(rec.pw, 3.0);
        let mp = crate::path::path_materialize(rec.path.as_ref().unwrap());
        assert_eq!(mp.verts, vec![3, 2, 1, 0]);
        assert!((mp.weight() - rec.pw).abs() < 1e-9);
    }

    #[test]
    fn clustered_partition_uses_cluster_distances() {
        // Clusters {0,1} centered 0 and {3,4} centered 4, bridge 1-2-3;
        // cluster distance = d(1,3) = 2 < d(0,4) = 4.
        let g = gen::path(5);
        let view = UnionView::base_only(&g);
        let part = Partition {
            cluster_of: vec![Some(0), Some(0), None, Some(1), Some(1)],
            clusters: vec![
                crate::partition::Cluster {
                    center: 0,
                    members: vec![0, 1],
                },
                crate::partition::Cluster {
                    center: 4,
                    members: vec![3, 4],
                },
            ],
        };
        assert!(part.validate(5));
        let cm = ClusterMemory::trivial(5, false);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 2.5,
            hop_limit: 8,
            record_paths: false,
        };
        let mut led = Ledger::new();
        let mut scratch = ExploreScratch::new();
        let m = ex.detect_neighbors(5, &mut scratch, &mut led);
        // m for cluster 0 sees cluster 4 at distance 2 (via members 1 and 3).
        let rec = m
            .labels(0)
            .iter()
            .find(|l| l.src == 4)
            .expect("cluster neighbor");
        assert_eq!(rec.dist, 2.0);
    }

    #[test]
    fn flat_fast_path_matches_path_recording() {
        // Path-free and path-recording pulls share one chunk function and
        // differ only in how survivors materialize; their (src, dist, pw)
        // projections must be bit-identical on every vertex, end to end.
        let g = gen::gnm_connected(80, 220, 13, 1.0, 4.0);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(g.num_vertices());
        let run = |record_paths: bool| {
            let cm = ClusterMemory::trivial(g.num_vertices(), record_paths);
            let exec = Executor::new(2);
            let ex = Explorer {
                exec: &exec,
                view: &view,
                part: &part,
                cm: &cm,
                threshold: 5.0,
                hop_limit: 12,
                record_paths,
            };
            let mut led = Ledger::new();
            let mut scratch = ExploreScratch::new();
            ex.detect_neighbors(6, &mut scratch, &mut led)
        };
        let flat = run(false);
        let with_paths = run(true);
        for (v, (a, b)) in flat.iter_lists().zip(with_paths.iter_lists()).enumerate() {
            assert!(labels_equal(a, b), "vertex {v} diverged");
            assert!(a.iter().all(|l| l.path.is_none()));
            assert!(b.iter().all(|l| l.path.is_some()));
        }
    }

    #[test]
    fn determinism_across_thread_counts() {
        // The engine's reductions are order-independent, so full label
        // tables must be identical whatever the executor's thread count —
        // here actually varied by constructing explorers over executors of
        // different sizes (not just run twice at one count).
        let g = gen::gnm_connected(60, 150, 2, 1.0, 3.0);
        let (view, part, cm) = exploration_setup(&g);
        let run = |threads: usize| {
            let exec = Executor::new(threads);
            let ex = Explorer {
                exec: &exec,
                view: &view,
                part: &part,
                cm: &cm,
                threshold: 4.0,
                hop_limit: 10,
                record_paths: false,
            };
            let mut l = Ledger::new();
            let mut scratch = ExploreScratch::new();
            (ex.detect_neighbors(4, &mut scratch, &mut l), l)
        };
        let (a, l1) = run(1);
        for threads in [2usize, 4, 8] {
            let (b, l) = run(threads);
            for (x, y) in a.iter_lists().zip(b.iter_lists()) {
                assert!(labels_equal(x, y), "threads={threads}");
            }
            assert_eq!(l, l1);
        }
    }

    #[test]
    fn scratch_reuse_is_observably_identical() {
        // One scratch carried across calls (the hot-loop pattern) must give
        // the same answers as a fresh scratch per call.
        let g = gen::gnm_connected(40, 100, 5, 1.0, 3.0);
        let (view, part, cm) = exploration_setup(&g);
        let exec = exec();
        let ex = Explorer {
            exec: &exec,
            view: &view,
            part: &part,
            cm: &cm,
            threshold: 3.0,
            hop_limit: 8,
            record_paths: false,
        };
        let mut reused = ExploreScratch::new();
        for x in [2usize, 5, 3] {
            let mut l1 = Ledger::new();
            let mut l2 = Ledger::new();
            let with_reuse = ex.detect_neighbors(x, &mut reused, &mut l1);
            let fresh = ex.detect_neighbors(x, &mut ExploreScratch::new(), &mut l2);
            for (a, b) in with_reuse.iter_lists().zip(fresh.iter_lists()) {
                assert!(labels_equal(a, b), "x={x}");
            }
            assert_eq!(l1, l2, "x={x}");
            // And the BFS variant, interleaved on the same scratch.
            let mut l3 = Ledger::new();
            let mut l4 = Ledger::new();
            let d1 = ex.bfs(&[0, 7], 4, &mut reused, &mut l3);
            let d2 = ex.bfs(&[0, 7], 4, &mut ExploreScratch::new(), &mut l4);
            for (a, b) in d1.iter().zip(&d2) {
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!((x.src_cluster, x.pulse), (y.src_cluster, y.pulse));
                        assert_eq!(x.pw.to_bits(), y.pw.to_bits());
                    }
                    _ => panic!("detection presence mismatch"),
                }
            }
            assert_eq!(l3, l4);
        }
    }

    #[test]
    fn params_integrate_with_explorer() {
        let p = HopsetParams::new(64, 0.25, 4, 0.3, ParamMode::Practical, 64.0, None).unwrap();
        assert!(p.hop_limit <= 64);
        assert!(p.degrees[0] >= 2);
    }

    // ---- Both kernels, pinned to the full pull ------------------------

    thread_local! {
        /// Routes every propagation through [`propagate_full_pull`].
        pub(super) static FULL_PULL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// The full pull, the reference both kernels are pinned to: in each
    /// step, every vertex with a changed neighbor reduces its own records
    /// and all of its neighbors' relaxed records with Algorithm 3. It
    /// leans on no frontier lemma, and it charges the ledger as the
    /// kernels do.
    pub(super) fn propagate_full_pull(
        ex: &Explorer,
        scratch: &mut ExploreScratch,
        x: usize,
        ledger: &mut Ledger,
    ) {
        let n = ex.view.num_vertices();
        let labels = &mut scratch.labels;
        let mut changed: Vec<bool> = (0..n).map(|v| labels.len_of(v) > 0).collect();
        let mut reduce = ReduceScratch::new();
        for _step in 0..ex.hop_limit {
            if !changed.contains(&true) {
                break;
            }
            ex.charge_step(x, ledger);
            let mut next: Vec<Option<Vec<Label>>> = vec![None; n];
            for (v, new) in next.iter_mut().enumerate() {
                let vid = v as VId;
                if !ex.view.neighbors(vid).any(|(u, _, _)| changed[u as usize]) {
                    continue;
                }
                let mut cands = labels.labels(v).to_vec();
                for (u, w, tag) in ex.view.neighbors(vid) {
                    for l in labels.labels(u as usize) {
                        let dist = l.dist + w;
                        if dist <= ex.threshold {
                            let path =
                                (l.path.as_ref()).map(|p| path_extend(p, vid, ex.mem_edge(tag), w));
                            let pw = l.pw + w;
                            cands.push(Label {
                                src: l.src,
                                dist,
                                pw,
                                path,
                            });
                        }
                    }
                }
                reduce_labels_in_place_scratch(&mut cands, x, &mut reduce);
                *new = Some(cands);
            }
            for (v, new) in next.into_iter().enumerate() {
                changed[v] = new.is_some_and(|new| {
                    let differs = !labels_equal(&new, labels.labels(v));
                    labels.set_list(v, new.into_iter());
                    differs
                });
            }
        }
    }

    /// Run `f` with every propagation routed through the full pull.
    fn with_pull_reference<R>(f: impl FnOnce() -> R) -> R {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                FULL_PULL.with(|c| c.set(false));
            }
        }
        FULL_PULL.with(|c| c.set(true));
        let _reset = Reset;
        f()
    }

    /// A materialized memory path as plain data (weights as bits).
    type PathPrint = (Vec<VId>, Vec<(MemEdge, u64)>);

    /// A detection as `(src_cluster, src_center, pulse, pw bits, path)`.
    type DetectionPrint = (u32, VId, usize, u64, Option<PathPrint>);

    /// A label as `(src, dist bits, pw bits, path)`.
    type LabelPrint = (VId, u64, u64, Option<PathPrint>);

    fn path_print(p: &Option<PathHandle>) -> Option<PathPrint> {
        p.as_ref().map(|h| {
            let mp = crate::path::path_materialize(h);
            let links = mp.links.iter().map(|&(e, w)| (e, w.to_bits())).collect();
            (mp.verts, links)
        })
    }

    /// Everything the `x = 1` explorations expose, as comparable data:
    /// `bfs` detections, `detect_neighbors(1)` lists, the ruling set with
    /// its trace, `verify_ruling`'s answer, and one ledger per call.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        bfs: Vec<Option<DetectionPrint>>,
        detect: Vec<Vec<LabelPrint>>,
        ruling: Vec<u32>,
        trace: Vec<(usize, usize, usize, usize, usize)>,
        verify: Option<(usize, usize)>,
        ledgers: Vec<Ledger>,
    }

    /// One exploration instance. Non-center members reach their center
    /// through a cluster-memory detour that walks the grid row first,
    /// then the column (`cols` is the grid width; 0 for singletons).
    struct Case {
        name: &'static str,
        g: Graph,
        extra: Vec<(VId, VId, Weight)>,
        part: Partition,
        cols: usize,
        threshold: Weight,
        sources: Vec<u32>,
        pulses: usize,
        verify: bool,
    }

    impl Case {
        fn singletons(name: &'static str, g: Graph, threshold: Weight, sources: Vec<u32>) -> Case {
            Case {
                name,
                part: Partition::singletons(g.num_vertices()),
                g,
                extra: Vec::new(),
                cols: 0,
                threshold,
                sources,
                pulses: 3,
                verify: true,
            }
        }

        fn memory(&self, record_paths: bool) -> ClusterMemory {
            let mut cm = ClusterMemory::trivial(self.g.num_vertices(), record_paths);
            for cl in &self.part.clusters {
                for &v in &cl.members {
                    if v == cl.center {
                        continue;
                    }
                    let path = self.grid_detour(v, cl.center);
                    cm.extend(v, record_paths.then_some(&path), path.weight());
                }
            }
            cm
        }

        fn grid_detour(&self, v: VId, center: VId) -> crate::path::MemoryPath {
            let cols = self.cols as VId;
            let mut verts = vec![v];
            let mut cur = v;
            while cur % cols != center % cols {
                cur = if cur % cols > center % cols {
                    cur - 1
                } else {
                    cur + 1
                };
                verts.push(cur);
            }
            while cur != center {
                cur = if cur > center { cur - cols } else { cur + cols };
                verts.push(cur);
            }
            let links = verts
                .windows(2)
                .map(|e| {
                    let w = self.g.edge_weight(e[0], e[1]).expect("grid edge");
                    (MemEdge::Base, w)
                })
                .collect();
            crate::path::MemoryPath { verts, links }
        }

        /// Run `f` on an explorer over this case.
        fn explore<R>(
            &self,
            threads: usize,
            record_paths: bool,
            hop_limit: usize,
            f: impl FnOnce(&Explorer) -> R,
        ) -> R {
            let exec = Executor::new(threads);
            let view = UnionView::with_extra(&self.g, &self.extra);
            let cm = self.memory(record_paths);
            f(&Explorer {
                exec: &exec,
                view: &view,
                part: &self.part,
                cm: &cm,
                threshold: self.threshold,
                hop_limit,
                record_paths,
            })
        }

        fn run(&self, threads: usize, record_paths: bool, hop_limit: usize) -> Outcome {
            self.explore(threads, record_paths, hop_limit, |ex| {
                let mut scratch = ExploreScratch::new();
                let mut ledgers = vec![Ledger::new(); 4];
                let det = ex.bfs(&self.sources, self.pulses, &mut scratch, &mut ledgers[0]);
                let bfs = det
                    .iter()
                    .map(|d| {
                        d.as_ref().map(|d| {
                            let path = path_print(&d.path);
                            (d.src_cluster, d.src_center, d.pulse, d.pw.to_bits(), path)
                        })
                    })
                    .collect();
                let m = ex.detect_neighbors(1, &mut scratch, &mut ledgers[1]);
                let detect = lists_print(&m);
                let w_set: Vec<u32> = (0..self.part.len() as u32).collect();
                let mut trace = crate::ruling::RulingTrace::default();
                let ruling = crate::ruling::ruling_set(
                    ex,
                    &w_set,
                    &mut scratch,
                    &mut ledgers[2],
                    Some(&mut trace),
                );
                let verify = self.verify.then(|| {
                    crate::ruling::verify_ruling(
                        ex,
                        &ruling,
                        &w_set,
                        4,
                        &mut scratch,
                        &mut ledgers[3],
                    )
                });
                let trace = trace
                    .levels
                    .iter()
                    .map(|l| {
                        (
                            l.level,
                            l.sources,
                            l.candidates,
                            l.knocked_out,
                            l.alive_after,
                        )
                    })
                    .collect();
                Outcome {
                    bfs,
                    detect,
                    ruling,
                    trace,
                    verify,
                    ledgers,
                }
            })
        }

        /// Pin the push kernel to the pull reference at threads 1/2/4/8,
        /// with and without paths, at every hop limit in `hop_limits`.
        fn assert_push_matches_pull(&self, hop_limits: impl Iterator<Item = usize> + Clone) {
            for record_paths in [false, true] {
                for hop_limit in hop_limits.clone() {
                    let reference = with_pull_reference(|| self.run(1, record_paths, hop_limit));
                    for threads in [1usize, 2, 4, 8] {
                        let got = self.run(threads, record_paths, hop_limit);
                        assert!(
                            got == reference,
                            "{}: threads={threads} record_paths={record_paths} \
                             hop_limit={hop_limit}\n push: {got:?}\n pull: {reference:?}",
                            self.name
                        );
                    }
                }
            }
        }

        /// `detect_neighbors(x)`: every `m(C)` with its memory paths, and
        /// the ledger.
        fn detect(
            &self,
            threads: usize,
            record_paths: bool,
            hop_limit: usize,
            x: usize,
        ) -> (Vec<Vec<LabelPrint>>, Ledger) {
            self.explore(threads, record_paths, hop_limit, |ex| {
                let mut ledger = Ledger::new();
                let m = ex.detect_neighbors(x, &mut ExploreScratch::new(), &mut ledger);
                (lists_print(&m), ledger)
            })
        }

        /// Pin `detect_neighbors(x)` under the merge kernel to the full
        /// pull for every `x` in `xs`, at threads 1/2/4/8, with and without
        /// paths, at every hop limit in `1..=max_hops`. The full pull must
        /// have converged before `max_hops`.
        fn assert_merge_matches_pull(&self, max_hops: usize, xs: &[usize]) {
            for &x in xs {
                assert!(x >= 2, "x = 1 takes the push kernel");
                for record_paths in [false, true] {
                    let mut previous = None;
                    let mut converged = false;
                    for hop_limit in 1..=max_hops {
                        let reference =
                            with_pull_reference(|| self.detect(1, record_paths, hop_limit, x));
                        for threads in [1usize, 2, 4, 8] {
                            let got = self.detect(threads, record_paths, hop_limit, x);
                            assert!(
                                got == reference,
                                "{}: x={x} threads={threads} record_paths={record_paths} \
                                 hop_limit={hop_limit}\n merge: {got:?}\n pull: {reference:?}",
                                self.name
                            );
                        }
                        converged = previous.as_ref() == Some(&reference);
                        previous = Some(reference);
                    }
                    assert!(
                        converged,
                        "{}: x={x} has not converged within {max_hops} hops",
                        self.name
                    );
                }
            }
        }

        /// Unit weights: distance ties everywhere, so the adjacency-order
        /// tie-break decides every recorded path.
        fn unit_torus() -> Case {
            Case::singletons("unit torus", gen::torus(8, 8), 4.0, vec![0, 27, 45])
        }

        fn unit_grid() -> Case {
            Case::singletons("unit grid", gen::unit_grid(7, 9), 3.0, vec![4, 40])
        }

        /// 0–2 costs 10 but 0–1–2 costs 4, so at step 2 vertex 2 improves
        /// while its step-1 label still reaches 3 first.
        fn shortcut() -> Case {
            let g = Graph::from_edges(4, [(0, 2, 10.0), (0, 1, 2.0), (1, 2, 2.0), (2, 3, 1.0)])
                .unwrap();
            Case::singletons("shortcut", g, 20.0, vec![0])
        }

        fn weighted_gnm() -> Case {
            let g = gen::gnm_connected(48, 120, 7, 1.0, 10.0);
            let sources = (0..48).step_by(5).collect();
            Case::singletons("weighted gnm", g, 15.0, sources)
        }

        /// The shape of H_{k-1}: a hub adjacent to every vertex (degree
        /// n − 1) over a unit torus. Star edges to 6 and 30 parallel base
        /// edges of equal weight, (0, 7) and (3, 20) are doubled in the
        /// overlay, so base-before-overlay and overlay-index ties decide.
        fn star_overlay() -> Case {
            let g = gen::torus(6, 6);
            let mut extra: Vec<(VId, VId, Weight)> =
                (1..36).map(|v| (0, v, 1.0 + (v % 3) as Weight)).collect();
            extra.extend([(0, 7, 2.0), (3, 20, 2.0), (3, 20, 2.0), (10, 25, 1.5)]);
            let mut case = Case::singletons("star overlay", g, 3.0, vec![3, 17, 29]);
            case.extra = extra;
            case
        }

        /// 2×2 clusters centered at their top-left corner on a 9×8 unit
        /// grid; the last row stays unclustered and only relays. Members
        /// seed with their detour weight, and in path mode every seed and
        /// every aggregation splices the detour in.
        fn clustered() -> Case {
            let (rows, cols) = (9usize, 8usize);
            let g = gen::unit_grid(rows, cols);
            let id = |r: usize, c: usize| (r * cols + c) as VId;
            let mut cluster_of = vec![None; rows * cols];
            let mut clusters = Vec::new();
            for br in (0..rows - 1).step_by(2) {
                for bc in (0..cols).step_by(2) {
                    let mut members = vec![
                        id(br, bc),
                        id(br, bc + 1),
                        id(br + 1, bc),
                        id(br + 1, bc + 1),
                    ];
                    members.sort_unstable();
                    for &m in &members {
                        cluster_of[m as usize] = Some(clusters.len() as u32);
                    }
                    clusters.push(crate::partition::Cluster {
                        center: id(br, bc),
                        members,
                    });
                }
            }
            let part = Partition {
                cluster_of,
                clusters,
            };
            assert!(part.validate(rows * cols));
            Case {
                name: "clustered",
                g,
                extra: vec![(0, 30, 2.0), (5, 50, 3.0)],
                part,
                cols,
                threshold: 4.5,
                sources: vec![0, 5, 14],
                pulses: 3,
                verify: true,
            }
        }

        /// A first frontier of at least PAR_THRESHOLD vertices: every
        /// vertex seeds `detect_neighbors`, and the BFS sources cover all
        /// but every 37th cluster. At two or more threads those steps
        /// split into several chunks.
        fn chunked() -> Case {
            let g = gen::unit_grid(66, 66);
            let n = g.num_vertices();
            let sources: Vec<u32> = (0..n as u32).filter(|c| c % 37 != 0).collect();
            assert!(sources.len() >= pram::pool::PAR_THRESHOLD);
            assert!(Executor::new(2).round_bounds(sources.len()).len() > 1);
            let mut case = Case::singletons("chunked", g, 2.5, sources);
            case.pulses = 2;
            case.verify = false;
            case
        }
    }

    /// Every list of `m` as comparable data.
    fn lists_print(m: &LabelArena) -> Vec<Vec<LabelPrint>> {
        m.iter_lists()
            .map(|list| {
                list.iter()
                    .map(|l| (l.src, l.dist.to_bits(), l.pw.to_bits(), path_print(&l.path)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn push_kernel_matches_pull_on_unit_grids_and_tori() {
        Case::unit_torus().assert_push_matches_pull(1..=10);
        Case::unit_grid().assert_push_matches_pull(1..=8);
    }

    #[test]
    fn push_kernel_matches_pull_on_weighted_graphs() {
        // Random weights make labels arrive in hop order, not distance
        // order: a vertex can improve in consecutive steps while its older
        // label's offer still wins a neighbor. That winner's path must
        // extend the older label, not the one written in the same step.
        Case::shortcut().assert_push_matches_pull(1..=4);
        Case::weighted_gnm().assert_push_matches_pull(1..=12);
    }

    #[test]
    fn push_kernel_matches_pull_on_a_star_overlay() {
        Case::star_overlay().assert_push_matches_pull(1..=6);
    }

    #[test]
    fn push_kernel_matches_pull_on_clustered_partitions() {
        Case::clustered().assert_push_matches_pull(1..=9);
    }

    #[test]
    fn push_kernel_chunked_fold_matches_pull() {
        // At two or more threads the chunk-order fold really runs.
        Case::chunked().assert_push_matches_pull([1usize, 2, 3, 6].into_iter());
    }

    // ---- The x ≥ 2 merge kernel, pinned to the full pull --------------
    //
    // Each case runs x = 2, 3, 5 and an x no list can fill (at least the
    // cluster count, or the number of sources within the threshold).

    #[test]
    fn merge_kernel_matches_pull_on_unit_grids_and_tori() {
        Case::unit_torus().assert_merge_matches_pull(7, &[2, 3, 5, 64]);
        Case::unit_grid().assert_merge_matches_pull(6, &[2, 3, 5, 63]);
    }

    #[test]
    fn merge_kernel_matches_pull_on_weighted_graphs() {
        Case::shortcut().assert_merge_matches_pull(5, &[2, 3, 5, 4]);
        Case::weighted_gnm().assert_merge_matches_pull(12, &[2, 3, 5, 48]);
    }

    #[test]
    fn merge_kernel_matches_pull_on_a_star_overlay() {
        Case::star_overlay().assert_merge_matches_pull(6, &[2, 3, 5, 36]);
    }

    #[test]
    fn merge_kernel_matches_pull_on_clustered_partitions() {
        Case::clustered().assert_merge_matches_pull(8, &[2, 3, 5, 16]);
    }

    #[test]
    fn merge_kernel_chunked_rounds_match_pull() {
        // 4 356 clusters, but at most 13 sources lie within 2.5 of any
        // vertex, so x = 16 never fills a list.
        Case::chunked().assert_merge_matches_pull(4, &[2, 3, 5, 16]);
    }

    #[test]
    fn merge_kernel_ranks_relaxed_ties_by_source() {
        // Sources 9 and 3 reach vertex 1 at 1.0 and 1.0 + 2⁻⁵², so 1's
        // list holds 9 before 3. Over the unit edge 1–2 both arrive at 2
        // as exactly 2.0, where 3 must rank first. Vertex 2 hears of 5 at
        // 2.0 through 0 before 1, and of 4 at 2.0 through 6 after it.
        // With x = 5 its list is full when 9 arrives, 9 ranks after the
        // last record, and 3 must still displace 5. With x = 6, 9 enters
        // and 3 must go in front of it, or 4 would be cut.
        let ulp = Weight::EPSILON;
        assert_eq!((1.0 + ulp) + 1.0, 2.0);
        let edges = [
            (5, 0, 1.0),
            (0, 2, 1.0),
            (9, 1, 1.0),
            (3, 1, 1.0 + ulp),
            (1, 2, 1.0),
            (4, 6, 1.0),
            (6, 2, 1.0),
        ];
        let g = Graph::from_edges(10, edges).unwrap();
        let case = Case::singletons("relaxed ties", g, 2.5, vec![]);
        case.assert_merge_matches_pull(5, &[2, 3, 4, 5, 6, 10]);
        let srcs = |x: usize| -> Vec<VId> {
            let (m, _) = case.detect(2, false, 5, x);
            m[2].iter().map(|l| l.0).collect()
        };
        assert_eq!(srcs(5), vec![2, 0, 1, 6, 3]);
        assert_eq!(srcs(6), vec![2, 0, 1, 6, 3, 4]);
        assert_eq!(srcs(10), vec![2, 0, 1, 6, 3, 4, 5, 9]);
    }

    #[test]
    fn merge_kernel_lightens_the_last_record_at_equal_rank() {
        // Cluster {0, 1} centered at 0 (member 1 seeds with its 1.0
        // detour) and cluster {4}; 3 only relays. Vertex 4 hears of
        // cluster 0 at 1.0 through 1 first (pw 2.0), then at 1.0 through
        // 3 (pw 1.0). With x = 2 that record is the last of a full list,
        // and the lighter one must replace it.
        let g = Graph::from_edges(5, [(0, 1, 1.0), (0, 3, 0.5), (1, 4, 1.0), (3, 4, 0.5)]).unwrap();
        let cluster = |center, members| crate::partition::Cluster { center, members };
        let part = Partition {
            cluster_of: vec![Some(0), Some(0), None, None, Some(1)],
            clusters: vec![cluster(0, vec![0, 1]), cluster(4, vec![4])],
        };
        assert!(part.validate(5));
        let mut case = Case::singletons("lighter last record", g, 2.5, vec![]);
        (case.part, case.cols) = (part, 3);
        case.assert_merge_matches_pull(4, &[2, 3, 4]);
        let (m, _) = case.detect(2, false, 4, 2);
        let one = 1.0f64.to_bits();
        let last = m[1].last().map(|l| (l.0, l.1, l.2));
        assert_eq!(last, Some((0, one, one)));
    }
}
