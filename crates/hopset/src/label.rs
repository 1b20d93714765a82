//! Bounded label sets — the `m(·)`/`L(·)` arrays of Algorithm 2.
//!
//! A [`Label`] is one record `⟨source cluster, distance⟩` plus the realized
//! path bookkeeping this implementation adds:
//!
//! * `dist` — the hop-and-threshold-bounded distance of the paper (what
//!   popularity, neighborhood and detection decisions read);
//! * `pw` — the weight of the *actual* path realizing the record, including
//!   the cluster-memory detours through centers (§4.3). Always `≥ dist`.
//!   Practical-mode edge weights use `pw` directly (a real path weight can
//!   never undercut a true distance — the Lemma 2.3/2.9 guarantee holds by
//!   construction instead of by radius arithmetic);
//! * `path` — the path itself, only in path-reporting mode.
//!
//! [`reduce_labels_in_place_scratch`] implements Algorithm 3 ("Sort Array"): sort by
//! source (ties by distance), drop duplicate sources, re-sort by distance
//! (ties by id), keep the best `x` — **in place** on the caller's buffer, so
//! a caller looping over candidate sets never allocates per set. It serves
//! the `m(C)` aggregation of detection and the full-pull reference the
//! exploration tests pin both kernels to; the propagation steps themselves
//! no longer sort (`virtual_bfs`: the `x = 1` push kernel keeps a
//! per-target minimum, the `x ≥ 2` pull merges into a bounded list under
//! the same order).
//!
//! PR 9 reshaped the reduction for the hardware: instead of two
//! comparator sorts over 32-byte `Label` records (pointer-heavy, branchy
//! comparators), the hot path precomputes one **packed integer key** per
//! candidate — `src·2⁹⁶ | dist_bits·2³² | index` — and runs a single
//! `sort_unstable` over plain `u128`s (branchless three-instruction
//! comparisons, labels never move during the sort). Source-dedup becomes a
//! linear scan over sorted keys, and the final rank order is a second
//! integer sort over the (much smaller) survivor set. The retired
//! implementation survives as [`reduce_labels_two_sort`], and proptests pin
//! the packed path to it record-for-record. `dist`/`pw` are non-negative
//! finite, so `f64::to_bits` is order-monotone — the same argument the
//! two-sort comparators already relied on.
//!
//! [`LabelArena`] is the flat backing store for per-vertex (and
//! per-cluster) label lists: one `n·x` slot buffer plus a per-vertex length
//! array. It is legal precisely because Algorithm 3 caps every reduced list
//! at `x` records; the capacity rule and why determinism survives the
//! layout are documented in DESIGN.md §8.

use crate::path::PathHandle;
use pgraph::{VId, Weight};

/// One exploration record.
#[derive(Clone, Debug)]
pub struct Label {
    /// Source cluster id (= its center's vertex id, §1.5).
    pub src: VId,
    /// Bounded distance from the source cluster (the paper's record value).
    pub dist: Weight,
    /// Weight of the realized path (≥ `dist`; includes center detours).
    pub pw: Weight,
    /// The realized path (ends at the current holder), when recording.
    pub path: Option<PathHandle>,
}

impl Label {
    /// Key for duplicate elimination: group by source, best (dist, pw) first.
    #[inline]
    fn dedup_key(&self) -> (VId, u64, u64) {
        (self.src, self.dist.to_bits(), self.pw.to_bits())
    }

    /// Key for final ranking: nearest source first, ties by id (Algorithm 3
    /// line 5: "sort according to distances, break ties by IDs").
    #[inline]
    fn rank_key(&self) -> (u64, VId) {
        (self.dist.to_bits(), self.src)
    }
}

/// The retired two-keyed-sort implementation of Algorithm 3 — kept as the
/// **pinned reference** for the packed-key fast path (proptests assert the
/// two agree record-for-record on `(src, dist, pw)`). Deduplicate by
/// source keeping the best record, rank by `(dist, src)`, truncate to `x`.
/// Both sorts are unstable (keys are total orders; after source-dedup the
/// rank key `(dist, src)` is unique, and the dedup key `(src, dist, pw)`
/// fully determines every paper-visible field — candidates that tie on all
/// three can differ only in their recorded path, and whichever survives
/// realizes the same `pw`).
pub fn reduce_labels_two_sort(cands: &mut Vec<Label>, x: usize) {
    if cands.is_empty() {
        return;
    }
    cands.sort_unstable_by_key(Label::dedup_key);
    cands.dedup_by(|b, a| b.src == a.src); // keeps first = best per source
    cands.sort_unstable_by_key(Label::rank_key);
    cands.truncate(x);
}

/// Low 32 bits of a packed key: the candidate's index in the input buffer.
const IDX_MASK: u128 = u32::MAX as u128;

/// Dedup-stage key: `src·2⁹⁶ | dist_bits·2³² | index`. Sorting these
/// groups candidates by source, orders each group by distance, and keeps
/// the original index recoverable for the gather. `pw` does not fit —
/// the min-`pw` tiebreak among equal `(src, dist)` is resolved by a
/// linear scan of the (almost always length-1) tie run instead.
#[inline]
fn dedup_pack(src: VId, dist: Weight, idx: usize) -> u128 {
    ((src as u128) << 96) | ((dist.to_bits() as u128) << 32) | idx as u128
}

/// Reusable buffers for the packed-key reduction. One instance per
/// parallel chunk (the `m(C)` aggregation keeps it beside the candidate
/// buffer), so the reduction allocates nothing per candidate set.
#[derive(Default)]
pub struct ReduceScratch {
    /// Packed keys, reused for the dedup sort and then the rank sort.
    keys: Vec<u128>,
    /// Survivor gather buffer.
    tmp: Vec<Label>,
}

impl ReduceScratch {
    /// Empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Core of the packed-key reduction: given dedup keys for `n`
/// candidates and a `pw`-by-index accessor, leave in `keys[..r]` the `≤ x`
/// survivors' **rank** keys (`dist_bits·2⁶⁴ | src·2³² | index`) in final
/// rank order, returning `r`.
#[inline]
fn reduce_keys(
    keys: &mut Vec<u128>,
    n: usize,
    x: usize,
    pw_bits_of: impl Fn(usize) -> u64,
) -> usize {
    keys.sort_unstable();
    // Source-dedup scan: one survivor per run of equal top-32 bits. The
    // run's head has the minimal distance; ties on (src, dist) — equal
    // top-96 bits — resolve to the minimal (pw, index), matching the
    // reference's (src, dist, pw) dedup key. Survivor rank keys are
    // written back into the prefix (`w` never passes the read cursor).
    let mut w = 0usize;
    let mut i = 0usize;
    while i < n {
        let src_bits = keys[i] >> 96;
        let top96 = keys[i] >> 32;
        let mut best_idx = (keys[i] & IDX_MASK) as usize;
        let mut best_pw = pw_bits_of(best_idx);
        let mut j = i + 1;
        while j < n && keys[j] >> 32 == top96 {
            let idx = (keys[j] & IDX_MASK) as usize;
            let pwb = pw_bits_of(idx);
            if (pwb, idx) < (best_pw, best_idx) {
                best_pw = pwb;
                best_idx = idx;
            }
            j += 1;
        }
        // Skip the rest of this source's run (worse distances).
        while j < n && keys[j] >> 96 == src_bits {
            j += 1;
        }
        let dist_bits = (keys[i] >> 32) as u64;
        keys[w] = ((dist_bits as u128) << 64) | (src_bits << 32) | best_idx as u128;
        w += 1;
        i = j;
    }
    keys.truncate(w);
    // Rank sort: (dist, src) is unique after dedup, so the index bits
    // never decide the order — they just ride along for the gather.
    keys.sort_unstable();
    let r = x.min(w);
    keys.truncate(r);
    r
}

/// Algorithm 3 via one packed-integer-key sort (see the module docs), in
/// place on the caller's buffer with explicit scratch — the hot-path
/// entry. Bit-identical to [`reduce_labels_two_sort`] on every
/// paper-visible field; fully deterministic (a pure function of the
/// candidate sequence, which callers produce deterministically:
/// self-labels first, then neighbors in adjacency order).
pub fn reduce_labels_in_place_scratch(
    cands: &mut Vec<Label>,
    x: usize,
    scratch: &mut ReduceScratch,
) {
    let n = cands.len();
    if n == 0 {
        return;
    }
    assert!(
        n <= u32::MAX as usize,
        "candidate index must fit the packed key"
    );
    let keys = &mut scratch.keys;
    keys.clear();
    keys.extend(
        cands
            .iter()
            .enumerate()
            .map(|(i, l)| dedup_pack(l.src, l.dist, i)),
    );
    let r = reduce_keys(keys, n, x, |idx| cands[idx].pw.to_bits());
    let tmp = &mut scratch.tmp;
    tmp.clear();
    tmp.extend(
        keys[..r]
            .iter()
            .map(|&k| cands[(k & IDX_MASK) as usize].clone()),
    );
    // `r ≤ n ≤ cands.capacity()`: clear + append never reallocates.
    cands.clear();
    cands.append(tmp);
}

/// True if two label lists agree on the paper-visible fields (src, dist) and
/// the realized weights — used for fixpoint detection.
pub fn labels_equal(a: &[Label], b: &[Label]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.src == y.src && x.dist == y.dist && x.pw == y.pw)
}

/// Flat backing store for `n` bounded label lists: one `n·x` slot buffer
/// (`slots`) plus a per-list length array (`lens`). List `i` occupies
/// `slots[i·x .. i·x + lens[i]]` — a fixed stride, legal because every
/// reduced list holds at most `x` records (Algorithm 3's cap).
///
/// This replaces the `Vec<Vec<Label>>` tables of the exploration engine:
/// resetting is an `O(n)` length clear (allocations are retained), reading
/// a list is a slice, and writing a list overwrites its region in place —
/// no per-vertex heap allocation anywhere in the pulse loop.
///
/// Capacity rule: `reset(n, x)` sizes the buffer to `n·x` slots. The
/// construction's `x` is `deg_i + 1` during detection (`O(n^{1/κ})`), `1`
/// during BFS pulses, and `|P_ℓ| ≤ n^ρ` in the final interconnection phase,
/// so the arena is `O(n^{1+max(1/κ, ρ)})` slots at worst — the same
/// asymptotic budget as the hopset itself (eq. (10)). Slots beyond a list's
/// length may hold stale records from earlier pulses; they are never read
/// (every read goes through `lens`) and are overwritten on the next write
/// to that list.
#[derive(Debug, Default)]
pub struct LabelArena {
    slots: Vec<Label>,
    lens: Vec<u32>,
    x: usize,
}

impl LabelArena {
    /// An empty arena (buffers grow on first [`LabelArena::reset`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear to `n` empty lists of capacity `x` each, retaining allocations
    /// where possible. `x` clamps to at least 1.
    ///
    /// Path-handle hygiene: together with [`LabelArena::set_list`]'s
    /// gap-clearing, the arena maintains the invariant that slots at or
    /// beyond a list's length hold no `PathHandle` — so resetting (an
    /// `O(used)` pass) releases every retained path chain, exactly like the
    /// retired per-list `Vec::clear` did, instead of pinning path DAGs
    /// until a slot happens to be overwritten.
    pub fn reset(&mut self, n: usize, x: usize) {
        // Drop the used prefixes' path handles before the lengths go away.
        for i in 0..self.lens.len() {
            let base = i * self.x;
            for slot in &mut self.slots[base..base + self.lens[i] as usize] {
                slot.path = None;
            }
        }
        let x = x.max(1);
        self.x = x;
        let cap = n.checked_mul(x).expect("label arena capacity overflow");
        self.slots.truncate(cap);
        if self.slots.len() < cap {
            let filler = Label {
                src: 0,
                dist: 0.0,
                pw: 0.0,
                path: None,
            };
            self.slots.resize(cap, filler);
        }
        self.lens.clear();
        self.lens.resize(n, 0);
    }

    /// Number of lists.
    #[inline]
    pub fn num_lists(&self) -> usize {
        self.lens.len()
    }

    /// The per-list capacity `x` of the current reset.
    #[inline]
    pub fn x(&self) -> usize {
        self.x
    }

    /// The current length of list `i`.
    #[inline]
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i] as usize
    }

    /// List `i` as a slice.
    #[inline]
    pub fn labels(&self, i: usize) -> &[Label] {
        let base = i * self.x;
        &self.slots[base..base + self.lens[i] as usize]
    }

    /// Append one record to list `i`. Panics if the list is full — callers
    /// only push reduced (≤ `x`) content.
    pub fn push(&mut self, i: usize, l: Label) {
        let len = self.lens[i] as usize;
        assert!(
            len < self.x,
            "label list {i} exceeds arena capacity x = {}",
            self.x
        );
        self.slots[i * self.x + len] = l;
        self.lens[i] = len as u32 + 1;
    }

    /// Overwrite list `i` with the first ≤ `x` items of `items` (panics if
    /// more arrive — reduced lists never do). A shrinking overwrite drops
    /// the outgoing tail's path handles (see [`LabelArena::reset`]).
    pub fn set_list(&mut self, i: usize, items: impl Iterator<Item = Label>) {
        let base = i * self.x;
        let old = self.lens[i] as usize;
        let mut len = 0usize;
        for l in items {
            assert!(
                len < self.x,
                "label list {i} exceeds arena capacity x = {}",
                self.x
            );
            self.slots[base + len] = l;
            len += 1;
        }
        for slot in &mut self.slots[base + len..base + old.max(len)] {
            slot.path = None;
        }
        self.lens[i] = len as u32;
    }

    /// Iterate all lists in index order.
    pub fn iter_lists(&self) -> impl Iterator<Item = &[Label]> + '_ {
        (0..self.num_lists()).map(move |i| self.labels(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(src: VId, dist: Weight) -> Label {
        Label {
            src,
            dist,
            pw: dist,
            path: None,
        }
    }

    /// Algorithm 3 on an owned candidate list, with a fresh scratch.
    fn reduce_labels(mut cands: Vec<Label>, x: usize) -> Vec<Label> {
        reduce_labels_in_place_scratch(&mut cands, x, &mut ReduceScratch::new());
        cands
    }

    #[test]
    fn dedup_keeps_min_distance_per_source() {
        let out = reduce_labels(vec![l(2, 5.0), l(1, 3.0), l(2, 1.0), l(1, 4.0)], 10);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].src, out[0].dist), (2, 1.0));
        assert_eq!((out[1].src, out[1].dist), (1, 3.0));
    }

    #[test]
    fn ranking_breaks_distance_ties_by_id() {
        let out = reduce_labels(vec![l(9, 2.0), l(4, 2.0), l(7, 1.0)], 10);
        let srcs: Vec<VId> = out.iter().map(|x| x.src).collect();
        assert_eq!(srcs, vec![7, 4, 9]);
    }

    #[test]
    fn truncation_to_x() {
        let out = reduce_labels((0..20).map(|i| l(i, i as f64)).collect(), 5);
        assert_eq!(out.len(), 5);
        assert_eq!(out.last().unwrap().src, 4);
    }

    #[test]
    fn equal_dist_pw_tiebreak_prefers_smaller_pw() {
        let mut a = l(3, 2.0);
        a.pw = 9.0;
        let mut b = l(3, 2.0);
        b.pw = 2.5;
        let out = reduce_labels(vec![a, b], 4);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pw, 2.5);
    }

    #[test]
    fn in_place_reuses_the_buffer() {
        let mut scratch = ReduceScratch::new();
        let mut buf = vec![l(2, 5.0), l(1, 3.0), l(2, 1.0)];
        let cap = buf.capacity();
        reduce_labels_in_place_scratch(&mut buf, 10, &mut scratch);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.capacity(), cap, "no reallocation");
        // Reuse for the next candidate set, as the pulse loop does.
        buf.clear();
        buf.extend([l(5, 1.0), l(5, 0.5), l(6, 2.0)]);
        reduce_labels_in_place_scratch(&mut buf, 1, &mut scratch);
        assert_eq!(buf.len(), 1);
        assert_eq!((buf[0].src, buf[0].dist), (5, 0.5));
    }

    /// Deterministic mixed-shape candidate generator: duplicate sources,
    /// tied distances, tied (dist, pw) pairs — the shapes the dedup scan
    /// has to get right.
    fn mixed_cands(len: usize, seed: u64) -> Vec<Label> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let src = (state % 7) as VId;
            let dist = ((state >> 8) % 5) as Weight * 0.5;
            let pw = dist + ((state >> 16) % 3) as Weight;
            out.push(Label {
                src,
                dist,
                pw,
                path: None,
            });
        }
        out
    }

    #[test]
    fn packed_reduce_is_pinned_to_the_two_sort_reference() {
        let mut scratch = ReduceScratch::new();
        for len in 0..64usize {
            for x in [1usize, 2, 3, 7, 64] {
                let cands = mixed_cands(len, (len * 31 + x) as u64);
                let mut reference = cands.clone();
                reduce_labels_two_sort(&mut reference, x);
                let mut fast = cands;
                reduce_labels_in_place_scratch(&mut fast, x, &mut scratch);
                assert!(
                    labels_equal(&fast, &reference),
                    "len={len} x={x}: packed {:?} vs reference {:?}",
                    fast.iter()
                        .map(|l| (l.src, l.dist, l.pw))
                        .collect::<Vec<_>>(),
                    reference
                        .iter()
                        .map(|l| (l.src, l.dist, l.pw))
                        .collect::<Vec<_>>(),
                );
            }
        }
    }

    #[test]
    fn scratch_reduce_reuses_buffers_without_touching_cands_capacity() {
        let mut scratch = ReduceScratch::new();
        let mut buf = mixed_cands(40, 9);
        let cap = buf.capacity();
        reduce_labels_in_place_scratch(&mut buf, 5, &mut scratch);
        assert!(buf.len() <= 5);
        assert_eq!(buf.capacity(), cap, "no reallocation of the caller buffer");
        // Second use on the warmed scratch: key/tmp buffers are retained.
        let keys_cap = scratch.keys.capacity();
        buf.clear();
        buf.extend(mixed_cands(30, 11));
        reduce_labels_in_place_scratch(&mut buf, 3, &mut scratch);
        assert_eq!(scratch.keys.capacity(), keys_cap, "scratch buffers reused");
    }

    #[test]
    fn labels_equal_compares_fields() {
        assert!(labels_equal(&[l(1, 2.0)], &[l(1, 2.0)]));
        assert!(!labels_equal(&[l(1, 2.0)], &[l(1, 2.5)]));
        assert!(!labels_equal(&[l(1, 2.0)], &[]));
        let mut c = l(1, 2.0);
        c.pw = 3.0;
        assert!(!labels_equal(&[l(1, 2.0)], &[c]));
    }

    #[test]
    fn empty_input() {
        assert!(reduce_labels(vec![], 3).is_empty());
    }

    #[test]
    fn arena_lists_behave_like_vec_of_vec() {
        let mut arena = LabelArena::new();
        arena.reset(3, 2);
        assert_eq!(arena.num_lists(), 3);
        assert_eq!(arena.x(), 2);
        arena.push(0, l(4, 1.0));
        arena.push(2, l(7, 2.0));
        arena.push(2, l(8, 3.0));
        assert_eq!(arena.len_of(0), 1);
        assert!(arena.labels(1).is_empty());
        assert_eq!(arena.labels(2).len(), 2);
        assert_eq!(arena.labels(2)[1].src, 8);
        // set_list overwrites in place.
        arena.set_list(2, [l(9, 0.5)].into_iter());
        assert_eq!(arena.labels(2).len(), 1);
        assert_eq!(arena.labels(2)[0].src, 9);
        // Reset clears lengths, keeps shape for the same (n, x).
        arena.reset(3, 2);
        assert!(arena.iter_lists().all(|list| list.is_empty()));
        // Reshape to a different (n, x).
        arena.reset(5, 1);
        assert_eq!(arena.num_lists(), 5);
        arena.push(4, l(1, 1.0));
        assert_eq!(arena.labels(4).len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds arena capacity")]
    fn arena_rejects_overflow() {
        let mut arena = LabelArena::new();
        arena.reset(1, 1);
        arena.push(0, l(1, 1.0));
        arena.push(0, l(2, 2.0));
    }

    #[test]
    fn arena_x_clamps_to_one() {
        let mut arena = LabelArena::new();
        arena.reset(2, 0);
        assert_eq!(arena.x(), 1);
        arena.push(0, l(3, 1.0));
        assert_eq!(arena.labels(0).len(), 1);
    }
}
