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
//! [`reduce_labels_two_sort`] implements Algorithm 3 ("Sort Array"): sort by
//! source (ties by distance), drop duplicate sources, re-sort by distance
//! (ties by id), keep the best `x`. It is the reference the exploration
//! tests pin production to. Production never sorts a candidate set:
//! `virtual_bfs` folds candidates one at a time into a rank-sorted list of
//! at most `x` records under the same order (its `merge`, shared by the
//! `x ≥ 2` pull step and the `m(C)` aggregation), and its `x = 1` push
//! kernel keeps a per-target minimum.
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

/// Algorithm 3 by two sorts — the **reference** the exploration's
/// reductions are pinned to (unit tests in `virtual_bfs` assert they agree
/// record for record). Deduplicate by source keeping the best record, rank
/// by `(dist, src)`, truncate to `x`. The dedup sort is stable: candidates
/// that tie on all of `(src, dist, pw)` differ only in their recorded path,
/// and the earliest one survives, as in every production reduction. After
/// source-dedup the rank key `(dist, src)` is unique, so the rank sort need
/// not be.
pub fn reduce_labels_two_sort(cands: &mut Vec<Label>, x: usize) {
    if cands.is_empty() {
        return;
    }
    cands.sort_by_key(Label::dedup_key);
    cands.dedup_by(|b, a| b.src == a.src); // keeps first = best per source
    cands.sort_unstable_by_key(Label::rank_key);
    cands.truncate(x);
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

    /// Algorithm 3 on an owned candidate list.
    fn reduce_labels(mut cands: Vec<Label>, x: usize) -> Vec<Label> {
        reduce_labels_two_sort(&mut cands, x);
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
        let mut buf = vec![l(2, 5.0), l(1, 3.0), l(2, 1.0)];
        let cap = buf.capacity();
        reduce_labels_two_sort(&mut buf, 10);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.capacity(), cap, "no reallocation");
        buf.clear();
        buf.extend([l(5, 1.0), l(5, 0.5), l(6, 2.0)]);
        reduce_labels_two_sort(&mut buf, 1);
        assert_eq!(buf.len(), 1);
        assert_eq!((buf[0].src, buf[0].dist), (5, 0.5));
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
