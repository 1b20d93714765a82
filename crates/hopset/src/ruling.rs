//! Algorithm 4: deterministic `(3, 2·log n)`-ruling sets (Appendix B),
//! following \[AGLP89, SEW13, KMW18\].
//!
//! Given the popular clusters `W_i ⊆ P_i`, compute `Q_i ⊆ W_i` such that
//! w.r.t. the virtual graph `G̃_i`:
//! 1. every pair of `Q_i` clusters is at distance ≥ 3 (Lemma B.2), and
//! 2. every `W_i` cluster has a `Q_i` cluster within distance `2·log2 n`
//!    (Lemma B.3).
//!
//! The divide-and-conquer on ID bits executes bottom-up as `⌈log2 n⌉`
//! levels. At level `h`, each recursive invocation splits its alive set on
//! bit `h−1` of the (center-id) binary representation; all `B0` outputs
//! (bit 0) across *all* invocations simultaneously run one BFS to depth 2 in
//! `G̃_i`, and any alive bit-1 cluster that is detected is *knocked out* —
//! including by explorations of other invocations (Figure 9). Because
//! membership in `B0`/`B1` depends only on the bit, the whole level reduces
//! to: sources = alive ∧ bit=0, kill every (alive ∧ bit=1) within distance 2.

use crate::virtual_bfs::{ExploreScratch, Explorer};
use pram::Ledger;

/// Per-level statistics for the F9 experiment (knock-out recursion trace).
#[derive(Clone, Debug, Default)]
pub struct RulingTrace {
    /// `(level, sources, candidates, knocked_out, alive_after)` per level.
    pub levels: Vec<LevelStat>,
}

/// One level of the knock-out recursion.
#[derive(Clone, Copy, Debug)]
pub struct LevelStat {
    /// Level index `h` (1-based; bit `h−1` splits).
    pub level: usize,
    /// Clusters on the 0-side (exploration sources).
    pub sources: usize,
    /// Clusters on the 1-side (knock-out candidates).
    pub candidates: usize,
    /// Candidates knocked out this level.
    pub knocked_out: usize,
    /// Alive clusters after the level.
    pub alive_after: usize,
}

/// Compute a `(3, 2·log2 n)`-ruling set for the clusters `w_set` (indices
/// into `ex.part`) w.r.t. the virtual graph realized by `ex` (threshold +
/// hop budget). Returns the selected cluster indices, ascending.
pub fn ruling_set(
    ex: &Explorer<'_>,
    w_set: &[u32],
    scratch: &mut ExploreScratch,
    ledger: &mut Ledger,
    mut trace: Option<&mut RulingTrace>,
) -> Vec<u32> {
    if w_set.is_empty() {
        return Vec::new();
    }
    let n = ex.view.num_vertices();
    let bits = pgraph::ceil_log2(n.max(2)) as usize;
    let mut alive: Vec<u32> = w_set.to_vec();
    alive.sort_unstable();
    alive.dedup();

    for h in 1..=bits {
        let bit = h - 1;
        let (b0, b1): (Vec<u32>, Vec<u32>) = alive
            .iter()
            .copied()
            .partition(|&c| (ex.part.center(c) >> bit) & 1 == 0);
        if b0.is_empty() || b1.is_empty() {
            if let Some(t) = trace.as_deref_mut() {
                t.levels.push(LevelStat {
                    level: h,
                    sources: b0.len(),
                    candidates: b1.len(),
                    knocked_out: 0,
                    alive_after: alive.len(),
                });
            }
            continue;
        }
        // One BFS to depth 2 from all B0 clusters (Corollary B.4's
        // per-level exploration; knock-outs may cross invocations).
        let det = ex.bfs(&b0, 2, scratch, ledger);
        let before = alive.len();
        let killed: usize = b1.iter().filter(|&&c| det[c as usize].is_some()).count();
        alive.retain(|&c| {
            let is_b1 = (ex.part.center(c) >> bit) & 1 == 1;
            !(is_b1 && det[c as usize].is_some())
        });
        debug_assert_eq!(before - alive.len(), killed);
        if let Some(t) = trace.as_deref_mut() {
            t.levels.push(LevelStat {
                level: h,
                sources: b0.len(),
                candidates: b1.len(),
                knocked_out: killed,
                alive_after: alive.len(),
            });
        }
    }
    alive
}

/// Measure, for every pair of `set` clusters, the `G̃_i` distance (via BFS
/// from each member, up to `max_depth`) — the verification oracle for
/// Lemma B.2/B.3 used by tests and experiment E6. Returns
/// `(min_pairwise_distance, max_cover_distance)` where the cover distance is
/// over `w_set` to its nearest `set` member (`usize::MAX` = unreachable).
pub fn verify_ruling(
    ex: &Explorer<'_>,
    set: &[u32],
    w_set: &[u32],
    max_depth: usize,
    scratch: &mut ExploreScratch,
    ledger: &mut Ledger,
) -> (usize, usize) {
    // Pairwise separation: BFS from each selected cluster alone.
    let mut min_sep = usize::MAX;
    for &q in set {
        let det = ex.bfs(&[q], max_depth, scratch, ledger);
        for &q2 in set {
            if q2 != q {
                if let Some(d) = &det[q2 as usize] {
                    min_sep = min_sep.min(d.pulse);
                }
            }
        }
    }
    // Cover: one multi-source BFS from the whole set.
    let det = ex.bfs(set, max_depth, scratch, ledger);
    let mut max_cover = 0usize;
    for &w in w_set {
        match &det[w as usize] {
            Some(d) => max_cover = max_cover.max(d.pulse),
            None => max_cover = usize::MAX,
        }
    }
    (min_sep, max_cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{ClusterMemory, Partition};
    use pgraph::{gen, UnionView};

    fn explorer<'a>(
        exec: &'a pram::Executor,
        view: &'a UnionView<'a>,
        part: &'a Partition,
        cm: &'a ClusterMemory,
        threshold: f64,
    ) -> Explorer<'a> {
        Explorer {
            exec,
            view,
            part,
            cm,
            threshold,
            hop_limit: 16,
            record_paths: false,
        }
    }

    #[test]
    fn ruling_on_a_path_is_separated_and_covering() {
        // Unit path: G̃ with threshold 1.5 is the path itself.
        let g = gen::path(32);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(32);
        let cm = ClusterMemory::trivial(32, false);
        let exec = pram::Executor::new(2);
        let mut scratch = ExploreScratch::new();
        let ex = explorer(&exec, &view, &part, &cm, 1.5);
        let w: Vec<u32> = (0..32).collect();
        let mut led = Ledger::new();
        let q = ruling_set(&ex, &w, &mut scratch, &mut led, None);
        assert!(!q.is_empty());
        let (sep, cover) = verify_ruling(&ex, &q, &w, 64, &mut scratch, &mut led);
        assert!(sep >= 3, "separation {sep} < 3");
        let bound = 2 * pgraph::ceil_log2(32) as usize;
        assert!(cover <= bound, "cover {cover} > {bound}");
    }

    #[test]
    fn ruling_on_random_graph() {
        let g = gen::gnm_connected(64, 160, 11, 1.0, 2.0);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(64);
        let cm = ClusterMemory::trivial(64, false);
        let exec = pram::Executor::new(2);
        let mut scratch = ExploreScratch::new();
        let ex = explorer(&exec, &view, &part, &cm, 2.5);
        let w: Vec<u32> = (0..64).step_by(2).collect();
        let mut led = Ledger::new();
        let mut trace = RulingTrace::default();
        let q = ruling_set(&ex, &w, &mut scratch, &mut led, Some(&mut trace));
        assert!(!q.is_empty());
        assert!(q.iter().all(|c| w.contains(c)), "Q ⊆ W");
        let (sep, cover) = verify_ruling(&ex, &q, &w, 64, &mut scratch, &mut led);
        assert!(sep >= 3);
        assert!(cover <= 2 * pgraph::ceil_log2(64) as usize);
        assert_eq!(trace.levels.len(), pgraph::ceil_log2(64) as usize);
        // Alive counts never increase.
        for w2 in trace.levels.windows(2) {
            assert!(w2[1].alive_after <= w2[0].alive_after);
        }
    }

    #[test]
    fn singleton_w_returns_itself() {
        let g = gen::path(8);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(8);
        let cm = ClusterMemory::trivial(8, false);
        let exec = pram::Executor::new(2);
        let mut scratch = ExploreScratch::new();
        let ex = explorer(&exec, &view, &part, &cm, 1.5);
        let mut led = Ledger::new();
        let q = ruling_set(&ex, &[5], &mut scratch, &mut led, None);
        assert_eq!(q, vec![5]);
    }

    #[test]
    fn empty_w_returns_empty() {
        let g = gen::path(4);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(4);
        let cm = ClusterMemory::trivial(4, false);
        let exec = pram::Executor::new(2);
        let mut scratch = ExploreScratch::new();
        let ex = explorer(&exec, &view, &part, &cm, 1.5);
        let mut led = Ledger::new();
        assert!(ruling_set(&ex, &[], &mut scratch, &mut led, None).is_empty());
    }

    #[test]
    fn isolated_clusters_all_survive() {
        // No edges: every W cluster is 3-separated trivially.
        let g = pgraph::Graph::empty(10);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(10);
        let cm = ClusterMemory::trivial(10, false);
        let exec = pram::Executor::new(2);
        let mut scratch = ExploreScratch::new();
        let ex = explorer(&exec, &view, &part, &cm, 5.0);
        let w: Vec<u32> = (0..10).collect();
        let mut led = Ledger::new();
        let q = ruling_set(&ex, &w, &mut scratch, &mut led, None);
        assert_eq!(q, w);
    }

    #[test]
    fn adjacent_pair_keeps_exactly_one() {
        let g = gen::path(2);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(2);
        let cm = ClusterMemory::trivial(2, false);
        let exec = pram::Executor::new(2);
        let mut scratch = ExploreScratch::new();
        let ex = explorer(&exec, &view, &part, &cm, 1.5);
        let mut led = Ledger::new();
        let q = ruling_set(&ex, &[0, 1], &mut scratch, &mut led, None);
        assert_eq!(q, vec![0]); // 1 is knocked out by 0 at the bit-0 level
    }

    #[test]
    fn determinism() {
        let g = gen::gnm_connected(48, 120, 3, 1.0, 2.0);
        let view = UnionView::base_only(&g);
        let part = Partition::singletons(48);
        let cm = ClusterMemory::trivial(48, false);
        let exec = pram::Executor::new(2);
        let mut scratch = ExploreScratch::new();
        let ex = explorer(&exec, &view, &part, &cm, 3.0);
        let w: Vec<u32> = (0..48).collect();
        let mut l1 = Ledger::new();
        let mut l2 = Ledger::new();
        assert_eq!(
            ruling_set(&ex, &w, &mut scratch, &mut l1, None),
            ruling_set(&ex, &w, &mut ExploreScratch::new(), &mut l2, None)
        );
        assert_eq!(l1, l2);
    }
}
