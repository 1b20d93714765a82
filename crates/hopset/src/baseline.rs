//! Randomized sampling baseline — the construction the paper derandomizes.
//!
//! \[EN19\]-style superclustering-and-interconnection with *random sampling*
//! in place of ruling sets: at phase `i` every cluster is sampled
//! independently with probability `1/deg_i`; sampled clusters grow
//! superclusters over their `G̃_i`-neighbors (one BFS pulse); unsampled,
//! undetected clusters interconnect with their neighbors. Sampling is a
//! center rule of the one phase loop in [`crate::single_scale`]: the scale
//! driver, interconnection, supercluster formation and the edge weights
//! (per [`crate::ParamMode`]) are the deterministic build's own.
//!
//! This is the **only** module in the crate that consumes randomness (a
//! [`rand::rngs::StdRng`] seeded per scale and phase, so experiments are
//! repeatable). It exists for experiment E9: comparing size / hopbound /
//! counted work of the deterministic construction against its randomized
//! ancestor, which is the paper's headline trade ("derandomization at no
//! asymptotic cost").
//!
//! Fidelity notes (documented deviations, both favoring the baseline):
//! * the randomized analysis bounds *expected* interconnection degrees; we
//!   cap the neighbor enumeration at `4·deg_i + 1` records per cluster
//!   rather than let memory blow up;
//! * superclusters grow from one BFS pulse (radius `δ_i`), the EN19 shape,
//!   rather than the ruling-set BFS of depth `2·log n` — the baseline's
//!   radii (hence realized weights) are therefore *smaller*.

use crate::multi_scale::{build_scales, BuildOptions, BuiltHopset};
use crate::params::HopsetParams;
use crate::ruling::RulingTrace;
use crate::single_scale::Centers;
use pgraph::Graph;
use pram::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a randomized sampling hopset with the given seed on `exec`.
pub fn build_random_hopset(
    exec: &Executor,
    g: &Graph,
    params: &HopsetParams,
    seed: u64,
) -> BuiltHopset {
    let opts = BuildOptions::default();
    build_scales(exec, g, params, opts, &|ex, k, i, scratch, ledger| {
        let n_clusters = ex.part.len();
        let deg_i = params.degrees[i];
        let scale_seed = seed ^ u64::from(k).wrapping_mul(0x9e3779b97f4a7c15);
        let mut rng = StdRng::seed_from_u64(scale_seed ^ ((i as u64) << 32));
        ledger.step(n_clusters as u64);
        let sampled: Vec<u32> = (0..n_clusters as u32)
            .filter(|_| rng.random::<f64>() < 1.0 / deg_i as f64)
            .collect();
        // One-pulse BFS: neighbors of sampled clusters join them.
        let det = ex.bfs(&sampled, 1, scratch, ledger);
        // Bounded neighbor lists for the interconnection of the rest.
        let m = ex.detect_neighbors(4 * deg_i + 1, scratch, ledger);
        Centers {
            m,
            det,
            popular: Vec::new(),
            centers: sampled,
            trace: RulingTrace::default(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamMode;
    use crate::store::{EdgeKind, Hopset};
    use crate::test_exec;
    use crate::validate::{find_shortcut_violations, measure_stretch};
    use pgraph::gen;

    fn params(g: &Graph) -> HopsetParams {
        HopsetParams::new(
            g.num_vertices(),
            0.25,
            4,
            0.3,
            ParamMode::Practical,
            g.aspect_ratio_bound(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn random_hopset_is_a_hopset() {
        let g = gen::gnm_connected(96, 288, 5, 1.0, 6.0);
        let p = params(&g);
        let rh = build_random_hopset(&test_exec(), &g, &p, 42);
        assert!(find_shortcut_violations(&g, &rh.hopset).is_empty());
        let rep = measure_stretch(&g, &rh.hopset, &[0, 48], p.query_hops);
        assert_eq!(rep.undershoots, 0);
        assert!(rep.max_stretch <= 1.25 + 1e-9);
    }

    #[test]
    fn seed_determinism() {
        let g = gen::gnm_connected(64, 160, 9, 1.0, 4.0);
        let p = params(&g);
        let a = build_random_hopset(&test_exec(), &g, &p, 7);
        let b = build_random_hopset(&test_exec(), &g, &p, 7);
        assert_eq!(a.hopset.len(), b.hopset.len());
        for (x, y) in a.hopset.iter().zip(b.hopset.iter()) {
            assert_eq!((x.u, x.v), (y.u, y.v));
            assert_eq!(x.w, y.w);
        }
        // Different seeds generally differ (not asserted — could collide on
        // tiny graphs, but sizes should at least exist).
        let c = build_random_hopset(&test_exec(), &g, &p, 8);
        assert!(!c.hopset.is_empty());
    }

    /// FNV-1a over `(u, v, w bits, scale, kind, phase)` of every edge.
    fn fingerprint(h: &Hopset) -> u64 {
        let mut f = 0xcbf2_9ce4_8422_2325u64;
        for e in h.iter() {
            let (kind, phase) = match e.kind {
                EdgeKind::Supercluster { phase } => (0, phase),
                EdgeKind::Interconnect { phase } => (1, phase),
                EdgeKind::Star => (2, 0),
            };
            let fields = [
                e.u.into(),
                e.v.into(),
                e.w.to_bits(),
                e.scale.into(),
                kind,
                phase.into(),
            ];
            for b in fields.iter().flat_map(|x: &u64| x.to_le_bytes()) {
                f = (f ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        f
    }

    /// Pins what the sampling build produces — size, edge fingerprint and
    /// counted cost — for two seeds on two graphs, so a change to the
    /// shared phase loop cannot move the baseline unnoticed.
    #[test]
    fn sampled_builds_are_pinned() {
        let graphs = [
            gen::gnm_connected(96, 288, 5, 1.0, 6.0),
            gen::clique_chain(6, 8, 2.0),
        ];
        let mut got = Vec::new();
        for g in &graphs {
            let p = params(g);
            for seed in [7, 42] {
                let r = build_random_hopset(&test_exec(), g, &p, seed);
                let (work, depth) = (r.ledger.work(), r.ledger.depth());
                got.push((r.hopset.len(), fingerprint(&r.hopset), work, depth));
            }
        }
        let want = [
            (383, 0xef68_e304_7901_5e6c, 7_874_536, 1_148),
            (370, 0x382a_b35f_d28b_085b, 8_582_722, 1_417),
            (96, 0x61ba_439a_c6f4_9468, 2_816_174, 734),
            (104, 0x1371_f00a_c8c7_ce84, 2_027_898, 529),
        ];
        assert_eq!(got, want, "got {got:#x?}");
    }

    #[test]
    fn comparable_size_to_deterministic() {
        let g = gen::clique_chain(6, 8, 2.0);
        let p = params(&g);
        let det = crate::build_hopset_on(&test_exec(), &g, &p, crate::BuildOptions::default());
        let rnd = build_random_hopset(&test_exec(), &g, &p, 3);
        // Same ballpark (within 8x either way) — E9 reports the exact ratio.
        let a = det.hopset.len().max(1) as f64;
        let b = rnd.hopset.len().max(1) as f64;
        assert!(a / b < 8.0 && b / a < 8.0, "det={a} rnd={b}");
    }
}
