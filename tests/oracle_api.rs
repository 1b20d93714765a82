//! The API contract tests: the owned `Oracle` facade is thread-safe
//! (compile-time `Send + Sync`), object-safe (`Box<dyn DistanceOracle>`),
//! deterministic when shared, and reports misuse as typed errors.

use pram::pool::threads_from_env;
use pram_sssp::prelude::*;
use std::sync::Arc;

/// Compile-time: the owned oracle and its trait objects cross threads.
#[test]
fn oracle_is_send_sync_statically() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Oracle>();
    assert_send_sync::<Arc<Oracle>>();
    assert_send_sync::<DeltaSteppingOracle>();
    assert_send_sync::<DijkstraOracle>();
    assert_send_sync::<Box<dyn DistanceOracle>>();
    assert_send_sync::<Arc<dyn DistanceOracle>>();
    assert_send_sync::<Vec<Box<dyn DistanceOracle>>>();
}

/// Object safety: all backends usable through one `dyn` surface, including
/// every trait method.
#[test]
fn distance_oracle_is_object_safe() {
    let g = Arc::new(gen::gnm_connected(60, 180, 3, 1.0, 6.0));
    let backends: Vec<Box<dyn DistanceOracle>> = vec![
        Box::new(
            Oracle::builder(Arc::clone(&g))
                .eps(0.25)
                .kappa(4)
                .threads(threads_from_env())
                .build()
                .unwrap(),
        ),
        Box::new(
            DeltaSteppingOracle::new(Arc::clone(&g))
                .with_executor(Executor::new(threads_from_env())),
        ),
        Box::new(DijkstraOracle::new(Arc::clone(&g))),
    ];
    let exact = exact::dijkstra(&g, 0).dist;
    for b in &backends {
        assert_eq!(b.num_vertices(), 60);
        assert!(b.stretch_bound() >= 1.0);
        let d = b.distances_from(0).unwrap();
        let multi = b.distances_multi(&[0, 30]).unwrap();
        assert_eq!(multi.dist.row(0), &d[..], "{}", b.name());
        let near = b.distances_to_nearest(&[0, 59]).unwrap();
        assert_eq!(near[0], 0.0);
        let p2p = b.distance(0, 30).unwrap();
        assert!((p2p - d[30]).abs() < 1e-12);
        // Every backend respects its declared stretch bound.
        for v in 0..60 {
            assert!(d[v] >= exact[v] - 1e-6 * exact[v].max(1.0), "{}", b.name());
            assert!(
                d[v] <= b.stretch_bound() * exact[v] + 1e-9,
                "{} at {v}",
                b.name()
            );
        }
    }
}

/// `Arc<Oracle>` served from multiple threads returns bit-identical
/// answers (the determinism contract survives sharing).
#[test]
fn arc_oracle_concurrent_queries_are_deterministic() {
    let g = gen::road_grid(12, 12, 9, 1.0, 8.0);
    let oracle = Arc::new(
        Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .paths(true)
            .threads(threads_from_env())
            .build()
            .unwrap(),
    );
    let reference = oracle.distances_from(7).unwrap();
    let ref_spt = oracle.spt(7).unwrap();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let o = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let d = o.distances_from(7).unwrap();
                let spt = o.spt(7).unwrap();
                (i, d, spt)
            })
        })
        .collect();
    for h in handles {
        let (i, d, spt) = h.join().unwrap();
        for (a, b) in d.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "thread {i}");
        }
        assert_eq!(spt.parent, ref_spt.parent, "thread {i}");
    }
}

/// The error surface: typed errors, not panics, for every misuse.
#[test]
fn query_errors_are_typed_not_panics() {
    let g = gen::path(12);
    let oracle = Oracle::builder(g)
        .threads(threads_from_env())
        .build()
        .unwrap();
    assert!(matches!(
        oracle.distances_from(12),
        Err(SsspError::InvalidSource { source: 12, n: 12 })
    ));
    assert!(matches!(oracle.spt(0), Err(SsspError::PathsNotRecorded)));
    assert!(matches!(
        Oracle::builder(gen::path(4))
            .eps(0.0)
            .threads(threads_from_env())
            .build(),
        Err(SsspError::Params(_))
    ));
    // Errors format for humans (the serving path logs them).
    let msg = oracle.distances_from(99).unwrap_err().to_string();
    assert!(msg.contains("99") && msg.contains("12"), "{msg}");
}
