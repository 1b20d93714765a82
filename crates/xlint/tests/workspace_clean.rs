//! The workspace must satisfy its own determinism contract: this is the
//! same scan `repro lint` gates CI on, run from the test suite so plain
//! `cargo test` catches a violation before CI does.

use std::path::Path;
use std::time::Instant;

#[test]
fn workspace_satisfies_its_own_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let t0 = Instant::now();
    let report = xlint::lint_workspace(&root).expect("workspace tree must be walkable");
    let elapsed = t0.elapsed();

    // Sanity: the walk really found the workspace (every crate root).
    for expected in [
        "src/lib.rs",
        "crates/pram/src/pool.rs",
        "crates/hopset/src/lib.rs",
        "crates/pgraph/src/lib.rs",
        "crates/sssp/src/lib.rs",
        "crates/xbench/src/lib.rs",
        "crates/xlint/src/lib.rs",
    ] {
        assert!(
            report.files.iter().any(|f| f == expected),
            "scan missed {expected}; scanned: {:?}",
            report.files
        );
    }
    // ...and skipped what it must never scan.
    assert!(
        !report
            .files
            .iter()
            .any(|f| f.contains("shims/") || f.contains("fixtures/") || f.contains("target/")),
        "scan leaked into a skipped tree: {:?}",
        report.files
    );

    assert!(
        report.is_clean(),
        "determinism-contract violations in the workspace:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The algorithm crates take their thread count from the caller, so not
    // even a justified ambient read is left to annotate.
    let annotated: Vec<&String> = report
        .files
        .iter()
        .filter(|f| {
            ["pram", "hopset", "pgraph", "sssp"]
                .iter()
                .any(|krate| f.starts_with(&format!("crates/{krate}/src/")))
        })
        .filter(|f| {
            std::fs::read_to_string(root.join(f))
                .expect("scanned file must be readable")
                .contains("xlint: allow(ambient-threads")
        })
        .collect();
    assert!(
        annotated.is_empty(),
        "ambient-threads allows in algorithm crates: {annotated:?}"
    );

    // The acceptance budget: a gate nobody ever waits on.
    assert!(elapsed.as_secs_f64() < 2.0, "lint took {elapsed:?}");
}
