//! Runs a tiny instance of every workload twice, traced and untraced, and
//! checks that the counted metrics repeat exactly, that every named metric
//! is emitted with its unit, and that the benchmark's records agree with
//! the catalog compiled here.
//!
//! One test function: the traced run installs the process-global phase
//! hook, and the runs are kept sequential so their phase totals do not mix.

use perfbench::{metrics_for, run, Report, RunConfig, Size, Spec, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Report {
    let cfg = RunConfig {
        spec: Spec::new(workload, Size::Tiny),
        seed: 7,
        seconds: 0.3,
        trace,
        scratch_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    let report = run(&cfg).expect("tiny run sets up");
    assert!(
        report.correct(),
        "{} (trace {trace}) failed: {:?}",
        workload.name(),
        report.ops.failures
    );
    assert!(report.ops.attempted > 0);
    let json = report.to_json();
    for d in metrics_for(trace) {
        assert!(
            report.get(d.name).is_some_and(f64::is_finite),
            "{} (trace {trace}) did not report {}",
            workload.name(),
            d.name
        );
        let printed = format!("\"{}\": {{\"value\": ", d.name);
        assert!(json.contains(&printed), "{} missing from {json}", d.name);
        let unit = format!("\"unit\": \"{}\"", d.unit);
        let at = json.find(&printed).expect("just checked");
        assert!(
            json[at..].contains(&unit),
            "{} printed without its unit",
            d.name
        );
    }
    assert_eq!(report.metrics.len(), metrics_for(trace).len());
    report
}

/// Metrics that count work rather than time it: they must repeat exactly.
fn counted(name: &str) -> bool {
    let counts = [
        "hopset.edges",
        "hopset.scales",
        "hopset.ruling_levels",
        "hopset.ruling_bfs",
        "hopset.ledger_work",
        "hopset.ledger_depth",
        "bford.row_rounds_p50",
        "bford.slots_per_round",
        "bford.p2p_rounds_p50",
        "bford.p2p_settled_early_share",
        "landmark.certified_share",
        "cache.hits",
        "cache.landmark_answers",
        "cache.fallbacks",
        "snapshot.bytes",
    ];
    counts.contains(&name)
}

#[test]
fn every_workload_twice_repeats_its_counts_and_names_every_metric() {
    for w in Workload::ALL {
        let a = tiny(w, true);
        let b = tiny(w, true);
        let mut compared = 0;
        for (name, _, va) in &a.metrics {
            if counted(name) {
                let vb = b.get(name).expect("same catalog");
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{}: {name} {va} vs {vb}",
                    w.name()
                );
                compared += 1;
            }
        }
        assert!(
            compared >= 10,
            "{}: only {compared} counted metrics",
            w.name()
        );
        tiny(w, false);
        tiny(w, false);
    }
}

#[test]
fn records_agree_with_the_catalog() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let workloads = std::fs::read_to_string(root.join("workloads.json")).expect("workloads.json");
    for w in Workload::ALL {
        let line = Spec::new(w, Size::Full).describe();
        assert!(workloads.contains(&line), "workloads.json lacks {line}");
        assert!(bench.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
