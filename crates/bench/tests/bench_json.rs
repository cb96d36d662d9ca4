//! End-to-end coverage of the observability layer over the *real*
//! emitters: schema round-trip of the `BENCH_*.json` documents, run
//! determinism of everything the gate compares, the committed baselines
//! holding only rows the gate compares, and the gate's behavior on a
//! deliberately slowed fixture.

use bdm_bench::{emit, BenchScale};
use bdm_metrics::{compare, BenchDoc, JsonValue, MetricKind};

#[test]
fn documents_roundtrip_through_json() {
    let scale = BenchScale::smoke();
    for doc in [emit::sim_doc(&scale), emit::gpu_doc(&scale)] {
        assert!(!doc.metrics.is_empty(), "{} is empty", doc.name);
        let text = doc.to_json().to_pretty();
        let parsed = BenchDoc::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, doc, "{} lost content in round trip", doc.name);
        // Byte-stable re-serialization: the committed baselines never
        // churn from parsing + re-writing alone.
        assert_eq!(parsed.to_json().to_pretty(), text);
        // A document always gate-matches itself, even at zero default
        // tolerance.
        assert!(compare(&doc, &parsed, 0.0).passed());
    }
}

#[test]
fn sim_document_covers_the_advertised_surface() {
    let doc = emit::sim_doc(&BenchScale::smoke());
    let has = |prefix: &str| doc.metrics.iter().any(|m| m.name.starts_with(prefix));
    // Per-op scheduler stats, mech work counters + phase breakdown,
    // profiler modeled times.
    for prefix in [
        "scheduler.op_runs",
        "scheduler.op_frequency",
        "mech.candidates",
        "mech.contacts",
        "mech.phase_flops",
        "profiler.modeled_total_s",
        "sim.agents",
    ] {
        assert!(has(prefix), "sim doc lacks {prefix}");
    }
    // No committed document holds a row the policy keeps out (a wall
    // clock, a schedule-dependent count): every row it holds is gated.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["sim", "gpu", "layouts", "checkpoint", "diffusion"] {
        let doc = emit::read_doc(&results.join(format!("BENCH_{name}.json"))).unwrap();
        for m in &doc.metrics {
            // A histogram row is `<series>.count` / `.sum` / `.min` / `.max`.
            let series = match m.kind {
                MetricKind::Histogram => m.name.rsplit_once('.').map_or(&*m.name, |(s, _)| s),
                _ => &m.name,
            };
            assert!(
                emit::default_policy(series).is_some(),
                "BENCH_{name}.json holds {}, which no document may hold",
                m.key()
            );
        }
    }
}

#[test]
fn gpu_document_covers_the_pipeline_breakdown() {
    let doc = emit::gpu_doc(&BenchScale::smoke());
    let has = |name: &str, version: &str| {
        doc.metrics.iter().any(|m| {
            m.name.starts_with(name) && m.labels.iter().any(|(k, v)| k == "version" && v == version)
        })
    };
    for version in ["v2", "v4csr"] {
        for name in [
            "gpu.h2d_s",
            "gpu.d2h_s",
            "gpu.build_s",
            "gpu.mech_s",
            "gpu.total_s",
            "gpu.mech.flops_fp32",
            "gpu.mech.global_transactions",
        ] {
            assert!(
                has(name, version),
                "gpu doc lacks {name}{{version={version}}}"
            );
        }
    }
    // The modeled GPU timings are deterministic, so they are gated at the
    // default tolerance.
    let total = doc
        .metrics
        .iter()
        .find(|m| m.name == "gpu.total_s.sum")
        .expect("gpu.total_s histogram");
    assert_eq!(total.policy.tol, None);
}

#[test]
fn gated_metrics_are_deterministic_across_runs() {
    // Two fresh in-process runs must agree on every gated metric at zero
    // tolerance — the property the whole regression gate stands on.
    // (Wall clocks differ between runs; no document holds them.)
    let scale = BenchScale::smoke();
    let a = emit::sim_doc(&scale);
    let b = emit::sim_doc(&scale);
    let r = compare(&a, &b, 0.0);
    assert!(
        r.passed(),
        "nondeterministic gated metrics:\n{}",
        r.render("sim")
    );
    assert_eq!(r.checked, a.metrics.len());
}

#[test]
fn gate_fails_on_a_slowed_fixture_and_passes_at_baseline() {
    let scale = BenchScale::smoke();
    let base = emit::sim_doc(&scale);

    // Baseline vs itself: pass.
    assert!(compare(&base, &base.clone(), emit::DEFAULT_TOL).passed());

    // Deliberately slow every modeled runtime by 1.5× — far past the
    // default 10 % tolerance. The gate must fail and name the metrics.
    let mut slowed = base.clone();
    let mut touched = 0;
    for m in &mut slowed.metrics {
        if m.name.starts_with("profiler.modeled") {
            m.value *= 1.5;
            touched += 1;
        }
    }
    assert!(touched > 0);
    let r = compare(&base, &slowed, emit::DEFAULT_TOL);
    assert!(!r.passed());
    assert_eq!(r.regressions.len(), touched);
    assert!(r.render("sim").contains("FAIL"));

    // A slowdown inside tolerance still passes.
    let mut nudged = base.clone();
    for m in &mut nudged.metrics {
        if m.name.starts_with("profiler.modeled") {
            m.value *= 1.05;
        }
    }
    assert!(compare(&base, &nudged, emit::DEFAULT_TOL).passed());
}

#[test]
fn write_and_read_docs_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("bdm_bench_json_{}", std::process::id()));
    let doc = emit::sim_doc(&BenchScale::smoke());
    let path = emit::write_doc(&doc, &dir).unwrap();
    assert_eq!(path.file_name().unwrap(), "BENCH_sim.json");
    let back = emit::read_doc(&path).unwrap();
    assert_eq!(back, doc);
    std::fs::remove_dir_all(&dir).ok();
}
