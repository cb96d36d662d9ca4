//! The `bdm-bench` binary from the outside: every old bin it still ships
//! is a command under its name, committed artifacts regenerate byte for
//! byte, and anything the dispatch table does not know exits 2 with the
//! valid choices on stderr instead of being ignored.

use bdm_metrics::JsonValue;
use std::path::Path;
use std::process::{Command, Output};

/// The binaries the one binary replaced and still ships, by their
/// unchanged names (the four `debug_*` printers became `debug_metrics`).
const OLD_BINS: [&str; 15] = [
    "ablation_dynpar",
    "ablation_sampling",
    "ablation_transfers",
    "bench_checkpoint",
    "bench_diffusion",
    "bench_gate",
    "bench_json",
    "bench_layouts",
    "fig10_fig11",
    "fig12_roofline",
    "fig2_visualization",
    "fig3_profile",
    "fig8_fig9",
    "table1",
    "verify_reproduction",
];

/// Run the binary from the repository root (where `results/` lives).
fn bdm_bench(args: &[&str], scale: Option<&str>) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bdm-bench"));
    cmd.args(args)
        .current_dir(root)
        .env_remove("BDM_BENCH_SCALE");
    if let Some(scale) = scale {
        cmd.env("BDM_BENCH_SCALE", scale);
    }
    cmd.output().expect("spawn bdm-bench")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

#[test]
fn table1_regenerates_the_committed_artifact() {
    let out = bdm_bench(&["table1"], None);
    assert!(out.status.success());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read(root.join("results/table1.txt")).unwrap();
    assert_eq!(text(&out.stdout), text(&committed));
}

/// Every committed `results/*.txt` is a command's output (a
/// `_paper_scale` suffix marks the `BDM_BENCH_SCALE=paper` run), so a
/// deleted command cannot leave its artifact behind.
#[test]
fn every_text_result_names_a_command() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut artifacts = 0;
    for entry in std::fs::read_dir(root.join("results")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let Some(stem) = name.strip_suffix(".txt") else {
            continue;
        };
        let command = stem.strip_suffix("_paper_scale").unwrap_or(stem);
        assert!(
            bdm_bench::cli::COMMANDS.iter().any(|c| c.0 == command),
            "results/{name} names no bdm-bench command"
        );
        artifacts += 1;
    }
    assert!(artifacts > 0, "no results/*.txt");
}

#[test]
fn list_prints_one_command_per_old_bin() {
    let out = bdm_bench(&["list"], None);
    assert!(out.status.success());
    let mut listed: Vec<String> = text(&out.stdout).lines().map(String::from).collect();
    listed.sort();
    let mut want = [&OLD_BINS[..], &["debug_metrics"]].concat();
    want.sort();
    assert_eq!(listed, want);
}

#[test]
fn what_the_table_does_not_know_exits_2_with_the_choices() {
    let usage_error = |args: &[&str], scale: Option<&str>, choices: &[&str]| {
        let out = bdm_bench(args, scale);
        assert_eq!(out.status.code(), Some(2), "{args:?} {scale:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: a usage error prints no result"
        );
        let stderr = text(&out.stderr);
        for choice in choices {
            assert!(
                stderr.contains(choice),
                "{args:?}: no {choice:?} in\n{stderr}"
            );
        }
    };
    usage_error(&[], None, &OLD_BINS);
    usage_error(&["fig8_fig8"], None, &OLD_BINS);
    usage_error(&["list", "--json"], None, &OLD_BINS);
    usage_error(&["fig8_fig9", "--jsn"], None, &["[--json[=DIR]]"]);
    usage_error(&["table1", "--json"], None, &["takes no arguments"]);
    usage_error(
        &["bench_gate", "--baseline=results"],
        None,
        &["--fresh=DIR"],
    );
    usage_error(
        &["bench_gate", "--fresh=results", "--tol=x"],
        None,
        &["--tol=x"],
    );
    usage_error(
        &["fig2_visualization", "a.ppm", "lots"],
        None,
        &["repeats an argument"],
    );
    usage_error(&["table1"], Some("bogus"), &["smoke | default | paper"]);
    usage_error(&["table1"], Some("smok"), &["smoke | default | paper"]);
}

#[test]
fn the_gate_passes_on_its_own_baselines() {
    let out = bdm_bench(
        &["bench_gate", "--baseline=results", "--fresh=results"],
        None,
    );
    assert!(out.status.success(), "{}", text(&out.stdout));
    assert!(text(&out.stdout).contains("bench gate passed (5 documents"));
    // And fails — exit 1, not a usage error — when a document is missing.
    let empty = std::env::temp_dir().join(format!("bdm_bench_cli_{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let fresh = format!("--fresh={}", empty.display());
    let out = bdm_bench(&["bench_gate", "--baseline=results", &fresh], None);
    std::fs::remove_dir_all(&empty).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(text(&out.stdout).contains("GATE FAILED"));
}

/// `debug_metrics` prints one metrics document per scene — five CPU
/// setups and the six kernel versions — and nothing the four printers
/// it replaced showed is missing from them.
#[test]
fn debug_metrics_prints_one_document_per_scene_with_every_family() {
    let out = bdm_bench(&["debug_metrics"], Some("smoke"));
    assert!(out.status.success());
    let stdout = text(&out.stdout);
    let docs: Vec<JsonValue> = stdout
        .split_inclusive("\n}\n")
        .map(|doc| JsonValue::parse(doc).expect("one JSON document per scene"))
        .collect();
    assert_eq!(docs.len(), 11);
    let series: Vec<(&str, &JsonValue)> = docs
        .iter()
        .flat_map(|doc| doc.get("metrics").and_then(JsonValue::as_arr).unwrap())
        .map(|m| (m.get("name").and_then(JsonValue::as_str).unwrap(), m))
        .collect();
    for family in [
        "mech.candidates",
        "mech.csr_index_gap",
        "mech.stencils_staged",
        "mech.simd_lanes_utilized",
        "mech.simd_blocks_evaluated",
        "mech.phase_flops",
        "shard.halo_agents",
        "gpu.h2d_s",
        "gpu.mech.global_transactions",
        "gpu.mech.l2_read_share",
        "gpu.mech.compute_warp_cycles",
        "gpu.trace_accesses",
        "gpu.trace_bytes",
        "gpu.launches",
        "gpu.sync",
        "gpu.grid_build",
    ] {
        assert!(
            series.iter().any(|(name, _)| *name == family),
            "no {family}"
        );
    }
    let forked = series.iter().any(|(name, m)| {
        let phase = m.get("labels").and_then(|l| l.get("phase"));
        *name == "gpu.host_s" && phase.and_then(JsonValue::as_str) == Some("forked")
    });
    assert!(forked, "no gpu.host_s{{phase=forked}}");
}
