//! The `bdm-bench` binary from the outside: every old bin's name is a
//! command, committed artifacts regenerate byte for byte, and anything
//! the dispatch table does not know exits 2 with the valid choices on
//! stderr instead of being ignored.

use std::path::Path;
use std::process::{Command, Output};

/// The 22 binaries the one binary replaced, by their unchanged names.
const OLD_BINS: [&str; 22] = [
    "ablation_curves",
    "ablation_dynpar",
    "ablation_frontends",
    "ablation_sampling",
    "ablation_transfers",
    "bench_checkpoint",
    "bench_diffusion",
    "bench_gate",
    "bench_json",
    "bench_layouts",
    "bench_threads",
    "debug_counters",
    "debug_gpu",
    "debug_shards",
    "debug_steps",
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

#[test]
fn list_prints_one_command_per_old_bin() {
    let out = bdm_bench(&["list"], None);
    assert!(out.status.success());
    let mut listed: Vec<String> = text(&out.stdout).lines().map(String::from).collect();
    listed.sort();
    assert_eq!(listed, OLD_BINS);
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
    usage_error(&["debug_shards", "lots"], None, &["positive integer"]);
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
