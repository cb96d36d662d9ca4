//! `BENCH_<name>.json` emission: the machinery behind `--json` flags,
//! the `bench_json` and `bench_gate` commands, and
//! `scripts/bench_gate.sh`.
//!
//! Every emitted document flows through [`default_policy`], which
//! decides what the regression gate may compare:
//!
//! * anything with `wall` in its name is a **host wall clock** —
//!   nondeterministic, emitted ungated (context only);
//! * discrete structural quantities (step counts, run counts,
//!   populations, configured frequencies) are **exact** — tolerance 0;
//! * algorithmic work counters (candidates, contacts, FLOPs, memory
//!   transactions) are deterministic functions of the trajectory but may
//!   shift discretely if cross-platform libm differences perturb it —
//!   tight 2 % tolerance;
//! * everything else (modeled seconds from the CPU/GPU timing models)
//!   gates at the comparison's default tolerance.

use crate::benchmark_a_offloaded;
use crate::cli::{usage_error, Args};
use crate::scale::BenchScale;
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::KernelVersion;
use bdm_metrics::{BenchDoc, GatePolicy, JsonValue, MetricsRegistry};
use bdm_sim::workload::benchmark_a;
use bdm_sim::EnvironmentKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Relative tolerance `bench_gate` applies when a sample carries none.
pub const DEFAULT_TOL: f64 = 0.1;

/// Discrete quantities that must reproduce exactly.
fn is_exact(name: &str) -> bool {
    matches!(
        name,
        "sim.steps_executed"
            | "sim.agents"
            | "sim.substances"
            | "profiler.steps"
            | "fig8.final_population"
            | "scheduler.op_runs"
            | "scheduler.op_frequency"
            | "scheduler.op_enabled"
            | "gpu.sort_gathers"
            | "checkpoint.agents"
            | "checkpoint.sections"
            | "diffusion.voxel_updates"
            | "diffusion.substeps"
            | "diffusion.simd_rows"
            | "diffusion.batch_substances"
    )
}

/// The standard gating policy for every emitted document (see the
/// module docs for the tiers).
pub fn default_policy(name: &str) -> GatePolicy {
    if name.contains("wall")
        || matches!(
            name,
            "checkpoint.write_ms"
                | "checkpoint.read_ms"
                | "gpu.host_s"
                | "gpu.trace_accesses"
                | "gpu.launches"
                | "gpu.sync"
                | "gpu.grid_build"
                | "mech.simd_stencils_staged"
                | "mech.stencils_staged"
                | "diffusion.resident_bytes"
                | "agents.resident_bytes"
                | "agents.behavior_lists"
                | "behaviors.commit_ms"
                | "reorder.resident_bytes"
                | "reorder.runs"
        )
    {
        // The checkpoint serialize/parse timings and the SIMT
        // simulator's own host cost are host wall clocks too — they
        // just don't carry `wall` in their names; the traced accesses by
        // logging path (lane filter or bucket table) say why that host
        // cost reads what it reads and count the simulator's work, not
        // the device's, as do the launches by how their blocks ran
        // (forked across the host workers or in order). The GPU sync-kind and
        // grid-build-outcome counts say *why* the gated transfer
        // counters read what they read; gating the explanation too
        // would fail twice for one cause. The stencil-stage
        // counts (one series per lane body) are deterministic but a
        // function of the sweep's cut set (a cut that splits a voxel's
        // residents stages it twice), not of the trajectory alone: they
        // say how many agents shared a staged tile, and gate nothing.
        // The diffusion fields' heap bytes include sweep scratch that
        // grows with the worker count. The agent columns' bytes follow
        // their growth history and the behavior table's size the lists
        // ever seen: a restored run reports less of both for the same
        // state. The behaviors commit time is one more wall clock. The
        // reorder's scratch bytes follow the largest population it
        // gathered, and its runs by outcome say why `reorder`'s wall time
        // reads what it reads (and restart at zero on a restore).
        GatePolicy::informational()
    } else if is_exact(name) {
        GatePolicy::with_tol(0.0)
    } else if name.starts_with("mech.")
        || name.starts_with("gpu.step.")
        || name.starts_with("gpu.mech.")
        || matches!(
            name,
            "gpu.bytes_h2d" | "gpu.bytes_d2h" | "gpu.midstep_syncs" | "gpu.resident_steps"
        )
        || name == "layouts.csr_index_gap"
        || name.starts_with("layouts.shard_")
        || name.starts_with("checkpoint.bytes")
        || name.starts_with("diffusion.")
    {
        // `layouts.shard_*` and `diffusion.*` wall clocks never reach
        // this tier — the `wall` branch above catches them — so what
        // gates here is the deterministic shard-map telemetry
        // (imbalance, halo fraction), the System A modeled mech and
        // diffusion times / speedups (pure functions of the
        // trajectories' phase counters), and the diffusion interior
        // fraction.
        GatePolicy::with_tol(0.02)
    } else {
        GatePolicy::gated()
    }
}

/// A named, empty document carrying the standard run context.
pub fn new_doc(name: &str, scale: &BenchScale) -> BenchDoc {
    let mut doc = BenchDoc::new(name);
    doc.push_context("scale", scale.label());
    doc.push_context("a_cells_per_dim", scale.a_cells_per_dim);
    doc.push_context("a_steps", scale.a_steps);
    doc
}

/// The `BENCH_sim.json` document: benchmark A on the CSR parallel grid,
/// covering per-op scheduler statistics, mechanical work counters and
/// phase breakdown, and modeled System A runtimes at 1 and 20 threads.
pub fn sim_doc(scale: &BenchScale) -> BenchDoc {
    let mut sim = benchmark_a(scale.a_cells_per_dim, 0x8);
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    sim.simulate(scale.a_steps);
    let mut reg = sim.metrics();
    let model = CpuModel::new(SYSTEM_A.cpu);
    for threads in [1, 20] {
        sim.profiler()
            .publish_modeled_metrics(&model, threads, &mut reg);
    }
    let mut doc = new_doc("sim", scale);
    doc.publish(&reg, default_policy);
    doc
}

/// The `BENCH_gpu.json` document: benchmark A offloaded through the
/// paper's best kernel (version II) and the post-paper CSR kernel —
/// the latter also with cross-step device residency —
/// covering the per-step pipeline timing breakdown (H2D / build / mech /
/// D2H — all modeled, hence gated) and the kernel counters.
pub fn gpu_doc(scale: &BenchScale) -> BenchDoc {
    let mut doc = new_doc("gpu", scale);
    for (key, version, resident) in [
        ("v2", KernelVersion::V2Sorted, false),
        ("v4csr", KernelVersion::V4Csr, false),
        // The same CSR kernel with cross-step device residency: gates
        // the transfer counters (`gpu.bytes_h2d`/`gpu.bytes_d2h`) and
        // `gpu.resident_steps` that the non-resident rows hold at their
        // re-upload-everything baseline.
        ("v4csr_resident", KernelVersion::V4Csr, true),
    ] {
        let mut sim = benchmark_a_offloaded(scale, ApiFrontend::Cuda, version);
        sim.set_gpu_resident(resident);
        sim.simulate(scale.a_steps);
        let mut reg = MetricsRegistry::new();
        for step in sim.profiler().steps() {
            for r in &step.records {
                if let Some(g) = &r.gpu {
                    g.publish_metrics(&[("version", key)], &mut reg);
                }
            }
        }
        doc.publish(&reg, default_policy);
    }
    doc
}

/// Write `BENCH_<doc.name>.json` under `dir` (created if needed);
/// returns the path.
pub fn write_doc(doc: &BenchDoc, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", doc.name));
    std::fs::write(&path, doc.to_json().to_pretty())?;
    Ok(path)
}

/// Parse a `BENCH_*.json` document back from disk.
pub fn read_doc(path: &Path) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    BenchDoc::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Destination directory of a `--json` / `--json=DIR` argument
/// (`results/` when bare), or `None` when the flag is absent.
pub fn json_dir_from_args(args: &[String]) -> Option<PathBuf> {
    for a in args {
        if a == "--json" {
            return Some(PathBuf::from("results"));
        }
        if let Some(dir) = a.strip_prefix("--json=") {
            return Some(PathBuf::from(dir));
        }
    }
    None
}

/// Write `doc` under `dir` and say so on stdout (after `lead`); a
/// directory that cannot be written is the command's failure.
fn report_written(doc: &BenchDoc, dir: &Path, lead: &str) -> ExitCode {
    match write_doc(doc, dir) {
        Ok(path) => {
            println!(
                "{lead}wrote {} ({} metrics)",
                path.display(),
                doc.metrics.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "bdm-bench: BENCH_{}.json under {}: {e}",
                doc.name,
                dir.display()
            );
            ExitCode::FAILURE
        }
    }
}

/// The tail of every `--json[=DIR]` command: when the flag was given,
/// publish `reg` under the standard policy as `BENCH_<name>.json`.
pub fn finish(args: &Args, name: &str, reg: &MetricsRegistry, lead: &str) -> ExitCode {
    let Some(dir) = &args.json else {
        return ExitCode::SUCCESS;
    };
    let mut doc = new_doc(name, &args.scale);
    doc.publish(reg, default_policy);
    report_written(&doc, dir, lead)
}

/// `bench_json [--out=DIR]`: emit the stable observability documents
/// (`BENCH_sim.json`, `BENCH_gpu.json`: per-op scheduler statistics,
/// mechanical phase timings and work counters, GPU pipeline timing and
/// transfer breakdowns) into `DIR` (default `results/`).
/// `scripts/bench_gate.sh` runs it at smoke scale and diffs the output
/// against the committed baselines.
pub fn bench_json(args: &Args) -> ExitCode {
    let scale = &args.scale;
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("results"));
    println!(
        "emitting BENCH_*.json at scale '{}' ({}^3 cells, {} steps) into {}",
        scale.label(),
        scale.a_cells_per_dim,
        scale.a_steps,
        out.display()
    );
    for doc in [sim_doc(scale), gpu_doc(scale)] {
        if report_written(&doc, &out, "  ") != ExitCode::SUCCESS {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `bench_gate [--baseline=DIR] --fresh=DIR [--tol=T]`: the
/// performance-regression gate. Every `BENCH_*.json` under the baseline
/// directory (default `results/`) must have a fresh counterpart; each
/// gated metric is compared under a symmetric relative tolerance (the
/// sample's own `tol` when present, `T` — default [`DEFAULT_TOL`] —
/// otherwise). Exit code 1 on any regression, missing metric or missing
/// document. See `scripts/bench_gate.sh` for the CI wiring.
pub fn bench_gate(args: &Args) -> ExitCode {
    let Some(fresh) = &args.fresh else {
        return usage_error("bench_gate: --fresh=DIR is required");
    };
    let baseline = args
        .baseline
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    let tol = args.tol.unwrap_or(DEFAULT_TOL);

    let mut names: Vec<String> = match std::fs::read_dir(&baseline) {
        Ok(entries) => entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("bdm-bench: baseline dir {}: {e}", baseline.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!(
            "bdm-bench: no BENCH_*.json baselines under {}",
            baseline.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for name in &names {
        let fresh_path = fresh.join(name);
        let report = read_doc(&baseline.join(name))
            .map_err(|e| format!("unreadable baseline: {e}"))
            .and_then(|base| {
                if !fresh_path.exists() {
                    return Err(format!("no fresh run at {}", fresh_path.display()));
                }
                let fresh = read_doc(&fresh_path);
                let fresh = fresh.map_err(|e| format!("unreadable fresh document: {e}"))?;
                Ok(bdm_metrics::compare(&base, &fresh, tol))
            });
        match report {
            Ok(report) => {
                print!("{}", report.render(name));
                failed |= !report.passed();
            }
            Err(why) => {
                println!("{name}: {why}\n  GATE FAILED");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "bench gate passed ({} documents, default tol {tol})",
        names.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_tiers() {
        assert!(!default_policy("scheduler.op_wall_s").gate);
        assert!(!default_policy("mech.phase_wall_s").gate);
        assert!(!default_policy("gpu.host_s").gate);
        assert!(!default_policy("gpu.trace_accesses").gate);
        assert!(!default_policy("gpu.launches").gate);
        assert_eq!(default_policy("scheduler.op_runs").tol, Some(0.0));
        assert_eq!(default_policy("sim.agents").tol, Some(0.0));
        assert_eq!(default_policy("mech.candidates").tol, Some(0.02));
        assert_eq!(default_policy("mech.simd_lanes_utilized").tol, Some(0.02));
        assert_eq!(default_policy("mech.f32_refresh_copies").tol, Some(0.02));
        assert!(!default_policy("layouts.simd_mech_wall_ms").gate);
        assert!(!default_policy("layouts.simd_speedup_wall_x").gate);
        assert_eq!(default_policy("gpu.mech.flops_fp32").tol, Some(0.02));
        assert_eq!(default_policy("gpu.sort_gathers").tol, Some(0.0));
        assert_eq!(default_policy("layouts.csr_index_gap").tol, Some(0.02));
        assert!(!default_policy("mech.simd_stencils_staged").gate);
        assert!(!default_policy("mech.stencils_staged").gate);
        assert!(!default_policy("agents.resident_bytes").gate);
        assert!(!default_policy("agents.behavior_lists").gate);
        assert!(!default_policy("behaviors.commit_ms").gate);
        assert!(!default_policy("reorder.resident_bytes").gate);
        assert!(!default_policy("reorder.runs").gate);
        assert!(!default_policy("layouts.reorder_mech_wall_ms").gate);
        assert_eq!(default_policy("layouts.shard_imbalance").tol, Some(0.02));
        assert_eq!(
            default_policy("layouts.shard_halo_fraction").tol,
            Some(0.02)
        );
        assert_eq!(
            default_policy("layouts.shard_mech_modeled_ms").tol,
            Some(0.02)
        );
        assert_eq!(
            default_policy("layouts.shard_speedup_modeled_x").tol,
            Some(0.02)
        );
        assert!(!default_policy("layouts.shard_step_wall_ms").gate);
        assert!(!default_policy("layouts.shard_mech_wall_ms").gate);
        assert!(!default_policy("checkpoint.write_ms").gate);
        assert!(!default_policy("checkpoint.read_ms").gate);
        assert_eq!(default_policy("checkpoint.bytes_total").tol, Some(0.02));
        assert_eq!(default_policy("checkpoint.bytes_per_agent").tol, Some(0.02));
        assert_eq!(default_policy("checkpoint.agents").tol, Some(0.0));
        assert_eq!(default_policy("checkpoint.sections").tol, Some(0.0));
        assert_eq!(default_policy("diffusion.voxel_updates").tol, Some(0.0));
        assert_eq!(default_policy("diffusion.substeps").tol, Some(0.0));
        assert_eq!(default_policy("diffusion.simd_rows").tol, Some(0.0));
        assert_eq!(default_policy("diffusion.batch_substances").tol, Some(0.0));
        assert_eq!(default_policy("diffusion.modeled_ms").tol, Some(0.02));
        assert_eq!(
            default_policy("diffusion.speedup_modeled_x").tol,
            Some(0.02)
        );
        assert_eq!(
            default_policy("diffusion.interior_fraction").tol,
            Some(0.02)
        );
        assert!(!default_policy("diffusion.step_wall_ms").gate);
        assert!(!default_policy("diffusion.batch_wall_ms").gate);
        assert!(!default_policy("diffusion.resident_bytes").gate);
        let modeled = default_policy("profiler.modeled_total_s");
        assert!(modeled.gate && modeled.tol.is_none());
        assert!(default_policy("gpu.total_s").gate);
    }

    #[test]
    fn json_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(json_dir_from_args(&args(&[])), None);
        assert_eq!(
            json_dir_from_args(&args(&["--json"])),
            Some(PathBuf::from("results"))
        );
        assert_eq!(
            json_dir_from_args(&args(&["--json=/tmp/x"])),
            Some(PathBuf::from("/tmp/x"))
        );
    }
}
