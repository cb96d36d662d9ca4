//! Figs. 8 + 9 regenerator: benchmark A across every implementation.
//!
//! Reproduced series (System A):
//!
//! * serial kd-tree, serial uniform grid (1 modeled thread);
//! * parallel kd-tree, parallel uniform grid (20 modeled threads, one
//!   NUMA domain — the paper pins with `taskset`);
//! * GPU versions 0, I, II, III (CUDA frontend on the simulated
//!   GTX 1080 Ti; transfers included).
//!
//! Expected shape (§VI): serial UG ≈ 2× serial kd; parallel UG ≈ 4.3×
//! parallel kd; GPU v0 ≈ 7.9× parallel kd; I ≈ 2× v0; II ≈ 2.6× I;
//! III ≈ 1.28× *slower* than II.
//!
//! GPU rows compare *kernel-side* time (grid build + mechanical kernel).
//! At the paper's scale the kernels dwarf the PCIe copies, so the
//! distinction doesn't matter there; at reduced scale the fixed copy
//! costs would otherwise mask the kernel-level improvements the paper
//! studies. The with-transfers total is reported alongside.

use crate::cli::Args;
use crate::scale::BenchScale;
use crate::{benchmark_a_offloaded, emit, gpu_totals, mech_phases, mech_wall, paper, table};
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_gpu::pipeline::KernelVersion;
use bdm_metrics::MetricsRegistry;
use bdm_sim::workload::benchmark_a;
use bdm_sim::EnvironmentKind;
use std::process::ExitCode;

const SEED: u64 = 0x8;

/// One bar of Figs. 8/9.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Implementation label.
    pub label: String,
    /// Modeled mechanical-op seconds over the whole run (kernel-side for
    /// GPU rows).
    pub modeled_s: f64,
    /// Offload total including PCIe transfers (GPU rows only).
    pub offload_total_s: Option<f64>,
    /// Host wall seconds (sanity column; CPU rows only).
    pub wall_s: Option<f64>,
    /// The paper's reported milliseconds, when printed in §VI.
    pub paper_ms: Option<f64>,
}

/// The full Figs. 8/9 dataset.
#[derive(Debug, Clone)]
pub struct Fig8Report {
    /// Rows in the paper's presentation order.
    pub rows: Vec<Fig8Row>,
    /// Benchmark A population at the end of the run.
    pub final_population: usize,
}

impl Fig8Report {
    /// Runtime of a labeled row.
    pub fn seconds(&self, label: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("no row {label}"))
            .modeled_s
    }

    /// Render Fig. 8 (runtimes) + Fig. 9 (speedups vs the serial kd-tree
    /// baseline) as one table.
    pub fn render(&self) -> String {
        let base_serial = self.seconds("kd-tree (serial)");
        let base_par = self.seconds("kd-tree (20 threads)");
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    table::ms(r.modeled_s),
                    table::speedup(base_serial / r.modeled_s),
                    table::speedup(base_par / r.modeled_s),
                    r.offload_total_s
                        .map(table::ms)
                        .unwrap_or_else(|| "-".into()),
                    r.wall_s.map(table::ms).unwrap_or_else(|| "-".into()),
                    r.paper_ms
                        .map(|m| format!("{m:.0} ms"))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        table::render(
            &[
                "implementation",
                "modeled",
                "vs serial kd",
                "vs 20T kd",
                "+transfers",
                "host wall",
                "paper",
            ],
            &rows,
        )
    }
}

fn run_cpu(scale: &BenchScale, env: EnvironmentKind) -> (Vec<bdm_device::cpu::Phase>, f64) {
    let mut sim = benchmark_a(scale.a_cells_per_dim, SEED);
    sim.set_environment(env);
    sim.simulate(scale.a_steps);
    (mech_phases(sim.profiler()), mech_wall(sim.profiler()))
}

fn run_gpu(scale: &BenchScale, version: KernelVersion) -> (f64, f64, usize) {
    let mut sim = benchmark_a_offloaded(scale, version);
    sim.simulate(scale.a_steps);
    let (total, _, _) = gpu_totals(sim.profiler());
    let kernel = crate::gpu_kernel_total(sim.profiler());
    (kernel, total, sim.rm().len())
}

/// Run the full benchmark A comparison.
pub fn run(scale: &BenchScale) -> Fig8Report {
    let model = CpuModel::new(SYSTEM_A.cpu);
    let mut rows = Vec::new();

    let (kd_phases, kd_wall) = run_cpu(scale, EnvironmentKind::KdTree);
    rows.push(Fig8Row {
        label: "kd-tree (serial)".into(),
        modeled_s: model.total_time(&kd_phases, 1),
        offload_total_s: None,
        wall_s: Some(kd_wall),
        paper_ms: None,
    });
    let (ugs_phases, ugs_wall) = run_cpu(scale, EnvironmentKind::uniform_grid_serial());
    rows.push(Fig8Row {
        label: "uniform grid (serial)".into(),
        modeled_s: model.total_time(&ugs_phases, 1),
        offload_total_s: None,
        wall_s: Some(ugs_wall),
        paper_ms: None,
    });
    rows.push(Fig8Row {
        label: "kd-tree (20 threads)".into(),
        modeled_s: model.total_time(&kd_phases, 20),
        offload_total_s: None,
        wall_s: None,
        paper_ms: Some(paper::fig8::PARALLEL_KDTREE_MS),
    });
    let (ugp_phases, ugp_wall) = run_cpu(scale, EnvironmentKind::uniform_grid_parallel());
    rows.push(Fig8Row {
        label: "uniform grid (20 threads)".into(),
        modeled_s: model.total_time(&ugp_phases, 20),
        offload_total_s: None,
        wall_s: Some(ugp_wall),
        paper_ms: Some(paper::fig8::PARALLEL_UG_MS),
    });

    let mut final_population = 0;
    for (version, paper_ms) in [
        (KernelVersion::V0, Some(paper::fig8::GPU_V0_MS)),
        (KernelVersion::V1Fp32, Some(paper::fig8::GPU_V1_MS)),
        (KernelVersion::V2Sorted, Some(paper::fig8::GPU_V2_MS)),
        (
            KernelVersion::V3Shared,
            Some(paper::fig8::GPU_V2_MS * paper::fig8::GPU_V3_SLOWDOWN),
        ),
    ] {
        let (kernel, total, pop) = run_gpu(scale, version);
        final_population = pop;
        rows.push(Fig8Row {
            label: version.label().to_string(),
            modeled_s: kernel,
            offload_total_s: Some(total),
            wall_s: None,
            paper_ms,
        });
    }

    Fig8Report {
        rows,
        final_population,
    }
}

/// `fig8_fig9 [--json[=DIR]]`: regenerate Figs. 8 + 9, benchmark A
/// runtimes and speedups across all implementations of the mechanical
/// interaction operation (System A); `--json` also serializes the rows
/// as `BENCH_fig8.json`.
pub fn main(args: &Args) -> ExitCode {
    let scale = &args.scale;
    println!(
        "Figs. 8+9: benchmark A ({}^3 = {} cells, {} steps; paper scale: 64^3)\n",
        scale.a_cells_per_dim,
        scale.a_cells(),
        scale.a_steps
    );
    let r = run(scale);
    println!("{}", r.render());
    println!("final population: {} cells", r.final_population);
    println!("\nexpected shape (paper §VI): serial UG ≈ 2x serial kd; 20T UG ≈ 4.3x 20T kd;");
    println!("GPU v0 ≈ 7.9x 20T kd; I ≈ 2x v0; II ≈ 2.6x I; III ≈ 1.28x slower than II");

    let mut reg = MetricsRegistry::new();
    for row in &r.rows {
        let labels = [("impl", row.label.as_str())];
        reg.set_gauge("fig8.modeled_s", &labels, row.modeled_s);
        if let Some(t) = row.offload_total_s {
            reg.set_gauge("fig8.offload_total_s", &labels, t);
        }
        if let Some(w) = row.wall_s {
            reg.set_gauge("fig8.host_wall_s", &labels, w);
        }
    }
    reg.set_gauge("fig8.final_population", &[], r.final_population as f64);
    emit::finish(args, "fig8", &reg, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The qualitative ordering of §VI must hold at smoke scale.
    #[test]
    fn paper_ordering_holds() {
        let r = run(&BenchScale::smoke());
        let serial_kd = r.seconds("kd-tree (serial)");
        let serial_ug = r.seconds("uniform grid (serial)");
        let par_kd = r.seconds("kd-tree (20 threads)");
        let par_ug = r.seconds("uniform grid (20 threads)");
        let v0 = r.seconds(KernelVersion::V0.label());
        let v1 = r.seconds(KernelVersion::V1Fp32.label());
        let v2 = r.seconds(KernelVersion::V2Sorted.label());
        let v3 = r.seconds(KernelVersion::V3Shared.label());

        assert!(serial_ug < serial_kd, "UG should beat kd serially");
        assert!(par_ug < par_kd, "UG should beat kd in parallel");
        assert!(v0 < par_ug, "GPU v0 should beat the best CPU row");
        assert!(v1 < v0, "fp32 should beat fp64");
        assert!(v2 < v1, "z-order should beat unsorted");
        assert!(
            v3 > v2,
            "shared-memory version should regress (paper: +28%)"
        );
        assert!(r.final_population > 0);
        assert!(r.render().contains("GPU version II"));
    }
}
