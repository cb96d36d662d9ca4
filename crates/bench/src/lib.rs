//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! One binary, `bdm-bench <command> [arguments]`, dispatched through
//! [`cli::COMMANDS`] (`bdm-bench list` prints the names). Each `fig*`
//! module exposes a `run(&BenchScale)` returning structured rows, a
//! `render` that prints the series the paper reports, and the command's
//! entry point beside them.
//!
//! | command | what it prints | module |
//! |---|---|---|
//! | `table1` | Table I | [`table1`] |
//! | `fig2_visualization` | Fig. 2 (a PPM image) | [`fig2`] |
//! | `fig3_profile` | Fig. 3 | [`fig3`] |
//! | `fig8_fig9` | Figs. 8+9 | [`fig8`] |
//! | `fig10_fig11` | Figs. 10+11 | [`fig10`] |
//! | `fig12_roofline` | Fig. 12 | [`fig12`] |
//! | `ablation_dynpar` | §VI future work | [`dynpar`] |
//! | `ablation_curves` | Z-order vs Hilbert | [`ablation`] |
//! | `ablation_frontends` | CUDA vs OpenCL | [`ablation`] |
//! | `ablation_sampling` | trace-sampling fidelity | [`ablation`] |
//! | `ablation_transfers` | transfer share vs population | [`ablation`] |
//! | `verify_reproduction` | reproduction checklist | [`verify`] |
//! | `bench_json` | `BENCH_sim.json`, `BENCH_gpu.json` | [`emit`] |
//! | `bench_layouts` | grid layouts, reorder, shards, precision | [`layouts`] |
//! | `bench_diffusion` | diffusion sweep vs reference | [`diffusion`] |
//! | `bench_checkpoint` | checkpoint cost and stream shape | [`checkpoint`] |
//! | `bench_threads` | measured vs modeled worker scaling | [`threads`] |
//! | `bench_gate` | the regression gate over `BENCH_*.json` | [`emit`] |
//! | `debug_counters` | work counters per environment | [`debug`] |
//! | `debug_gpu` | GPU step breakdown per version | [`debug`] |
//! | `debug_steps` | per-step GPU kernel time | [`debug`] |
//! | `debug_shards` | sharded pass per phase | [`debug`] |
//!
//! Scale control: the default sizes finish on a laptop-class machine;
//! `BDM_BENCH_SCALE=smoke | default | paper` selects another
//! ([`BenchScale`]; `paper` is the paper's full 262,144-cell /
//! 2-million-agent configuration, `smoke` the reduced-scale run of any
//! figure). The `--json[=DIR]` commands also write their numbers as
//! `BENCH_<name>.json` ([`emit`]).

pub mod ablation;
pub mod checkpoint;
pub mod cli;
pub mod debug;
pub mod diffusion;
pub mod dynpar;
pub mod emit;
pub mod fig10;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig8;
pub mod layouts;
pub mod paper;
pub mod scale;
pub mod table;
pub mod table1;
pub mod threads;
pub mod verify;

pub use scale::BenchScale;

use bdm_device::cpu::Phase;
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::KernelVersion;
use bdm_sim::environment::GpuSystem;
use bdm_sim::profiler::Profiler;
use bdm_sim::workload::{benchmark_a, benchmark_b};
use bdm_sim::{EnvironmentKind, SimParams, Simulation};
use std::time::Instant;

/// Repetitions behind every reported wall-clock median.
pub const REPS: usize = 5;

/// The median of `samples` (the upper one of an even count).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median wall milliseconds of [`REPS`] calls of `f`.
pub fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}

/// [`benchmark_a`]'s lattice under parameters of the caller's choosing
/// (reorder policy, precision, shards — what `Simulation::new` reads and
/// no setter changes afterwards).
pub fn benchmark_a_with(
    cells_per_dim: usize,
    seed: u64,
    params: impl FnOnce(SimParams) -> SimParams,
) -> Simulation {
    let lattice = benchmark_a(cells_per_dim, seed);
    let mut sim = Simulation::new(params(lattice.params().clone()));
    *sim.rm_mut() = lattice.rm().clone();
    sim
}

/// Benchmark A (seed 0x8 — every System A row shares one trajectory)
/// with the mechanical operation offloaded to System A's GPU.
pub fn benchmark_a_offloaded(
    scale: &BenchScale,
    frontend: ApiFrontend,
    version: KernelVersion,
) -> Simulation {
    let mut sim = benchmark_a(scale.a_cells_per_dim, 0x8);
    sim.set_environment(EnvironmentKind::Gpu {
        system: GpuSystem::A,
        frontend,
        version,
        trace_sample: trace_sample_for(scale.a_cells(), scale.trace_budget),
    });
    sim
}

/// Benchmark B offloaded to System B's GPU through the CUDA frontend.
pub fn benchmark_b_offloaded(
    scale: &BenchScale,
    agents: usize,
    density: f64,
    seed: u64,
    version: KernelVersion,
) -> Simulation {
    let mut sim = benchmark_b(agents, density, seed);
    sim.set_environment(EnvironmentKind::Gpu {
        system: GpuSystem::B,
        frontend: ApiFrontend::Cuda,
        version,
        trace_sample: trace_sample_for(agents, scale.trace_budget),
    });
    sim
}

/// Names of the profiler records that make up the mechanical
/// interactions operation on the CPU paths.
pub const MECH_OP_RECORDS: [&str; 3] = [
    "neighborhood build",
    "neighborhood search",
    "mechanical forces",
];

/// Collect the work phases of the mechanical op across all recorded
/// steps (the quantity Figs. 8–11 time).
pub fn mech_phases(profiler: &Profiler) -> Vec<Phase> {
    let mut phases = Vec::new();
    for step in profiler.steps() {
        for r in &step.records {
            if MECH_OP_RECORDS.contains(&r.name.as_str()) {
                phases.extend(r.phases.iter().copied());
            }
        }
    }
    phases
}

/// Sum of wall seconds of the mechanical op across steps.
pub fn mech_wall(profiler: &Profiler) -> f64 {
    profiler
        .steps()
        .iter()
        .flat_map(|s| &s.records)
        .filter(|r| MECH_OP_RECORDS.contains(&r.name.as_str()) || r.gpu.is_some())
        .map(|r| r.wall_s)
        .sum()
}

/// Total modeled GPU *kernel* time (grid build + mechanical kernels,
/// excluding transfers) across steps.
pub fn gpu_kernel_total(profiler: &Profiler) -> f64 {
    profiler
        .steps()
        .iter()
        .flat_map(|s| &s.records)
        .filter_map(|r| r.gpu.as_ref())
        .map(|g| g.kernel_s())
        .sum()
}

/// Total modeled GPU time (transfers + kernels) across steps, plus the
/// merged mechanical-kernel counters of the last step (roofline input).
pub fn gpu_totals(profiler: &Profiler) -> (f64, Option<bdm_gpu::counters::KernelCounters>, f64) {
    let mut total = 0.0;
    let mut last_counters = None;
    let mut last_mech_s = 0.0;
    for step in profiler.steps() {
        for r in &step.records {
            if let Some(g) = &r.gpu {
                total += g.total_s;
                last_counters = Some(g.mech_counters.clone());
                last_mech_s = g.mech_s;
            }
        }
    }
    (total, last_counters, last_mech_s)
}

/// Pick a warp-trace sampling stride that keeps detailed tracing around
/// `budget` warps for an `agents`-sized launch.
pub fn trace_sample_for(agents: usize, budget: u64) -> u64 {
    let warps = (agents as u64).div_ceil(32);
    (warps / budget).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sample_scales() {
        assert_eq!(trace_sample_for(1000, 2048), 1);
        assert!(trace_sample_for(10_000_000, 2048) > 100);
    }

    #[test]
    fn mech_phase_extraction_covers_cpu_pipelines() {
        let mut sim = benchmark_a(4, 1);
        sim.set_environment(EnvironmentKind::KdTree);
        sim.simulate(2);
        let phases = mech_phases(sim.profiler());
        // kd pipeline: 3 phases per step.
        assert_eq!(phases.len(), 6);
        assert!(mech_wall(sim.profiler()) > 0.0);
        // No GPU records on the CPU path.
        let (total, counters, _) = gpu_totals(sim.profiler());
        assert_eq!(total, 0.0);
        assert!(counters.is_none());
        assert_eq!(gpu_kernel_total(sim.profiler()), 0.0);
    }

    #[test]
    fn gpu_totals_cover_gpu_pipeline() {
        let mut sim = benchmark_a(4, 1);
        sim.set_environment(EnvironmentKind::gpu_default());
        sim.simulate(2);
        assert!(mech_phases(sim.profiler()).is_empty());
        let (total, counters, mech_s) = gpu_totals(sim.profiler());
        assert!(total > 0.0);
        assert!(counters.unwrap().total_flops() > 0.0);
        assert!(mech_s > 0.0);
        let kernel = gpu_kernel_total(sim.profiler());
        assert!(kernel > 0.0 && kernel < total, "kernel excludes transfers");
    }
}
