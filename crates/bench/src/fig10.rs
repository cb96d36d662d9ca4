//! Figs. 10 + 11 regenerator: benchmark B — runtime and speedup vs
//! neighborhood density (System B).
//!
//! For each density point: the CPU rows are the **baseline version** —
//! the kd-tree pipeline, as in the paper's Fig. 10 ("the Intel Xeon
//! entries represent the baseline version") — modeled at 4/8/16/32/64
//! threads on the Xeon Gold 6130 (up to 32 threads = one NUMA domain, as
//! the paper pins); the GPU row is the best kernel (version II) on the
//! simulated V100. Expected shape (§VI): thread scaling is marginal (the
//! serial kd build plus memory-bound queries), the GPU wins by two
//! orders of magnitude, and the GPU's advantage stagnates as density
//! rises (serial neighbor loop).

use crate::cli::Args;
use crate::scale::BenchScale;
use crate::{benchmark_b_offloaded, gpu_totals, mech_phases, table};
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_B;
use bdm_gpu::pipeline::KernelVersion;
use bdm_sim::workload::{benchmark_b, DENSITY_SWEEP};
use bdm_sim::EnvironmentKind;
use std::process::ExitCode;

const SEED: u64 = 0xB;

/// The thread counts of Fig. 10's CPU series.
pub const THREAD_SWEEP: [u32; 5] = [4, 8, 16, 32, 64];

/// One density point of Figs. 10/11.
#[derive(Debug, Clone)]
pub struct DensityPoint {
    /// Target mean neighbors per agent.
    pub target_n: f64,
    /// Realized mean density (measured from the actual neighbor counts).
    pub measured_n: f64,
    /// Modeled per-step CPU seconds at each [`THREAD_SWEEP`] entry.
    pub cpu_s: Vec<(u32, f64)>,
    /// Modeled per-step GPU seconds (version II, V100).
    pub gpu_s: f64,
}

impl DensityPoint {
    /// Fig. 11: GPU speedup vs the `threads`-thread baseline.
    pub fn speedup_vs(&self, threads: u32) -> f64 {
        let cpu = self
            .cpu_s
            .iter()
            .find(|(t, _)| *t == threads)
            .expect("thread count not in sweep")
            .1;
        cpu / self.gpu_s
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct Fig10Report {
    /// Density points, ascending.
    pub points: Vec<DensityPoint>,
    /// Number of agents per point.
    pub agents: usize,
}

impl Fig10Report {
    /// Render Fig. 10 (runtimes).
    pub fn render_runtimes(&self) -> String {
        let mut headers: Vec<String> = vec!["density n".into()];
        headers.extend(THREAD_SWEEP.iter().map(|t| format!("{t} threads")));
        headers.push("Tesla V100".into());
        let headers: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let mut row = vec![format!("{:.1}", p.measured_n)];
                row.extend(p.cpu_s.iter().map(|(_, s)| table::ms(*s)));
                row.push(table::ms(p.gpu_s));
                row
            })
            .collect();
        table::render(&headers, &rows)
    }

    /// Render Fig. 11 (speedups vs each thread baseline).
    pub fn render_speedups(&self) -> String {
        let mut headers: Vec<String> = vec!["density n".into()];
        headers.extend(THREAD_SWEEP.iter().map(|t| format!("vs {t}T")));
        let headers: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let mut row = vec![format!("{:.1}", p.measured_n)];
                row.extend(
                    THREAD_SWEEP
                        .iter()
                        .map(|&t| table::speedup(p.speedup_vs(t))),
                );
                row
            })
            .collect();
        table::render(&headers, &rows)
    }
}

/// Run one density point.
pub fn run_point(scale: &BenchScale, target_n: f64) -> DensityPoint {
    // CPU pipeline: the baseline version (kd-tree).
    let mut sim = benchmark_b(scale.b_agents, target_n, SEED);
    sim.set_environment(EnvironmentKind::KdTree);
    sim.simulate(scale.b_steps);
    let measured_n = sim
        .last_mech_work()
        .map(|w| w.mean_density(sim.rm().len()))
        .unwrap_or(0.0);
    let phases = mech_phases(sim.profiler());
    let model = CpuModel::new(SYSTEM_B.cpu);
    let steps = scale.b_steps as f64;
    let cpu_s: Vec<(u32, f64)> = THREAD_SWEEP
        .iter()
        .map(|&t| (t, model.total_time(&phases, t) / steps))
        .collect();

    // GPU pipeline (best version on the V100).
    let version = KernelVersion::V2Sorted;
    let mut sim = benchmark_b_offloaded(scale, scale.b_agents, target_n, SEED, version);
    sim.simulate(scale.b_steps);
    let (gpu_total, _, _) = gpu_totals(sim.profiler());

    DensityPoint {
        target_n,
        measured_n,
        cpu_s,
        gpu_s: gpu_total / steps,
    }
}

/// Run the whole density sweep.
pub fn run(scale: &BenchScale) -> Fig10Report {
    let points = DENSITY_SWEEP.iter().map(|&n| run_point(scale, n)).collect();
    Fig10Report {
        points,
        agents: scale.b_agents,
    }
}

/// `fig10_fig11`: regenerate Figs. 10 + 11, benchmark B runtime and
/// speedup vs neighborhood density (System B: Xeon Gold 6130 vs Tesla
/// V100).
pub fn main(args: &Args) -> ExitCode {
    let scale = &args.scale;
    println!(
        "Figs. 10+11: benchmark B ({} agents, {} steps per density; paper scale: 2M)\n",
        scale.b_agents, scale.b_steps
    );
    let r = run(scale);
    println!("Fig. 10 — per-step runtime:\n{}", r.render_runtimes());
    println!(
        "Fig. 11 — GPU speedup over the multithreaded baseline:\n{}",
        r.render_speedups()
    );
    println!("paper bands: 160–232x vs 4 threads, 71–113x vs 64 threads,");
    println!("with the speedup stagnating as density rises (serial neighbor loop)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_point_shape() {
        let scale = BenchScale::smoke();
        let lo = run_point(&scale, 6.0);
        let hi = run_point(&scale, 47.0);
        // Density realized within a sane band.
        assert!(
            lo.measured_n > 2.0 && lo.measured_n < 12.0,
            "{}",
            lo.measured_n
        );
        assert!(hi.measured_n > 25.0, "{}", hi.measured_n);
        // GPU beats every CPU row at both densities.
        for p in [&lo, &hi] {
            for &(t, cpu) in &p.cpu_s {
                assert!(
                    p.gpu_s < cpu,
                    "GPU {} not faster than {}T CPU {}",
                    p.gpu_s,
                    t,
                    cpu
                );
            }
        }
        // Fig. 10: more threads never slower in the model.
        for w in lo.cpu_s.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.01);
        }
        // Denser work costs more on both sides.
        assert!(hi.cpu_s[0].1 > lo.cpu_s[0].1);
        assert!(hi.gpu_s > lo.gpu_s);
    }
}
