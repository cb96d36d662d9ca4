//! The paper's benchmark B: neighborhood-density sweep.
//!
//! Two million agents (here: configurable, default 50k) are frozen at
//! random positions in a box sized to hit a target mean density; the
//! mechanical operation then runs with the CPU uniform grid and with the
//! simulated-GPU offload, reporting how work and runtime scale with the
//! paper's `n` (Figs. 10/11).
//!
//! ```bash
//! cargo run --release --example density_sweep [agents]
//! ```

use biodynamo::prelude::*;
use biodynamo::sim::workload::{benchmark_b, DENSITY_SWEEP};

fn main() {
    let agents: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    println!("density sweep: {agents} frozen agents per point (paper: 2,000,000)\n");
    println!(
        "{:>8} {:>10} {:>16} {:>14} {:>18}",
        "target n", "measured", "candidates/agent", "CPU wall (ms)", "GPU modeled (ms)"
    );
    for &target in &DENSITY_SWEEP {
        // CPU side: parallel uniform grid (wall time on this host).
        let mut cpu = benchmark_b(agents, target, 7);
        cpu.set_environment(EnvironmentKind::uniform_grid_parallel());
        let t = std::time::Instant::now();
        cpu.simulate(1);
        let wall = t.elapsed().as_secs_f64();
        let w = cpu.last_mech_work().unwrap();
        let measured = w.mean_density(cpu.rm().len());
        let candidates = w.candidates as f64 / cpu.rm().len() as f64;

        // GPU side: version II on the simulated V100.
        let mut gpu = benchmark_b(agents, target, 7);
        gpu.set_environment(EnvironmentKind::Gpu {
            system: GpuSystem::B,
            frontend: ApiFrontend::Cuda,
            version: KernelVersion::V2Sorted,
            trace_sample: (agents as u64 / 32 / 1024).max(1),
        });
        gpu.simulate(1);
        let gpu_ms = gpu
            .profiler()
            .steps()
            .iter()
            .flat_map(|s| &s.records)
            .filter_map(|r| r.gpu.as_ref())
            .map(|g| g.total_s)
            .sum::<f64>()
            * 1e3;

        println!(
            "{target:>8.0} {measured:>10.1} {candidates:>16.1} {:>14.1} {gpu_ms:>18.3}",
            wall * 1e3
        );
    }
    println!("\nThe GPU's modeled advantage is the paper's Figs. 10/11; run");
    println!("`cargo run -p bdm-bench -- fig10_fig11` for the full comparison.");
}
