//! Diagnostic: per-version GPU step breakdown on benchmark A.
use bdm_bench::{gpu_totals, trace_sample_for, BenchScale};
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::KernelVersion;
use bdm_sim::environment::GpuSystem;
use bdm_sim::workload::benchmark_a;
use bdm_sim::EnvironmentKind;

fn main() {
    let scale = BenchScale::from_env();
    for version in KernelVersion::ALL {
        let mut sim = benchmark_a(scale.a_cells_per_dim, 0x8);
        sim.set_environment(EnvironmentKind::Gpu {
            system: GpuSystem::A,
            frontend: ApiFrontend::Cuda,
            version,
            trace_sample: trace_sample_for(scale.a_cells(), scale.trace_budget),
        });
        sim.simulate(scale.a_steps);
        let (total, counters, mech_s) = gpu_totals(sim.profiler());
        let c = counters.unwrap();
        // Last step report details:
        let last = sim.profiler().steps().last().unwrap();
        let g = last.records.iter().find_map(|r| r.gpu.as_ref()).unwrap();
        println!(
            "{:<28} total={:>7.1}ms last: h2d={:.2}ms build={:.2}ms mech={:.2}ms d2h={:.2}ms",
            version.label(),
            total * 1e3,
            g.h2d_s * 1e3,
            g.build_s * 1e3,
            mech_s * 1e3,
            g.d2h_s * 1e3
        );
        println!(
            "   mech: txns={:.2e} l2_share={:.2} dram={:.1}MB flops={:.2e} cyc={:.2e} atomics_cyc={:.2e} AI={:.2}",
            c.global_transactions, c.l2_read_share(), c.dram_bytes() / 1e6,
            c.total_flops(), c.compute_warp_cycles, c.atomic_serial_cycles,
            c.arithmetic_intensity()
        );
        println!(
            "   simulator host cost: exec={:.1}ms coalesce={:.1}ms drain={:.1}ms",
            g.host.exec_s * 1e3,
            g.host.coalesce_s * 1e3,
            g.host.drain_s * 1e3
        );
        println!(
            "   last step: sync={} grid={}",
            g.sync.label(),
            if g.grid_built { "built" } else { "skipped" }
        );
    }
}
