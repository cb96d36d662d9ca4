//! Drive the GPU offload pipeline directly: every kernel version under
//! both API labels, with the simulator's performance counters — the
//! reproduction's equivalent of an `nvprof` session (§V).
//!
//! ```bash
//! cargo run --release --example gpu_offload
//! ```

use bdm_gpu::pipeline::{MechanicalPipeline, SceneRef};
use biodynamo::prelude::*;
use biodynamo::sim::workload::benchmark_b;

fn main() {
    // A frozen random scene (benchmark-B style) to feed the pipeline.
    let agents = 30_000;
    let sim = benchmark_b(agents, 27.0, 11);
    let (xs, ys, zs) = sim.rm().position_columns();
    let scene = SceneRef {
        xs,
        ys,
        zs,
        diameters: sim.rm().diameter_column(),
        adherences: sim.rm().adherence_column(),
        space: sim.params().space,
        box_len: sim.rm().largest_diameter(),
    };
    let params = MechParams::default_params();

    println!("GPU offload of one mechanical step: {agents} agents at n ≈ 27\n");
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>11} {:>9} {:>8}",
        "kernel (CUDA / System A)", "h2d", "kernel", "d2h", "DRAM MB", "L2 hit", "AI"
    );
    for version in KernelVersion::ALL {
        let mut pipeline =
            MechanicalPipeline::new(bdm_device::specs::SYSTEM_A, ApiFrontend::Cuda, version, 4);
        let (disp, report) = pipeline.step(&scene, &params);
        let moved = disp.iter().filter(|d| **d != Vec3::zero()).count();
        let c = &report.mech_counters;
        println!(
            "{:<28} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>11.1} {:>8.1}% {:>8.2}  ({} cells pushed)",
            version.label(),
            report.h2d_s * 1e3,
            report.kernel_s() * 1e3,
            report.d2h_s * 1e3,
            c.dram_bytes() / 1e6,
            c.l2_read_share() * 100.0,
            c.arithmetic_intensity(),
            moved,
        );
    }

    // The paper runs both APIs (§IV-B); here CUDA and OpenCL are labels on
    // one launch path (the same grid on the same engine), so the two rows
    // must print the same kernel time and checksum.
    println!("\nfrontend check (version II):");
    for frontend in [ApiFrontend::Cuda, ApiFrontend::OpenCl] {
        let mut pipeline = MechanicalPipeline::new(
            bdm_device::specs::SYSTEM_A,
            frontend,
            KernelVersion::V2Sorted,
            4,
        );
        let (disp, report) = pipeline.step(&scene, &params);
        let checksum: f64 = disp.iter().map(|d| d.x + d.y + d.z).sum();
        println!(
            "  {:<8} kernel {:>7.2} ms, displacement checksum {:+.6e}",
            frontend.name(),
            report.kernel_s() * 1e3,
            checksum
        );
    }
}
