//! Diffusion engine benchmark: the in-place slab sweep vs. the retained
//! out-of-place reference sweep, across lattice sizes.
//!
//! For each resolution the table reports the heap bytes the stepped
//! field holds (its lattice: the sweep's planes are borrowed — printed,
//! not gated), the deterministic work counters of one step (voxel
//! updates, sub-steps, interior fraction, SIMD rows) and the System A
//! 20-thread modeled times of both engines under the roofline work
//! model (with a standing `≥1.5×` speedup assert at 64³). Every run
//! also re-verifies the bitwise parity contract between the two engines
//! — a divergence fails loudly before any metrics are emitted. Nothing
//! here is timed: the `benchmark/` harness times the sweep at workload
//! scale (`diffusion.*`), and a simulation's diffusion wall clock is in
//! [`Simulation::metrics`](bdm_sim::Simulation::metrics).
//!
//! `--json[=DIR]` serializes the counters and modeled times as
//! `BENCH_diffusion.json` for `scripts/bench_gate.sh`.

use crate::cli::Args;
use crate::emit;
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_math::{Aabb, Vec3};
use bdm_metrics::MetricsRegistry;
use bdm_sim::work_model as wm;
use bdm_sim::{BoundaryCondition, DiffusionGrid, DiffusionParams, Precision};
use std::process::ExitCode;

/// Steps run per parity check.
const STEPS: u32 = 2;
/// One stiff-ish substance over a 64-unit box: h = 64/res, so 64³ runs
/// at λ = D·dt·Σ1/h² = 0.6 → 4 sub-steps, while 16³/32³ stay at 1.
const COEFF: f64 = 0.05;
const DECAY: f64 = 0.01;
const DT: f64 = 4.0;
const MODEL_THREADS: u32 = 20;

fn seeded_grid(res: usize) -> DiffusionGrid {
    let mut g = DiffusionGrid::new(
        DiffusionParams {
            name: "bench",
            coefficient: COEFF,
            decay: DECAY,
            resolution: res,
            boundary: BoundaryCondition::Closed,
        },
        Aabb::cube(32.0),
    );
    // Deterministic multi-source field spanning the box.
    for i in 0..24 {
        let f = i as f64;
        g.secrete(
            Vec3::new(
                (f * 7.3).sin() * 28.0,
                (f * 3.1).cos() * 28.0,
                (f * 11.7).sin() * 28.0,
            ),
            10.0 + f,
        );
    }
    g
}

/// `bench_diffusion [--json[=DIR]]`.
pub fn main(args: &Args) -> ExitCode {
    let model = CpuModel::new(SYSTEM_A.cpu);
    let mut reg = MetricsRegistry::new();

    println!("== diffusion: in-place slab sweep vs out-of-place reference (D={COEFF}, dt={DT}) ==");
    println!(
        "{:<6} {:>9} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "res", "substeps", "simd_rows", "resident KB", "tiled model", "ref model", "speedup"
    );

    for res in [16usize, 32, 64] {
        // Bitwise parity re-verified on every bench run.
        let mut tiled = seeded_grid(res);
        let mut reference = tiled.clone();
        for _ in 0..STEPS {
            tiled.step(DT);
            reference.step_reference(DT);
        }
        for (i, (a, b)) in tiled
            .concentrations()
            .iter()
            .zip(reference.concentrations())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "parity violation at res {res} voxel {i}: {a:e} vs {b:e}"
            );
        }

        // Deterministic work counters of one step.
        let run = seeded_grid(res).step_in(DT, Precision::F64);
        let tiled_phase = wm::diffusion(&run, Precision::F64);
        let ref_phase = wm::diffusion_reference(&run);
        let tiled_model_ms = model.phase_time(&tiled_phase, MODEL_THREADS).seconds * 1e3;
        let ref_model_ms = model.phase_time(&ref_phase, MODEL_THREADS).seconds * 1e3;
        let speedup = ref_model_ms / tiled_model_ms;

        println!(
            "{:<6} {:>9} {:>9} {:>12.1} {:>12.4} {:>12.4} {:>8.2}x",
            format!("{res}^3"),
            run.substeps,
            run.simd_rows,
            tiled.resident_bytes() as f64 / 1024.0,
            tiled_model_ms,
            ref_model_ms,
            speedup
        );

        let res_s = res.to_string();
        let labels = [("res", res_s.as_str())];
        reg.set_gauge("diffusion.voxel_updates", &labels, run.voxel_updates as f64);
        reg.set_gauge("diffusion.substeps", &labels, run.substeps as f64);
        reg.set_gauge("diffusion.simd_rows", &labels, run.simd_rows as f64);
        reg.set_gauge(
            "diffusion.interior_fraction",
            &labels,
            run.interior_fraction(),
        );
        reg.set_gauge("diffusion.speedup_modeled_x", &labels, speedup);
        for (engine, model_ms) in [("tiled", tiled_model_ms), ("reference", ref_model_ms)] {
            let labels = [("res", res_s.as_str()), ("engine", engine)];
            reg.set_gauge("diffusion.modeled_ms", &labels, model_ms);
        }

        if res == 64 {
            // The ISSUE's acceptance bar, standing: ≥1.5× on the gated
            // work model at 64³ (and 64³ must actually sub-cycle, or
            // the work model is measuring the wrong scenario).
            assert_eq!(run.substeps, 4, "64^3 config no longer sub-cycles");
            assert!(
                speedup >= 1.5,
                "modeled diffusion speedup at 64^3 regressed: {speedup:.2}x < 1.5x"
            );
        }
    }

    emit::finish(args, "diffusion", &reg, "\n")
}
