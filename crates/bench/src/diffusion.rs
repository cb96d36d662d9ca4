//! Diffusion engine benchmark: the in-place slab sweep vs. the retained
//! out-of-place reference sweep, across lattice sizes.
//!
//! For each resolution the table reports host wall clocks (median of
//! five, informational), the heap bytes the stepped field holds (one
//! lattice + the sweep's slab scratch, which grows with the worker
//! count — informational), the deterministic work counters of one step
//! (voxel updates, sub-steps, interior fraction, SIMD rows — gated),
//! and the System A 20-thread modeled times of both engines under the
//! roofline work model (gated, with a standing `≥1.5×` speedup assert
//! at 64³). Every run also re-verifies the bitwise parity contract
//! between the two engines — a divergence fails loudly before any
//! metrics are emitted. A final section times a multi-substance scene
//! batched through one rayon scope against per-grid stepping — two
//! schedules of the same work on the same workers (informational).
//!
//! `--json[=DIR]` serializes `BENCH_diffusion.json` for
//! `scripts/bench_gate.sh`.

use crate::cli::Args;
use crate::{emit, median_ms};
use bdm_device::cpu::{CpuModel, Phase};
use bdm_device::specs::SYSTEM_A;
use bdm_math::{Aabb, Vec3};
use bdm_metrics::MetricsRegistry;
use bdm_sim::{
    BoundaryCondition, DiffusionGrid, DiffusionParams, DiffusionStats, Precision, SimParams,
    Simulation,
};
use std::hint::black_box;
use std::process::ExitCode;

/// Steps run per parity check / wall-clock measurement.
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

/// The roofline phases of one `step` at a given precision: 19 FLOPs
/// per update for both engines; the in-place sweep streams 2 words per
/// interior voxel (read once, written once: the neighbor rows ride the
/// three hot planes in cache) and 8 words per wall voxel, while the
/// reference sweep gets no reuse credit — 8 words everywhere (the same
/// accounting DiffusionOp records per scheduled run).
fn phases(run: &DiffusionStats, word: f64) -> (Phase, Phase) {
    let updates = run.voxel_updates as f64;
    let interior = run.interior_updates as f64;
    let faces = updates - interior;
    let tiled = Phase {
        name: "diffusion tiled",
        flops: 19.0 * updates,
        bytes: word * (2.0 * interior + 8.0 * faces),
        random_accesses: 0.0,
        parallel: true,
        fp64: true,
    };
    let reference = Phase {
        name: "diffusion reference",
        flops: 19.0 * updates,
        bytes: word * 8.0 * updates,
        random_accesses: 0.0,
        parallel: true,
        fp64: true,
    };
    (tiled, reference)
}

/// `bench_diffusion [--json[=DIR]]`.
pub fn main(args: &Args) -> ExitCode {
    let model = CpuModel::new(SYSTEM_A.cpu);
    let mut reg = MetricsRegistry::new();

    println!("== diffusion: in-place slab sweep vs out-of-place reference (D={COEFF}, dt={DT}) ==");
    println!(
        "{:<6} {:>9} {:>9} {:>10} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "res",
        "substeps",
        "simd_rows",
        "tiled ms",
        "ref ms",
        "resident KB",
        "tiled model",
        "ref model",
        "speedup"
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
        let (tiled_phase, ref_phase) = phases(&run, 8.0);
        let tiled_model_ms = model.phase_time(&tiled_phase, MODEL_THREADS).seconds * 1e3;
        let ref_model_ms = model.phase_time(&ref_phase, MODEL_THREADS).seconds * 1e3;
        let speedup = ref_model_ms / tiled_model_ms;

        let mut wall_grid = seeded_grid(res);
        let tiled_wall = median_ms(|| {
            black_box(wall_grid.step(DT));
        });
        let mut wall_ref = seeded_grid(res);
        let ref_wall = median_ms(|| {
            black_box(wall_ref.step_reference(DT));
        });

        let resident = wall_grid.resident_bytes();
        println!(
            "{:<6} {:>9} {:>9} {:>10.3} {:>10.3} {:>12.1} {:>12.4} {:>12.4} {:>8.2}x",
            format!("{res}^3"),
            run.substeps,
            run.simd_rows,
            tiled_wall,
            ref_wall,
            resident as f64 / 1024.0,
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
        reg.set_gauge("diffusion.resident_bytes", &labels, resident as f64);
        reg.set_gauge("diffusion.speedup_modeled_x", &labels, speedup);
        for (engine, model_ms, wall_ms) in [
            ("tiled", tiled_model_ms, tiled_wall),
            ("reference", ref_model_ms, ref_wall),
        ] {
            let labels = [("res", res_s.as_str()), ("engine", engine)];
            reg.set_gauge("diffusion.modeled_ms", &labels, model_ms);
            reg.set_gauge("diffusion.step_wall_ms", &labels, wall_ms);
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

    // Multi-substance batching: one rayon scope over all grids
    // (DiffusionOp's batch) vs stepping the same grids one after another.
    const BATCH: usize = 6;
    let mut sim = Simulation::new(SimParams::cube(32.0));
    let dt = sim.params().mech.timestep;
    let mut serial: Vec<DiffusionGrid> = Vec::new();
    for i in 0..BATCH {
        let s = sim.add_diffusion_grid(DiffusionParams {
            name: "batch",
            coefficient: COEFF,
            decay: 0.0,
            resolution: 24 + 2 * i,
            boundary: BoundaryCondition::Closed,
        });
        sim.diffusion_grid_mut(s)
            .secrete(Vec3::new(i as f64, -(i as f64), 2.0), 50.0);
        serial.push(sim.diffusion_grid_mut(s).clone());
    }
    let batched_ms = median_ms(|| {
        sim.simulate(1);
    });
    let serial_ms = median_ms(|| {
        for g in serial.iter_mut() {
            black_box(g.step(dt));
        }
    });
    println!("\n== batching: {BATCH} substances per step ==");
    println!("{:<18} {:>10.3}", "batched ms", batched_ms);
    println!("{:<18} {:>10.3}", "serial ms", serial_ms);
    println!(
        "wall clocks on {} workers, informational (never gated): batched forks once over \
         the substances and sweeps each one's z-slabs inline; serial steps the substances \
         one after another, forking over z-slabs each time.",
        rayon::current_num_threads()
    );
    reg.set_gauge("diffusion.batch_substances", &[], BATCH as f64);
    reg.set_gauge(
        "diffusion.batch_wall_ms",
        &[("mode", "batched")],
        batched_ms,
    );
    reg.set_gauge("diffusion.batch_wall_ms", &[("mode", "serial")], serial_ms);

    emit::finish(args, "diffusion", &reg, "\n")
}
