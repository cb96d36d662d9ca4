//! Measured 1 → N-worker scaling of every host phase, beside the
//! `bdm-device::cpu` model's prediction for the same recorded work.
//!
//! One scene — the benchmark-A lattice of growing, dividing cells on the
//! CSR grid, host reorder every step, two diffusing substances — is
//! stepped under a one-worker pool and under the ambient pool (N =
//! `RAYON_NUM_THREADS`, else the processor count), at both force-pass
//! precisions. Per repeat, each operation's wall time is summed over the
//! steps; the table prints the median over the repeats with the min–max
//! spread, the measured 1 → N speedup, the System A model's speedup for
//! the same work counters at the same two thread counts, and measured ÷
//! modeled. Informational: nothing here is gated.

use crate::cli::Args;
use crate::scale::BenchScale;
use crate::{benchmark_a_with, median, REPS};
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_math::Vec3;
use bdm_sim::{
    BoundaryCondition, DiffusionParams, EnvironmentKind, Precision, SimParams, Simulation,
};
use std::process::ExitCode;

/// `workload::benchmark_a`'s lattice and division schedule, with the
/// reorder policy and precision this table needs in the parameters, on
/// the CSR grid, plus two diffusing substances.
fn scene(cells_per_dim: usize, precision: Precision, field_res: usize) -> Simulation {
    let params = |p: SimParams| p.with_reorder(1).with_precision(precision);
    let mut sim = benchmark_a_with(cells_per_dim, 0x8, params);
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    for name in ["oxygen", "glucose"] {
        let s = sim.add_diffusion_grid(DiffusionParams {
            name,
            coefficient: 0.4,
            decay: 0.01,
            resolution: field_res,
            boundary: BoundaryCondition::Closed,
        });
        sim.diffusion_grid_mut(s).secrete(Vec3::zero(), 100.0);
    }
    sim
}

/// Per-operation (name, measured seconds, modeled seconds) of one run
/// on `workers` workers.
fn run(
    scale: &BenchScale,
    precision: Precision,
    workers: usize,
    model: &CpuModel,
) -> Vec<(String, f64, f64)> {
    let field_res = if scale.a_cells_per_dim >= 32 { 64 } else { 16 };
    let mut sim = scene(scale.a_cells_per_dim, precision, field_res);
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("pool")
        .install(|| sim.simulate(scale.a_steps));
    let modeled = sim.profiler().modeled_per_op(model, workers as u32);
    sim.profiler()
        .wall_totals()
        .into_iter()
        .zip(modeled)
        .map(|((name, wall), (_, modeled))| (name, wall, modeled))
        .collect()
}

/// Median and min–max of one operation's samples, in ms.
fn spread(samples: &mut [f64]) -> (f64, f64, f64) {
    let mid = median(samples); // leaves them sorted
    (
        mid * 1e3,
        samples[0] * 1e3,
        samples[samples.len() - 1] * 1e3,
    )
}

/// `bench_threads`.
pub fn main(args: &Args) -> ExitCode {
    let scale = &args.scale;
    let model = CpuModel::new(SYSTEM_A.cpu);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = rayon::current_num_threads();
    println!(
        "== worker scaling: benchmark A {} cells x {} steps, CSR grid, reorder every step, \
         2 substances; {nproc} processors, 1 vs {workers} workers, median (min-max) of {REPS} ==",
        scale.a_cells(),
        scale.a_steps
    );
    if workers < 2 || nproc < 2 {
        println!("one worker or one processor: no scaling to measure on this host");
        return ExitCode::SUCCESS;
    }
    for precision in [Precision::F64, Precision::F32Simd] {
        // Alternate the two pools so drift in the host's load lands on both.
        let mut one: Vec<Vec<(String, f64, f64)>> = Vec::new();
        let mut many = Vec::new();
        for _ in 0..REPS {
            one.push(run(scale, precision, 1, &model));
            many.push(run(scale, precision, workers, &model));
        }
        println!("\n-- {} force pass --", precision.label());
        println!(
            "{:<22} {:>24} {:>24} {:>10} {:>10} {:>10}",
            "operation",
            "1 worker ms",
            format!("{workers} workers ms"),
            "measured x",
            "modeled x",
            "meas/model"
        );
        for (k, (name, _, modeled_1)) in one[0].iter().enumerate() {
            let column = |runs: &[Vec<(String, f64, f64)>]| {
                spread(&mut runs.iter().map(|r| r[k].1).collect::<Vec<_>>())
            };
            let (m1, lo1, hi1) = column(&one);
            let (mn, lon, hin) = column(&many);
            let measured = m1 / mn;
            let modeled = modeled_1 / many[0][k].2;
            println!(
                "{:<22} {:>24} {:>24} {:>10.2} {:>10.2} {:>10.2}",
                name,
                format!("{m1:.1} ({lo1:.1}-{hi1:.1})"),
                format!("{mn:.1} ({lon:.1}-{hin:.1})"),
                measured,
                modeled,
                measured / modeled
            );
        }
    }
    println!(
        "\nmodeled x = System A (Table I) roofline at 1 vs {workers} threads over the run's \
         recorded work counters; a serial-modeled phase reads 1.00."
    );
    ExitCode::SUCCESS
}
