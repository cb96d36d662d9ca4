//! Correctness checks. Each check is one attempted operation in the
//! benchmark's `attempted` / `failed` accounting, as is every `step()`.
//!
//! The cheap ones look at every round's final state; the dearer ones
//! (resume equivalence, agreement with a reference configuration) run
//! once per invocation. None of them is timed.

use crate::digest::{self, Fnv64};
use crate::round::Options;
use crate::workloads::{self, Workload, SECRETION_RATE};
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::{KernelVersion, MechanicalPipeline, SceneRef};
use bdm_math::interaction::MechParams;
use bdm_sim::environment::GpuSystem;
use bdm_sim::mech::{self, MechScratch};
use bdm_sim::{EnvironmentKind, ExecMode, Precision, Simulation};

/// Divergence `tests/environments_agree.rs` allows between two fp64
/// environments.
const FP64_ENVIRONMENTS_TOLERANCE: f64 = 1e-7;
/// Divergence the same suite allows an fp32 GPU version from fp64.
const FP32_GPU_TOLERANCE: f64 = 5e-3;
/// The `Precision::F32Simd` envelope `tests/precision_claims.rs` pins.
const F32_SIMD_ENVELOPE: f64 = 1e-5;

/// One correctness check's outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short identifier, no spaces.
    pub name: String,
    /// Whether the program's output was right.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check outcome.
    pub fn new(name: &str, passed: bool, detail: String) -> Self {
        Self {
            name: name.into(),
            passed,
            detail,
        }
    }
}

/// What a round remembers of the scene as built.
pub struct Initial {
    /// Agents in the scene as built.
    pub agents: usize,
    secretors: usize,
    positions: u64,
}

impl Initial {
    /// Capture the freshly built scene.
    pub fn of(sim: &Simulation) -> Self {
        Self {
            agents: sim.rm().len(),
            secretors: workloads::secretors(sim),
            positions: positions_by_uid(sim),
        }
    }
}

/// Digest of every agent's (uid, position bits), summed over agents so
/// that it does not depend on storage order: the reorder operation moves
/// agents in storage, identity and position must survive it. Costs no
/// memory, which matters because the round's `VmHWM` is a metric.
fn positions_by_uid(sim: &Simulation) -> u64 {
    let rm = sim.rm();
    let (xs, ys, zs) = rm.position_columns();
    rm.uid_column()
        .iter()
        .enumerate()
        .map(|(i, &uid)| {
            let mut h = Fnv64::default();
            h.word(uid);
            h.floats(&[xs[i], ys[i], zs[i]]);
            h.finish()
        })
        .fold(0, u64::wrapping_add)
}

/// Every agent coordinate and diameter is finite. Checked after every
/// step; the fields (8 M voxels in `chemo_fields`) are checked once, on
/// the final state — a non-finite concentration never becomes finite
/// again under the stencil.
pub fn agents_are_finite(sim: &Simulation) -> bool {
    let rm = sim.rm();
    let (xs, ys, zs) = rm.position_columns();
    [xs, ys, zs, rm.diameter_column()]
        .into_iter()
        .all(|column| column.iter().all(|v| v.is_finite()))
}

fn fields_are_finite(sim: &Simulation) -> bool {
    sim.diffusion_grids()
        .iter()
        .all(|g| g.concentrations().iter().all(|v| v.is_finite()))
}

/// Fold the exact counters of the step just executed into `h`: the
/// mechanical work summary, every simulated-device statistic, and the
/// diffusion solver's telemetry. They are functions of the trajectory
/// alone, so two rounds of one seed must fold to the same digest — and a
/// change that only makes the GPU *simulator* faster must leave it alone.
pub fn fold_step_counters(sim: &Simulation, h: &mut Fnv64) {
    if let Some(work) = sim.last_mech_work() {
        for v in [
            work.candidates,
            work.contacts,
            work.neighbors,
            work.csr_rebuilds_skipped,
        ] {
            h.word(v);
        }
        if let Some(simd) = &work.simd {
            h.word(simd.lanes_utilized);
            h.word(simd.pad_lanes);
            h.word(simd.refresh_copies);
        }
        if let Some(gpu) = &work.gpu {
            let c = &gpu.counters;
            h.floats(&[
                gpu.h2d_s,
                gpu.d2h_s,
                gpu.build_s,
                gpu.mech_s,
                gpu.total_s,
                c.flops_fp32,
                c.flops_fp64,
                c.global_transactions,
                c.l2_hits,
                c.l2_misses,
                c.atomic_ops,
            ]);
            for v in [
                gpu.bytes_h2d,
                gpu.bytes_d2h,
                u64::from(gpu.sort_gathers),
                u64::from(gpu.midstep_syncs),
                c.threads_run,
                c.warps_run,
                c.warps_traced,
            ] {
                h.word(v);
            }
        }
    }
    for grid in sim.diffusion_grids() {
        let s = grid.stats();
        for v in [s.voxel_updates, s.substeps, s.interior_updates, s.simd_rows] {
            h.word(v);
        }
    }
}

/// The checks every round runs on its final state.
pub fn final_state(w: Workload, sim: &Simulation, initial: &Initial) -> Vec<Check> {
    let rm = sim.rm();
    let space = sim.params().space;
    let outside = (0..rm.len())
        .filter(|&i| !space.contains(rm.position(i)))
        .count();
    let bad_diameters = rm.diameter_column().iter().filter(|&&d| d <= 0.0).count();
    let mut checks = vec![Check::new(
        "finite_and_inside_space",
        agents_are_finite(sim) && fields_are_finite(sim) && outside == 0 && bad_diameters == 0,
        format!("{outside} outside, {bad_diameters} non-positive diameters"),
    )];

    checks.push(match w {
        Workload::DivisionGrowth => Check::new(
            "population_quadrupled",
            rm.len() == 4 * initial.agents,
            format!("{} -> {}", initial.agents, rm.len()),
        ),
        Workload::FrozenDense | Workload::GpuOffload => Check::new(
            "positions_bit_unchanged",
            positions_by_uid(sim) == initial.positions,
            format!("{} frozen agents", rm.len()),
        ),
        Workload::ChemoFields => {
            let mass: f64 = sim.diffusion_grids().iter().map(|g| g.total_mass()).sum();
            let expected = initial.secretors as f64 * SECRETION_RATE * w.steps() as f64;
            let rel = ((mass - expected) / expected).abs();
            Check::new(
                "field_mass_conserved",
                rel <= 1e-9,
                format!("mass {mass:e} expected {expected:e} rel {rel:e}"),
            )
        }
    });

    checks
}

/// The once-per-invocation checks; consumes the round's final state.
/// `bytes` is the checkpoint of `live` and `restored` what restoring it
/// gave.
pub fn once_per_invocation(
    w: Workload,
    opts: Options,
    mut live: Simulation,
    bytes: &[u8],
    restored: Option<Simulation>,
) -> Vec<Check> {
    let mut again = Vec::new();
    let identical = restored
        .as_ref()
        .is_some_and(|r| r.checkpoint(&mut again).is_ok() && again == bytes);
    drop(again);
    let round_trip = Check::new(
        "checkpoint_round_trip",
        identical,
        format!("{} bytes", bytes.len()),
    );

    let reference = match w {
        Workload::DivisionGrowth => agrees_with_kdtree_serial(opts.seed),
        Workload::FrozenDense => f32_work_matches_f64(&live),
        Workload::ChemoFields => tiled_matches_reference(&live),
        Workload::GpuOffload => gpu_tracks_cpu(&live),
    };

    let resumed = match restored {
        None => Check::new("resume_equivalence", false, "restore failed".into()),
        Some(mut restored) => {
            live.simulate(2);
            restored.simulate(2);
            let (a, b) = (
                digest::of_simulation(&live),
                digest::of_simulation(&restored),
            );
            Check::new(
                "resume_equivalence",
                a == b,
                format!("live {a:016x} restored {b:016x} after 2 more steps"),
            )
        }
    };
    vec![round_trip, reference, resumed]
}

/// `division_growth` on a 12³ lattice in the workload's configuration
/// against the kd-tree, serial, never-reordered baseline. Both runs must
/// end with the same agents (by uid); and from the workload run's final
/// state one mechanical step in either environment must move every agent
/// alike, within the fp64 environment tolerance. Whole-trajectory
/// positions are not compared: each division wave drops daughters into
/// deep overlap, which amplifies summation-order noise by a seed-dependent
/// factor (measured 1e-7 … 4e-6 after the second wave).
fn agrees_with_kdtree_serial(seed: u64) -> Check {
    let run = |baseline: bool| {
        let mut sim = workloads::division_growth(12, seed);
        if baseline {
            sim.set_environment(EnvironmentKind::KdTree);
            sim.set_exec_mode(ExecMode::Serial);
            sim.scheduler_mut().set_enabled("reorder", false);
        }
        sim.simulate(Workload::DivisionGrowth.steps() as u64);
        sim
    };
    let uids = |sim: &Simulation| {
        let mut uids = sim.rm().uid_column().to_vec();
        uids.sort_unstable();
        uids
    };
    let (sim, baseline) = (run(false), run(true));
    let same_agents = uids(&sim) == uids(&baseline);

    let step = |env: EnvironmentKind| {
        let mut rm = sim.rm().clone();
        mech::mechanical_step_with_scratch(
            &mut rm,
            sim.params(),
            &env,
            None,
            &mut MechScratch::default(),
        );
        rm
    };
    let (csr, kd) = (step(*sim.environment()), step(EnvironmentKind::KdTree));
    let divergence = (0..csr.len())
        .map(|i| (csr.position(i) - kd.position(i)).norm())
        .fold(0.0, f64::max);
    Check::new(
        "agrees_with_kdtree_serial",
        same_agents && divergence < FP64_ENVIRONMENTS_TOLERANCE,
        format!(
            "{} agents, same uids {same_agents}, one-step divergence {divergence:e}",
            sim.rm().len()
        ),
    )
}

/// The f32 SIMD pass found the neighbors and contacts the f64 CSR pass
/// finds on the same (frozen) positions, to the documented envelope.
fn f32_work_matches_f64(sim: &Simulation) -> Check {
    let name = "f32_work_matches_f64";
    let Some(f32_work) = sim.last_mech_work() else {
        return Check::new(name, false, "no mechanical step ran".into());
    };
    let params = sim.params().clone().with_precision(Precision::F64);
    let f64_work = mech::mechanical_step_with_scratch(
        &mut sim.rm().clone(),
        &params,
        sim.environment(),
        None,
        &mut MechScratch::default(),
    );
    let within = |a: u64, b: u64| (a as f64 - b as f64).abs() <= F32_SIMD_ENVELOPE * b as f64;
    Check::new(
        name,
        within(f32_work.neighbors, f64_work.neighbors)
            && within(f32_work.contacts, f64_work.contacts),
        format!(
            "neighbors {} vs {}, contacts {} vs {}",
            f32_work.neighbors, f64_work.neighbors, f32_work.contacts, f64_work.contacts
        ),
    )
}

/// One more step of the first field by the tiled solver and by the
/// retained scalar reference: the program promises identical bits.
fn tiled_matches_reference(sim: &Simulation) -> Check {
    let dt = sim.params().mech.timestep;
    let mut tiled = sim.diffusion_grid(0).clone();
    let mut reference = tiled.clone();
    tiled.step(dt);
    reference.step_reference(dt);
    let differing = tiled
        .concentrations()
        .iter()
        .zip(reference.concentrations())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    Check::new(
        "tiled_matches_reference",
        differing == 0,
        format!("{differing} of {} voxels differ", tiled.num_voxels()),
    )
}

/// With the displacement cap lifted, the displacements the simulated GPU
/// computes for the workload's scene track the CPU's fp64 CSR pass.
fn gpu_tracks_cpu(sim: &Simulation) -> Check {
    let rm = sim.rm();
    let mut params = sim.params().clone();
    params.mech = MechParams::default_params();
    let (xs, ys, zs) = rm.position_columns();
    let scene = SceneRef {
        xs,
        ys,
        zs,
        diameters: rm.diameter_column(),
        adherences: rm.adherence_column(),
        space: params.space,
        box_len: mech::interaction_radius(rm, &params),
    };
    let mut pipeline = MechanicalPipeline::new(
        GpuSystem::A.spec(),
        ApiFrontend::Cuda,
        KernelVersion::V2Sorted,
        1,
    );
    let (gpu, _) = pipeline.step(&scene, &params.mech);

    let mut moved = rm.clone();
    mech::mechanical_step_with_scratch(
        &mut moved,
        &params,
        &EnvironmentKind::uniform_grid_csr_parallel(),
        None,
        &mut MechScratch::default(),
    );
    let mut largest = 0.0f64;
    let mut divergence = 0.0f64;
    for (i, &g) in gpu.iter().enumerate() {
        let cpu = moved.position(i) - rm.position(i);
        largest = largest.max(cpu.norm());
        divergence = divergence.max((cpu - g).norm());
    }
    Check::new(
        "gpu_tracks_cpu_csr",
        largest > 0.0 && divergence < FP32_GPU_TOLERANCE,
        format!("largest displacement {largest:e}, max divergence {divergence:e}"),
    )
}
