//! The bitwise contracts under a real schedule: the final checkpoint of
//! a run is the same byte string whether its `par_*` loops ran on one
//! worker, on two, on four (oversubscribed on a two-processor host) or
//! on one thread visiting the blocks of every loop in a seeded random
//! order — for every host environment and the GPU offload, with division
//! and secretion churn and a reorder every step. For the GPU, so is
//! every simulated counter of every step.
//!
//! Scene sizes are chosen so the loops really fork: the CSR f64 scene
//! spans all eight parts of the CSR build's key pass and skip check and
//! exceeds the reorder key / argsort / gather passes' 16 Ki thresholds;
//! the others span several 4 Ki-agent chunks of their force passes. The
//! GPU scene's force launches have more blocks than the engine cuts
//! chunks at four workers.

use biodynamo::math::SplitMix64;
use biodynamo::prelude::*;
use biodynamo::sim::rayon::{with_shuffled_schedule, ThreadPoolBuilder};

const STEPS: u64 = 3;
const SHUFFLE_SEEDS: std::ops::Range<u64> = 0..8;

type Configure = fn(SimParams) -> SimParams;

/// `n` agents at ~2 neighbors each; every fifth divides within the run,
/// every seventh secretes into one of `fields` fields whose sweeps have
/// several tiles.
fn scene(n: usize, fields: usize, configure: Configure, env: EnvironmentKind) -> Simulation {
    let half = (n as f64).cbrt() * 2.5;
    let mut sim = Simulation::new(configure(
        SimParams::cube(half).with_seed(0x7d).with_reorder(1),
    ));
    sim.set_environment(env);
    for f in 0..fields {
        sim.add_diffusion_grid(DiffusionParams {
            name: "signal",
            coefficient: 0.1 / (f + 1) as f64,
            decay: 0.01,
            resolution: 16,
            boundary: BoundaryCondition::Closed,
        });
    }
    let mut rng = SplitMix64::new(0x7d);
    for k in 0..n {
        let mut cell = CellBuilder::new(Vec3::new(
            rng.uniform(-half, half),
            rng.uniform(-half, half),
            rng.uniform(-half, half),
        ))
        .diameter(rng.uniform(3.0, 5.0))
        .adherence(0.05);
        if k % 5 == 0 {
            cell = cell.behavior(Behavior::GrowthDivision {
                growth_rate: 30.0,
                division_threshold: 4.5,
            });
        }
        if k % 7 == 0 {
            cell = cell.behavior(Behavior::Secretion {
                substance: k / 7 % fields,
                rate: 2.0,
            });
        }
        sim.add_cell(cell);
    }
    sim
}

/// The final checkpoint, then every GPU step's counters (every field of
/// the step's and of its force kernel's, printed to round-trip).
fn final_state(mut sim: Simulation) -> (Vec<u8>, Vec<String>) {
    let born = sim.rm().len();
    sim.simulate(STEPS);
    assert!(sim.rm().len() > born, "the scene must divide");
    let mut bytes = Vec::new();
    sim.checkpoint(&mut bytes).expect("checkpoint to memory");
    let records = sim.profiler().steps().iter().flat_map(|s| &s.records);
    let counters = records
        .filter_map(|r| r.gpu.as_ref())
        .map(|g| format!("{:?} {:?}", g.counters, g.mech_counters))
        .collect();
    (bytes, counters)
}

/// Asserts the run's final state is the same on every schedule; returns
/// it.
fn assert_schedule_independent(
    n: usize,
    configure: Configure,
    env: EnvironmentKind,
) -> (Vec<u8>, Vec<String>) {
    assert_fields_schedule_independent(n, 1, configure, env)
}

/// [`assert_schedule_independent`] on a scene with `fields` fields.
fn assert_fields_schedule_independent(
    n: usize,
    fields: usize,
    configure: Configure,
    env: EnvironmentKind,
) -> (Vec<u8>, Vec<String>) {
    let run = || final_state(scene(n, fields, configure, env));
    let on = |workers: usize| {
        ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("pool")
            .install(run)
    };
    let reference = on(1);
    for workers in [2, 4] {
        assert!(on(workers) == reference, "{workers} workers diverged");
    }
    for seed in SHUFFLE_SEEDS {
        assert!(
            with_shuffled_schedule(seed, run) == reference,
            "shuffled schedule {seed} diverged"
        );
    }
    reference
}

#[test]
fn csr_f64_is_schedule_independent() {
    assert_schedule_independent(36_000, |p| p, EnvironmentKind::uniform_grid_csr_parallel());
}

#[test]
fn csr_f32_simd_is_schedule_independent() {
    assert_schedule_independent(
        10_000,
        |p| p.with_precision(Precision::F32Simd),
        EnvironmentKind::uniform_grid_csr_parallel(),
    );
}

#[test]
fn four_shards_are_schedule_independent() {
    let csr = EnvironmentKind::uniform_grid_csr_parallel();
    assert_schedule_independent(10_000, |p| p.with_shards(4), csr);
    assert_schedule_independent(
        10_000,
        |p| p.with_shards(4).with_precision(Precision::F32Simd),
        csr,
    );
}

/// As many fields as the widest pool has workers: every worker sweeps
/// the field it took inline, on a window of the step buffer popped from
/// the pool in schedule order — at either precision.
#[test]
fn four_fields_are_schedule_independent() {
    let csr = EnvironmentKind::uniform_grid_csr_parallel();
    assert_fields_schedule_independent(10_000, 4, |p| p, csr);
    let f32simd = |p: SimParams| p.with_precision(Precision::F32Simd);
    assert_fields_schedule_independent(10_000, 4, f32simd, csr);
}

#[test]
fn linked_list_is_schedule_independent() {
    assert_schedule_independent(10_000, |p| p, EnvironmentKind::uniform_grid_parallel());
}

#[test]
fn kd_tree_is_schedule_independent() {
    assert_schedule_independent(10_000, |p| p, EnvironmentKind::KdTree);
}

#[test]
fn gpu_offload_is_schedule_independent() {
    // Versions II (the force kernel over chains), III (shared-memory
    // tiles, two phases per block) and IV (over CSR cells): their force
    // launches fork, the grid builds run in order.
    for version in [
        KernelVersion::V2Sorted,
        KernelVersion::V3Shared,
        KernelVersion::V4Csr,
    ] {
        let env = EnvironmentKind::Gpu {
            system: GpuSystem::A,
            frontend: ApiFrontend::Cuda,
            version,
            trace_sample: 1,
        };
        let (_, counters) = assert_schedule_independent(2_500, |p| p, env);
        assert_eq!(
            counters.len() as u64,
            STEPS,
            "{version:?}: one report a step"
        );
    }
}
