//! Checkpoint/restore resume-equivalence: bitwise, everywhere.
//!
//! The contract under test (see `bdm_sim::checkpoint`): checkpoint at
//! step `k`, restore, run to step `n` must be **bitwise identical** to
//! an uninterrupted run to step `n` — per-uid positions, diameters,
//! diffusion concentrations, and the gate-deterministic metric counters
//! (`scheduler.op_runs`, `shard.migrations`, `shard.rebalances`).
//!
//! The strongest single assertion is at the bottom of the harness:
//! `checkpoint(uninterrupted @ n) == checkpoint(resumed @ n)` **as raw
//! bytes**. Every serialized field — columns, uid counter,
//! diffusion fields, scheduler counters, shard spans and assignment
//! snapshots — participates in that comparison, so any divergence
//! anywhere in the captured state fails the test. The per-field
//! assertions before it exist only to localize failures.
//!
//! Additionally each checkpoint must be *byte-idempotent*: checkpointing
//! the freshly-restored simulation reproduces the original stream
//! exactly (the uid and scheduler counters are restored verbatim, not
//! re-derived).

use bdm_math::{SplitMix64, Vec3};
use bdm_sim::behavior::Behavior;
use bdm_sim::cell::CellBuilder;
use bdm_sim::diffusion::{BoundaryCondition, DiffusionParams};
use bdm_sim::environment::EnvironmentKind;
use bdm_sim::param::{Precision, SimParams};
use bdm_sim::scheduler::ExecMode;
use bdm_sim::simulation::Simulation;
use proptest::prelude::*;
use std::collections::HashMap;

const SHARD_COUNTS: [usize; 4] = [0, 2, 4, 8];

fn all_envs() -> [EnvironmentKind; 6] {
    [
        EnvironmentKind::KdTree,
        EnvironmentKind::uniform_grid_serial(),
        EnvironmentKind::uniform_grid_parallel(),
        EnvironmentKind::uniform_grid_csr_serial(),
        EnvironmentKind::uniform_grid_csr_parallel(),
        EnvironmentKind::gpu_default(),
    ]
}

fn ckpt(sim: &Simulation) -> Vec<u8> {
    let mut buf = Vec::new();
    sim.checkpoint(&mut buf).expect("checkpoint to Vec");
    buf
}

/// Bitwise per-uid fingerprint, independent of storage order.
fn by_uid(sim: &Simulation) -> HashMap<u64, (u64, u64, u64, u64)> {
    (0..sim.rm().len())
        .map(|i| {
            let p = sim.rm().position(i);
            (
                sim.rm().uid(i),
                (
                    p.x.to_bits(),
                    p.y.to_bits(),
                    p.z.to_bits(),
                    sim.rm().diameter(i).to_bits(),
                ),
            )
        })
        .collect()
}

/// Scheduler state minus the host-nondeterministic wall clock.
fn sched_state(sim: &Simulation) -> Vec<(String, u64, bool, u64)> {
    sim.scheduler()
        .stats()
        .into_iter()
        .map(|s| (s.name, s.frequency, s.enabled, s.runs))
        .collect()
}

/// Dense scene with division churn (contacts everywhere).
fn dense_scene(sim: &mut Simulation, seed: u64, divide: bool) {
    let mut rng = SplitMix64::new(seed.wrapping_add(1));
    for k in 0..60 {
        let mut cell = CellBuilder::new(Vec3::new(
            rng.uniform(-9.0, 9.0),
            rng.uniform(-9.0, 9.0),
            rng.uniform(-9.0, 9.0),
        ))
        .diameter(rng.uniform(2.0, 4.0))
        .adherence(0.01);
        if divide && k % 7 == 0 {
            cell = cell.behavior(Behavior::GrowthDivision {
                growth_rate: 14.0,
                division_threshold: 4.1,
            });
        }
        sim.add_cell(cell);
    }
}

/// Sparse scene with the full behavior set — division, stochastic death,
/// secretion, chemotaxis — plus a diffusion substance, so a resumed run
/// exercises births, deaths, field updates, and (when sharded)
/// cross-shard migration.
fn churn_scene(sim: &mut Simulation, seed: u64) {
    let s = sim.add_diffusion_grid(DiffusionParams {
        name: "attractant",
        coefficient: 0.1,
        decay: 0.01,
        resolution: 12,
        boundary: BoundaryCondition::Closed,
    });
    let mut rng = SplitMix64::new(seed.wrapping_add(2));
    for k in 0..40 {
        let cell = CellBuilder::new(Vec3::new(
            rng.uniform(-55.0, 55.0),
            rng.uniform(-55.0, 55.0),
            rng.uniform(-55.0, 55.0),
        ))
        .diameter(5.0)
        .adherence(5.0);
        let cell = match k % 4 {
            0 => cell.behavior(Behavior::GrowthDivision {
                growth_rate: 40.0,
                division_threshold: 6.0,
            }),
            1 => cell.behavior(Behavior::Apoptosis { probability: 0.2 }),
            2 => cell.behavior(Behavior::Secretion {
                substance: s,
                rate: 3.0,
            }),
            _ => cell.behavior(Behavior::Chemotaxis {
                substance: s,
                speed: 0.5,
            }),
        };
        sim.add_cell(cell);
    }
}

fn sharded_params(half: f64, seed: u64, shards: usize) -> SimParams {
    let p = SimParams::cube(half).with_seed(seed);
    if shards > 0 {
        p.with_shards(shards).with_shard_rebalance(2, 1.0)
    } else {
        p
    }
}

/// The harness: run `n` steps uninterrupted; separately run `k` steps,
/// checkpoint, restore, run the remaining `n - k`; assert the two end
/// states are bitwise identical (and the checkpoint byte-idempotent).
fn assert_resume_equivalent(build: &dyn Fn() -> Simulation, k: u64, n: u64, what: &str) {
    assert!(k < n, "harness misuse: k={k} must be < n={n}");
    let mut full = build();
    full.simulate(n);

    let mut part = build();
    part.simulate(k);
    let bytes = ckpt(&part);
    let mut restored = Simulation::restore(&mut &bytes[..]).expect("restore own checkpoint");

    // Byte idempotence: re-checkpointing the restored state reproduces
    // the stream exactly (counters restored verbatim).
    assert_eq!(
        bytes,
        ckpt(&restored),
        "[{what}] re-checkpoint of restored state is not byte-identical"
    );
    assert_eq!(restored.steps_executed(), k, "[{what}] steps_executed");

    restored.simulate(n - k);

    // Localized comparisons first, for readable failures…
    assert_eq!(full.rm().len(), restored.rm().len(), "[{what}] population");
    assert_eq!(by_uid(&full), by_uid(&restored), "[{what}] per-uid state");
    assert_eq!(
        sched_state(&full),
        sched_state(&restored),
        "[{what}] scheduler counters"
    );
    for (i, (a, b)) in full
        .diffusion_grids()
        .iter()
        .zip(restored.diffusion_grids())
        .enumerate()
    {
        assert_eq!(
            a.total_mass().to_bits(),
            b.total_mass().to_bits(),
            "[{what}] diffusion mass, grid {i}"
        );
        let same = a
            .concentrations()
            .iter()
            .zip(b.concentrations())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "[{what}] diffusion concentrations, grid {i}");
    }
    if let (Some(a), Some(b)) = (full.sharding(), restored.sharding()) {
        assert_eq!(a.migrations(), b.migrations(), "[{what}] shard migrations");
        assert_eq!(a.rebalances(), b.rebalances(), "[{what}] shard rebalances");
        assert_eq!(a.map().bounds(), b.map().bounds(), "[{what}] shard spans");
    }
    // …then the exhaustive one: the complete serialized state, as bytes.
    assert_eq!(
        ckpt(&full),
        ckpt(&restored),
        "[{what}] final checkpoints differ — some captured state diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Resume-equivalence across every environment kind × shard count
    /// {0, 2, 4, 8} on a dense division-churn scene, random checkpoint
    /// step.
    #[test]
    fn resume_is_bitwise_across_envs_and_shards(seed in 0u64..100, k in 1u64..3) {
        for env in all_envs() {
            for shards in SHARD_COUNTS {
                let build = move || {
                    let mut sim = Simulation::new(sharded_params(10.0, seed, shards));
                    sim.set_environment(env);
                    dense_scene(&mut sim, seed, true);
                    sim
                };
                assert_resume_equivalent(
                    &build,
                    k,
                    3,
                    &format!("env {env:?}, {shards} shards"),
                );
            }
        }
    }

    /// Resume-equivalence under the full behavior set — births, deaths,
    /// secretion into and chemotaxis along a diffusion field — with and
    /// without sharding (aggressive rebalance cadence).
    #[test]
    fn resume_is_bitwise_under_behavior_and_field_churn(seed in 0u64..100, k in 1u64..4) {
        for shards in [0, 4] {
            let build = move || {
                let mut sim = Simulation::new(sharded_params(60.0, seed, shards));
                sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
                churn_scene(&mut sim, seed);
                sim
            };
            assert_resume_equivalent(&build, k, 4, &format!("churn, {shards} shards"));
        }
    }

    /// Resume-equivalence survives the other determinism-sensitive
    /// knobs: both precision modes — unsharded and through the sharded
    /// driver — reorder-every-step, and both execution modes.
    #[test]
    fn resume_is_bitwise_across_precision_reorder_and_exec_mode(seed in 0u64..100) {
        for precision in [Precision::F64, Precision::F32Simd] {
            for shards in [0, 4] {
                for mode in [ExecMode::Serial, ExecMode::Parallel] {
                    let build = move || {
                        let mut sim = Simulation::new(
                            sharded_params(10.0, seed, shards)
                                .with_precision(precision)
                                .with_reorder(1),
                        );
                        sim.set_exec_mode(mode);
                        dense_scene(&mut sim, seed, true);
                        sim
                    };
                    assert_resume_equivalent(
                        &build,
                        2,
                        4,
                        &format!("{precision:?}, {shards} shards, {mode:?}, reorder every step"),
                    );
                }
            }
        }
    }
}

/// The counters backing gate-deterministic metrics survive a restore:
/// a resumed run publishes the same `scheduler.op_runs` totals as the
/// uninterrupted one, and the shard telemetry picks up where it left
/// off rather than resetting to zero.
#[test]
fn metric_counters_resume_not_reset() {
    let build = || {
        let mut sim = Simulation::new(sharded_params(10.0, 11, 4));
        dense_scene(&mut sim, 11, true);
        sim
    };
    let mut full = build();
    full.simulate(4);

    let mut part = build();
    part.simulate(2);
    let bytes = ckpt(&part);
    let mut resumed = Simulation::restore(&mut &bytes[..]).unwrap();
    resumed.simulate(2);

    let full_reg = full.metrics();
    let resumed_reg = resumed.metrics();
    for op in full.scheduler().op_names() {
        let labels = [("op", op)];
        let want = full_reg.value("scheduler.op_runs", &labels);
        assert_eq!(
            want,
            resumed_reg.value("scheduler.op_runs", &labels),
            "op_runs diverged for {op}"
        );
        if want.unwrap_or(0.0) > 0.0 {
            // The 2 post-restore steps alone can't reach the full run's
            // count, so matching it proves the pre-checkpoint runs were
            // restored rather than reset.
            assert!(
                resumed_reg.value("scheduler.op_runs", &labels).unwrap() > 2.0
                    || want.unwrap() <= 2.0,
                "a resumed run must keep pre-checkpoint run counts for {op}"
            );
        }
    }
    assert_eq!(
        full_reg.value("shard.migrations", &[]),
        resumed_reg.value("shard.migrations", &[])
    );
    assert_eq!(
        full_reg.value("shard.rebalances", &[]),
        resumed_reg.value("shard.rebalances", &[])
    );
}

/// Frequency anchoring survives a restore: an op with frequency `f`
/// runs on global steps 0, f, 2f, … no matter where the checkpoint
/// landed relative to the cadence.
#[test]
fn op_frequency_anchoring_survives_restore() {
    let build = || {
        let mut sim = Simulation::new(SimParams::cube(10.0).with_seed(7));
        dense_scene(&mut sim, 7, false);
        assert!(sim.scheduler_mut().set_frequency("diffusion", 3));
        sim
    };
    let mut full = build();
    full.simulate(7);

    // Checkpoint at step 2 — mid-cadence (next diffusion run is step 3).
    let mut part = build();
    part.simulate(2);
    let bytes = ckpt(&part);
    let mut resumed = Simulation::restore(&mut &bytes[..]).unwrap();
    resumed.simulate(5);

    let runs = |sim: &Simulation, name: &str| {
        sim.scheduler()
            .stats()
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.frequency, s.runs))
            .unwrap()
    };
    // Steps 0..7 with frequency 3 → ran on 0, 3, 6.
    assert_eq!(runs(&full, "diffusion"), (3, 3));
    assert_eq!(runs(&resumed, "diffusion"), runs(&full, "diffusion"));
}

/// GPU-resident runs resume bitwise. Device residency is derived state
/// — never serialized — so a restore builds the pipeline fresh and the
/// first post-restore step performs a full resync; the trajectory must
/// still match the uninterrupted resident run exactly, and the
/// `gpu_resident` knob itself must survive the round trip.
#[test]
fn gpu_resident_run_resumes_bitwise_with_residency_invalidated() {
    let build = || {
        let mut sim = Simulation::new(SimParams::cube(10.0).with_seed(31).with_gpu_resident(true));
        sim.set_environment(EnvironmentKind::gpu_default());
        dense_scene(&mut sim, 31, true);
        sim
    };
    assert_resume_equivalent(&build, 2, 5, "gpu resident");

    // The knob round-trips, and the restored pipeline starts cold: no
    // device-resident state until its first post-restore step.
    let mut part = build();
    part.simulate(2);
    assert!(
        part.gpu_pipeline()
            .expect("gpu env has a pipeline")
            .is_resident(),
        "a mid-run resident simulation should hold device state"
    );
    let bytes = ckpt(&part);
    let mut restored = Simulation::restore(&mut &bytes[..]).unwrap();
    assert!(restored.params().gpu_resident, "knob lost in round trip");
    assert!(
        !restored
            .gpu_pipeline()
            .expect("pipeline rebuilt")
            .is_resident(),
        "restore must not resurrect device residency"
    );
    restored.simulate(1);
    assert!(
        restored.gpu_pipeline().unwrap().is_resident(),
        "first post-restore step re-establishes residency"
    );
}

/// A restored simulation is a fully functional `Simulation`: it can be
/// checkpointed again mid-flight and the second-generation restore still
/// resumes bitwise (checkpoint chains don't decay).
#[test]
fn checkpoint_chains_stay_bitwise() {
    let build = || {
        let mut sim = Simulation::new(sharded_params(60.0, 23, 2));
        churn_scene(&mut sim, 23);
        sim
    };
    let mut full = build();
    full.simulate(6);

    let mut part = build();
    part.simulate(2);
    let gen1 = ckpt(&part);
    let mut r1 = Simulation::restore(&mut &gen1[..]).unwrap();
    r1.simulate(2);
    let gen2 = ckpt(&r1);
    let mut r2 = Simulation::restore(&mut &gen2[..]).unwrap();
    r2.simulate(2);

    assert_eq!(full.steps_executed(), r2.steps_executed());
    assert_eq!(by_uid(&full), by_uid(&r2));
    assert_eq!(ckpt(&full), ckpt(&r2), "two-generation chain diverged");
}
