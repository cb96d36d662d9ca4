//! Serial == sharded bitwise determinism, for every shard count.
//!
//! The sharding contract (see `bdm_sim::shard`): enabling Hilbert
//! sharding — any shard count — must not change any trajectory bit.
//! Three property layers pin it:
//!
//! 1. **Sharded@N == sharded@M, always.** The sharded pass keeps storage
//!    canonically sorted by `(voxel key, uid)`, so two sharded runs have
//!    *identical storage order* at every phase; the shard map only
//!    decides where work runs. This holds on any scene — contacts,
//!    births, deaths, migrations — and for every environment (non-CSR
//!    environments fall through to the one global pass).
//!
//! Every layer takes the precision as an input: the sharded driver hands
//! its shard-local grids to the same sweep as the global pass, so the
//! 8-lane `f32` lanes shard exactly like the scalar `f64` ones (each
//! agent's lane packing is a function of its candidate sequence, which
//! the canonical sort pins).
//! 2. **Sharded == unsharded baseline on death-free scenes.** With the
//!    canonical sort, storage restricted to any voxel is in ascending
//!    uid order at force time — exactly the order a never-reordered,
//!    death-free run stores (insertion order; births append with
//!    growing uids) — so the f64 force sums associate identically.
//!    Division churn included.
//! 3. **Sharded == unsharded baseline under death churn on contact-free
//!    scenes.** Deaths swap-remove storage, so a baseline's within-voxel
//!    order is arbitrary; with zero contacts the force pass is
//!    order-free and the per-uid outcome (uid-keyed RNG, uid-canonical
//!    birth/secretion merges) must still match bitwise.

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

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

/// Dense death-free scene: contacts everywhere, optional division churn.
fn dense_scene(sim: &mut Simulation, seed: u64, divide: bool) {
    let mut rng = SplitMix64::new(seed.wrapping_add(1));
    for k in 0..90 {
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

/// Sparse scene with the full behavior set: division, stochastic death,
/// secretion, chemotaxis — births, deaths, and cross-shard migration
/// all churn the storage while inter-cluster forces stay zero (the same
/// contact discipline as the reorder purity proptests: only
/// family-local contacts, whose per-voxel order is ascending-uid in
/// both the insertion-ordered baseline and the sorted sharded run).
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

fn precision_of(simd: bool) -> Precision {
    if simd {
        Precision::F32Simd
    } else {
        Precision::F64
    }
}

fn sharded_params(half: f64, seed: u64, shards: usize, precision: Precision) -> SimParams {
    let p = SimParams::cube(half)
        .with_seed(seed)
        .with_precision(precision);
    if shards > 0 {
        // Aggressive rebalance cadence so the load-balancing path is
        // exercised (it must be observationally pure).
        p.with_shards(shards).with_shard_rebalance(2, 1.0)
    } else {
        p
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Layer 2: sharded stepping at 1/2/4/8 shards is bitwise identical
    /// to the unsharded serial baseline on a dense, death-free scene
    /// with division churn — for every environment kind and both
    /// execution modes.
    ///
    /// On the CSR environments the sharded per-shard pass actually runs,
    /// and its within-voxel candidate order is canonically ascending-uid
    /// — which a death-free insertion-order baseline reproduces, so the
    /// comparison holds bitwise regardless of storage permutation. On
    /// every other environment sharding leaves the pipeline untouched
    /// (the global pass runs, the rebalance op is observational), so the
    /// identity is exact there too.
    #[test]
    fn sharded_matches_serial_baseline_bitwise_dense(seed in 0u64..200, simd in any::<bool>()) {
        let build = |shards: usize, env: EnvironmentKind, mode: ExecMode| {
            let mut sim =
                Simulation::new(sharded_params(10.0, seed, shards, precision_of(simd)));
            sim.set_environment(env);
            sim.set_exec_mode(mode);
            dense_scene(&mut sim, seed, true);
            sim
        };
        for env in all_envs() {
            let mut baseline = build(0, env, ExecMode::Serial);
            baseline.simulate(3);
            let want = by_uid(&baseline);
            for shards in SHARD_COUNTS {
                for mode in [ExecMode::Serial, ExecMode::Parallel] {
                    let mut sim = build(shards, env, mode);
                    sim.simulate(3);
                    prop_assert_eq!(baseline.rm().len(), sim.rm().len());
                    prop_assert_eq!(
                        &want, &by_uid(&sim),
                        "sharded@{} diverged from serial baseline: env {:?} mode {:?} simd {}",
                        shards, env, mode, simd
                    );
                }
            }
        }
    }

    /// Layer 3: under birth/death churn and cross-shard migration on a
    /// contact-free scene, sharded trajectories — per-uid state *and*
    /// the diffusion field — stay bitwise equal to the unsharded
    /// baseline at every shard count.
    #[test]
    fn sharded_matches_serial_baseline_under_churn(seed in 0u64..200, simd in any::<bool>()) {
        let build = |shards: usize| {
            let mut sim =
                Simulation::new(sharded_params(60.0, seed, shards, precision_of(simd)));
            sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
            churn_scene(&mut sim, seed);
            sim
        };
        let mut baseline = build(0);
        baseline.simulate(4);
        let want = by_uid(&baseline);
        let want_mass = baseline.diffusion_grid(0).total_mass().to_bits();
        for shards in SHARD_COUNTS {
            let mut sim = build(shards);
            sim.simulate(4);
            prop_assert_eq!(baseline.rm().len(), sim.rm().len(),
                "population diverged at {} shards", shards);
            prop_assert_eq!(&want, &by_uid(&sim),
                "per-uid state diverged at {} shards", shards);
            prop_assert_eq!(want_mass, sim.diffusion_grid(0).total_mass().to_bits(),
                "diffusion field diverged at {} shards", shards);
        }
    }

    /// Layer 1: any two shard counts agree bitwise on a *dense* scene
    /// with division AND stochastic death — the strongest churn — since
    /// every sharded run keeps the same canonical storage order.
    #[test]
    fn shard_counts_agree_bitwise_under_dense_death_churn(
        seed in 0u64..200,
        simd in any::<bool>(),
    ) {
        let build = |shards: usize, mode: ExecMode| {
            let mut sim =
                Simulation::new(sharded_params(10.0, seed, shards, precision_of(simd)));
            sim.set_exec_mode(mode);
            dense_scene(&mut sim, seed, true);
            // Stochastic death on top of the dense divisions.
            let mut rng = SplitMix64::new(seed.wrapping_add(3));
            for _ in 0..10 {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(
                        rng.uniform(-9.0, 9.0),
                        rng.uniform(-9.0, 9.0),
                        rng.uniform(-9.0, 9.0),
                    ))
                    .diameter(3.0)
                    .adherence(0.01)
                    .behavior(Behavior::Apoptosis { probability: 0.3 }),
                );
            }
            sim
        };
        let mut reference = build(SHARD_COUNTS[0], ExecMode::Serial);
        reference.simulate(4);
        let want = by_uid(&reference);
        for shards in &SHARD_COUNTS[1..] {
            for mode in [ExecMode::Serial, ExecMode::Parallel] {
                let mut sim = build(*shards, mode);
                sim.simulate(4);
                prop_assert_eq!(reference.rm().len(), sim.rm().len());
                prop_assert_eq!(&want, &by_uid(&sim),
                    "sharded@1 vs sharded@{} diverged (mode {:?}, simd {})", shards, mode, simd);
            }
        }
    }
}

/// The sharded run publishes its decomposition telemetry: shard count,
/// per-shard populations that sum to the census, imported halo agents
/// (dense scene ⇒ some shard has a populated boundary), and the
/// imbalance gauge.
#[test]
fn shard_metrics_are_published_and_consistent() {
    let mut sim = Simulation::new(sharded_params(10.0, 9, 4, Precision::F64));
    dense_scene(&mut sim, 9, false);
    sim.simulate(3);
    let n = sim.rm().len() as f64;
    let reg = sim.metrics();
    assert_eq!(reg.value("shard.count", &[]), Some(4.0));
    let mut agents = 0.0;
    let mut halo = 0.0;
    for i in 0..4 {
        let shard = i.to_string();
        let labels = [("shard", shard.as_str())];
        agents += reg.value("shard.agents", &labels).unwrap();
        halo += reg.value("shard.halo_agents", &labels).unwrap();
    }
    assert_eq!(agents, n, "per-shard populations must sum to the census");
    assert!(
        halo > 0.0,
        "a dense 4-shard scene must import ghost-halo agents"
    );
    let imbalance = reg.value("shard.imbalance", &[]).unwrap();
    assert!(
        imbalance >= 1.0,
        "imbalance is max/mean, so >= 1: {imbalance}"
    );
    assert!(
        reg.value("shard.rebalances", &[]).unwrap() >= 1.0,
        "threshold 1.0 forces a re-split away from the even key-space map"
    );
    assert!(reg.value("shard.migrations", &[]).is_some());
    // The rebalance op is scheduled and ran.
    assert!(sim
        .scheduler()
        .stats()
        .iter()
        .any(|s| s.name == "shard rebalance" && s.runs >= 1));
}

/// Sharding is a real path at the mixed precision too: the step reports
/// the driver's `shard sort` phase *and* the SIMD lane statistics, with
/// every candidate riding a lane.
#[test]
fn sharded_f32_simd_runs_the_sharded_driver() {
    let mut sim = Simulation::new(sharded_params(10.0, 9, 4, Precision::F32Simd));
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    dense_scene(&mut sim, 9, false);
    sim.simulate(2);
    let work = sim.last_mech_work().expect("a mechanical step ran");
    assert!(
        work.phases.iter().any(|p| p.name == "shard sort"),
        "with_shards(4) + F32Simd must step through the sharded driver: {:?}",
        work.phases.iter().map(|p| p.name).collect::<Vec<_>>()
    );
    let simd = work.simd.expect("the f32 lanes report their statistics");
    assert!(work.candidates > 0);
    assert_eq!(simd.lanes_utilized, work.candidates);
    assert!(sim.sharding().expect("sharded").halo_agents() > 0);
}

/// Moving agents across the domain between steps crosses shard
/// boundaries, and the scheduled rebalance op counts them.
#[test]
fn cross_shard_migrations_are_counted() {
    let mut sim = Simulation::new(
        SimParams::cube(50.0)
            .with_seed(3)
            .with_shards(2)
            .with_shard_rebalance(1, 1.0),
    );
    // Two well-separated, contact-free clusters.
    for k in 0..8 {
        sim.add_cell(CellBuilder::new(Vec3::new(-40.0, k as f64 * 10.0 - 40.0, 0.0)).diameter(2.0));
        sim.add_cell(CellBuilder::new(Vec3::new(40.0, k as f64 * 10.0 - 40.0, 0.0)).diameter(2.0));
    }
    sim.simulate(1);
    assert_eq!(sim.sharding().unwrap().migrations(), 0);
    // Teleport the left cluster to the right half: every one of its
    // agents' Hilbert keys crosses into the other shard's span.
    for i in 0..sim.rm().len() {
        if sim.rm().position(i).x < 0.0 {
            sim.rm_mut().translate(i, Vec3::new(75.0, 0.0, 0.0));
        }
    }
    sim.simulate(1);
    assert!(
        sim.sharding().unwrap().migrations() >= 8,
        "expected the moved cluster to register as migrations, got {}",
        sim.sharding().unwrap().migrations()
    );
}

/// A skewed population triggers curve-order load rebalancing: the even
/// key-space split starts degenerate (small grids occupy a tiny key
/// prefix), and `ShardMap::balanced` re-splits to a usable partition.
#[test]
fn rebalance_resplits_a_skewed_population() {
    let mut sim = Simulation::new(sharded_params(10.0, 4, 4, Precision::F64));
    dense_scene(&mut sim, 4, false);
    sim.simulate(2);
    let sh = sim.sharding().unwrap();
    assert!(sh.rebalances() >= 1, "skewed even-split must re-balance");
    // After re-splitting, no shard may hold everything.
    let max = sh.agents_per_shard().iter().max().copied().unwrap_or(0);
    assert!(
        max < sim.rm().len() as u64,
        "population should spread across shards after rebalance: max {max} of {}",
        sim.rm().len()
    );
    assert!(
        sh.imbalance() < 4.0,
        "imbalance should drop below the degenerate 4.0"
    );
}
