//! Property-based tests of the platform's physical invariants.

use bdm_math::{Aabb, SplitMix64, Vec3};
use bdm_morton::{cell_keys, Curve};
use bdm_sim::behavior::{volume_of, Behavior};
use bdm_sim::cell::CellBuilder;
use bdm_sim::diffusion::{BoundaryCondition, DiffusionGrid, DiffusionParams};
use bdm_sim::param::SimParams;
use bdm_sim::rayon::{with_shuffled_schedule, ThreadPoolBuilder};
use bdm_sim::rm::{BehaviorTable, ReorderScratch, ResourceManager};
use bdm_sim::simulation::Simulation;
use bdm_soa::{parts, Permutation, SoaVec3};
use proptest::prelude::*;

/// `SimParams::with_reorder` rejects 0 at the builder (a scheduled op
/// that never fires); the purity sweeps here use `every == 0` to mean
/// "reorder off", which is the default — so just skip the builder.
fn reorder_every(p: SimParams, every: u64) -> SimParams {
    if every == 0 {
        p
    } else {
        p.with_reorder(every)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Closed-boundary diffusion conserves mass for any source pattern,
    /// resolution, and (stable) coefficient.
    #[test]
    fn diffusion_conserves_mass(
        sources in proptest::collection::vec(
            ((-7.0f64..7.0, -7.0f64..7.0, -7.0f64..7.0), 0.1f64..50.0),
            1..10
        ),
        res in 6usize..20,
        coeff in 0.01f64..0.3,
    ) {
        let mut g = DiffusionGrid::new(
            DiffusionParams {
                name: "p",
                coefficient: coeff,
                decay: 0.0,
                resolution: res,
                boundary: BoundaryCondition::Closed,
            },
            Aabb::cube(8.0),
        );
        for ((x, y, z), amount) in &sources {
            g.secrete(Vec3::new(*x, *y, *z), *amount);
        }
        let m0 = g.total_mass();
        for _ in 0..20 {
            g.step(0.25);
        }
        prop_assert!((g.total_mass() - m0).abs() < 1e-9 * m0.max(1.0));
        // And diffusion never creates negative concentrations.
        prop_assert!(g.max_concentration() >= 0.0);
    }

    /// Decay is exactly exponential for a diffusion-free substance.
    #[test]
    fn decay_is_exponential(decay in 0.01f64..0.5, steps in 1u32..30) {
        let mut g = DiffusionGrid::new(
            DiffusionParams {
                name: "d",
                coefficient: 0.0,
                decay,
                resolution: 8,
                boundary: BoundaryCondition::Closed,
            },
            Aabb::cube(4.0),
        );
        g.secrete(Vec3::zero(), 100.0);
        for _ in 0..steps {
            g.step(1.0);
        }
        let expect = 100.0 * (1.0 - decay).powi(steps as i32);
        prop_assert!((g.total_mass() - expect).abs() < 1e-9 * expect.max(1.0));
    }

    /// Total cell volume is conserved by division and grows by exactly
    /// the growth rate per living cell per step, for arbitrary thresholds.
    #[test]
    fn growth_division_volume_budget(
        growth in 5.0f64..120.0,
        threshold in 10.2f64..14.0,
        steps in 1u64..6,
    ) {
        let mut sim = Simulation::new(SimParams::cube(100.0).with_seed(4));
        for i in 0..10 {
            sim.add_cell(
                CellBuilder::new(Vec3::new(i as f64 * 25.0 - 112.0, 0.0, 0.0))
                    .diameter(10.0)
                    .adherence(10.0) // agents stay put; only volume matters
                    .behavior(Behavior::GrowthDivision {
                        growth_rate: growth,
                        division_threshold: threshold,
                    }),
            );
        }
        let mut expected = 10.0 * volume_of(10.0);
        let mut living = 10.0;
        for _ in 0..steps {
            expected += growth * living;
            sim.simulate(1);
            living = sim.rm().len() as f64;
        }
        prop_assert!(
            (sim.rm().total_volume() - expected).abs() < 1e-6 * expected,
            "volume {} vs expected {}",
            sim.rm().total_volume(),
            expected
        );
    }

    /// Bound space: agents never end a step outside the simulation cube,
    /// wherever they start and however hard they are pushed.
    #[test]
    fn agents_stay_in_bounds(
        half in 2.0f64..30.0,
        offsets in proptest::collection::vec(
            (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0),
            1..40
        ),
    ) {
        let mut sim = Simulation::new(SimParams::cube(half).with_seed(6));
        for (x, y, z) in &offsets {
            sim.add_cell(CellBuilder::new(Vec3::new(*x, *y, *z)).diameter(2.0).adherence(0.0));
        }
        sim.simulate(2);
        for i in 0..sim.rm().len() {
            prop_assert!(
                sim.params().space.contains(sim.rm().position(i)),
                "agent {i} escaped to {:?}",
                sim.rm().position(i)
            );
        }
    }

    /// The three CPU environments agree on arbitrary random scenes
    /// (a randomized version of the integration test).
    #[test]
    fn environments_agree_on_random_scenes(seed in 0u64..1000) {
        use bdm_sim::environment::EnvironmentKind;
        use bdm_math::SplitMix64;
        let build = || {
            let mut sim = Simulation::new(SimParams::cube(12.0).with_seed(seed));
            let mut rng = SplitMix64::new(seed);
            for _ in 0..120 {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(
                        rng.uniform(-11.0, 11.0),
                        rng.uniform(-11.0, 11.0),
                        rng.uniform(-11.0, 11.0),
                    ))
                    .diameter(rng.uniform(2.0, 5.0))
                    .adherence(0.01),
                );
            }
            sim
        };
        let mut a = build();
        a.set_environment(EnvironmentKind::KdTree);
        a.simulate(2);
        let mut b = build();
        b.set_environment(EnvironmentKind::uniform_grid_parallel());
        b.simulate(2);
        for i in 0..a.rm().len() {
            let d = (a.rm().position(i) - b.rm().position(i)).norm();
            prop_assert!(d < 1e-8, "agent {i} diverged by {d}");
        }
    }

    /// Host-side Z-order reorder is *observationally pure*: per-uid
    /// trajectories are bitwise identical with reorder off vs on (every
    /// step, either curve) for every environment kind and both execution
    /// modes. Death-free dense scene — contacts everywhere, so this pins
    /// the neighbor-accumulation order canonicalization (uid tie-break in
    /// the sort, uid-sorted kd neighbor lists): with the sort running
    /// every step, storage restricted to any grid voxel is in ascending
    /// uid order at force time — exactly the order the never-reordered
    /// death-free run has — so the FP sums associate identically.
    /// (At frequency > 1 agents drift between sorts and within-voxel
    /// order goes stale; see `reorder_drift_stays_within_tolerance`.)
    #[test]
    fn reorder_is_observationally_pure(
        seed in 0u64..500,
        hilbert in any::<bool>(),
    ) {
        use bdm_math::SplitMix64;
        use bdm_morton::Curve;
        use bdm_sim::environment::EnvironmentKind;
        use bdm_sim::scheduler::ExecMode;
        use std::collections::HashMap;

        let curve = if hilbert { Curve::Hilbert } else { Curve::ZOrder };
        let build = |every: u64, env: EnvironmentKind, mode: ExecMode| {
            let params = reorder_every(SimParams::cube(10.0).with_seed(seed), every)
                .with_reorder_curve(curve);
            let mut sim = Simulation::new(params);
            sim.set_environment(env);
            sim.scheduler_mut().set_mode(mode);
            let mut rng = SplitMix64::new(seed.wrapping_add(1));
            for _ in 0..80 {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(
                        rng.uniform(-9.0, 9.0),
                        rng.uniform(-9.0, 9.0),
                        rng.uniform(-9.0, 9.0),
                    ))
                    .diameter(rng.uniform(2.0, 4.0))
                    .adherence(0.01),
                );
            }
            sim
        };
        let by_uid = |sim: &Simulation| -> HashMap<u64, (u64, u64, u64, u64)> {
            (0..sim.rm().len())
                .map(|i| {
                    let p = sim.rm().position(i);
                    (sim.rm().uid(i), (
                        p.x.to_bits(),
                        p.y.to_bits(),
                        p.z.to_bits(),
                        sim.rm().diameter(i).to_bits(),
                    ))
                })
                .collect()
        };
        let envs = [
            EnvironmentKind::KdTree,
            EnvironmentKind::uniform_grid_serial(),
            EnvironmentKind::uniform_grid_parallel(),
            EnvironmentKind::uniform_grid_csr_serial(),
            EnvironmentKind::uniform_grid_csr_parallel(),
            EnvironmentKind::gpu_default(),
        ];
        for env in envs {
            for mode in [ExecMode::Serial, ExecMode::Parallel] {
                let mut off = build(0, env, mode);
                let mut on = build(1, env, mode);
                for step in 0..3u64 {
                    off.simulate(1);
                    on.simulate(1);
                    prop_assert_eq!(off.rm().len(), on.rm().len());
                    let (a, b) = (by_uid(&off), by_uid(&on));
                    prop_assert_eq!(
                        a, b,
                        "per-uid state diverged: env {:?} mode {:?} step {}",
                        env, mode, step
                    );
                }
            }
        }
    }

    /// Amortized reorder (frequency > 1) lets agents drift between
    /// sorts, so within-voxel storage order goes stale and the force
    /// sums re-associate — the trajectory is the same physics but not
    /// bitwise. Pin the actual contract: per-uid state stays within the
    /// cross-environment agreement tolerance of the never-reordered run.
    #[test]
    fn reorder_drift_stays_within_tolerance(
        seed in 0u64..500,
        every in 2u64..5,
    ) {
        use bdm_math::SplitMix64;
        use bdm_sim::environment::EnvironmentKind;
        use std::collections::HashMap;

        let build = |every: u64, env: EnvironmentKind| {
            let mut sim = Simulation::new(
                reorder_every(SimParams::cube(10.0).with_seed(seed), every),
            );
            sim.set_environment(env);
            let mut rng = SplitMix64::new(seed.wrapping_add(1));
            for _ in 0..80 {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(
                        rng.uniform(-9.0, 9.0),
                        rng.uniform(-9.0, 9.0),
                        rng.uniform(-9.0, 9.0),
                    ))
                    .diameter(rng.uniform(2.0, 4.0))
                    .adherence(0.01),
                );
            }
            sim
        };
        for env in [
            EnvironmentKind::uniform_grid_serial(),
            EnvironmentKind::uniform_grid_csr_parallel(),
        ] {
            let mut off = build(0, env);
            let mut on = build(every, env);
            off.simulate(4);
            on.simulate(4);
            prop_assert_eq!(off.rm().len(), on.rm().len());
            let pos: HashMap<u64, Vec3<f64>> = (0..on.rm().len())
                .map(|i| (on.rm().uid(i), on.rm().position(i)))
                .collect();
            for i in 0..off.rm().len() {
                let d = (off.rm().position(i) - pos[&off.rm().uid(i)]).norm();
                prop_assert!(d < 1e-8, "uid {} drifted {d} under every={every}", off.rm().uid(i));
            }
        }
    }

    /// Reorder purity with the full behavior set — division, stochastic
    /// death, secretion, chemotaxis — on a sparse (contact-free) scene:
    /// births/deaths churn the storage order, and the uid-keyed RNG
    /// streams plus uid-canonical birth/secretion merges must keep the
    /// per-uid outcome independent of where each agent sits in memory.
    #[test]
    fn reorder_is_pure_under_division_death_and_secretion(
        seed in 0u64..500,
        every in 1u64..3,
    ) {
        use bdm_math::SplitMix64;
        use bdm_sim::environment::EnvironmentKind;
        use std::collections::HashMap;

        let build = |every: u64| {
            let params = reorder_every(SimParams::cube(60.0).with_seed(seed), every);
            let mut sim = Simulation::new(params);
            sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
            sim.add_diffusion_grid(DiffusionParams {
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
                        substance: 0,
                        rate: 3.0,
                    }),
                    _ => cell.behavior(Behavior::Chemotaxis {
                        substance: 0,
                        speed: 0.5,
                    }),
                };
                sim.add_cell(cell);
            }
            sim
        };
        let mut off = build(0);
        let mut on = build(every);
        for _ in 0..4u64 {
            off.simulate(1);
            on.simulate(1);
        }
        prop_assert_eq!(off.rm().len(), on.rm().len());
        let by_uid = |sim: &Simulation| -> HashMap<u64, (u64, u64, u64, u64)> {
            (0..sim.rm().len())
                .map(|i| {
                    let p = sim.rm().position(i);
                    (sim.rm().uid(i), (
                        p.x.to_bits(),
                        p.y.to_bits(),
                        p.z.to_bits(),
                        sim.rm().diameter(i).to_bits(),
                    ))
                })
                .collect()
        };
        prop_assert_eq!(by_uid(&off), by_uid(&on));
        // The substance field saw secretions in the same (uid) order:
        // bitwise-identical total mass.
        prop_assert_eq!(
            off.diffusion_grid(0).total_mass().to_bits(),
            on.diffusion_grid(0).total_mass().to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `ResourceManager::sort_storage` leaves every column in the order a
    /// comparison sort of `(cell key, uid)` gives, bit for bit, reports
    /// the keys in that order (what the shards read), and gathers only
    /// when that order is not the storage order already — for empty,
    /// one-agent and one-voxel populations, duplicate positions,
    /// positions outside the space, infinite and NaN ones, both curves,
    /// grids whose keys need one to four digit passes, uids in any order,
    /// storage unsorted, sorted, or sorted within each part of the scan
    /// but not across them, on 1, 2 and 4 workers and on shuffled part
    /// schedules.
    #[test]
    fn sort_storage_orders_like_the_comparison_sort(
        n in 0usize..5000,
        cell in 0usize..4,
        hilbert in any::<bool>(),
        one_voxel in any::<bool>(),
        storage in 0u32..3,
        seed in any::<u64>(),
    ) {
        let space = Aabb::new(Vec3::splat(-50.0), Vec3::splat(50.0));
        // 1, 15, 112 and 10,000 voxels per axis.
        let cell_len = [100.0, 7.0, 0.9, 0.01][cell];
        let curve = if hilbert { Curve::Hilbert } else { Curve::ZOrder };
        let rng = &mut SplitMix64::new(seed);
        let mut pos: Vec<Vec3<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let p = match rng.next_u64() % 64 {
                _ if one_voxel => Vec3::splat(rng.uniform(1.0, 1.005)),
                0 => Vec3::new(f64::NAN, rng.uniform(-50.0, 50.0), 0.0),
                1 => Vec3::new(f64::INFINITY, f64::NEG_INFINITY, 3.0),
                2..=5 if i > 0 => pos[(rng.next_u64() % i as u64) as usize],
                _ => Vec3::new(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)),
            };
            pos.push(p);
        }
        // Distinct uids in a random order.
        let mut uids: Vec<u64> = (0..n as u64).map(|u| 3 * u + 7).collect();
        for i in (1..n).rev() {
            uids.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        if storage > 0 {
            // Sorted already, or each of the scan's parts sorted with the
            // parts in descending order: only the checks across part
            // boundaries see that the second is not.
            let keys = cell_keys(
                &pos.iter().map(|p| p.x).collect::<Vec<_>>(),
                &pos.iter().map(|p| p.y).collect::<Vec<_>>(),
                &pos.iter().map(|p| p.z).collect::<Vec<_>>(),
                &space,
                cell_len,
                curve,
            );
            let pairs: Vec<(u64, u64)> = keys.into_iter().zip(uids.iter().copied()).collect();
            let mut order = Permutation::sorting_by_key(&pairs).gather_indices().to_vec();
            if storage == 2 {
                let (count, len) = parts(n);
                let mut end = n;
                let mut reversed = Vec::with_capacity(n);
                for p in 0..count {
                    let size = len.min(n - p * len);
                    reversed.extend_from_slice(&order[end - size..end]);
                    end -= size;
                }
                order = reversed;
            }
            pos = order.iter().map(|&i| pos[i as usize]).collect();
            uids = order.iter().map(|&i| uids[i as usize]).collect();
        }
        let mut table = BehaviorTable::default();
        let lists: Vec<u32> = (1..5)
            .map(|k| table.intern(&[Behavior::Apoptosis { probability: 0.1 * k as f64 }]))
            .collect();
        let rm = ResourceManager::from_raw_parts(
            SoaVec3::from_vecs(&pos),
            (0..n).map(|_| rng.uniform(1.0, 2.0)).collect(),
            (0..n).map(|_| rng.uniform(0.0, 1.0)).collect(),
            (0..n).map(|_| lists[(rng.next_u64() % 4) as usize]).collect(),
            table,
            uids.clone(),
            3 * n as u64 + 7,
            0,
            0,
        )
        .unwrap();

        let (xs, ys, zs) = rm.position_columns();
        let keys = cell_keys(xs, ys, zs, &space, cell_len, curve);
        let pairs: Vec<(u64, u64)> = keys.iter().copied().zip(uids).collect();
        let want = Permutation::sorting_by_key(&pairs);
        let moves = if pairs.is_sorted() { 0 } else { n as u64 };
        let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let columns = |rm: &ResourceManager| {
            let (xs, ys, zs) = rm.position_columns();
            let f64s = [xs, ys, zs, rm.diameter_column(), rm.adherence_column()];
            let lists: Vec<Vec<Behavior>> =
                rm.behaviors_column().into_iter().map(<[Behavior]>::to_vec).collect();
            (f64s.map(bits), rm.uid_column().to_vec(), lists)
        };
        let (f64s, uids, lists) = columns(&rm);
        let lists = want.gather_indices().iter().map(|&g| lists[g as usize].clone()).collect();
        let expected = (f64s.map(|c| want.apply(&c)), want.apply(&uids), lists);
        let sort = || {
            let (mut sorted, mut scratch, mut out) = (rm.clone(), ReorderScratch::default(), Vec::new());
            let moved = sorted.sort_storage(&space, cell_len, curve, &mut scratch, Some(&mut out));
            // Again, on the sorted storage and the warm scratch: a scan.
            let again = sorted.sort_storage(&space, cell_len, curve, &mut scratch, None);
            (moved, again, columns(&sorted), out)
        };
        let want_keys = want.apply(&keys);
        for workers in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            let (moved, again, got, out) = pool.install(sort);
            prop_assert_eq!((moved, again), (moves, 0), "{} workers", workers);
            prop_assert!(got == expected, "{} workers: columns out of order", workers);
            prop_assert_eq!(&out, &want_keys, "{} workers", workers);
        }
        let (moved, _, got, out) = with_shuffled_schedule(seed, sort);
        prop_assert_eq!(moved, moves);
        prop_assert!(got == expected, "shuffled: columns out of order");
        prop_assert_eq!(out, want_keys);
    }
}
