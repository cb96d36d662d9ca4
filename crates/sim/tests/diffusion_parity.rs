//! Bitwise parity of the in-place diffusion sweep against the retained
//! out-of-place reference, and against the engine it replaced.
//!
//! The contract (DESIGN §5.12): `DiffusionGrid::step` — z-slabs swept in
//! place through a two-plane ring, branchy cells on the walls, a plain
//! vectorisable row loop inside — produces the exact bits of
//! `DiffusionGrid::step_reference`, the branchy whole-lattice sweep into
//! a second buffer, for every field, boundary condition, resolution,
//! sub-cycling depth and slab partition. Both evaluate one per-voxel
//! expression tree in IEEE arithmetic, so this is equality, not
//! tolerance — at any vector width: the `diffusion-parity` CI job runs
//! the suite in release mode, the `portable-baseline` job again without
//! AVX2. `fields_match_the_parent_goldens` additionally holds both
//! engines to fields harvested from the double-buffered tiled engine.

use bdm_math::{Aabb, Vec3};
use bdm_sim::diffusion::{BoundaryCondition, DiffusionGrid, DiffusionParams};
use bdm_sim::param::{Precision, SimParams};
use bdm_sim::rayon::{with_shuffled_schedule, ThreadPoolBuilder};
use bdm_sim::scheduler::ExecMode;
use bdm_sim::simulation::Simulation;
use proptest::prelude::*;

fn assert_bitwise_eq(a: &DiffusionGrid, b: &DiffusionGrid, what: &str) {
    if let Some(i) = first_difference(a, b) {
        let (va, vb) = (a.concentrations()[i], b.concentrations()[i]);
        panic!("{what}: voxel {i} diverged ({va:e} vs {vb:e})");
    }
}

/// Index of the first voxel whose bits differ.
fn first_difference(a: &DiffusionGrid, b: &DiffusionGrid) -> Option<usize> {
    let differ = |(va, vb): (&f64, &f64)| va.to_bits() != vb.to_bits();
    a.concentrations()
        .iter()
        .zip(b.concentrations())
        .position(differ)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// The core parity sweep: arbitrary source patterns, both boundary
    /// conditions, resolutions below/straddling/above the 8-lane vector
    /// width (res 8 has no full vector; 21 leaves a remainder; 16/24 are
    /// lane-aligned), and coefficients deep into sub-cycling territory.
    #[test]
    fn tiled_step_matches_reference_bitwise(
        sources in proptest::collection::vec(
            ((-7.0f64..7.0, -7.0f64..7.0, -7.0f64..7.0), 0.1f64..50.0),
            1..12
        ),
        res_i in 0usize..5,
        coeff in 0.0f64..0.8,
        decay in 0.0f64..0.3,
        dirichlet in any::<bool>(),
        steps in 1u32..5,
    ) {
        // Resolutions below/straddling/above the 8-lane width.
        let res = [8usize, 12, 16, 21, 24][res_i];
        let boundary = if dirichlet {
            BoundaryCondition::Dirichlet
        } else {
            BoundaryCondition::Closed
        };
        let mut tiled = DiffusionGrid::new(
            DiffusionParams { name: "p", coefficient: coeff, decay, resolution: res, boundary },
            Aabb::cube(8.0),
        );
        for ((x, y, z), amount) in &sources {
            tiled.secrete(Vec3::new(*x, *y, *z), *amount);
        }
        let mut reference = tiled.clone();
        for s in 0..steps {
            let w_tiled = tiled.step(0.5);
            let w_ref = reference.step_reference(0.5);
            prop_assert_eq!(w_tiled, w_ref, "work counters diverged");
            // Compare after every step, not just at the end, so a
            // failure points at the first diverging sweep.
            for (i, (va, vb)) in tiled
                .concentrations()
                .iter()
                .zip(reference.concentrations())
                .enumerate()
            {
                prop_assert_eq!(
                    va.to_bits(), vb.to_bits(),
                    "step {}: voxel {} diverged ({:e} vs {:e}) at res {} {:?}",
                    s, i, va, vb, res, boundary
                );
            }
        }
    }

    /// Sub-cycling kicks in identically on both engines: a stiff
    /// coefficient forces n > 1 and the trajectories still match bit
    /// for bit (and stay finite, where the old engine diverged).
    #[test]
    fn sub_cycled_step_matches_reference_bitwise(
        coeff in 0.5f64..2.0,
        dirichlet in any::<bool>(),
    ) {
        let boundary = if dirichlet {
            BoundaryCondition::Dirichlet
        } else {
            BoundaryCondition::Closed
        };
        let mut tiled = DiffusionGrid::new(
            DiffusionParams {
                name: "stiff", coefficient: coeff, decay: 0.01, resolution: 16, boundary,
            },
            Aabb::cube(8.0),
        );
        prop_assert!(tiled.substeps_for(0.5) > 1);
        tiled.secrete(Vec3::zero(), 100.0);
        tiled.secrete(Vec3::new(3.0, -2.0, 5.0), 40.0);
        let mut reference = tiled.clone();
        for _ in 0..3 {
            tiled.step(0.5);
            reference.step_reference(0.5);
        }
        prop_assert!(tiled.max_concentration().is_finite());
        for (va, vb) in tiled.concentrations().iter().zip(reference.concentrations()) {
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    /// The slab matrix: where the sweep cuts the lattice depends on the
    /// worker count (two slabs per worker, at most one per eight planes,
    /// `ceil(res / slabs)` planes each) and must not show in a bit or a
    /// counter. Pools of 1 / 2 / 3 / 4 / 7 workers over these resolutions
    /// give one slab (2 … 9: both halos are the lattice's own wall
    /// planes, at 2 and 3 every plane is a wall), even halves (16, 40),
    /// ragged last slabs (17: 9 + 8; 25: 9 + 9 + 7; 33: 9 + 9 + 9 + 6)
    /// and the minimum depth (40 under ≥ 3 workers: 5 × 8). A shuffled
    /// schedule runs the slabs of the 4-worker cut in a random order on
    /// one thread. Voxels are unit cubes at every resolution, so the
    /// sub-cycling depth follows the coefficient alone (≤ 5). The f32
    /// leg has no reference; its one-worker run is the oracle.
    #[test]
    fn any_slab_partition_yields_the_same_bits_and_counters(
        sources in proptest::collection::vec(
            ((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 0.1f64..50.0),
            1..10
        ),
        coeff in 0.0f64..0.5,
        decay in 0.0f64..0.3,
        dirichlet in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let boundary = if dirichlet {
            BoundaryCondition::Dirichlet
        } else {
            BoundaryCondition::Closed
        };
        for res in [2usize, 3, 5, 8, 9, 16, 17, 25, 33, 40] {
            let space = Aabb::cube(res as f64 / 2.0);
            let mut start = DiffusionGrid::new(
                DiffusionParams { name: "p", coefficient: coeff, decay, resolution: res, boundary },
                space,
            );
            let e = space.extents();
            for ((x, y, z), amount) in &sources {
                start.secrete(space.min + Vec3::new(e.x * x, e.y * y, e.z * z), *amount);
            }
            // Two steps on a pool of `workers`, its slabs forked or
            // shuffled.
            let run = |workers: usize, shuffled: bool, precision: Precision| {
                let mut g = start.clone();
                let mut steps = || (0..2).for_each(|_| { g.step_in(0.5, precision); });
                let pool = ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
                pool.install(|| {
                    if shuffled {
                        with_shuffled_schedule(seed, steps)
                    } else {
                        steps()
                    }
                });
                g
            };
            let mut reference = start.clone();
            for _ in 0..2 {
                reference.step_reference(0.5);
            }
            for precision in [Precision::F64, Precision::F32Simd] {
                let single = run(1, false, precision);
                if precision == Precision::F64 {
                    prop_assert_eq!(first_difference(&single, &reference), None, "res {}", res);
                }
                for (workers, shuffled) in
                    [(2, false), (3, false), (4, false), (7, false), (4, true)]
                {
                    let g = run(workers, shuffled, precision);
                    prop_assert_eq!(
                        first_difference(&g, &single), None,
                        "res {} {:?} {:?}, {} workers (shuffled: {})",
                        res, boundary, precision, workers, shuffled
                    );
                    prop_assert_eq!(
                        g.stats(), single.stats(), "res {}, {} workers", res, workers
                    );
                }
            }
        }
    }
}

/// The thinnest slab there is: 73 planes under seven workers are cut
/// into nine slabs (one per eight planes) of nine planes, which leaves
/// the last slab the far z-wall plane alone — both its z-neighbours are
/// halo snapshots, one of them of itself.
#[test]
fn a_slab_of_one_wall_plane_matches_reference_bitwise() {
    for boundary in [BoundaryCondition::Closed, BoundaryCondition::Dirichlet] {
        let mut swept = DiffusionGrid::new(
            DiffusionParams {
                name: "thin",
                coefficient: 0.3,
                decay: 0.05,
                resolution: 73,
                boundary,
            },
            Aabb::cube(36.5),
        );
        assert_eq!(swept.substeps_for(0.5), 3);
        golden_deposits(&mut swept, Aabb::cube(36.5), 0);
        let mut reference = swept.clone();
        let pool = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        pool.install(|| swept.step(0.5));
        reference.step_reference(0.5);
        assert_bitwise_eq(&swept, &reference, &format!("{boundary:?}"));
    }
}

/// Multi-substance scenes run through the batched `DiffusionOp` (one
/// rayon scope over all grids, each grid's slabs swept inline by the
/// worker that claimed it) and match per-substance reference
/// integration bitwise — in both scheduler execution modes.
#[test]
fn batched_multi_substance_scene_matches_reference_bitwise() {
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        let params = SimParams::cube(8.0);
        let dt = params.mech.timestep;
        let mut sim = Simulation::new(params);
        sim.set_exec_mode(mode);
        let specs = [
            DiffusionParams {
                name: "oxygen",
                coefficient: 0.1,
                decay: 0.0,
                resolution: 16,
                boundary: BoundaryCondition::Closed,
            },
            DiffusionParams {
                name: "toxin",
                coefficient: 0.05,
                decay: 0.2,
                resolution: 12,
                boundary: BoundaryCondition::Dirichlet,
            },
            // Stiff enough to sub-cycle at the scheduler's dt.
            DiffusionParams {
                name: "morphogen",
                coefficient: 30.0,
                decay: 0.0,
                resolution: 21,
                boundary: BoundaryCondition::Closed,
            },
        ];
        let mut references = Vec::new();
        for (i, p) in specs.iter().enumerate() {
            let s = sim.add_diffusion_grid(*p);
            assert_eq!(s, i);
            let g = sim.diffusion_grid_mut(s);
            g.secrete(Vec3::new(1.0 + i as f64, -2.0, 0.5), 80.0);
            g.secrete(Vec3::new(-3.0, 2.0, -1.0), 25.0);
            references.push(g.clone());
        }
        assert!(
            references[2].substeps_for(dt) > 1,
            "morphogen must sub-cycle"
        );
        sim.simulate(4);
        for (i, reference) in references.iter_mut().enumerate() {
            for _ in 0..4 {
                reference.step_reference(dt);
            }
            assert_bitwise_eq(
                sim.diffusion_grid(i),
                reference,
                &format!("substance {i} under {mode:?}"),
            );
        }
    }
}

/// A scene with fewer substances than workers: `DiffusionOp`'s batch has
/// one item, runs it on the calling thread, and the sweep inside forks
/// its slabs across the pool — the path the benchmark's four-field
/// batch (one grid per worker, slabs inline) never takes.
#[test]
fn a_lone_substance_sweeps_slab_parallel_under_the_scheduler() {
    let params = SimParams::cube(8.0);
    let dt = params.mech.timestep;
    let mut sim = Simulation::new(params);
    let s = sim.add_diffusion_grid(DiffusionParams {
        name: "lone",
        coefficient: 30.0,
        decay: 0.1,
        resolution: 21,
        boundary: BoundaryCondition::Closed,
    });
    let g = sim.diffusion_grid_mut(s);
    g.secrete(Vec3::new(7.9, -7.9, 0.5), 80.0);
    g.secrete(Vec3::new(-3.0, 2.0, -7.9), 25.0);
    let mut reference = g.clone();
    assert!(reference.substeps_for(dt) > 1);
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    pool.install(|| sim.simulate(3));
    for _ in 0..3 {
        reference.step_reference(dt);
    }
    assert_bitwise_eq(sim.diffusion_grid(s), &reference, "lone substance");
}

/// FNV-1a over the raw IEEE bits of a field.
fn field_hash(g: &DiffusionGrid) -> u64 {
    g.concentrations()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Round `round` of the golden script's secretions: five deposits spread
/// over the space by irrational-ish strides, plus one in each extreme
/// corner voxel so every wall, edge and corner carries substance.
fn golden_deposits(g: &mut DiffusionGrid, space: Aabb<f64>, round: u32) {
    let e = space.extents();
    let frac = |v: f64| v - v.floor();
    for i in 0..5 {
        let f = f64::from(round * 5 + i);
        let p = space.min
            + Vec3::new(
                e.x * frac(f * 0.37 + 0.11),
                e.y * frac(f * 0.61 + 0.23),
                e.z * frac(f * 0.83 + 0.05),
            );
        assert!(g.secrete(p, 3.0 + f));
    }
    assert!(g.secrete(space.min, 7.0 + f64::from(round)));
    assert!(g.secrete(space.max, 11.0 + f64::from(round)));
}

/// The fields the engine produced at the commit before the in-place
/// sweep, as hashes of their raw bits. "Equal to `step_reference`" proves
/// "equal to the parent" only while the reference itself is untouched;
/// these values were harvested from a run of that parent and hold both
/// engines to it: Closed and Dirichlet walls, decay, coefficients deep
/// into sub-cycling, a non-cubic space (three different h²), lattices
/// where every plane is a wall (2, 3), below / straddling / above the
/// lane width (9, 21, 40), secretions between steps, the f32 leg, and a
/// three-substance scene through the scheduler's `DiffusionOp`.
#[test]
fn fields_match_the_parent_goldens() {
    use bdm_sim::param::Precision::{F32Simd, F64};
    use BoundaryCondition::{Closed, Dirichlet};
    let cube = Aabb::cube(8.0);
    let slab = Aabb::new(Vec3::new(-8.0, -5.0, -3.0), Vec3::new(8.0, 6.0, 10.0));
    // Four rounds of deposits + one 0.5 step of a lone grid; `substeps`
    // is what each of those steps must sub-cycle into.
    let lone = |space, boundary, coefficient, decay, resolution, precision, substeps| {
        let mut g = DiffusionGrid::new(
            DiffusionParams {
                name: "golden",
                coefficient,
                decay,
                resolution,
                boundary,
            },
            space,
        );
        assert_eq!(g.substeps_for(0.5), substeps);
        for round in 0..4 {
            golden_deposits(&mut g, space, round);
            g.step_in(0.5, precision);
        }
        field_hash(&g)
    };

    // Three substances stepped by the scheduler, deposits mid-run.
    let params = SimParams::cube(8.0);
    let space = params.space;
    let mut sim = Simulation::new(params);
    for (coefficient, decay, resolution, boundary) in [
        (0.1, 0.0, 16, Closed),
        (0.05, 0.2, 12, Dirichlet),
        // Stiff enough to sub-cycle at the scheduler's dt.
        (30.0, 0.0, 21, Closed),
    ] {
        sim.add_diffusion_grid(DiffusionParams {
            name: "golden",
            coefficient,
            decay,
            resolution,
            boundary,
        });
    }
    for round in 0..3 {
        for s in 0..3 {
            golden_deposits(sim.diffusion_grid_mut(s), space, round + s as u32);
        }
        sim.simulate(2);
    }
    let batched = |s| field_hash(sim.diffusion_grid(s));

    #[rustfmt::skip]
    let scenes = [
        ("closed_res2", lone(cube, Closed, 0.4, 0.05, 2, F64, 1), 0x34de_045e_cef5_698c_u64),
        ("dirichlet_res2", lone(cube, Dirichlet, 0.4, 0.05, 2, F64, 1), 0xb9b2_3f3a_46fd_0825),
        ("closed_res3", lone(cube, Closed, 0.4, 0.0, 3, F64, 1), 0xaa1d_3c1f_a341_d953),
        ("dirichlet_res3", lone(cube, Dirichlet, 0.4, 0.05, 3, F64, 1), 0x9187_c85f_ae1a_cef6),
        ("closed_stiff_res9", lone(cube, Closed, 2.0, 0.01, 9, F64, 6), 0xa7ca_6bfd_075f_4fe3),
        ("dirichlet_stiff_res9", lone(cube, Dirichlet, 2.0, 0.01, 9, F64, 6), 0x5d94_a9c6_2702_3ac6),
        ("closed_decay_res21", lone(cube, Closed, 0.1, 0.05, 21, F64, 2), 0x6fa1_0622_0242_6aee),
        ("dirichlet_decay_res21", lone(cube, Dirichlet, 0.1, 0.05, 21, F64, 2), 0xaae8_ca41_5507_e35d),
        ("closed_noncubic_res40", lone(slab, Closed, 0.03, 0.02, 40, F64, 3), 0x866d_3bab_3582_ebf8),
        ("dirichlet_noncubic_res40", lone(slab, Dirichlet, 0.03, 0.02, 40, F64, 3), 0xa62b_3a4e_94d4_5d2e),
        ("closed_f32_res21", lone(cube, Closed, 0.1, 0.05, 21, F32Simd, 2), 0x115e_02ba_3812_e9fb),
        ("dirichlet_stiff_f32_res9", lone(cube, Dirichlet, 2.0, 0.01, 9, F32Simd, 6), 0xdb7c_1d93_3890_5d78),
        ("batched_oxygen_res16", batched(0), 0x2817_f6d5_501e_3934),
        ("batched_toxin_res12", batched(1), 0xfbf0_f5db_a625_8ff1),
        ("batched_morphogen_res21", batched(2), 0xdced_5f19_d4c3_6ebf),
    ];
    let moved: Vec<String> = scenes
        .iter()
        .filter(|(_, got, golden)| got != golden)
        .map(|(name, got, golden)| format!("{name}: got {got:#018x}, golden {golden:#018x}"))
        .collect();
    assert!(moved.is_empty(), "fields moved:\n{}", moved.join("\n"));
}
