//! The mixed-precision force pass (`Precision::F32Simd`) inherits the
//! platform's determinism guarantee: its f32 lane packing and f64
//! lane-ordered reductions are pure functions of the CSR candidate
//! sequence and the fixed chunk partition — never of thread scheduling.
//! So for a *fixed* agent-storage order, the trajectory must be bitwise
//! identical across serial/parallel grid builds and serial/parallel
//! schedulers, with or without the Z-order reorder operation running.
//!
//! Note the contrast with the FP64 path: f32 *rounding* does depend on
//! storage order (reorder changes which candidates share a lane), so
//! reorder-on and reorder-off trajectories legitimately differ at
//! `F32Simd`. Each reorder setting is therefore compared only against
//! itself — four ways.
//!
//! Property-based: random mixed-behavior scenes (growth/division,
//! apoptosis, chemotaxis, secretion) over a substance field, so births,
//! deaths, and storage churn all interleave with the SIMD pass.

use biodynamo::prelude::*;
use proptest::prelude::*;

const SUBSTANCE: usize = 0;

fn behaviors_for(sel: u8) -> Vec<Behavior> {
    let mut b = Vec::new();
    if sel & 1 != 0 {
        b.push(Behavior::GrowthDivision {
            growth_rate: 80.0,
            division_threshold: 10.2,
        });
    }
    if sel & 2 != 0 {
        b.push(Behavior::Apoptosis { probability: 0.25 });
    }
    if sel & 4 != 0 {
        b.push(Behavior::Chemotaxis {
            substance: SUBSTANCE,
            speed: 0.5,
        });
    }
    if sel & 8 != 0 {
        b.push(Behavior::Secretion {
            substance: SUBSTANCE,
            rate: 1.5,
        });
    }
    b
}

type AgentSpec = (f64, f64, f64, u8);

/// Run the scene at `F32Simd` and return the trajectory keyed by stable
/// uid (ascending), so comparisons are independent of storage order.
fn trajectory(
    agents: &[AgentSpec],
    seed: u64,
    env: EnvironmentKind,
    mode: ExecMode,
    reorder_every: u64,
    steps: u64,
) -> Vec<(u64, Vec3<f64>, f64)> {
    // `with_reorder` rejects 0 at the builder; the sweep uses 0 to mean
    // "reorder off", which is the default.
    let mut params = SimParams::cube(30.0)
        .with_seed(seed)
        .with_precision(Precision::F32Simd);
    if reorder_every > 0 {
        params = params.with_reorder(reorder_every);
    }
    let mut sim = Simulation::new(params);
    sim.set_environment(env);
    sim.set_exec_mode(mode);
    let s = sim.add_diffusion_grid(DiffusionParams {
        name: "signal",
        coefficient: 0.05,
        decay: 0.0,
        resolution: 8,
        boundary: BoundaryCondition::Closed,
    });
    assert_eq!(s, SUBSTANCE);
    sim.diffusion_grid_mut(SUBSTANCE)
        .secrete(Vec3::new(20.0, 10.0, -5.0), 500.0);
    for &(x, y, z, sel) in agents {
        let mut cell = CellBuilder::new(Vec3::new(x, y, z))
            .diameter(9.8)
            .adherence(0.05);
        for b in behaviors_for(sel) {
            cell = cell.behavior(b);
        }
        sim.add_cell(cell);
    }
    sim.simulate(steps);
    let mut out: Vec<(u64, Vec3<f64>, f64)> = (0..sim.rm().len())
        .map(|i| (sim.rm().uid(i), sim.rm().position(i), sim.rm().diameter(i)))
        .collect();
    out.sort_by_key(|t| t.0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn f32simd_is_bitwise_deterministic_four_ways_per_reorder_setting(
        agents in proptest::collection::vec(
            (-25.0f64..25.0, -25.0f64..25.0, -25.0f64..25.0, 0u8..16),
            20..100,
        ),
        steps in 2u64..4,
        seed in 0u64..1_000,
    ) {
        for reorder_every in [0u64, 1] {
            let runs = [
                (EnvironmentKind::uniform_grid_csr_serial(), ExecMode::Serial),
                (EnvironmentKind::uniform_grid_csr_serial(), ExecMode::Parallel),
                (EnvironmentKind::uniform_grid_csr_parallel(), ExecMode::Serial),
                (EnvironmentKind::uniform_grid_csr_parallel(), ExecMode::Parallel),
            ];
            let baseline = trajectory(&agents, seed, runs[0].0, runs[0].1, reorder_every, steps);
            for (env, mode) in runs.into_iter().skip(1) {
                let t = trajectory(&agents, seed, env, mode, reorder_every, steps);
                // Exact equality on (uid, position, diameter): bitwise
                // identity, no tolerance.
                prop_assert_eq!(
                    &baseline,
                    &t,
                    "F32Simd diverged (reorder_every={}, {:?}, {:?})",
                    reorder_every,
                    env,
                    mode
                );
            }
        }
    }
}

/// A frozen `F32Simd` CSR scene stepped through `Simulation::step` at 1,
/// 2 and 4 workers: after step 0 no agent moves, so no step re-verifies
/// anything — the reorder counts every run `sorted` and skips its scan,
/// and the grid rebuild is skipped without reading the columns. The
/// positions are the same bits at every worker count.
#[test]
fn a_frozen_scene_re_verifies_nothing_after_step_zero() {
    const AGENTS: usize = 8_000;
    const STEPS: u64 = 4;
    let run = |threads: usize| {
        let mut params = SimParams::cube(60.0)
            .with_seed(3)
            .with_precision(Precision::F32Simd)
            .with_reorder(1);
        params.mech.max_displacement = 0.0;
        let mut sim = Simulation::new(params);
        sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
        let mut rng = biodynamo::math::SplitMix64::new(3);
        for _ in 0..AGENTS {
            let mut c = || rng.uniform(-58.0, 58.0);
            sim.add_cell(CellBuilder::new(Vec3::new(c(), c(), c())).diameter(9.8));
        }
        let pool = biodynamo::sim::rayon::ThreadPoolBuilder::new().num_threads(threads);
        let pool = pool.build().expect("pool");
        for step in 0..STEPS {
            pool.install(|| sim.step());
            let m = sim.metrics();
            let env = sim.environment().label();
            let at = |name: &str, labels: &[(&str, &str)]| m.value(name, labels).unwrap_or(0.0);
            let mech = |name: &str| at(name, &[("env", env.as_str())]);
            let rebuild =
                |reason: &str| at("mech.csr_rebuild", &[("env", &env), ("reason", reason)]);
            let runs = |outcome: &str| at("reorder.runs", &[("outcome", outcome)]);
            // Step 0 sorts the random storage and builds the grid;
            // nothing after it moves.
            let later = step as f64;
            assert_eq!(
                mech("mech.csr_rebuilds_skipped"),
                (step > 0) as u8 as f64,
                "{threads} workers, step {step}"
            );
            assert_eq!(rebuild("unchanged"), (step > 0) as u8 as f64);
            assert_eq!(rebuild("geometry"), (step == 0) as u8 as f64);
            assert_eq!((runs("sorted"), runs("gathered")), (later, 1.0));
            assert_eq!(at("reorder.checks_skipped", &[]), later);
        }
        let rm = sim.rm();
        let mut out: Vec<(u64, [u64; 3])> = (0..rm.len())
            .map(|i| (rm.uid(i), rm.position(i).to_array().map(f64::to_bits)))
            .collect();
        out.sort_unstable();
        out
    };
    let one = run(1);
    assert_eq!(run(2), one);
    assert_eq!(run(4), one);
}

/// Grows every cell once, through `ResourceManager::behavior_chunks_at`
/// views and nothing else — what a user operation may do.
struct GrowOnce {
    by: f64,
    done: bool,
}

impl Operation for GrowOnce {
    fn name(&self) -> &str {
        "grow once"
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        use biodynamo::sim::rayon::prelude::*;
        if !std::mem::replace(&mut self.done, true) {
            let n = ctx.rm.len();
            let cuts: Vec<usize> = (0..n).step_by(50).chain([n]).collect();
            let (chunks, _) = ctx.rm.behavior_chunks_at(&cuts);
            chunks.into_par_iter().for_each(|mut chunk| {
                for k in 0..chunk.len() {
                    chunk.set_diameter(k, chunk.diameter(k) + self.by);
                }
            });
        }
        Vec::new()
    }
}

/// A user operation that grows cells through chunk views, and makes no
/// other call, reaches everything keyed on the diameters: the largest
/// diameter (the grid's voxel edge), the attribute stamp, and the `f32`
/// tile the next step stages from the diameter column — that step moves
/// every agent as a fresh simulation of the same columns does.
#[test]
fn diameters_grown_through_chunk_views_reach_the_grid_and_the_f32_tile() {
    let params = SimParams::cube(20.0)
        .with_seed(5)
        .with_precision(Precision::F32Simd);
    let env = EnvironmentKind::uniform_grid_csr_parallel();
    let new_sim = || {
        let mut sim = Simulation::new(params.clone());
        sim.set_environment(env);
        sim
    };
    let bits = |sim: &Simulation| {
        let (xs, ys, zs) = sim.rm().position_columns();
        let all = xs.iter().chain(ys).chain(zs);
        all.map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    // Cells of diameter 1 three apart: nothing touches, nothing moves.
    let mut sim = new_sim();
    let mut rng = biodynamo::math::SplitMix64::new(5);
    for i in 0..216 {
        let mut at = |c: usize| (c % 6) as f64 * 3.0 - 7.5 + rng.uniform(-0.2, 0.2);
        let p = Vec3::new(at(i), at(i / 6), at(i / 36));
        sim.add_cell(CellBuilder::new(p).diameter(1.0));
    }
    sim.simulate(2);
    let (stamp, frozen) = (sim.rm().attribute_stamp(), bits(&sim));

    // The step's mechanics moves nothing; the operation, last in the
    // pipeline, grows every cell to diameter 4.
    sim.add_operation(Box::new(GrowOnce {
        by: 3.0,
        done: false,
    }));
    sim.step();
    assert_eq!(bits(&sim), frozen);
    assert_eq!(sim.rm().largest_diameter(), 4.0);
    assert_ne!(sim.rm().attribute_stamp(), stamp);

    let mut fresh = new_sim();
    let rm = sim.rm();
    for i in 0..rm.len() {
        let cell = CellBuilder::new(rm.position(i)).diameter(rm.diameter(i));
        fresh.add_cell(cell.adherence(rm.adherence(i)));
    }
    sim.step();
    fresh.step();
    assert_ne!(bits(&sim), frozen, "grown cells push apart");
    assert_eq!(bits(&sim), bits(&fresh));
}
