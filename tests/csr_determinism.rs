//! The CSR grid has one build: it computes the voxel keys in parallel
//! parts and then runs one stable counting sort over them, so its
//! `cell_agents` ordering is the same on any worker count. Because the
//! fused mechanics pass accumulates forces in that storage order, the
//! serial and parallel CSR environments must yield bitwise-identical
//! FP64 trajectories — not merely tolerance-equal — on one worker or
//! two. The environments' `parallel` flag only labels the modeled build
//! phase; a serial run is `ExecMode::Serial`. The linked-list pair keeps
//! the same contract: its one build is the parallel one, which is the
//! serial build's grid bit for bit.
//!
//! This is the guarantee that makes the CSR layout safe to enable in
//! reproducibility-sensitive runs where the linked-list layout's
//! insertion order would otherwise be the only deterministic option.

use biodynamo::math::SplitMix64;
use biodynamo::prelude::*;
use biodynamo::sim::rayon::ThreadPoolBuilder;

/// `n` cells at random in the cube of half-edge `half`, 3 away from
/// its faces.
fn random_scene(n: usize, seed: u64, half: f64) -> Simulation {
    let mut sim = Simulation::new(SimParams::cube(half).with_seed(seed));
    let mut rng = SplitMix64::new(seed);
    let inner = half - 3.0;
    for _ in 0..n {
        sim.add_cell(
            CellBuilder::new(Vec3::new(
                rng.uniform(-inner, inner),
                rng.uniform(-inner, inner),
                rng.uniform(-inner, inner),
            ))
            .diameter(rng.uniform(4.0, 8.0))
            .adherence(0.05),
        );
    }
    sim
}

fn positions(env: EnvironmentKind, n: usize, seed: u64, steps: u64) -> Vec<Vec3<f64>> {
    let mut sim = random_scene(n, seed, 25.0);
    sim.set_environment(env);
    sim.simulate(steps);
    (0..sim.rm().len()).map(|i| sim.rm().position(i)).collect()
}

/// What one mechanical step of a grid environment shows: the positions
/// after it, why a CSR grid was or was not rebuilt (`mech.csr_rebuild`'s
/// `reason`; `None` for the linked list, which builds every step), the
/// sweep's candidates / contacts / neighbors, and the modeled build
/// phase's `parallel` flag.
struct Step {
    positions: Vec<Vec3<f64>>,
    rebuild: Option<&'static str>,
    counts: [u64; 3],
    build_parallel: bool,
}

/// 60 steps of 1,500 cells (two key-pass parts) in `env` on `workers`
/// workers: a scene that relaxes until it freezes.
fn trace(env: EnvironmentKind, workers: usize) -> Vec<Step> {
    let pool = ThreadPoolBuilder::new().num_threads(workers);
    pool.build().expect("pool").install(|| {
        let mut sim = random_scene(1500, 99, 38.0);
        sim.set_environment(env);
        (0..60)
            .map(|_| {
                sim.step();
                let work = sim.last_mech_work().expect("a mechanical step");
                let build = work.phases.iter().find(|p| p.name == "neighborhood build");
                Step {
                    positions: (0..sim.rm().len()).map(|i| sim.rm().position(i)).collect(),
                    rebuild: work.csr_rebuild.map(|r| r.label()),
                    counts: [work.candidates, work.contacts, work.neighbors],
                    build_parallel: build.expect("a build phase").parallel,
                }
            })
            .collect()
    })
}

#[test]
fn serial_and_parallel_csr_are_bitwise_identical() {
    for (n, seed) in [(400, 99), (900, 7)] {
        let serial = positions(EnvironmentKind::uniform_grid_csr_serial(), n, seed, 8);
        let parallel = positions(EnvironmentKind::uniform_grid_csr_parallel(), n, seed, 8);
        // assert_eq! on f64 vectors: exact bit equality, no tolerance.
        assert_eq!(
            serial, parallel,
            "CSR serial vs parallel diverged (n={n}, seed={seed})"
        );
    }
    // The traced CSR scene's steps rebuild, then hold (agents move within
    // their voxels), then skip unchanged. Each layout's pair of
    // environments, on one worker and on two, sees the same steps,
    // rebuilds and counters; only the build phase's label tells the two
    // of a pair apart.
    let pairs = [
        (
            EnvironmentKind::uniform_grid_csr_serial(),
            EnvironmentKind::uniform_grid_csr_parallel(),
        ),
        (
            EnvironmentKind::uniform_grid_serial(),
            EnvironmentKind::uniform_grid_parallel(),
        ),
    ];
    for (serial, parallel) in pairs {
        let reference = trace(serial, 1);
        let reasons: Vec<_> = reference.iter().map(|s| s.rebuild).collect();
        if serial == EnvironmentKind::uniform_grid_csr_serial() {
            for reason in ["held", "unchanged"] {
                assert!(
                    reasons.contains(&Some(reason)),
                    "no {reason} step: {reasons:?}"
                );
            }
        } else {
            assert!(reasons.iter().all(Option::is_none), "{reasons:?}");
        }
        assert!(reference.iter().all(|s| !s.build_parallel));
        for (env, label) in [(serial, false), (parallel, true)] {
            for workers in [1, 2] {
                let run = trace(env, workers);
                for (k, (got, want)) in run.iter().zip(&reference).enumerate() {
                    let at = format!("{} on {workers} workers, step {k}", env.label());
                    assert_eq!(got.positions, want.positions, "{at}");
                    assert_eq!(got.rebuild, want.rebuild, "{at}");
                    assert_eq!(got.counts, want.counts, "{at}");
                    assert_eq!(got.build_parallel, label, "{at}");
                }
            }
        }
    }
}

#[test]
fn csr_layout_is_bitwise_stable_across_reruns() {
    // Same environment twice — guards against hidden global state
    // (scratch reuse, iteration-order dependence) leaking into physics.
    let a = positions(EnvironmentKind::uniform_grid_csr_parallel(), 400, 99, 8);
    let b = positions(EnvironmentKind::uniform_grid_csr_parallel(), 400, 99, 8);
    assert_eq!(a, b);
}
