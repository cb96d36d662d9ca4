//! The parallel CSR grid build is *deterministic*: it computes the voxel
//! keys in parallel parts and then runs the serial build's one stable
//! counting sort over them, so it produces the same `cell_agents`
//! ordering as the serial build. Because the fused mechanics pass
//! accumulates forces in that storage order, serial and parallel CSR
//! environments must yield bitwise-identical FP64 trajectories — not
//! merely tolerance-equal.
//!
//! This is the guarantee that makes the CSR layout safe to enable in
//! reproducibility-sensitive runs where the linked-list layout's
//! insertion order would otherwise be the only deterministic option.

use biodynamo::math::SplitMix64;
use biodynamo::prelude::*;

fn random_scene(n: usize, seed: u64) -> Simulation {
    let mut sim = Simulation::new(SimParams::cube(25.0).with_seed(seed));
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        sim.add_cell(
            CellBuilder::new(Vec3::new(
                rng.uniform(-22.0, 22.0),
                rng.uniform(-22.0, 22.0),
                rng.uniform(-22.0, 22.0),
            ))
            .diameter(rng.uniform(4.0, 8.0))
            .adherence(0.05),
        );
    }
    sim
}

fn positions(env: EnvironmentKind, n: usize, seed: u64, steps: u64) -> Vec<Vec3<f64>> {
    let mut sim = random_scene(n, seed);
    sim.set_environment(env);
    sim.simulate(steps);
    (0..sim.rm().len()).map(|i| sim.rm().position(i)).collect()
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
}

#[test]
fn csr_layout_is_bitwise_stable_across_reruns() {
    // Same environment twice — guards against hidden global state
    // (scratch reuse, iteration-order dependence) leaking into physics.
    let a = positions(EnvironmentKind::uniform_grid_csr_parallel(), 400, 99, 8);
    let b = positions(EnvironmentKind::uniform_grid_csr_parallel(), 400, 99, 8);
    assert_eq!(a, b);
}
