//! The four workloads, generated here from the seed; the program sees
//! only `Simulation::new` / `add_cell` / `add_diffusion_grid` /
//! `set_environment` calls. README.md records why each was chosen.

use bdm_math::{SplitMix64, Vec3};
use bdm_sim::environment::GpuSystem;
use bdm_sim::workload::{benchmark_b, CELL_DIAMETER};
use bdm_sim::{
    Behavior, BoundaryCondition, CellBuilder, DiffusionParams, EnvironmentKind, Precision,
    SimParams, Simulation,
};

/// Secretion per secretor per step in `chemo_fields` (the mass check
/// multiplies it back out).
pub const SECRETION_RATE: f64 = 1.0;

/// Size at which a workload is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size every published number refers to.
    Full,
    /// One eighth of the agents and voxels: for iterating on the harness
    /// (`run.sh --quick`) and its unit tests. Not comparable to `Full`.
    Quick,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Benchmark A: a lattice of growing, dividing cells.
    DivisionGrowth,
    /// Paper Benchmark B at its densest point: a frozen random cloud.
    FrozenDense,
    /// Sparse agents secreting into and climbing four large fields.
    ChemoFields,
    /// Benchmark B offloaded to the simulated GPU (the paper's GPU II).
    GpuOffload,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::DivisionGrowth,
        Workload::FrozenDense,
        Workload::ChemoFields,
        Workload::GpuOffload,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DivisionGrowth => "division_growth",
            Workload::FrozenDense => "frozen_dense",
            Workload::ChemoFields => "chemo_fields",
            Workload::GpuOffload => "gpu_offload",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps in the timed loop.
    pub fn steps(self) -> usize {
        match self {
            Workload::DivisionGrowth => 10,
            Workload::FrozenDense => 16,
            Workload::ChemoFields => 60,
            Workload::GpuOffload => 3,
        }
    }

    /// The traced pass probes the layers on the state *after* this step.
    /// The per-operation probe then runs two more steps on twins of that
    /// state — one to warm up, one measured — so the measured step is
    /// `probe_step() + 2`. For `division_growth` that is step 4: a reorder
    /// step, over storage the first division wave's appended daughters
    /// have scrambled, i.e. a real gather.
    pub fn probe_step(self) -> usize {
        match self {
            Workload::DivisionGrowth => 2,
            Workload::FrozenDense => 7,
            Workload::ChemoFields => 29,
            Workload::GpuOffload => 0,
        }
    }

    /// Build the scene. This whole call is what `setup_s` times.
    pub fn build(self, seed: u64, scale: Scale) -> Simulation {
        let full = scale == Scale::Full;
        match self {
            Workload::DivisionGrowth => division_growth(if full { 48 } else { 24 }, seed),
            Workload::FrozenDense => frozen_dense(if full { 200_000 } else { 25_000 }, seed),
            Workload::ChemoFields => {
                if full {
                    chemo_fields(30_000, 300.0, 128, seed)
                } else {
                    chemo_fields(3_750, 150.0, 64, seed)
                }
            }
            Workload::GpuOffload => {
                let mut sim = benchmark_b(if full { 20_000 } else { 2_500 }, 27.0, seed);
                sim.set_environment(EnvironmentKind::Gpu {
                    system: GpuSystem::A,
                    frontend: bdm_gpu::frontend::ApiFrontend::Cuda,
                    version: bdm_gpu::pipeline::KernelVersion::V2Sorted,
                    trace_sample: 1,
                });
                sim
            }
        }
    }
}

/// The scene of `bdm_sim::workload::benchmark_a` (lattice pitch 2/3 of
/// the diameter, growth tuned to divide in steps 1 and 8), built here
/// because the host reorder every 4 steps has to be in the parameters
/// `Simulation::new` receives; a unit test holds the two scenes together.
pub fn division_growth(cells_per_dim: usize, seed: u64) -> Simulation {
    let spacing = CELL_DIAMETER / 1.5;
    let half = spacing * cells_per_dim as f64 / 2.0 + CELL_DIAMETER;
    let mut sim = Simulation::new(SimParams::cube(half).with_seed(seed).with_reorder(4));
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    let origin = -spacing * (cells_per_dim as f64 - 1.0) / 2.0;
    let at = |i: usize| origin + i as f64 * spacing;
    for z in 0..cells_per_dim {
        for y in 0..cells_per_dim {
            for x in 0..cells_per_dim {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(at(x), at(y), at(z)))
                        .diameter(CELL_DIAMETER)
                        .adherence(0.4)
                        .behavior(Behavior::GrowthDivision {
                            growth_rate: 45.0,
                            division_threshold: 10.5,
                        }),
                );
            }
        }
    }
    sim
}

/// The scene of `bdm_sim::workload::benchmark_b` at a mean of 47
/// neighbors within one diameter — `n` agents uniform in the cube of the
/// volume that gives it, frozen by a zero displacement cap — built here
/// because precision and reorder have to be in the parameters
/// `Simulation::new` receives; a unit test holds the two scenes together.
fn frozen_dense(n: usize, seed: u64) -> Simulation {
    let sphere = 4.0 / 3.0 * std::f64::consts::PI * CELL_DIAMETER.powi(3);
    let half = (n as f64 * sphere / 47.0).cbrt() / 2.0;
    let mut params = SimParams::cube(half)
        .with_seed(seed)
        .with_precision(Precision::F32Simd)
        .with_reorder(1);
    params.mech.max_displacement = 0.0;
    let mut sim = Simulation::new(params);
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        let p = Vec3::new(
            rng.uniform(-half, half),
            rng.uniform(-half, half),
            rng.uniform(-half, half),
        );
        sim.add_cell(CellBuilder::new(p).diameter(CELL_DIAMETER).adherence(0.4));
    }
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    sim
}

/// Sparse agents (≈ 0.1 neighbors each) coupled to four closed fields:
/// a quarter secrete into substance `i % 4`, the rest climb its gradient.
/// Agents start one diameter and a half inside the walls so that every
/// deposit lands in the field and the mass check is exact.
fn chemo_fields(n: usize, half: f64, resolution: usize, seed: u64) -> Simulation {
    let mut sim = Simulation::new(SimParams::cube(half).with_seed(seed));
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    for name in ["s0", "s1", "s2", "s3"] {
        sim.add_diffusion_grid(DiffusionParams {
            name,
            coefficient: 0.5,
            decay: 0.0,
            resolution,
            boundary: BoundaryCondition::Closed,
        });
    }
    let inner = half - 1.5 * CELL_DIAMETER;
    let mut rng = SplitMix64::new(seed);
    for i in 0..n {
        let p = Vec3::new(
            rng.uniform(-inner, inner),
            rng.uniform(-inner, inner),
            rng.uniform(-inner, inner),
        );
        let substance = i % 4;
        let behavior = if (i / 4) % 4 == 0 {
            Behavior::Secretion {
                substance,
                rate: SECRETION_RATE,
            }
        } else {
            Behavior::Chemotaxis {
                substance,
                speed: 0.5,
            }
        };
        sim.add_cell(
            CellBuilder::new(p)
                .diameter(CELL_DIAMETER)
                .behavior(behavior),
        );
    }
    sim
}

/// Agents of `sim` that carry a `Secretion` behavior.
pub fn secretors(sim: &Simulation) -> usize {
    sim.rm()
        .behaviors_column()
        .iter()
        .filter(|bs| bs.iter().any(|b| matches!(b, Behavior::Secretion { .. })))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.probe_step() + 2 < w.steps());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn quick_scenes_have_an_eighth_of_the_agents() {
        let n = |w: Workload| w.build(1, Scale::Quick).rm().len();
        assert_eq!(n(Workload::DivisionGrowth), 24 * 24 * 24);
        assert_eq!(n(Workload::FrozenDense), 25_000);
        assert_eq!(n(Workload::ChemoFields), 3_750);
        assert_eq!(n(Workload::GpuOffload), 2_500);
    }

    /// The two scenes built here are the library's Benchmark A and B:
    /// same space, same agents in the same order, same mechanics.
    #[test]
    fn the_paper_scenes_are_the_librarys() {
        use bdm_sim::workload::{benchmark_a, benchmark_b};
        let same_scene = |ours: &Simulation, theirs: &Simulation| {
            assert_eq!(ours.params().space, theirs.params().space);
            assert_eq!(ours.params().mech, theirs.params().mech);
            assert_eq!(ours.rm().position_columns(), theirs.rm().position_columns());
            assert_eq!(ours.rm().diameter_column(), theirs.rm().diameter_column());
            assert_eq!(ours.rm().adherence_column(), theirs.rm().adherence_column());
            assert_eq!(ours.rm().behaviors_column(), theirs.rm().behaviors_column());
        };
        same_scene(&division_growth(6, 9), &benchmark_a(6, 9));
        same_scene(&frozen_dense(500, 9), &benchmark_b(500, 47.0, 9));
    }

    #[test]
    fn a_quarter_of_the_chemo_agents_secrete() {
        let sim = Workload::ChemoFields.build(5, Scale::Quick);
        // Agents 0..4 of every 16, and 3750 = 234 * 16 + 6.
        assert_eq!(secretors(&sim), 234 * 4 + 4);
        assert_eq!(sim.diffusion_grids().len(), 4);
    }
}
