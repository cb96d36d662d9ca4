//! # biodynamo — facade crate
//!
//! A Rust reproduction of *"GPU Acceleration of 3D Agent-Based Biological
//! Simulations"* (Hesam, Breitwieser, Rademakers, Al-Ars — IPDPS
//! workshops / HiCOMB 2021).
//!
//! The paper replaces the kd-tree neighborhood search of the BioDynaMo
//! agent-based simulation platform with a uniform grid, offloads the
//! mechanical-interaction operation to GPUs (CUDA and OpenCL), and
//! evaluates three kernel-level improvements. This workspace rebuilds
//! the whole stack in Rust: the simulation platform, both neighborhood
//! methods, and — because this environment has no GPU — a deterministic
//! trace-driven SIMT GPU simulator that executes the real kernels while
//! modeling their performance on the paper's Table I hardware.
//!
//! ## Quick start
//!
//! ```
//! use biodynamo::prelude::*;
//!
//! // A small population of overlapping cells in a bounded space.
//! let mut sim = Simulation::new(SimParams::cube(30.0));
//! for i in 0..8 {
//!     let x = i as f64 * 4.0 - 14.0;
//!     sim.add_cell(CellBuilder::new(Vec3::new(x, 0.0, 0.0)).diameter(5.0).adherence(0.01));
//! }
//!
//! // Pick a neighborhood method — the paper's contribution is making
//! // this swappable: kd-tree, uniform grid, or the GPU offload.
//! sim.set_environment(EnvironmentKind::uniform_grid_parallel());
//! sim.simulate(5);
//! assert_eq!(sim.steps_executed(), 5);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`math`] | scalars (f32/f64 genericity), vectors, AABBs, Eq. 1 forces, RNG, stats |
//! | [`soa`] | structs-of-arrays columns and permutations |
//! | [`morton`] | Z-order curve (Improvement II) |
//! | [`kdtree`] | the baseline neighborhood method |
//! | [`grid`] | the uniform grid (Figs. 4/5) |
//! | [`device`] | Table I machine specs, cache simulator, CPU timing model |
//! | [`gpu`] | SIMT GPU simulator, CUDA/OpenCL frontends, kernels v0–III + dynamic parallelism |
//! | [`sim`] | the agent-based platform: behaviors, scheduler, environments, diffusion |
//! | [`roofline`] | ERT + roofline analysis (Fig. 12) |
//!
//! Every figure and table of the paper has a regenerator command in the
//! `bdm-bench` crate's one binary — see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured results.

pub use bdm_device as device;
pub use bdm_gpu as gpu;
pub use bdm_grid as grid;
pub use bdm_kdtree as kdtree;
pub use bdm_math as math;
pub use bdm_morton as morton;
pub use bdm_roofline as roofline;
pub use bdm_sim as sim;
pub use bdm_soa as soa;

/// The most common imports for building and running a simulation.
pub mod prelude {
    pub use bdm_gpu::frontend::ApiFrontend;
    pub use bdm_gpu::pipeline::KernelVersion;
    pub use bdm_math::interaction::MechParams;
    pub use bdm_math::{Aabb, Scalar, Vec3};
    pub use bdm_morton::Curve;
    pub use bdm_sim::behavior::Behavior;
    pub use bdm_sim::cell::CellBuilder;
    pub use bdm_sim::diffusion::{BoundaryCondition, DiffusionParams};
    pub use bdm_sim::environment::{EnvironmentKind, GpuSystem};
    pub use bdm_sim::io::Snapshot;
    pub use bdm_sim::operation::{OpContext, Operation, ReorderOp};
    pub use bdm_sim::param::{Precision, ReorderParams, SimParams};
    pub use bdm_sim::profiler::OpRecord;
    pub use bdm_sim::scheduler::{ExecMode, Scheduler};
    pub use bdm_sim::simulation::Simulation;
    pub use bdm_sim::timeseries::TimeSeries;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_work_together() {
        let mut sim = Simulation::new(SimParams::cube(20.0));
        sim.add_cell(CellBuilder::new(Vec3::zero()).diameter(4.0));
        sim.set_environment(EnvironmentKind::KdTree);
        sim.simulate(1);
        assert_eq!(sim.rm().len(), 1);
    }
}
