//! The pluggable neighborhood environment.
//!
//! BioDynaMo's mechanical interaction needs, every step, the set of
//! agents within the interaction radius of each agent. The paper's whole
//! contribution is swapping the method that answers that query:
//!
//! * [`EnvironmentKind::KdTree`] — the v0.0.9 baseline: serial kd-tree
//!   build + per-agent radius search;
//! * [`EnvironmentKind::UniformGrid`] — the paper's §IV-A replacement
//!   (Fig. 5), with its build modeled serial or parallel, in either the
//!   paper-faithful linked-list storage or the post-paper CSR
//!   counting-sort layout (see [`GridLayout`]);
//! * [`EnvironmentKind::Gpu`] — the §IV-B offload: grid build and force
//!   computation on the (simulated) device, in any kernel version and
//!   either API frontend.

use bdm_device::specs::{SystemSpec, SYSTEM_A, SYSTEM_B};
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::KernelVersion;

/// Which benchmark system a GPU environment simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuSystem {
    /// GTX 1080 Ti + Xeon E5-2640 v4 (Table I, System A).
    A,
    /// Tesla V100 + Xeon Gold 6130 (Table I, System B).
    B,
}

impl GpuSystem {
    /// The Table I spec.
    pub fn spec(&self) -> SystemSpec {
        match self {
            GpuSystem::A => SYSTEM_A,
            GpuSystem::B => SYSTEM_B,
        }
    }
}

/// Storage layout of the CPU uniform grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridLayout {
    /// The paper's Fig. 5 structure: per-voxel `start` head plus a
    /// `successors` link per agent — one dependent random access per
    /// candidate visit.
    LinkedList,
    /// CSR counting-sort layout (`cell_starts` prefix sums + contiguous
    /// `cell_agents`): queries stream 27 slices, and its one build gives
    /// the same arrays on any worker count. Post-paper optimization; see
    /// `bdm_grid::CsrGrid`.
    Csr,
}

/// The neighborhood method a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvironmentKind {
    /// Serial kd-tree build + radius search (the replaced baseline).
    KdTree,
    /// Uniform grid on the CPU, in either storage layout, with its build
    /// modeled serial or parallel (the parallel linked-list build is the
    /// multithreaded winner of §VI).
    UniformGrid {
        /// Linked-list (paper-faithful) or CSR storage.
        layout: GridLayout,
        /// Parallel grid construction, as the modeled build phase is
        /// labelled. Each layout runs one build whatever the flag: the
        /// linked list its lock-free parallel build (the serial build's
        /// grid bit for bit), CSR its one counting sort. A serial run is
        /// [`crate::scheduler::ExecMode::Serial`].
        parallel: bool,
    },
    /// GPU offload of grid build + mechanical forces.
    Gpu {
        /// Simulated system.
        system: GpuSystem,
        /// CUDA or OpenCL: the API the results are labelled with (both
        /// launch the same grid on the same simulated engine).
        frontend: ApiFrontend,
        /// Kernel version (v0 … III, dynpar).
        version: KernelVersion,
        /// Warp trace sampling stride (1 = trace everything).
        trace_sample: u64,
    },
}

impl EnvironmentKind {
    /// Uniform grid, linked-list layout, build phase modeled serial (see
    /// [`EnvironmentKind::UniformGrid`]'s `parallel`).
    pub fn uniform_grid_serial() -> Self {
        EnvironmentKind::UniformGrid {
            layout: GridLayout::LinkedList,
            parallel: false,
        }
    }

    /// Uniform grid, linked-list layout, build phase modeled parallel
    /// (the paper's multithreaded CPU winner).
    pub fn uniform_grid_parallel() -> Self {
        EnvironmentKind::UniformGrid {
            layout: GridLayout::LinkedList,
            parallel: true,
        }
    }

    /// Uniform grid, CSR layout, build phase modeled serial (see
    /// [`EnvironmentKind::UniformGrid`]'s `parallel`).
    pub fn uniform_grid_csr_serial() -> Self {
        EnvironmentKind::UniformGrid {
            layout: GridLayout::Csr,
            parallel: false,
        }
    }

    /// Uniform grid, CSR layout, build phase modeled parallel.
    pub fn uniform_grid_csr_parallel() -> Self {
        EnvironmentKind::UniformGrid {
            layout: GridLayout::Csr,
            parallel: true,
        }
    }

    /// Default GPU environment: System A, CUDA, best kernel (version II),
    /// full tracing.
    pub fn gpu_default() -> Self {
        EnvironmentKind::Gpu {
            system: GpuSystem::A,
            frontend: ApiFrontend::Cuda,
            version: KernelVersion::V2Sorted,
            trace_sample: 1,
        }
    }

    /// Short label for benchmark tables.
    pub fn label(&self) -> String {
        match self {
            EnvironmentKind::KdTree => "kd-tree".into(),
            EnvironmentKind::UniformGrid { layout, parallel } => {
                let mode = if *parallel { "parallel" } else { "serial" };
                match layout {
                    GridLayout::LinkedList => format!("uniform grid ({mode})"),
                    GridLayout::Csr => format!("uniform grid CSR ({mode})"),
                }
            }
            EnvironmentKind::Gpu {
                system,
                frontend,
                version,
                ..
            } => format!(
                "{} [{} / {}]",
                version.label(),
                frontend.name(),
                system.spec().gpu.name
            ),
        }
    }

    /// `true` for the device-offloaded environment.
    pub fn is_gpu(&self) -> bool {
        matches!(self, EnvironmentKind::Gpu { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            EnvironmentKind::KdTree,
            EnvironmentKind::uniform_grid_serial(),
            EnvironmentKind::uniform_grid_parallel(),
            EnvironmentKind::uniform_grid_csr_serial(),
            EnvironmentKind::uniform_grid_csr_parallel(),
            EnvironmentKind::gpu_default(),
        ];
        let labels: std::collections::HashSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn gpu_system_specs() {
        assert_eq!(GpuSystem::A.spec().gpu.name, "NVIDIA GTX 1080 Ti");
        assert_eq!(GpuSystem::B.spec().gpu.name, "NVIDIA Tesla V100");
        assert!(EnvironmentKind::gpu_default().is_gpu());
        assert!(!EnvironmentKind::KdTree.is_gpu());
    }
}
