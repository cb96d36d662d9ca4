//! The device layout, declared once.
//!
//! Every kernel of the offload reads the same few buffers: five agent
//! columns, three displacement columns, and one of two grids over them.
//! The pipeline owns the buffers; a kernel holds these `Copy` views —
//! the pointer parameters of a GPU kernel — and goes through their
//! accessors, so each load sequence the performance model sees (the
//! engine keys accesses by slot and sub-slot, in call order) is written
//! in exactly one place.

use crate::engine::ThreadCtx;
use crate::mem::{DeviceBuffer, DeviceWord};
use bdm_grid::GridGeometry;
use bdm_math::{Scalar, Vec3};

/// Linked-list terminator (mirrors `bdm_soa::AgentId::NULL`).
pub const NULL_ID: u32 = u32::MAX;

/// The agent state that crosses the bus, as SoA columns in
/// [`crate::pipeline::SceneRef`] order: x, y, z, diameter, adherence.
#[derive(Clone, Copy)]
pub struct AgentCols<'a, R: DeviceWord>(pub &'a [DeviceBuffer<R>; 5]);

impl<R: Scalar + DeviceWord> AgentCols<'_, R> {
    /// Load agent `i`'s position: x, then y, then z.
    #[inline(always)]
    pub fn position(&self, ctx: &mut ThreadCtx<'_>, i: usize) -> Vec3<R> {
        Vec3::new(
            ctx.ld(&self.0[0], i),
            ctx.ld(&self.0[1], i),
            ctx.ld(&self.0[2], i),
        )
    }

    /// Load agent `i`'s radius. The halving is one flop, charged by the
    /// caller (after its last load, where every kernel has always
    /// charged it).
    #[inline(always)]
    pub fn radius(&self, ctx: &mut ThreadCtx<'_>, i: usize) -> R {
        ctx.ld(&self.0[3], i) * R::HALF
    }

    /// Load agent `i`'s adherence threshold.
    #[inline(always)]
    pub fn adherence(&self, ctx: &mut ThreadCtx<'_>, i: usize) -> R {
        ctx.ld(&self.0[4], i)
    }

    /// Flat voxel of agent `i` — the prologue of every grid-build kernel.
    #[inline(always)]
    pub fn voxel_of(&self, ctx: &mut ThreadCtx<'_>, geom: &GridGeometry<R>, i: usize) -> usize {
        let p = self.position(ctx, i);
        // Voxel index: 3 subs, 3 divs/floors, clamps ≈ 12 integer/address ops.
        ctx.iops(12);
        geom.box_index(p)
    }
}

/// The three displacement columns a force kernel writes (x, y, z).
#[derive(Clone, Copy)]
pub struct DispCols<'a, R: DeviceWord>(pub &'a [DeviceBuffer<R>; 3]);

impl<R: Scalar + DeviceWord> DispCols<'_, R> {
    /// Store agent `i`'s displacement.
    #[inline(always)]
    pub fn store(&self, ctx: &mut ThreadCtx<'_>, i: usize, d: Vec3<R>) {
        ctx.st(&self.0[0], i, d.x);
        ctx.st(&self.0[1], i, d.y);
        ctx.st(&self.0[2], i, d.z);
    }
}

/// The paper's device grid (Fig. 5 ported to the GPU): a linked list per
/// voxel, threaded through the agents.
#[derive(Clone, Copy)]
pub struct ChainGrid<'a> {
    /// Per-voxel list head ([`NULL_ID`] when empty).
    pub box_start: &'a DeviceBuffer<u32>,
    /// Per-voxel population.
    pub box_length: &'a DeviceBuffer<u32>,
    /// Per-agent successor link.
    pub successors: &'a DeviceBuffer<u32>,
}

impl ChainGrid<'_> {
    /// Reset for a fresh build (host-side; the cost of the device-side
    /// memset is folded into the build launch, it is bandwidth-trivial
    /// next to the position reads).
    pub fn reset(&self) {
        self.box_start.fill(NULL_ID);
        self.box_length.fill(0);
    }

    /// Walk voxel `b`'s successor chain, one slot per link: `visit` sees
    /// each member, then the dependent load of its successor is charged.
    #[inline(always)]
    pub fn walk(
        &self,
        ctx: &mut ThreadCtx<'_>,
        b: usize,
        mut visit: impl FnMut(&mut ThreadCtx<'_>, usize),
    ) {
        let mut cur = ctx.ld(self.box_start, b);
        while cur != NULL_ID {
            ctx.begin_slot();
            visit(ctx, cur as usize);
            cur = ctx.ld(self.successors, cur as usize);
            ctx.iops(1);
        }
    }
}

/// Version IV's device grid: agent ids grouped by voxel, CSR style.
#[derive(Clone, Copy)]
pub struct CsrCells<'a> {
    /// Per-voxel segment *end* offsets: voxel `v` owns
    /// `cell_agents[cell_ends[v - 1]..cell_ends[v]]`, with an implicit 0
    /// before voxel 0. During the scatter pass this buffer is the write
    /// cursor, pre-loaded with the *start* offsets; every placed agent
    /// advances its voxel's entry, so the exhausted cursor is the bounds
    /// array for free, no second upload.
    pub cell_ends: &'a DeviceBuffer<u32>,
    /// Agent ids grouped by voxel.
    pub cell_agents: &'a DeviceBuffer<u32>,
}

/// A small scene laid out on a device the way the pipeline lays it out —
/// the fixture of the kernel unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::engine::{GpuDevice, LaunchConfig, LaunchResult};
    use crate::kernels::grid_build::GridBuildKernel;
    use crate::mem::DeviceAllocator;
    use bdm_device::specs::SYSTEM_A;

    pub(crate) struct DeviceScene<R: Scalar + DeviceWord> {
        pub n: usize,
        pub geom: GridGeometry<R>,
        pub cols: [DeviceBuffer<R>; 5],
        pub disp: [DeviceBuffer<R>; 3],
        pub box_start: DeviceBuffer<u32>,
        pub box_length: DeviceBuffer<u32>,
        pub successors: DeviceBuffer<u32>,
        pub alloc: DeviceAllocator,
        pub dev: GpuDevice,
    }

    impl<R: Scalar + DeviceWord> DeviceScene<R> {
        /// Upload positions plus uniform diameter and adherence columns
        /// (narrowed to `R`) and allocate an unbuilt chain grid.
        pub fn upload(
            geom: GridGeometry<R>,
            [xs, ys, zs]: [&[f64]; 3],
            diameter: f64,
            adherence: f64,
        ) -> Self {
            let n = xs.len();
            let mut alloc = DeviceAllocator::new();
            let cols: [DeviceBuffer<R>; 5] = std::array::from_fn(|_| alloc.alloc(n));
            let uniform = |v: f64| vec![v; n];
            let (diameters, adherences) = (uniform(diameter), uniform(adherence));
            for (col, src) in cols.iter().zip([xs, ys, zs, &diameters, &adherences]) {
                let narrowed: Vec<R> = src.iter().map(|&v| R::from_f64(v)).collect();
                col.upload(&narrowed);
            }
            Self {
                n,
                geom,
                cols,
                disp: std::array::from_fn(|_| alloc.alloc(n)),
                box_start: alloc.alloc(geom.num_boxes()),
                box_length: alloc.alloc(geom.num_boxes()),
                successors: alloc.alloc(n),
                alloc,
                dev: GpuDevice::new(SYSTEM_A.gpu),
            }
        }

        pub fn agents(&self) -> AgentCols<'_, R> {
            AgentCols(&self.cols)
        }

        pub fn out(&self) -> DispCols<'_, R> {
            DispCols(&self.disp)
        }

        pub fn chains(&self) -> ChainGrid<'_> {
            ChainGrid {
                box_start: &self.box_start,
                box_length: &self.box_length,
                successors: &self.successors,
            }
        }

        /// Reset and build the chain grid on the device.
        pub fn build_chains(&self, block_dim: u32) -> LaunchResult {
            self.chains().reset();
            let build = GridBuildKernel {
                n: self.n,
                geom: self.geom,
                agents: self.agents(),
                grid: self.chains(),
            };
            self.dev
                .launch(&build, LaunchConfig::for_items(self.n, block_dim))
        }

        /// Download three columns (displacements, say) widened to `f64`.
        pub fn download(&self, from: &[DeviceBuffer<R>; 3]) -> [Vec<f64>; 3] {
            from.each_ref().map(|buf| {
                let mut col = vec![R::ZERO; self.n];
                buf.download(&mut col);
                col.iter().map(|v| v.to_f64()).collect()
            })
        }
    }
}
