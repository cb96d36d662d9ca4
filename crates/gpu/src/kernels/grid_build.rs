//! Device-side uniform-grid construction.
//!
//! One thread per agent: compute the agent's voxel, atomically push-front
//! onto the voxel's list (`atomicExch` on the head + plain store of the
//! successor), and bump the voxel's population (`atomicAdd`). This is the
//! grid half of the paper's single-kernel offload (§IV-B); its atomics are
//! cheap because agents of a warp rarely share a voxel — unlike the
//! shared-memory kernel's tile cursor, which is why *these* atomics don't
//! hurt but version III's do.

use crate::engine::{Kernel, ThreadCtx, ThreadId};
use crate::kernels::layout::{AgentCols, ChainGrid};
use crate::mem::DeviceWord;
use bdm_grid::GridGeometry;
use bdm_math::Scalar;

/// Grid-construction kernel.
pub struct GridBuildKernel<'a, R: Scalar + DeviceWord> {
    /// Number of agents.
    pub n: usize,
    /// Grid geometry.
    pub geom: GridGeometry<R>,
    /// Agent columns (positions only).
    pub agents: AgentCols<'a, R>,
    /// The grid to build ([`ChainGrid::reset`] first).
    pub grid: ChainGrid<'a>,
}

impl<R: Scalar + DeviceWord> Kernel for GridBuildKernel<'_, R> {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let i = tid.global() as usize;
        if i >= self.n {
            return;
        }
        let b = self.agents.voxel_of(ctx, &self.geom, i);
        let old = ctx.atomic_exchange(self.grid.box_start, b, i as u32);
        ctx.st(self.grid.successors, i, old);
        ctx.atomic_add(self.grid.box_length, b, 1);
    }
}

#[cfg(test)]
mod tests {
    use crate::kernels::layout::testing::DeviceScene;
    use crate::kernels::layout::NULL_ID;
    use bdm_grid::UniformGrid;
    use bdm_math::{Aabb, SplitMix64, Vec3};

    #[test]
    fn device_grid_matches_host_grid() {
        let mut rng = SplitMix64::new(21);
        let n = 500;
        let extent = 14.0;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let host = UniformGrid::build_serial(&xs, &ys, &zs, space, 2.0);

        let scene = DeviceScene::upload(*host.geometry(), [&xs, &ys, &zs], 1.0, 0.01);
        let r = scene.build_chains(128);
        assert!(r.counters.atomic_ops > 0.0);

        // Same voxel populations...
        for flat in 0..host.num_boxes() {
            assert_eq!(scene.box_length.read(flat), host.boxes()[flat].length);
        }
        // ...and the same *sets* per voxel (order may differ).
        for flat in 0..host.num_boxes() {
            let mut dev_ids = Vec::new();
            let mut cur = scene.box_start.read(flat);
            while cur != NULL_ID {
                dev_ids.push(cur);
                cur = scene.successors.read(cur as usize);
            }
            let mut host_ids = Vec::new();
            host.for_each_in_box(flat, |id| host_ids.push(id.0));
            dev_ids.sort_unstable();
            host_ids.sort_unstable();
            assert_eq!(dev_ids, host_ids, "voxel {flat}");
        }
    }
}
