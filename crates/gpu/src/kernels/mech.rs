//! The force kernel: one thread per cell, one Eq. 1 body.
//!
//! "Each GPU thread handles the mechanical interaction of one cell by
//! finding the cell's neighborhood and computing the mechanical
//! forces between the cell and all the cells in its neighborhood"
//! (paper §IV-B). The paper's versions change the precision, the input
//! order and where a thread's candidates are staged — never the body —
//! so there is one [`ForceKernel`], generic over the scalar and over a
//! [`CandidateSource`], the device twin of the host's `NeighborSource`:
//!
//! * **GPU v0** — `f64` over the [`ChainGrid`], insertion-ordered agents;
//! * **GPU I**  — `f32` (Improvement I);
//! * **GPU II** — `f32` on Morton-sorted agents (Improvement II; the
//!   sorting happens host-side in the pipeline, the kernel is unchanged
//!   — better locality is purely a data-layout effect, which is the
//!   paper's point);
//! * **GPU IV** — `f32`, sorted, over [`CsrCells`](super::layout::CsrCells)
//!   (see [`super::csr`]).
//!
//! Version III and the dynamic-parallelism experiment schedule threads
//! differently but reuse the pieces below: the chain walk, the
//! global-candidate load, `accumulate_candidate`, `store_displacement`.
//!
//! The per-thread neighbor loop is serial; at high densities the loop
//! dominates and lanes of a warp diverge in trip count, which the engine's
//! max-over-lanes warp timing turns into the Fig. 11 stagnation.

use crate::engine::{Kernel, ThreadCtx, ThreadId};
use crate::kernels::layout::{AgentCols, ChainGrid, DispCols};
use crate::mem::DeviceWord;
use bdm_grid::GridGeometry;
use bdm_math::interaction::{self, MechParams};
use bdm_math::{Scalar, Vec3};

/// Where a force thread's candidates come from: a grid layout that can
/// enumerate the agents of the ≤ 27 voxels around voxel `c`.
pub trait CandidateSource: Copy + Sync {
    /// Call `visit(ctx, j)` for every agent `j` in the stencil of `c`
    /// (the thread's own agent included), one slot per candidate.
    fn for_each_candidate<R: Scalar>(
        &self,
        ctx: &mut ThreadCtx<'_>,
        geom: &GridGeometry<R>,
        c: [u32; 3],
        visit: impl FnMut(&mut ThreadCtx<'_>, usize),
    );
}

/// Successor chains over ≤ 27 voxels: one head load per voxel, then a
/// dependent random access per candidate the coalescer can do nothing
/// with.
impl CandidateSource for ChainGrid<'_> {
    #[inline(always)]
    fn for_each_candidate<R: Scalar>(
        &self,
        ctx: &mut ThreadCtx<'_>,
        geom: &GridGeometry<R>,
        c: [u32; 3],
        mut visit: impl FnMut(&mut ThreadCtx<'_>, usize),
    ) {
        for b in geom.neighbor_boxes_of(c) {
            ctx.iops(2);
            self.walk(ctx, b, &mut visit);
        }
    }
}

/// The agent a force thread computes for: its row, position and radius.
pub(crate) struct Subject<R> {
    pub i: usize,
    pub p: Vec3<R>,
    pub r: R,
}

impl<R: Scalar + DeviceWord> Subject<R> {
    /// Load global candidate `j` and accumulate its contribution (the
    /// subject itself is skipped *inside* the slot, so lanes stay
    /// aligned).
    #[inline(always)]
    pub(crate) fn accumulate(
        &self,
        ctx: &mut ThreadCtx<'_>,
        agents: AgentCols<'_, R>,
        j: usize,
        params: &MechParams<R>,
        force: &mut Vec3<R>,
    ) {
        if j != self.i {
            let p2 = agents.position(ctx, j);
            let r2 = agents.radius(ctx, j);
            ctx.flops::<R>(1);
            accumulate_candidate(ctx, self.p, self.r, p2, r2, params, force);
        }
    }

    /// Eq. 1 summed over the chains of `boxes` — the global walk of the
    /// kernels that already hold their voxel list in registers
    /// (dynpar's parent and child, version III's overflow fallback).
    /// They have never charged the two address ops per voxel the fused
    /// kernel pays for enumerating its stencil, and the goldens pin it.
    #[inline(always)]
    pub(crate) fn chain_force(
        &self,
        ctx: &mut ThreadCtx<'_>,
        agents: AgentCols<'_, R>,
        chains: ChainGrid<'_>,
        boxes: impl IntoIterator<Item = usize>,
        params: &MechParams<R>,
    ) -> Vec3<R> {
        let mut force = Vec3::zero();
        for b in boxes {
            chains.walk(ctx, b, |ctx, j| {
                self.accumulate(ctx, agents, j, params, &mut force)
            });
        }
        force
    }
}

/// Accumulate Eq. 1 over one neighbor candidate — the force body shared
/// by every kernel version (and, through `bdm-sim`, the CPU paths).
#[inline(always)]
pub(crate) fn accumulate_candidate<R: Scalar>(
    ctx: &mut ThreadCtx<'_>,
    p1: Vec3<R>,
    r1: R,
    p2: Vec3<R>,
    r2: R,
    params: &MechParams<R>,
    force: &mut Vec3<R>,
) {
    ctx.flops::<R>(interaction::FLOPS_PER_DISTANCE_TEST as u32);
    if let Some(f) =
        interaction::collision_force(p1, r1, p2, r2, params.repulsion, params.attraction)
    {
        // Contact path: the remaining Eq. 1 arithmetic + two special
        // ops (sqrt of r·δ and the 1/dist normalization) + 3 adds.
        ctx.flops::<R>(interaction::FLOPS_PER_CONTACT as u32);
        ctx.special::<R>(2);
        *force += f;
        ctx.flops::<R>(3);
    }
}

/// Convert an accumulated force to a displacement and store it — shared
/// epilogue of every kernel version.
#[inline(always)]
pub(crate) fn store_displacement<R: Scalar + DeviceWord>(
    ctx: &mut ThreadCtx<'_>,
    out: DispCols<'_, R>,
    i: usize,
    force: Vec3<R>,
    adherence: R,
    params: &MechParams<R>,
) {
    ctx.flops::<R>(8);
    ctx.special::<R>(1);
    out.store(ctx, i, interaction::displacement(force, adherence, params));
}

/// One-thread-per-cell mechanical interaction kernel.
pub struct ForceKernel<'a, R: Scalar + DeviceWord, S: CandidateSource> {
    /// Number of cells.
    pub n: usize,
    /// Grid geometry.
    pub geom: GridGeometry<R>,
    /// Agent columns.
    pub agents: AgentCols<'a, R>,
    /// The grid the candidates are read from.
    pub source: S,
    /// Output displacements.
    pub out: DispCols<'a, R>,
    /// Interaction parameters.
    pub params: MechParams<R>,
}

impl<R: Scalar + DeviceWord, S: CandidateSource> Kernel for ForceKernel<'_, R, S> {
    /// A thread reads the agent columns and the grid, which nothing in the
    /// launch writes, and stores its own agent's displacement.
    fn blocks_commute(&self) -> bool {
        true
    }

    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let i = tid.global() as usize;
        if i >= self.n {
            return;
        }
        let a = Subject {
            i,
            p: self.agents.position(ctx, i),
            r: self.agents.radius(ctx, i),
        };
        let adh = self.agents.adherence(ctx, i);
        ctx.flops::<R>(1);
        ctx.iops(12);

        let mut force = Vec3::zero();
        let c = self.geom.box_coords(a.p);
        self.source
            .for_each_candidate(ctx, &self.geom, c, |ctx, j| {
                a.accumulate(ctx, self.agents, j, &self.params, &mut force)
            });
        store_displacement(ctx, self.out, i, force, adh, &self.params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LaunchConfig;
    use crate::kernels::layout::testing::DeviceScene;
    use bdm_grid::UniformGrid;
    use bdm_math::{Aabb, SplitMix64};
    use bdm_soa::AgentId;

    /// Full device pipeline on a small scene, compared against a direct
    /// host-side computation with the same math.
    #[test]
    fn device_forces_match_host_reference() {
        let mut rng = SplitMix64::new(33);
        let n = 400;
        let extent = 10.0;
        let radius = 0.6;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let adh = 0.01;
        let params = MechParams::<f64>::default_params();
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let box_len = 2.0 * radius; // largest diameter, BioDynaMo's choice
        let host_grid = UniformGrid::build_serial(&xs, &ys, &zs, space, box_len);

        // --- Device path ---
        let scene = DeviceScene::upload(*host_grid.geometry(), [&xs, &ys, &zs], 2.0 * radius, adh);
        scene.build_chains(128);
        let r = scene.dev.launch(
            &ForceKernel {
                n,
                geom: scene.geom,
                agents: scene.agents(),
                source: scene.chains(),
                out: scene.out(),
                params,
            },
            LaunchConfig::for_items(n, 128),
        );
        assert!(r.counters.flops_fp64 > 0.0);
        assert_eq!(r.counters.flops_fp32, 0.0);
        let [got, got_y, got_z] = scene.download(&scene.disp);

        // --- Host reference ---
        for i in 0..n {
            let p1 = Vec3::new(xs[i], ys[i], zs[i]);
            let mut force = Vec3::zero();
            let mut ids = Vec::new();
            host_grid.radius_search(
                &xs,
                &ys,
                &zs,
                p1,
                box_len,
                Some(AgentId(i as u32)),
                &mut ids,
            );
            // Sum in a canonical order (ids ascending) to sidestep FP
            // association differences; tolerance below covers the rest.
            ids.sort_unstable();
            for id in ids {
                let j = id.index();
                if let Some(f) = interaction::collision_force(
                    p1,
                    radius,
                    Vec3::new(xs[j], ys[j], zs[j]),
                    radius,
                    params.repulsion,
                    params.attraction,
                ) {
                    force += f;
                }
            }
            let disp = interaction::displacement(force, adh, &params);
            assert!(
                (disp.x - got[i]).abs() < 1e-9
                    && (disp.y - got_y[i]).abs() < 1e-9
                    && (disp.z - got_z[i]).abs() < 1e-9,
                "cell {i}: host {disp:?} vs device ({}, {}, {})",
                got[i],
                got_y[i],
                got_z[i]
            );
        }
    }

    /// FP32 instantiation runs and differs from FP64 only by rounding.
    #[test]
    fn fp32_kernel_close_to_fp64() {
        let mut rng = SplitMix64::new(55);
        let n = 200;
        let extent = 6.0;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();

        fn run<R: Scalar + DeviceWord>(
            xs: &[f64],
            ys: &[f64],
            zs: &[f64],
            extent: f64,
        ) -> Vec<f64> {
            let space = Aabb::new(Vec3::zero(), Vec3::splat(R::from_f64(extent)));
            let geom = GridGeometry::new(space, R::from_f64(1.2));
            let scene = DeviceScene::upload(geom, [xs, ys, zs], 1.2, 0.01);
            scene.build_chains(64);
            scene.dev.launch(
                &ForceKernel {
                    n: scene.n,
                    geom,
                    agents: scene.agents(),
                    source: scene.chains(),
                    out: scene.out(),
                    params: MechParams::<R>::default_params(),
                },
                LaunchConfig::for_items(scene.n, 64),
            );
            let [dx, ..] = scene.download(&scene.disp);
            dx
        }

        let d64 = run::<f64>(&xs, &ys, &zs, extent);
        let d32 = run::<f32>(&xs, &ys, &zs, extent);
        let mut max_err = 0.0f64;
        for i in 0..n {
            max_err = max_err.max((d64[i] - d32[i]).abs());
        }
        assert!(max_err < 1e-3, "fp32 deviates too much: {max_err}");
        assert!(d64.iter().any(|&v| v != 0.0), "scene produced no motion");
    }
}
