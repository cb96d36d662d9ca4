//! GPU version III: the shared-memory tile kernel (paper §IV-E, Fig. 7).
//!
//! "We can exploit the fact that cells in the same voxel of the UG grid
//! share the same neighboring voxels … Instead of parallelizing the for
//! loop over all cells, we consider a kernel that would parallelize a
//! loop over all voxels. … The shared memory objects are built in
//! parallel by appending state data from agents of multiple voxels within
//! the highlighted region. To avoid race conditions, the use of atomic
//! operations is required."
//!
//! One block processes one (non-empty) voxel:
//!
//! * **Phase 0** — threads 0..27 each walk one of the voxel's 27
//!   neighbor boxes and append every agent (id, x, y, z, r) to a shared
//!   tile through an atomically-bumped cursor. Threads 27..block_dim sit
//!   idle (boundary-check divergence); concurrent appends to the single
//!   cursor serialize — exactly the two costs the paper blames for the
//!   28 % regression.
//! * **Phase 1** (after the block barrier) — thread *t* handles the *t*-th
//!   agent of the center voxel and sums Eq. 1 over the tile from shared
//!   memory. If the tile overflowed its capacity, the thread falls back
//!   to the global-memory walk so results stay exact.

use crate::engine::{FromWord, Kernel, ThreadCtx, ThreadId};
use crate::kernels::layout::{AgentCols, ChainGrid, DispCols};
use crate::kernels::mech::{accumulate_candidate, store_displacement, Subject};
use crate::mem::{DeviceBuffer, DeviceWord};
use bdm_grid::GridGeometry;
use bdm_math::interaction::MechParams;
use bdm_math::{Scalar, Vec3};

/// Shared-memory words reserved ahead of the tile entries
/// (word 0 = cursor, word 1 = overflow flag).
pub const TILE_HEADER_WORDS: usize = 2;
/// Words per tile entry: id, x, y, z, r.
pub const WORDS_PER_ENTRY: usize = 5;

/// Shared-memory words needed for a tile of `cap` entries.
pub fn shared_words_for(cap: usize) -> usize {
    TILE_HEADER_WORDS + cap * WORDS_PER_ENTRY
}

/// The largest tile (in entries) `shared_bytes` of shared memory hold —
/// the inverse of [`shared_words_for`], capped at 2,048 entries.
pub fn tile_cap_for(shared_bytes: usize) -> usize {
    ((shared_bytes / 8).saturating_sub(TILE_HEADER_WORDS) / WORDS_PER_ENTRY).min(2048)
}

/// Block-per-voxel shared-memory mechanical kernel.
pub struct SharedMechKernel<'a, R: Scalar + DeviceWord> {
    /// Grid geometry.
    pub geom: GridGeometry<R>,
    /// Flat box index processed by each block (non-empty voxels only).
    pub voxel_ids: &'a DeviceBuffer<u32>,
    /// Agent columns.
    pub agents: AgentCols<'a, R>,
    /// The grid.
    pub chains: ChainGrid<'a>,
    /// Output displacements.
    pub out: DispCols<'a, R>,
    /// Tile capacity in entries.
    pub tile_cap: usize,
    /// Interaction parameters.
    pub params: MechParams<R>,
}

impl<R: Scalar + DeviceWord + FromWord> Kernel for SharedMechKernel<'_, R> {
    fn phases(&self) -> usize {
        2
    }

    /// The tile is the block's shared memory and its cursor a shared
    /// atomic; globally a block reads the agent columns and the grid and
    /// stores the displacements of its own voxel's agents.
    fn blocks_commute(&self) -> bool {
        true
    }

    fn thread(&self, phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let center_flat = ctx.ld(self.voxel_ids, tid.block as usize) as usize;
        let mut boxes = self
            .geom
            .neighbor_boxes_of(self.geom.coords_of(center_flat));
        ctx.iops(16);
        let t = tid.thread as usize;

        if phase == 0 {
            // Cooperative tile build: one thread per neighbor box.
            let Some(b) = boxes.nth(t) else {
                return; // boundary-check divergence (paper §VI)
            };
            self.chains.walk(ctx, b, |ctx, j| {
                let p = self.agents.position(ctx, j);
                let r = self.agents.radius(ctx, j);
                ctx.flops::<R>(1);
                let slot = ctx.sh_atomic_add_u32(0, 1) as usize;
                if slot < self.tile_cap {
                    let base = TILE_HEADER_WORDS + slot * WORDS_PER_ENTRY;
                    ctx.sh_st::<u32>(base, j as u32);
                    ctx.sh_st::<R>(base + 1, p.x);
                    ctx.sh_st::<R>(base + 2, p.y);
                    ctx.sh_st::<R>(base + 3, p.z);
                    ctx.sh_st::<R>(base + 4, r);
                } else {
                    ctx.sh_st::<u32>(1, 1); // overflow → phase 1 falls back
                }
            });
            return;
        }

        // ---- Phase 1: per-agent force over the tile ----
        let len = ctx.ld(self.chains.box_length, center_flat) as usize;
        if t >= len {
            return; // boundary-check divergence again
        }
        // Walk the center list to the t-th agent.
        let mut cur = ctx.ld(self.chains.box_start, center_flat);
        for _ in 0..t {
            cur = ctx.ld(self.chains.successors, cur as usize);
            ctx.iops(1);
        }
        let i = cur as usize;
        let a = Subject {
            i,
            p: self.agents.position(ctx, i),
            r: self.agents.radius(ctx, i),
        };
        let adh = self.agents.adherence(ctx, i);
        ctx.flops::<R>(1);

        let overflow = ctx.sh_ld::<u32>(1) != 0;
        let force = if !overflow {
            // The third candidate shape: entries staged in the tile
            // carry their own position and radius.
            let mut force = Vec3::zero();
            let count = (ctx.sh_ld::<u32>(0) as usize).min(self.tile_cap);
            for e in 0..count {
                let base = TILE_HEADER_WORDS + e * WORDS_PER_ENTRY;
                let id = ctx.sh_ld::<u32>(base);
                if id as usize == i {
                    continue;
                }
                let p2 = Vec3::new(
                    ctx.sh_ld::<R>(base + 1),
                    ctx.sh_ld::<R>(base + 2),
                    ctx.sh_ld::<R>(base + 3),
                );
                let r2 = ctx.sh_ld::<R>(base + 4);
                accumulate_candidate(ctx, a.p, a.r, p2, r2, &self.params, &mut force);
            }
            force
        } else {
            // Exactness fallback: global-memory walk, v0-style.
            a.chain_force(ctx, self.agents, self.chains, boxes, &self.params)
        };
        store_displacement(ctx, self.out, i, force, adh, &self.params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LaunchConfig;
    use crate::kernels::layout::testing::DeviceScene;
    use crate::kernels::mech::ForceKernel;
    use bdm_grid::UniformGrid;
    use bdm_math::{Aabb, SplitMix64};

    /// Run both the per-cell kernel and the shared-memory kernel on the
    /// same scene; displacements must agree (same math, same candidates).
    fn compare_kernels(tile_cap: usize) {
        let mut rng = SplitMix64::new(91);
        let n = 300;
        let extent = 8.0;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let box_len = 1.1;
        let host_grid = UniformGrid::build_serial(&xs, &ys, &zs, space, box_len);
        let geom = *host_grid.geometry();
        let params = MechParams::<f64>::default_params();

        let mut scene = DeviceScene::upload(geom, [&xs, &ys, &zs], 1.1, 0.01);
        scene.build_chains(64);

        // Reference: per-cell kernel.
        scene.dev.launch(
            &ForceKernel {
                n,
                geom,
                agents: scene.agents(),
                source: scene.chains(),
                out: scene.out(),
                params,
            },
            LaunchConfig::for_items(n, 64),
        );
        let [want, ..] = scene.download(&scene.disp);

        // Shared-memory kernel over non-empty voxels.
        let non_empty: Vec<u32> = (0..geom.num_boxes() as u32)
            .filter(|&flat| scene.box_length.read(flat as usize) > 0)
            .collect();
        let voxel_ids = scene.alloc.alloc::<u32>(non_empty.len());
        voxel_ids.upload(&non_empty);
        let shared_out = std::array::from_fn(|_| scene.alloc.alloc::<f64>(n));
        let k = SharedMechKernel {
            geom,
            voxel_ids: &voxel_ids,
            agents: scene.agents(),
            chains: scene.chains(),
            out: DispCols(&shared_out),
            tile_cap,
            params,
        };
        let r = scene.dev.launch(
            &k,
            LaunchConfig {
                grid_dim: non_empty.len() as u32,
                block_dim: 64,
                shared_words: shared_words_for(tile_cap),
            },
        );
        assert!(r.counters.barriers as usize >= non_empty.len());
        assert!(
            r.counters.atomic_serial_cycles > 0.0,
            "tile atomics must conflict"
        );

        let [got, ..] = scene.download(&shared_out);
        for i in 0..n {
            assert!(
                (want[i] - got[i]).abs() < 1e-9,
                "cell {i}: {} vs {}",
                want[i],
                got[i]
            );
        }
    }

    #[test]
    fn shared_kernel_matches_per_cell_kernel() {
        compare_kernels(512);
    }

    #[test]
    fn overflow_fallback_stays_exact() {
        // Tiny tile: guaranteed overflow in populated voxels; the global
        // fallback must keep the results identical.
        compare_kernels(2);
    }
}
