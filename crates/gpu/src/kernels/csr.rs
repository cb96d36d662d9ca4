//! CSR counting-sort grid kernels — GPU version IV (post-paper).
//!
//! The paper's device grid (Fig. 5 ported to the GPU) threads a linked
//! list through the agents: every candidate visit in the mechanical
//! kernel chases a `successors` pointer, a dependent random access the
//! coalescer can do nothing with. Version IV replaces the lists with the
//! CSR layout the CPU path gained in `bdm_grid::CsrGrid`:
//!
//! 1. [`CsrCountKernel`] — one thread per agent: histogram voxel
//!    populations (`atomicAdd`);
//! 2. host-side exclusive prefix sum of the counts (a grid-wide
//!    dependency — per-block barriers cannot order it, so the pipeline
//!    reads the counts back and pays the PCIe round trip, exactly like
//!    version III pays for its occupancy readback);
//! 3. [`CsrScatterKernel`] — one thread per agent: reserve a slot in the
//!    agent's voxel segment (`atomicAdd` on a cursor pre-loaded with the
//!    scanned offsets) and store the agent id into the contiguous
//!    `cell_agents` array. Once every agent is placed, `cursor[v]` has
//!    advanced to the *end* offset of voxel `v` — the cursor becomes the
//!    CSR bounds array ([`CsrCells::cell_ends`]) for free, no second
//!    upload;
//! 4. the [`ForceKernel`](super::mech::ForceKernel) over [`CsrCells`]
//!    streams `cell_agents` slices instead of chasing pointers. The
//!    27-voxel stencil collapses to ≤ 9 x-runs
//!    ([`GridGeometry::x_runs_of`]): two boundary loads per run (≤ 18
//!    total, vs 27 list heads), then a sequential walk whose loads from
//!    adjacent lanes land in the same 128-byte segments.
//!
//! The build costs one extra kernel launch and the scan round trip; the
//! force kernel — where the step's memory traffic lives — gets strictly
//! streaming candidate fetches in exchange.

use crate::engine::{Kernel, ThreadCtx, ThreadId};
use crate::kernels::layout::{AgentCols, CsrCells};
use crate::kernels::mech::CandidateSource;
use crate::mem::{DeviceBuffer, DeviceWord};
use bdm_grid::GridGeometry;
use bdm_math::Scalar;

/// Pass 1: per-voxel population histogram.
pub struct CsrCountKernel<'a, R: Scalar + DeviceWord> {
    /// Number of agents.
    pub n: usize,
    /// Grid geometry.
    pub geom: GridGeometry<R>,
    /// Agent columns (positions only).
    pub agents: AgentCols<'a, R>,
    /// Per-voxel population (pre-zeroed).
    pub counts: &'a DeviceBuffer<u32>,
}

impl<R: Scalar + DeviceWord> Kernel for CsrCountKernel<'_, R> {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let i = tid.global() as usize;
        if i >= self.n {
            return;
        }
        let b = self.agents.voxel_of(ctx, &self.geom, i);
        ctx.atomic_add(self.counts, b, 1);
    }
}

/// Pass 2: scatter agent ids into the contiguous `cell_agents` array.
///
/// Recomputes the voxel index from the (L2-warm) position columns rather
/// than staging it in a per-agent side array — the index math is a dozen
/// integer ops against three coalesced loads, cheaper than a cold
/// store/load round trip through an extra `n`-word buffer.
pub struct CsrScatterKernel<'a, R: Scalar + DeviceWord> {
    /// Number of agents.
    pub n: usize,
    /// Grid geometry.
    pub geom: GridGeometry<R>,
    /// Agent columns (positions only).
    pub agents: AgentCols<'a, R>,
    /// The grid to fill; `cell_ends` arrives holding the exclusive-scan
    /// *start* offsets and serves as the per-voxel write cursor.
    pub cells: CsrCells<'a>,
}

impl<R: Scalar + DeviceWord> Kernel for CsrScatterKernel<'_, R> {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let i = tid.global() as usize;
        if i >= self.n {
            return;
        }
        let v = self.agents.voxel_of(ctx, &self.geom, i);
        let slot = ctx.atomic_add(self.cells.cell_ends, v, 1) as usize;
        ctx.iops(2);
        ctx.st(self.cells.cell_agents, slot, i as u32);
    }
}

/// CSR slices over ≤ 9 x-runs: two boundary loads per run, then a
/// sequential stream of agent ids.
impl CandidateSource for CsrCells<'_> {
    #[inline(always)]
    fn for_each_candidate<R: Scalar>(
        &self,
        ctx: &mut ThreadCtx<'_>,
        geom: &GridGeometry<R>,
        c: [u32; 3],
        mut visit: impl FnMut(&mut ThreadCtx<'_>, usize),
    ) {
        for (first, len) in geom.x_runs_of(c) {
            ctx.iops(2);
            let lo = if first == 0 {
                0
            } else {
                ctx.ld(self.cell_ends, first - 1) as usize
            };
            let hi = ctx.ld(self.cell_ends, first + len as usize - 1) as usize;
            for k in lo..hi {
                ctx.begin_slot();
                let j = ctx.ld(self.cell_agents, k) as usize;
                ctx.iops(1);
                visit(ctx, j);
            }
        }
    }
}

/// Host-side exclusive prefix sum of the downloaded counts — the scan
/// between the two build passes. Returns `counts.len() + 1` offsets.
pub fn exclusive_scan(counts: &[u32]) -> Vec<u32> {
    let mut starts = Vec::new();
    exclusive_scan_into(counts, &mut starts);
    starts
}

/// [`exclusive_scan`] into a caller-owned buffer, so the per-step scan of
/// a pipeline that keeps its scratch resident allocates nothing in steady
/// state.
pub fn exclusive_scan_into(counts: &[u32], starts: &mut Vec<u32>) {
    starts.clear();
    starts.reserve(counts.len() + 1);
    let mut acc = 0u32;
    starts.push(0);
    for &c in counts {
        acc += c;
        starts.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LaunchConfig;
    use crate::kernels::layout::testing::DeviceScene;
    use crate::kernels::mech::ForceKernel;
    use bdm_grid::CsrGrid;
    use bdm_math::interaction::{self, MechParams};
    use bdm_math::{Aabb, SplitMix64, Vec3};

    type SceneCols = (Vec<f64>, Vec<f64>, Vec<f64>);

    fn scene(n: usize, extent: f64, seed: u64) -> SceneCols {
        let mut rng = SplitMix64::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        (xs, ys, zs)
    }

    /// The two-pass device build + host scan reproduces the host
    /// `CsrGrid` voxel-for-voxel (as sets — the device scatter order
    /// within a voxel depends on atomic arrival order, not stability),
    /// and the cursor finishes as the end-offset array.
    #[test]
    fn device_csr_build_matches_host_csr() {
        let n = 500;
        let extent = 9.0;
        let (xs, ys, zs) = scene(n, extent, 11);
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let host = CsrGrid::build_serial(&xs, &ys, &zs, space, 1.1);

        let geom = *host.geometry();
        let num_boxes = geom.num_boxes();
        let mut dev = DeviceScene::upload(geom, [&xs, &ys, &zs], 1.0, 0.01);
        let counts = dev.alloc.alloc::<u32>(num_boxes);
        let cursor = dev.alloc.alloc::<u32>(num_boxes);
        let cell_agents = dev.alloc.alloc::<u32>(n);

        dev.dev.launch(
            &CsrCountKernel {
                n,
                geom,
                agents: dev.agents(),
                counts: &counts,
            },
            LaunchConfig::for_items(n, 128),
        );
        let mut host_counts = vec![0u32; num_boxes];
        counts.download(&mut host_counts);
        let starts = exclusive_scan(&host_counts);
        cursor.upload(&starts[..num_boxes]);
        dev.dev.launch(
            &CsrScatterKernel {
                n,
                geom,
                agents: dev.agents(),
                cells: CsrCells {
                    cell_ends: &cursor,
                    cell_agents: &cell_agents,
                },
            },
            LaunchConfig::for_items(n, 128),
        );

        assert_eq!(starts, host.cell_starts());
        // The exhausted cursor is the end-offset array the force kernel
        // reads.
        let mut ends = vec![0u32; num_boxes];
        cursor.download(&mut ends);
        assert_eq!(ends, &host.cell_starts()[1..]);

        let mut got = vec![0u32; n];
        cell_agents.download(&mut got);
        for b in 0..num_boxes {
            let (lo, hi) = (starts[b] as usize, starts[b + 1] as usize);
            let mut dev_ids: Vec<u32> = got[lo..hi].to_vec();
            dev_ids.sort_unstable();
            let mut host_ids: Vec<u32> = host.cell_range(b).iter().map(|id| id.0).collect();
            host_ids.sort_unstable();
            assert_eq!(dev_ids, host_ids, "voxel {b}");
        }
    }

    /// The CSR force kernel reproduces a direct host computation.
    #[test]
    fn csr_forces_match_host_reference() {
        let n = 400;
        let extent = 10.0;
        let radius = 0.6;
        let (xs, ys, zs) = scene(n, extent, 33);
        let adh = 0.01;
        let params = MechParams::<f64>::default_params();
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let box_len = 2.0 * radius;
        let host = CsrGrid::build_serial(&xs, &ys, &zs, space, box_len);
        let geom = *host.geometry();

        let mut dev = DeviceScene::upload(geom, [&xs, &ys, &zs], 2.0 * radius, adh);
        // CSR uploaded directly from the host grid — the build kernels
        // have their own test above.
        let cell_ends = dev.alloc.alloc::<u32>(geom.num_boxes());
        let cell_agents = dev.alloc.alloc::<u32>(n);
        cell_ends.upload(&host.cell_starts()[1..]);
        let ids: Vec<u32> = host.cell_agents().iter().map(|id| id.0).collect();
        cell_agents.upload(&ids);

        let r = dev.dev.launch(
            &ForceKernel {
                n,
                geom,
                agents: dev.agents(),
                source: CsrCells {
                    cell_ends: &cell_ends,
                    cell_agents: &cell_agents,
                },
                out: dev.out(),
                params,
            },
            LaunchConfig::for_items(n, 128),
        );
        assert!(r.counters.flops_fp64 > 0.0);
        let [got_x, got_y, got_z] = dev.download(&dev.disp);

        for i in 0..n {
            let p1 = Vec3::new(xs[i], ys[i], zs[i]);
            let mut force = Vec3::zero();
            let mut ids = Vec::new();
            host.radius_search(
                &xs,
                &ys,
                &zs,
                p1,
                box_len,
                Some(bdm_soa::AgentId(i as u32)),
                &mut ids,
            );
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
                (disp.x - got_x[i]).abs() < 1e-9
                    && (disp.y - got_y[i]).abs() < 1e-9
                    && (disp.z - got_z[i]).abs() < 1e-9,
                "cell {i}: host {disp:?} vs device ({}, {}, {})",
                got_x[i],
                got_y[i],
                got_z[i]
            );
        }
    }

    #[test]
    fn exclusive_scan_offsets() {
        assert_eq!(exclusive_scan(&[]), vec![0]);
        assert_eq!(exclusive_scan(&[3, 0, 2]), vec![0, 3, 3, 5]);
    }
}
