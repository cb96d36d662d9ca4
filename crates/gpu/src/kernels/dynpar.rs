//! Dynamic parallelism — the paper's future-work experiment (§VI).
//!
//! "The GPU kernel parallelizes the mechanical interaction computation for
//! all agents, but the loop over all neighboring agents is serial.
//! Consequently, this becomes the bottleneck for models with a high
//! neighborhood density. … We hypothesize that parallelizing the serial
//! loop over the neighborhood alleviates the bottleneck."
//!
//! The reproduction emulates CUDA dynamic parallelism with the standard
//! work-redistribution pattern (identical performance semantics, simpler
//! to reason about): a parent kernel handles low-degree cells inline and
//! enqueues high-degree cells; a child launch then processes the queued
//! cells at *one thread per (cell, neighbor-voxel)* — 27 balanced lanes
//! per heavy cell instead of one long serial loop — writing partial
//! forces to a scratch buffer; a finish kernel reduces the partials and
//! converts forces to displacements.
//! Each enqueued cell charges a child-launch overhead through
//! [`ThreadCtx::launch_child`].

use crate::engine::{Kernel, ThreadCtx, ThreadId};
use crate::kernels::layout::{AgentCols, ChainGrid, DispCols};
use crate::kernels::mech::{store_displacement, Subject};
use crate::mem::{DeviceBuffer, DeviceWord};
use bdm_grid::GridGeometry;
use bdm_math::interaction::MechParams;
use bdm_math::{Scalar, Vec3};

/// Parent kernel: inline below the threshold, enqueue above it.
pub struct ParentKernel<'a, R: Scalar + DeviceWord> {
    /// Number of cells.
    pub n: usize,
    /// Grid geometry.
    pub geom: GridGeometry<R>,
    /// Agent columns.
    pub agents: AgentCols<'a, R>,
    /// The grid (voxel populations give the cheap candidate count).
    pub chains: ChainGrid<'a>,
    /// Output displacements.
    pub out: DispCols<'a, R>,
    /// Queue of heavy-cell ids.
    pub queue: &'a DeviceBuffer<u32>,
    /// Queue cursor (single element, pre-zeroed).
    pub queue_count: &'a DeviceBuffer<u32>,
    /// Candidate-count threshold above which a cell defers to a child.
    pub threshold: u32,
    /// Interaction parameters.
    pub params: MechParams<R>,
}

impl<R: Scalar + DeviceWord> Kernel for ParentKernel<'_, R> {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let i = tid.global() as usize;
        if i >= self.n {
            return;
        }
        let p = self.agents.position(ctx, i);
        ctx.iops(12);
        let boxes = self.geom.neighbor_boxes_of(self.geom.box_coords(p));
        // Cheap candidate count via voxel populations.
        let mut count = 0u32;
        for b in boxes.clone() {
            count += ctx.ld(self.chains.box_length, b);
            ctx.iops(1);
        }
        if count > self.threshold {
            ctx.launch_child();
            let q = ctx.atomic_add(self.queue_count, 0, 1) as usize;
            ctx.st(self.queue, q, i as u32);
            return;
        }
        // Inline path: the fused kernel's walk over the voxels above.
        let r = self.agents.radius(ctx, i);
        let a = Subject { i, p, r };
        let adh = self.agents.adherence(ctx, i);
        ctx.flops::<R>(1);
        let force = a.chain_force(ctx, self.agents, self.chains, boxes, &self.params);
        store_displacement(ctx, self.out, i, force, adh, &self.params);
    }
}

/// Child kernel: one thread per (queued cell, neighbor voxel).
///
/// Partial forces go to a per-work-item scratch buffer — a two-pass
/// reduction, not atomics: 27 children of one cell would otherwise
/// conflict on the same accumulator inside a single warp and serialize,
/// which is exactly the pathology the shared-memory kernel (version III)
/// suffers from.
pub struct ChildKernel<'a, R: Scalar + DeviceWord> {
    /// Number of queued cells.
    pub queue_len: usize,
    /// Grid geometry.
    pub geom: GridGeometry<R>,
    /// Agent columns.
    pub agents: AgentCols<'a, R>,
    /// The grid.
    pub chains: ChainGrid<'a>,
    /// Queue of heavy-cell ids.
    pub queue: &'a DeviceBuffer<u32>,
    /// Per-(cell, voxel) partial forces: `partials[(w*3)..(w*3+3)]`
    /// for work item `w` (pre-zeroed; size `queue_len * 27 * 3`).
    pub partials: &'a DeviceBuffer<R>,
    /// Interaction parameters.
    pub params: MechParams<R>,
}

impl<R: Scalar + DeviceWord> Kernel for ChildKernel<'_, R> {
    /// A work item reads the queue, the agents and the grid, which the
    /// launch does not write, and stores its own three partials.
    fn blocks_commute(&self) -> bool {
        true
    }

    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let w = tid.global() as usize;
        if w >= self.queue_len * 27 {
            return;
        }
        let cell = ctx.ld(self.queue, w / 27) as usize;
        let a = Subject {
            i: cell,
            p: self.agents.position(ctx, cell),
            r: self.agents.radius(ctx, cell),
        };
        ctx.flops::<R>(1);
        ctx.iops(14);
        let mut boxes = self.geom.neighbor_boxes_of(self.geom.box_coords(a.p));
        let Some(b) = boxes.nth(w % 27) else {
            return; // edge voxels have fewer than 27 neighbor boxes
        };
        let force = a.chain_force(ctx, self.agents, self.chains, [b], &self.params);
        // Coalesced scatter: work item w owns partials[3w..3w+3].
        if force != Vec3::zero() {
            ctx.st(self.partials, 3 * w, force.x);
            ctx.st(self.partials, 3 * w + 1, force.y);
            ctx.st(self.partials, 3 * w + 2, force.z);
        }
    }
}

/// Finish kernel: per queued cell, reduce the 27 partial forces and
/// convert to a displacement.
pub struct FinishKernel<'a, R: Scalar + DeviceWord> {
    /// Number of queued cells.
    pub queue_len: usize,
    /// Queue of heavy-cell ids.
    pub queue: &'a DeviceBuffer<u32>,
    /// Per-(cell, voxel) partial forces from the child launch.
    pub partials: &'a DeviceBuffer<R>,
    /// Agent columns (adherence only).
    pub agents: AgentCols<'a, R>,
    /// Output displacements.
    pub out: DispCols<'a, R>,
    /// Interaction parameters.
    pub params: MechParams<R>,
}

impl<R: Scalar + DeviceWord> Kernel for FinishKernel<'_, R> {
    /// A thread reads the partials the child launch wrote and stores the
    /// displacement of its own queued cell (each is queued once).
    fn blocks_commute(&self) -> bool {
        true
    }

    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let k = tid.global() as usize;
        if k >= self.queue_len {
            return;
        }
        let cell = ctx.ld(self.queue, k) as usize;
        let mut force = Vec3::zero();
        for rank in 0..27 {
            ctx.begin_slot();
            let base = 3 * (k * 27 + rank);
            force += Vec3::new(
                ctx.ld(self.partials, base),
                ctx.ld(self.partials, base + 1),
                ctx.ld(self.partials, base + 2),
            );
            ctx.flops::<R>(3);
        }
        let adh = self.agents.adherence(ctx, cell);
        store_displacement(ctx, self.out, cell, force, adh, &self.params);
    }
}
