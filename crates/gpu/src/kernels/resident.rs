//! Kernels of the device-resident step loop.
//!
//! When agent state stays resident on the device across steps (see
//! `MechanicalPipeline::step_resident`), the displacement columns the
//! mechanical kernels produce are folded into the position columns *on
//! the device* instead of being shipped to the host and re-uploaded next
//! step. [`IntegrateKernel`] is that fold: `pos += disp`, one thread per
//! agent, three coalesced load/store pairs. It is the device twin of the
//! host-side `apply_displacements` (a plain add — the displacement
//! magnitude clamp already happened in `store_displacement`).
//! [`CompactKernel`] keeps the columns dense after host-side deaths
//! without re-uploading them.

use crate::engine::{Kernel, ThreadCtx, ThreadId};
use crate::kernels::layout::{AgentCols, DispCols};
use crate::mem::{DeviceBuffer, DeviceWord};
use bdm_math::Scalar;

/// `pos += disp` over the three SoA position columns.
pub struct IntegrateKernel<'a, R: Scalar + DeviceWord> {
    /// Number of agents.
    pub n: usize,
    /// Agent columns (positions updated in place).
    pub agents: AgentCols<'a, R>,
    /// Displacement columns (the mech kernels' output).
    pub disp: DispCols<'a, R>,
}

impl<R: Scalar + DeviceWord> Kernel for IntegrateKernel<'_, R> {
    /// A thread reads and writes its own agent's row only.
    fn blocks_commute(&self) -> bool {
        true
    }

    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let i = tid.global() as usize;
        if i >= self.n {
            return;
        }
        let moved: [R; 3] =
            std::array::from_fn(|k| ctx.ld(&self.agents.0[k], i) + ctx.ld(&self.disp.0[k], i));
        ctx.flops::<R>(3);
        for (col, v) in self.agents.0[..3].iter().zip(moved) {
            ctx.st(col, i, v);
        }
    }
}

/// On-device column compaction after host-side deaths.
///
/// `ResourceManager::remove` is a swap-remove — the freed slot is
/// back-filled from the tail — so a batch of deaths compacts the SoA
/// columns with a short list of `(dst, src)` row moves where every `src`
/// lies in the truncated tail. The host uploads only that move list
/// (charged by the pipeline); the five agent columns themselves never
/// cross the bus. Moves are disjoint by construction (distinct dsts,
/// srcs beyond the new length), so one thread per move needs no
/// synchronization.
pub struct CompactKernel<'a, R: Scalar + DeviceWord> {
    /// Number of `(dst, src)` move pairs.
    pub n_moves: usize,
    /// Move list: `moves[2k] = dst`, `moves[2k + 1] = src`.
    pub moves: &'a DeviceBuffer<u32>,
    /// Agent columns (rows moved in place).
    pub agents: AgentCols<'a, R>,
}

impl<R: Scalar + DeviceWord> Kernel for CompactKernel<'_, R> {
    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let k = tid.global() as usize;
        if k >= self.n_moves {
            return;
        }
        let dst = ctx.ld(self.moves, 2 * k) as usize;
        let src = ctx.ld(self.moves, 2 * k + 1) as usize;
        ctx.iops(4);
        for col in self.agents.0 {
            let v = ctx.ld(col, src);
            ctx.st(col, dst, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GpuDevice, LaunchConfig};
    use crate::mem::DeviceAllocator;
    use bdm_device::specs::SYSTEM_A;

    #[test]
    fn integrate_adds_displacements_in_place() {
        let n = 100;
        let mut alloc = DeviceAllocator::new();
        let cols = std::array::from_fn(|_| alloc.alloc::<f64>(n));
        let disp = std::array::from_fn(|_| alloc.alloc::<f64>(n));
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for col in &cols[..3] {
            col.upload(&xs);
        }
        for (col, d) in disp.iter().zip([0.5, -0.25, 0.0]) {
            col.fill(d);
        }
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let r = dev.launch(
            &IntegrateKernel {
                n,
                agents: AgentCols(&cols),
                disp: DispCols(&disp),
            },
            LaunchConfig::for_items(n, 128),
        );
        assert!(r.counters.flops_fp64 > 0.0);
        let mut out = vec![0.0; n];
        cols[0].download(&mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f64 + 0.5);
        }
        cols[1].download(&mut out);
        assert_eq!(out[3], 3.0 - 0.25);
        cols[2].download(&mut out);
        assert_eq!(out[7], 7.0);
    }
}
