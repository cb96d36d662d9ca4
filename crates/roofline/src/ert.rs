//! Empirical Roofline Tool (ERT) for the simulated device.
//!
//! Mirrors the methodology of Yang et al. (the ERT paper the authors use,
//! §V): run a family of streaming microkernels whose arithmetic intensity
//! is controlled by the number of FMAs performed per element, measure the
//! achieved GFLOP/s of each, and read the machine's empirical ceilings off
//! the envelope — bandwidth from the intensity-starved end, compute from
//! the intensity-rich end.

use bdm_device::specs::GpuSpec;
use bdm_gpu::engine::{GpuDevice, Kernel, LaunchConfig, ThreadCtx, ThreadId};
use bdm_gpu::mem::{DeviceAllocator, DeviceBuffer, DeviceWord};
use bdm_math::Scalar;

/// Streaming microkernel: load an element, apply `fma_per_elem` chained
/// FMAs, store it back. AI = 2·fma / (2·element bytes).
struct ErtKernel<'a, R: Scalar + DeviceWord> {
    n: usize,
    fma_per_elem: u32,
    data: &'a DeviceBuffer<R>,
}

impl<R: Scalar + DeviceWord> Kernel for ErtKernel<'_, R> {
    /// A thread reads and writes its own element only.
    fn blocks_commute(&self) -> bool {
        true
    }

    fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
        let i = tid.global() as usize;
        if i >= self.n {
            return;
        }
        let mut v = ctx.ld(self.data, i);
        let a = R::from_f64(1.000_000_1);
        let b = R::from_f64(1e-9);
        for _ in 0..self.fma_per_elem {
            v = v * a + b;
        }
        ctx.flops::<R>(2 * self.fma_per_elem);
        ctx.st(self.data, i, v);
    }
}

/// One microkernel measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErtResult {
    /// FMAs per element of the microkernel.
    pub fma_per_elem: u32,
    /// Arithmetic intensity in FLOPs per DRAM byte.
    pub arithmetic_intensity: f64,
    /// Achieved GFLOP/s on the simulated device.
    pub gflops: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

/// The full sweep and its extracted ceilings.
#[derive(Debug, Clone)]
pub struct ErtSweep {
    /// Per-microkernel results, in increasing intensity.
    pub results: Vec<ErtResult>,
    /// Empirical bandwidth ceiling (bytes/s).
    pub empirical_bandwidth: f64,
    /// Empirical compute ceiling (FLOP/s) at the tested precision.
    pub empirical_flops: f64,
}

impl ErtSweep {
    /// Run the sweep at precision `R` on a device spec.
    ///
    /// `elems` controls the working set; it should exceed the L2 so the
    /// streaming end is genuinely DRAM-bound (the default benchmark uses
    /// 4 Mi elements ≥ 16 MiB ≥ any Table I L2).
    pub fn run<R: Scalar + DeviceWord>(spec: GpuSpec, elems: usize) -> Self {
        let device = GpuDevice::with_trace_sampling(spec, 64);
        let mut alloc = DeviceAllocator::new();
        let data = alloc.alloc::<R>(elems);
        let mut results = Vec::new();
        let mut empirical_bandwidth = 0.0f64;
        let mut empirical_flops = 0.0f64;
        for fma in [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            device.reset_l2();
            let k = ErtKernel {
                n: elems,
                fma_per_elem: fma,
                data: &data,
            };
            let r = device.launch(&k, LaunchConfig::for_items(elems, 256));
            let flops = r.counters.total_flops();
            let dram = r.counters.dram_bytes();
            let ai = flops / dram;
            // ERT measures amortized steady state (many trials after a
            // warm-up), so the fixed launch overhead is excluded — the
            // same reason the paper warms the GPU for five iterations
            // before recording timings (§V).
            let body_s = (r.timing.total_s - r.timing.overhead_s).max(1e-12);
            let gflops = flops / body_s / 1e9;
            let bw = dram / body_s;
            empirical_bandwidth = empirical_bandwidth.max(bw);
            empirical_flops = empirical_flops.max(flops / body_s);
            results.push(ErtResult {
                fma_per_elem: fma,
                arithmetic_intensity: ai,
                gflops,
                bandwidth_gbs: bw / 1e9,
            });
        }
        Self {
            results,
            empirical_bandwidth,
            empirical_flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_device::specs::{SYSTEM_A, SYSTEM_B};

    fn sweep_a() -> ErtSweep {
        // Modest working set keeps the test fast but still ≥ L2.
        ErtSweep::run::<f32>(SYSTEM_A.gpu, 1 << 20)
    }

    #[test]
    fn ert_recovers_bandwidth_ceiling() {
        let s = sweep_a();
        let rel = s.empirical_bandwidth / SYSTEM_A.gpu.dram_bandwidth;
        assert!(
            (0.8..=1.01).contains(&rel),
            "empirical bandwidth {:.1} GB/s vs spec {:.1} GB/s",
            s.empirical_bandwidth / 1e9,
            SYSTEM_A.gpu.dram_bandwidth / 1e9
        );
    }

    #[test]
    fn ert_recovers_compute_ceiling() {
        let s = sweep_a();
        let rel = s.empirical_flops / SYSTEM_A.gpu.fp32_flops;
        assert!(
            (0.8..=1.01).contains(&rel),
            "empirical {:.2} TFLOPS vs spec {:.2} TFLOPS",
            s.empirical_flops / 1e12,
            SYSTEM_A.gpu.fp32_flops / 1e12
        );
    }

    #[test]
    fn intensity_increases_monotonically() {
        let s = sweep_a();
        for w in s.results.windows(2) {
            assert!(w[1].arithmetic_intensity > w[0].arithmetic_intensity);
        }
    }

    #[test]
    fn fp64_ceiling_reflects_ratio_on_consumer_card() {
        let s32 = ErtSweep::run::<f32>(SYSTEM_A.gpu, 1 << 18);
        let s64 = ErtSweep::run::<f64>(SYSTEM_A.gpu, 1 << 18);
        let ratio = s32.empirical_flops / s64.empirical_flops;
        // The 1080 Ti's FP64 units are 1/32 of FP32.
        assert!(ratio > 16.0, "fp32/fp64 ceiling ratio {ratio}");
    }

    #[test]
    fn v100_fp64_is_half_of_fp32() {
        let s32 = ErtSweep::run::<f32>(SYSTEM_B.gpu, 1 << 18);
        let s64 = ErtSweep::run::<f64>(SYSTEM_B.gpu, 1 << 18);
        let ratio = s32.empirical_flops / s64.empirical_flops;
        assert!((1.5..=3.0).contains(&ratio), "ratio {ratio}");
    }
}
