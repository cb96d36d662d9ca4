//! Kernel timing model: counters → seconds on a [`GpuSpec`].
//!
//! The model is roofline-consistent: a kernel's execution time is the
//! maximum of its compute time and its memory time (latency is hidden by
//! occupancy on a well-launched kernel, which all the paper's kernels
//! are), plus fixed launch overhead:
//!
//! * **compute** — warp issue cycles (divergence-inclusive max over
//!   lanes, plus memory issue and atomic serialization) over the device's
//!   aggregate warp issue rate;
//! * **memory** — DRAM bytes over DRAM bandwidth, and L2 bytes over L2
//!   bandwidth (≈3× DRAM on these parts), whichever is slower.
//!
//! The FP32/FP64 asymmetry enters through the issue-cycle weights the
//! engine applied per lane (FP64 ops cost `fp64_ratio()` more), so the
//! 1080 Ti's 1:32 ratio — and the paper's ≈2× Improvement I on a
//! memory-bound kernel — falls out without special cases.

use crate::counters::KernelCounters;
use bdm_device::specs::GpuSpec;

/// L2-to-DRAM bandwidth ratio assumed by the model (Pascal and Volta L2
/// bandwidths sit at ≈4–5× their DRAM bandwidth).
const L2_BANDWIDTH_FACTOR: f64 = 4.5;
/// Cycles per block-barrier (cheap; blocks barrier independently).
const BARRIER_CYCLES: f64 = 32.0;
/// Seconds of overhead per dynamic-parallelism child launch (amortized
/// across SMs because children launch concurrently).
const CHILD_LAUNCH_OVERHEAD_S: f64 = 2e-6;
/// Warps per SM needed to hide memory latency; below this, execution
/// slows proportionally (classic occupancy rule of thumb).
const LATENCY_HIDING_WARPS: f64 = 4.0;

/// What bound a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBound {
    /// Issue/arithmetic limited.
    Compute,
    /// DRAM- or L2-bandwidth limited.
    Memory,
}

/// Modeled timing of one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Compute-side seconds (issue cycles over aggregate issue rate).
    pub compute_s: f64,
    /// Memory-side seconds (traffic over bandwidth).
    pub memory_s: f64,
    /// Fixed overheads (launch + child launches + barriers).
    pub overhead_s: f64,
    /// Total modeled seconds: `max(compute, memory) + overhead`.
    pub total_s: f64,
    /// The binding side.
    pub bound: KernelBound,
}

impl KernelTiming {
    /// Apply the model to a launch's counters.
    pub fn model(c: &KernelCounters, spec: &GpuSpec) -> Self {
        // Aggregate warp issue rate: warps of FP32 the device retires per
        // second. `fp32_lanes()` counts FMA lanes; 32 lanes = 1 warp slot.
        let warp_slots = spec.fp32_lanes() / spec.warp_size as f64;
        let issue_rate = warp_slots * spec.clock_hz; // warp-cycles / second
        let issue_cycles = c.compute_warp_cycles + c.atomic_serial_cycles;
        let compute_s = issue_cycles / issue_rate;

        let dram_s = c.dram_bytes() / spec.dram_bandwidth;
        let l2_s = c.l2_bytes() / (spec.dram_bandwidth * L2_BANDWIDTH_FACTOR);
        let memory_s = dram_s.max(l2_s);

        let overhead_s = spec.launch_overhead_s
            + c.child_launches as f64 * CHILD_LAUNCH_OVERHEAD_S / spec.sm_count as f64
            + c.barriers as f64 * BARRIER_CYCLES / (spec.sm_count as f64 * spec.clock_hz);

        let (body, bound) = if compute_s >= memory_s {
            (compute_s, KernelBound::Compute)
        } else {
            (memory_s, KernelBound::Memory)
        };
        // Occupancy penalty: a launch with too few resident warps per SM
        // cannot hide memory latency, stretching the whole body.
        let occ = c.occupancy_warps_per_sm;
        let penalty = if occ > 0.0 {
            (LATENCY_HIDING_WARPS / occ).max(1.0)
        } else {
            1.0
        };
        Self {
            compute_s,
            memory_s,
            overhead_s,
            total_s: body * penalty + overhead_s,
            bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_device::specs::{SYSTEM_A, SYSTEM_B};

    fn base_counters() -> KernelCounters {
        KernelCounters {
            warps_run: 1000,
            warps_traced: 1000,
            ..Default::default()
        }
    }

    #[test]
    fn pure_compute_kernel_hits_peak() {
        // A kernel that is nothing but perfectly packed FP32 FMAs:
        // N warp-cycles at 2 FLOPs × 32 lanes each.
        let mut c = base_counters();
        let warp_cycles = 1e6;
        c.compute_warp_cycles = warp_cycles;
        c.flops_fp32 = warp_cycles * 32.0 * 2.0;
        let t = KernelTiming::model(&c, &SYSTEM_A.gpu);
        let achieved = c.flops_fp32 / t.compute_s;
        let rel = achieved / SYSTEM_A.gpu.fp32_flops;
        assert!((rel - 1.0).abs() < 1e-9, "rel {rel}");
        assert_eq!(t.bound, KernelBound::Compute);
    }

    #[test]
    fn pure_streaming_kernel_hits_bandwidth() {
        let mut c = base_counters();
        c.l2_misses = 1e6; // 128 MB of DRAM traffic
        c.global_transactions = 1e6;
        let t = KernelTiming::model(&c, &SYSTEM_B.gpu);
        let achieved_bw = c.dram_bytes() / t.memory_s;
        assert!(
            (achieved_bw - SYSTEM_B.gpu.dram_bandwidth).abs() / SYSTEM_B.gpu.dram_bandwidth < 1e-9
        );
        assert_eq!(t.bound, KernelBound::Memory);
    }

    #[test]
    fn l2_bound_when_hits_dominate() {
        let mut c = base_counters();
        c.global_transactions = 1e6;
        c.l2_hits = 999_000.0;
        c.l2_misses = 1_000.0;
        let t = KernelTiming::model(&c, &SYSTEM_B.gpu);
        // l2_s = 128 MB / (3 × 900 GB/s) ≫ dram_s = 0.128 MB / 900 GB/s.
        assert!(t.memory_s > c.dram_bytes() / SYSTEM_B.gpu.dram_bandwidth);
    }

    #[test]
    fn overhead_includes_launch() {
        let c = base_counters();
        let t = KernelTiming::model(&c, &SYSTEM_A.gpu);
        assert!(t.overhead_s >= SYSTEM_A.gpu.launch_overhead_s);
        assert_eq!(t.total_s, t.compute_s.max(t.memory_s) + t.overhead_s);
    }

    #[test]
    fn atomic_serialization_inflates_compute() {
        let mut c = base_counters();
        c.compute_warp_cycles = 1e5;
        let t0 = KernelTiming::model(&c, &SYSTEM_A.gpu);
        c.atomic_serial_cycles = 1e5;
        let t1 = KernelTiming::model(&c, &SYSTEM_A.gpu);
        assert!((t1.compute_s / t0.compute_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn child_launches_charge_overhead() {
        let mut c = base_counters();
        c.child_launches = 1000;
        let t = KernelTiming::model(&c, &SYSTEM_A.gpu);
        let expected = 1000.0 * CHILD_LAUNCH_OVERHEAD_S / SYSTEM_A.gpu.sm_count as f64;
        assert!(t.overhead_s >= expected);
    }
}
