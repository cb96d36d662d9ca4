//! Analytic multicore CPU timing model.
//!
//! This environment has two processors, so the paper's 4–64-thread
//! sweeps cannot be wall-clocked (the one step that can, 1 → 2 workers,
//! is the benchmark harness's `par.serial_over_parallel`).
//! Instead, each CPU-side operation of the simulation is *executed for
//! real* (so its algorithmic work counters — FLOPs, bytes touched, random
//! accesses — are genuine) and its runtime on the Table I Xeons is then
//! *modeled* from those counters.
//!
//! The model is a three-term roofline: a phase's time at `T` threads is
//! the maximum of
//!
//! * a **compute term** — FLOPs over the sustained multicore FP rate,
//! * a **bandwidth term** — bytes over the NUMA-aware aggregate bandwidth,
//! * a **latency term** — dependent random accesses over the aggregate
//!   memory-level parallelism,
//!
//! plus a per-phase parallel-runtime overhead. Phases marked serial run at
//! `T = 1` regardless (the kd-tree build is the canonical example — its
//! serial construction is why the uniform grid wins at 20 threads, §VI).

use crate::specs::CpuSpec;

/// Work performed by one operation phase, as measured by actually running
/// the algorithm and accumulating its counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Human-readable name ("kd build", "force", …) used in reports.
    pub name: &'static str,
    /// Floating-point operations executed.
    pub flops: f64,
    /// Bytes moved to/from memory with streaming-friendly access.
    pub bytes: f64,
    /// Dependent random accesses (pointer chases: tree-node hops,
    /// successor-list hops) that cannot be prefetched.
    pub random_accesses: f64,
    /// Whether the phase parallelizes across threads.
    pub parallel: bool,
    /// `true` when the FLOPs are double precision.
    pub fp64: bool,
}

impl Phase {
    /// A fully-parallel FP64 phase (the common case).
    pub fn parallel_fp64(name: &'static str, flops: f64, bytes: f64, random: f64) -> Self {
        Self {
            name,
            flops,
            bytes,
            random_accesses: random,
            parallel: true,
            fp64: true,
        }
    }

    /// A serial FP64 phase (e.g. kd-tree construction).
    pub fn serial_fp64(name: &'static str, flops: f64, bytes: f64, random: f64) -> Self {
        Self {
            parallel: false,
            ..Self::parallel_fp64(name, flops, bytes, random)
        }
    }
}

/// Per-phase modeled time, with the binding constraint identified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTime {
    /// Phase name (copied through for reports).
    pub name: &'static str,
    /// Modeled seconds.
    pub seconds: f64,
    /// Which roofline term bound the phase.
    pub bound_by: Bound,
}

/// The binding constraint of a modeled phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Limited by FP throughput.
    Compute,
    /// Limited by memory bandwidth.
    Bandwidth,
    /// Limited by dependent-access latency.
    Latency,
}

/// The CPU timing model for one spec.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// The processor being modeled.
    pub spec: CpuSpec,
    /// Fixed parallel-region overhead per phase per step (thread wake-up,
    /// barrier; ~5 µs is typical of OpenMP/rayon pools).
    pub fork_join_overhead_s: f64,
}

impl CpuModel {
    /// Model with default overheads.
    pub fn new(spec: CpuSpec) -> Self {
        Self {
            spec,
            fork_join_overhead_s: 5e-6,
        }
    }

    /// Time one phase at `threads` threads.
    pub fn phase_time(&self, phase: &Phase, threads: u32) -> PhaseTime {
        let t = if phase.parallel { threads.max(1) } else { 1 };
        let compute = phase.flops / self.spec.sustained_flops(t, phase.fp64);
        let bandwidth = phase.bytes / self.spec.bandwidth(t);
        let latency = phase.random_accesses / self.spec.random_access_rate(t);
        let (seconds, bound_by) = if compute >= bandwidth && compute >= latency {
            (compute, Bound::Compute)
        } else if bandwidth >= latency {
            (bandwidth, Bound::Bandwidth)
        } else {
            (latency, Bound::Latency)
        };
        let overhead = if phase.parallel && threads > 1 {
            self.fork_join_overhead_s
        } else {
            0.0
        };
        PhaseTime {
            name: phase.name,
            seconds: seconds + overhead,
            bound_by,
        }
    }

    /// Total modeled time of a sequence of phases (phases execute one
    /// after another within a simulation step).
    pub fn total_time(&self, phases: &[Phase], threads: u32) -> f64 {
        phases
            .iter()
            .map(|p| self.phase_time(p, threads).seconds)
            .sum()
    }

    /// Per-phase breakdown.
    pub fn breakdown(&self, phases: &[Phase], threads: u32) -> Vec<PhaseTime> {
        phases.iter().map(|p| self.phase_time(p, threads)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{SYSTEM_A, SYSTEM_B};

    fn flop_phase(flops: f64) -> Phase {
        Phase::parallel_fp64("flops", flops, 0.0, 0.0)
    }

    #[test]
    fn compute_phase_scales_with_threads() {
        let m = CpuModel::new(SYSTEM_A.cpu);
        let p = flop_phase(1e9);
        let t1 = m.phase_time(&p, 1).seconds;
        let t10 = m.phase_time(&p, 10).seconds;
        // Near-linear for compute-bound phases (overhead is tiny here).
        assert!(t1 / t10 > 8.0, "speedup {}", t1 / t10);
    }

    #[test]
    fn serial_phase_ignores_threads() {
        let m = CpuModel::new(SYSTEM_A.cpu);
        let p = Phase::serial_fp64("serial", 1e9, 0.0, 0.0);
        assert_eq!(m.phase_time(&p, 1).seconds, m.phase_time(&p, 20).seconds);
    }

    #[test]
    fn bandwidth_phase_saturates() {
        let m = CpuModel::new(SYSTEM_A.cpu);
        // Pure streaming phase: 10 GB.
        let p = Phase::parallel_fp64("stream", 0.0, 10e9, 0.0);
        let t10 = m.phase_time(&p, 10).seconds;
        let t20 = m.phase_time(&p, 20).seconds;
        // One socket's ceiling reached at 10 threads; 20 threads (still one
        // socket with SMT) gain nothing — the paper's "marginal reduction".
        assert!((t10 - t20).abs() / t10 < 0.05);
        assert_eq!(m.phase_time(&p, 10).bound_by, Bound::Bandwidth);
    }

    #[test]
    fn latency_phase_identified() {
        let m = CpuModel::new(SYSTEM_A.cpu);
        let p = Phase::parallel_fp64("chase", 0.0, 0.0, 1e8);
        assert_eq!(m.phase_time(&p, 4).bound_by, Bound::Latency);
    }

    #[test]
    fn binding_term_is_max() {
        let m = CpuModel::new(SYSTEM_B.cpu);
        let p = Phase::parallel_fp64("mixed", 1e9, 1e9, 1e6);
        let pt = m.phase_time(&p, 8);
        let compute = 1e9 / m.spec.sustained_flops(8, true);
        let bw = 1e9 / m.spec.bandwidth(8);
        let lat = 1e6 / m.spec.random_access_rate(8);
        let expect = compute.max(bw).max(lat) + m.fork_join_overhead_s;
        assert!((pt.seconds - expect).abs() < 1e-12);
    }

    #[test]
    fn total_is_sum_of_phases() {
        let m = CpuModel::new(SYSTEM_A.cpu);
        let phases = [
            Phase::serial_fp64("build", 1e8, 1e8, 1e6),
            Phase::parallel_fp64("force", 1e9, 5e8, 1e7),
        ];
        let total = m.total_time(&phases, 16);
        let sum: f64 = m.breakdown(&phases, 16).iter().map(|p| p.seconds).sum();
        assert!((total - sum).abs() < 1e-15);
    }

    #[test]
    fn amdahl_shape_serial_plus_parallel() {
        // A workload that is half serial stops speeding up: the classic
        // reason the kd-tree pipeline scales poorly.
        let m = CpuModel::new(SYSTEM_A.cpu);
        let phases = [
            Phase::serial_fp64("build", 1e9, 0.0, 0.0),
            Phase::parallel_fp64("force", 1e9, 0.0, 0.0),
        ];
        let t1 = m.total_time(&phases, 1);
        let t20 = m.total_time(&phases, 20);
        let speedup = t1 / t20;
        assert!(speedup < 2.1, "Amdahl bound violated: {speedup}");
        assert!(speedup > 1.5);
    }

    #[test]
    fn fp32_compute_phase_is_faster() {
        let m = CpuModel::new(SYSTEM_A.cpu);
        let p64 = Phase::parallel_fp64("f", 1e9, 0.0, 0.0);
        let p32 = Phase { fp64: false, ..p64 };
        let t64 = m.phase_time(&p64, 4).seconds;
        let t32 = m.phase_time(&p32, 4).seconds;
        assert!(t64 / t32 > 1.9);
    }
}
