//! Hardware specifications — the paper's Table I, plus the
//! microarchitectural parameters the timing models need.
//!
//! Quantities printed in the paper's Table I are encoded verbatim
//! (GPU RAM, memory bandwidth, single/double-precision TFLOPS, core
//! counts, CPU DRAM). Parameters the table omits but the models require
//! (SM counts, clock rates, cache geometries, PCIe bandwidth) come from
//! the public vendor datasheets of the same parts and are documented
//! field-by-field.

/// GPU device specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"NVIDIA GTX 1080 Ti"`.
    pub name: &'static str,
    /// Device memory capacity in bytes (Table I "GPU RAM").
    pub dram_bytes: u64,
    /// Device memory bandwidth in bytes/s (Table I "Memory bandwidth").
    pub dram_bandwidth: f64,
    /// Peak FP32 throughput in FLOP/s (Table I "Single-precision").
    pub fp32_flops: f64,
    /// Peak FP64 throughput in FLOP/s (Table I "Double-precision").
    pub fp64_flops: f64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// SM clock in Hz (boost clock; kernels in the paper run warmed up).
    pub clock_hz: f64,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// L2 cache line (sector granularity is finer on real parts; the
    /// simulator works in full 128-byte lines like the coalescer).
    pub l2_line_bytes: u32,
    /// L2 associativity used by the simulator.
    pub l2_ways: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: u32,
    /// Kernel launch overhead in seconds (driver + dispatch).
    pub launch_overhead_s: f64,
    /// Effective DRAM access latency in cycles (used for the latency
    /// component of isolated, uncoalesced accesses).
    pub dram_latency_cycles: u32,
    /// L2 hit latency in cycles.
    pub l2_latency_cycles: u32,
}

impl GpuSpec {
    /// FP64:FP32 throughput ratio (32 on consumer Pascal, 2 on V100) —
    /// the quantity the paper quotes when motivating Improvement I.
    pub fn fp64_ratio(&self) -> f64 {
        self.fp32_flops / self.fp64_flops
    }

    /// Total FP32 lanes (for per-SM issue modeling): peak = lanes × clock
    /// × 2 (FMA counts as two FLOPs).
    pub fn fp32_lanes(&self) -> f64 {
        self.fp32_flops / (self.clock_hz * 2.0)
    }
}

/// CPU specification (one *system*'s CPU complex, i.e. both sockets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"Intel Xeon E5-2640 v4"`.
    pub name: &'static str,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Number of sockets (both Table I systems are dual-socket NUMA).
    pub sockets: u32,
    /// Base clock in Hz.
    pub clock_hz: f64,
    /// Sustained double-precision GFLOP/s *per core* for irregular,
    /// non-vectorized simulation code (not the SIMD-FMA peak: the force
    /// kernel chases pointers and calls `sqrt`, so sustained throughput
    /// is an order of magnitude below peak — a standard assumption when
    /// modeling pointer-heavy workloads).
    pub sustained_gflops_per_core_fp64: f64,
    /// Memory bandwidth per socket in bytes/s.
    pub socket_bandwidth: f64,
    /// Bandwidth a single core can draw in bytes/s (limited by its
    /// outstanding-miss budget, well below the socket ceiling).
    pub per_core_bandwidth: f64,
    /// Effective DRAM latency in seconds for dependent random accesses.
    pub dram_latency_s: f64,
    /// Memory-level parallelism per core (outstanding misses a core
    /// overlaps on independent random accesses).
    pub mlp: f64,
    /// Host DRAM capacity in bytes (Table I "CPU DRAM").
    pub dram_bytes: u64,
    /// Throughput penalty multiplier when threads span both sockets
    /// (cross-NUMA traffic; the paper pins to one socket with `taskset`
    /// to avoid this — our model reproduces the penalty when not pinned).
    pub numa_penalty: f64,
}

impl CpuSpec {
    /// Total physical cores.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_socket * self.sockets
    }

    /// Sustained FP throughput of `threads` threads in FLOP/s at the
    /// given precision (FP32 sustains ~2× FP64 on these Xeons thanks to
    /// double SIMD width).
    pub fn sustained_flops(&self, threads: u32, fp64: bool) -> f64 {
        let per_core = self.sustained_gflops_per_core_fp64 * 1e9 * if fp64 { 1.0 } else { 2.0 };
        // Hyper-threads beyond the physical core count add ~25% each, a
        // typical SMT yield for compute-heavy loops.
        let physical = threads.min(self.total_cores()) as f64;
        let smt = (threads.saturating_sub(self.total_cores())) as f64 * 0.25;
        per_core * (physical + smt)
    }

    /// Aggregate memory bandwidth available to `threads` threads,
    /// honoring the per-core draw limit, the socket ceiling, and the
    /// NUMA penalty when the thread count spills onto the second socket.
    pub fn bandwidth(&self, threads: u32) -> f64 {
        let threads = threads.max(1);
        let one_socket_threads = self.cores_per_socket * 2; // with SMT
        if threads <= one_socket_threads {
            (threads as f64 * self.per_core_bandwidth).min(self.socket_bandwidth)
        } else {
            // Spanning sockets: both memory controllers, minus NUMA traffic.
            let total = (threads as f64 * self.per_core_bandwidth)
                .min(self.socket_bandwidth * self.sockets as f64);
            total * self.numa_penalty
        }
    }

    /// Random-access throughput (dependent pointer chases per second)
    /// achievable by `threads` threads.
    ///
    /// Two ceilings apply: the latency/MLP limit (each thread overlaps
    /// `mlp` outstanding misses of `dram_latency_s` each) and the
    /// bandwidth limit (every random access transfers a full 64-byte
    /// cache line, so the aggregate rate can never exceed
    /// `bandwidth / 64`). The second ceiling is what makes thread
    /// scaling "marginal" on memory-bound neighbor traversals — the
    /// effect the paper observes in Fig. 10.
    pub fn random_access_rate(&self, threads: u32) -> f64 {
        let latency_limit = threads.max(1) as f64 * self.mlp / self.dram_latency_s;
        let bandwidth_limit = self.bandwidth(threads) / 64.0;
        latency_limit.min(bandwidth_limit)
    }
}

/// A complete benchmark system (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemSpec {
    /// System label, `"System A"` / `"System B"`.
    pub name: &'static str,
    /// The GPU half.
    pub gpu: GpuSpec,
    /// The CPU half.
    pub cpu: CpuSpec,
    /// Host↔device interconnect bandwidth in bytes/s (PCIe 3.0 ×16
    /// effective ≈ 12 GB/s on both systems).
    pub pcie_bandwidth: f64,
    /// Per-transfer fixed latency in seconds.
    pub pcie_latency_s: f64,
}

/// Table I, System A: GTX 1080 Ti + 2× Xeon E5-2640 v4 (20 cores).
pub const SYSTEM_A: SystemSpec = SystemSpec {
    name: "System A",
    gpu: GpuSpec {
        name: "NVIDIA GTX 1080 Ti",
        dram_bytes: 11 * GB,
        dram_bandwidth: 484.0 * GB_F,
        fp32_flops: 11.34e12,
        fp64_flops: 0.354e12,
        sm_count: 28,
        clock_hz: 1.582e9,
        l2_bytes: 2816 * 1024,
        l2_line_bytes: 128,
        l2_ways: 16,
        shared_mem_per_sm: 96 * 1024,
        warp_size: 32,
        max_threads_per_sm: 2048,
        launch_overhead_s: 8e-6,
        dram_latency_cycles: 400,
        l2_latency_cycles: 200,
    },
    cpu: CpuSpec {
        name: "Intel Xeon E5-2640 v4",
        cores_per_socket: 10,
        sockets: 2,
        clock_hz: 2.4e9,
        sustained_gflops_per_core_fp64: 2.2,
        socket_bandwidth: 68.3 * GB_F, // DDR4-2133, 4 channels
        per_core_bandwidth: 11.0 * GB_F,
        dram_latency_s: 90e-9,
        mlp: 8.0,
        dram_bytes: 256 * GB,
        numa_penalty: 0.8,
    },
    pcie_bandwidth: 12.0 * GB_F,
    pcie_latency_s: 10e-6,
};

/// Table I, System B: Tesla V100 + 2× Xeon Gold 6130 (32 cores).
pub const SYSTEM_B: SystemSpec = SystemSpec {
    name: "System B",
    gpu: GpuSpec {
        name: "NVIDIA Tesla V100",
        dram_bytes: 32 * GB,
        dram_bandwidth: 900.0 * GB_F,
        fp32_flops: 15.7e12,
        fp64_flops: 7.8e12,
        sm_count: 80,
        clock_hz: 1.53e9,
        l2_bytes: 6 * 1024 * 1024,
        l2_line_bytes: 128,
        l2_ways: 16,
        shared_mem_per_sm: 96 * 1024,
        warp_size: 32,
        max_threads_per_sm: 2048,
        launch_overhead_s: 8e-6,
        dram_latency_cycles: 400,
        l2_latency_cycles: 190,
    },
    cpu: CpuSpec {
        name: "Intel Xeon Gold 6130",
        cores_per_socket: 16,
        sockets: 2,
        clock_hz: 2.1e9,
        sustained_gflops_per_core_fp64: 2.4,
        socket_bandwidth: 119.2 * GB_F, // DDR4-2666, 6 channels
        per_core_bandwidth: 12.0 * GB_F,
        dram_latency_s: 85e-9,
        mlp: 10.0,
        dram_bytes: 187 * GB,
        numa_penalty: 0.8,
    },
    pcie_bandwidth: 12.0 * GB_F,
    pcie_latency_s: 10e-6,
};

const GB: u64 = 1024 * 1024 * 1024;
const GB_F: f64 = 1e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp64_ratio_matches_paper() {
        // "the FP32 throughput is 32 times greater than the FP64
        // throughput" (paper §VI, about System A).
        let r = SYSTEM_A.gpu.fp64_ratio();
        assert!((r - 32.0).abs() < 0.1, "ratio {r}");
        // V100 is a compute card: ratio 2.
        let r = SYSTEM_B.gpu.fp64_ratio();
        assert!((r - 2.0).abs() < 0.05, "ratio {r}");
    }

    #[test]
    fn table1_headline_numbers() {
        assert_eq!(SYSTEM_A.gpu.dram_bandwidth, 484e9);
        assert_eq!(SYSTEM_B.gpu.dram_bandwidth, 900e9);
        assert_eq!(SYSTEM_A.cpu.total_cores(), 20);
        assert_eq!(SYSTEM_B.cpu.total_cores(), 32);
        assert_eq!(SYSTEM_A.gpu.fp32_flops, 11.34e12);
        assert_eq!(SYSTEM_B.gpu.fp64_flops, 7.8e12);
    }

    #[test]
    fn cpu_bandwidth_saturates_at_socket() {
        let cpu = SYSTEM_A.cpu;
        // 4 threads: per-core limited.
        assert!((cpu.bandwidth(4) - 44e9).abs() < 1e9);
        // 10 threads on one socket: socket-ceiling limited.
        assert_eq!(cpu.bandwidth(10), cpu.socket_bandwidth);
        // 20 threads still fit one socket's SMT; ceiling holds.
        assert_eq!(cpu.bandwidth(20), cpu.socket_bandwidth);
        // 40 threads span sockets: two ceilings × NUMA penalty.
        let bw40 = cpu.bandwidth(40);
        assert!(bw40 > cpu.socket_bandwidth);
        assert!(bw40 <= 2.0 * cpu.socket_bandwidth);
    }

    #[test]
    fn cpu_flops_scale_then_smt_tapers() {
        let cpu = SYSTEM_B.cpu;
        let f8 = cpu.sustained_flops(8, true);
        let f16 = cpu.sustained_flops(16, true);
        let f32t = cpu.sustained_flops(32, true);
        let f64t = cpu.sustained_flops(64, true);
        assert!((f16 / f8 - 2.0).abs() < 1e-9);
        assert!((f32t / f16 - 2.0).abs() < 1e-9);
        // SMT threads contribute but far less than physical cores.
        assert!(f64t > f32t);
        assert!(f64t < 1.5 * f32t);
    }

    #[test]
    fn fp32_sustains_double_fp64_on_cpu() {
        let cpu = SYSTEM_A.cpu;
        assert_eq!(
            cpu.sustained_flops(4, false),
            2.0 * cpu.sustained_flops(4, true)
        );
    }

    #[test]
    fn gpu_lane_count_is_plausible() {
        // 1080 Ti has 3584 CUDA cores.
        let lanes = SYSTEM_A.gpu.fp32_lanes();
        assert!((lanes - 3584.0).abs() < 16.0, "lanes {lanes}");
        // V100 has 5120.
        let lanes = SYSTEM_B.gpu.fp32_lanes();
        assert!((lanes - 5120.0).abs() < 16.0, "lanes {lanes}");
    }

    #[test]
    fn random_access_rate_scales_with_threads() {
        let cpu = SYSTEM_A.cpu;
        assert!(cpu.random_access_rate(8) > 7.9 * cpu.random_access_rate(1));
    }
}
