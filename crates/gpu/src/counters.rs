//! Per-kernel performance counters — the reproduction's `nvprof`.
//!
//! The paper extracts FLOP counts, DRAM/L2 traffic, and arithmetic
//! intensity from `nvprof` for the speedup analysis (§VI) and the roofline
//! plot (Fig. 12). The engine fills this structure during execution;
//! [`crate::timing`] turns it into seconds.

/// Counters accumulated over one kernel launch.
///
/// Quantities marked *(traced)* are collected on the sampled subset of
/// warps and scaled to the full launch by [`KernelCounters::finalize_scaling`];
/// everything else is exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCounters {
    /// Threads that executed (exact).
    pub threads_run: u64,
    /// Warps that executed (exact).
    pub warps_run: u64,
    /// Warps that went through detailed memory tracing (exact).
    pub warps_traced: u64,

    /// Single-precision FLOPs (exact; weighted ops — see `ThreadCtx`).
    pub flops_fp32: f64,
    /// Double-precision FLOPs (exact).
    pub flops_fp64: f64,
    /// Warp-level compute cycles: Σ over warps of the *slowest lane's*
    /// issue cycles — SIMT divergence is inherent in the max (exact).
    pub compute_warp_cycles: f64,
    /// Σ over all lanes of their issue cycles (exact). Together with
    /// [`Self::compute_warp_cycles`] this yields the warp execution
    /// efficiency (`nvprof`'s `warp_execution_efficiency`).
    pub lane_cycles_total: f64,

    /// 128-byte global-memory transactions after coalescing *(traced)*.
    pub global_transactions: f64,
    /// Transactions that hit the simulated L2 *(traced)*.
    pub l2_hits: f64,
    /// Transactions that missed L2 and went to device DRAM *(traced)*.
    pub l2_misses: f64,

    /// Shared-memory accesses (exact: every warp's lanes count theirs,
    /// like the FLOPs).
    pub shared_accesses: f64,
    /// Extra cycles from shared/global atomic serialization within warps
    /// *(traced)*.
    pub atomic_serial_cycles: f64,
    /// Atomic operations issued *(traced)*.
    pub atomic_ops: f64,

    /// Warps resident per SM at launch (occupancy; set once per launch,
    /// min-merged across launches). Low values expose memory latency —
    /// the penalty that makes oversized shared-memory tiles expensive.
    pub occupancy_warps_per_sm: f64,
    /// Block-wide barriers executed (exact).
    pub barriers: u64,
    /// Sub-kernel launches performed from device code (dynamic
    /// parallelism extension; exact).
    pub child_launches: u64,
}

impl KernelCounters {
    /// Bytes moved between L2 and device DRAM (misses × 128 B line).
    pub fn dram_bytes(&self) -> f64 {
        self.l2_misses * 128.0
    }

    /// Bytes served by the L2 (all transactions × 128 B).
    pub fn l2_bytes(&self) -> f64 {
        self.global_transactions * 128.0
    }

    /// Fraction of memory reads served by L2 — the paper's
    /// "percentage of L2 cache reads relative to the number of total
    /// (L2 + HBM) memory reads" (≈ 40 % in Fig. 12's discussion).
    pub fn l2_read_share(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0.0 {
            0.0
        } else {
            self.l2_hits / total
        }
    }

    /// Total FLOPs at both precisions.
    pub fn total_flops(&self) -> f64 {
        self.flops_fp32 + self.flops_fp64
    }

    /// Warp execution efficiency in (0, 1]: mean lane cycles over the
    /// slowest lane's cycles, averaged over warps. 1.0 = perfectly
    /// converged warps; low values = the serial-neighbor-loop divergence
    /// the paper discusses for dense models (§VI).
    pub fn warp_efficiency(&self) -> f64 {
        if self.compute_warp_cycles == 0.0 {
            return 1.0;
        }
        (self.lane_cycles_total / (32.0 * self.compute_warp_cycles)).min(1.0)
    }

    /// Arithmetic intensity in FLOPs per DRAM byte (the x-axis of the
    /// roofline plot).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.dram_bytes();
        if bytes == 0.0 {
            f64::INFINITY
        } else {
            self.total_flops() / bytes
        }
    }

    /// Scale the traced quantities up to the full launch. Called once by
    /// the engine after execution; `warps_traced == warps_run` leaves
    /// everything exact.
    pub fn finalize_scaling(&mut self) {
        if self.warps_traced == 0 || self.warps_traced == self.warps_run {
            return;
        }
        let scale = self.warps_run as f64 / self.warps_traced as f64;
        self.global_transactions *= scale;
        self.l2_hits *= scale;
        self.l2_misses *= scale;
        self.atomic_serial_cycles *= scale;
        self.atomic_ops *= scale;
    }

    /// Publish the counters into a metrics registry under
    /// `<prefix>.<field>` with the caller's labels. Raw event counts go
    /// in as counters; the derived ratios (warp efficiency, L2 read
    /// share, arithmetic intensity) as gauges. Everything here is a
    /// deterministic function of the simulated trajectory, so all of it
    /// is safe to gate on.
    pub fn publish_metrics(
        &self,
        prefix: &str,
        labels: &[(&str, &str)],
        reg: &mut bdm_metrics::MetricsRegistry,
    ) {
        let c = |reg: &mut bdm_metrics::MetricsRegistry, field: &str, v: f64| {
            reg.inc_counter(&format!("{prefix}.{field}"), labels, v);
        };
        c(reg, "threads_run", self.threads_run as f64);
        c(reg, "warps_run", self.warps_run as f64);
        c(reg, "flops_fp32", self.flops_fp32);
        c(reg, "flops_fp64", self.flops_fp64);
        c(reg, "global_transactions", self.global_transactions);
        c(reg, "l2_hits", self.l2_hits);
        c(reg, "l2_misses", self.l2_misses);
        c(reg, "shared_accesses", self.shared_accesses);
        c(reg, "atomic_ops", self.atomic_ops);
        c(reg, "barriers", self.barriers as f64);
        reg.set_gauge(
            &format!("{prefix}.warp_efficiency"),
            labels,
            self.warp_efficiency(),
        );
        reg.set_gauge(
            &format!("{prefix}.l2_read_share"),
            labels,
            self.l2_read_share(),
        );
    }

    /// Every field by name as raw bits, for the bit-identity tests (the
    /// destructuring makes a new field a compile error here, not a
    /// silently unpinned number).
    #[cfg(test)]
    pub(crate) fn field_bits(&self) -> [(&'static str, u64); 16] {
        let Self {
            threads_run,
            warps_run,
            warps_traced,
            flops_fp32,
            flops_fp64,
            compute_warp_cycles,
            lane_cycles_total,
            global_transactions,
            l2_hits,
            l2_misses,
            shared_accesses,
            atomic_serial_cycles,
            atomic_ops,
            occupancy_warps_per_sm,
            barriers,
            child_launches,
        } = *self;
        [
            ("threads_run", threads_run),
            ("warps_run", warps_run),
            ("warps_traced", warps_traced),
            ("flops_fp32", flops_fp32.to_bits()),
            ("flops_fp64", flops_fp64.to_bits()),
            ("compute_warp_cycles", compute_warp_cycles.to_bits()),
            ("lane_cycles_total", lane_cycles_total.to_bits()),
            ("global_transactions", global_transactions.to_bits()),
            ("l2_hits", l2_hits.to_bits()),
            ("l2_misses", l2_misses.to_bits()),
            ("shared_accesses", shared_accesses.to_bits()),
            ("atomic_serial_cycles", atomic_serial_cycles.to_bits()),
            ("atomic_ops", atomic_ops.to_bits()),
            ("occupancy_warps_per_sm", occupancy_warps_per_sm.to_bits()),
            ("barriers", barriers),
            ("child_launches", child_launches),
        ]
    }

    /// Merge another launch's counters (pipeline totals).
    pub fn merge(&mut self, other: &Self) {
        self.threads_run += other.threads_run;
        self.warps_run += other.warps_run;
        self.warps_traced += other.warps_traced;
        self.flops_fp32 += other.flops_fp32;
        self.flops_fp64 += other.flops_fp64;
        self.compute_warp_cycles += other.compute_warp_cycles;
        self.lane_cycles_total += other.lane_cycles_total;
        self.global_transactions += other.global_transactions;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.shared_accesses += other.shared_accesses;
        self.atomic_serial_cycles += other.atomic_serial_cycles;
        self.atomic_ops += other.atomic_ops;
        self.occupancy_warps_per_sm = if self.occupancy_warps_per_sm == 0.0 {
            other.occupancy_warps_per_sm
        } else if other.occupancy_warps_per_sm == 0.0 {
            self.occupancy_warps_per_sm
        } else {
            self.occupancy_warps_per_sm
                .min(other.occupancy_warps_per_sm)
        };
        self.barriers += other.barriers;
        self.child_launches += other.child_launches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let c = KernelCounters {
            flops_fp32: 1000.0,
            flops_fp64: 500.0,
            global_transactions: 20.0,
            l2_hits: 12.0,
            l2_misses: 8.0,
            ..Default::default()
        };
        assert_eq!(c.total_flops(), 1500.0);
        assert_eq!(c.dram_bytes(), 8.0 * 128.0);
        assert_eq!(c.l2_bytes(), 20.0 * 128.0);
        assert_eq!(c.l2_read_share(), 0.6);
        assert!((c.arithmetic_intensity() - 1500.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_ai_is_infinite() {
        let c = KernelCounters {
            flops_fp32: 10.0,
            ..Default::default()
        };
        assert!(c.arithmetic_intensity().is_infinite());
        assert_eq!(c.l2_read_share(), 0.0);
    }

    #[test]
    fn scaling_multiplies_traced_only() {
        let mut c = KernelCounters {
            warps_run: 100,
            warps_traced: 10,
            flops_fp32: 50.0,
            global_transactions: 7.0,
            l2_hits: 4.0,
            l2_misses: 3.0,
            atomic_ops: 2.0,
            shared_accesses: 6.0,
            ..Default::default()
        };
        c.finalize_scaling();
        assert_eq!(c.global_transactions, 70.0);
        assert_eq!(c.l2_hits, 40.0);
        assert_eq!(c.l2_misses, 30.0);
        assert_eq!(c.atomic_ops, 20.0);
        // Exact quantities untouched.
        assert_eq!(c.flops_fp32, 50.0);
        assert_eq!(c.shared_accesses, 6.0);
    }

    #[test]
    fn full_trace_scaling_is_identity() {
        let mut c = KernelCounters {
            warps_run: 5,
            warps_traced: 5,
            global_transactions: 9.0,
            ..Default::default()
        };
        let before = c.clone();
        c.finalize_scaling();
        assert_eq!(c, before);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = KernelCounters {
            threads_run: 10,
            flops_fp32: 1.0,
            l2_misses: 2.0,
            barriers: 1,
            ..Default::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.threads_run, 20);
        assert_eq!(a.flops_fp32, 2.0);
        assert_eq!(a.l2_misses, 4.0);
        assert_eq!(a.barriers, 2);
    }
}
