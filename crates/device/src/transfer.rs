//! Host↔device transfer model (PCIe).
//!
//! GPU co-processing in BioDynaMo copies the SoA columns the mechanical
//! interaction needs (positions, diameters, adherence, …) to the device
//! each step and the computed displacements back (paper §IV-B). The paper
//! notes that FP32 "reduces the size of the buffers that need to be copied
//! back and forth", so transfer time participates in the Improvement I
//! speedup — this model charges exactly `bytes / bandwidth + latency` per
//! direction.

/// PCIe transfer timing.
#[derive(Debug, Clone, Copy)]
pub struct PcieModel {
    /// Effective bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Fixed per-transfer latency in seconds (driver call + DMA setup).
    pub latency_s: f64,
}

impl PcieModel {
    /// Model from a system spec's interconnect numbers.
    pub fn new(bandwidth: f64, latency_s: f64) -> Self {
        assert!(bandwidth > 0.0);
        Self {
            bandwidth,
            latency_s,
        }
    }

    /// Seconds to move `n` separate transfers totaling `bytes`
    /// (each pays the fixed latency; batching columns into fewer copies
    /// is a real optimization this makes visible).
    pub fn transfers_time(&self, n: u32, total_bytes: u64) -> f64 {
        n as f64 * self.latency_s + total_bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_latency_plus_bytes_over_bw() {
        let m = PcieModel::new(12e9, 10e-6);
        let t = m.transfers_time(1, 12_000_000); // 1 ms of wire time
        assert!((t - (10e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn fp32_halves_wire_time() {
        let m = PcieModel::new(12e9, 0.0);
        assert!(
            (m.transfers_time(1, 8_000_000) / m.transfers_time(1, 4_000_000) - 2.0).abs() < 1e-9
        );
    }

    #[test]
    fn batching_saves_latency() {
        let m = PcieModel::new(12e9, 10e-6);
        let many = m.transfers_time(10, 1_000_000);
        let one = m.transfers_time(1, 1_000_000);
        assert!((many - one - 9.0 * 10e-6).abs() < 1e-12);
    }
}
