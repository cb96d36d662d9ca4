//! The paper's reported numbers, for side-by-side comparison columns in
//! the regenerated tables (EXPERIMENTS.md quotes these).

/// Benchmark A (Figs. 8/9, System A) — milliseconds as read off the
/// text of §VI. Bars without a printed value are `None`.
pub mod fig8 {
    /// Multithreaded kd-tree baseline (20 threads).
    pub const PARALLEL_KDTREE_MS: f64 = 8226.0;
    /// Multithreaded uniform grid (20 threads).
    pub const PARALLEL_UG_MS: f64 = 1910.0;
    /// GPU version 0 (FP64 port).
    pub const GPU_V0_MS: f64 = 1039.0;
    /// GPU version I (FP32).
    pub const GPU_V1_MS: f64 = 527.0;
    /// GPU version II (FP32 + Z-order).
    pub const GPU_V2_MS: f64 = 199.0;
    /// GPU version III is 28 % slower than version II.
    pub const GPU_V3_SLOWDOWN: f64 = 1.28;
    /// Serial UG is 2× faster than serial kd-tree.
    pub const SERIAL_UG_SPEEDUP_OVER_KD: f64 = 2.0;
}

/// Benchmark B (Figs. 10/11, System B) — speedup bands from §VI.
pub mod fig11 {
    /// GPU speedup vs the 4-thread baseline, low → high density.
    pub const VS_4_THREADS: (f64, f64) = (160.0, 232.0);
    /// GPU speedup vs the 64-thread baseline.
    pub const VS_64_THREADS: (f64, f64) = (71.0, 113.0);
}

/// Roofline discussion (Fig. 12): L2 read shares per density.
pub mod fig12 {
    /// (n, L2 read share) pairs the paper quotes from nvprof.
    pub const L2_READ_SHARE: [(f64, f64); 3] = [(6.0, 0.394), (27.0, 0.406), (47.0, 0.413)];
}

/// Fig. 3: shares of the cell-division benchmark runtime.
pub mod fig3 {
    /// Mechanical force calculations.
    pub const FORCES_SHARE: f64 = 0.51;
    /// Neighborhood update (kd build + search).
    pub const NEIGHBORHOOD_SHARE: f64 = 0.36;
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_ratios_are_self_consistent() {
        // 8226 / 1039 = 7.9× (§VI).
        assert!((super::fig8::PARALLEL_KDTREE_MS / super::fig8::GPU_V0_MS - 7.9).abs() < 0.05);
        // 1039 / 527 ≈ 2.0.
        assert!((super::fig8::GPU_V0_MS / super::fig8::GPU_V1_MS - 2.0).abs() < 0.05);
        // 527 / 199 ≈ 2.6.
        assert!((super::fig8::GPU_V1_MS / super::fig8::GPU_V2_MS - 2.6).abs() < 0.05);
        // 8226 / 1910 ≈ 4.3.
        assert!((super::fig8::PARALLEL_KDTREE_MS / super::fig8::PARALLEL_UG_MS - 4.3).abs() < 0.05);
    }
}
