//! The API label a GPU result carries: CUDA or OpenCL.
//!
//! The paper implements the uniform-grid mechanical kernel twice — in CUDA
//! and in OpenCL — "to address GPUs from all major vendors" (§IV-B), and
//! reports that both runtimes drive the same algorithm (results shown are
//! from the CUDA runtime). Here that holds by construction: both APIs
//! launch the same [`crate::engine::LaunchConfig`] — CUDA's
//! `⌈items / blockDim⌉` blocks and OpenCL's global size rounded up to whole
//! work-groups are one grid — on the one simulated engine. So the frontend
//! selects no code; it names the API in results, metric labels and
//! checkpoints.

/// Which API a pipeline's results are labelled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiFrontend {
    /// NVIDIA CUDA: `<<<gridDim, blockDim, sharedBytes>>>`.
    Cuda,
    /// OpenCL: `clEnqueueNDRangeKernel(global_size, local_size)`.
    OpenCl,
}

impl ApiFrontend {
    /// Human-readable runtime name (benchmark tables).
    pub fn name(&self) -> &'static str {
        match self {
            ApiFrontend::Cuda => "CUDA",
            ApiFrontend::OpenCl => "OpenCL",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{KernelVersion, MechanicalPipeline, SceneRef};
    use bdm_device::specs::SYSTEM_A;
    use bdm_math::{interaction::MechParams, Aabb, SplitMix64, Vec3};

    /// The label selects no code: one step under either API counts the
    /// same work, traffic and modeled time.
    #[test]
    fn frontends_produce_identical_counters() {
        let n = 512;
        let mut rng = SplitMix64::new(5);
        let mut col = || (0..n).map(|_| rng.uniform(0.0, 8.0)).collect::<Vec<f64>>();
        let (xs, ys, zs) = (col(), col(), col());
        let (diameters, adherences) = (vec![1.0; n], vec![0.01; n]);
        let scene = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &diameters,
            adherences: &adherences,
            space: Aabb::new(Vec3::zero(), Vec3::splat(8.0)),
            box_len: 1.0,
        };
        let run = |frontend| {
            let mut p = MechanicalPipeline::new(SYSTEM_A, frontend, KernelVersion::V3Shared, 1);
            let (_, r) = p.step(&scene, &MechParams::default_params());
            (r.counters, r.mech_counters, r.total_s.to_bits())
        };
        assert_eq!(run(ApiFrontend::Cuda), run(ApiFrontend::OpenCl));
    }
}
