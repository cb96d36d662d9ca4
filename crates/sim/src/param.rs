//! Simulation-wide parameters.

use bdm_math::interaction::MechParams;
use bdm_math::Aabb;

/// Host-side reorder policy: the paper's Improvement II applied to the
/// resident SoA columns, not just the GPU upload, along the Z-order curve
/// the GPU presort keys on too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorderParams {
    /// Re-sort every `every` steps; `0` disables the reorder operation
    /// entirely (insertion order — the pre-reorder behavior). Because
    /// agents drift slowly relative to the voxel size, sortedness decays
    /// over many steps and the sort cost amortizes (§V).
    pub every: u64,
}

/// Hilbert-sharded domain decomposition policy: partition the simulation
/// space into contiguous spans of the Hilbert curve, give each shard its
/// own CSR grid plus a read-only ghost halo of boundary agents, and step
/// the shards on their own rayon tasks. `count == 0` (the default)
/// disables sharding entirely.
///
/// Applies to the CSR environments at either precision; the kd-tree,
/// linked-list and GPU environments keep their one global pass.
///
/// Determinism contract: the sharded mechanical pass is **bitwise
/// identical** to the unsharded CSR pass for every shard count — each
/// shard sees exactly the per-voxel agent lists the global grid would
/// have produced (halo completeness + stable member build), so each
/// agent's candidate sequence — its f64 accumulation order, and its f32
/// lane packing — never changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardParams {
    /// Number of Hilbert-span shards; `0` = sharding off (the default).
    pub count: usize,
    /// Re-split the span boundaries (curve-order load rebalancing) every
    /// this many steps. Must be non-zero when sharding is on — a zero
    /// frequency would silently never fire (see [`SimParams::validate`]).
    pub rebalance_every: u64,
    /// Rebalance only when `max shard population / mean` exceeds this
    /// factor (≥ 1.0). `1.0` re-splits at every scheduled opportunity.
    pub imbalance_threshold: f64,
}

impl Default for ShardParams {
    fn default() -> Self {
        Self {
            count: 0,
            rebalance_every: 64,
            imbalance_threshold: 1.25,
        }
    }
}

/// Arithmetic precision of the CPU mechanical force pass (the paper's
/// Improvement I brought to the host) and of the diffusion sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Scalar `f64` throughout — BioDynaMo's storage default and the
    /// bitwise-reproducibility reference. The default.
    #[default]
    F64,
    /// Mixed precision. Mechanics: the CSR voxel walk narrows each staged
    /// stencil's positions and diameters from the `f64` columns to `f32`
    /// (no column is kept in `f32`) and tests and forces them through
    /// 8-wide SIMD lanes, while per-agent force accumulation and
    /// displacement integration stay `f64`. Deterministic (serial ≡
    /// parallel, run ≡ rerun, bitwise) but *different* from
    /// [`Precision::F64`] within a documented ±1e-5 per-step envelope;
    /// storage order (reorder on/off) changes lane packing and therefore
    /// rounding, so trajectories are a function of storage order too.
    /// Only the CSR environments (global or sharded) have an `f32` force
    /// body; the kd-tree, linked-list and GPU environments run their own
    /// force pass whatever this says (see `bdm_sim::mech`). Diffusion:
    /// every field sweeps on a narrowed `f32` lattice, in any
    /// environment (see `bdm_sim::diffusion`).
    F32Simd,
}

impl Precision {
    /// Short label for benchmark tables and metric dimensions.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F64 => "fp64",
            Precision::F32Simd => "fp32-simd",
        }
    }
}

/// Global parameters of a simulation (BioDynaMo's `Param`).
#[derive(Debug, Clone)]
pub struct SimParams {
    /// The bounded simulation space; agents are clamped into it by the
    /// bound-space operation each step.
    pub space: Aabb<f64>,
    /// Mechanical interaction parameters (Eq. 1 coefficients, timestep,
    /// displacement clamp).
    pub mech: MechParams<f64>,
    /// Master seed; every stochastic decision (division axes, benchmark
    /// placement) derives deterministically from it.
    pub seed: u64,
    /// Override for the uniform-grid voxel edge / interaction radius.
    /// `None` = the BioDynaMo policy: the largest agent diameter.
    pub interaction_radius: Option<f64>,
    /// Host-side agent reorder policy (off by default).
    pub reorder: ReorderParams,
    /// Arithmetic precision of the CPU force pass (`F64` default).
    pub precision: Precision,
    /// Hilbert-sharded domain decomposition (off by default).
    pub shards: ShardParams,
    /// Keep agent state resident on the GPU across steps (off by
    /// default). With the GPU environment, steady-state steps then move
    /// no agent columns over the bus: the pipeline diffs the host
    /// columns against its device mirrors and uploads only what changed
    /// (births, deaths, behavior edits). Trajectories are bitwise
    /// identical to the non-resident path; only the transfer/timing
    /// accounting changes. Ignored by every CPU environment.
    pub gpu_resident: bool,
}

impl SimParams {
    /// Parameters for a cubic space `[-half, half]³`.
    pub fn cube(half: f64) -> Self {
        Self {
            space: Aabb::cube(half),
            mech: MechParams::default_params(),
            seed: 0x5EED,
            interaction_radius: None,
            reorder: ReorderParams::default(),
            precision: Precision::default(),
            shards: ShardParams::default(),
            gpu_resident: false,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style interaction-radius override.
    pub fn with_interaction_radius(mut self, r: f64) -> Self {
        self.interaction_radius = Some(r);
        self
    }

    /// Builder-style reorder frequency: re-sort the agent columns along
    /// the Z-order curve every `every` steps.
    ///
    /// Panics on `every == 0`: a zero frequency would register a reorder
    /// op that never fires. Reorder is off by default — to leave it off,
    /// don't call this builder (see also [`SimParams::validate`]).
    pub fn with_reorder(mut self, every: u64) -> Self {
        assert!(
            every > 0,
            "with_reorder(0) would schedule a reorder that never fires; \
             reorder is off by default — omit the builder to leave it off"
        );
        self.reorder.every = every;
        self
    }

    /// Builder-style sharding: partition the domain into `count` Hilbert
    /// spans with ghost halos and per-shard CSR grids. The sharded
    /// mechanical pass keeps storage sorted by (Hilbert voxel key, uid)
    /// itself, so no host reorder op is required — shard populations are
    /// contiguous column slices by construction.
    ///
    /// Panics on `count == 0`: sharding is off by default — omit the
    /// builder to leave it off.
    pub fn with_shards(mut self, count: usize) -> Self {
        assert!(
            count > 0,
            "with_shards(0) would configure a sharded pipeline with no \
             shards; sharding is off by default — omit the builder"
        );
        self.shards.count = count;
        self
    }

    /// Builder-style shard rebalance policy override. Panics on
    /// `every == 0` (a zero frequency would never fire).
    pub fn with_shard_rebalance(mut self, every: u64, imbalance_threshold: f64) -> Self {
        assert!(
            every > 0,
            "with_shard_rebalance(0, _) would schedule a rebalance that \
             never fires"
        );
        self.shards.rebalance_every = every;
        self.shards.imbalance_threshold = imbalance_threshold;
        self
    }

    /// Builder-style precision override for the CPU force pass.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Builder-style GPU residency toggle: keep agent state on the
    /// device across steps (GPU environments only; a no-op elsewhere).
    pub fn with_gpu_resident(mut self, resident: bool) -> Self {
        self.gpu_resident = resident;
        self
    }

    /// Check the parameter set for configurations that would silently
    /// misbehave — scheduled ops that never fire, or a sharded pipeline
    /// whose storage-order invariant cannot hold. [`crate::Simulation::new`]
    /// calls this and panics with the returned message, so a bad hand-built
    /// `SimParams` (the builders already reject these values) fails loudly
    /// at construction instead of producing a subtly wrong run.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards.count > 0 {
            if self.shards.rebalance_every == 0 {
                return Err("shards.rebalance_every == 0 would schedule a rebalance op \
                     that never fires; use a positive period"
                    .to_string());
            }
            if self.shards.imbalance_threshold < 1.0 || self.shards.imbalance_threshold.is_nan() {
                return Err(format!(
                    "shards.imbalance_threshold must be >= 1.0 (max/mean shard \
                     population ratio); got {}",
                    self.shards.imbalance_threshold
                ));
            }
        }
        let mech = &self.mech;
        if !(mech.timestep.is_finite() && mech.timestep > 0.0) {
            return Err(format!(
                "mech.timestep must be positive and finite; got {}",
                mech.timestep
            ));
        }
        for (name, k) in [
            ("repulsion", mech.repulsion),
            ("attraction", mech.attraction),
        ] {
            if !k.is_finite() {
                return Err(format!("mech.{name} must be finite; got {k}"));
            }
        }
        if mech.max_displacement.is_nan() {
            return Err("mech.max_displacement must not be NaN".to_string());
        }
        if let Some(r) = self.interaction_radius {
            if !r.is_finite() || r <= 0.0 {
                return Err(format!(
                    "interaction_radius override must be positive and finite; got {r}"
                ));
            }
        }
        let e = self.space.extents();
        if ![e.x, e.y, e.z]
            .iter()
            .all(|len| len.is_finite() && *len > 0.0)
        {
            return Err(format!(
                "space must have positive, finite extent on every axis; got \
                 ({}, {}, {})",
                e.x, e.y, e.z
            ));
        }
        Ok(())
    }

    /// [`Self::validate`] plus the checkpoint-restore cross-checks: the
    /// parameter knobs must agree with the *state* the checkpoint
    /// actually carries. A sharded checkpoint (one with a shard-state
    /// section) restored under `shards.count == 0` would silently drop
    /// the rebalancer's counters and span map; the inverse combination
    /// would start a sharded pipeline from a fabricated even split
    /// instead of the checkpointed one. Both diverge from the
    /// resume-equivalence contract, so both are rejected here — called
    /// by `Simulation::restore` before any state is installed.
    pub fn validate_for_restore(&self, has_shard_state: bool) -> Result<(), String> {
        self.validate()?;
        if has_shard_state && self.shards.count == 0 {
            return Err("checkpoint carries sharded state but shards.count == 0; \
                 a restore would silently discard the shard map and counters"
                .to_string());
        }
        if !has_shard_state && self.shards.count > 0 {
            return Err(format!(
                "params configure {} shards but the checkpoint carries no \
                 shard state; a restore would fabricate an even span map",
                self.shards.count
            ));
        }
        Ok(())
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::cube(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_math::Vec3;

    #[test]
    fn cube_space_is_symmetric() {
        let p = SimParams::cube(50.0);
        assert_eq!(p.space.min, Vec3::splat(-50.0));
        assert_eq!(p.space.max, Vec3::splat(50.0));
        assert_eq!(p.space.center(), Vec3::zero());
    }

    #[test]
    fn builders_apply() {
        let p = SimParams::cube(1.0)
            .with_seed(99)
            .with_interaction_radius(2.5)
            .with_reorder(50);
        assert_eq!(p.seed, 99);
        assert_eq!(p.interaction_radius, Some(2.5));
        assert_eq!(p.reorder.every, 50);
    }

    #[test]
    fn reorder_defaults_off() {
        let p = SimParams::default();
        assert_eq!(p.reorder.every, 0, "reorder is opt-in");
    }

    #[test]
    fn sharding_defaults_off_and_builder_applies() {
        let p = SimParams::default();
        assert_eq!(p.shards.count, 0, "sharding is opt-in");
        assert!(p.validate().is_ok(), "defaults must validate");

        let p = SimParams::cube(50.0).with_shards(4);
        assert_eq!(p.shards.count, 4);
        // The sharded pass sorts storage itself; sharding must not
        // conscript the host reorder op.
        assert_eq!(p.reorder.every, 0);
        assert!(p.validate().is_ok());

        let p = p.with_shard_rebalance(16, 1.5);
        assert_eq!(p.shards.rebalance_every, 16);
        assert_eq!(p.shards.imbalance_threshold, 1.5);
        assert!(p.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "with_reorder(0)")]
    fn zero_reorder_frequency_is_rejected_at_the_builder() {
        let _ = SimParams::cube(1.0).with_reorder(0);
    }

    #[test]
    #[should_panic(expected = "with_shards(0)")]
    fn zero_shard_count_is_rejected_at_the_builder() {
        let _ = SimParams::cube(1.0).with_shards(0);
    }

    #[test]
    #[should_panic(expected = "never fires")]
    fn zero_rebalance_frequency_is_rejected_at_the_builder() {
        let _ = SimParams::cube(1.0)
            .with_shards(2)
            .with_shard_rebalance(0, 1.5);
    }

    #[test]
    fn validate_rejects_hand_built_zero_frequency_and_bad_sharding() {
        // Zero rebalance period slipped past the builders.
        let mut p = SimParams::cube(1.0).with_shards(2);
        p.shards.rebalance_every = 0;
        let err = p.validate().unwrap_err();
        assert!(err.contains("never fires"), "{err}");

        // Nonsensical imbalance threshold (also catches NaN).
        let mut p = SimParams::cube(1.0).with_shards(2);
        p.shards.imbalance_threshold = 0.5;
        assert!(p.validate().is_err());
        p.shards.imbalance_threshold = f64::NAN;
        assert!(p.validate().is_err());

        // Zero timestep would freeze displacement integration.
        let mut p = SimParams::cube(1.0);
        p.mech.timestep = 0.0;
        assert!(p.validate().unwrap_err().contains("timestep"));
    }

    /// A non-finite coefficient or timestep would write NaN or ∞ into
    /// every agent whose force clears its adherence; a NaN clamp clamps
    /// nothing.
    #[test]
    fn validate_rejects_non_finite_mechanics() {
        let rejects = |field: &str, set: &dyn Fn(&mut SimParams)| {
            let mut p = SimParams::cube(1.0);
            set(&mut p);
            let err = p.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            rejects("timestep", &|p| p.mech.timestep = bad);
            rejects("repulsion", &|p| p.mech.repulsion = bad);
            rejects("attraction", &|p| p.mech.attraction = bad);
        }
        rejects("max_displacement", &|p| p.mech.max_displacement = f64::NAN);
        // A zero or unbounded clamp stays valid: zero freezes the agents
        // (benchmark B), infinity clamps nothing.
        for max in [0.0, f64::INFINITY] {
            let mut p = SimParams::cube(1.0);
            p.mech.max_displacement = max;
            assert!(p.validate().is_ok(), "{max}");
        }
    }

    #[test]
    fn validate_rejects_bad_interaction_radius_and_degenerate_space() {
        // Zero, negative, and non-finite radius overrides.
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut p = SimParams::cube(10.0);
            p.interaction_radius = Some(r);
            let err = p.validate().unwrap_err();
            assert!(err.contains("interaction_radius"), "{r}: {err}");
        }
        // The builder path stays valid.
        assert!(SimParams::cube(10.0)
            .with_interaction_radius(2.0)
            .validate()
            .is_ok());
        // Degenerate (zero/negative/NaN extent) spaces.
        let mut p = SimParams::cube(10.0);
        p.space.max = p.space.min;
        assert!(p.validate().unwrap_err().contains("extent"));
        p.space.max.x = f64::NAN;
        assert!(p.validate().is_err());
    }

    /// An unbounded space would ask the grid for `u32::MAX` voxels per
    /// axis on the first step; an extent that overflows is as unbounded.
    #[test]
    fn validate_rejects_a_non_finite_space() {
        let sets: [fn(&mut SimParams); 4] = [
            |p| p.space.max.x = f64::INFINITY,
            |p| p.space.min.y = f64::NEG_INFINITY,
            |p| (p.space.min.z, p.space.max.z) = (f64::NEG_INFINITY, f64::INFINITY),
            |p| (p.space.min.x, p.space.max.x) = (-f64::MAX, f64::MAX),
        ];
        for (k, set) in sets.iter().enumerate() {
            let mut p = SimParams::cube(10.0);
            set(&mut p);
            let err = p.validate().unwrap_err();
            assert!(
                err.contains("space") && err.contains("finite"),
                "{k}: {err}"
            );
        }
    }

    #[test]
    fn validate_for_restore_rejects_shard_state_mismatches() {
        // Sharded checkpoint, unsharded params: state would be dropped.
        let p = SimParams::cube(10.0);
        let err = p.validate_for_restore(true).unwrap_err();
        assert!(err.contains("shards.count == 0"), "{err}");
        // Sharded params, no shard state: a span map would be fabricated.
        let p = SimParams::cube(10.0).with_shards(2);
        let err = p.validate_for_restore(false).unwrap_err();
        assert!(err.contains("no"), "{err}");
        // Matching combinations pass.
        assert!(SimParams::cube(10.0).validate_for_restore(false).is_ok());
        assert!(SimParams::cube(10.0)
            .with_shards(2)
            .validate_for_restore(true)
            .is_ok());
        // And the underlying validate() still runs first.
        let mut p = SimParams::cube(10.0);
        p.mech.timestep = -1.0;
        assert!(p.validate_for_restore(false).is_err());
    }

    #[test]
    fn gpu_residency_defaults_off() {
        let p = SimParams::default();
        assert!(!p.gpu_resident, "device residency is opt-in");
        assert!(SimParams::cube(1.0).with_gpu_resident(true).gpu_resident);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn precision_defaults_to_f64() {
        let p = SimParams::default();
        assert_eq!(p.precision, Precision::F64, "mixed precision is opt-in");
        let p = p.with_precision(Precision::F32Simd);
        assert_eq!(p.precision, Precision::F32Simd);
        assert_eq!(Precision::F64.label(), "fp64");
        assert_eq!(Precision::F32Simd.label(), "fp32-simd");
    }
}
