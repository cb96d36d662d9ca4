//! Agent behaviors.
//!
//! "Each agent in BioDynaMo is programmed to follow a specified set of
//! rules, imposed by the modeler, that can trigger specified actions
//! affecting itself or other agents" (§I). Behaviors run first in every
//! step; the cell-division module (benchmark A's workload) is
//! [`Behavior::GrowthDivision`].

/// A rule attached to an agent, executed once per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// The cell-division module: grow the cell's volume at a constant
    /// rate; upon reaching the division threshold, split into two
    /// daughters of half the volume each (the paper's benchmark A:
    /// "a 3D grid of 262,144 cells of the same volume are spawned and
    /// proliferate for 10 iterations").
    GrowthDivision {
        /// Volume units added per step.
        growth_rate: f64,
        /// Diameter at which the cell divides.
        division_threshold: f64,
    },
    /// Move up the gradient of a diffusion substance at a fixed speed —
    /// the classic chemotaxis rule (exercises agent ↔ substance coupling).
    Chemotaxis {
        /// Index of the substance (order of `add_diffusion_grid` calls).
        substance: usize,
        /// Displacement per step along the normalized gradient.
        speed: f64,
    },
    /// Deposit a substance amount at the agent's voxel each step.
    Secretion {
        /// Index of the substance.
        substance: usize,
        /// Concentration added per step.
        rate: f64,
    },
    /// Stochastic cell death: each step the cell dies with the given
    /// probability (deterministic per (seed, uid, step) like division).
    /// Exercises agent removal — the "deletion of agents" case the
    /// uniform grid must absorb on every rebuild (§IV-A).
    Apoptosis {
        /// Per-step death probability in [0, 1].
        probability: f64,
    },
}

impl Behavior {
    /// The variant's tag and its parameters as raw bits — the identity
    /// behavior lists are interned by. `==` is not one for `f64`
    /// parameters: `-0.0 == 0.0` though their checkpoint bytes differ,
    /// and `NaN != NaN`.
    pub fn to_bits(&self) -> [u64; 3] {
        match *self {
            Behavior::GrowthDivision {
                growth_rate,
                division_threshold,
            } => [0, growth_rate.to_bits(), division_threshold.to_bits()],
            Behavior::Chemotaxis { substance, speed } => [1, substance as u64, speed.to_bits()],
            Behavior::Secretion { substance, rate } => [2, substance as u64, rate.to_bits()],
            Behavior::Apoptosis { probability } => [3, probability.to_bits(), 0],
        }
    }
}

/// Sphere volume from a diameter.
pub fn volume_of(diameter: f64) -> f64 {
    std::f64::consts::PI / 6.0 * diameter * diameter * diameter
}

/// Diameter from a sphere volume (inverse of [`volume_of`]).
pub fn diameter_of(volume: f64) -> f64 {
    (6.0 * volume / std::f64::consts::PI).cbrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_diameter_roundtrip() {
        for d in [0.5, 1.0, 7.3, 20.0] {
            assert!((diameter_of(volume_of(d)) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_sphere_volume() {
        assert!((volume_of(2.0) - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn halving_volume_shrinks_diameter_by_cbrt2() {
        let d = 10.0;
        let v = volume_of(d);
        let d_half = diameter_of(v / 2.0);
        assert!((d / d_half - 2f64.cbrt()).abs() < 1e-12);
    }
}
