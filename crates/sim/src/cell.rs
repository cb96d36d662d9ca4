//! Cell construction.

use crate::behavior::Behavior;
use bdm_math::Vec3;

/// A cell's diameter is positive and finite — the one rule the builder
/// and the checkpoint import apply.
pub(crate) fn valid_diameter(d: f64) -> bool {
    d > 0.0 && d.is_finite()
}

/// A cell's adherence is non-negative and finite — the one rule the
/// builder and the checkpoint import apply.
pub(crate) fn valid_adherence(a: f64) -> bool {
    a >= 0.0 && a.is_finite()
}

/// Builder for a spherical cellular agent.
#[derive(Debug, Clone)]
pub struct CellBuilder {
    pub(crate) position: Vec3<f64>,
    pub(crate) diameter: f64,
    pub(crate) adherence: f64,
    pub(crate) behaviors: Vec<Behavior>,
}

impl CellBuilder {
    /// A cell at a position with BioDynaMo-like defaults
    /// (diameter 10 µm, adherence 0.4).
    pub fn new(position: Vec3<f64>) -> Self {
        Self {
            position,
            diameter: 10.0,
            adherence: 0.4,
            behaviors: Vec::new(),
        }
    }

    /// Set the diameter.
    ///
    /// # Panics
    /// Unless `d` is positive and finite.
    pub fn diameter(mut self, d: f64) -> Self {
        assert!(valid_diameter(d), "diameter must be positive and finite");
        self.diameter = d;
        self
    }

    /// Set the adherence threshold (force needed to move the cell).
    ///
    /// # Panics
    /// Unless `a` is non-negative and finite.
    pub fn adherence(mut self, a: f64) -> Self {
        assert!(valid_adherence(a), "adherence must be finite and >= 0");
        self.adherence = a;
        self
    }

    /// Attach a behavior (repeatable).
    pub fn behavior(mut self, b: Behavior) -> Self {
        self.behaviors.push(b);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let c = CellBuilder::new(Vec3::zero());
        assert_eq!(c.diameter, 10.0);
        assert_eq!(c.adherence, 0.4);
        let c = c
            .diameter(5.0)
            .adherence(0.1)
            .behavior(Behavior::GrowthDivision {
                growth_rate: 100.0,
                division_threshold: 12.0,
            });
        assert_eq!(c.diameter, 5.0);
        assert_eq!(c.adherence, 0.1);
        assert_eq!(c.behaviors.len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_diameter_rejected() {
        CellBuilder::new(Vec3::zero()).diameter(0.0);
    }

    #[test]
    #[should_panic(expected = "diameter must be positive and finite")]
    fn infinite_diameter_rejected() {
        CellBuilder::new(Vec3::zero()).diameter(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "adherence must be finite and >= 0")]
    fn infinite_adherence_rejected() {
        CellBuilder::new(Vec3::zero()).adherence(f64::INFINITY);
    }
}
