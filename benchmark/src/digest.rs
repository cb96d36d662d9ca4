//! 64-bit FNV-style digest of a simulation's state, over raw IEEE bits.
//!
//! This is what the cross-round determinism check and the
//! resume-equivalence check rest on: two states digest equal only if the
//! uid / position / diameter columns and every field concentration agree
//! bit for bit, in storage order. A one-ulp difference anywhere changes
//! the digest.

use bdm_sim::Simulation;

/// FNV-1a's xor-then-multiply step, taken a 64-bit word at a time (the
/// fields of `chemo_fields` alone are 8 M words per digest), with a
/// xor-shift so that high input bits reach the low half too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Fold one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 32;
    }

    /// Fold a column of floats in by their bit patterns, length first so
    /// that moving an element between adjacent columns changes the hash.
    pub fn floats(&mut self, column: &[f64]) {
        self.word(column.len() as u64);
        for v in column {
            self.word(v.to_bits());
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of the agent columns and every substance field.
pub fn of_simulation(sim: &Simulation) -> u64 {
    let rm = sim.rm();
    let mut h = Fnv64::default();
    h.word(rm.len() as u64);
    for &uid in rm.uid_column() {
        h.word(uid);
    }
    let (xs, ys, zs) = rm.position_columns();
    for column in [xs, ys, zs, rm.diameter_column()] {
        h.floats(column);
    }
    for grid in sim.diffusion_grids() {
        h.floats(grid.concentrations());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, Workload};

    #[test]
    fn two_builds_of_one_seed_agree_and_seeds_differ() {
        for w in Workload::ALL {
            let a = of_simulation(&w.build(7, Scale::Quick));
            let b = of_simulation(&w.build(7, Scale::Quick));
            assert_eq!(a, b, "{}: same seed, same scene", w.name());
        }
        let w = Workload::FrozenDense;
        assert_ne!(
            of_simulation(&w.build(7, Scale::Quick)),
            of_simulation(&w.build(8, Scale::Quick))
        );
    }

    #[test]
    fn a_one_ulp_edit_changes_the_digest() {
        let mut sim = Workload::ChemoFields.build(3, Scale::Quick);
        let before = of_simulation(&sim);
        // One ulp in one agent coordinate.
        let p = sim.rm().position(17);
        let mut q = p;
        q.y = f64::from_bits(p.y.to_bits() + 1);
        sim.rm_mut().set_position(17, q);
        let moved = of_simulation(&sim);
        assert_ne!(before, moved);
        sim.rm_mut().set_position(17, p);
        assert_eq!(of_simulation(&sim), before);
        // One ulp in one field voxel (zero → the smallest subnormal).
        let center = sim.params().space.center();
        sim.diffusion_grid_mut(2).secrete(center, f64::from_bits(1));
        assert_ne!(of_simulation(&sim), before);
    }

    #[test]
    fn column_boundaries_are_part_of_the_digest() {
        let mut a = Fnv64::default();
        a.floats(&[1.0, 2.0]);
        a.floats(&[3.0]);
        let mut b = Fnv64::default();
        b.floats(&[1.0]);
        b.floats(&[2.0, 3.0]);
        assert_ne!(a.finish(), b.finish());
    }
}
