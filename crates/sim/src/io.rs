//! Snapshot export — the hook the paper's Fig. 2 visualization hangs off.
//!
//! BioDynaMo renders its cell-division demo through ParaView; this
//! reproduction exports the same information (position, diameter, and a
//! scalar the renderer can color by — Fig. 2 colors by diameter) as CSV,
//! which any plotting tool ingests. Floats are written in Rust's shortest
//! round-trip form, so a reader gets every bit back.

use crate::rm::ResourceManager;
use crate::simulation::Simulation;
use bdm_math::Vec3;
use std::io::{self, Write};

/// One agent's exported state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotRow {
    /// Stable unique id.
    pub uid: u64,
    /// Position.
    pub position: Vec3<f64>,
    /// Diameter (Fig. 2's color scalar).
    pub diameter: f64,
}

/// A full population snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Step index the snapshot was taken at.
    pub step: u64,
    /// One row per agent, storage order.
    pub rows: Vec<SnapshotRow>,
}

impl Snapshot {
    /// Capture the current population of a simulation.
    pub fn capture(sim: &Simulation) -> Self {
        Self::from_rm(sim.rm(), sim.steps_executed())
    }

    /// Capture directly from a resource manager.
    pub fn from_rm(rm: &ResourceManager, step: u64) -> Self {
        let rows = (0..rm.len())
            .map(|i| SnapshotRow {
                uid: rm.uid(i),
                position: rm.position(i),
                diameter: rm.diameter(i),
            })
            .collect();
        Self { step, rows }
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Write as CSV (`uid,x,y,z,diameter`, with a `# step = n` header).
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "# step = {}", self.step)?;
        writeln!(w, "uid,x,y,z,diameter")?;
        for r in &self.rows {
            writeln!(
                w,
                "{},{},{},{},{}",
                r.uid, r.position.x, r.position.y, r.position.z, r.diameter
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellBuilder;
    use crate::param::SimParams;

    fn sample_sim() -> Simulation {
        let mut sim = Simulation::new(SimParams::cube(10.0));
        for i in 0..5 {
            sim.add_cell(
                CellBuilder::new(Vec3::new(i as f64, 0.5, -1.25)).diameter(2.0 + i as f64),
            );
        }
        sim
    }

    fn csv(snap: &Snapshot) -> String {
        let mut buf = Vec::new();
        snap.write_csv(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// The rows of `csv`'s text, parsed back field by field.
    fn rows_of(text: &str) -> Vec<SnapshotRow> {
        let rows = text.lines().skip(2).map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 5, "{line}");
            let x = |k: usize| f[k].parse::<f64>().unwrap();
            SnapshotRow {
                uid: f[0].parse().unwrap(),
                position: Vec3::new(x(1), x(2), x(3)),
                diameter: x(4),
            }
        });
        rows.collect()
    }

    #[test]
    fn csv_roundtrip() {
        let snap = Snapshot::capture(&sample_sim());
        let text = csv(&snap);
        assert!(text.starts_with("# step = 0\nuid,x,y,z,diameter\n"));
        let line = text.lines().nth(2 + 3).unwrap();
        assert_eq!(line, format!("{},3,0.5,-1.25,5", snap.rows[3].uid));
        assert_eq!(rows_of(&text), snap.rows);
    }

    #[test]
    fn capture_reflects_population() {
        let sim = sample_sim();
        let snap = Snapshot::capture(&sim);
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.rows[3].position, Vec3::new(3.0, 0.5, -1.25));
        assert_eq!(snap.rows[3].diameter, 5.0);
        assert_eq!(snap.step, 0);
    }

    #[test]
    fn csv_roundtrip_preserves_full_float_precision() {
        // Stepped positions carry full-mantissa f64s; Rust's shortest
        // round-trip float formatting must write every bit.
        let mut sim = sample_sim();
        sim.simulate(2);
        let snap = Snapshot::capture(&sim);
        let text = csv(&snap);
        assert!(text.starts_with("# step = 2\n"));
        let parsed = rows_of(&text);
        assert_eq!(parsed.len(), snap.len());
        for (a, b) in snap.rows.iter().zip(&parsed) {
            assert_eq!(a.uid, b.uid);
            assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
            assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
            assert_eq!(a.position.z.to_bits(), b.position.z.to_bits());
            assert_eq!(a.diameter.to_bits(), b.diameter.to_bits());
        }
        assert!(
            snap.rows.iter().any(|r| r.position.x.fract() != 0.0),
            "the cells must have moved off the lattice"
        );
    }

    /// The step of `csv`'s `# step = n` header, `None` when it is malformed.
    fn step_of(text: &str) -> Option<u64> {
        text.lines().next()?.strip_prefix("# step = ")?.parse().ok()
    }

    #[test]
    fn step_header_roundtrips_and_rejects_garbage() {
        for step in [0, 17, u64::MAX] {
            let snap = Snapshot {
                step,
                rows: Vec::new(),
            };
            assert_eq!(step_of(&csv(&snap)), Some(step));
        }
        assert_eq!(step_of("# step = banana\n"), None);
        assert_eq!(step_of("uid,x,y,z,diameter\n"), None);
    }

    #[test]
    fn empty_snapshot_is_fine() {
        let snap = Snapshot {
            step: 17,
            rows: Vec::new(),
        };
        assert_eq!(csv(&snap), "# step = 17\nuid,x,y,z,diameter\n");
        assert_eq!(
            csv(&Snapshot::default()),
            "# step = 0\nuid,x,y,z,diameter\n"
        );
    }
}
