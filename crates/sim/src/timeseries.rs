//! Per-step observable recording.
//!
//! Models in the paper's domain are judged by trajectories — population
//! curves, mean diameters, substance masses — not just end states. The
//! [`TimeSeries`] recorder samples a fixed set of observables after each
//! step and exports them as CSV for plotting, mirroring the time-series
//! outputs BioDynaMo models produce for analysis.

use crate::simulation::Simulation;
use std::io::{self, Write};

/// One sampled step.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Step index at capture time.
    pub step: u64,
    /// Living agents.
    pub population: usize,
    /// Total agent volume.
    pub total_volume: f64,
    /// Mean agent diameter (0 when empty).
    pub mean_diameter: f64,
    /// Mean neighbors per agent from the last mechanical step
    /// (`None` on the GPU path, which counts neighbors on-device).
    pub mean_density: Option<f64>,
    /// Total mass of each registered substance.
    pub substance_mass: Vec<f64>,
}

/// Records observables over a run.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
    /// Number of substances captured per sample (fixed after first).
    substances: usize,
}

impl TimeSeries {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample the simulation's current state (call after `step()`).
    pub fn record(&mut self, sim: &Simulation, num_substances: usize) {
        if self.samples.is_empty() {
            self.substances = num_substances;
        } else {
            assert_eq!(
                self.substances, num_substances,
                "substance count must stay constant across samples"
            );
        }
        let n = sim.rm().len();
        let mean_diameter = if n == 0 {
            0.0
        } else {
            (0..n).map(|i| sim.rm().diameter(i)).sum::<f64>() / n as f64
        };
        let mean_density = sim.last_mech_work().and_then(|w| {
            if w.gpu.is_some() {
                None
            } else {
                Some(w.mean_density(n))
            }
        });
        self.samples.push(Sample {
            step: sim.steps_executed(),
            population: n,
            total_volume: sim.rm().total_volume(),
            mean_diameter,
            mean_density,
            substance_mass: (0..num_substances)
                .map(|s| sim.diffusion_grid(s).total_mass())
                .collect(),
        });
    }

    /// Run `steps` steps, sampling after each one.
    pub fn run_and_record(&mut self, sim: &mut Simulation, steps: u64, num_substances: usize) {
        for _ in 0..steps {
            sim.step();
            self.record(sim, num_substances);
        }
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Write as CSV: `step,population,total_volume,mean_diameter,
    /// mean_density,substance_0,…`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "step,population,total_volume,mean_diameter,mean_density")?;
        for s in 0..self.substances {
            write!(w, ",substance_{s}")?;
        }
        writeln!(w)?;
        for s in &self.samples {
            write!(
                w,
                "{},{},{},{},{}",
                s.step,
                s.population,
                s.total_volume,
                s.mean_diameter,
                s.mean_density.map(|d| d.to_string()).unwrap_or_default()
            )?;
            for m in &s.substance_mass {
                write!(w, ",{m}")?;
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::cell::CellBuilder;
    use crate::diffusion::{BoundaryCondition, DiffusionParams};
    use crate::param::SimParams;
    use bdm_math::Vec3;

    fn growing_sim() -> Simulation {
        let mut sim = Simulation::new(SimParams::cube(50.0).with_seed(3));
        sim.add_diffusion_grid(DiffusionParams {
            name: "s",
            coefficient: 0.05,
            decay: 0.0,
            resolution: 8,
            boundary: BoundaryCondition::Closed,
        });
        for i in 0..4 {
            sim.add_cell(
                CellBuilder::new(Vec3::new(i as f64 * 15.0 - 22.5, 0.0, 0.0))
                    .diameter(10.0)
                    .behavior(Behavior::GrowthDivision {
                        growth_rate: 50.0,
                        division_threshold: 10.5,
                    })
                    .behavior(Behavior::Secretion {
                        substance: 0,
                        rate: 1.0,
                    }),
            );
        }
        sim
    }

    #[test]
    fn records_population_growth() {
        let mut sim = growing_sim();
        let mut ts = TimeSeries::new();
        ts.run_and_record(&mut sim, 5, 1);
        assert_eq!(ts.samples().len(), 5);
        let peak = ts.samples().iter().map(|s| s.population).max();
        assert!(peak > Some(4), "population should grow");
        // Steps are strictly increasing.
        assert!(ts.samples().windows(2).all(|w| w[0].step < w[1].step));
        // Substance mass accumulates monotonically (closed boundary,
        // constant secretion).
        assert!(ts
            .samples()
            .windows(2)
            .all(|w| w[1].substance_mass[0] > w[0].substance_mass[0]));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut sim = growing_sim();
        let mut ts = TimeSeries::new();
        ts.run_and_record(&mut sim, 3, 1);
        let mut buf = Vec::new();
        ts.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("step,population"));
        assert!(lines[0].ends_with("substance_0"));
        assert_eq!(lines[1].split(',').count(), 6);
    }

    #[test]
    fn density_column_is_empty_on_gpu_path() {
        use crate::environment::EnvironmentKind;
        let mut sim = growing_sim();
        sim.set_environment(EnvironmentKind::gpu_default());
        let mut ts = TimeSeries::new();
        ts.run_and_record(&mut sim, 1, 1);
        assert!(ts.samples()[0].mean_density.is_none());
    }
}
