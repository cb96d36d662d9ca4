//! Per-operation profiling — the machinery behind the Fig. 3 breakdown.
//!
//! Every step records, for each operation, the wall time on this host and
//! the work phases for the Table I CPU model (plus the GPU report when
//! the environment offloads). The Fig. 3 regenerator renders the
//! aggregate shares; the Fig. 8–11 harnesses convert the recorded phases
//! into modeled Xeon runtimes at arbitrary thread counts.

use bdm_device::cpu::{CpuModel, Phase};
use bdm_gpu::pipeline::GpuStepReport;

/// One operation's record within one step.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Operation name ("behaviors", "grid build", …).
    pub name: String,
    /// Wall seconds on this host.
    pub wall_s: f64,
    /// Work counters for the CPU timing model (empty for GPU offload).
    pub phases: Vec<Phase>,
    /// The GPU offload report, when applicable; boxed, so a CPU
    /// operation's record (the profiler keeps one per operation per step)
    /// does not carry the report's bytes inline.
    pub gpu: Option<Box<GpuStepReport>>,
}

/// All operations of one step.
#[derive(Debug, Clone, Default)]
pub struct StepProfile {
    /// Operation records in execution order.
    pub records: Vec<OpRecord>,
}

/// Accumulates step profiles over a run.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    steps: Vec<StepProfile>,
}

impl Profiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one step's profile.
    pub fn push(&mut self, step: StepProfile) {
        self.steps.push(step);
    }

    /// Recorded steps.
    pub fn steps(&self) -> &[StepProfile] {
        &self.steps
    }

    /// Total wall seconds per operation name, aggregated over all steps,
    /// in first-appearance order.
    pub fn wall_totals(&self) -> Vec<(String, f64)> {
        self.per_op(|r| r.wall_s)
    }

    /// Modeled total seconds on a Table I CPU at `threads` threads
    /// (sums every recorded phase through the model; GPU-offloaded
    /// operations contribute their modeled device time instead).
    pub fn modeled_total(&self, model: &CpuModel, threads: u32) -> f64 {
        let mut total = 0.0;
        for step in &self.steps {
            for r in &step.records {
                total += model.total_time(&r.phases, threads);
                if let Some(g) = &r.gpu {
                    total += g.total_s;
                }
            }
        }
        total
    }

    /// Modeled seconds per operation name at `threads` threads.
    pub fn modeled_per_op(&self, model: &CpuModel, threads: u32) -> Vec<(String, f64)> {
        self.per_op(|r| {
            model.total_time(&r.phases, threads) + r.gpu.as_ref().map_or(0.0, |g| g.total_s)
        })
    }

    /// `value` of every record summed per operation name over all
    /// steps, in first-appearance order.
    fn per_op(&self, value: impl Fn(&OpRecord) -> f64) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for r in self.steps.iter().flat_map(|s| &s.records) {
            match totals.iter_mut().find(|(name, _)| *name == r.name) {
                Some((_, total)) => *total += value(r),
                None => totals.push((r.name.clone(), value(r))),
            }
        }
        totals
    }

    /// Publish host-measured quantities into a metrics registry:
    /// recorded step count and per-operation wall totals. Wall clocks
    /// are nondeterministic, so no `BENCH_*.json` document holds them.
    pub fn publish_metrics(&self, reg: &mut bdm_metrics::MetricsRegistry) {
        reg.set_gauge("profiler.steps", &[], self.steps.len() as f64);
        for (name, t) in self.wall_totals() {
            reg.set_gauge("profiler.op_wall_s", &[("op", &name)], t);
        }
    }

    /// Publish *modeled* per-operation seconds on a Table I CPU at
    /// `threads` threads. These derive purely from recorded work
    /// counters, so they are deterministic and gateable.
    pub fn publish_modeled_metrics(
        &self,
        model: &CpuModel,
        threads: u32,
        reg: &mut bdm_metrics::MetricsRegistry,
    ) {
        let t = threads.to_string();
        for (name, s) in self.modeled_per_op(model, threads) {
            reg.set_gauge("profiler.modeled_s", &[("op", &name), ("threads", &t)], s);
        }
        reg.set_gauge(
            "profiler.modeled_total_s",
            &[("threads", &t)],
            self.modeled_total(model, threads),
        );
    }

    /// Render a Fig. 3-style text breakdown (shares of modeled time at
    /// `threads` threads on `model`).
    pub fn render_breakdown(&self, model: &CpuModel, threads: u32) -> String {
        let per_op = self.modeled_per_op(model, threads);
        let total: f64 = per_op.iter().map(|(_, t)| t).sum();
        let mut out = format!(
            "runtime profile ({} @ {} threads, modeled) — total {:.1} ms\n",
            model.spec.name,
            threads,
            total * 1e3
        );
        for (name, t) in &per_op {
            let share = if total > 0.0 { t / total * 100.0 } else { 0.0 };
            let bar_len = (share / 2.0).round() as usize;
            out.push_str(&format!(
                "  {:<22} {:>8.1} ms {:>5.1}%  {}\n",
                name,
                t * 1e3,
                share,
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_device::specs::SYSTEM_A;

    fn record(name: &str, wall: f64, flops: f64) -> OpRecord {
        OpRecord {
            name: name.into(),
            wall_s: wall,
            phases: vec![Phase::parallel_fp64("p", flops, 0.0, 0.0)],
            gpu: None,
        }
    }

    #[test]
    fn wall_totals_aggregate_across_steps() {
        let mut p = Profiler::new();
        p.push(StepProfile {
            records: vec![record("a", 1.0, 0.0), record("b", 2.0, 0.0)],
        });
        p.push(StepProfile {
            records: vec![record("a", 3.0, 0.0)],
        });
        let totals = p.wall_totals();
        assert_eq!(totals, vec![("a".into(), 4.0), ("b".into(), 2.0)]);
    }

    #[test]
    fn modeled_total_scales_with_threads() {
        let mut p = Profiler::new();
        p.push(StepProfile {
            records: vec![record("force", 0.0, 1e9)],
        });
        let m = CpuModel::new(SYSTEM_A.cpu);
        let t1 = p.modeled_total(&m, 1);
        let t8 = p.modeled_total(&m, 8);
        assert!(t1 / t8 > 6.0);
    }

    #[test]
    fn render_contains_ops_and_percentages() {
        let mut p = Profiler::new();
        p.push(StepProfile {
            records: vec![
                record("mechanical forces", 0.0, 3e9),
                record("behaviors", 0.0, 1e9),
            ],
        });
        let m = CpuModel::new(SYSTEM_A.cpu);
        let text = p.render_breakdown(&m, 4);
        assert!(text.contains("mechanical forces"));
        assert!(text.contains("behaviors"));
        assert!(text.contains('%'));
    }

    #[test]
    fn publish_metrics_exports_wall_and_modeled() {
        let mut p = Profiler::new();
        p.push(StepProfile {
            records: vec![record("forces", 1.5, 2e9)],
        });
        let mut reg = bdm_metrics::MetricsRegistry::new();
        p.publish_metrics(&mut reg);
        assert_eq!(reg.value("profiler.steps", &[]), Some(1.0));
        assert_eq!(
            reg.value("profiler.op_wall_s", &[("op", "forces")]),
            Some(1.5)
        );
        let m = CpuModel::new(SYSTEM_A.cpu);
        p.publish_modeled_metrics(&m, 4, &mut reg);
        let modeled = reg
            .value("profiler.modeled_s", &[("op", "forces"), ("threads", "4")])
            .unwrap();
        assert!(modeled > 0.0);
        assert_eq!(
            reg.value("profiler.modeled_total_s", &[("threads", "4")]),
            Some(p.modeled_total(&m, 4))
        );
    }

    #[test]
    fn empty_profiler_is_harmless() {
        let p = Profiler::new();
        assert!(p.wall_totals().is_empty());
        let m = CpuModel::new(SYSTEM_A.cpu);
        assert_eq!(p.modeled_total(&m, 4), 0.0);
    }
}
