//! One round of one workload: build the scene, run the timed step loop,
//! checkpoint and restore the final state, check the outputs. Each round
//! runs in a process of its own (so `VmHWM` and allocator state belong to
//! this round alone) and reports to the parent as lines on stdout.

use crate::checks::{self, Check};
use crate::digest::{self, Fnv64};
use crate::host;
use crate::probes::{self, Metric};
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use bdm_sim::{EnvironmentKind, ExecMode, Simulation};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the parent asks of a round.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Size of the scene.
    pub scale: Scale,
    /// Also run the once-per-invocation checks (resume equivalence and
    /// agreement with a reference configuration).
    pub verify: bool,
    /// Record spans.
    pub spans: bool,
    /// Probe every layer after the probe step and write the trace file
    /// (implies `spans`).
    pub probes: bool,
    /// Serial execution mode and serial grid build (the baseline
    /// `par.serial_over_parallel` divides by the parallel run).
    pub serial: bool,
}

/// What a round found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Scene construction, seconds.
    pub setup_s: f64,
    /// Wall time of each step, seconds.
    pub step_s: Vec<f64>,
    /// Live agents after each step.
    pub agents: Vec<u64>,
    /// Checkpoint to memory + restore of the final state.
    pub checkpoint_s: f64,
    /// `VmHWM` after the step loop, kB.
    pub peak_rss_kb: u64,
    /// Digest of the final state.
    pub digest: u64,
    /// Digest of every exact counter the run produced.
    pub counters_digest: u64,
    /// Steps that panicked or left non-finite state.
    pub failed_steps: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer metrics (probing rounds only).
    pub layers: Vec<Metric>,
}

/// Run one round in this process.
pub fn run(opts: Options) -> Report {
    let w = opts.workload;
    let mut tr = Tracer::new(opts.spans || opts.probes);
    let mut report = Report::default();
    let round = tr.begin("round");

    let (mut sim, setup_s) = tr.time("setup", || w.build(opts.seed, opts.scale));
    report.setup_s = setup_s;
    if opts.serial {
        sim.set_exec_mode(ExecMode::Serial);
        if let EnvironmentKind::UniformGrid { layout, .. } = *sim.environment() {
            sim.set_environment(EnvironmentKind::UniformGrid {
                layout,
                parallel: false,
            });
        }
    }
    let initial = checks::Initial::of(&sim);

    let mut counters = Fnv64::default();
    let mut csr_skips = 0;
    for k in 0..w.steps() {
        let open = tr.begin("step");
        let stepped = catch_unwind(AssertUnwindSafe(|| sim.step())).is_ok();
        report.step_s.push(tr.end(open));
        if !stepped {
            // The simulation may be half-updated: stop the round here.
            report.failed_steps += 1;
            break;
        }
        if !checks::agents_are_finite(&sim) {
            report.failed_steps += 1;
        }
        report.agents.push(sim.rm().len() as u64);
        checks::fold_step_counters(&sim, &mut counters);
        csr_skips += sim.last_mech_work().map_or(0, |m| m.csr_rebuilds_skipped);
        if opts.probes && k == w.probe_step() {
            let open = tr.begin("probes");
            report.layers = probes::run(&mut tr, &sim, opts);
            tr.end(open);
        }
    }
    report.peak_rss_kb = host::peak_rss_kb();
    report.counters_digest = counters.finish();
    if opts.probes {
        let late = probes::after_run(&mut tr, &sim, &report, initial.agents, csr_skips);
        report.layers.extend(late);
    }

    if report.failed_steps == 0 {
        report.digest = digest::of_simulation(&sim);
        let mut bytes = Vec::new();
        let (restored, seconds) = tr.time("checkpoint+restore", || {
            sim.checkpoint(&mut bytes)
                .and_then(|()| Simulation::restore(&mut bytes.as_slice()))
                .ok()
        });
        report.checkpoint_s = seconds;
        report.checks = checks::final_state(w, &sim, &initial);
        if opts.verify {
            let once = checks::once_per_invocation(w, opts, sim, &bytes, restored);
            report.checks.extend(once);
        }
    }
    tr.end(round);

    if opts.probes {
        probes::write_trace(&tr, opts);
    }
    report
}

impl Report {
    /// Serialize as the child → parent wire lines.
    pub fn to_wire(&self) -> String {
        let mut out = format!("setup_s {:e}\n", self.setup_s);
        for (k, (s, a)) in self.step_s.iter().zip(&self.agents).enumerate() {
            out.push_str(&format!("step {k} {s:e} {a}\n"));
        }
        // A step that panicked has a time but no population.
        for (k, s) in self.step_s.iter().enumerate().skip(self.agents.len()) {
            out.push_str(&format!("step {k} {s:e} 0\n"));
        }
        out.push_str(&format!("checkpoint_s {:e}\n", self.checkpoint_s));
        out.push_str(&format!("peak_rss_kb {}\n", self.peak_rss_kb));
        out.push_str(&format!("digest {:016x}\n", self.digest));
        out.push_str(&format!("counters_digest {:016x}\n", self.counters_digest));
        out.push_str(&format!("failed_steps {}\n", self.failed_steps));
        for c in &self.checks {
            let verdict = if c.passed { "ok" } else { "FAIL" };
            out.push_str(&format!("check {} {verdict} {}\n", c.name, c.detail));
        }
        for l in &self.layers {
            out.push_str(&format!("layer {} {} {:e}\n", l.name, l.unit, l.value));
        }
        out.push_str("end\n");
        out
    }

    /// Parse what [`Report::to_wire`] wrote. `None` unless the closing
    /// `end` line arrived, i.e. the child ran to completion.
    pub fn from_wire(text: &str) -> Option<Report> {
        let mut r = Report::default();
        let mut complete = false;
        for line in text.lines() {
            let mut it = line.splitn(2, ' ');
            let (key, rest) = (it.next()?, it.next().unwrap_or(""));
            let mut fields = rest.split(' ');
            match key {
                "setup_s" => r.setup_s = rest.parse().ok()?,
                "step" => {
                    let _k = fields.next()?;
                    r.step_s.push(fields.next()?.parse().ok()?);
                    r.agents.push(fields.next()?.parse().ok()?);
                }
                "checkpoint_s" => r.checkpoint_s = rest.parse().ok()?,
                "peak_rss_kb" => r.peak_rss_kb = rest.parse().ok()?,
                "digest" => r.digest = u64::from_str_radix(rest, 16).ok()?,
                "counters_digest" => r.counters_digest = u64::from_str_radix(rest, 16).ok()?,
                "failed_steps" => r.failed_steps = rest.parse().ok()?,
                "check" => {
                    let name = fields.next()?.to_string();
                    let passed = fields.next()? == "ok";
                    let detail = fields.collect::<Vec<_>>().join(" ");
                    r.checks.push(Check {
                        name,
                        passed,
                        detail,
                    });
                }
                "layer" => r.layers.push(Metric {
                    name: fields.next()?.to_string(),
                    unit: fields.next()?.to_string(),
                    value: fields.next()?.parse().ok()?,
                }),
                "end" => complete = true,
                // Anything else is the child's own chatter.
                _ => {}
            }
        }
        complete.then_some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_format_round_trips() {
        let report = Report {
            setup_s: 0.012345678901234,
            step_s: vec![0.1, 0.25],
            agents: vec![10, 20],
            checkpoint_s: 1.5e-3,
            peak_rss_kb: 123_456,
            digest: 0xdead_beef_0123_4567,
            counters_digest: 42,
            failed_steps: 0,
            checks: vec![
                Check::new("population", true, "20 agents".into()),
                Check::new("mass", false, String::new()),
            ],
            layers: vec![Metric::new("grid.csr_build_ms", "ms", 1.25)],
        };
        let back = Report::from_wire(&report.to_wire()).expect("complete report");
        assert_eq!(back.setup_s, report.setup_s);
        assert_eq!(back.step_s, report.step_s);
        assert_eq!(back.agents, report.agents);
        assert_eq!(back.digest, report.digest);
        assert_eq!(back.checks.len(), 2);
        assert!(back.checks[0].passed && !back.checks[1].passed);
        assert_eq!(back.checks[0].detail, "20 agents");
        assert_eq!(back.layers[0].value, 1.25);
    }

    #[test]
    fn a_truncated_report_is_rejected() {
        let wire = Report::default().to_wire();
        assert!(Report::from_wire(&wire).is_some());
        assert!(Report::from_wire(wire.trim_end_matches("end\n")).is_none());
    }

    #[test]
    fn a_quick_round_passes_its_own_checks() {
        let report = run(Options {
            workload: Workload::ChemoFields,
            seed: 11,
            scale: Scale::Quick,
            verify: true,
            spans: false,
            probes: false,
            serial: false,
        });
        assert_eq!(report.failed_steps, 0);
        assert_eq!(report.step_s.len(), Workload::ChemoFields.steps());
        for c in &report.checks {
            assert!(c.passed, "{}: {}", c.name, c.detail);
        }
    }
}
