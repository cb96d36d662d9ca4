//! The operation scheduler.
//!
//! Owns the ordered list of [`Operation`]s a step executes and the
//! execution mode of their `par_*` loops. Each operation carries a
//! frequency (run every k-th step, like BioDynaMo's operation frequency)
//! and an enabled flag; the scheduler times every run and accumulates
//! per-operation totals ([`Scheduler::stats`]) independently of the
//! step-profile records the operations themselves emit.

use crate::operation::{BehaviorOp, BoundSpaceOp, DiffusionOp, MechanicalOp, OpContext, Operation};
use crate::profiler::StepProfile;
use std::time::Instant;

/// How the `par_*` loops of a step execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Every `par_*` loop any operation reaches — agent chunks, the
    /// fused force passes, grid builds, diffusion slabs, key passes and
    /// column gathers — runs on the calling thread: the step executes
    /// under a one-worker pool.
    Serial,
    /// The loops fork onto the ambient worker count
    /// (`RAYON_NUM_THREADS`, else the processor count). Bitwise
    /// identical to [`ExecMode::Serial`] by construction: fixed chunk
    /// partitions and chunk-ordered merges make the trajectory
    /// independent of the worker count.
    #[default]
    Parallel,
}

/// One scheduled operation plus its scheduling state.
struct OpSlot {
    op: Box<dyn Operation>,
    /// Run every `frequency`-th step (1 = every step).
    frequency: u64,
    enabled: bool,
    /// Times this operation actually ran.
    runs: u64,
    /// Accumulated wall seconds across runs.
    wall_s: f64,
}

/// Per-operation scheduling statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Operation name.
    pub name: String,
    /// Configured frequency.
    pub frequency: u64,
    /// Whether the operation is currently enabled.
    pub enabled: bool,
    /// Times the operation ran.
    pub runs: u64,
    /// Total wall seconds spent in the operation.
    pub wall_s: f64,
}

/// Ordered operation list + execution mode.
pub struct Scheduler {
    ops: Vec<OpSlot>,
    mode: ExecMode,
}

impl Scheduler {
    /// Empty scheduler (no operations at all; test use).
    pub fn empty() -> Self {
        Self {
            ops: Vec::new(),
            mode: ExecMode::default(),
        }
    }

    /// The standard BioDynaMo step pipeline: behaviors → mechanical
    /// interactions → bound space → diffusion.
    pub fn default_pipeline() -> Self {
        let mut s = Self::empty();
        s.add(Box::new(BehaviorOp));
        s.add(Box::new(MechanicalOp));
        s.add(Box::new(BoundSpaceOp));
        s.add(Box::new(DiffusionOp));
        s
    }

    /// Append an operation to the end of the pipeline.
    pub fn add(&mut self, op: Box<dyn Operation>) {
        self.ops.push(OpSlot {
            op,
            frequency: 1,
            enabled: true,
            runs: 0,
            wall_s: 0.0,
        });
    }

    /// Insert an operation at the *front* of the pipeline — for stages
    /// that must see (and shape) the storage before every other op, like
    /// the host reorder.
    pub fn add_front(&mut self, op: Box<dyn Operation>) {
        self.ops.insert(
            0,
            OpSlot {
                op,
                frequency: 1,
                enabled: true,
                runs: 0,
                wall_s: 0.0,
            },
        );
    }

    /// Execution mode of the step's `par_*` loops.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Select the execution mode.
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// Run `name` only every `every`-th step. Frequencies anchor on the
    /// *global* step count ([`crate::Simulation::steps_executed`]), so an
    /// operation with frequency `k` runs on steps `0, k, 2k, …` no matter
    /// how the steps are batched into `simulate()` calls.
    ///
    /// Returns `false` — leaving the schedule untouched — when no
    /// operation has that name **or** `every` is 0 (a frequency of "never"
    /// is expressed with [`Scheduler::set_enabled`], not 0; this used to
    /// panic, which is the wrong contract for a public configuration
    /// API).
    pub fn set_frequency(&mut self, name: &str, every: u64) -> bool {
        if every == 0 {
            return false;
        }
        self.slot_mut(name).map(|s| s.frequency = every).is_some()
    }

    /// Enable or disable `name`. Returns `false` when no operation has
    /// that name.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> bool {
        self.slot_mut(name).map(|s| s.enabled = enabled).is_some()
    }

    /// Names of the scheduled operations, in execution order.
    pub fn op_names(&self) -> Vec<&str> {
        self.ops.iter().map(|s| s.op.name()).collect()
    }

    /// Per-operation scheduling statistics, in execution order.
    pub fn stats(&self) -> Vec<OpStats> {
        self.ops
            .iter()
            .map(|s| OpStats {
                name: s.op.name().to_string(),
                frequency: s.frequency,
                enabled: s.enabled,
                runs: s.runs,
                wall_s: s.wall_s,
            })
            .collect()
    }

    /// Publish per-operation scheduling statistics into a metrics
    /// registry: run counts and configuration as exact counters/gauges,
    /// accumulated host wall seconds as an (informational) gauge.
    pub fn publish_metrics(&self, reg: &mut bdm_metrics::MetricsRegistry) {
        for s in &self.ops {
            let labels = [("op", s.op.name())];
            reg.inc_counter("scheduler.op_runs", &labels, s.runs as f64);
            reg.set_gauge("scheduler.op_frequency", &labels, s.frequency as f64);
            reg.set_gauge(
                "scheduler.op_enabled",
                &labels,
                if s.enabled { 1.0 } else { 0.0 },
            );
            reg.set_gauge("scheduler.op_wall_s", &labels, s.wall_s);
        }
    }

    /// Restore one operation's scheduling state from a checkpoint:
    /// frequency, enabled flag, and the run counter (which anchors the
    /// gate-deterministic `scheduler.op_runs` metric — a resumed run must
    /// report the same totals as an uninterrupted one). Accumulated wall
    /// time is host-nondeterministic and deliberately not restorable.
    /// Returns `false` when no operation has that name (checkpoints may
    /// reference user operations the restored pipeline doesn't carry) or
    /// `frequency` is 0.
    pub(crate) fn restore_slot(
        &mut self,
        name: &str,
        frequency: u64,
        enabled: bool,
        runs: u64,
    ) -> bool {
        if frequency == 0 {
            return false;
        }
        self.slot_mut(name)
            .map(|s| {
                s.frequency = frequency;
                s.enabled = enabled;
                s.runs = runs;
            })
            .is_some()
    }

    fn slot_mut(&mut self, name: &str) -> Option<&mut OpSlot> {
        self.ops.iter_mut().find(|s| s.op.name() == name)
    }

    /// Execute one step: run every enabled, due operation in order and
    /// collect the records they emit.
    pub(crate) fn execute(&mut self, ctx: &mut OpContext<'_>) -> StepProfile {
        match self.mode {
            ExecMode::Parallel => self.run_ops(ctx),
            ExecMode::Serial => rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("a one-worker pool spawns nothing")
                .install(|| self.run_ops(ctx)),
        }
    }

    fn run_ops(&mut self, ctx: &mut OpContext<'_>) -> StepProfile {
        let mut profile = StepProfile::default();
        for slot in &mut self.ops {
            if !slot.enabled || !ctx.step.is_multiple_of(slot.frequency) {
                continue;
            }
            let t = Instant::now();
            let records = slot.op.run(ctx);
            slot.wall_s += t.elapsed().as_secs_f64();
            slot.runs += 1;
            profile.records.extend(records);
        }
        profile
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::default_pipeline()
    }
}
