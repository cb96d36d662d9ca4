//! The simulation object.
//!
//! A [`Simulation`] is agents + environment + substances + a
//! [`Scheduler`]: every per-step stage — the built-in pipeline
//! (behaviors, mechanical interactions, bound space, diffusion) and any
//! user-registered operation — is a scheduled [`Operation`] with uniform
//! profiling, per-op frequency, and enable/disable.

use crate::cell::CellBuilder;
use crate::diffusion::{DiffusionGrid, DiffusionParams};
use crate::environment::EnvironmentKind;
use crate::mech::{MechScratch, MechWork};
use crate::operation::{OpContext, Operation, ReorderOp, ReorderState, ShardRebalanceOp};
use crate::param::SimParams;
use crate::profiler::Profiler;
use crate::rm::ResourceManager;
use crate::scheduler::{ExecMode, Scheduler};
use crate::shard::ShardedEnvironment;
use bdm_gpu::pipeline::MechanicalPipeline;

/// A complete simulation: agents + environment + substances + scheduler.
pub struct Simulation {
    params: SimParams,
    rm: ResourceManager,
    env: EnvironmentKind,
    diffusion: Vec<DiffusionGrid>,
    profiler: Profiler,
    pipeline: Option<MechanicalPipeline>,
    mech_scratch: MechScratch,
    reorder: ReorderState,
    steps_executed: u64,
    /// Density measured by the last mechanical step (paper's `n`).
    last_mech: Option<MechWork>,
    /// Wall seconds the behaviors operation has spent committing its
    /// execution contexts (the merge after the chunk loop), over the run.
    behaviors_commit_s: f64,
    scheduler: Scheduler,
    /// Hilbert-sharded step driver; `Some` iff `params.shards.count > 0`.
    shards: Option<ShardedEnvironment>,
}

impl Simulation {
    /// New simulation with the default environment (parallel uniform
    /// grid — BioDynaMo's production configuration after the paper) and
    /// the default operation pipeline. A host [`ReorderOp`] always sits
    /// at the front of the pipeline; it is enabled (with frequency
    /// `params.reorder.every`) only when the reorder parameter is on, so
    /// callers can also toggle it at runtime through the scheduler.
    pub fn new(params: SimParams) -> Self {
        if let Err(msg) = params.validate() {
            panic!("invalid SimParams: {msg}");
        }
        let mut scheduler = Scheduler::default_pipeline();
        if params.shards.count > 0 {
            scheduler.add_front(Box::new(ShardRebalanceOp));
            scheduler.set_frequency("shard rebalance", params.shards.rebalance_every);
        }
        scheduler.add_front(Box::new(ReorderOp));
        if params.reorder.every > 0 {
            scheduler.set_frequency("reorder", params.reorder.every);
        } else {
            scheduler.set_enabled("reorder", false);
        }
        // Sharding shards the CSR pass; default the environment to it so
        // `with_shards` alone produces a sharded pipeline.
        let env = if params.shards.count > 0 {
            EnvironmentKind::uniform_grid_csr_parallel()
        } else {
            EnvironmentKind::uniform_grid_parallel()
        };
        let shards =
            (params.shards.count > 0).then(|| ShardedEnvironment::new(params.shards.count));
        Self {
            params,
            rm: ResourceManager::new(),
            env,
            diffusion: Vec::new(),
            profiler: Profiler::new(),
            pipeline: None,
            mech_scratch: MechScratch::default(),
            reorder: ReorderState::default(),
            steps_executed: 0,
            last_mech: None,
            behaviors_commit_s: 0.0,
            scheduler,
            shards,
        }
    }

    /// The simulation parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// The agent storage.
    pub fn rm(&self) -> &ResourceManager {
        &self.rm
    }

    /// Mutable agent storage (model construction).
    pub fn rm_mut(&mut self) -> &mut ResourceManager {
        &mut self.rm
    }

    /// The profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Steps executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// The last mechanical step's work summary (density metric etc.).
    pub fn last_mech_work(&self) -> Option<&MechWork> {
        self.last_mech.as_ref()
    }

    /// The sharded step driver, when sharding is configured.
    pub fn sharding(&self) -> Option<&ShardedEnvironment> {
        self.shards.as_ref()
    }

    /// The operation scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Mutable scheduler access (frequencies, enable/disable, mode).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Select how the step's `par_*` loops execute (on the calling thread
    /// or forked onto the worker pool; the trajectories are bitwise
    /// identical either way).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.scheduler.set_mode(mode);
    }

    /// Select the neighborhood environment.
    pub fn set_environment(&mut self, env: EnvironmentKind) {
        if let EnvironmentKind::Gpu {
            system,
            frontend,
            version,
            trace_sample,
        } = env
        {
            self.pipeline = Some(MechanicalPipeline::new(
                system.spec(),
                frontend,
                version,
                trace_sample,
            ));
        } else {
            self.pipeline = None;
        }
        self.env = env;
    }

    /// The active environment.
    pub fn environment(&self) -> &EnvironmentKind {
        &self.env
    }

    /// Toggle cross-step device residency for the GPU environment
    /// (ignored by CPU environments). Safe at any point: turning it on
    /// mid-run starts with a full upload, and the pipeline's uid diff
    /// self-heals after any host-side churn.
    pub fn set_gpu_resident(&mut self, resident: bool) {
        self.params.gpu_resident = resident;
    }

    /// The GPU offload pipeline, when the environment is a GPU one
    /// (observability: residency state, device allocation totals).
    pub fn gpu_pipeline(&self) -> Option<&MechanicalPipeline> {
        self.pipeline.as_ref()
    }

    /// Add one cell.
    pub fn add_cell(&mut self, cell: CellBuilder) -> usize {
        self.rm.add(cell)
    }

    /// Register a user-defined operation, appended to the end of the
    /// pipeline (after diffusion).
    pub fn add_operation(&mut self, op: Box<dyn Operation>) {
        self.scheduler.add(op);
    }

    /// Add a substance; returns its index (referenced by behaviors).
    ///
    /// # Panics
    /// On parameters [`DiffusionParams::validate`] rejects (non-finite
    /// or negative coefficient/decay, resolution below 2) — invalid
    /// substances fail at construction, not mid-run.
    pub fn add_diffusion_grid(&mut self, params: DiffusionParams) -> usize {
        self.diffusion
            .push(DiffusionGrid::new(params, self.params.space));
        self.diffusion.len() - 1
    }

    /// Access a substance grid.
    pub fn diffusion_grid(&self, i: usize) -> &DiffusionGrid {
        &self.diffusion[i]
    }

    /// All substance grids, in `add_diffusion_grid` order (behaviors
    /// reference substances by that index).
    pub fn diffusion_grids(&self) -> &[DiffusionGrid] {
        &self.diffusion
    }

    /// Install an already-built substance grid (checkpoint restore).
    pub(crate) fn install_diffusion_grid(&mut self, grid: DiffusionGrid) {
        self.diffusion.push(grid);
    }

    /// Overwrite the global step counter (checkpoint restore). Frequency
    /// anchoring and the per-(seed, uid, step) RNG streams both derive
    /// from this value, so restoring it is what makes a resumed run's
    /// step `k` behave exactly like an uninterrupted run's step `k`.
    pub(crate) fn set_steps_executed(&mut self, n: u64) {
        self.steps_executed = n;
    }

    /// Mutable sharded-environment access (checkpoint restore).
    pub(crate) fn sharding_mut(&mut self) -> Option<&mut ShardedEnvironment> {
        self.shards.as_mut()
    }

    /// Mutable access to a substance grid (initial conditions).
    pub fn diffusion_grid_mut(&mut self, i: usize) -> &mut DiffusionGrid {
        &mut self.diffusion[i]
    }

    /// Snapshot the simulation's observability state as one metrics
    /// registry: per-operation scheduler statistics, profiler wall
    /// totals, and the last mechanical step's work counters (including
    /// the GPU report when the environment offloads). This is what the
    /// benchmark JSON emitters serialize.
    pub fn metrics(&self) -> bdm_metrics::MetricsRegistry {
        let mut reg = bdm_metrics::MetricsRegistry::new();
        reg.set_gauge("sim.steps_executed", &[], self.steps_executed as f64);
        reg.set_gauge("sim.agents", &[], self.rm.len() as f64);
        reg.set_gauge("sim.substances", &[], self.diffusion.len() as f64);
        // Column capacities × element sizes + the behavior table: what the
        // agent state holds of the process's resident set.
        let resident = self.rm.resident_bytes();
        reg.set_gauge("agents.resident_bytes", &[], resident as f64);
        reg.set_gauge(
            "agents.behavior_lists",
            &[],
            self.rm.behavior_lists() as f64,
        );
        // `profiler.op_wall_s{op=behaviors}` minus this is the chunk loop.
        reg.set_gauge("behaviors.commit_ms", &[], self.behaviors_commit_s * 1e3);
        // The reorder's scratch (16 bytes per agent of its largest
        // gather, 64 KiB of histograms), and why its runs cost what they
        // did: a sorted run is one scan, a gathered one the argsort and
        // seven column gathers.
        let reorder = &self.reorder;
        let resident = reorder.scratch.resident_bytes();
        reg.set_gauge("reorder.resident_bytes", &[], resident as f64);
        for (outcome, runs) in [("sorted", reorder.sorted), ("gathered", reorder.gathered)] {
            reg.inc_counter("reorder.runs", &[("outcome", outcome)], runs as f64);
        }
        if !self.diffusion.is_empty() {
            // Aggregate solver telemetry across substances (cumulative
            // since construction/restore — derived state, so a restored
            // run restarts these at zero).
            let mut agg = crate::diffusion::DiffusionStats::default();
            for g in &self.diffusion {
                let s = g.stats();
                agg.voxel_updates += s.voxel_updates;
                agg.substeps += s.substeps;
                agg.interior_updates += s.interior_updates;
                agg.simd_rows += s.simd_rows;
            }
            reg.set_gauge("diffusion.voxel_updates", &[], agg.voxel_updates as f64);
            reg.set_gauge("diffusion.substeps", &[], agg.substeps as f64);
            reg.set_gauge("diffusion.interior_fraction", &[], agg.interior_fraction());
            reg.set_gauge("diffusion.simd_rows", &[], agg.simd_rows as f64);
            // Lattices + sweep scratch + f32 staging + oracle buffers.
            let resident: usize = self.diffusion.iter().map(|g| g.resident_bytes()).sum();
            reg.set_gauge("diffusion.resident_bytes", &[], resident as f64);
        }
        self.scheduler.publish_metrics(&mut reg);
        self.profiler.publish_metrics(&mut reg);
        if let Some(mech) = &self.last_mech {
            mech.publish_metrics(&self.env.label(), &mut reg);
        }
        if let Some(sh) = &self.shards {
            reg.set_gauge("shard.count", &[], sh.shard_count() as f64);
            reg.set_gauge("shard.imbalance", &[], sh.imbalance());
            reg.set_gauge("shard.migrations", &[], sh.migrations() as f64);
            reg.set_gauge("shard.rebalances", &[], sh.rebalances() as f64);
            for (i, (&agents, &halo)) in sh
                .agents_per_shard()
                .iter()
                .zip(sh.halo_per_shard())
                .enumerate()
            {
                let shard = i.to_string();
                let labels = [("shard", shard.as_str())];
                reg.set_gauge("shard.agents", &labels, agents as f64);
                reg.set_gauge("shard.halo_agents", &labels, halo as f64);
            }
        }
        reg
    }

    /// Run `n` steps.
    pub fn simulate(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Execute one step: the scheduler runs every enabled, due operation
    /// in pipeline order (default: behaviors → mechanical interactions →
    /// bound space → diffusion → user operations) and the records they
    /// emit become this step's profile.
    pub fn step(&mut self) {
        let mut ctx = OpContext {
            step: self.steps_executed,
            params: &self.params,
            env: &self.env,
            rm: &mut self.rm,
            substances: &mut self.diffusion,
            pipeline: self.pipeline.as_mut(),
            mech_scratch: &mut self.mech_scratch,
            reorder: &mut self.reorder,
            last_mech: &mut self.last_mech,
            behaviors_commit_s: &mut self.behaviors_commit_s,
            shards: self.shards.as_mut(),
        };
        let profile = self.scheduler.execute(&mut ctx);
        self.profiler.push(profile);
        self.steps_executed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{volume_of, Behavior};
    use crate::diffusion::BoundaryCondition;
    use crate::profiler::OpRecord;
    use bdm_math::Vec3;

    fn growth_cell(pos: Vec3<f64>) -> CellBuilder {
        CellBuilder::new(pos)
            .diameter(10.0)
            .adherence(0.4)
            .behavior(Behavior::GrowthDivision {
                growth_rate: 100.0,
                division_threshold: 10.5,
            })
    }

    #[test]
    fn growth_leads_to_division() {
        let mut sim = Simulation::new(SimParams::cube(100.0));
        sim.add_cell(growth_cell(Vec3::zero()));
        // Volume 523.6 + 100 = 623.6 exceeds the threshold volume
        // (≈ 606.1 at d = 10.5): the cell divides on the first step.
        sim.simulate(1);
        assert_eq!(sim.rm().len(), 2, "division expected at step 1");
        // Daughters share the mother's grown volume.
        let v: f64 = sim.rm().total_volume();
        assert!((v - (volume_of(10.0) + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn division_is_deterministic() {
        let run = || {
            let mut sim = Simulation::new(SimParams::cube(100.0).with_seed(77));
            sim.add_cell(growth_cell(Vec3::zero()));
            sim.simulate(5);
            (0..sim.rm().len())
                .map(|i| sim.rm().position(i))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bound_space_clamps_escapees() {
        let mut sim = Simulation::new(SimParams::cube(1.0));
        sim.add_cell(CellBuilder::new(Vec3::new(5.0, 0.0, 0.0)).diameter(0.5));
        sim.simulate(1);
        let p = sim.rm().position(0);
        assert!(sim.params().space.contains(p));
    }

    #[test]
    fn profiler_records_every_operation() {
        let mut sim = Simulation::new(SimParams::cube(50.0));
        sim.add_cell(growth_cell(Vec3::zero()));
        sim.add_diffusion_grid(DiffusionParams {
            name: "o2",
            coefficient: 0.1,
            decay: 0.0,
            resolution: 8,
            boundary: BoundaryCondition::Closed,
        });
        sim.simulate(1);
        let names: Vec<String> = sim.profiler().steps()[0]
            .records
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert!(names.contains(&"behaviors".to_string()));
        assert!(names.contains(&"mechanical forces".to_string()));
        assert!(names.contains(&"bound space".to_string()));
        assert!(names.contains(&"diffusion".to_string()));
    }

    #[test]
    fn chemotaxis_climbs_gradient() {
        let mut sim = Simulation::new(SimParams::cube(10.0));
        let s = sim.add_diffusion_grid(DiffusionParams {
            name: "signal",
            coefficient: 0.2,
            decay: 0.0,
            resolution: 16,
            boundary: BoundaryCondition::Closed,
        });
        // Source on the +x side; cell starts at the center.
        sim.diffusion_grid_mut(s)
            .secrete(Vec3::new(8.0, 0.0, 0.0), 1000.0);
        for _ in 0..30 {
            sim.diffusion_grid_mut(s).step(0.4);
        }
        sim.add_cell(
            CellBuilder::new(Vec3::zero())
                .diameter(1.0)
                .behavior(Behavior::Chemotaxis {
                    substance: s,
                    speed: 0.2,
                }),
        );
        let x0 = sim.rm().position(0).x;
        sim.simulate(10);
        let x1 = sim.rm().position(0).x;
        assert!(
            x1 > x0 + 0.5,
            "cell should move toward the source: {x0} → {x1}"
        );
    }

    #[test]
    fn secretion_adds_mass() {
        let mut sim = Simulation::new(SimParams::cube(10.0));
        let s = sim.add_diffusion_grid(DiffusionParams {
            name: "waste",
            coefficient: 0.05,
            decay: 0.0,
            resolution: 8,
            boundary: BoundaryCondition::Closed,
        });
        sim.add_cell(
            CellBuilder::new(Vec3::zero())
                .diameter(1.0)
                .behavior(Behavior::Secretion {
                    substance: s,
                    rate: 2.5,
                }),
        );
        sim.simulate(4);
        assert!((sim.diffusion_grid(s).total_mass() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn custom_operations_run_each_step_and_are_profiled() {
        struct Tagger {
            runs: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl Operation for Tagger {
            fn name(&self) -> &str {
                "tagger"
            }
            fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
                self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                // Mutating access works: nudge agent 0 each step.
                if !ctx.rm.is_empty() {
                    ctx.rm.translate(0, Vec3::new(0.1, 0.0, 0.0));
                }
                assert_eq!(
                    ctx.step + 1,
                    self.runs.load(std::sync::atomic::Ordering::Relaxed)
                );
                vec![crate::operation::wall_record(self.name(), 0.0)]
            }
        }
        let runs = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut sim = Simulation::new(SimParams::cube(10.0));
        sim.add_cell(CellBuilder::new(Vec3::zero()).diameter(1.0));
        sim.add_operation(Box::new(Tagger { runs: runs.clone() }));
        sim.simulate(4);
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 4);
        assert!((sim.rm().position(0).x - 0.4).abs() < 1e-12);
        let names: Vec<&str> = sim.profiler().steps()[0]
            .records
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert!(names.contains(&"tagger"));
    }

    #[test]
    fn operations_can_be_disabled_and_rescheduled() {
        let mut sim = Simulation::new(SimParams::cube(100.0));
        sim.add_cell(growth_cell(Vec3::zero()));
        assert!(sim.scheduler_mut().set_enabled("behaviors", false));
        sim.simulate(3);
        assert_eq!(sim.rm().len(), 1, "no divisions while behaviors is off");
        assert!(sim
            .profiler()
            .steps()
            .iter()
            .all(|s| s.records.iter().all(|r| r.name != "behaviors")));
        assert!(sim.scheduler_mut().set_enabled("behaviors", true));
        sim.simulate(1);
        assert_eq!(sim.rm().len(), 2, "division once re-enabled");
        assert!(!sim.scheduler_mut().set_enabled("no such op", true));
    }

    #[test]
    fn operation_frequency_skips_steps() {
        struct Counter {
            runs: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl Operation for Counter {
            fn name(&self) -> &str {
                "counter"
            }
            fn run(&mut self, _ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
                self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Vec::new()
            }
        }
        let runs = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut sim = Simulation::new(SimParams::cube(10.0));
        sim.add_operation(Box::new(Counter { runs: runs.clone() }));
        assert!(sim.scheduler_mut().set_frequency("counter", 2));
        sim.simulate(10);
        // Due on steps 0, 2, 4, 6, 8.
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 5);
        let stats = sim.scheduler().stats();
        let counter = stats.iter().find(|s| s.name == "counter").unwrap();
        assert_eq!(counter.runs, 5);
        assert_eq!(counter.frequency, 2);
        let behaviors = stats.iter().find(|s| s.name == "behaviors").unwrap();
        assert_eq!(behaviors.runs, 10);
    }

    #[test]
    fn frequency_zero_is_rejected_without_panic() {
        // Regression: set_frequency(_, 0) used to assert!, turning a bad
        // configuration value into a crash through the public API.
        let mut sim = Simulation::new(SimParams::cube(10.0));
        assert!(!sim.scheduler_mut().set_frequency("behaviors", 0));
        // The schedule is untouched: behaviors still runs every step.
        let stats = sim.scheduler().stats();
        let behaviors = stats.iter().find(|s| s.name == "behaviors").unwrap();
        assert_eq!(behaviors.frequency, 1);
        sim.simulate(2);
        assert_eq!(
            sim.scheduler()
                .stats()
                .iter()
                .find(|s| s.name == "behaviors")
                .unwrap()
                .runs,
            2
        );
        // Unknown names still report false too.
        assert!(!sim.scheduler_mut().set_frequency("no such op", 3));
    }

    #[test]
    fn frequency_anchors_on_global_step_count_across_simulate_calls() {
        struct Counter {
            runs: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl Operation for Counter {
            fn name(&self) -> &str {
                "counter"
            }
            fn run(&mut self, _ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
                self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Vec::new()
            }
        }
        // Regression guard: with k = 4 and simulate(3); simulate(3), the
        // op is due at global steps 0 and 4. A scheduler that anchored
        // frequency on a per-call counter would instead run it at the
        // start of *each* call (steps 0 and 3) — same total, wrong
        // steps — or, counting per-call offsets, diverge in count.
        let runs = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut sim = Simulation::new(SimParams::cube(10.0));
        sim.add_operation(Box::new(Counter { runs: runs.clone() }));
        assert!(sim.scheduler_mut().set_frequency("counter", 4));
        sim.simulate(3); // steps 0, 1, 2 → due at 0
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 1);
        sim.simulate(3); // steps 3, 4, 5 → due at 4
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(sim.steps_executed(), 6);
    }

    #[test]
    fn metrics_snapshot_covers_scheduler_profiler_and_mech() {
        let mut sim = Simulation::new(SimParams::cube(50.0));
        for i in 0..30 {
            sim.add_cell(
                CellBuilder::new(Vec3::new(i as f64 * 1.2 - 18.0, 0.0, 0.0)).diameter(2.0),
            );
        }
        let oxygen = sim.add_diffusion_grid(crate::diffusion::DiffusionParams::oxygen());
        sim.simulate(3);
        let reg = sim.metrics();
        assert_eq!(reg.value("sim.steps_executed", &[]), Some(3.0));
        assert_eq!(reg.value("sim.agents", &[]), Some(30.0));
        assert_eq!(reg.value("diffusion.substeps", &[]), Some(3.0));
        // One lattice and the sweep's slab scratch — no second lattice.
        let field = sim.diffusion_grid(oxygen);
        let resident = reg.value("diffusion.resident_bytes", &[]).unwrap();
        assert_eq!(resident, field.resident_bytes() as f64);
        let lattice = (field.num_voxels() * 8) as f64;
        assert!(lattice < resident && resident < 2.0 * lattice);
        assert_eq!(
            reg.value("scheduler.op_runs", &[("op", "behaviors")]),
            Some(3.0)
        );
        assert_eq!(reg.value("profiler.steps", &[]), Some(3.0));
        let env = sim.environment().label();
        assert!(
            reg.value("mech.candidates", &[("env", &env)]).unwrap() > 0.0,
            "mechanical work counters expected"
        );
    }

    /// The memory claim readable from one artifact: the agent columns'
    /// bytes, the table's size, and the commit share of `behaviors`.
    #[test]
    fn metrics_report_agent_bytes_lists_and_the_commit_share() {
        let mut sim = Simulation::new(SimParams::cube(60.0).with_seed(3));
        for i in 0..40 {
            let pos = Vec3::new(i as f64 * 2.5 - 50.0, 0.0, 0.0);
            sim.add_cell(match i % 3 {
                0 => CellBuilder::new(pos),
                1 => growth_cell(pos),
                _ => growth_cell(pos).behavior(Behavior::Apoptosis { probability: 0.0 }),
            });
        }
        sim.simulate(12);
        assert!(sim.rm().len() > 40, "the growing cells divided");
        let reg = sim.metrics();
        let resident = reg.value("agents.resident_bytes", &[]).unwrap();
        assert_eq!(resident, sim.rm().resident_bytes() as f64);
        // 52 bytes per slot, and a table that does not grow with n.
        let slots = (resident / 52.0) as usize;
        assert!(slots >= sim.rm().len() && slots < 4 * sim.rm().len() + 64);
        assert_eq!(reg.value("agents.behavior_lists", &[]), Some(3.0));
        let commit_ms = reg.value("behaviors.commit_ms", &[]).unwrap();
        let behaviors_s = reg.value("profiler.op_wall_s", &[("op", "behaviors")]);
        assert!(commit_ms > 0.0 && commit_ms <= behaviors_s.unwrap() * 1e3);
    }

    /// The reorder's scratch and its runs, read from one artifact: a
    /// frozen cloud gathers once and then finds its storage sorted, and
    /// the scratch holds 16 bytes per agent and the histograms — no pair
    /// buffer, no typed gather columns.
    #[test]
    fn metrics_report_the_reorder_scratch_and_its_runs() {
        let mut sim = crate::workload::benchmark_b(3000, 27.0, 5);
        assert!(sim.scheduler_mut().set_enabled("reorder", true));
        sim.simulate(4);
        let reg = sim.metrics();
        let runs = |outcome| reg.value("reorder.runs", &[("outcome", outcome)]);
        assert_eq!((runs("gathered"), runs("sorted")), (Some(1.0), Some(3.0)));
        let resident = reg.value("reorder.resident_bytes", &[]).unwrap();
        assert_eq!(resident, sim.reorder.scratch.resident_bytes() as f64);
        let per_agent = 16.0 * sim.rm().len() as f64;
        assert!(
            per_agent <= resident && resident <= per_agent + 256.0 * 1024.0,
            "{resident} bytes"
        );
    }

    /// The same agent dividing *and* dying in one step: the daughter is
    /// appended first, then the mother's death swap-removes across the
    /// grown population — under both execution modes, identically.
    #[test]
    fn same_step_division_and_apoptosis_interplay() {
        let build = |mode: ExecMode| {
            let mut sim = Simulation::new(SimParams::cube(200.0).with_seed(5));
            sim.set_exec_mode(mode);
            for i in 0..20 {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(i as f64 * 8.0 - 76.0, 0.0, 0.0))
                        .diameter(10.0)
                        .adherence(0.4)
                        .behavior(Behavior::GrowthDivision {
                            growth_rate: 100.0,
                            division_threshold: 10.5,
                        })
                        .behavior(Behavior::Apoptosis { probability: 1.0 }),
                );
            }
            sim.simulate(1);
            sim
        };
        let serial = build(ExecMode::Serial);
        // Every mother divided (+20 daughters) and then died (−20):
        // only the daughters remain, carrying fresh uids ≥ 20.
        assert_eq!(serial.rm().len(), 20);
        assert!((0..20).all(|i| serial.rm().uid(i) >= 20));
        // Daughters inherit both behaviors, so they all die at step 2.
        let mut serial = serial;
        serial.simulate(1);
        assert_eq!(serial.rm().len(), 0, "daughters also divide then die");

        let parallel = build(ExecMode::Parallel);
        assert_eq!(parallel.rm().len(), 20);
        let serial2 = build(ExecMode::Serial);
        let state = |sim: &Simulation| {
            (0..sim.rm().len())
                .map(|i| (sim.rm().uid(i), sim.rm().position(i), sim.rm().diameter(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            state(&serial2),
            state(&parallel),
            "serial and parallel scheduling must agree bitwise"
        );
    }

    #[test]
    fn apoptosis_removes_agents_deterministically() {
        let build = || {
            let mut sim = Simulation::new(SimParams::cube(50.0).with_seed(31));
            for i in 0..200 {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(i as f64 * 0.4 - 40.0, 0.0, 0.0))
                        .diameter(1.0)
                        .behavior(Behavior::Apoptosis { probability: 0.1 }),
                );
            }
            sim
        };
        let mut a = build();
        a.simulate(5);
        assert!(a.rm().len() < 200, "some cells should have died");
        assert!(a.rm().len() > 50, "not all cells should have died");
        let mut b = build();
        b.simulate(5);
        assert_eq!(a.rm().len(), b.rm().len(), "deaths are deterministic");
    }

    #[test]
    fn apoptosis_probability_zero_and_one() {
        let build = |p: f64| {
            let mut sim = Simulation::new(SimParams::cube(10.0));
            for i in 0..20 {
                sim.add_cell(
                    CellBuilder::new(Vec3::new(i as f64 * 0.3 - 3.0, 0.0, 0.0))
                        .diameter(0.5)
                        .behavior(Behavior::Apoptosis { probability: p }),
                );
            }
            sim.simulate(1);
            sim.rm().len()
        };
        assert_eq!(build(0.0), 20);
        assert_eq!(build(1.0), 0);
    }

    #[test]
    fn gpu_environment_runs_full_steps() {
        let mut sim = Simulation::new(SimParams::cube(10.0));
        for i in 0..50 {
            sim.add_cell(
                CellBuilder::new(Vec3::new(
                    (i % 5) as f64 * 1.5 - 3.0,
                    ((i / 5) % 5) as f64 * 1.5 - 3.0,
                    (i / 25) as f64 * 1.5 - 1.5,
                ))
                .diameter(2.0)
                .adherence(0.01),
            );
        }
        sim.set_environment(EnvironmentKind::gpu_default());
        sim.simulate(2);
        assert_eq!(sim.steps_executed(), 2);
        let gpu_rec = sim.profiler().steps()[0]
            .records
            .iter()
            .find(|r| r.gpu.is_some());
        assert!(gpu_rec.is_some(), "GPU report expected in the profile");
    }

    /// The host reorder never tells the pipeline it permuted storage:
    /// the resident step's uid diff finds the new row order by itself
    /// and re-uploads. Pinned to the transfers and the final state of
    /// the commit whose `ReorderOp` still called `invalidate_residency`
    /// before each permuted step (hard-coded from a run of it).
    #[test]
    fn resident_reorder_steps_resync_from_the_uid_diff_alone() {
        const WANT_STEPS: [(u64, u32); 10] = [
            (3700, 1),
            (3700, 1),
            (3720, 1),
            (3720, 1),
            (3720, 1),
            (3720, 1),
            (3760, 1),
            (3800, 1),
            (3820, 1),
            (3820, 1),
        ];
        const WANT_CHECKPOINT: u64 = 0x0742_9174_da61_1230;
        let mut sim = Simulation::new(
            SimParams::cube(10.0)
                .with_seed(5)
                .with_reorder(1)
                .with_interaction_radius(4.5)
                .with_gpu_resident(true),
        );
        // Version IV: its scan round trip makes `midstep_syncs` say
        // whether the grid was rebuilt.
        sim.set_environment(EnvironmentKind::Gpu {
            system: crate::environment::GpuSystem::A,
            frontend: bdm_gpu::frontend::ApiFrontend::Cuda,
            version: bdm_gpu::pipeline::KernelVersion::V4Csr,
            trace_sample: 1,
        });
        let mut rng = bdm_math::SplitMix64::new(17);
        for k in 0..160 {
            let mut cell = CellBuilder::new(Vec3::new(
                rng.uniform(-9.0, 9.0),
                rng.uniform(-9.0, 9.0),
                rng.uniform(-9.0, 9.0),
            ))
            .diameter(rng.uniform(2.0, 4.0))
            .adherence(0.01);
            if k % 20 == 0 {
                cell = cell.behavior(Behavior::GrowthDivision {
                    growth_rate: 2.0,
                    division_threshold: 4.1,
                });
            }
            sim.add_cell(cell);
        }
        sim.simulate(WANT_STEPS.len() as u64);
        let mut permuted = 0;
        let got: Vec<(u64, u32)> = sim
            .profiler()
            .steps()
            .iter()
            .map(|step| {
                let r = step.records.iter().find_map(|r| r.gpu.as_ref());
                let r = r.expect("every step offloads");
                assert!(r.resident);
                permuted += (r.sync == bdm_gpu::pipeline::SyncPlan::Permuted) as u32;
                (r.bytes_h2d, r.midstep_syncs)
            })
            .collect();
        assert_eq!(got, WANT_STEPS);
        assert!(permuted >= 3, "the scene must reorder while resident");
        let reorders = sim.scheduler().stats();
        let reorders = reorders.iter().find(|s| s.name == "reorder").unwrap();
        assert_eq!(reorders.runs, WANT_STEPS.len() as u64);
        let mut bytes = Vec::new();
        sim.checkpoint(&mut bytes).expect("checkpoint to Vec");
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(hash, WANT_CHECKPOINT, "final checkpoint bytes moved");
    }
}
