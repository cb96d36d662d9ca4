//! First-class scheduled operations.
//!
//! BioDynaMo models a simulation step as a sequence of *operations* the
//! scheduler runs over the agent population ("BioDynaMo schedules
//! operations — behaviors, mechanical interactions, substance diffusion
//! — for every simulation step"). This module makes that concept a
//! trait: the built-in pipeline stages (behaviors, mechanical
//! interactions, bound space, diffusion) and user-defined operations all
//! implement [`Operation`] and run through the
//! [`crate::scheduler::Scheduler`] with uniform profiling, per-op
//! frequency, and enable/disable.
//!
//! The behaviors and bound-space operations are parallelized with the
//! execution-context architecture of [`crate::exec`]: fixed-size agent
//! chunks, one rayon task per chunk, chunk-ordered merge — bitwise
//! identical at every worker count by construction, because there is
//! one closure over one partition (the scheduler's serial mode is the
//! same loop under a one-worker pool) and only the (deterministically
//! ordered) merge touches shared state.

use crate::behavior::{diameter_of, volume_of, Behavior};
use crate::diffusion::{DiffusionGrid, DiffusionStats};
use crate::environment::EnvironmentKind;
use crate::exec::ExecutionContext;
use crate::mech::{self, MechScratch, MechWork};
use crate::param::{Precision, SimParams};
use crate::profiler::OpRecord;
use crate::rm::{
    sort_phase, AgentChunkMut, AgentRow, AgentShared, ReorderScratch, ResourceManager,
};
use crate::shard::ShardedEnvironment;
use bdm_device::cpu::Phase;
use bdm_gpu::pipeline::MechanicalPipeline;
use bdm_math::{SplitMix64, Vec3};
use rayon::prelude::*;
use std::time::Instant;

/// Fixed agent-chunk size for parallel operations. Independent of the
/// worker count (like `CSR_PASS_CHUNK` in the grid build) so the chunk
/// partition — and therefore every chunk-ordered merge — is identical
/// whether one thread or sixty-four execute the chunks.
pub const AGENT_CHUNK: usize = 4 * 1024;

/// Everything an operation may touch during one step.
///
/// Built from disjoint borrows of the [`crate::simulation::Simulation`]
/// fields; the `pub(crate)` members carry the mechanical pipeline's
/// plumbing so [`MechanicalOp`] stays a plain scheduled operation.
pub struct OpContext<'a> {
    /// Step counter (0-based; the step currently executing).
    pub step: u64,
    /// Simulation parameters.
    pub params: &'a SimParams,
    /// Active neighborhood environment.
    pub env: &'a EnvironmentKind,
    /// Agent storage.
    pub rm: &'a mut ResourceManager,
    /// Substance grids (order of `add_diffusion_grid` calls).
    pub substances: &'a mut [DiffusionGrid],
    pub(crate) pipeline: Option<&'a mut MechanicalPipeline>,
    pub(crate) mech_scratch: &'a mut MechScratch,
    pub(crate) reorder: &'a mut ReorderState,
    pub(crate) last_mech: &'a mut Option<MechWork>,
    /// Accumulates the behaviors operation's commit (merge) seconds.
    pub(crate) behaviors_commit_s: &'a mut f64,
    /// Sharded step driver; `Some` when `params.shards.count > 0`.
    pub(crate) shards: Option<&'a mut ShardedEnvironment>,
}

impl OpContext<'_> {
    /// Shard-then-chunk cut points for the agent loops, when sharding is
    /// on and the cached shard ranges tile the current population.
    fn shard_cuts(&self) -> Option<Vec<usize>> {
        self.shards
            .as_deref()
            .and_then(|s| s.behavior_cuts(self.rm.len(), AGENT_CHUNK))
    }
}

/// One schedulable unit of per-step work.
///
/// Implementors return the profiler records for the work they did (most
/// return exactly one; the CPU mechanical operation returns one per
/// sub-phase, and diffusion returns none when no substances exist).
/// Returning the records — instead of the scheduler synthesizing one —
/// keeps the profile identical to the pre-scheduler step loop.
pub trait Operation: Send {
    /// Name shown in the profiler and used to address the operation in
    /// the scheduler (`set_frequency`, `set_enabled`).
    fn name(&self) -> &str;

    /// Execute for the step described by `ctx`.
    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord>;
}

/// A minimal `OpRecord`: wall time only, no work model, no GPU report.
/// What user-defined operations typically return.
pub fn wall_record(name: &str, wall_s: f64) -> OpRecord {
    OpRecord {
        name: name.to_string(),
        wall_s,
        phases: Vec::new(),
        gpu: None,
    }
}

// ---------------------------------------------------------------------
// Host reorder (the paper's Improvement II, applied to resident state)
// ---------------------------------------------------------------------

/// Sorts the resident SoA columns along a space-filling curve so that
/// spatial neighbors are also memory neighbors — the paper's Improvement
/// II (§IV-D/§V), applied to the *CPU-resident* state instead of only at
/// GPU upload. Downstream beneficiaries: the CSR counting-sort build
/// scatters near-sequentially, the fused force pass gathers neighbor
/// positions with near-unit stride, and the GPU pipeline detects that
/// host order already matches its curve and skips its per-step
/// permutation.
///
/// Scheduled with frequency `params.reorder.every` (drift policy: agents
/// move slowly relative to the voxel size, so sortedness decays over
/// many steps and the sort amortizes). Disabled when `every == 0`.
///
/// Determinism: agents sort by the pair `(curve key of their grid voxel,
/// uid)` — a strict total order over the population, so the resulting
/// layout is a pure function of per-agent state, independent of the
/// storage order the op happened to find. Combined with the uid-keyed
/// merges in [`crate::exec`], enabling the reorder cannot change any
/// trajectory (pinned by the purity proptests).
///
/// Its scratch and run counts live in the [`crate::Simulation`]
/// ([`ReorderState`]), where `Simulation::metrics` reads them.
#[derive(Debug, Default)]
pub struct ReorderOp;

/// What the reorder operation keeps across steps: its scratch, and how
/// many of its runs found storage sorted and how many gathered.
#[derive(Debug, Default)]
pub(crate) struct ReorderState {
    pub(crate) scratch: ReorderScratch,
    pub(crate) sorted: u64,
    pub(crate) gathered: u64,
}

impl Operation for ReorderOp {
    fn name(&self) -> &str {
        "reorder"
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        let t = Instant::now();
        let n = ctx.rm.len();
        let mut moved = 0u64;
        if n > 1 {
            // Quantize at the cell edge the uniform grid uses, with the
            // same dims clamp, so "same key" == "same grid voxel" — of a
            // grid cut *now*. The mechanics grid of this very step is cut
            // on the radius after the step's growth, so the identity
            // lasts only until the next diameter change: on
            // `division_growth`'s reorder step only 0.18 of the agents
            // still follow a resident of their own mechanics voxel in
            // storage (0.08–0.10 after a division wave appends daughters).
            // The sort buys gather locality; the CSR sweep takes its
            // voxel grouping from the grid itself (`mech::VoxelGroups`).
            let radius = mech::interaction_radius(ctx.rm, ctx.params);
            moved = ctx.rm.sort_storage(
                &ctx.params.space,
                radius,
                ctx.params.reorder.curve,
                &mut ctx.reorder.scratch,
                None,
            );
        }
        if moved == 0 {
            ctx.reorder.sorted += 1;
        } else {
            ctx.reorder.gathered += 1;
        }
        vec![OpRecord {
            name: self.name().into(),
            wall_s: t.elapsed().as_secs_f64(),
            phases: vec![sort_phase("reorder", n, moved, true)],
            gpu: None,
        }]
    }
}

// ---------------------------------------------------------------------
// Shard rebalancing (curve-order load balancing)
// ---------------------------------------------------------------------

/// Scheduled beside [`ReorderOp`] when sharding is on: counts agents
/// whose Hilbert key crossed a shard boundary since the last check (the
/// `shard.migrations` counter) and re-splits the span boundaries with
/// [`bdm_morton::ShardMap::balanced`] when the per-shard populations
/// drift past `params.shards.imbalance_threshold`. Runs with frequency
/// `params.shards.rebalance_every`.
///
/// Observational only: the shard map decides where work runs, never
/// what it computes, so rebalancing cannot perturb any trajectory (the
/// sharded pass is bitwise-identical for every map).
#[derive(Debug, Default)]
pub struct ShardRebalanceOp;

impl Operation for ShardRebalanceOp {
    fn name(&self) -> &str {
        "shard rebalance"
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        let t = Instant::now();
        let n = ctx.rm.len();
        let (params, rm) = (ctx.params, &*ctx.rm);
        let Some(shards) = ctx.shards.as_deref_mut() else {
            return Vec::new();
        };
        let (_migrations, resplit) = shards.rebalance(rm, params);
        vec![OpRecord {
            name: self.name().into(),
            wall_s: t.elapsed().as_secs_f64(),
            // Key computation + uid-sorted diff + key sort.
            phases: vec![Phase::parallel_fp64(
                "shard rebalance",
                40.0 * n as f64,
                48.0 * n as f64,
                resplit as u64 as f64,
            )],
            gpu: None,
        }]
    }
}

// ---------------------------------------------------------------------
// Behaviors
// ---------------------------------------------------------------------

/// Runs every agent's behavior list: growth/division, chemotaxis,
/// secretion, apoptosis.
///
/// The agent loop is chunked ([`AGENT_CHUNK`]); each chunk owns its
/// agents' position/diameter columns ([`AgentChunkMut`]) and buffers
/// births, deaths, and secretions in an [`ExecutionContext`]. Chunks run
/// under rayon (on the calling thread in the scheduler's serial mode)
/// and the contexts merge in chunk order, so every worker count produces
/// the bitwise-identical trajectory.
///
/// Deferred-secretion semantics: substance deposits land at merge time,
/// so every gradient read inside the pass sees the field as of the start
/// of the step (a consistent snapshot), not a state dependent on how
/// many lower-indexed agents already secreted.
#[derive(Debug, Default)]
pub struct BehaviorOp;

fn run_behavior_chunk(
    mut chunk: AgentChunkMut<'_>,
    shared: &AgentShared<'_>,
    substances: &[DiffusionGrid],
    seed: u64,
    step: u64,
) -> ExecutionContext {
    let mut ec = ExecutionContext::new();
    for k in 0..chunk.len() {
        let i = chunk.start() + k;
        for &b in shared.behaviors(i) {
            ec.behaviors_run += 1;
            match b {
                Behavior::GrowthDivision {
                    growth_rate,
                    division_threshold,
                } => {
                    let d = chunk.diameter(k);
                    let vol = volume_of(d) + growth_rate;
                    let new_d = diameter_of(vol);
                    if new_d >= division_threshold {
                        ec.divisions += 1;
                        // Split into two equal daughters; the division
                        // axis is deterministic per (seed, uid, step) so
                        // every environment and execution mode
                        // reproduces the same trajectory.
                        let half_d = diameter_of(vol / 2.0);
                        let mother_pos = chunk.position(k);
                        let mut rng = SplitMix64::for_stream(seed ^ (step << 32), shared.uid(i));
                        let dir = Vec3::new(rng.normal(), rng.normal(), rng.normal())
                            .try_normalized(1e-12)
                            .unwrap_or(Vec3::new(1.0, 0.0, 0.0));
                        let offset = dir * (half_d * 0.5);
                        chunk.set_diameter(k, half_d);
                        chunk.set_position(k, mother_pos - offset);
                        ec.reserve_births(chunk.len() - k);
                        ec.push_birth(
                            shared.uid(i),
                            AgentRow {
                                position: mother_pos + offset,
                                diameter: half_d,
                                adherence: shared.adherence(i),
                                behaviors: shared.behavior_id(i),
                            },
                        );
                    } else {
                        chunk.set_diameter(k, new_d);
                    }
                    ec.mark_diameter_write();
                }
                Behavior::Chemotaxis { substance, speed } => {
                    let p = chunk.position(k);
                    let grad = substances[substance].gradient_at(p);
                    if let Some(dir) = grad.try_normalized(1e-12) {
                        chunk.translate(k, dir * speed);
                    }
                }
                Behavior::Secretion { substance, rate } => {
                    ec.push_secretion(shared.uid(i), substance, chunk.position(k), rate);
                }
                Behavior::Apoptosis { probability } => {
                    let mut rng =
                        SplitMix64::for_stream(seed ^ (step << 32) ^ 0xDEAD, shared.uid(i));
                    if rng.next_f64() < probability {
                        ec.push_death(i);
                    }
                }
            }
        }
    }
    ec
}

impl Operation for BehaviorOp {
    fn name(&self) -> &str {
        "behaviors"
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        let t = Instant::now();
        let (seed, step) = (ctx.params.seed, ctx.step);
        // Shard-then-chunk when sharding is on: each execution context
        // stays shard-local and the contexts merge in shard-then-chunk
        // order. Both partitions are ascending tilings of the agent
        // range, so the merged outcome (birth order, death order,
        // uid-sorted secretions) is bitwise identical either way.
        let cuts = ctx.shard_cuts();
        let contexts: Vec<ExecutionContext> = {
            let substances: &[DiffusionGrid] = ctx.substances;
            let (chunks, shared) = match &cuts {
                Some(cuts) => ctx.rm.behavior_chunks_at(cuts),
                None => ctx.rm.behavior_chunks(AGENT_CHUNK),
            };
            chunks
                .into_par_iter()
                .map(|chunk| run_behavior_chunk(chunk, &shared, substances, seed, step))
                .collect()
        };
        let t_commit = Instant::now();
        let outcome = ExecutionContext::merge_in_order(contexts, ctx.rm, ctx.substances);
        *ctx.behaviors_commit_s += t_commit.elapsed().as_secs_f64();
        vec![OpRecord {
            name: self.name().into(),
            wall_s: t.elapsed().as_secs_f64(),
            phases: vec![Phase::parallel_fp64(
                "behaviors",
                20.0 * outcome.behaviors_run as f64 + 60.0 * outcome.divisions as f64,
                64.0 * outcome.behaviors_run as f64,
                outcome.divisions as f64,
            )],
            gpu: None,
        }]
    }
}

// ---------------------------------------------------------------------
// Mechanical interactions
// ---------------------------------------------------------------------

/// The environment-dependent mechanical-interaction stage (neighborhood
/// build + search + force computation, possibly offloaded to the
/// simulated GPU). Thin scheduled wrapper around [`mech`]; records one
/// profiler entry per sub-phase on the CPU path (the Fig. 3 names) or a
/// single GPU entry on the offload path.
#[derive(Debug, Default)]
pub struct MechanicalOp;

impl Operation for MechanicalOp {
    fn name(&self) -> &str {
        "mechanical interactions"
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        let t = Instant::now();
        // `mech` owns the dispatch: a CSR environment steps through the
        // sharded driver when the simulation has one (either precision);
        // kd, linked-list and GPU environments run their global pass.
        let work = mech::mechanical_step_sharded(
            ctx.rm,
            ctx.params,
            ctx.env,
            ctx.pipeline.as_deref_mut(),
            ctx.mech_scratch,
            ctx.shards.as_deref_mut(),
        );
        let wall = t.elapsed().as_secs_f64();
        let mut records = Vec::new();
        if work.gpu.is_some() {
            records.push(OpRecord {
                name: "mechanical interactions (GPU)".into(),
                wall_s: wall,
                phases: Vec::new(),
                gpu: work.gpu.clone(),
            });
        } else {
            for (k, phase) in work.phases.iter().enumerate() {
                records.push(OpRecord {
                    name: phase.name.into(),
                    wall_s: work.wall_s[k],
                    phases: vec![*phase],
                    gpu: None,
                });
            }
        }
        *ctx.last_mech = Some(work);
        records
    }
}

// ---------------------------------------------------------------------
// Bound space
// ---------------------------------------------------------------------

/// Clamps every agent into the simulation space. Chunked and
/// rayon-parallel like the behaviors pass (pure per-agent writes, no
/// deferred mutations — only the clamp counter merges, in chunk order).
#[derive(Debug, Default)]
pub struct BoundSpaceOp;

impl Operation for BoundSpaceOp {
    fn name(&self) -> &str {
        "bound space"
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        let t = Instant::now();
        let n = ctx.rm.len();
        let space = ctx.params.space;
        let clamp_chunk = move |mut chunk: AgentChunkMut<'_>| -> u64 {
            let mut clamped = 0u64;
            for k in 0..chunk.len() {
                let p = chunk.position(k);
                let q = space.clamp_point(p);
                if q != p {
                    chunk.set_position(k, q);
                    clamped += 1;
                }
            }
            clamped
        };
        let cuts = ctx.shard_cuts();
        let (chunks, _shared) = match &cuts {
            Some(cuts) => ctx.rm.behavior_chunks_at(cuts),
            None => ctx.rm.behavior_chunks(AGENT_CHUNK),
        };
        let counts: Vec<u64> = chunks.into_par_iter().map(clamp_chunk).collect();
        let clamped: u64 = counts.iter().sum();
        vec![OpRecord {
            name: self.name().into(),
            wall_s: t.elapsed().as_secs_f64(),
            phases: vec![Phase::parallel_fp64(
                "bound space",
                6.0 * n as f64,
                48.0 * n as f64,
                clamped as f64,
            )],
            gpu: None,
        }]
    }
}

// ---------------------------------------------------------------------
// Diffusion
// ---------------------------------------------------------------------

/// Steps every substance grid through the in-place stencil sweep (the
/// operation BioDynaMo keeps on the multi-core CPU while the GPU
/// handles the mechanical interactions). Returns no record when the
/// simulation has no substances, matching the pre-scheduler profile.
///
/// All substances advance through **one** rayon scope per run — the
/// batch is a `par_iter_mut` over grids. With at least as many grids
/// as workers each worker sweeps its grid's z-slabs inline (nested
/// `par_*` calls do not fork); a lone grid runs on the caller and forks
/// over its slabs instead. Each grid's update is a pure function of its
/// own field and of no slab cut, so the batch is bitwise deterministic
/// under any schedule.
#[derive(Debug, Default)]
pub struct DiffusionOp;

impl Operation for DiffusionOp {
    fn name(&self) -> &str {
        "diffusion"
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        if ctx.substances.is_empty() {
            return Vec::new();
        }
        let t = Instant::now();
        let dt = ctx.params.mech.timestep;
        let precision = ctx.params.precision;
        let runs: Vec<DiffusionStats> = ctx
            .substances
            .par_iter_mut()
            .map(|g| g.step_in(dt, precision))
            .collect();
        let updates: u64 = runs.iter().map(|r| r.voxel_updates).sum();
        let interior: u64 = runs.iter().map(|r| r.interior_updates).sum();
        let faces = updates - interior;
        // Work model: 19 FLOPs per stencil update. Interior updates
        // stream 2 words/voxel (read the center row once, write once —
        // the six neighbor rows ride the sweep's three hot planes in
        // cache); wall voxels get no reuse credit and touch all 8
        // words. The f32 path halves the word size.
        let word = if precision == Precision::F64 {
            8.0
        } else {
            4.0
        };
        vec![OpRecord {
            name: self.name().into(),
            wall_s: t.elapsed().as_secs_f64(),
            phases: vec![Phase {
                name: "diffusion",
                flops: 19.0 * updates as f64,
                bytes: word * (2.0 * interior as f64 + 8.0 * faces as f64),
                random_accesses: 0.0,
                parallel: true,
                fp64: precision == Precision::F64,
            }],
            gpu: None,
        }]
    }
}
