//! The mechanical interactions operation — the paper's bottleneck (§III).
//!
//! The CPU paths run in the three sub-phases the paper profiles in
//! Fig. 3:
//!
//! 1. **build** — construct the neighborhood structure (kd-tree: serial;
//!    uniform grid: serial or parallel);
//! 2. **search** — update each agent's neighbor list by radius query
//!    (36 % of the baseline runtime);
//! 3. **force** — evaluate Eq. 1 over each agent's candidates and
//!    integrate the displacements (51 % of the baseline runtime).
//!
//! The paper swaps the structure that answers "who is near agent *i*"
//! under an unchanged Eq. 1, and so does this module: every CPU path
//! builds its structure, then runs the one `force_sweep` over a
//! partition of its displacement buffer.
//!
//! * The kd-tree and the linked-list grid are swept **agent by agent** in
//!   storage order: a `NeighborSource` per part (cached kd lists,
//!   successor chains) feeds the generic scalar `f64` body
//!   (`scalar_lanes`), the one host call site of
//!   `interaction::collision_force`.
//! * The CSR grid is swept **voxel by voxel** — the paper's last kernel
//!   (Improvement III: one block per voxel, its neighborhood staged once
//!   for all residents) as the host's unit of iteration. `cell_agents()`
//!   *is* the voxel-grouped order, rebuilt every step on the geometry the
//!   sweep uses, so a part of the global pass is a range of grid *slots*,
//!   walked non-empty voxel by non-empty voxel (`VoxelGroups`): the
//!   voxel's stencil is staged once (`LaneScratch::stage`), each resident
//!   is read *from the tile* (entry `center + rank`: no per-agent voxel
//!   lookup, no self load), displacements come back in slot order and
//!   `apply_displacements` maps slot → agent through `cell_agents()`.
//!   Storage order does not enter. The sharded driver walks the same
//!   groups in its own `(voxel, id)`-sorted storage order, so its parts
//!   stay agent ranges. Two lane bodies run under the walk, picked by
//!   `SimParams::precision`: `f64_lanes` (8-lane `f64`, bit for bit what
//!   `scalar_lanes` computes over the grid's x-runs — which survives as
//!   its test oracle) and `simd_lanes` (8-lane `f32`).
//!
//! The GPU path replaces all three phases with the offload pipeline of
//! `bdm-gpu`.
//!
//! Besides producing displacements, every phase reports a
//! [`bdm_device::cpu::Phase`] of *work counters* (FLOPs, bytes, random
//! accesses) derived from the genuinely executed algorithmic work — the
//! input to the Table I CPU timing model. The mapping constants are
//! documented on [`work_model`].

use crate::environment::{EnvironmentKind, GridLayout};
use crate::param::{Precision, SimParams};
use crate::rm::ResourceManager;
use crate::shard::ShardedEnvironment;
use bdm_device::cpu::Phase;
use bdm_gpu::pipeline::{GpuStepReport, MechanicalPipeline, SceneRef};
use bdm_grid::{CsrBuildScratch, CsrGrid, QueryCounters, UniformGrid};
use bdm_kdtree::KdTree;
use bdm_math::interaction;
use bdm_math::simd::{F32x8, F64x8, U32x8, LANES};
use bdm_math::{Aabb, Vec3};
use bdm_soa::{AgentId, F32Mirror, F32x4Mirror};
use rayon::prelude::*;
use std::time::Instant;

/// Work-model constants: how executed algorithmic events convert into the
/// bytes/random-access counters of the CPU timing model.
///
/// * a candidate distance test touches one agent's state: position (24 B)
///   plus diameter (8 B) ⇒ 32 B;
/// * a tree-node hop or a successor-link hop is one dependent random
///   access;
/// * the kd-tree build streams the point set once per level
///   (read + write ≈ 48 B per point per level) and is **serial**;
/// * the grid build streams each agent once (position read + two list
///   writes ≈ 60 B) with one scattered head update.
pub mod work_model {
    // ----- kd-tree pipeline (the BioDynaMo v0.0.9 baseline) -----
    // Calibration note: the baseline's per-event costs are deliberately
    // *heavier* than the lean uniform-grid pass below. The v0.0.9 kd
    // pipeline materializes per-agent neighbor lists (std::vector
    // appends), traverses pointer-linked tree nodes, and runs the force
    // pass through virtual behavior dispatch — which is why the authors'
    // tight fused uniform-grid rewrite beats it 2× even serially (§VI).

    /// Bytes per point per tree level during the (serial) kd build.
    pub const KD_BUILD_BYTES_PER_POINT_LEVEL: f64 = 48.0;
    /// FLOPs per point per level (comparisons/swaps) during the kd build.
    pub const KD_BUILD_FLOPS_PER_POINT_LEVEL: f64 = 4.0;
    /// FLOPs per candidate in the kd search (the distance test; traversal
    /// costs are captured by the random-access term).
    pub const KD_SEARCH_FLOPS_PER_CANDIDATE: f64 = 8.0;
    /// Bytes per candidate in the kd search (leaf-contiguous point data).
    pub const KD_SEARCH_BYTES_PER_CANDIDATE: f64 = 24.0;
    /// FLOPs-equivalent per stored neighbor in the list-based force pass
    /// (Eq. 1 plus virtual dispatch and AoS staging).
    pub const FORCE_FLOPS_PER_NEIGHBOR: f64 = 125.0;
    /// Bytes per stored neighbor in the list-based force pass.
    pub const FORCE_BYTES_PER_NEIGHBOR: f64 = 96.0;
    /// Bytes per agent of fixed force-phase traffic (own state + output).
    pub const FORCE_FIXED_BYTES_PER_AGENT: f64 = 120.0;
    /// FLOPs per agent of displacement integration.
    pub const FORCE_FIXED_FLOPS_PER_AGENT: f64 = 50.0;

    // ----- uniform-grid pipeline (the paper's §IV-A rewrite) -----

    /// Bytes per agent for the grid build (position read + list writes).
    pub const GRID_BUILD_BYTES_PER_AGENT: f64 = 60.0;
    /// FLOPs per tested candidate in the fused grid pass (distance test).
    pub const UG_FLOPS_PER_CANDIDATE: f64 = 12.0;
    /// Bytes per tested candidate in the fused grid pass.
    pub const UG_BYTES_PER_CANDIDATE: f64 = 32.0;
    /// FLOPs per contact in the fused grid pass (lean Eq. 1, no
    /// dispatch overhead — the pass was written for the paper).
    pub const UG_FLOPS_PER_CONTACT: f64 = 25.0;
    /// Fixed per-agent cost of the fused pass.
    pub const UG_FIXED_FLOPS_PER_AGENT: f64 = 15.0;
    /// Fixed per-agent bytes of the fused pass (own state + output).
    pub const UG_FIXED_BYTES_PER_AGENT: f64 = 80.0;

    // ----- CSR uniform-grid pipeline (post-paper layout) -----
    // The counting-sort build streams the agents twice (position read +
    // voxel-id write, then voxel-id read + id scatter) instead of doing
    // one scattered list-head update per agent, and queries read each
    // voxel's ids as one contiguous slice instead of chasing successor
    // links — so the CSR constants shift cost out of the
    // `random_accesses` term and into streaming bytes.

    /// Bytes per agent of the CSR counting-sort build: pass 1 reads the
    /// position (24 B) and writes the voxel id (4 B); pass 2 re-reads the
    /// voxel id (4 B), reads a cursor (4 B), and writes the agent id
    /// (4 B); prefix-scan traffic amortizes to ~4 B.
    pub const CSR_BUILD_BYTES_PER_AGENT: f64 = 44.0;
    /// Scattered accesses per agent during the build: the histogram and
    /// cursor updates hit a `num_boxes`-sized array that is mostly
    /// cache-resident, so only a fraction goes to memory.
    pub const CSR_BUILD_RANDOM_PER_AGENT: f64 = 0.125;
    /// Bytes per agent of a *skipped* incremental rebuild: pass 1 still
    /// reads the position (24 B) and writes the voxel id (4 B), plus the
    /// slot check's read of it (4 B); the counting sort never runs.
    pub const CSR_BUILD_SKIP_BYTES_PER_AGENT: f64 = 32.0;
    /// FLOPs per tested candidate (the same distance test as the
    /// linked-list pass).
    pub const CSR_FLOPS_PER_CANDIDATE: f64 = 12.0;
    /// Bytes per tested candidate: streamed id (4 B) + gathered position
    /// (24 B) + diameter (8 B). No successor link.
    pub const CSR_BYTES_PER_CANDIDATE: f64 = 36.0;
    /// Dependent accesses per scanned stencil voxel: the 27-voxel stencil
    /// is 9 contiguous x-runs of 3 voxels, so only every third voxel
    /// starts a new stream (vs. one list-head chase per voxel for the
    /// linked list).
    pub const CSR_RANDOM_PER_BOX: f64 = 1.0 / 3.0;

    // ----- mixed-precision SIMD CSR pass (paper Improvement I, on the
    // CPU): same candidate enumeration as the CSR pass above, but the
    // gathered per-candidate state narrows to f32 — the memory-bound
    // gather term halves, which is exactly the Improvement I mechanism.

    /// Bytes per tested candidate of the f32 pass: streamed id (4 B) +
    /// gathered f32 position (12 B) + f32 diameter (4 B).
    pub const SIMD_BYTES_PER_CANDIDATE: f64 = 20.0;
    /// Fixed per-agent bytes of the f32 pass: own f32 state (20 B,
    /// position + diameter + adherence) + f64 displacement write (24 B).
    pub const SIMD_FIXED_BYTES_PER_AGENT: f64 = 44.0;
    /// Bytes per element of the f32 mirror refresh: one f64 read (8 B) +
    /// one f32 write (4 B).
    pub const SIMD_REFRESH_BYTES_PER_ELEMENT: f64 = 12.0;
}

/// Deterministic statistics of the mixed-precision SIMD pass — exact
/// functions of the trajectory and the batching geometry, so they are
/// gateable benchmark metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimdWork {
    /// Valid (non-self) candidate lanes processed through 8-wide vector
    /// batches. Every candidate rides a lane, so this equals the pass's
    /// candidate count.
    pub lanes_utilized: u64,
    /// Lanes spent on self-id padding: each agent's last partial batch
    /// is filled with its own id, whose lanes the self mask discards —
    /// a masked load built from the mask the kernel already computes.
    /// `lanes_utilized / (lanes_utilized + pad_lanes)` is the pass's
    /// lane-occupancy ratio.
    pub pad_lanes: u64,
    /// `f64 → f32` mirror elements re-converted this step; `0` for every
    /// column whose dirty epoch did not advance since the previous step.
    pub refresh_copies: u64,
}

/// Outcome of one mechanical step. The default is the empty outcome (no
/// agents, nothing ran).
#[derive(Debug, Clone, Default)]
pub struct MechWork {
    /// Work phases for the CPU timing model (empty for the GPU path —
    /// its cost lives in [`MechWork::gpu`]).
    pub phases: Vec<Phase>,
    /// Wall-clock seconds on this host, aligned with [`MechWork::phases`].
    pub wall_s: Vec<f64>,
    /// GPU offload report (GPU environment only).
    pub gpu: Option<GpuStepReport>,
    /// Candidates distance-tested.
    pub candidates: u64,
    /// Contacts that produced a force.
    pub contacts: u64,
    /// Neighbors found (within the interaction radius).
    pub neighbors: u64,
    /// Mean absolute index distance between an agent and each candidate
    /// its 27-voxel stencil tested — the storage-locality figure the
    /// host reorder operation minimizes (small gap ⇒ neighbor gathers
    /// hit nearby cache lines). Measured by the fused CSR pass; `None`
    /// on the other paths.
    pub index_gap: Option<f64>,
    /// Voxel stencils the CSR walk staged (either precision; `None` off
    /// CSR): the non-empty voxels, plus one for every part boundary that
    /// splits a voxel's residents — a function of the grid and the cut
    /// set, never of storage order. See [`Self::stencil_reuse`].
    pub stencils_staged: Option<u64>,
    /// SIMD-path statistics; `None` for every scalar/GPU path.
    pub simd: Option<SimdWork>,
    /// `1` when the CSR grid rebuild was skipped this step because no
    /// agent changed voxel (incremental maintenance); `0` on every
    /// rebuild and on the non-CSR paths.
    pub csr_rebuilds_skipped: u64,
}

impl MechWork {
    /// The offload path's outcome: no host phases or counters — the
    /// step's cost lives in the report.
    fn offloaded(report: GpuStepReport) -> Self {
        Self {
            gpu: Some(report),
            ..Self::default()
        }
    }

    /// Mean neighbors per agent — the paper's density metric `n`.
    pub fn mean_density(&self, agents: usize) -> f64 {
        if agents == 0 {
            0.0
        } else {
            self.neighbors as f64 / agents as f64
        }
    }

    /// `1 − stencils_staged / agents`: the share of the pass's agents
    /// that ran on a candidate tile a fellow resident of their voxel had
    /// already staged — `1 − 1 / occupancy` of the non-empty voxels, up
    /// to the part splits.
    pub fn stencil_reuse(&self, agents: usize) -> Option<f64> {
        let staged = self.stencils_staged?;
        Some(1.0 - staged as f64 / agents as f64)
    }

    /// Publish the step's work counters and per-phase breakdown into a
    /// metrics registry under an `env` label. The algorithmic counters
    /// (candidates/contacts/neighbors, phase FLOPs/bytes) are exact
    /// functions of the trajectory and gateable; the per-phase host wall
    /// seconds ride along as informational gauges.
    pub fn publish_metrics(&self, env: &str, reg: &mut bdm_metrics::MetricsRegistry) {
        let labels = [("env", env)];
        reg.inc_counter("mech.candidates", &labels, self.candidates as f64);
        reg.inc_counter("mech.contacts", &labels, self.contacts as f64);
        reg.inc_counter("mech.neighbors", &labels, self.neighbors as f64);
        reg.inc_counter(
            "mech.csr_rebuilds_skipped",
            &labels,
            self.csr_rebuilds_skipped as f64,
        );
        if let Some(gap) = self.index_gap {
            reg.set_gauge("mech.csr_index_gap", &labels, gap);
        }
        if let Some(staged) = self.stencils_staged {
            // One series per lane body, under the name the f32 one
            // already had.
            let name = match self.simd {
                Some(_) => "mech.simd_stencils_staged",
                None => "mech.stencils_staged",
            };
            reg.inc_counter(name, &labels, staged as f64);
        }
        if let Some(simd) = &self.simd {
            reg.inc_counter(
                "mech.simd_lanes_utilized",
                &labels,
                simd.lanes_utilized as f64,
            );
            reg.inc_counter("mech.simd_pad_lanes", &labels, simd.pad_lanes as f64);
            reg.inc_counter(
                "mech.f32_refresh_copies",
                &labels,
                simd.refresh_copies as f64,
            );
        }
        for (i, phase) in self.phases.iter().enumerate() {
            let labels = [("env", env), ("phase", phase.name)];
            reg.inc_counter("mech.phase_flops", &labels, phase.flops);
            reg.inc_counter("mech.phase_bytes", &labels, phase.bytes);
            reg.inc_counter("mech.phase_random_accesses", &labels, phase.random_accesses);
            if let Some(wall) = self.wall_s.get(i) {
                reg.observe("mech.phase_wall_s", &labels, *wall);
            }
        }
        if let Some(gpu) = &self.gpu {
            gpu.publish_metrics(&labels, reg);
        }
    }
}

/// Interaction radius policy: explicit override or largest diameter.
pub fn interaction_radius(rm: &ResourceManager, params: &SimParams) -> f64 {
    params
        .interaction_radius
        .unwrap_or_else(|| rm.largest_diameter())
        .max(1e-9)
}

/// Reusable per-step working memory for the CPU mechanical paths: the
/// per-agent displacement buffer every sweep writes into, plus the CSR
/// path's grid arrays, counting-sort build scratch and f32 mirrors, all
/// persist across steps, so a steady-state CSR step allocates nothing.
/// The [`crate::Simulation`] owns one of these for its lifetime;
/// one-shot callers can pass a fresh default.
#[derive(Default)]
pub struct MechScratch {
    /// Global CSR grid, rebuilt in place every unsharded step.
    csr: Option<CsrGrid<f64>>,
    /// Counting-sort working memory (voxel ids + chunk histograms).
    build: CsrBuildScratch,
    /// Per-agent displacements of the force sweep (every CPU path,
    /// sharded or not).
    disp: Vec<Vec3<f64>>,
    /// `f32` shadows of the hot columns for the mixed-precision pass,
    /// refreshed lazily on the resource manager's dirty epochs. Epochs
    /// are compared by value, so one scratch must stay with one
    /// simulation for its lifetime (the `Simulation` owns its scratch,
    /// which enforces this).
    mirrors: SimdMirrors,
    /// The 8-lane body's stage and pass buffers, one per sweep part.
    lanes: Vec<LaneScratch>,
}

/// The `f64 → f32` shadows the SIMD pass gathers from: a packed
/// `[x, y, z, diameter]` record mirror (the per-candidate gather is one
/// 16-byte load instead of four scattered column touches — the CPU
/// `float4` idiom of the paper's GPU kernels), plus a plain adherence
/// column read once per agent. The packed record spans two dirty-epoch
/// families (positions and attributes) and re-converts whole when either
/// moves.
#[derive(Default)]
struct SimdMirrors {
    posd: F32x4Mirror,
    adh: F32Mirror,
}

impl SimdMirrors {
    /// Bring every mirror up to date; returns total component
    /// conversions (0 when all epochs are unchanged — e.g. a frozen
    /// scene).
    fn refresh(&mut self, rm: &ResourceManager) -> u64 {
        let (xs, ys, zs) = rm.position_columns();
        let pos_epoch = rm.positions_epoch();
        let attr_epoch = rm.attributes_epoch();
        self.posd
            .refresh(pos_epoch, attr_epoch, xs, ys, zs, rm.diameter_column())
            + self.adh.refresh(attr_epoch, rm.adherence_column())
    }
}

/// Execute one mechanical interactions step with the chosen environment,
/// applying the resulting displacements to the agents.
///
/// Convenience wrapper over [`mechanical_step_with_scratch`] that pays
/// the buffer allocations every call; loops should hold a
/// [`MechScratch`] instead.
pub fn mechanical_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    env: &EnvironmentKind,
    pipeline: Option<&mut MechanicalPipeline>,
) -> MechWork {
    mechanical_step_with_scratch(rm, params, env, pipeline, &mut MechScratch::default())
}

/// [`mechanical_step`] with caller-owned reusable buffers.
pub fn mechanical_step_with_scratch(
    rm: &mut ResourceManager,
    params: &SimParams,
    env: &EnvironmentKind,
    pipeline: Option<&mut MechanicalPipeline>,
    scratch: &mut MechScratch,
) -> MechWork {
    mechanical_step_sharded(rm, params, env, pipeline, scratch, None)
}

/// [`mechanical_step_with_scratch`] for a simulation that may own a
/// sharded driver. Shards apply where per-voxel id slices shard
/// losslessly — the CSR environments, at either precision; kd,
/// linked-list and GPU environments run their one global pass.
pub(crate) fn mechanical_step_sharded(
    rm: &mut ResourceManager,
    params: &SimParams,
    env: &EnvironmentKind,
    pipeline: Option<&mut MechanicalPipeline>,
    scratch: &mut MechScratch,
    shards: Option<&mut ShardedEnvironment>,
) -> MechWork {
    if rm.is_empty() {
        return MechWork::default();
    }
    match env {
        EnvironmentKind::KdTree => cpu_kdtree_step(rm, params, scratch),
        EnvironmentKind::UniformGrid {
            layout: GridLayout::LinkedList,
            parallel,
        } => cpu_grid_step(rm, params, *parallel, scratch),
        EnvironmentKind::UniformGrid {
            layout: GridLayout::Csr,
            parallel,
        } => match shards {
            Some(shards) => shards.step(rm, params, *parallel, scratch),
            None => cpu_grid_csr_step(rm, params, *parallel, scratch),
        },
        EnvironmentKind::Gpu { .. } => {
            let pipeline = pipeline.expect("GPU environment requires a pipeline");
            gpu_step(rm, params, pipeline)
        }
    }
}

/// The question the paper swaps answers to (§IV): which agents might be
/// within the interaction radius of agent `i`? One implementation per
/// structure; the force sweep is written once against this.
trait NeighborSource: Sync {
    /// `true` when every yielded id is already known to be within the
    /// radius (cached neighbor lists): the sweep skips its distance gate.
    const WITHIN_RADIUS: bool = false;

    /// Visit the candidate ids of agent `i` at `p` (the lanes skip `i`
    /// itself) in the source's fixed order — the agent's f64
    /// accumulation order. Returns the voxels scanned.
    fn for_each_candidate(&self, i: usize, p: Vec3<f64>, visit: impl FnMut(usize)) -> u64;
}

/// Agents per part of a global (unsharded) sweep. Fixed (not derived
/// from the thread count) so the sweep is chunked identically no matter
/// how rayon schedules it; each agent's FP64 accumulation is independent,
/// so the displacements are bitwise reproducible across serial and
/// parallel runs.
pub(crate) const CSR_PASS_CHUNK: usize = 4 * 1024;

/// Cut points of the global sweep: `0..n` every [`CSR_PASS_CHUNK`].
fn chunk_cuts(n: usize) -> Vec<usize> {
    (0..n).step_by(CSR_PASS_CHUNK).chain([n]).collect()
}

/// The neighbor lists of one [`CSR_PASS_CHUNK`]-agent chunk, flat: agent
/// `base + k` owns `ids[offsets[k]..offsets[k + 1]]`. One buffer pair
/// per chunk instead of one `Vec` per agent — a worker thread then
/// allocates twice per 4 Ki agents, not once per agent for the caller to
/// free.
struct ChunkLists {
    base: usize,
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl NeighborSource for ChunkLists {
    const WITHIN_RADIUS: bool = true;

    #[inline]
    fn for_each_candidate(&self, i: usize, _p: Vec3<f64>, mut visit: impl FnMut(usize)) -> u64 {
        let k = i - self.base;
        for &j in &self.ids[self.offsets[k] as usize..self.offsets[k + 1] as usize] {
            visit(j as usize);
        }
        0
    }
}

/// The Fig. 5 linked list: 27 head lookups, then one dependent successor
/// hop per candidate.
impl NeighborSource for UniformGrid<f64> {
    #[inline]
    fn for_each_candidate(&self, _i: usize, p: Vec3<f64>, mut visit: impl FnMut(usize)) -> u64 {
        let boxes = self.neighbor_boxes(p);
        let scanned = boxes.len() as u64;
        for flat in boxes {
            self.for_each_in_box(flat, |id| visit(id.index()));
        }
        scanned
    }
}

/// The stencil as ≤ 9 contiguous id slices (x-adjacent voxels
/// concatenate in the x-major CSR order), per agent: the candidate
/// sequence [`LaneScratch::stage`] concatenates once per voxel. The CSR
/// sweep no longer comes through here — this feeds [`scalar_lanes`] as
/// the oracle of the staged `f64` body.
#[cfg(test)]
impl NeighborSource for CsrGrid<f64> {
    #[inline]
    fn for_each_candidate(&self, _i: usize, p: Vec3<f64>, mut visit: impl FnMut(usize)) -> u64 {
        let mut scanned = 0u64;
        for (first, count) in self.geometry().x_runs(p) {
            scanned += count as u64;
            for id in self.run_range(first, count) {
                visit(id.index());
            }
        }
        scanned
    }
}

/// An empty CSR grid for a scratch slot to rebuild in place.
pub(crate) fn empty_csr(space: Aabb<f64>, radius: f64) -> CsrGrid<f64> {
    CsrGrid::build_serial(&[], &[], &[], space, radius)
}

/// What one part of a sweep counted. Integer sums, so any partition of
/// the agents reduces to the same totals.
#[derive(Default)]
struct SweepStats {
    counters: QueryCounters,
    contacts: u64,
    gap_sum: u64,
    /// Voxel stencils staged (the CSR walk). Alone among these it counts
    /// something per part: a cut that splits a voxel's residents stages
    /// that voxel on both sides.
    staged: u64,
    simd: SimdWork,
}

/// The modeled flavour of a sweep: which work-model constants price its
/// force phase, and which statistics its [`MechWork`] reports.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ForceModel {
    /// Cached kd neighbor lists (the v0.0.9 baseline's force pass).
    Lists,
    /// Fused pass over the linked-list grid.
    LinkedList,
    /// Fused pass over CSR runs, scalar f64.
    Csr,
    /// Fused pass over CSR runs, 8-lane f32.
    CsrF32,
}

/// How a sweep tiles its displacement buffer: part `c` writes entries
/// `cuts[c]..cuts[c + 1]`, and entry `k` moves agent `agent_of[k]` —
/// `None` when the buffer is in storage order (entry `k` is agent `k`).
#[derive(Clone, Copy)]
struct SweepParts<'a> {
    cuts: &'a [usize],
    agent_of: Option<&'a [AgentId]>,
}

impl<'a> SweepParts<'a> {
    /// Parts of a buffer in storage order.
    fn of_storage(cuts: &'a [usize]) -> Self {
        Self {
            cuts,
            agent_of: None,
        }
    }
}

/// The one host force sweep. Splits the displacement buffer at
/// `parts.cuts` (a tiling of `0..n`), runs `lanes(agents, part, first
/// entry, part's slice, part's lane scratch)` on every part as its own
/// rayon task (the scratch persists across steps; only the CSR bodies use
/// it), sums the statistics, integrates, and builds the step's
/// [`MechWork`] — the one place the force phase is priced. `timed` holds
/// the phases that already ran (build, search, shard sort, mirror
/// refresh) with their wall clocks; `parallel` is the force phase's flag
/// in the machine model. The sweep's own wall clock stops before
/// integration, on every path.
///
/// Per-agent results are independent writes into disjoint slices and the
/// statistics are integer sums, so neither the partition (every
/// [`CSR_PASS_CHUNK`] globally, the shard ranges when sharded) nor the
/// schedule can affect a displacement bit or a modeled counter
/// ([`MechWork::stencils_staged`] alone counts something per part).
fn force_sweep(
    rm: &mut ResourceManager,
    (disp, lane_scratch): (&mut Vec<Vec3<f64>>, &mut Vec<LaneScratch>),
    mut timed: Vec<(Phase, f64)>,
    parts: SweepParts<'_>,
    model: ForceModel,
    parallel: bool,
    lanes: impl Fn(&ResourceManager, usize, usize, &mut [Vec3<f64>], &mut LaneScratch) -> SweepStats
        + Sync,
) -> MechWork {
    let t = Instant::now();
    disp.clear();
    disp.resize(rm.len(), Vec3::zero());
    let SweepParts { cuts, agent_of } = parts;
    let parts = cuts.len().saturating_sub(1);
    if lane_scratch.len() < parts {
        lane_scratch.resize_with(parts, LaneScratch::default);
    }
    let agents = &*rm;
    let parts: Vec<SweepStats> = bdm_soa::split_mut_at(disp, cuts)
        .into_par_iter()
        .zip(lane_scratch[..parts].par_iter_mut())
        .enumerate()
        .map(|(part, (out, slot))| {
            // The part runs on a stack copy of its scratch: the `Vec`
            // headers in `lane_scratch` are adjacent, so a body that
            // wrote one per stage (a `clear`, a `resize`) would trade
            // its cache line with the worker on the next part all sweep
            // long. Today's stages only write a header when a buffer
            // grows; this keeps the sweep indifferent to that. The
            // buffers go back afterwards, so capacities persist.
            let mut lane = std::mem::take(slot);
            let stats = lanes(agents, part, cuts[part], out, &mut lane);
            *slot = lane;
            stats
        })
        .collect();
    let wall_sweep = t.elapsed().as_secs_f64();
    let mut stats = SweepStats::default();
    for s in &parts {
        stats.counters.merge(&s.counters);
        stats.contacts += s.contacts;
        stats.gap_sum += s.gap_sum;
        stats.simd.lanes_utilized += s.simd.lanes_utilized;
        stats.simd.pad_lanes += s.simd.pad_lanes;
        stats.staged += s.staged;
    }
    apply_displacements(rm, disp, agent_of);

    use work_model as wm;
    let n = rm.len() as f64;
    let candidates = stats.counters.points_tested as f64;
    let contacts = stats.contacts as f64;
    let neighbors = stats.counters.neighbors_found as f64;
    let boxes = stats.counters.boxes_scanned as f64;
    let fused_flops = |per_candidate: f64| {
        per_candidate * candidates
            + wm::UG_FLOPS_PER_CONTACT * contacts
            + wm::UG_FIXED_FLOPS_PER_AGENT * n
    };
    let (flops, bytes, random_accesses) = match model {
        ForceModel::Lists => (
            wm::FORCE_FLOPS_PER_NEIGHBOR * neighbors + wm::FORCE_FIXED_FLOPS_PER_AGENT * n,
            wm::FORCE_BYTES_PER_NEIGHBOR * neighbors + wm::FORCE_FIXED_BYTES_PER_AGENT * n,
            neighbors,
        ),
        ForceModel::LinkedList => (
            fused_flops(wm::UG_FLOPS_PER_CANDIDATE),
            wm::UG_BYTES_PER_CANDIDATE * candidates + wm::UG_FIXED_BYTES_PER_AGENT * n,
            boxes,
        ),
        ForceModel::Csr => (
            fused_flops(wm::CSR_FLOPS_PER_CANDIDATE),
            wm::CSR_BYTES_PER_CANDIDATE * candidates + wm::UG_FIXED_BYTES_PER_AGENT * n,
            wm::CSR_RANDOM_PER_BOX * boxes,
        ),
        ForceModel::CsrF32 => (
            fused_flops(wm::CSR_FLOPS_PER_CANDIDATE),
            wm::SIMD_BYTES_PER_CANDIDATE * candidates + wm::SIMD_FIXED_BYTES_PER_AGENT * n,
            wm::CSR_RANDOM_PER_BOX * boxes,
        ),
    };
    let forces = Phase {
        name: "mechanical forces",
        flops,
        bytes,
        random_accesses,
        parallel,
        fp64: model != ForceModel::CsrF32,
    };
    timed.push((forces, wall_sweep));
    let (phases, wall_s) = timed.into_iter().unzip();
    let csr = matches!(model, ForceModel::Csr | ForceModel::CsrF32);
    MechWork {
        phases,
        wall_s,
        candidates: stats.counters.points_tested,
        contacts: stats.contacts,
        neighbors: stats.counters.neighbors_found,
        index_gap: (csr && stats.counters.points_tested > 0)
            .then(|| stats.gap_sum as f64 / candidates),
        stencils_staged: csr.then_some(stats.staged),
        simd: (model == ForceModel::CsrF32).then_some(stats.simd),
        ..Default::default()
    }
}

/// Move agent `agent_of[k]` (agent `k` when `None`) by `disp[k]`.
fn apply_displacements(rm: &mut ResourceManager, disp: &[Vec3<f64>], agent_of: Option<&[AgentId]>) {
    let mut translate = |i: usize, d: Vec3<f64>| {
        if d != Vec3::zero() {
            rm.translate(i, d);
        }
    };
    match agent_of {
        None => disp.iter().enumerate().for_each(|(i, &d)| translate(i, d)),
        Some(agents) => {
            debug_assert_eq!(agents.len(), disp.len());
            agents
                .iter()
                .zip(disp)
                .for_each(|(id, &d)| translate(id.index(), d))
        }
    }
}

/// Scalar `f64` lanes: Eq. 1 over the candidates of agents
/// `base..base + out.len()`, from any source, accumulated in the
/// source's candidate order. The grid pipelines never materialize
/// neighbor lists — scan and force fuse here, the same structure the GPU
/// kernel uses, and why the UG rewrite beats the kd pipeline even
/// serially (§VI).
fn scalar_lanes<S: NeighborSource>(
    rm: &ResourceManager,
    params: &SimParams,
    source: &S,
    base: usize,
    out: &mut [Vec3<f64>],
) -> SweepStats {
    let (xs, ys, zs) = rm.position_columns();
    let (diam, adh, mech) = (rm.diameter_column(), rm.adherence_column(), &params.mech);
    let radius = interaction_radius(rm, params);
    let r2 = radius * radius;
    let mut counters = QueryCounters::default();
    let mut contacts = 0u64;
    let mut gap_sum = 0u64;
    for (k, slot) in out.iter_mut().enumerate() {
        let i = base + k;
        let p1 = Vec3::new(xs[i], ys[i], zs[i]);
        let r1 = diam[i] * 0.5;
        let mut force = Vec3::zero();
        counters.boxes_scanned += source.for_each_candidate(i, p1, |j| {
            if j == i {
                return;
            }
            counters.points_tested += 1;
            gap_sum += i.abs_diff(j) as u64;
            let p2 = Vec3::new(xs[j], ys[j], zs[j]);
            if S::WITHIN_RADIUS || (p2 - p1).norm_squared() <= r2 {
                counters.neighbors_found += 1;
                if let Some(f) = interaction::collision_force(
                    p1,
                    r1,
                    p2,
                    diam[j] * 0.5,
                    mech.repulsion,
                    mech.attraction,
                ) {
                    force += f;
                    contacts += 1;
                }
            }
        });
        *slot = interaction::displacement(force, adh[i], mech);
    }
    SweepStats {
        counters,
        contacts,
        gap_sum,
        ..Default::default()
    }
}

/// One step of the CSR walk: residents `ranks` (positions inside
/// `grid.cell_range(voxel)`) of one non-empty voxel, all of them unless a
/// part boundary splits the voxel.
struct VoxelGroup {
    /// The voxel's flat index and its coordinates.
    voxel: usize,
    coords: [u32; 3],
    ranks: std::ops::Range<usize>,
}

/// The CSR walk: one sweep part as the non-empty voxels it covers, in
/// order, each with the residents the part owns. The lane bodies stage a
/// voxel's stencil once per group and read every resident *from the
/// tile*, so nothing in them depends on where an agent sits in storage.
struct VoxelGroups<'a> {
    grid: &'a CsrGrid<f64>,
    /// The part still to walk (see [`GroupOrder`] for what it indexes).
    next: usize,
    end: usize,
    order: GroupOrder<'a>,
}

enum GroupOrder<'a> {
    /// `next..end` are slots of `grid.cell_agents()` — the global pass,
    /// whose displacements come back in slot order. `voxel` (at
    /// `coords`, stepped along with it: no division per voxel) is at or
    /// before the voxel holding slot `next`.
    Slots { voxel: usize, coords: [u32; 3] },
    /// `next..end` are agents of storage sorted by `(voxel, id)` with
    /// these position columns — a shard's owned range under its
    /// shard-local grid, whose `cell_agents()` also holds halo members a
    /// slot walk would have to skip. Each voxel's residents are then the
    /// consecutive agents `next..next + cell_range(voxel).len()`.
    SortedStorage(&'a [f64], &'a [f64], &'a [f64]),
}

impl<'a> VoxelGroups<'a> {
    fn of_slots(grid: &'a CsrGrid<f64>, slots: std::ops::Range<usize>) -> Self {
        // The last voxel starting at or before the first slot.
        let starts = grid.cell_starts();
        let voxel = starts.partition_point(|&s| s as usize <= slots.start);
        let voxel = voxel.saturating_sub(1);
        let coords = grid.geometry().coords_of(voxel);
        Self {
            grid,
            next: slots.start,
            end: slots.end,
            order: GroupOrder::Slots { voxel, coords },
        }
    }

    fn of_sorted_storage(
        grid: &'a CsrGrid<f64>,
        (xs, ys, zs): (&'a [f64], &'a [f64], &'a [f64]),
        agents: std::ops::Range<usize>,
    ) -> Self {
        Self {
            grid,
            next: agents.start,
            end: agents.end,
            order: GroupOrder::SortedStorage(xs, ys, zs),
        }
    }
}

impl Iterator for VoxelGroups<'_> {
    type Item = VoxelGroup;

    fn next(&mut self) -> Option<VoxelGroup> {
        if self.next >= self.end {
            return None;
        }
        match &mut self.order {
            GroupOrder::Slots { voxel, coords } => {
                let starts = self.grid.cell_starts();
                let [dx, dy, _] = self.grid.dims();
                while starts[*voxel + 1] as usize <= self.next {
                    *voxel += 1;
                    let [cx, cy, cz] = coords;
                    *cx += 1;
                    if *cx == dx {
                        (*cx, *cy) = (0, *cy + 1);
                        if *cy == dy {
                            (*cy, *cz) = (0, *cz + 1);
                        }
                    }
                }
                let first = starts[*voxel] as usize;
                let last = self.end.min(starts[*voxel + 1] as usize);
                let ranks = self.next - first..last - first;
                self.next = last;
                Some(VoxelGroup {
                    voxel: *voxel,
                    coords: *coords,
                    ranks,
                })
            }
            GroupOrder::SortedStorage(xs, ys, zs) => {
                let i = self.next;
                let geometry = self.grid.geometry();
                let coords = geometry.box_coords(Vec3::new(xs[i], ys[i], zs[i]));
                let voxel = geometry.flat_index(coords[0], coords[1], coords[2]);
                let residents = self.grid.cell_range(voxel);
                // Always on: an agent missing from its own voxel would
                // stall the walk, not just mis-stage it.
                assert_eq!(
                    residents.first().map(|id| id.index()),
                    Some(i),
                    "storage is not sorted by (voxel, id)"
                );
                debug_assert!(
                    i + residents.len() <= self.end
                        && residents
                            .iter()
                            .map(|id| id.index())
                            .eq(i..i + residents.len()),
                    "voxel {voxel} is not the agent run starting at {i}"
                );
                self.next = i + residents.len();
                Some(VoxelGroup {
                    voxel,
                    coords,
                    ranks: 0..residents.len(),
                })
            }
        }
    }
}

/// One sweep part's working memory for the CSR lane bodies: the staged
/// voxel stencil and what passes between a body's two passes. Held per
/// part by [`MechScratch`], so a steady-state step allocates none of it.
/// Every column is grow-only and only read below the staged tile's
/// padded length.
#[derive(Default)]
struct LaneScratch {
    /// Candidate ids of the staged stencil — its ≤ 9 x-runs concatenated
    /// in run order (the scalar pass's candidate sequence) — padded to a
    /// [`LANES`] multiple ([`Tile::padded`]; the buffer itself is
    /// grow-only like the columns).
    ids: Vec<u32>,
    /// `f32` body: the candidates' `[x, y, z, diameter]` records,
    /// gathered once per stage and transposed into columns, so pass A
    /// loads contiguously.
    px: Vec<f32>,
    py: Vec<f32>,
    pz: Vec<f32>,
    dj: Vec<f32>,
    /// `f32` body: per-candidate force contributions, written by pass A
    /// and read back by pass B (pass A overwrites every slot pass B
    /// reads).
    fx: Vec<f32>,
    fy: Vec<f32>,
    fz: Vec<f32>,
    /// `f64` body: the candidates' positions, gathered once per stage.
    wx: Vec<f64>,
    wy: Vec<f64>,
    wz: Vec<f64>,
    /// `f64` body: tile positions of the candidates inside the radius,
    /// in candidate order — pass 1's output, pass 2's input.
    near: Vec<u32>,
}

/// What [`LaneScratch::stage`] staged.
struct Tile {
    /// Candidates, and the [`LANES`] multiple they are padded to.
    len: usize,
    padded: usize,
    /// Voxels the stencil spans.
    boxes: u64,
    /// Tile position of the voxel's first resident: resident `rank` of
    /// `grid.cell_range(voxel)` *is* tile entry `center + rank`.
    center: usize,
}

/// Grow `col` to `len` elements; never shrinks it.
fn grow<T: Clone + Default>(col: &mut Vec<T>, len: usize) {
    if col.len() < len {
        col.resize(len, T::default());
    }
}

impl LaneScratch {
    /// Stage the candidate ids of a voxel's stencil — a function of the
    /// voxel alone.
    fn stage(&mut self, grid: &CsrGrid<f64>, group: &VoxelGroup) -> Tile {
        let (starts, voxel) = (grid.cell_starts(), group.voxel);
        let agents = bdm_soa::ids_as_raw(grid.cell_agents());
        let (mut len, mut boxes, mut center) = (0usize, 0u64, 0usize);
        for (first, count) in grid.geometry().x_runs_of(group.coords) {
            let last = first + count as usize;
            let (lo, hi) = (starts[first] as usize, starts[last] as usize);
            if (first..last).contains(&voxel) {
                center = len + starts[voxel] as usize - lo;
            }
            boxes += count as u64;
            // The run is copied a whole `LANES`-id block at a time, at
            // least one: it holds a handful of ids (none at all, mostly,
            // in a sparse scene), and nine `memcpy`s of unpredictable
            // length cost more than the tile's arithmetic. A block may
            // carry up to `LANES` ids past its run — real ids of the
            // voxels behind it — which the next run overwrites, or which
            // land in the pad lanes and the slack kept past them.
            grow(&mut self.ids, len + (hi - lo) + 2 * LANES);
            let mut from = lo;
            loop {
                let to = len + from - lo;
                let Some(block) = agents.get(from..from + LANES) else {
                    // The last ids of the array: exactly the run's rest.
                    self.ids[to..to + hi - from].copy_from_slice(&agents[from..hi]);
                    break;
                };
                self.ids[to..to + LANES].copy_from_slice(block);
                from += LANES;
                if from >= hi {
                    break;
                }
            }
            len += hi - lo;
        }
        let padded = len.next_multiple_of(LANES);
        // Pad lanes: any in-range id will do for the record gathered
        // under them; the lane bodies never let one count.
        self.ids[len..padded].fill(0);
        Tile {
            len,
            padded,
            boxes,
            center,
        }
    }

    /// [`Self::stage`] plus the candidates' `f32` records as columns.
    fn stage_f32(&mut self, grid: &CsrGrid<f64>, posd: &[[f32; 4]], group: &VoxelGroup) -> Tile {
        let tile = self.stage(grid, group);
        let padded = tile.padded;
        for col in [
            &mut self.px,
            &mut self.py,
            &mut self.pz,
            &mut self.dj,
            &mut self.fx,
            &mut self.fy,
            &mut self.fz,
        ] {
            grow(col, padded);
        }
        for off in (0..padded).step_by(LANES) {
            let idv = U32x8::from_slice(&self.ids[off..]);
            let [x, y, z, d] = F32x8::gather4(posd, idv);
            x.write_to_slice(&mut self.px[off..]);
            y.write_to_slice(&mut self.py[off..]);
            z.write_to_slice(&mut self.pz[off..]);
            d.write_to_slice(&mut self.dj[off..]);
        }
        tile
    }

    /// [`Self::stage`] plus the candidates' `f64` positions as columns.
    /// Diameters stay behind: only the candidates that pass the radius
    /// gate need one, and pass 2 gathers those by id.
    fn stage_f64(
        &mut self,
        grid: &CsrGrid<f64>,
        (xs, ys, zs): (&[f64], &[f64], &[f64]),
        group: &VoxelGroup,
    ) -> Tile {
        let tile = self.stage(grid, group);
        let padded = tile.padded;
        for col in [&mut self.wx, &mut self.wy, &mut self.wz] {
            grow(col, padded);
        }
        grow(&mut self.near, padded);
        for off in (0..padded).step_by(LANES) {
            let idv = U32x8::from_slice(&self.ids[off..]);
            F64x8::gather(xs, idv).write_to_slice(&mut self.wx[off..]);
            F64x8::gather(ys, idv).write_to_slice(&mut self.wy[off..]);
            F64x8::gather(zs, idv).write_to_slice(&mut self.wz[off..]);
        }
        tile
    }
}

/// 8-lane `f32` lanes — the paper's Improvement I (FP64→FP32) applied to
/// the CPU hot path, fed the way its Improvement III feeds a GPU block:
/// one staged candidate tile per voxel, shared by the voxel's residents.
///
/// Same candidate sequence per agent as the `f64` bodies over the same
/// f64 CSR build (candidate enumeration is bit-identical to the f64 path
/// — precision must never change *which* pairs are tested, only the test
/// arithmetic). How it runs:
///
/// * **the unit of iteration is the voxel.** `groups` is the part as
///   non-empty voxels ([`VoxelGroups`]); each is staged once
///   ([`LaneScratch::stage_f32`]: the ≤ 9 x-runs' ids concatenated, their
///   `f32` records gathered from the lazily refreshed mirrors with
///   [`F32x8::gather4`] and transposed into four contiguous columns) and
///   then swept resident by resident. A resident needs no lookup of its
///   own: it is tile entry `center + rank`, id and record both. This is
///   the paper's Improvement III, which *loses* 28 % on the GPU —
///   building the shared-memory tile there takes atomics and its boundary
///   checks diverge — and wins here, where one thread fills the tile with
///   plain stores and the agents that share it run one after another;
/// * **the pad lanes are the agent's.** The tile is padded to a
///   [`LANES`] multiple; each agent writes its own id into those ≤ 7
///   lanes before reading. Self lanes are discarded by the `valid` mask
///   anyway (the agent really is in its own stencil) before any
///   arithmetic on them is used, so a pad lane contributes exactly +0.0
///   force, 0 to every counter and |i − i| = 0 to the index gap
///   whatever record sits under it — there is no scalar tail path, and
///   `pad_lanes` and the gap are what padding a per-agent gather with
///   the self id produces, bit for bit;
/// * pass A runs Eq. 1 on contiguous 8-wide loads through the lane types
///   of [`bdm_math::simd`] and *stores* its contributions; pass B widens
///   and accumulates them **per lane in f64** ([`F64x8`]), reduced in
///   lane-index order. The accumulation order is a pure function of the
///   candidate sequence and the batching geometry — never of thread
///   scheduling, of how the agents are partitioned or of what was
///   staged when — so the path is bitwise deterministic (serial ≡
///   parallel ≡ sharded, run ≡ rerun). It *differs* from the f64 path
///   within the ±1e-5 per-step envelope pinned by
///   `tests/precision_claims.rs`, and because storage order changes
///   lane packing (hence rounding), f32 trajectories are also a function
///   of the reorder policy — unlike the f64 path, which is
///   reorder-invariant;
/// * displacement integration stays f64: `interaction::displacement`
///   over the f64-accumulated force, with the (f32-mirrored) adherence
///   widened back — the per-step tolerance budget is spent on the force
///   kernel, not on the integrator.
///
/// What the batch loop compiles to (x86-64-v3, `objdump` of the
/// benchmark binary; DESIGN §5.8 has the table). Per 8-lane batch the
/// per-agent-gather body retired 139 instructions — pass A 86, four of
/// them `vgatherdps`, pass B 53, mostly `vinsertps` / `vblendps` /
/// `vextractf128` re-packing scalarised lanes — in ≈ 17.7 ns on one
/// worker of this host. This body retires 84 (pass A 70 with no gather,
/// pass B 13.5: `vcvtps2pd` + `vaddpd` from memory) in ≈ 9.1 ns, and
/// the gathers run once per voxel. The loop is throughput-bound; its
/// instruction selection is pinned by the `avx2` bodies of the lane
/// ops, because left to the `[T; 8]` array loops LLVM scalarises the
/// four `U32x8` statistic accumulators across the batch loop and the
/// staged body comes out *slower* than the gather it replaces. Exact
/// IEEE `vsqrtps` / `vdivps` stay: a variant seeded by `vrsqrtps` /
/// `vrcpps` with one Newton step measured slower.
fn simd_lanes(
    rm: &ResourceManager,
    params: &SimParams,
    mirrors: &SimdMirrors,
    grid: &CsrGrid<f64>,
    groups: VoxelGroups<'_>,
    out: &mut [Vec3<f64>],
    lane: &mut LaneScratch,
) -> SweepStats {
    let posd = mirrors.posd.as_slice();
    let adh = mirrors.adh.as_slice();
    let mech = &params.mech;
    let radius = interaction_radius(rm, params);
    let rep32 = mech.repulsion as f32;
    let att32 = mech.attraction as f32;
    let r2f = (radius as f32) * (radius as f32);
    let halfv = F32x8::splat(0.5);
    let r2v = F32x8::splat(r2f);
    let repv = F32x8::splat(rep32);
    let attv = F32x8::splat(att32);
    let epsv = F32x8::splat(f32::EPSILON);
    let mut stats = SweepStats::default();
    let mut out = out.iter_mut();
    for group in groups {
        let tile = lane.stage_f32(grid, posd, &group);
        let (len, batched, boxes) = (tile.len, tile.padded, tile.boxes);
        stats.staged += 1;
        let residents = out.by_ref().take(group.ranks.len());
        for (t, slot) in (tile.center + group.ranks.start..).zip(residents) {
            stats.counters.boxes_scanned += boxes;
            let i = lane.ids[t];
            let q = Vec3::new(lane.px[t], lane.py[t], lane.pz[t]);
            let r1 = lane.dj[t] * 0.5f32;
            let iv = U32x8::splat(i);
            let (qx, qy, qz) = (F32x8::splat(q.x), F32x8::splat(q.y), F32x8::splat(q.z));
            let r1v = F32x8::splat(r1);
            let (mut ax, mut ay, mut az) = (F64x8::zero(), F64x8::zero(), F64x8::zero());
            // Per-agent statistic accumulators, vertical form: each batch
            // adds its masks as 0/1 lanes ([`M32x8::ones`], a `vpand` +
            // `vpaddd` per counter) and the horizontal reduction happens
            // once per agent. Lane sums stay far below u32 range for any
            // realistic stencil (counts gain ≤ 1 per batch; the index gap
            // is bounded by agent count per candidate, ≤ ~10⁹ per lane).
            let (mut lane_acc, mut neigh_acc, mut contact_acc) =
                (U32x8::splat(0), U32x8::splat(0), U32x8::splat(0));
            let mut gap_acc = U32x8::splat(0);
            // The tile's pad lanes take this agent's own id, which is all
            // `valid` looks at; the records under them are never used.
            lane.ids[len..batched].fill(i);
            stats.simd.pad_lanes += (batched - len) as u64;
            // Pin every buffer to exactly `batched` elements: the loop
            // bound then *proves* each 8-lane window is in range.
            let cs = &lane.ids[..batched];
            let (pxs, pys, pzs, djs) = (
                &lane.px[..batched],
                &lane.py[..batched],
                &lane.pz[..batched],
                &lane.dj[..batched],
            );
            let (fxs, fys, fzs) = (
                &mut lane.fx[..batched],
                &mut lane.fy[..batched],
                &mut lane.fz[..batched],
            );
            // Pass A: 8-wide f32 math, contributions *stored* rather than
            // accumulated here — six f64 accumulator registers live across
            // this loop would spill it.
            let mut off = 0usize;
            while off + LANES <= batched {
                let idv = U32x8::from_slice(&cs[off..off + LANES]);
                let valid = idv.ne(iv);
                let px = F32x8::from_slice(&pxs[off..off + LANES]);
                let py = F32x8::from_slice(&pys[off..off + LANES]);
                let pz = F32x8::from_slice(&pzs[off..off + LANES]);
                let dj = F32x8::from_slice(&djs[off..off + LANES]);
                let dx = qx - px;
                let dy = qy - py;
                let dz = qz - pz;
                let dist2 = dx * dx + dy * dy + dz * dz;
                let neighbor = dist2.le(r2v).and(valid);
                let rj = dj * halfv;
                let sum_r = r1v + rj;
                let dist = dist2.sqrt();
                // Eq. 1 evaluated unconditionally on every lane; the contact
                // mask (the scalar kernel's two early-outs plus the radius
                // gate) discards the NaN/inf garbage of non-contact lanes
                // bitwise. The two divisions fold into one algebraically:
                // with r_eff = r1·rj/sum_r,
                //   mag/dist = (rep·δ·sum_r − att·√(r1·rj·δ·sum_r))
                //              / (sum_r·dist)
                // because √(r_eff·δ)·sum_r = √(r1·rj·δ·sum_r).
                let contact = dist2.lt(sum_r * sum_r).and(dist.gt(epsv)).and(neighbor);
                let delta = sum_r - dist;
                let dsum = delta * sum_r;
                let inv = F32x8::splat(1.0) / (sum_r * dist);
                let scale = (repv * dsum - attv * ((r1v * rj) * dsum).sqrt()) * inv;
                let zero = F32x8::zero();
                contact
                    .select(dx * scale, zero)
                    .write_to_slice(&mut fxs[off..off + LANES]);
                contact
                    .select(dy * scale, zero)
                    .write_to_slice(&mut fys[off..off + LANES]);
                contact
                    .select(dz * scale, zero)
                    .write_to_slice(&mut fzs[off..off + LANES]);
                lane_acc = lane_acc + valid.ones();
                neigh_acc = neigh_acc + neighbor.ones();
                contact_acc = contact_acc + contact.ones();
                // The self lane contributes |i − i| = 0: no mask.
                gap_acc = gap_acc + idv.abs_diff(iv);
                off += LANES;
            }
            // Pass B: widen and accumulate the stored contributions in f64.
            // Lane assignment and reduce order are exactly pass A's, so the
            // result is bit-identical to a fused accumulate.
            let mut off2 = 0usize;
            while off2 + LANES <= batched {
                ax.accumulate(F32x8::from_slice(&fxs[off2..off2 + LANES]));
                ay.accumulate(F32x8::from_slice(&fys[off2..off2 + LANES]));
                az.accumulate(F32x8::from_slice(&fzs[off2..off2 + LANES]));
                off2 += LANES;
            }
            let lanes_n = lane_acc.reduce_sum();
            stats.counters.points_tested += lanes_n;
            stats.simd.lanes_utilized += lanes_n;
            stats.counters.neighbors_found += neigh_acc.reduce_sum();
            stats.contacts += contact_acc.reduce_sum();
            stats.gap_sum += gap_acc.reduce_sum();
            let force = Vec3::new(ax.reduce(), ay.reduce(), az.reduce());
            *slot = interaction::displacement(force, adh[i as usize] as f64, mech);
        }
    }
    debug_assert!(out.next().is_none(), "the groups cover the part");
    stats
}

/// 8-lane `f64` lanes: [`scalar_lanes`] over a CSR grid, bit for bit —
/// every displacement, every counter — on the same voxel walk and staged
/// tile as [`simd_lanes`] (positions only: [`LaneScratch::stage_f64`]).
/// Per resident, two passes:
///
/// 1. **the radius gate, vectorised.** `(p1 − p2)²` over the contiguous
///    tile columns in `Vec3::dot`'s add order, `≤ r²` straight to a
///    bitmask ([`F64x8::le_bits`]; the agent's own lane is cleared by
///    tile position), compacted — order preserved — into tile positions
///    ([`U32x8::compacted`]), the pad lanes' survivors dropped off the
///    end. Same IEEE operations per pair as the scalar gate, so the same
///    pairs pass;
/// 2. **Eq. 1 on the survivors only** (≈ 15 % of the candidates; run on
///    all of them, two `vsqrtpd` and two `vdivpd` per four candidates
///    cost more than the scalar loop they replace).
///    [`interaction::collision_force`]'s expression tree, operation for
///    operation — exact `sqrt` and `÷`, no FMA, the distance recomputed
///    from the same operands rather than stored by pass 1 — on 8
///    survivors a batch, their records gathered from the tile and their
///    diameters by id. The contributions of the contact lanes are then
///    added to **one scalar accumulator in candidate order**: the scalar
///    loop's additions, in the scalar loop's order, which is why not a bit
///    moves (per-lane partial sums would re-associate them).
///
/// The counters are integer sums over the same pairs: every tile entry
/// but the agent itself is a tested point, every survivor a neighbor,
/// every contact lane a contact, and the index gap rides pass 1 on the
/// id lanes (the pad lanes hold id 0; their share is subtracted).
///
/// Nothing in the per-resident loop stores narrow and reloads wide, and
/// nothing in the stage branches on a run's length: a sparse scene stages
/// once per agent, and a failed store forward or a mispredicted `memcpy`
/// per run there costs more than the agent's arithmetic.
fn f64_lanes(
    rm: &ResourceManager,
    params: &SimParams,
    grid: &CsrGrid<f64>,
    groups: VoxelGroups<'_>,
    out: &mut [Vec3<f64>],
    lane: &mut LaneScratch,
) -> SweepStats {
    let positions = rm.position_columns();
    let (diam, adh, mech) = (rm.diameter_column(), rm.adherence_column(), &params.mech);
    let radius = interaction_radius(rm, params);
    let r2v = F64x8::splat(radius * radius);
    let halfv = F64x8::splat(0.5);
    let repv = F64x8::splat(mech.repulsion);
    let attv = F64x8::splat(mech.attraction);
    let epsv = F64x8::splat(f64::EPSILON);
    let mut stats = SweepStats::default();
    let mut out = out.iter_mut();
    for group in groups {
        let tile = lane.stage_f64(grid, positions, &group);
        let (len, batched, boxes) = (tile.len, tile.padded, tile.boxes);
        stats.staged += 1;
        let cs = &lane.ids[..batched];
        let (pxs, pys, pzs) = (
            &lane.wx[..batched],
            &lane.wy[..batched],
            &lane.wz[..batched],
        );
        let near = &mut lane.near[..batched];
        let residents = out.by_ref().take(group.ranks.len());
        for (t, slot) in (tile.center + group.ranks.start..).zip(residents) {
            let i = cs[t];
            let iv = U32x8::splat(i);
            let (qx, qy, qz) = (
                F64x8::splat(pxs[t]),
                F64x8::splat(pys[t]),
                F64x8::splat(pzs[t]),
            );
            // Pass 1: the gate. At most 8 survivors leave a batch, so the
            // write cursor `found` never passes `off` and each 8-lane
            // store stays inside `near`.
            let mut gap_acc = U32x8::splat(0);
            let mut inside = 0u32;
            let mut found = 0usize;
            let mut off = 0usize;
            while off + LANES <= batched {
                let dx = qx - F64x8::from_slice(&pxs[off..off + LANES]);
                let dy = qy - F64x8::from_slice(&pys[off..off + LANES]);
                let dz = qz - F64x8::from_slice(&pzs[off..off + LANES]);
                let dist2 = dx * dx + dy * dy + dz * dz;
                // The agent stands in its own tile: clear its lane.
                let own = t.wrapping_sub(off);
                let own_bit = if own < LANES { 1u32 << own } else { 0 };
                inside = dist2.le_bits(r2v) & !own_bit;
                U32x8::compacted(inside, off as u32).write_to_slice(&mut near[found..]);
                found += inside.count_ones() as usize;
                gap_acc = gap_acc + U32x8::from_slice(&cs[off..off + LANES]).abs_diff(iv);
                off += LANES;
            }
            // Whatever sits under the pad lanes may have passed the gate
            // too; those are the last survivors of the last batch.
            found -= (inside >> (len + LANES - batched)).count_ones() as usize;
            // Pass 2: Eq. 1 on the survivors. The last batch is padded
            // with the agent itself — distance 0, never a contact.
            near[found..found.next_multiple_of(LANES)].fill(t as u32);
            let mut force = Vec3::zero();
            let mut off = 0usize;
            while off < found {
                // Loaded here, not above: an agent with nobody in range
                // (most of a sparse scene) never touches its diameter.
                let r1v = F64x8::splat(diam[i as usize] * 0.5);
                let at = U32x8::from_slice(&near[off..off + LANES]);
                let rj = F64x8::gather(diam, U32x8::gather(cs, at)) * halfv;
                let dx = qx - F64x8::gather(pxs, at);
                let dy = qy - F64x8::gather(pys, at);
                let dz = qz - F64x8::gather(pzs, at);
                let dist2 = dx * dx + dy * dy + dz * dz;
                let sum_r = r1v + rj;
                let dist = dist2.sqrt();
                let mut contact = dist2.lt_bits(sum_r * sum_r) & dist.gt_bits(epsv);
                let delta = sum_r - dist;
                let r_eff = (r1v * rj) / sum_r;
                let magnitude = repv * delta - attv * (r_eff * delta).sqrt();
                let scale = magnitude / dist;
                let (fx, fy, fz) = (dx * scale, dy * scale, dz * scale);
                stats.contacts += contact.count_ones() as u64;
                while contact != 0 {
                    let l = contact.trailing_zeros() as usize;
                    force += Vec3::new(fx.0[l], fy.0[l], fz.0[l]);
                    contact &= contact - 1;
                }
                off += LANES;
            }
            stats.counters.boxes_scanned += boxes;
            stats.counters.points_tested += len as u64 - 1;
            stats.counters.neighbors_found += found as u64;
            // The pad lanes hold id 0: |0 − i| each.
            stats.gap_sum += gap_acc.reduce_sum() - i as u64 * (batched - len) as u64;
            *slot = interaction::displacement(force, adh[i as usize], mech);
        }
    }
    debug_assert!(out.next().is_none(), "the groups cover the part");
    stats
}

fn cpu_kdtree_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    scratch: &mut MechScratch,
) -> MechWork {
    let n = rm.len();
    let radius = interaction_radius(rm, params);

    // Phase 1: serial kd-tree build (the paper's Amdahl culprit).
    let t0 = Instant::now();
    let (xs, ys, zs) = rm.position_columns();
    let tree = KdTree::build(xs, ys, zs);
    let wall_build = t0.elapsed().as_secs_f64();
    let build_stats = tree.stats();

    // Phase 2: per-agent neighbor-list update (parallel queries). The
    // tree's traversal order depends on how quickselect partitioned the
    // input, i.e. on storage order — so each list is canonicalized to
    // ascending neighbor uid before the force pass. The neighbor *set*
    // is exact either way; the sort only pins the FP accumulation order,
    // which keeps kd trajectories invariant under the host reorder.
    let uids = rm.uid_column();
    let t1 = Instant::now();
    let cuts = chunk_cuts(n);
    let query_results: Vec<(ChunkLists, bdm_kdtree::QueryCounters)> = (0..cuts.len() - 1)
        .into_par_iter()
        .map(|c| {
            let chunk = cuts[c]..cuts[c + 1];
            let mut counters = bdm_kdtree::QueryCounters::default();
            let mut offsets = Vec::with_capacity(chunk.len() + 1);
            let mut ids = Vec::new();
            offsets.push(0);
            for i in chunk {
                let q = Vec3::new(xs[i], ys[i], zs[i]);
                let first = ids.len();
                counters.merge(&tree.for_each_within(q, radius, Some(i as u32), |j| ids.push(j)));
                ids[first..].sort_unstable_by_key(|&j| uids[j as usize]);
                offsets.push(ids.len() as u32);
            }
            let base = cuts[c];
            (ChunkLists { base, offsets, ids }, counters)
        })
        .collect();
    let wall_search = t1.elapsed().as_secs_f64();
    let mut counters = bdm_kdtree::QueryCounters::default();
    let mut lists = Vec::with_capacity(query_results.len());
    for (list, c) in query_results {
        counters.merge(&c);
        lists.push(list);
    }
    let build = Phase::serial_fp64(
        "neighborhood build",
        work_model::KD_BUILD_FLOPS_PER_POINT_LEVEL
            * build_stats.points as f64
            * build_stats.depth as f64,
        work_model::KD_BUILD_BYTES_PER_POINT_LEVEL
            * build_stats.points as f64
            * build_stats.depth as f64,
        build_stats.nodes as f64 / 4.0,
    );
    let search = Phase::parallel_fp64(
        "neighborhood search",
        work_model::KD_SEARCH_FLOPS_PER_CANDIDATE * counters.points_tested as f64,
        work_model::KD_SEARCH_BYTES_PER_CANDIDATE * counters.points_tested as f64,
        // Upper tree levels stay cache-resident; only about half the
        // node hops go to memory.
        counters.nodes_visited as f64 / 2.0,
    );
    let timed = vec![(build, wall_build), (search, wall_search)];

    // Phase 3: forces over the cached lists.
    let (bufs, model) = ((&mut scratch.disp, &mut scratch.lanes), ForceModel::Lists);
    let mut work = force_sweep(
        rm,
        bufs,
        timed,
        SweepParts::of_storage(&cuts),
        model,
        true,
        |rm, c, base, out, _| scalar_lanes(rm, params, &lists[c], base, out),
    );
    debug_assert_eq!(work.neighbors, counters.neighbors_found);
    // The sweep only saw the search's survivors; the path's candidates
    // are the points the tree distance-tested.
    work.candidates = counters.points_tested;
    work
}

fn cpu_grid_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    parallel: bool,
    scratch: &mut MechScratch,
) -> MechWork {
    let n = rm.len();
    let radius = interaction_radius(rm, params);

    // Phase 1: grid build (Fig. 5 structure).
    let t0 = Instant::now();
    let (xs, ys, zs) = rm.position_columns();
    let grid = if parallel {
        UniformGrid::build_parallel(xs, ys, zs, params.space, radius)
    } else {
        UniformGrid::build_serial(xs, ys, zs, params.space, radius)
    };
    let bytes = work_model::GRID_BUILD_BYTES_PER_AGENT * n as f64;
    let build = Phase {
        parallel,
        ..Phase::parallel_fp64("neighborhood build", 0.0, bytes, n as f64)
    };
    let timed = vec![(build, t0.elapsed().as_secs_f64())];

    // Phase 2: fused neighbor scan + force computation.
    let bufs = (&mut scratch.disp, &mut scratch.lanes);
    let (cuts, model) = (chunk_cuts(n), ForceModel::LinkedList);
    force_sweep(
        rm,
        bufs,
        timed,
        SweepParts::of_storage(&cuts),
        model,
        true,
        |rm, _, base, out, _| scalar_lanes(rm, params, &grid, base, out),
    )
}

/// The modeled counting-sort build over `members` agents (a shard's
/// members include its halo); a skipped incremental rebuild only
/// streams the voxel-key compare.
pub(crate) fn csr_build_phase(members: usize, skipped: bool, parallel: bool) -> Phase {
    use work_model as wm;
    let m = members as f64;
    let (bytes, random) = if skipped {
        (wm::CSR_BUILD_SKIP_BYTES_PER_AGENT * m, 0.0)
    } else {
        (
            wm::CSR_BUILD_BYTES_PER_AGENT * m,
            wm::CSR_BUILD_RANDOM_PER_AGENT * m,
        )
    };
    Phase {
        parallel,
        ..Phase::parallel_fp64("neighborhood build", 0.0, bytes, random)
    }
}

fn cpu_grid_csr_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    parallel: bool,
    scratch: &mut MechScratch,
) -> MechWork {
    let n = rm.len();
    let radius = interaction_radius(rm, params);
    let space = params.space;

    // Counting-sort CSR build, reusing the scratch arrays. The grid
    // leaves its slot for the sweep (which borrows the rest of the
    // scratch) and returns to it afterwards.
    let t0 = Instant::now();
    let (xs, ys, zs) = rm.position_columns();
    let mut grid = scratch
        .csr
        .take()
        .unwrap_or_else(|| empty_csr(space, radius));
    let skipped = if parallel {
        grid.rebuild_parallel(xs, ys, zs, space, radius, &mut scratch.build)
    } else {
        grid.rebuild_serial(xs, ys, zs, space, radius, &mut scratch.build)
    };
    let build = (
        csr_build_phase(n, skipped, parallel),
        t0.elapsed().as_secs_f64(),
    );

    let parts = CsrParts::Global(&grid);
    let mut work = csr_sweep(rm, params, scratch, vec![build], parts, true);
    work.csr_rebuilds_skipped = skipped as u64;
    scratch.csr = Some(grid);
    work
}

/// The two partitions a CSR sweep runs on.
#[derive(Clone, Copy)]
pub(crate) enum CsrParts<'a> {
    /// One grid over every agent, walked in its own order: the parts are
    /// [`CSR_PASS_CHUNK`]-slot ranges of `grid.cell_agents()` — the
    /// voxel-grouped order, rebuilt every step on the geometry the sweep
    /// uses, so every voxel is staged once whatever storage looks like —
    /// and the displacements come back in slot order.
    Global(&'a CsrGrid<f64>),
    /// Storage sorted by `(voxel, id)`, cut at the shard ranges; part `s`
    /// is agents `cuts[s]..cuts[s + 1]` under the shard-local `grids[s]`,
    /// walked in storage order.
    Shards {
        cuts: &'a [usize],
        grids: &'a [&'a CsrGrid<f64>],
    },
}

/// What every CSR step does once its grid(s) exist: bring the f32
/// mirrors up to date when the precision asks for them, walk every part
/// voxel by voxel ([`VoxelGroups`]) through the precision's lane body,
/// integrate, and report. Shared by the global pass and
/// [`ShardedEnvironment::step`], which is why sharding works at either
/// precision.
pub(crate) fn csr_sweep(
    rm: &mut ResourceManager,
    params: &SimParams,
    scratch: &mut MechScratch,
    mut timed: Vec<(Phase, f64)>,
    parts: CsrParts<'_>,
    parallel: bool,
) -> MechWork {
    let mut refresh_copies = 0;
    let model = match params.precision {
        Precision::F64 => ForceModel::Csr,
        Precision::F32Simd => {
            // Lazy on the dirty epochs: columns untouched since the
            // previous step cost nothing (diameters/adherences of a
            // non-growing population).
            let t = Instant::now();
            refresh_copies = scratch.mirrors.refresh(rm);
            let refresh = Phase {
                name: "f32 mirror refresh",
                flops: refresh_copies as f64,
                bytes: work_model::SIMD_REFRESH_BYTES_PER_ELEMENT * refresh_copies as f64,
                random_accesses: 0.0,
                parallel: false,
                fp64: false,
            };
            timed.push((refresh, t.elapsed().as_secs_f64()));
            ForceModel::CsrF32
        }
    };
    let (bufs, mirrors) = ((&mut scratch.disp, &mut scratch.lanes), &scratch.mirrors);
    let lanes = |rm: &ResourceManager,
                 c: usize,
                 base: usize,
                 out: &mut [Vec3<f64>],
                 lane: &mut LaneScratch| {
        let part = base..base + out.len();
        let (grid, groups) = match parts {
            CsrParts::Global(grid) => (grid, VoxelGroups::of_slots(grid, part)),
            CsrParts::Shards { grids, .. } => {
                let groups = VoxelGroups::of_sorted_storage(grids[c], rm.position_columns(), part);
                (grids[c], groups)
            }
        };
        match model {
            ForceModel::CsrF32 => simd_lanes(rm, params, mirrors, grid, groups, out, lane),
            _ => f64_lanes(rm, params, grid, groups, out, lane),
        }
    };
    let global_cuts;
    let parts = match parts {
        CsrParts::Global(grid) => {
            global_cuts = chunk_cuts(rm.len());
            SweepParts {
                cuts: &global_cuts,
                agent_of: Some(grid.cell_agents()),
            }
        }
        CsrParts::Shards { cuts, .. } => SweepParts::of_storage(cuts),
    };
    let mut work = force_sweep(rm, bufs, timed, parts, model, parallel, lanes);
    if let Some(simd) = &mut work.simd {
        simd.refresh_copies = refresh_copies;
    }
    work
}

fn gpu_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    pipeline: &mut MechanicalPipeline,
) -> MechWork {
    let (xs, ys, zs) = rm.position_columns();
    let scene = SceneRef {
        xs,
        ys,
        zs,
        diameters: rm.diameter_column(),
        adherences: rm.adherence_column(),
        space: params.space,
        box_len: interaction_radius(rm, params),
    };
    let report = if params.gpu_resident {
        // Resident path: the pipeline diffs the host columns against
        // its device mirrors (uploading only births/deaths/edits),
        // integrates on-device, and hands back the *new positions* —
        // which are installed verbatim so host and device stay bitwise
        // in lockstep for the next step's diff.
        let (positions, report) = pipeline.step_resident(&scene, rm.uid_column(), &params.mech);
        for (i, &p) in positions.iter().enumerate() {
            if p != rm.position(i) {
                rm.set_position(i, p);
            }
        }
        report
    } else {
        let (disp, report) = pipeline.step(&scene, &params.mech);
        apply_displacements(rm, &disp, None);
        report
    };
    MechWork::offloaded(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellBuilder;
    use bdm_math::SplitMix64;

    fn random_population(n: usize, extent: f64, seed: u64) -> ResourceManager {
        let mut rng = SplitMix64::new(seed);
        let mut rm = ResourceManager::new();
        for _ in 0..n {
            rm.add(
                CellBuilder::new(Vec3::new(
                    rng.uniform(-extent, extent),
                    rng.uniform(-extent, extent),
                    rng.uniform(-extent, extent),
                ))
                .diameter(2.0)
                .adherence(0.01),
            );
        }
        rm
    }

    fn positions(rm: &ResourceManager) -> Vec<Vec3<f64>> {
        (0..rm.len()).map(|i| rm.position(i)).collect()
    }

    /// Sort storage by (voxel key along `curve`, uid), like the host
    /// reorder op and the shard sort do.
    fn sort_along(rm: &mut ResourceManager, params: &SimParams, curve: bdm_morton::Curve) {
        let radius = interaction_radius(rm, params);
        let mut scratch = crate::rm::ReorderScratch::default();
        rm.sort_storage(&params.space, radius, curve, &mut scratch, None);
    }

    /// Everything a `MechWork` reports except wall clocks, as one
    /// string; `{:?}` prints the shortest round-trip form of an `f64`,
    /// so equal strings are equal bits.
    fn fingerprint(w: &MechWork) -> String {
        let phase = |p: &Phase| {
            let Phase {
                name,
                flops,
                bytes,
                random_accesses,
                parallel,
                fp64,
            } = p;
            format!("{name}:{flops:?}:{bytes:?}:{random_accesses:?}:{parallel}:{fp64}")
        };
        let phases: Vec<String> = w.phases.iter().map(phase).collect();
        let simd = w
            .simd
            .map(|s| (s.lanes_utilized, s.pad_lanes, s.refresh_copies));
        format!(
            "{} | c={} k={} n={} gap={:?} simd={simd:?} skip={}",
            phases.join(" "),
            w.candidates,
            w.contacts,
            w.neighbors,
            w.index_gap,
            w.csr_rebuilds_skipped
        )
    }

    /// One scene through every neighbor source and lane body the sweep
    /// has: kd lists, the linked list and CSR (serial / parallel build;
    /// CSR at both precisions) and the sharded driver at 1 and 4 shards.
    /// Storage is Hilbert-sorted up front, so the sharded sort is the
    /// identity and the index gap is comparable with the global pass.
    /// The expected fingerprints are the parent commit's (five
    /// hand-copied loops) output on this scene: the one sweep must model
    /// and count exactly what they did.
    #[test]
    fn every_source_through_the_one_sweep_agrees() {
        let params = SimParams::cube(6.0);
        let mut rm = random_population(600, 5.5, 77);
        sort_along(&mut rm, &params, bdm_morton::Curve::Hilbert);

        let global = |env: EnvironmentKind, precision: Precision| {
            let mut rm = rm.clone();
            let params = params.clone().with_precision(precision);
            let work = mechanical_step(&mut rm, &params, &env, None);
            (work, positions(&rm))
        };
        let sharded = |shards: usize| {
            let mut rm = rm.clone();
            // Threshold 1.0 re-splits the degenerate even key-space map
            // into populated shards with real halos.
            let params = params
                .clone()
                .with_shards(shards)
                .with_shard_rebalance(1, 1.0);
            let mut driver = ShardedEnvironment::new(shards);
            driver.rebalance(&rm, &params);
            let work = driver.step(&mut rm, &params, true, &mut MechScratch::default());
            assert_eq!(driver.halo_agents() > 0, shards > 1, "halos iff shards");
            (work, positions(&rm))
        };
        use EnvironmentKind as Env;
        let (f64_, f32_) = (Precision::F64, Precision::F32Simd);
        let kd = global(Env::KdTree, f64_);
        let ll = [false, true].map(|parallel| {
            let layout = GridLayout::LinkedList;
            global(Env::UniformGrid { layout, parallel }, f64_)
        });
        let csr = [false, true].map(|parallel| {
            let layout = GridLayout::Csr;
            let env = Env::UniformGrid { layout, parallel };
            (global(env, f64_), global(env, f32_))
        });
        let shards = [sharded(1), sharded(4)];

        // Parent values, phase by phase: name:flops:bytes:random:parallel:fp64.
        let build =
            |work: &str, parallel: bool| format!("neighborhood build:0.0:{work}:{parallel}:true");
        let grid = "c=37186 k=7716 n=7716";
        let gap = "gap=Some(96.8303124831926)";
        let sort = "shard sort:18000.0:19200.0:0.0:true:true";
        let csr_forces = "mechanical forces:648132.0:1386696.0:4101.666666666666";
        assert_eq!(
            fingerprint(&kd.0),
            "neighborhood build:16800.0:201600.0:31.75:false:true \
             neighborhood search:425536.0:1276608.0:7962.5:true:true \
             mechanical forces:994500.0:812736.0:7716.0:true:true \
             | c=53192 k=7716 n=7716 gap=None simd=None skip=0"
        );
        for (parallel, ll) in [false, true].into_iter().zip(&ll) {
            let want = format!(
                "{} mechanical forces:648132.0:1237952.0:12305.0:true:true \
                 | {grid} gap=None simd=None skip=0",
                build("36000.0:600.0", parallel)
            );
            assert_eq!(fingerprint(&ll.0), want, "ll, parallel build {parallel}");
        }
        for (parallel, (csr64, csr32)) in [false, true].into_iter().zip(&csr) {
            let build = build("26400.0:75.0", parallel);
            let want = format!("{build} {csr_forces}:true:true | {grid} {gap} simd=None skip=0");
            assert_eq!(
                fingerprint(&csr64.0),
                want,
                "csr f64, parallel build {parallel}"
            );
            let want = format!(
                "{build} f32 mirror refresh:3000.0:36000.0:0.0:false:false \
                 mechanical forces:648132.0:770120.0:4101.666666666666:true:false \
                 | {grid} {gap} simd=Some((37186, 2110, 3000)) skip=0"
            );
            assert_eq!(
                fingerprint(&csr32.0),
                want,
                "csr f32, parallel build {parallel}"
            );
        }
        for (sharded, (members, parallel)) in shards
            .iter()
            .zip([("26400.0:75.0", false), ("56716.0:161.125", true)])
        {
            let want = format!(
                "{sort} {} {csr_forces}:{parallel}:true | {grid} {gap} simd=None skip=0",
                build(members, parallel)
            );
            assert_eq!(
                fingerprint(&sharded.0),
                want,
                "sharded, parallel {parallel}"
            );
        }

        // What the pinned numbers say, in words. Every source finds the
        // same neighbors and contacts (the grid family also tests the
        // same candidates); the CSR layout charges less dependent random
        // access than the linked list in build and query alike; the f32
        // lanes carry every candidate, pad stencil remainders with the
        // agent's own id, convert all 5 mirrored columns on a first step,
        // and roughly halve the candidate gather traffic (Improvement I).
        let (ll_w, csr_w, f32_w) = (&ll[1].0, &csr[1].0 .0, &csr[1].1 .0);
        assert!(kd.0.contacts > 0, "the scene is dense enough to move");
        assert!(csr_w.phases[0].random_accesses < ll_w.phases[0].random_accesses);
        assert!(csr_w.phases[1].random_accesses < ll_w.phases[1].random_accesses);
        assert!(f32_w.phases[2].bytes < csr_w.phases[1].bytes * 0.7);

        // Displacements. The build flavour never changes a bit, and the
        // shard-local grids reproduce every per-voxel id slice, so CSR
        // serial ≡ parallel ≡ sharded@1 ≡ sharded@4 bit for bit, per lane
        // body. Across sources only the summation order differs (tree vs
        // reverse-insertion list vs ascending id): tiny FP skew. The f32
        // lanes stay inside their 1e-5 envelope — and must actually
        // round differently.
        let max_err = |a: &[Vec3<f64>], b: &[Vec3<f64>]| {
            let errs = a.iter().zip(b).map(|(a, b)| (*a - *b).norm());
            errs.fold(0.0f64, f64::max)
        };
        assert_eq!(ll[0].1, ll[1].1, "ll serial vs parallel build");
        assert_eq!(csr[0].0 .1, csr[1].0 .1, "csr f64 serial vs parallel build");
        assert_eq!(csr[0].1 .1, csr[1].1 .1, "csr f32 serial vs parallel build");
        assert_eq!(shards[0].1, csr[0].0 .1, "sharded@1 vs csr");
        assert_eq!(shards[1].1, csr[0].0 .1, "sharded@4 vs csr");
        assert!(max_err(&kd.1, &ll[0].1) < 1e-9);
        assert!(max_err(&kd.1, &csr[0].0 .1) < 1e-9);
        let f32_err = max_err(&csr[0].0 .1, &csr[0].1 .1);
        assert!(f32_err > 0.0 && f32_err < 1e-5, "f32 envelope: {f32_err}");
    }

    /// The per-agent gather kernel the voxel-staged [`simd_lanes`]
    /// replaced, verbatim: every agent re-derives its x-runs, re-copies
    /// its candidate ids and re-gathers their records. Kept as the
    /// oracle of the tests below — same candidate sequence, same lane
    /// assignment, so every bit and every counter must agree.
    fn simd_lanes_reference(
        rm: &ResourceManager,
        params: &SimParams,
        mirrors: &SimdMirrors,
        grid: &CsrGrid<f64>,
        base: usize,
        out: &mut [Vec3<f64>],
    ) -> SweepStats {
        let (xs64, ys64, zs64) = rm.position_columns();
        let posd = mirrors.posd.as_slice();
        let adh = mirrors.adh.as_slice();
        let mech = &params.mech;
        let radius = interaction_radius(rm, params);
        let rep32 = mech.repulsion as f32;
        let att32 = mech.attraction as f32;
        let r2f = (radius as f32) * (radius as f32);
        let halfv = F32x8::splat(0.5);
        let r2v = F32x8::splat(r2f);
        let repv = F32x8::splat(rep32);
        let attv = F32x8::splat(att32);
        let epsv = F32x8::splat(f32::EPSILON);
        // Raw CSR views for the candidate-append fast path: offsets plus the
        // id array as plain `u32`s (zero-copy; `AgentId` is transparent).
        let starts = grid.cell_starts();
        let ids_raw = bdm_soa::ids_as_raw(grid.cell_agents());
        let mut stats = SweepStats::default();
        // Per-chunk candidate buffer, reused across agents. In the
        // benchmark regime an x-run holds only ~6 agents — below
        // one lane width — so batching run-by-run would push nearly
        // every candidate through the scalar tail. Concatenating
        // the ≤9 stencil runs first (in run order, so the candidate
        // sequence is identical to the scalar pass) turns a typical
        // ~54-candidate stencil into ~6 full batches + one tail.
        let mut cand: Vec<u32> = Vec::with_capacity(128);
        // Per-candidate f32 force contributions, staged contiguously
        // between the two passes below (grow-only; pass A overwrites
        // every slot it will read back in pass B).
        let mut fxb: Vec<f32> = Vec::with_capacity(128);
        let mut fyb: Vec<f32> = Vec::with_capacity(128);
        let mut fzb: Vec<f32> = Vec::with_capacity(128);
        for (k, slot) in out.iter_mut().enumerate() {
            let i = base + k;
            // Stencil runs come from the f64 geometry, like the build.
            let p1_64 = Vec3::new(xs64[i], ys64[i], zs64[i]);
            let rec = posd[i];
            let q = Vec3::new(rec[0], rec[1], rec[2]);
            let r1 = rec[3] * 0.5f32;
            let iv = U32x8::splat(i as u32);
            let (qx, qy, qz) = (F32x8::splat(q.x), F32x8::splat(q.y), F32x8::splat(q.z));
            let r1v = F32x8::splat(r1);
            let (mut ax, mut ay, mut az) = (F64x8::zero(), F64x8::zero(), F64x8::zero());
            // Per-agent statistic accumulators, vertical form: each
            // batch adds its masks as 0/1 lanes ([`M32x8::ones`], a
            // `vpand`+`vpaddd` per counter) and the horizontal
            // reduction happens once per agent. A per-batch
            // horizontal `count()` looks cheap (movmsk+popcnt) but
            // the optimizer narrows the masks through the blend
            // lowering and expands it into a cross-lane shuffle tree
            // that dominates the batch. The scope matters too: these
            // must be *inside* the agent loop — hoisted to chunk
            // scope, scalar-replacement splits the lanes into
            // twenty-four GPR/stack slots that get re-inserted and
            // re-extracted every batch. Lane sums stay far below u32
            // range for any realistic stencil (counts gain ≤1 per
            // batch; the index gap is bounded by agent count per
            // candidate, ≤ ~10⁹ per lane).
            let (mut lane_acc, mut neigh_acc, mut contact_acc) =
                (U32x8::splat(0), U32x8::splat(0), U32x8::splat(0));
            let mut gap_acc = U32x8::splat(0);
            cand.clear();
            for (first, count) in grid.geometry().x_runs(p1_64) {
                stats.counters.boxes_scanned += count as u64;
                let lo = starts[first] as usize;
                let hi = starts[first + count as usize] as usize;
                let rl = hi - lo;
                let old = cand.len();
                // Append the run with LANES-wide block copies instead
                // of `extend`: a stencil is ~9 runs of ~6 ids, and a
                // million per-element append loops per step cost more
                // than the force arithmetic they feed. The copy may
                // read up to LANES−1 ids past the run (never past the
                // CSR array — the guard falls back to an exact tail
                // copy there) and write as far past `rl` into
                // reserved capacity; the final `set_len` keeps
                // exactly the run's ids, so the candidate sequence
                // is identical to the scalar pass's.
                cand.reserve(rl + LANES);
                // SAFETY: capacity ≥ old + rl + LANES (the reserve
                // above), so every write below — including the
                // LANES-wide over-write — lands inside allocated
                // capacity; reads stay inside `ids_raw` by the
                // `src_end` guard; `set_len(old + rl)` only exposes
                // lanes the loop wrote (`o` covers `0..rl`).
                unsafe {
                    let dst = cand.as_mut_ptr().add(old);
                    let src = ids_raw.as_ptr().add(lo);
                    let mut o = 0usize;
                    while o < rl {
                        if lo + o + LANES <= ids_raw.len() {
                            core::ptr::copy_nonoverlapping(src.add(o), dst.add(o), LANES);
                            o += LANES;
                        } else {
                            core::ptr::copy_nonoverlapping(src.add(o), dst.add(o), rl - o);
                            break;
                        }
                    }
                    cand.set_len(old + rl);
                }
            }
            // Masked-load fallback for the stencil remainder: fill
            // the last partial batch with the agent's own id. Self
            // lanes are already discarded by the `valid` mask (the
            // agent really is in its own stencil), so padding lanes
            // contribute exactly +0.0 force and 0 to every counter —
            // no separate scalar tail path exists.
            let len = cand.len();
            let pad = len.next_multiple_of(LANES) - len;
            if pad > 0 {
                // SAFETY: a non-multiple length means at least one
                // run appended above, whose reserve left ≥ LANES
                // spare capacity past `len`; one LANES-wide splat
                // write plus `set_len` replaces up to LANES−1
                // scalar pushes.
                unsafe {
                    let dst = cand.as_mut_ptr().add(len);
                    for l in 0..LANES {
                        dst.add(l).write(i as u32);
                    }
                    cand.set_len(len + pad);
                }
            }
            stats.simd.pad_lanes += pad as u64;
            {
                // Pass A: 8-wide f32 math, contributions *stored* to
                // the contiguous staging buffers instead of being
                // accumulated here — keeping six f64 accumulator
                // registers live across a gather-heavy loop is what
                // spills it; a store-only loop leaves the register
                // file to the gathers and the Eq. 1 arithmetic.
                let batched = cand.len();
                if fxb.len() < batched {
                    fxb.resize(batched, 0.0);
                    fyb.resize(batched, 0.0);
                    fzb.resize(batched, 0.0);
                }
                // Pin each buffer to exactly `batched` elements: the
                // loop bound then *proves* every 8-lane window is in
                // range, so the stores and reloads below compile
                // without per-batch bounds-check branches.
                let cs = &cand[..batched];
                let (fxs, fys, fzs) = (
                    &mut fxb[..batched],
                    &mut fyb[..batched],
                    &mut fzb[..batched],
                );
                let mut off = 0usize;
                while off + LANES <= batched {
                    let idv = U32x8::from_slice(&cs[off..off + LANES]);
                    let valid = idv.ne(iv);
                    let [px, py, pz, dj] = F32x8::gather4(posd, idv);
                    let dx = qx - px;
                    let dy = qy - py;
                    let dz = qz - pz;
                    let dist2 = dx * dx + dy * dy + dz * dz;
                    let neighbor = dist2.le(r2v).and(valid);
                    let rj = dj * halfv;
                    let sum_r = r1v + rj;
                    let dist = dist2.sqrt();
                    // Eq. 1 evaluated unconditionally on every lane;
                    // the contact mask (the scalar kernel's two
                    // early-outs plus the radius gate) discards the
                    // NaN/inf garbage of non-contact lanes bitwise.
                    // The batch is latency-bound, not port-bound
                    // (measured IPC ≈ 0.5 — the gathers dominate),
                    // so exact IEEE `vsqrtps`/`vdivps` cost nothing
                    // extra: a variant of this block on Newton-refined
                    // `vrsqrtps`/`vrcpps` seeds measured *slower* by
                    // lengthening the dependency chain. The two
                    // divisions do fold into one algebraically:
                    // with r_eff = r1·rj/sum_r,
                    //   mag/dist = (rep·δ·sum_r − att·√(r1·rj·δ·sum_r))
                    //              / (sum_r·dist)
                    // because √(r_eff·δ)·sum_r = √(r1·rj·δ·sum_r).
                    let contact = dist2.lt(sum_r * sum_r).and(dist.gt(epsv)).and(neighbor);
                    let delta = sum_r - dist;
                    let dsum = delta * sum_r;
                    let inv = F32x8::splat(1.0) / (sum_r * dist);
                    let scale = (repv * dsum - attv * ((r1v * rj) * dsum).sqrt()) * inv;
                    let zero = F32x8::zero();
                    fxs[off..off + LANES].copy_from_slice(&contact.select(dx * scale, zero).0);
                    fys[off..off + LANES].copy_from_slice(&contact.select(dy * scale, zero).0);
                    fzs[off..off + LANES].copy_from_slice(&contact.select(dz * scale, zero).0);
                    lane_acc = lane_acc + valid.ones();
                    neigh_acc = neigh_acc + neighbor.ones();
                    contact_acc = contact_acc + contact.ones();
                    // The self lane contributes |i − i| = 0: no mask.
                    gap_acc = gap_acc + idv.abs_diff(iv);
                    off += LANES;
                }
                // Pass B: widen and accumulate the staged
                // contributions in f64. Lane assignment and reduce
                // order are exactly pass A's, so the result is
                // bit-identical to a fused accumulate; the loads are
                // contiguous, which SLP compiles to clean 8-wide
                // load→cvt→add chains.
                let mut off2 = 0usize;
                while off2 + LANES <= batched {
                    ax.accumulate(F32x8::from_slice(&fxs[off2..off2 + LANES]));
                    ay.accumulate(F32x8::from_slice(&fys[off2..off2 + LANES]));
                    az.accumulate(F32x8::from_slice(&fzs[off2..off2 + LANES]));
                    off2 += LANES;
                }
                let lanes_n = lane_acc.reduce_sum();
                stats.counters.points_tested += lanes_n;
                stats.simd.lanes_utilized += lanes_n;
                stats.counters.neighbors_found += neigh_acc.reduce_sum();
                stats.contacts += contact_acc.reduce_sum();
                stats.gap_sum += gap_acc.reduce_sum();
            }
            let force = Vec3::new(ax.reduce(), ay.reduce(), az.reduce());
            *slot = interaction::displacement(force, adh[i] as f64, mech);
        }

        stats
    }

    /// One part of a sweep: a range of the walk's order and the grid it
    /// reads.
    type OraclePart<'a> = (std::ops::Range<usize>, &'a CsrGrid<f64>);

    /// What the ranges of the oracle's parts index.
    #[derive(Debug, Clone, Copy)]
    enum Cut {
        /// Slots of the (global) grid's `cell_agents()`.
        Slots,
        /// Agents of `(voxel, id)`-sorted storage, under shard-local
        /// grids.
        SortedStorage,
    }

    /// The staged lane body of `params.precision` over `parts`, against
    /// the retained per-agent kernel of that precision — the per-agent
    /// gather body for `f32`, [`scalar_lanes`] over the grid's
    /// `NeighborSource` for `f64` — run one agent at a time: per agent
    /// on displacement bits **after mapping the part's entries back to
    /// agents**, per part on every statistic, and on the stage count,
    /// which is the part's non-empty voxels. `lane` is the caller's, so
    /// whatever one part (or one scene) left staged is what the next
    /// starts on. Returns the stages taken.
    fn assert_matches_reference(
        rm: &ResourceManager,
        params: &SimParams,
        cut: Cut,
        parts: &[OraclePart<'_>],
        lane: &mut LaneScratch,
    ) -> u64 {
        let f32_body = params.precision == Precision::F32Simd;
        let mut mirrors = SimdMirrors::default();
        if f32_body {
            mirrors.refresh(rm);
        }
        let fields = |s: &SweepStats| {
            [
                s.counters.points_tested,
                s.counters.neighbors_found,
                s.counters.boxes_scanned,
                s.contacts,
                s.gap_sum,
                s.simd.lanes_utilized,
                s.simd.pad_lanes,
            ]
        };
        let mut staged = 0;
        for (range, grid) in parts {
            let (agents, groups): (Vec<usize>, _) = match cut {
                Cut::Slots => (
                    grid.cell_agents()[range.clone()]
                        .iter()
                        .map(|id| id.index())
                        .collect(),
                    VoxelGroups::of_slots(grid, range.clone()),
                ),
                Cut::SortedStorage => (
                    range.clone().collect(),
                    VoxelGroups::of_sorted_storage(grid, rm.position_columns(), range.clone()),
                ),
            };
            let mut got = vec![Vec3::zero(); range.len()];
            let g = if f32_body {
                simd_lanes(rm, params, &mirrors, grid, groups, &mut got, lane)
            } else {
                f64_lanes(rm, params, grid, groups, &mut got, lane)
            };
            let mut want_fields = [0u64; 7];
            let mut voxels = std::collections::BTreeSet::new();
            for (&i, got) in agents.iter().zip(&got) {
                let mut want = [Vec3::zero()];
                let w = if f32_body {
                    simd_lanes_reference(rm, params, &mirrors, grid, i, &mut want)
                } else {
                    scalar_lanes(rm, params, *grid, i, &mut want)
                };
                let bits = |v: &Vec3<f64>| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                assert_eq!(bits(got), bits(&want[0]), "agent {i} of {cut:?} {range:?}");
                for (sum, field) in want_fields.iter_mut().zip(fields(&w)) {
                    *sum += field;
                }
                voxels.insert(grid.box_index(rm.position(i)));
            }
            assert_eq!(fields(&g), want_fields, "statistics of {cut:?} {range:?}");
            assert_eq!(g.staged, voxels.len() as u64, "stages of {cut:?} {range:?}");
            staged += g.staged;
        }
        staged
    }

    /// Storage orders of the oracle scenes.
    #[derive(Debug, Clone, Copy)]
    enum Storage {
        Sorted(bdm_morton::Curve),
        Shuffled,
        /// A Z-order-sorted prefix followed by an unsorted tail — what a
        /// division wave leaves behind (daughters are appended).
        TwoRuns,
    }

    fn store(rm: &mut ResourceManager, params: &SimParams, storage: Storage, seed: u64) {
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let mut shuffle = |rm: &mut ResourceManager| {
            let keys: Vec<(u64, u64)> = rm
                .uid_column()
                .iter()
                .map(|&uid| (rng.next_u64(), uid))
                .collect();
            let perm = bdm_soa::Permutation::sorting_by_key(&keys);
            rm.apply_permutation(&perm, &mut crate::rm::ReorderScratch::default());
        };
        match storage {
            Storage::Sorted(curve) => sort_along(rm, params, curve),
            Storage::Shuffled => shuffle(rm),
            Storage::TwoRuns => {
                // Sort a random two thirds to the front, by cell key.
                shuffle(rm);
                let radius = interaction_radius(rm, params);
                let (xs, ys, zs) = rm.position_columns();
                let curve = bdm_morton::Curve::ZOrder;
                let cells = bdm_morton::cell_keys(xs, ys, zs, &params.space, radius, curve);
                let sorted = rm.len() as u64 * 2 / 3;
                let keys: Vec<(u64, u64)> = (cells.into_iter().zip(0u64..))
                    .map(|(cell, i)| if i < sorted { (0, cell) } else { (1, i) })
                    .collect();
                let perm = bdm_soa::Permutation::sorting_by_key(&keys);
                rm.apply_permutation(&perm, &mut crate::rm::ReorderScratch::default());
            }
        }
    }

    const STORAGES: [Storage; 4] = [
        Storage::Sorted(bdm_morton::Curve::ZOrder),
        Storage::Sorted(bdm_morton::Curve::Hilbert),
        Storage::Shuffled,
        Storage::TwoRuns,
    ];

    type OracleScene = (ResourceManager, SimParams);

    /// A scene with everything the stage has to get right: a random
    /// cloud of mixed diameters thin enough to leave voxels (and whole
    /// x-runs) empty; agents exactly on voxel faces, on the upper space
    /// boundary and beyond it (where `box_coords` clamps); all eight
    /// corner voxels (8-voxel stencils); coincident pairs (`dist ≤ ε`);
    /// pairs exactly one largest diameter apart (`dist² == r²` under the
    /// derived radius, `dist² == sum_r²` when both have that diameter);
    /// and, when `crowd`, one voxel with > 128 residents, whose stencil
    /// outgrows the stage's first allocation.
    fn oracle_scene(
        seed: u64,
        radius_override: Option<f64>,
        crowd: bool,
        precision: Precision,
    ) -> OracleScene {
        let half = 6.0;
        let mut params = SimParams::cube(half).with_precision(precision);
        if let Some(r) = radius_override {
            params = params.with_interaction_radius(r);
        }
        let mut rng = SplitMix64::new(seed);
        let mut at = Vec::new();
        for _ in 0..150 + rng.next_u64() % 250 {
            at.push(Vec3::new(
                rng.uniform(-half, half),
                rng.uniform(-half, half),
                rng.uniform(-half, half),
            ));
        }
        // Voxel faces: whole multiples of the voxel edge from the lower
        // corner, on one, two or three axes.
        let edge = radius_override.unwrap_or(2.5);
        for k in 0..12u32 {
            let on_face = |axis: u32, rng: &mut SplitMix64| {
                if (k >> axis) & 1 == 1 || k % 4 == 0 {
                    -half + edge * (1 + rng.next_u64() % 4) as f64
                } else {
                    rng.uniform(-half, half)
                }
            };
            at.push(Vec3::new(
                on_face(0, &mut rng),
                on_face(1, &mut rng),
                on_face(2, &mut rng),
            ));
        }
        // The upper boundary, exactly and past it, and the corners.
        for corner in 0..8u32 {
            let sign = |axis: u32| if (corner >> axis) & 1 == 1 { 1.0 } else { -1.0 };
            at.push(Vec3::new(sign(0), sign(1), sign(2)) * (half - 0.1));
            at.push(Vec3::new(
                half,
                sign(1) * rng.uniform(0.0, half),
                if corner < 4 { half + 0.3 } else { half },
            ));
        }
        for _ in 0..10 {
            at.push(at[(rng.next_u64() % at.len() as u64) as usize]);
        }
        if crowd {
            let centre = Vec3::new(0.3, -0.3, 0.3);
            for _ in 0..140 {
                let jitter = Vec3::new(
                    rng.uniform(-0.25, 0.25),
                    rng.uniform(-0.25, 0.25),
                    rng.uniform(-0.25, 0.25),
                );
                at.push(centre + jitter);
            }
        }
        let mut rm = ResourceManager::new();
        for p in at {
            let diameter = [1.0, 1.6, 2.0, 2.5][(rng.next_u64() % 4) as usize];
            rm.add(CellBuilder::new(p).diameter(diameter).adherence(0.01));
        }
        // Touching pairs, on dyadic coordinates so the squared distance
        // is exactly 2.5².
        let offsets = [
            Vec3::new(2.5, 0.0, 0.0),
            Vec3::new(0.0, 2.5, 0.0),
            Vec3::new(1.5, 0.0, 2.0),
        ];
        for (k, offset) in offsets.into_iter().enumerate() {
            let p = Vec3::new(-4.0 + k as f64, 0.25 * k as f64, -1.5);
            for p in [p, p + offset] {
                rm.add(CellBuilder::new(p).diameter(2.5).adherence(0.01));
            }
        }
        (rm, params)
    }

    fn global_grid(rm: &ResourceManager, params: &SimParams) -> CsrGrid<f64> {
        let (xs, ys, zs) = rm.position_columns();
        let radius = interaction_radius(rm, params);
        CsrGrid::build_serial(xs, ys, zs, params.space, radius)
    }

    /// Cut `0..n` at `cuts` random points — nothing aligns them to voxels,
    /// so parts split voxels' residents; repeated points make empty parts.
    fn random_ranges(n: usize, cuts: usize, rng: &mut SplitMix64) -> Vec<std::ops::Range<usize>> {
        let mut at: Vec<usize> = (0..cuts)
            .map(|_| (rng.next_u64() % (n as u64 + 1)) as usize)
            .collect();
        at.extend([0, n]);
        at.sort_unstable();
        at.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// The oracle over global grids: crowded scene then thin scene
    /// through one `LaneScratch` — the crowded one grows it, the thin one
    /// after it runs on its stale tail — in storage order `order`, cut at
    /// `cuts` unaligned slots.
    fn global_oracle_case(
        seed: u64,
        order: usize,
        derived: bool,
        cuts: usize,
        precision: Precision,
    ) {
        let radius = (!derived).then_some(2.0 + (seed % 3) as f64 * 0.55);
        let mut lane = LaneScratch::default();
        let mut rng = SplitMix64::new(seed ^ 0xc0ffee);
        for crowd in [true, false] {
            let (mut rm, params) = oracle_scene(seed, radius, crowd, precision);
            store(&mut rm, &params, STORAGES[order], seed);
            let grid = global_grid(&rm, &params);
            let parts: Vec<OraclePart<'_>> = random_ranges(rm.len(), cuts, &mut rng)
                .into_iter()
                .map(|r| (r, &grid))
                .collect();
            assert_matches_reference(&rm, &params, Cut::Slots, &parts, &mut lane);
            if crowd {
                let grown = lane.px.len().max(lane.wx.len());
                assert!(grown > 128, "the crowded stencil grew the stage");
            }
        }
    }

    /// The oracle on shard-local grids: four shards, each part reading
    /// its own grid of owned + halo members, in the driver's storage
    /// order.
    fn shard_oracle_case(seed: u64, derived: bool, precision: Precision) {
        let radius = (!derived).then_some(2.0 + (seed % 3) as f64 * 0.55);
        let (mut rm, params) = oracle_scene(seed, radius, seed.is_multiple_of(2), precision);
        let mut params = params.with_shards(4).with_shard_rebalance(1, 1.0);
        // Frozen: the step below builds the shard grids (and sorts
        // storage) but moves nobody, so they stay the grids of `rm`.
        params.mech.max_displacement = 0.0;
        let mut driver = ShardedEnvironment::new(4);
        driver.rebalance(&rm, &params);
        let work = driver.step(&mut rm, &params, true, &mut MechScratch::default());
        assert!(driver.halo_agents() > 0, "shards import halos");
        let parts: Vec<OraclePart<'_>> = driver.parts().collect();
        assert_eq!(parts.len(), 4);
        let cut = Cut::SortedStorage;
        let staged =
            assert_matches_reference(&rm, &params, cut, &parts, &mut LaneScratch::default());
        assert_eq!(work.stencils_staged, Some(staged));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The voxel-staged `f32` lane body against the retained
        /// per-agent gather kernel, bit for bit, over global grids in
        /// every storage order with unaligned cuts.
        #[test]
        fn staged_lanes_match_the_per_agent_kernel_bitwise(
            seed in 0u64..10_000,
            order in 0usize..STORAGES.len(),
            derived in proptest::prelude::any::<bool>(),
            cuts in 0usize..7,
        ) {
            global_oracle_case(seed, order, derived, cuts, Precision::F32Simd);
        }

        /// The same identity on shard-local grids.
        #[test]
        fn staged_lanes_match_the_per_agent_kernel_on_shard_grids(
            seed in 0u64..10_000,
            derived in proptest::prelude::any::<bool>(),
        ) {
            shard_oracle_case(seed, derived, Precision::F32Simd);
        }

        /// The staged `f64` lane body against the scalar kernel it
        /// replaced under CSR ([`scalar_lanes`] over the grid's x-runs),
        /// bit for bit, on the same scenes, orders and cuts — and on
        /// shard-local grids.
        #[test]
        fn staged_f64_lanes_match_the_scalar_kernel_bitwise(
            seed in 0u64..10_000,
            order in 0usize..STORAGES.len(),
            derived in proptest::prelude::any::<bool>(),
            cuts in 0usize..7,
        ) {
            global_oracle_case(seed, order, derived, cuts, Precision::F64);
            if cuts == 0 {
                shard_oracle_case(seed, derived, Precision::F64);
            }
        }
    }

    #[test]
    fn a_single_agent_stages_its_own_stencil() {
        for (precision, pad_lanes) in [(Precision::F32Simd, Some(7)), (Precision::F64, None)] {
            let params = SimParams::cube(6.0).with_precision(precision);
            let mut rm = ResourceManager::new();
            rm.add(CellBuilder::new(Vec3::new(1.0, 2.0, 3.0)).diameter(2.0));
            let grid = global_grid(&rm, &params);
            let (parts, lane) = ([(0..1, &grid)], &mut LaneScratch::default());
            let staged = assert_matches_reference(&rm, &params, Cut::Slots, &parts, lane);
            assert_eq!(staged, 1);
            let work = mechanical_step(
                &mut rm,
                &params,
                &EnvironmentKind::uniform_grid_csr_serial(),
                None,
            );
            // One batch: itself + 7 pads.
            assert_eq!(work.candidates, 0);
            assert_eq!(work.simd.map(|simd| simd.pad_lanes), pad_lanes);
            assert_eq!(work.stencils_staged, Some(1));
        }
    }

    /// The stage count is a function of the grid and the cuts: every
    /// non-empty voxel is staged once, plus once more per part boundary
    /// that splits its residents — on sorted and on shuffled storage
    /// alike, at either precision. Same bits as the oracle either way.
    #[test]
    fn every_voxel_is_staged_once() {
        let sim = crate::workload::benchmark_b(20_000, 47.0, 11);
        for precision in [Precision::F32Simd, Precision::F64] {
            let params = sim.params().clone().with_precision(precision);
            let staged_on = |storage: Storage| {
                let mut rm = sim.rm().clone();
                store(&mut rm, &params, storage, 11);
                let grid = global_grid(&rm, &params);
                let cuts = chunk_cuts(rm.len());
                let parts: Vec<OraclePart<'_>> =
                    cuts.windows(2).map(|w| (w[0]..w[1], &grid)).collect();
                let lane = &mut LaneScratch::default();
                let staged = assert_matches_reference(&rm, &params, Cut::Slots, &parts, lane);
                let starts = grid.cell_starts();
                let occupied = starts.windows(2).filter(|w| w[0] < w[1]).count();
                let split = cuts[1..cuts.len() - 1]
                    .iter()
                    .filter(|&&c| starts.binary_search(&(c as u32)).is_err())
                    .count();
                assert_eq!(staged, (occupied + split) as u64, "{storage:?}");
                // The sweep itself reports the same count.
                let env = EnvironmentKind::uniform_grid_csr_parallel();
                let work = mechanical_step(&mut rm.clone(), &params, &env, None);
                assert_eq!(work.stencils_staged, Some(staged));
                let reuse = work.stencil_reuse(rm.len()).expect("a CSR sweep");
                assert!(reuse >= 0.85, "{precision:?} {storage:?}: reuse {reuse}");
                staged
            };
            let sorted = staged_on(Storage::Sorted(bdm_morton::Curve::ZOrder));
            assert_eq!(sorted, staged_on(Storage::Shuffled), "{precision:?}");
        }
    }

    /// The slot → agent apply, end to end: one step of the f64 CSR path
    /// on shuffled storage moves every agent, by uid, exactly as applying
    /// the scalar kernel's displacements in storage order does.
    #[test]
    fn a_step_on_shuffled_storage_moves_every_agent_as_the_oracle_does() {
        let (mut rm, params) = oracle_scene(5, None, true, Precision::F64);
        store(&mut rm, &params, Storage::Shuffled, 5);
        let grid = global_grid(&rm, &params);
        let mut want = rm.clone();
        let mut disp = vec![Vec3::zero(); rm.len()];
        scalar_lanes(&rm, &params, &grid, 0, &mut disp);
        apply_displacements(&mut want, &disp, None);
        let by_uid = |rm: &ResourceManager| -> Vec<(u64, [u64; 3])> {
            let mut at: Vec<_> = (0..rm.len())
                .map(|i| {
                    let p = rm.position(i);
                    (rm.uid_column()[i], [p.x, p.y, p.z].map(f64::to_bits))
                })
                .collect();
            at.sort_unstable();
            at
        };
        let before = by_uid(&rm);
        let env = EnvironmentKind::uniform_grid_csr_parallel();
        mechanical_step(&mut rm, &params, &env, None);
        assert_ne!(by_uid(&rm), before, "the scene moves");
        assert_eq!(by_uid(&rm), by_uid(&want));
    }

    #[test]
    fn scratch_is_reused_across_steps() {
        // Every CPU path sweeps into the scratch (the CSR paths also keep
        // their grid and f32 mirrors there): a second step through the
        // same scratch matches fresh runs.
        for (env, precision) in [
            (EnvironmentKind::KdTree, Precision::F64),
            (EnvironmentKind::uniform_grid_parallel(), Precision::F64),
            (EnvironmentKind::uniform_grid_csr_parallel(), Precision::F64),
            (
                EnvironmentKind::uniform_grid_csr_parallel(),
                Precision::F32Simd,
            ),
        ] {
            let params = SimParams::cube(6.0).with_precision(precision);
            let mut rm = random_population(300, 5.5, 23);
            let mut scratch = MechScratch::default();
            let w1 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
            let w2 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
            assert!(w1.neighbors > 0 && w2.neighbors > 0);
            let mut fresh = random_population(300, 5.5, 23);
            mechanical_step(&mut fresh, &params, &env, None);
            mechanical_step(&mut fresh, &params, &env, None);
            assert_eq!(positions(&rm), positions(&fresh), "{env:?} {precision:?}");
        }
        // The CSR bodies' per-part stage lives there too: once a step
        // has sized it, a second step over the same (frozen) scene finds
        // every buffer large enough — the sweep's tasks allocate nothing.
        for (precision, columns) in [(Precision::F32Simd, 8), (Precision::F64, 5)] {
            let mut params = SimParams::cube(6.0).with_precision(precision);
            params.mech.max_displacement = 0.0;
            let env = EnvironmentKind::uniform_grid_csr_parallel();
            let mut rm = random_population(CSR_PASS_CHUNK + 300, 5.5, 23);
            let mut scratch = MechScratch::default();
            let capacities = |scratch: &MechScratch| -> Vec<Vec<usize>> {
                let cap = |l: &LaneScratch| {
                    let narrow = [&l.px, &l.py, &l.pz, &l.dj, &l.fx, &l.fy, &l.fz];
                    let wide = [&l.wx, &l.wy, &l.wz];
                    let caps = [l.ids.capacity(), l.near.capacity()].into_iter();
                    let caps = caps.chain(narrow.map(Vec::capacity));
                    caps.chain(wide.map(Vec::capacity)).collect()
                };
                scratch.lanes.iter().map(cap).collect()
            };
            mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
            let first = capacities(&scratch);
            assert_eq!(first.len(), 2, "one stage per sweep part");
            for caps in &first {
                // The tile's ids plus the body's own columns, and only those.
                let sized = caps.iter().filter(|&&c| c >= LANES).count();
                assert_eq!((sized, caps[0] >= LANES), (columns, true), "{precision:?}");
            }
            mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
            assert_eq!(capacities(&scratch), first, "{precision:?}");
        }
    }

    #[test]
    fn gpu_environment_matches_cpu() {
        let params = SimParams::cube(6.0);
        let mut a = random_population(250, 5.5, 7);
        let mut b = a.clone();
        mechanical_step(
            &mut a,
            &params,
            &EnvironmentKind::uniform_grid_serial(),
            None,
        );
        let env = EnvironmentKind::gpu_default();
        let mut pipeline = match env {
            EnvironmentKind::Gpu {
                system,
                frontend,
                version,
                trace_sample,
            } => MechanicalPipeline::new(system.spec(), frontend, version, trace_sample),
            _ => unreachable!(),
        };
        let w = mechanical_step(&mut b, &params, &env, Some(&mut pipeline));
        assert!(w.gpu.is_some());
        let pa = positions(&a);
        let pb = positions(&b);
        let mut max_err = 0.0f64;
        for i in 0..pa.len() {
            max_err = max_err.max((pa[i] - pb[i]).norm());
        }
        // GPU best version is FP32: loose tolerance.
        assert!(max_err < 1e-3, "divergence {max_err}");
    }

    /// End-to-end resident plumbing through `mechanical_step`: with
    /// `SimParams::gpu_resident` on, every step reports `resident`,
    /// steady-state steps (no births/deaths) move zero host→device
    /// bytes, and the trajectory is bitwise identical to a pipeline
    /// forced to re-upload and rebuild every step.
    #[test]
    fn resident_gpu_steps_go_quiet_and_match_forced_rebuild_bitwise() {
        let params = SimParams::cube(6.0).with_gpu_resident(true);
        let env = EnvironmentKind::gpu_default();
        let mk = || match env {
            EnvironmentKind::Gpu {
                system,
                frontend,
                version,
                trace_sample,
            } => MechanicalPipeline::new(system.spec(), frontend, version, trace_sample),
            _ => unreachable!(),
        };
        let mut a = random_population(250, 5.5, 7);
        let mut b = a.clone();
        let mut pa = mk();
        let mut pb = mk();
        pb.force_full_rebuild = true;
        for step in 0..4 {
            let wa = mechanical_step(&mut a, &params, &env, Some(&mut pa));
            mechanical_step(&mut b, &params, &env, Some(&mut pb));
            let ra = wa.gpu.expect("gpu report");
            assert!(ra.resident, "step {step} not resident");
            if step > 0 {
                assert_eq!(
                    ra.bytes_h2d, 0,
                    "steady-state step {step} moved host→device bytes"
                );
            }
            assert_eq!(
                positions(&a),
                positions(&b),
                "resident diverged from forced-rebuild at step {step}"
            );
        }
        assert!(pa.is_resident());
    }

    #[test]
    fn frozen_params_keep_agents_still() {
        let mut params = SimParams::cube(6.0);
        params.mech.max_displacement = 0.0;
        let mut rm = random_population(200, 5.5, 5);
        let before = positions(&rm);
        let w = mechanical_step(
            &mut rm,
            &params,
            &EnvironmentKind::uniform_grid_parallel(),
            None,
        );
        assert_eq!(before, positions(&rm));
        assert!(w.neighbors > 0, "still counts neighbors");
    }

    #[test]
    fn interaction_radius_policy() {
        let mut rm = ResourceManager::new();
        rm.add(crate::cell::CellBuilder::new(Vec3::zero()).diameter(3.0));
        rm.add(crate::cell::CellBuilder::new(Vec3::new(5.0, 0.0, 0.0)).diameter(7.0));
        // Default: the largest diameter (BioDynaMo's box-length rule).
        let params = SimParams::cube(10.0);
        assert_eq!(interaction_radius(&rm, &params), 7.0);
        // Override wins.
        let params = SimParams::cube(10.0).with_interaction_radius(2.5);
        assert_eq!(interaction_radius(&rm, &params), 2.5);
    }

    #[test]
    fn larger_radius_finds_more_candidates() {
        let params_small = SimParams::cube(6.0).with_interaction_radius(1.0);
        let params_large = SimParams::cube(6.0).with_interaction_radius(3.0);
        let mut a = random_population(300, 5.5, 17);
        let mut b = a.clone();
        let ws = mechanical_step(
            &mut a,
            &params_small,
            &EnvironmentKind::uniform_grid_serial(),
            None,
        );
        let wl = mechanical_step(
            &mut b,
            &params_large,
            &EnvironmentKind::uniform_grid_serial(),
            None,
        );
        assert!(wl.neighbors > ws.neighbors);
        assert!(wl.candidates > ws.candidates);
    }

    #[test]
    fn reorder_shrinks_the_csr_index_gap() {
        // A random cloud in insertion order has near-random candidate
        // index gaps; after a curve sort the fused pass must report a
        // much smaller mean gap (the reorder op's whole purpose).
        let params = SimParams::cube(6.0);
        let mut rm = random_population(2_000, 5.5, 41);
        let env = EnvironmentKind::uniform_grid_csr_serial();
        let before = mechanical_step(&mut rm.clone(), &params, &env, None)
            .index_gap
            .expect("CSR path reports a gap");
        sort_along(&mut rm, &params, bdm_morton::Curve::ZOrder);
        let after = mechanical_step(&mut rm, &params, &env, None)
            .index_gap
            .expect("CSR path reports a gap");
        assert!(
            after < before * 0.5,
            "expected ≥2× locality improvement: before={before:.1} after={after:.1}"
        );
    }

    #[test]
    fn empty_population_is_a_noop() {
        let params = SimParams::cube(6.0);
        let mut rm = ResourceManager::new();
        let w = mechanical_step(&mut rm, &params, &EnvironmentKind::KdTree, None);
        assert_eq!(w.candidates, 0);
    }

    #[test]
    fn f32simd_mirror_refresh_is_lazy_across_steps() {
        // Frozen scene (max_displacement = 0): nothing mutates between
        // steps, so the second step's dirty epochs are unchanged and the
        // mirrors must not re-convert anything.
        let mut params = SimParams::cube(6.0).with_precision(Precision::F32Simd);
        params.mech.max_displacement = 0.0;
        let mut rm = random_population(300, 5.5, 23);
        let mut scratch = MechScratch::default();
        let env = EnvironmentKind::uniform_grid_csr_parallel();
        let w1 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        assert_eq!(w1.simd.unwrap().refresh_copies, 5 * 300);
        let w2 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        assert_eq!(
            w2.simd.unwrap().refresh_copies,
            0,
            "clean epochs: no copies"
        );
        // Unfreeze: displacements dirty the position columns only — the
        // attribute mirrors (diameters/adherences) stay clean forever in
        // a non-growing population.
        params.mech.max_displacement = 3.0;
        let w3 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        assert!(w3.contacts > 0);
        let w4 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        assert_eq!(
            w4.simd.unwrap().refresh_copies,
            4 * 300,
            "moved agents recopy the packed gather record (whole, 4 \
             components) but not the adherence mirror"
        );
    }

    #[test]
    fn precision_knob_only_reaches_the_csr_path() {
        // The other environments have no vectorized pass: the knob is
        // documented to be a no-op there, bitwise.
        let params64 = SimParams::cube(6.0);
        let params32 = params64.clone().with_precision(Precision::F32Simd);
        for env in [
            EnvironmentKind::KdTree,
            EnvironmentKind::uniform_grid_serial(),
            EnvironmentKind::uniform_grid_parallel(),
        ] {
            let mut a = random_population(200, 5.5, 31);
            let mut b = a.clone();
            let wa = mechanical_step(&mut a, &params64, &env, None);
            let wb = mechanical_step(&mut b, &params32, &env, None);
            assert!(wa.simd.is_none() && wb.simd.is_none());
            assert_eq!(positions(&a), positions(&b), "{}", env.label());
        }
    }

    #[test]
    fn interaction_radius_reuses_the_diameter_cache_across_steps() {
        // The satellite fix, observed end-to-end: a uniform-diameter
        // population steps many times (every step calls
        // `interaction_radius` → `largest_diameter`) and even loses
        // agents — the diameter column must be scanned exactly once.
        let params = SimParams::cube(6.0);
        let mut rm = random_population(300, 5.5, 23);
        let mut scratch = MechScratch::default();
        let env = EnvironmentKind::uniform_grid_csr_parallel();
        for _ in 0..5 {
            mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        }
        assert_eq!(rm.diameter_scan_count(), 1, "one memoized scan, ever");
        // Deaths in a uniform-diameter population always remove "a
        // maximum holder" — the holder count keeps the cache alive.
        for _ in 0..10 {
            rm.remove(0);
            mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        }
        assert_eq!(
            rm.diameter_scan_count(),
            1,
            "tie-deaths must not degenerate into per-step column scans"
        );
    }
}
