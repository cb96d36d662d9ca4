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
//!   the integration maps slot → agent through `cell_agents()`
//!   (`ResourceManager::translate_each`, a serial scatter). The parts
//!   run in bands of at least `bdm_soa::BAND_CHUNKS` chunks, each band
//!   integrated once the next is swept, so the displacements of two
//!   bands are held, not one per agent (`band_starts`).
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
//! input to the Table I CPU timing model, priced by [`crate::work_model`].

use crate::environment::{EnvironmentKind, GridLayout};
use crate::param::{Precision, SimParams};
use crate::rm::ResourceManager;
use crate::shard::ShardedEnvironment;
use crate::work_model::{self as wm, ForcePass};
use bdm_device::cpu::Phase;
use bdm_gpu::pipeline::{GpuStepReport, MechanicalPipeline, SceneRef};
use bdm_grid::{CsrGrid, QueryCounters, UniformGrid};
use bdm_kdtree::KdTree;
use bdm_math::interaction;
use bdm_math::simd::{F32x8, F64x8, U32x8, LANES};
use bdm_math::{Aabb, Vec3};
use bdm_soa::{AgentId, StepBuffer};
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

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
    /// Always `0`: the f32 body narrows the f64 columns while it stages
    /// a voxel's tile and keeps no `f32` copy to refresh. Kept for
    /// readers of the field.
    pub refresh_copies: u64,
    /// 8-lane blocks Eq. 1 ran on: per agent, the blocks of its tile
    /// with a lane inside the interaction radius (its own block always
    /// is). `1 − blocks_evaluated · LANES / (lanes_utilized + pad_lanes +
    /// agents)` is the share of the tile the radius gate skipped.
    pub blocks_evaluated: u64,
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
    /// Why the global CSR grid was or was not rebuilt this step; `None`
    /// off the unsharded CSR path.
    pub csr_rebuild: Option<CsrRebuild>,
}

/// Why the global CSR grid was or was not rebuilt (the
/// `mech.csr_rebuild{reason}` label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrRebuild {
    /// Skipped without a look at the columns: the position stamp and the
    /// population equal those of the grid's last full build of the same
    /// geometry.
    Unchanged,
    /// Skipped after the O(n) check: every agent is still in its voxel.
    Held,
    /// Rebuilt: the grid was not a full build of this step's geometry
    /// (the first step, or the interaction radius changed).
    Geometry,
    /// Rebuilt: same geometry, but an agent changed voxel or the
    /// population changed.
    Moved,
}

impl CsrRebuild {
    /// The metric label.
    pub fn label(self) -> &'static str {
        match self {
            CsrRebuild::Unchanged => "unchanged",
            CsrRebuild::Held => "held",
            CsrRebuild::Geometry => "geometry",
            CsrRebuild::Moved => "moved",
        }
    }

    /// `true` when the grid kept its arrays.
    fn skipped(self) -> bool {
        matches!(self, CsrRebuild::Unchanged | CsrRebuild::Held)
    }
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
    /// seconds ride along for a reader of the registry; no `BENCH_*.json`
    /// document holds them.
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
        if let Some(reason) = self.csr_rebuild {
            let labels = [("env", env), ("reason", reason.label())];
            reg.inc_counter("mech.csr_rebuild", &labels, 1.0);
        }
        if let Some(gap) = self.index_gap {
            reg.set_gauge("mech.csr_index_gap", &labels, gap);
        }
        if let Some(staged) = self.stencils_staged {
            reg.inc_counter("mech.stencils_staged", &labels, staged as f64);
        }
        if let Some(simd) = &self.simd {
            reg.inc_counter(
                "mech.simd_lanes_utilized",
                &labels,
                simd.lanes_utilized as f64,
            );
            reg.inc_counter("mech.simd_pad_lanes", &labels, simd.pad_lanes as f64);
            reg.inc_counter(
                "mech.simd_blocks_evaluated",
                &labels,
                simd.blocks_evaluated as f64,
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
/// step's one per-agent buffer every sweep writes its displacements
/// into, plus the CSR path's grid arrays and lane scratch, all persist
/// across steps, so a steady-state CSR step allocates nothing. The
/// [`crate::Simulation`] owns one of these for its lifetime; one-shot
/// callers can pass a fresh default. The grid is keyed on the resource
/// manager's process-unique position stamp, so a scratch passed a
/// different manager (a clone, a restored one) never reuses a grid it
/// built for another.
#[derive(Default)]
pub struct MechScratch {
    /// Global CSR grid, rebuilt in place every unsharded step.
    pub(crate) csr: Option<CsrGrid<f64>>,
    /// The position stamp the global grid was last built or verified
    /// against: while it holds (it moves on every change of the
    /// population too) and the grid is a full build of the step's
    /// geometry, the rebuild is skipped without reading the columns.
    csr_key: Option<u64>,
    /// The step buffer: the force sweep's displacements (every CPU path,
    /// sharded or not; two bands' worth on the global CSR sweep), lent
    /// before the sweep to the global CSR build (its
    /// voxel ids and histograms), and between sweeps to the reorder — the
    /// shard sort's included — and to a division wave.
    pub(crate) buffer: StepBuffer,
    /// The CSR bodies' stage and pass buffers: a pool a sweep part takes
    /// one from and returns it to, so it holds one per worker that ran a
    /// part at once, not one per part.
    lanes: Vec<LaneScratch>,
    /// The global CSR sweep's band starts ([`band_starts`]), refilled
    /// every step.
    bands: Vec<usize>,
}

impl MechScratch {
    /// Heap bytes of the global CSR grid (the one the unsharded sweep
    /// walks).
    pub(crate) fn grid_bytes(&self) -> usize {
        self.csr.as_ref().map_or(0, CsrGrid::resident_bytes)
    }

    /// How many lane scratches the pool holds, and their heap bytes.
    pub(crate) fn lane_scratch(&self) -> (usize, usize) {
        let bytes = self.lanes.iter().map(LaneScratch::resident_bytes).sum();
        (self.lanes.len(), bytes)
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
            None => cpu_grid_csr_step(rm, params, *parallel, scratch, bdm_soa::BAND_CHUNKS),
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

/// The neighbor lists of one [`bdm_soa::CHUNK`]-agent chunk, flat: agent
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
        self.for_each_in_stencil(p, |id| visit(id.index()))
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
        self.for_each_in_stencil(p, |id| visit(id.index()))
    }
}

/// An empty CSR grid for a scratch slot to rebuild in place.
pub(crate) fn empty_csr(space: Aabb<f64>, radius: f64) -> CsrGrid<f64> {
    CsrGrid::build_parallel(&[], &[], &[], space, radius)
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

impl SweepStats {
    /// Both parts' counts.
    fn add(mut self, s: SweepStats) -> SweepStats {
        self.counters.merge(&s.counters);
        self.contacts += s.contacts;
        self.gap_sum += s.gap_sum;
        self.simd.lanes_utilized += s.simd.lanes_utilized;
        self.simd.pad_lanes += s.simd.pad_lanes;
        self.simd.blocks_evaluated += s.simd.blocks_evaluated;
        self.staged += s.staged;
        self
    }
}

/// How a sweep tiles its displacements: part `c` writes entries
/// `cuts[c]..cuts[c + 1]`, and entry `k` moves agent `agent_of[k]` —
/// `None` when the entries are in storage order (entry `k` is agent
/// `k`). The parts run in bands: band `b` is parts
/// `bands[b]..bands[b + 1]`, the last band running to the last part.
#[derive(Clone, Copy)]
struct SweepParts<'a> {
    cuts: &'a [usize],
    agent_of: Option<&'a [AgentId]>,
    bands: &'a [usize],
}

impl<'a> SweepParts<'a> {
    /// Parts of a buffer in storage order, in one band.
    fn of_storage(cuts: &'a [usize]) -> Self {
        Self {
            cuts,
            agent_of: None,
            bands: &[0],
        }
    }

    /// The parts of band `b`.
    fn band_parts(&self, b: usize) -> std::ops::Range<usize> {
        let end = self.bands.get(b + 1).map_or(self.cuts.len() - 1, |&p| p);
        self.bands[b]..end
    }

    /// The entries of band `b`.
    fn band(&self, b: usize) -> std::ops::Range<usize> {
        let parts = self.band_parts(b);
        self.cuts[parts.start]..self.cuts[parts.end]
    }

    /// The entries of the longest band of every other one from `first`:
    /// the length of the region those bands take turns in.
    fn region(&self, first: usize) -> usize {
        let bands = (first..self.bands.len()).step_by(2);
        bands.map(|b| self.band(b).len()).max().unwrap_or(0)
    }
}

/// What a debug build fills the displacements with before a sweep: a
/// quiet NaN whose payload no arithmetic produces, so an entry no lane
/// body wrote moves its agent to NaN and shows in the buffer by its bits.
const DISPLACEMENT_POISON: f64 = f64::from_bits(0x7ff8_dead_0bad_f00d);

/// The one host force sweep. Runs `lanes(agents, part, first entry,
/// part's slice, a lane scratch)` on every part of `parts` as its own
/// rayon task (the scratches persist across steps in a pool, one per
/// worker that ran a part at once; only the CSR bodies use them), band
/// by band, sums the statistics, integrates, and builds the step's
/// [`MechWork`], its force phase priced as `pass` ([`wm::forces`]). `timed`
/// holds the phases that already ran (build, search, shard sort) with
/// their wall clocks; `parallel` is the force phase's flag in the
/// machine model. The sweep's own wall clock excludes integration, on
/// every path.
///
/// The displacements are borrowed from the step buffer as two regions,
/// which the bands take turns in: once band `b` is swept, band `b − 1`
/// is integrated ([`ResourceManager::translate_each`]: in parallel parts
/// in storage order, a serial scatter through `agent_of`), and the last
/// band once every band is swept. One band (the kd, linked-list and sharded
/// sweeps) holds one entry per agent and integrates at the end; the
/// global CSR sweep's bands ([`band_starts`]) hold two bands' entries,
/// which is exact because no stencil of band `b + 1` reads an agent of
/// band `b − 1` — a debug build's [`LaneScratch::stage`] checks it.
/// Every body writes every entry of its slice, so nothing zeroes the
/// buffer first (a debug build poisons each band's slice instead).
///
/// Per-agent results are independent writes into disjoint slices and the
/// statistics are integer sums, so neither the partition
/// ([`bdm_soa::chunk_cuts`] globally, the shard ranges when sharded), the
/// bands nor the schedule can affect a displacement bit or a modeled
/// counter ([`MechWork::stencils_staged`] alone counts something per
/// part).
fn force_sweep(
    rm: &mut ResourceManager,
    (buffer, lane_scratch): (&mut StepBuffer, &mut Vec<LaneScratch>),
    mut timed: Vec<(Phase, f64)>,
    parts: SweepParts<'_>,
    pass: ForcePass,
    parallel: bool,
    lanes: impl Fn(&ResourceManager, usize, usize, &mut [Vec3<f64>], &mut LaneScratch) -> SweepStats
        + Sync,
) -> MechWork {
    let SweepParts {
        cuts,
        agent_of,
        bands,
    } = parts;
    let disp = buffer.vec3s(parts.region(0) + parts.region(1));
    let (even, odd) = disp.split_at_mut(parts.region(0));
    let regions = [even, odd];
    let pool = Mutex::new(std::mem::take(lane_scratch));
    const POISONED: &str = "a sweep part panicked holding the lane pool";
    let take = || pool.lock().expect(POISONED).pop().unwrap_or_default();
    let mut stats = SweepStats::default();
    let mut wall_sweep = 0.0;
    // Sweep band `b`, then integrate band `b − 1`; the step past the last
    // band only integrates.
    for b in 0..=bands.len() {
        if b < bands.len() {
            let t = Instant::now();
            let mut out = &mut regions[b % 2][..parts.band(b).len()];
            if cfg!(debug_assertions) {
                out.fill(Vec3::splat(DISPLACEMENT_POISON));
            }
            // Band `b − 1` is not integrated yet; those before it are.
            let settled = b.checked_sub(1).map_or(0, |w| parts.band(w).start);
            let outs: Vec<_> = parts
                .band_parts(b)
                .map(|part| {
                    let len = cuts[part + 1] - cuts[part];
                    let (head, tail) = std::mem::take(&mut out).split_at_mut(len);
                    out = tail;
                    (part, head)
                })
                .collect();
            let agents = &*rm;
            let band = outs
                .into_par_iter()
                .map(|(part, out)| {
                    // The part runs on a stack copy of a pooled scratch: a
                    // body that wrote a `Vec` header per stage (a `clear`,
                    // a `resize`) would otherwise trade its cache line with
                    // the worker next to it all sweep long. The buffers go
                    // back afterwards, so capacities persist. Which scratch
                    // a part gets depends on the schedule; its contents
                    // never reach a result, because every buffer is
                    // grow-only and read only below what the current stage
                    // wrote.
                    let mut lane = take();
                    lane.settled = settled;
                    let stats = lanes(agents, part, cuts[part], out, &mut lane);
                    pool.lock().expect(POISONED).push(lane);
                    stats
                })
                .reduce(SweepStats::default, SweepStats::add);
            wall_sweep += t.elapsed().as_secs_f64();
            stats = stats.add(band);
        }
        if let Some(w) = b.checked_sub(1) {
            let entries = parts.band(w);
            rm.translate_each(&regions[w % 2][..entries.len()], entries, agent_of);
        }
    }
    *lane_scratch = pool.into_inner().expect(POISONED);

    let forces = wm::forces(pass, rm.len(), &stats.counters, stats.contacts, parallel);
    timed.push((forces, wall_sweep));
    let (phases, wall_s) = timed.into_iter().unzip();
    let csr = matches!(pass, ForcePass::Csr(_));
    MechWork {
        phases,
        wall_s,
        candidates: stats.counters.points_tested,
        contacts: stats.contacts,
        neighbors: stats.counters.neighbors_found,
        index_gap: (csr && stats.counters.points_tested > 0)
            .then(|| stats.gap_sum as f64 / stats.counters.points_tested as f64),
        stencils_staged: csr.then_some(stats.staged),
        simd: (pass == ForcePass::Csr(Precision::F32Simd)).then_some(stats.simd),
        ..Default::default()
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
        let voxel = grid.voxel_of_slot(slots.start);
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
                let [dx, dy, _] = self.grid.geometry().dims();
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
    /// `f32` body: the candidates' `x, y, z, diameter`, narrowed from
    /// the f64 columns once per stage, so pass A loads contiguously.
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
    /// in candidate order — pass 1's output, pass 2's input. `f32` body:
    /// tile offsets of the 8-lane blocks with a lane inside the radius,
    /// ascending — the gate's output, Eq. 1's and pass B's input.
    near: Vec<u32>,
    /// Slots of `cell_agents()` below this one were integrated before the
    /// current band ([`force_sweep`]); a debug build's stage panics if it
    /// gathers one. 0 outside the banded global sweep.
    settled: usize,
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
    /// Heap bytes the buffers hold.
    fn resident_bytes(&self) -> usize {
        let words = [&self.wx, &self.wy, &self.wz].map(Vec::capacity);
        let narrow = [
            &self.px, &self.py, &self.pz, &self.dj, &self.fx, &self.fy, &self.fz,
        ];
        let narrow = narrow.map(Vec::capacity).iter().sum::<usize>();
        8 * words.iter().sum::<usize>() + 4 * (narrow + self.ids.capacity() + self.near.capacity())
    }

    /// Stage the candidate ids of a voxel's stencil — a function of the
    /// voxel alone.
    fn stage(&mut self, grid: &CsrGrid<f64>, group: &VoxelGroup) -> Tile {
        let (starts, voxel) = (grid.cell_starts(), group.voxel);
        let agents = grid.cell_agents();
        let (mut len, mut boxes, mut center) = (0usize, 0u64, 0usize);
        for (first, count) in grid.geometry().x_runs_of(group.coords) {
            let last = first + count as usize;
            let (lo, hi) = (starts[first] as usize, starts[last] as usize);
            debug_assert!(
                lo == hi || lo >= self.settled,
                "voxel {voxel}'s stencil reads slot {lo}, integrated before slot {}",
                self.settled
            );
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
                let Some(block) = agents[from..].first_chunk::<LANES>() else {
                    // The last ids of the array: exactly the run's rest.
                    let rest = self.ids[to..].iter_mut().zip(&agents[from..hi]);
                    rest.for_each(|(to, id)| *to = id.0);
                    break;
                };
                self.ids[to..to + LANES].copy_from_slice(&block.map(|id| id.0));
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

    /// [`Self::stage`] plus the candidates' `x, y, z, diameter` as `f32`
    /// columns, each rounded to nearest from its f64 column.
    fn stage_f32(
        &mut self,
        grid: &CsrGrid<f64>,
        (xs, ys, zs): (&[f64], &[f64], &[f64]),
        diameters: &[f64],
        group: &VoxelGroup,
    ) -> Tile {
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
        grow(&mut self.near, padded / LANES);
        for off in (0..padded).step_by(LANES) {
            let idv = U32x8::from_slice(&self.ids[off..]);
            let [x, y, z, d] = load_block([xs, ys, zs, diameters], idv);
            x.narrow().write_to_slice(&mut self.px[off..]);
            y.narrow().write_to_slice(&mut self.py[off..]);
            z.narrow().write_to_slice(&mut self.pz[off..]);
            d.narrow().write_to_slice(&mut self.dj[off..]);
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
            let [x, y, z] = load_block([xs, ys, zs], idv);
            x.write_to_slice(&mut self.wx[off..]);
            y.write_to_slice(&mut self.wy[off..]);
            z.write_to_slice(&mut self.wz[off..]);
        }
        tile
    }
}

/// Lane `l` of `first..first + LANES`.
const RUN: U32x8 = U32x8([0, 1, 2, 3, 4, 5, 6, 7]);

/// Each column's values under an 8-id block: contiguous loads when the
/// ids are exactly the agents `first..first + LANES` — most blocks of a
/// tile on Z-sorted storage — else gathers. All eight lanes are
/// compared: a block whose ends are `first` and `first + 7` may still
/// hold other ids between them.
#[inline(always)]
fn load_block<const N: usize>(cols: [&[f64]; N], idv: U32x8) -> [F64x8; N] {
    let first = idv.0[0];
    let mut out = [F64x8::zero(); N];
    // Loops, not `array::map`: a closure that may panic (the slice
    // bound) turns `map` into an out-of-line `try_map` call per block.
    if idv.ne(U32x8::splat(first) + RUN).bits() == 0 {
        for (v, col) in out.iter_mut().zip(cols) {
            *v = F64x8::from_slice(&col[first as usize..]);
        }
    } else {
        for (v, col) in out.iter_mut().zip(cols) {
            *v = F64x8::gather(col, idv);
        }
    }
    out
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
///   ([`LaneScratch::stage_f32`]: the ≤ 9 x-runs' ids concatenated, and
///   their `x, y, z, diameter` loaded from the f64 columns — one
///   contiguous load per column for an 8-id block that is a run of
///   consecutive agents, a gather otherwise — and narrowed to four
///   contiguous `f32` columns with [`F64x8::narrow`]) and then swept
///   resident by resident. A resident needs no lookup of its
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
/// * **Eq. 1 runs only on the blocks that hold a neighbor.** Pass A is
///   two loops over the tile's 8-lane blocks, on contiguous loads through
///   the lane types of [`bdm_math::simd`]. A lean gate over every block
///   computes `dist2` and the index gap and lists, branch-free, the
///   blocks with a lane at `dist2 ≤ r²` (≈ 45 % of them on Benchmark B;
///   the agent's own block always, at distance 0). Eq. 1 then runs on the
///   listed blocks alone, with the `valid` mask and the neighbor and
///   contact counts, and *stores* its contributions; pass B widens and
///   accumulates the listed blocks' **per lane in f64** ([`F64x8`]), in
///   ascending order, reduced in lane-index order. That is exact, bit for
///   bit and counter for counter, against evaluating every block: an
///   unlisted block has no lane inside the radius, so every contribution
///   it would store is `+0.0` and every count 0; a lane sum starts at
///   `+0.0` and a round-to-nearest sum is `−0.0` only when both addends
///   are, so no lane sum is ever `−0.0`, and adding `+0.0` to it changes
///   no bit. Every tile entry but the agent is a valid lane, so
///   `lanes_utilized` is `len − 1` per resident, counted without a mask.
///   The accumulation order is a pure function of the candidate
///   sequence and the batching geometry — never of thread scheduling,
///   of how the agents are partitioned or of what was staged when — so
///   the path is bitwise deterministic (serial ≡ parallel ≡ sharded,
///   run ≡ rerun). It *differs* from the f64 path within the ±1e-5
///   per-step envelope pinned by `tests/precision_claims.rs`, and
///   because storage order changes
///   lane packing (hence rounding), f32 trajectories are also a function
///   of the reorder policy. So are f64 ones, in general: the f64 body
///   sums a voxel's candidates in storage order, which is uid order —
///   and the f64 bits those of a never-reordered run — only while every
///   voxel's residents are in uid order at the sweep. A reorder that cut
///   its cells at another radius, or agents that moved after it, break
///   that (`a_reorder_keeps_f64_bits_only_while_voxels_hold_uid_order`);
/// * displacement integration stays f64: `interaction::displacement`
///   over the f64-accumulated force, with the adherence rounded to
///   `f32` and widened back — the per-step tolerance budget is spent on
///   the force kernel, not on the integrator.
///
/// What the batch loop compiles to (x86-64-v3, `objdump` of the
/// benchmark binary; DESIGN §5.8 has the table). Per 8-lane batch the
/// per-agent-gather body retired 139 instructions — pass A 86, four of
/// them `vgatherdps`, pass B 53, mostly `vinsertps` / `vblendps` /
/// `vextractf128` re-packing scalarised lanes — in ≈ 17.7 ns on one
/// worker of this host. The staged body without the gate retired 84
/// (pass A 70 with no gather, pass B 13.5: `vcvtps2pd` + `vaddpd` from
/// memory) in ≈ 9.1 ns, and the gathers run once per voxel. This body's
/// gate retires 29 per block and a listed block 83 more (Eq. 1 62, pass
/// B 21), two `vsqrtps` and a `vdivps` of them, on 45 % of the blocks.
/// The loops are throughput-bound; their instruction selection is
/// pinned by the `avx2` bodies of the lane ops, because left to the
/// `[T; 8]` array loops LLVM scalarises the `U32x8` statistic
/// accumulators across the batch loop and the staged body comes out
/// *slower* than the gather it replaces. Exact
/// IEEE `vsqrtps` / `vdivps` stay: a variant seeded by `vrsqrtps` /
/// `vrcpps` with one Newton step measured slower.
fn simd_lanes(
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
        let tile = lane.stage_f32(grid, positions, diam, &group);
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
            // The tile's pad lanes take this agent's own id, which is all
            // `valid` looks at: a record under one may list its block for
            // Eq. 1, never count or contribute.
            lane.ids[len..batched].fill(i);
            stats.simd.pad_lanes += (batched - len) as u64;
            // Pin every buffer to exactly `batched` elements: the gate's
            // loop bound then *proves* each 8-lane window is in range.
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
            let hot = &mut lane.near[..batched / LANES];
            // Pass A, first loop — the gate: every block, `dist2 ≤ r²`
            // and the index gap only. A block's offset is written at the
            // cursor either way and kept by advancing the cursor when a
            // lane passed — no branch per block. The own block always
            // passes (distance 0). The gap's lane sums stay far below u32
            // range (≤ ~10⁹ per lane: the agent count per candidate).
            let mut gap_acc = U32x8::splat(0);
            let mut listed = 0usize;
            let mut off = 0usize;
            while off + LANES <= batched {
                let dx = qx - F32x8::from_slice(&pxs[off..off + LANES]);
                let dy = qy - F32x8::from_slice(&pys[off..off + LANES]);
                let dz = qz - F32x8::from_slice(&pzs[off..off + LANES]);
                let dist2 = dx * dx + dy * dy + dz * dz;
                hot[listed] = off as u32;
                listed += dist2.le(r2v).any() as usize;
                // The self lane contributes |i − i| = 0: no mask.
                gap_acc = gap_acc + U32x8::from_slice(&cs[off..off + LANES]).abs_diff(iv);
                off += LANES;
            }
            let hot = &hot[..listed];
            // Per-agent statistic accumulators, vertical form: each listed
            // block adds its masks as 0/1 lanes ([`M32x8::ones`], a `vpand`
            // + `vpaddd` per counter) and the horizontal reduction happens
            // once per agent. Lane sums stay far below u32 range for any
            // realistic stencil (counts gain ≤ 1 per block).
            let (mut neigh_acc, mut contact_acc) = (U32x8::splat(0), U32x8::splat(0));
            // Pass A, second loop — Eq. 1 on the listed blocks, their
            // contributions *stored* rather than accumulated here: six
            // f64 accumulator registers live across this loop would
            // spill it.
            for &off in hot {
                let off = off as usize;
                let idv = U32x8::from_slice(&cs[off..]);
                let valid = idv.ne(iv);
                let px = F32x8::from_slice(&pxs[off..]);
                let py = F32x8::from_slice(&pys[off..]);
                let pz = F32x8::from_slice(&pzs[off..]);
                let dj = F32x8::from_slice(&djs[off..]);
                let dx = qx - px;
                let dy = qy - py;
                let dz = qz - pz;
                let dist2 = dx * dx + dy * dy + dz * dz;
                let neighbor = dist2.le(r2v).and(valid);
                let rj = dj * halfv;
                let sum_r = r1v + rj;
                let dist = dist2.sqrt();
                // Eq. 1 evaluated on every lane of a listed block; the
                // contact mask (the scalar kernel's two early-outs plus
                // the radius gate) discards the NaN/inf garbage of
                // non-contact lanes bitwise. The two divisions fold into
                // one algebraically: with r_eff = r1·rj/sum_r,
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
                    .write_to_slice(&mut fxs[off..]);
                contact
                    .select(dy * scale, zero)
                    .write_to_slice(&mut fys[off..]);
                contact
                    .select(dz * scale, zero)
                    .write_to_slice(&mut fzs[off..]);
                neigh_acc = neigh_acc + neighbor.ones();
                contact_acc = contact_acc + contact.ones();
            }
            // Pass B: widen and accumulate the listed blocks' stored
            // contributions in f64, in ascending block order. An unlisted
            // block would add +0.0 to every lane, and no lane sum is ever
            // −0.0, so the result is bit-identical to accumulating every
            // block.
            let (mut ax, mut ay, mut az) = (F64x8::zero(), F64x8::zero(), F64x8::zero());
            for &off in hot {
                let off = off as usize;
                ax.accumulate(F32x8::from_slice(&fxs[off..]));
                ay.accumulate(F32x8::from_slice(&fys[off..]));
                az.accumulate(F32x8::from_slice(&fzs[off..]));
            }
            // Every tile entry but the agent itself rides a valid lane.
            stats.counters.points_tested += len as u64 - 1;
            stats.simd.lanes_utilized += len as u64 - 1;
            stats.simd.blocks_evaluated += listed as u64;
            stats.counters.neighbors_found += neigh_acc.reduce_sum();
            stats.contacts += contact_acc.reduce_sum();
            stats.gap_sum += gap_acc.reduce_sum();
            let force = Vec3::new(ax.reduce(), ay.reduce(), az.reduce());
            let adherence = adh[i as usize] as f32 as f64;
            *slot = interaction::displacement(force, adherence, mech);
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
    let cuts = bdm_soa::chunk_cuts(n);
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
    let build = wm::kd_build(&build_stats);
    let search = wm::kd_search(&counters);
    let timed = vec![(build, wall_build), (search, wall_search)];

    // Phase 3: forces over the cached lists.
    let (bufs, pass) = ((&mut scratch.buffer, &mut scratch.lanes), ForcePass::Lists);
    let mut work = force_sweep(
        rm,
        bufs,
        timed,
        SweepParts::of_storage(&cuts),
        pass,
        true,
        |rm, c, base, out, _| scalar_lanes(rm, params, &lists[c], base, out),
    );
    debug_assert_eq!(work.neighbors, counters.neighbors_found);
    // The sweep only saw the search's survivors; the path's candidates
    // are the points the tree distance-tested.
    work.candidates = counters.points_tested;
    work
}

/// The linked-list step. `parallel` is the environment's build flag: it
/// only labels the modeled build phase — the parallel build is the
/// serial build's grid bit for bit, so it is the one that runs, on
/// however many workers the step executes under (a serial run is
/// [`crate::scheduler::ExecMode::Serial`]).
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
    let grid = UniformGrid::build_parallel(xs, ys, zs, params.space, radius);
    let timed = vec![(
        wm::linked_list_build(n, parallel),
        t0.elapsed().as_secs_f64(),
    )];

    // Phase 2: fused neighbor scan + force computation.
    let bufs = (&mut scratch.buffer, &mut scratch.lanes);
    let (cuts, pass) = (bdm_soa::chunk_cuts(n), ForcePass::LinkedList);
    force_sweep(
        rm,
        bufs,
        timed,
        SweepParts::of_storage(&cuts),
        pass,
        true,
        |rm, _, base, out, _| scalar_lanes(rm, params, &grid, base, out),
    )
}

/// The global CSR step. `parallel` is the environment's build flag: it
/// only labels the modeled build phase — the one build runs its key pass
/// in parallel parts on however many workers the step executes under (a
/// serial run is [`crate::scheduler::ExecMode::Serial`]). The sweep runs
/// in bands of at least `band_chunks` chunks ([`bdm_soa::BAND_CHUNKS`];
/// any length gives the same bits).
fn cpu_grid_csr_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    parallel: bool,
    scratch: &mut MechScratch,
    band_chunks: usize,
) -> MechWork {
    let n = rm.len();
    let radius = interaction_radius(rm, params);
    let space = params.space;

    // Counting-sort CSR build in the step buffer, which the sweep then
    // takes for its displacements. The grid leaves its slot for the sweep
    // (which borrows the rest of the scratch) and returns to it
    // afterwards.
    //
    // A grid built (or verified) against this very position stamp, on
    // this geometry, is what the rebuild would conclude without reading a
    // column.
    let t0 = Instant::now();
    let (xs, ys, zs) = rm.position_columns();
    let kept = scratch.csr.take();
    let same_geometry = kept
        .as_ref()
        .is_some_and(|grid| grid.is_full_build_of(space, radius));
    let mut grid = kept.unwrap_or_else(|| empty_csr(space, radius));
    let key = rm.position_stamp();
    let reason = if same_geometry && scratch.csr_key == Some(key) {
        CsrRebuild::Unchanged
    } else {
        let held = grid.rebuild_parallel(xs, ys, zs, space, radius, &mut scratch.buffer);
        match (held, same_geometry) {
            (true, _) => CsrRebuild::Held,
            (false, true) => CsrRebuild::Moved,
            (false, false) => CsrRebuild::Geometry,
        }
    };
    scratch.csr_key = Some(key);
    let build = (
        wm::csr_build(n, reason.skipped(), parallel),
        t0.elapsed().as_secs_f64(),
    );

    let parts = CsrParts::Global {
        grid: &grid,
        band_chunks,
    };
    let mut work = csr_sweep(rm, params, scratch, vec![build], parts, true);
    work.csr_rebuilds_skipped = reason.skipped() as u64;
    work.csr_rebuild = Some(reason);
    scratch.csr = Some(grid);
    work
}

/// The two partitions a CSR sweep runs on.
#[derive(Clone, Copy)]
pub(crate) enum CsrParts<'a> {
    /// One grid over every agent, walked in its own order: the parts are
    /// [`bdm_soa::CHUNK`]-slot ranges of `grid.cell_agents()` — the
    /// voxel-grouped order, rebuilt every step on the geometry the sweep
    /// uses, so every voxel is staged once whatever storage looks like —
    /// in bands of at least `band_chunks` of them ([`band_starts`]), and
    /// the displacements come back in slot order.
    Global {
        grid: &'a CsrGrid<f64>,
        band_chunks: usize,
    },
    /// Storage sorted by `(voxel, id)`, cut at the shard ranges; part `s`
    /// is agents `cuts[s]..cuts[s + 1]` under the shard-local `grids[s]`,
    /// walked in storage order, in one band.
    Shards {
        cuts: &'a [usize],
        grids: &'a [&'a CsrGrid<f64>],
    },
}

/// The bands of the global CSR sweep over the chunks between `cuts`
/// (slots of `grid.cell_agents()`), as the chunk each band starts at,
/// into `bands`. The chunks are dealt evenly into as many bands as hold
/// `chunks` each, at least one (a short last band would leave workers
/// idle behind a join), and a band after the first absorbs the next one
/// while the voxel holding the slot past its end lies within the
/// stencil's reach — `dx·dy + dx + 1` flat voxels,
/// [`bdm_grid::GridGeometry::x_runs_of`] — of the voxel holding the
/// slot before its start. So no stencil of band `w + 1` reads an agent
/// of band `w − 1`, which [`force_sweep`] integrates before it sweeps
/// band `w + 1`.
fn band_starts(grid: &CsrGrid<f64>, cuts: &[usize], chunks: usize, bands: &mut Vec<usize>) {
    let [dx, dy, _] = grid.geometry().dims().map(|d| d as usize);
    let reach = dx * dy + dx + 1;
    let total = cuts.len() - 1;
    let even = (total / chunks).max(1);
    bands.clear();
    bands.push(0);
    for b in 1..even {
        let (start, next) = (bands[bands.len() - 1], b * total / even);
        if start == 0
            || grid.voxel_of_slot(cuts[next]) - grid.voxel_of_slot(cuts[start] - 1) > reach
        {
            bands.push(next);
        }
    }
}

/// What every CSR step does once its grid(s) exist: walk every part
/// voxel by voxel ([`VoxelGroups`]) through the precision's lane body,
/// integrate, and report. Shared by the global pass and
/// [`ShardedEnvironment::step`], which is why sharding works at either
/// precision.
pub(crate) fn csr_sweep(
    rm: &mut ResourceManager,
    params: &SimParams,
    scratch: &mut MechScratch,
    timed: Vec<(Phase, f64)>,
    parts: CsrParts<'_>,
    parallel: bool,
) -> MechWork {
    let MechScratch {
        buffer,
        lanes: pool,
        bands,
        ..
    } = scratch;
    let lanes = |rm: &ResourceManager,
                 c: usize,
                 base: usize,
                 out: &mut [Vec3<f64>],
                 lane: &mut LaneScratch| {
        let part = base..base + out.len();
        let (grid, groups) = match parts {
            CsrParts::Global { grid, .. } => (grid, VoxelGroups::of_slots(grid, part)),
            CsrParts::Shards { grids, .. } => {
                let groups = VoxelGroups::of_sorted_storage(grids[c], rm.position_columns(), part);
                (grids[c], groups)
            }
        };
        match params.precision {
            Precision::F32Simd => simd_lanes(rm, params, grid, groups, out, lane),
            Precision::F64 => f64_lanes(rm, params, grid, groups, out, lane),
        }
    };
    let global_cuts;
    let parts = match parts {
        CsrParts::Global { grid, band_chunks } => {
            global_cuts = bdm_soa::chunk_cuts(rm.len());
            band_starts(grid, &global_cuts, band_chunks, bands);
            SweepParts {
                cuts: &global_cuts,
                agent_of: Some(grid.cell_agents()),
                bands,
            }
        }
        CsrParts::Shards { cuts, .. } => SweepParts::of_storage(cuts),
    };
    let pass = ForcePass::Csr(params.precision);
    force_sweep(rm, (buffer, pool), timed, parts, pass, parallel, lanes)
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
        rm.translate_each(&disp, 0..rm.len(), None);
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
        let mut buffer = bdm_soa::StepBuffer::default();
        rm.sort_storage(&params.space, radius, curve, &mut buffer, None);
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

    /// The CSR f64 body sums a voxel's candidates in storage order, so a
    /// reorder leaves its bits alone exactly while every voxel's
    /// residents are in uid order at the sweep. A moving scene that does
    /// not grow, reordered before every sweep on the sweep's own voxels,
    /// keeps that order and every bit. A growing one does not: its
    /// radius grows after the reorder cut its cells, and its cells move
    /// and divide in between.
    #[test]
    fn a_reorder_keeps_f64_bits_only_while_voxels_hold_uid_order() {
        use crate::simulation::Simulation;
        let by_uid = |sim: &Simulation| {
            let rm = sim.rm();
            let mut bits: Vec<(u64, [u64; 3])> = (0..rm.len())
                .map(|i| {
                    let p = rm.position(i);
                    (rm.uid(i), [p.x, p.y, p.z].map(f64::to_bits))
                })
                .collect();
            bits.sort_unstable();
            bits
        };
        let run = |mut sim: Simulation, reorder: bool, steps: u64| {
            sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
            assert!(sim.scheduler_mut().set_enabled("reorder", reorder));
            assert!(sim.scheduler_mut().set_frequency("reorder", 1));
            sim.simulate(steps);
            by_uid(&sim)
        };
        let cloud = || {
            let mut sim = Simulation::new(SimParams::cube(12.0).with_seed(3));
            for p in positions(&random_population(3000, 11.0, 5)) {
                sim.add_cell(CellBuilder::new(p).diameter(2.5).adherence(0.01));
            }
            sim
        };
        let moved = run(cloud(), false, 3);
        assert_ne!(moved, run(cloud(), false, 0), "the cloud moves");
        assert_eq!(run(cloud(), true, 3), moved);
        let growing = || crate::workload::benchmark_a(8, 7);
        assert_ne!(run(growing(), true, 3), run(growing(), false, 3));
    }

    /// Nothing zeroes the displacements before a sweep, so every lane
    /// body must write every entry of its part. A debug build poisons
    /// the buffer first; after a step on every host path — kd lists, the
    /// linked list, CSR at f64 and f32 (several parts each), and four
    /// shards at both precisions — no entry holds the poison's bits and
    /// no agent moved to NaN.
    #[test]
    fn no_sweep_leaves_a_poisoned_displacement_behind() {
        let rm = random_population(2 * bdm_soa::CHUNK + 100, 9.0, 31);
        let check = |rm: &ResourceManager, scratch: &mut MechScratch, what: &str| {
            // Every record the buffer holds: both band regions and
            // whatever an earlier borrower left past them.
            let records = scratch.buffer.resident_bytes() / size_of::<Vec3<f64>>();
            let disp = scratch.buffer.vec3s(records);
            let poisoned = |d: &&Vec3<f64>| {
                [d.x, d.y, d.z]
                    .map(f64::to_bits)
                    .contains(&DISPLACEMENT_POISON.to_bits())
            };
            assert_eq!(disp.iter().find(poisoned), None, "{what}");
            assert!(
                positions(rm).iter().all(|p| p.norm_squared().is_finite()),
                "{what}"
            );
        };
        let csr = EnvironmentKind::uniform_grid_csr_parallel();
        for (env, precision) in [
            (EnvironmentKind::KdTree, Precision::F64),
            (EnvironmentKind::uniform_grid_parallel(), Precision::F64),
            (csr, Precision::F64),
            (csr, Precision::F32Simd),
        ] {
            let params = SimParams::cube(10.0).with_precision(precision);
            let (mut rm, mut scratch) = (rm.clone(), MechScratch::default());
            mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
            check(&rm, &mut scratch, &format!("{env:?} {precision:?}"));
        }
        for precision in [Precision::F64, Precision::F32Simd] {
            let params = SimParams::cube(10.0)
                .with_precision(precision)
                .with_shards(4);
            let (mut rm, mut scratch) = (rm.clone(), MechScratch::default());
            let mut driver = ShardedEnvironment::new(4);
            driver.step(&mut rm, &params, true, &mut scratch);
            check(&rm, &mut scratch, &format!("4 shards {precision:?}"));
        }
        // The global CSR sweep in one-chunk bands, which take turns in
        // two regions of the buffer.
        for precision in [Precision::F64, Precision::F32Simd] {
            let params = SimParams::cube(10.0).with_precision(precision);
            let (mut rm, mut scratch) = (rm.clone(), MechScratch::default());
            cpu_grid_csr_step(&mut rm, &params, true, &mut scratch, 1);
            assert_eq!(scratch.bands, [0, 1, 2], "{precision:?}");
            check(&rm, &mut scratch, &format!("CSR bands {precision:?}"));
        }
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
                "{build} mechanical forces:648132.0:770120.0:4101.666666666666:true:false \
                 | {grid} {gap} simd=Some((37186, 2110, 0)) skip=0"
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
        // agent's own id, and roughly halve the candidate gather traffic
        // (Improvement I).
        let (ll_w, csr_w, f32_w) = (&ll[1].0, &csr[1].0 .0, &csr[1].1 .0);
        assert!(kd.0.contacts > 0, "the scene is dense enough to move");
        assert!(csr_w.phases[0].random_accesses < ll_w.phases[0].random_accesses);
        assert!(csr_w.phases[1].random_accesses < ll_w.phases[1].random_accesses);
        assert!(f32_w.phases[1].bytes < csr_w.phases[1].bytes * 0.7);

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
    /// replaced: every agent re-derives its x-runs, re-copies its
    /// candidate ids and re-reads their records, each value narrowed by a
    /// scalar `as f32` (no lane op, no staged tile). Kept as the oracle of
    /// the tests below — same candidate sequence, same lane assignment,
    /// so every bit and every counter must agree.
    fn simd_lanes_reference(
        rm: &ResourceManager,
        params: &SimParams,
        grid: &CsrGrid<f64>,
        base: usize,
        out: &mut [Vec3<f64>],
    ) -> SweepStats {
        let (xs64, ys64, zs64) = rm.position_columns();
        let (diam, adh) = (rm.diameter_column(), rm.adherence_column());
        let narrowed = |col: &[f64], idv: U32x8| F32x8(idv.0.map(|j| col[j as usize] as f32));
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
        let (starts, agents) = (grid.cell_starts(), grid.cell_agents());
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
            let q = Vec3::new(xs64[i] as f32, ys64[i] as f32, zs64[i] as f32);
            let r1 = diam[i] as f32 * 0.5f32;
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
                cand.extend(agents[lo..hi].iter().map(|id| id.0));
            }
            // Masked-load fallback for the stencil remainder: fill
            // the last partial batch with the agent's own id. Self
            // lanes are already discarded by the `valid` mask (the
            // agent really is in its own stencil), so padding lanes
            // contribute exactly +0.0 force and 0 to every counter —
            // no separate scalar tail path exists.
            let len = cand.len();
            let pad = len.next_multiple_of(LANES) - len;
            cand.resize(len + pad, i as u32);
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
                    let [px, py, pz, dj] = [xs64, ys64, zs64, diam].map(|c| narrowed(c, idv));
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
            *slot = interaction::displacement(force, adh[i] as f32 as f64, mech);
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
                simd_lanes(rm, params, grid, groups, &mut got, lane)
            } else {
                f64_lanes(rm, params, grid, groups, &mut got, lane)
            };
            let mut want_fields = [0u64; 7];
            let mut voxels = std::collections::BTreeSet::new();
            for (&i, got) in agents.iter().zip(&got) {
                let mut want = [Vec3::zero()];
                let w = if f32_body {
                    simd_lanes_reference(rm, params, grid, i, &mut want)
                } else {
                    scalar_lanes(rm, params, *grid, i, &mut want)
                };
                let bits = |v: &Vec3<f64>| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                assert_eq!(bits(got), bits(&want[0]), "agent {i} of {cut:?} {range:?}");
                for (sum, field) in want_fields.iter_mut().zip(fields(&w)) {
                    *sum += field;
                }
                voxels.insert(grid.geometry().box_index(rm.position(i)));
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
            rm.apply_permutation(&perm, &mut bdm_soa::StepBuffer::default());
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
                rm.apply_permutation(&perm, &mut bdm_soa::StepBuffer::default());
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
        CsrGrid::build_parallel(xs, ys, zs, params.space, radius)
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

    /// Every 8-id block the f32 stage loads for `grid`'s voxels, pad
    /// lanes included, and whether it is one run of consecutive agents
    /// (the blocks [`load_block`] reads contiguously).
    fn staged_blocks(grid: &CsrGrid<f64>, n: usize) -> Vec<(Vec<u32>, bool)> {
        let mut lane = LaneScratch::default();
        let mut blocks = Vec::new();
        for group in VoxelGroups::of_slots(grid, 0..n) {
            let tile = lane.stage(grid, &group);
            for block in lane.ids[..tile.padded].chunks(LANES) {
                let run = block.iter().zip(block[0]..).all(|(&id, k)| id == k);
                blocks.push((block.to_vec(), run));
            }
        }
        blocks
    }

    /// The f32 stage's two loads against the oracle, each on a scene
    /// built to reach an edge of it: a run of 8 consecutive agents that
    /// ends at the last agent (the contiguous load reads the columns'
    /// last 8 values), a block whose first and last ids are 7 apart but
    /// whose middle is not a run (only an all-lane check sends it to the
    /// gather), and shuffled storage, where every block gathers.
    #[test]
    fn staged_lanes_match_the_per_agent_kernel_on_loader_edges() {
        let params = SimParams::cube(6.0)
            .with_precision(Precision::F32Simd)
            .with_interaction_radius(2.0);
        let scene = |at: &[(f64, f64)]| {
            let mut rm = ResourceManager::new();
            for (k, &(x, y)) in at.iter().enumerate() {
                let cell = CellBuilder::new(Vec3::new(x, y, 0.5));
                rm.add(
                    cell.diameter(1.0 + 0.05 * k as f64)
                        .adherence(0.01 + 0.003 * k as f64),
                );
            }
            rm
        };
        // Three agents far away, then 16 in one voxel: its tile is agents
        // 3..19, two runs, the second ending at the last agent.
        let mut at = vec![(-5.5, -5.5), (-5.0, -5.2), (-5.3, -4.8)];
        at.extend((0..16).map(|k| (0.1 + 0.11 * k as f64, 0.3 + 0.07 * k as f64)));
        let last_run = scene(&at);
        // Agents 0, 1, 2, 5 in voxel x ∈ [0, 2), 3, 4, 6, 7 in its +x
        // neighbor: the run through both stages [0, 1, 2, 5, 3, 4, 6, 7].
        let split: Vec<(f64, f64)> = [0.2, 0.9, 1.5, 2.3, 3.1, 1.8, 2.7, 3.6]
            .iter()
            .zip(0..)
            .map(|(&x, k)| (x, 0.2 + 0.2 * k as f64))
            .collect();
        let ends_only = scene(&split);
        let (mut shuffled, _) = oracle_scene(3, Some(2.0), true, Precision::F32Simd);
        store(&mut shuffled, &params, Storage::Shuffled, 3);

        // Every agent against the oracle; returns the blocks staged.
        let checked = |rm: &ResourceManager| {
            let grid = global_grid(rm, &params);
            let parts = [(0..rm.len(), &grid)];
            assert_matches_reference(rm, &params, Cut::Slots, &parts, &mut LaneScratch::default());
            staged_blocks(&grid, rm.len())
        };
        let runs = checked(&last_run).into_iter().filter(|(_, run)| *run);
        let runs: Vec<Vec<u32>> = runs.map(|(block, _)| block).collect();
        assert_eq!(runs, [(3..11).collect::<Vec<_>>(), (11..19).collect()]);
        // Both voxels stage the one block.
        let block = (vec![0, 1, 2, 5, 3, 4, 6, 7], false);
        assert_eq!(checked(&ends_only), [block.clone(), block]);
        let blocks = checked(&shuffled);
        assert!(blocks.len() > 100, "{} blocks", blocks.len());
        assert!(blocks.iter().all(|(_, run)| !run), "every block gathers");
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

    /// The f32 body's radius gate at its two edges, against the oracle
    /// and by the blocks it lists: a candidate at exactly the radius
    /// (`dist2 == r²` in f32) in lane 7 of a block that is not the
    /// agent's own lists that block — the gate is `≤`, as the neighbor
    /// test is — and a lone agent, whose tile is its own block alone,
    /// lists that one block.
    #[test]
    fn the_radius_gate_lists_boundary_and_own_blocks() {
        let params = SimParams::cube(6.0)
            .with_precision(Precision::F32Simd)
            .with_interaction_radius(2.0);
        let cell = |p: Vec3<f64>| CellBuilder::new(p).diameter(3.0).adherence(0.01);
        // Voxels are 2 wide from −6: agent 0 alone in [0, 2)³, 14 agents
        // 2.5 away in the next y row (the run after its own), and one
        // exactly 2 above it in the next z layer (the run after that):
        // tile entries 0, 1..15 and 15 — lane 7 of block 1.
        let mut rm = ResourceManager::new();
        rm.add(cell(Vec3::new(1.0, 1.0, 1.0)));
        for k in 0..14 {
            rm.add(cell(Vec3::new(-1.5 + 0.35 * k as f64, 3.5, 1.0)));
        }
        rm.add(cell(Vec3::new(1.0, 1.0, 3.0)));
        let grid = global_grid(&rm, &params);
        let agents = grid.cell_agents();
        let slot = agents
            .iter()
            .position(|id| id.index() == 0)
            .expect("agent 0");
        let mut lane = LaneScratch::default();
        let group = VoxelGroups::of_slots(&grid, slot..slot + 1).next();
        let tile = lane.stage(&grid, &group.expect("agent 0's voxel"));
        assert_eq!((tile.center, tile.len, lane.ids[15]), (0, 16, 15));
        let parts = [(0..rm.len(), &grid)];
        assert_matches_reference(&rm, &params, Cut::Slots, &parts, &mut lane);
        // Agent `slot`'s neighbors and the blocks Eq. 1 ran on for it.
        let mut evaluated = |rm: &ResourceManager, grid: &CsrGrid<f64>, slot: usize| {
            let (groups, lane) = (VoxelGroups::of_slots(grid, slot..slot + 1), &mut lane);
            let stats = simd_lanes(rm, &params, grid, groups, &mut [Vec3::zero()], lane);
            (stats.counters.neighbors_found, stats.simd.blocks_evaluated)
        };
        assert_eq!(evaluated(&rm, &grid, slot), (1, 2));
        let mut alone = ResourceManager::new();
        alone.add(cell(Vec3::new(1.0, 1.0, 1.0)));
        assert_eq!(evaluated(&alone, &global_grid(&alone, &params), 0), (0, 1));
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
                let cuts = bdm_soa::chunk_cuts(rm.len());
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
        want.translate_each(&disp, 0..rm.len(), None);
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
        // their grid there): a second step through the
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
        // The CSR bodies' stage lives there too, one per worker that ran a
        // part, and so do the global sweep's band starts (here one-chunk
        // bands, two of them): once a step has sized them, a second step
        // over the same (frozen) scene finds every buffer large enough —
        // the sweep's tasks allocate nothing, and neither do the bands.
        let one_worker = rayon::ThreadPoolBuilder::new().num_threads(1).build();
        let one_worker = one_worker.expect("pool");
        for (precision, columns) in [(Precision::F32Simd, 9), (Precision::F64, 5)] {
            let mut params = SimParams::cube(6.0).with_precision(precision);
            params.mech.max_displacement = 0.0;
            let mut rm = random_population(bdm_soa::CHUNK + 300, 5.5, 23);
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
            let step = |rm: &mut ResourceManager, scratch: &mut MechScratch| {
                one_worker.install(|| cpu_grid_csr_step(rm, &params, true, scratch, 1))
            };
            let bands = |scratch: &MechScratch| {
                let held = scratch.buffer.resident_bytes();
                (scratch.bands.clone(), scratch.bands.as_ptr(), held)
            };
            step(&mut rm, &mut scratch);
            let first = capacities(&scratch);
            let first_bands = bands(&scratch);
            assert_eq!(first_bands.0, [0, 1], "{precision:?}");
            assert_eq!(first.len(), 1, "one stage for the one worker's two parts");
            // The tile's ids plus the body's own columns, and only those.
            let sized = first[0].iter().filter(|&&c| c >= LANES).count();
            assert_eq!(
                (sized, first[0][0] >= LANES),
                (columns, true),
                "{precision:?}"
            );
            step(&mut rm, &mut scratch);
            assert_eq!(capacities(&scratch), first, "{precision:?}");
            assert_eq!(bands(&scratch), first_bands, "{precision:?}");
        }
    }

    /// `per_layer` agents of diameter 2 on each of the `layers` bottom
    /// voxel layers of a 40³-voxel cube: sparse in the volume and dense
    /// in a layer, so a chunk spans less than a layer — less than the
    /// stencil's reach — and a band must merge with the chunks after it
    /// until it does.
    fn slab(layers: usize, per_layer: usize, seed: u64) -> (ResourceManager, SimParams) {
        let (half, edge) = (40.0, 2.0);
        let mut rng = SplitMix64::new(seed);
        let mut rm = ResourceManager::new();
        for layer in 0..layers {
            let z = -half + edge * (layer as f64 + 0.5);
            for _ in 0..per_layer {
                let at = Vec3::new(
                    rng.uniform(-half, half),
                    rng.uniform(-half, half),
                    z + rng.uniform(-0.9, 0.9),
                );
                rm.add(CellBuilder::new(at).diameter(edge).adherence(0.01));
            }
        }
        (rm, SimParams::cube(half))
    }

    /// One global CSR step of `rm` in bands of `band_chunks` chunks: the
    /// bands, what the sweep counted, and every position's bits.
    fn banded_step(
        rm: &ResourceManager,
        params: &SimParams,
        band_chunks: usize,
    ) -> (Vec<usize>, String, Vec<[u64; 3]>) {
        let (mut rm, mut scratch) = (rm.clone(), MechScratch::default());
        let work = cpu_grid_csr_step(&mut rm, params, true, &mut scratch, band_chunks);
        let counted = format!(
            "c={} k={} n={} staged={:?} gap={:?}",
            work.candidates,
            work.contacts,
            work.neighbors,
            work.stencils_staged,
            work.index_gap.map(f64::to_bits)
        );
        let bits = positions(&rm).into_iter();
        let bits = bits.map(|p| [p.x, p.y, p.z].map(f64::to_bits)).collect();
        (scratch.bands, counted, bits)
    }

    /// The global CSR sweep integrates band `w − 1` once band `w` is
    /// swept, so its bands must not change a bit. One-chunk bands — one
    /// per chunk on a dense cloud (the `f64` body), merged for the
    /// stencil's reach on a sparse slab (the `f32` body) — move every
    /// agent to the bits one band moves it to and count the same
    /// candidates, contacts, neighbors, stages and index gap, on 1, 2 and
    /// 4 workers and under a shuffled schedule.
    #[test]
    fn banded_sweeps_match_the_one_band_sweep() {
        let chunk = bdm_soa::CHUNK;
        let dense = random_population(3 * chunk, 14.0, 41);
        let dense = (dense, SimParams::cube(14.0), Precision::F64);
        let (slab, params) = slab(2, 3 * chunk, 43);
        let sparse = (slab, params, Precision::F32Simd);
        for (scene, (rm, params, precision)) in [("dense", dense), ("sparse", sparse)] {
            let params = params.with_precision(precision);
            let chunks = bdm_soa::chunk_cuts(rm.len()).len() - 1;
            let (one, counted, bits) = banded_step(&rm, &params, usize::MAX);
            assert_eq!(one, [0], "{scene}");
            let banded = || banded_step(&rm, &params, 1);
            let mut runs: Vec<_> = [1, 2, 4]
                .map(|workers| {
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build();
                    (
                        format!("{workers} workers"),
                        pool.expect("pool").install(banded),
                    )
                })
                .into();
            let shuffled = rayon::with_shuffled_schedule(7, banded);
            runs.push(("a shuffled schedule".into(), shuffled));
            let bands = &runs[0].1 .0;
            match scene {
                "dense" => assert_eq!(*bands, (0..chunks).collect::<Vec<_>>()),
                _ => assert!(
                    bands.len() >= 3 && bands.len() < chunks,
                    "bands {bands:?} of {chunks} chunks"
                ),
            }
            for (how, (got_bands, got, got_bits)) in &runs {
                assert_eq!(got_bands, bands, "{scene}, {how}");
                assert_eq!(*got, counted, "{scene}, {how}");
                assert!(*got_bits == bits, "{scene}, {how}");
            }
        }
    }

    /// What the reach merge prevents, caught: one band per chunk on the
    /// sparse slab, unmerged, has band `w + 1`'s stencils read agents
    /// of band `w − 1`, which the sweep has already moved — the debug
    /// build's stage panics on the first such read.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "integrated before slot")]
    fn a_stencil_reading_an_integrated_band_panics() {
        let (mut rm, params) = slab(2, 3 * bdm_soa::CHUNK, 43);
        let grid = global_grid(&rm, &params);
        let cuts = bdm_soa::chunk_cuts(rm.len());
        let bands: Vec<usize> = (0..cuts.len() - 1).collect();
        let parts = SweepParts {
            cuts: &cuts,
            agent_of: Some(grid.cell_agents()),
            bands: &bands,
        };
        let mut scratch = MechScratch::default();
        let bufs = (&mut scratch.buffer, &mut scratch.lanes);
        force_sweep(
            &mut rm,
            bufs,
            Vec::new(),
            parts,
            ForcePass::Csr(Precision::F64),
            true,
            |rm, _, base, out, lane| {
                let groups = VoxelGroups::of_slots(&grid, base..base + out.len());
                f64_lanes(rm, &params, &grid, groups, out, lane)
            },
        );
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
        for step in 0..4 {
            let wa = mechanical_step(&mut a, &params, &env, Some(&mut pa));
            // A full re-upload and grid build every step.
            pb.invalidate_residency();
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
        // Every step calls `interaction_radius` → `largest_diameter`; on
        // a scene whose diameters do not change, only the first one
        // scans the column.
        let mut params = SimParams::cube(6.0);
        params.mech.max_displacement = 0.0;
        let mut rm = random_population(300, 5.5, 23);
        let mut scratch = MechScratch::default();
        let env = EnvironmentKind::uniform_grid_csr_parallel();
        for _ in 0..5 {
            mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        }
        assert_eq!(rm.diameter_scan_count(), 1, "no scan after step 1");
        // A death moves the attribute stamp: at most one scan per step.
        for _ in 0..10 {
            let before = rm.diameter_scan_count();
            rm.remove(0);
            mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
            assert!(rm.diameter_scan_count() - before <= 1);
        }
    }

    /// What a position stamp promises: the positions' bits, the uids and
    /// the length.
    type StampedState = (Vec<u64>, Vec<u64>);

    fn stamped_state(rm: &ResourceManager) -> StampedState {
        let (xs, ys, zs) = rm.position_columns();
        let bits = xs.iter().chain(ys).chain(zs).map(|v| v.to_bits());
        (bits.collect(), rm.uid_column().to_vec())
    }

    /// One mechanical step of `rm` through `scratch`, checked against the
    /// full check it may skip: a grid kept unread equals a fresh parallel
    /// build of the columns the step read.
    fn checked_mech_step(
        rm: &mut ResourceManager,
        params: &SimParams,
        parallel: bool,
        scratch: &mut MechScratch,
    ) -> MechWork {
        let before = rm.clone();
        let env = EnvironmentKind::UniformGrid {
            layout: GridLayout::Csr,
            parallel,
        };
        let work = mechanical_step_with_scratch(rm, params, &env, None, scratch);
        let (xs, ys, zs) = before.position_columns();
        let radius = interaction_radius(&before, params);
        let fresh = CsrGrid::build_parallel(xs, ys, zs, params.space, radius);
        let grid = scratch.csr.as_ref().expect("a CSR step keeps its grid");
        assert_eq!(grid.cell_starts(), fresh.cell_starts());
        assert_eq!(grid.cell_agents(), fresh.cell_agents());
        work
    }

    /// Random mutation sequences against the stamp: whenever a stamp
    /// value recurs, the columns it keys are bit-identical; every skip
    /// (grid, reorder scan) agrees with the check it skipped; and a
    /// scratch or a reorder verdict carried to another manager (a clone,
    /// a restored one) never skips. Returns how many grid and
    /// reorder-scan skips the sequence took.
    fn stamp_oracle_case(seed: u64, ops: &[(u8, u64)]) -> [u32; 2] {
        use crate::behavior::Behavior;
        use crate::operation::ReorderState;
        use crate::rm::AgentRow;
        use bdm_morton::{CellCurve, Curve};
        use bdm_soa::{Permutation, StepBuffer};

        let mut params = SimParams::cube(6.0)
            .with_precision(Precision::F32Simd)
            .with_reorder(1);
        let moving = params.mech.max_displacement;
        let divides = Behavior::GrowthDivision {
            growth_rate: 0.0,
            division_threshold: 1e9,
        };
        let mut rm = random_population(40 + (seed % 60) as usize, 5.5, seed);
        let mut scratch = MechScratch::default();
        let mut reorder = ReorderState::default();
        let mut buffer = StepBuffer::default();
        let mut seen: std::collections::HashMap<u64, StampedState> = Default::default();
        let mut seen_attr: std::collections::HashMap<u64, [Vec<u64>; 2]> = Default::default();
        let mut skips = [0u32; 2];
        for &(op, arg) in ops {
            let n = rm.len();
            let i = (arg % n as u64) as usize;
            let mut r = SplitMix64::new(arg);
            let point = |r: &mut SplitMix64| {
                Vec3::new(
                    r.uniform(-5.5, 5.5),
                    r.uniform(-5.5, 5.5),
                    r.uniform(-5.5, 5.5),
                )
            };
            match op {
                0 => {
                    let cell = CellBuilder::new(point(&mut r)).diameter(2.0);
                    let cell = if arg % 2 == 0 {
                        cell.behavior(divides)
                    } else {
                        cell
                    };
                    rm.add(cell);
                }
                1 if n > 8 => {
                    rm.remove(i);
                }
                2 => {
                    let p = if arg % 2 == 0 {
                        rm.position(i)
                    } else {
                        point(&mut r)
                    };
                    rm.set_position(i, p);
                }
                3 => {
                    let d = if arg % 2 == 0 {
                        Vec3::zero()
                    } else {
                        point(&mut r) * 0.1
                    };
                    rm.translate(i, d);
                }
                4 | 5 => {
                    // Chunk views; with op 5 one of them writes a
                    // position (odd `arg`) or a diameter (even).
                    let step = 1 + (arg % 17) as usize;
                    let cuts: Vec<usize> = (0..n).step_by(step).chain([n]).collect();
                    let (chunks, _) = rm.behavior_chunks_at(&cuts);
                    for mut chunk in chunks {
                        let k = i.wrapping_sub(chunk.start());
                        if op == 5 && k < chunk.len() && arg % 2 == 1 {
                            let p = chunk.position(k);
                            chunk.set_position(k, p + Vec3::new(0.0, 0.0, 0.01));
                        } else if op == 5 && k < chunk.len() {
                            let d = chunk.diameter(k);
                            chunk.set_diameter(k, d * (1.0 + (arg % 5) as f64 * 0.05));
                        }
                    }
                    let _ = rm.behavior_chunks_at(&[0, i, n]);
                }
                6 => {
                    // A division wave: every dividing agent whose roll
                    // says so gets a daughter.
                    let cuts: Vec<usize> = (0..n).step_by(7).chain([n]).collect();
                    let mut divisions = rm.divisions(&cuts, &mut buffer);
                    let (chunks, shared) = divisions.chunks();
                    for mut chunk in chunks {
                        for k in 0..chunk.len() {
                            let g = chunk.start() + k;
                            let rolls = shared.uid(g).wrapping_mul(arg | 1) % 3 == 0;
                            if shared.behaviors(g).contains(&divides) && rolls {
                                let row = AgentRow {
                                    position: chunk.position(k) + Vec3::new(0.5, 0.0, 0.0),
                                    diameter: chunk.diameter(k),
                                    adherence: shared.adherence(g),
                                    behaviors: shared.behavior_id(g),
                                };
                                chunk.add_daughter(shared.uid(g), row);
                            }
                        }
                    }
                    divisions.commit();
                }
                7 => {
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    for k in (1..n).rev() {
                        order.swap(k, r.below(k as u64 + 1) as usize);
                    }
                    rm.apply_permutation(&Permutation::new(order), &mut buffer);
                }
                8 => {
                    let curve = [Curve::ZOrder, Curve::Hilbert][(arg % 2) as usize];
                    let radius = interaction_radius(&rm, &params);
                    rm.sort_storage(&params.space, radius, curve, &mut buffer, None);
                }
                9 => {
                    let mut disp = vec![Vec3::zero(); n];
                    if arg % 2 == 1 {
                        disp[i] = Vec3::new(0.0, 0.02, 0.0);
                    }
                    rm.translate_each(&disp, 0..rm.len(), None);
                }
                10 => rm = rm.clone(),
                11 => {
                    let mut sim = crate::Simulation::new(params.clone());
                    *sim.rm_mut() = std::mem::take(&mut rm);
                    let mut bytes = Vec::new();
                    sim.checkpoint(&mut bytes).expect("checkpoint to Vec");
                    let mut back = crate::Simulation::restore(&mut bytes.as_slice());
                    rm = std::mem::take(back.as_mut().expect("restore").rm_mut());
                }
                12 | 13 => {
                    params.mech.max_displacement = if op == 12 { 0.0 } else { moving };
                    let work = checked_mech_step(&mut rm, &params, arg % 2 == 0, &mut scratch);
                    skips[0] += (work.csr_rebuild == Some(CsrRebuild::Unchanged)) as u32;
                }
                14 => {
                    let skipped = reorder.checks_skipped;
                    reorder.run(&mut rm, &params, &mut buffer);
                    let radius = interaction_radius(&rm, &params);
                    let cells = CellCurve::new(&params.space, radius, Curve::ZOrder);
                    let (xs, ys, zs) = rm.position_columns();
                    assert!(rm.len() < 2 || cells.is_sorted_with(xs, ys, zs, rm.uid_column()));
                    skips[1] += (reorder.checks_skipped > skipped) as u32;
                }
                15 => {
                    // The scratch and the verdict on another manager with
                    // the very same columns: nothing carries over.
                    let mut other = rm.clone();
                    let skipped = reorder.checks_skipped;
                    reorder.run(&mut other, &params, &mut buffer);
                    assert_eq!(reorder.checks_skipped, skipped);
                    params.mech.max_displacement = 0.0;
                    let work = checked_mech_step(&mut other, &params, true, &mut scratch);
                    assert_ne!(work.csr_rebuild, Some(CsrRebuild::Unchanged));
                }
                _ => {}
            }
            let state = stamped_state(&rm);
            let seen = seen
                .entry(rm.position_stamp())
                .or_insert_with(|| state.clone());
            assert_eq!(
                *seen, state,
                "op {op}: an unchanged stamp keys unchanged columns"
            );
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let state = [rm.diameter_column(), rm.adherence_column()].map(bits);
            let seen = seen_attr
                .entry(rm.attribute_stamp())
                .or_insert_with(|| state.clone());
            assert_eq!(*seen, state, "op {op}: the attribute stamp likewise");
            let scan = rm.diameter_column().iter().fold(0.0f64, |v, &d| v.max(d));
            assert_eq!(rm.largest_diameter(), scan, "op {op}: the memo is current");
        }
        skips
    }

    #[test]
    fn the_stamp_oracle_reaches_every_skip() {
        // Reorder, reorder, step, step: the second reorder skips its
        // scan, the second step its rebuild. Then a chunk view that
        // writes a position, a clone and a restore each end the streak.
        let (reorder, step) = ((14, 0), (12, 0));
        let streak = [reorder, reorder, step, step];
        assert_eq!(stamp_oracle_case(7, &streak), [1, 1]);
        for cut in [(5, 3), (10, 0), (11, 0)] {
            let ops = [reorder, step, cut, reorder, step];
            assert_eq!(stamp_oracle_case(7, &ops), [0, 0], "{cut:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The stamps' skips against the full checks they replace, and
        /// the largest diameter against a scan, over random sequences of
        /// adds, removes, sets, translates, chunk views that write
        /// positions, diameters or nothing, division waves, permutations,
        /// sorts, clones, restores, mechanical steps and reorders.
        #[test]
        fn position_stamp_skips_match_the_full_checks(
            seed in 0u64..10_000,
            ops in proptest::collection::vec((0u8..16, proptest::prelude::any::<u64>()), 1..48),
        ) {
            stamp_oracle_case(seed, &ops);
        }
    }
}
