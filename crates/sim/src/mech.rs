//! The mechanical interactions operation — the paper's bottleneck (§III).
//!
//! The CPU paths run in the three sub-phases the paper profiles in
//! Fig. 3:
//!
//! 1. **build** — construct the neighborhood structure (kd-tree: serial;
//!    uniform grid: serial or parallel);
//! 2. **search** — update each agent's neighbor list by radius query
//!    (36 % of the baseline runtime);
//! 3. **force** — evaluate Eq. 1 over the cached lists and integrate the
//!    displacements (51 % of the baseline runtime).
//!
//! The GPU path replaces all three with the offload pipeline of
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
use bdm_device::cpu::Phase;
use bdm_gpu::pipeline::{GpuStepReport, MechanicalPipeline, SceneRef};
use bdm_grid::{CsrBuildScratch, CsrGrid, UniformGrid};
use bdm_kdtree::KdTree;
use bdm_math::interaction::{self};
use bdm_math::simd::{F32x8, F64x8, U32x8, LANES};
use bdm_math::Vec3;
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
    /// previous-key compare read (4 B); the counting sort never runs.
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

/// Outcome of one mechanical step.
#[derive(Debug, Clone)]
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
    /// SIMD-path statistics; `None` for every scalar/GPU path.
    pub simd: Option<SimdWork>,
    /// `1` when the CSR grid rebuild was skipped this step because no
    /// agent changed voxel (incremental maintenance); `0` on every
    /// rebuild and on the non-CSR paths.
    pub csr_rebuilds_skipped: u64,
}

impl MechWork {
    /// Mean neighbors per agent — the paper's density metric `n`.
    pub fn mean_density(&self, agents: usize) -> f64 {
        if agents == 0 {
            0.0
        } else {
            self.neighbors as f64 / agents as f64
        }
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

/// Reusable per-step working memory for the CSR mechanical path: the
/// grid's CSR arrays, the counting-sort build scratch, and the per-agent
/// displacement buffer all persist across steps, so a steady-state step
/// allocates nothing. The [`crate::Simulation`] owns one of these for
/// its lifetime; one-shot callers can pass a fresh default.
#[derive(Default)]
pub struct MechScratch {
    /// CSR grid, rebuilt in place every step.
    csr: Option<CsrGrid<f64>>,
    /// Counting-sort working memory (voxel ids + chunk histograms).
    build: CsrBuildScratch,
    /// Per-agent displacements of the fused pass.
    disp: Vec<Vec3<f64>>,
    /// `f32` shadows of the hot columns for the mixed-precision pass,
    /// refreshed lazily on the resource manager's dirty epochs. Epochs
    /// are compared by value, so one scratch must stay with one
    /// simulation for its lifetime (the `Simulation` owns its scratch,
    /// which enforces this).
    mirrors: SimdMirrors,
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
/// the CSR path's buffer allocations every call; loops should hold a
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
    if rm.is_empty() {
        return MechWork {
            phases: Vec::new(),
            wall_s: Vec::new(),
            gpu: None,
            candidates: 0,
            contacts: 0,
            neighbors: 0,
            index_gap: None,
            simd: None,
            csr_rebuilds_skipped: 0,
        };
    }
    match env {
        EnvironmentKind::KdTree => cpu_kdtree_step(rm, params),
        EnvironmentKind::UniformGrid {
            layout: GridLayout::LinkedList,
            parallel,
        } => cpu_grid_step(rm, params, *parallel),
        EnvironmentKind::UniformGrid {
            layout: GridLayout::Csr,
            parallel,
        } => match params.precision {
            Precision::F64 => cpu_grid_csr_step(rm, params, *parallel, scratch),
            Precision::F32Simd => cpu_grid_csr_step_simd(rm, params, *parallel, scratch),
        },
        EnvironmentKind::Gpu { .. } => {
            let pipeline = pipeline.expect("GPU environment requires a pipeline");
            gpu_step(rm, params, pipeline)
        }
    }
}

/// The neighbor lists of one [`CSR_PASS_CHUNK`]-agent chunk, flat: agent
/// `k` of the chunk owns `ids[offsets[k]..offsets[k + 1]]`. One buffer
/// pair per chunk instead of one `Vec` per agent — a worker thread then
/// allocates twice per 4 Ki agents, not once per agent for the caller to
/// free.
struct ChunkLists {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

/// Force evaluation over cached neighbor lists, chunk by chunk. Returns
/// (displacements, contacts).
fn force_phase(
    rm: &ResourceManager,
    params: &SimParams,
    lists: &[ChunkLists],
) -> (Vec<Vec3<f64>>, u64) {
    let (xs, ys, zs) = rm.position_columns();
    let diam = rm.diameter_column();
    let adh = rm.adherence_column();
    let mech = &params.mech;
    let mut disp = vec![Vec3::zero(); rm.len()];
    let contacts: Vec<u64> = disp
        .par_chunks_mut(CSR_PASS_CHUNK)
        .zip(lists.par_iter())
        .enumerate()
        .map(|(c, (out, lists))| {
            let base = c * CSR_PASS_CHUNK;
            let mut contacts = 0u64;
            for (k, slot) in out.iter_mut().enumerate() {
                let i = base + k;
                let p1 = Vec3::new(xs[i], ys[i], zs[i]);
                let r1 = diam[i] * 0.5;
                let mut force = Vec3::zero();
                let list = lists.offsets[k] as usize..lists.offsets[k + 1] as usize;
                for &j in &lists.ids[list] {
                    let j = j as usize;
                    let p2 = Vec3::new(xs[j], ys[j], zs[j]);
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
                *slot = interaction::displacement(force, adh[i], mech);
            }
            contacts
        })
        .collect();
    (disp, contacts.iter().sum())
}

pub(crate) fn apply_displacements(rm: &mut ResourceManager, disp: &[Vec3<f64>]) {
    for (i, &d) in disp.iter().enumerate() {
        if d != Vec3::zero() {
            rm.translate(i, d);
        }
    }
}

fn cpu_kdtree_step(rm: &mut ResourceManager, params: &SimParams) -> MechWork {
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
    let query_results: Vec<(ChunkLists, bdm_kdtree::QueryCounters)> = (0..n
        .div_ceil(CSR_PASS_CHUNK))
        .into_par_iter()
        .map(|c| {
            let chunk = c * CSR_PASS_CHUNK..((c + 1) * CSR_PASS_CHUNK).min(n);
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
            (ChunkLists { offsets, ids }, counters)
        })
        .collect();
    let wall_search = t1.elapsed().as_secs_f64();
    let mut counters = bdm_kdtree::QueryCounters::default();
    let mut lists = Vec::with_capacity(query_results.len());
    for (list, c) in query_results {
        counters.merge(&c);
        lists.push(list);
    }

    // Phase 3: forces over the cached lists.
    let t2 = Instant::now();
    let (disp, contacts) = force_phase(rm, params, &lists);
    let wall_force = t2.elapsed().as_secs_f64();
    apply_displacements(rm, &disp);

    let neighbors = counters.neighbors_found;
    let phases = vec![
        Phase::serial_fp64(
            "neighborhood build",
            work_model::KD_BUILD_FLOPS_PER_POINT_LEVEL
                * build_stats.points as f64
                * build_stats.depth as f64,
            work_model::KD_BUILD_BYTES_PER_POINT_LEVEL
                * build_stats.points as f64
                * build_stats.depth as f64,
            build_stats.nodes as f64 / 4.0,
        ),
        Phase::parallel_fp64(
            "neighborhood search",
            work_model::KD_SEARCH_FLOPS_PER_CANDIDATE * counters.points_tested as f64,
            work_model::KD_SEARCH_BYTES_PER_CANDIDATE * counters.points_tested as f64,
            // Upper tree levels stay cache-resident; only about half the
            // node hops go to memory.
            counters.nodes_visited as f64 / 2.0,
        ),
        Phase::parallel_fp64(
            "mechanical forces",
            work_model::FORCE_FLOPS_PER_NEIGHBOR * neighbors as f64
                + work_model::FORCE_FIXED_FLOPS_PER_AGENT * n as f64,
            work_model::FORCE_BYTES_PER_NEIGHBOR * neighbors as f64
                + work_model::FORCE_FIXED_BYTES_PER_AGENT * n as f64,
            neighbors as f64,
        ),
    ];
    MechWork {
        phases,
        wall_s: vec![wall_build, wall_search, wall_force],
        gpu: None,
        candidates: counters.points_tested,
        contacts,
        neighbors,
        index_gap: None,
        simd: None,
        csr_rebuilds_skipped: 0,
    }
}

fn cpu_grid_step(rm: &mut ResourceManager, params: &SimParams, parallel: bool) -> MechWork {
    let n = rm.len();
    let radius = interaction_radius(rm, params);
    let space = params.space;

    // Phase 1: grid build (Fig. 5 structure).
    let t0 = Instant::now();
    let (xs, ys, zs) = rm.position_columns();
    let grid = if parallel {
        UniformGrid::build_parallel(xs, ys, zs, space, radius)
    } else {
        UniformGrid::build_serial(xs, ys, zs, space, radius)
    };
    let wall_build = t0.elapsed().as_secs_f64();

    // Phase 2: fused neighbor scan + force computation — the uniform-grid
    // pipeline never materializes neighbor lists; each agent walks its 27
    // voxels and accumulates Eq. 1 inline (this is the same structure the
    // GPU kernel uses, and it is why the UG rewrite beats the kd pipeline
    // even serially, §VI).
    let t1 = Instant::now();
    let diam = rm.diameter_column();
    let adh = rm.adherence_column();
    let mech = &params.mech;
    struct PerAgent {
        disp: Vec3<f64>,
        counters: bdm_grid::QueryCounters,
        contacts: u64,
    }
    let results: Vec<PerAgent> = (0..n)
        .into_par_iter()
        .map(|i| {
            let p1 = Vec3::new(xs[i], ys[i], zs[i]);
            let r1 = diam[i] * 0.5;
            let mut force = Vec3::zero();
            let mut contacts = 0u64;
            let counters =
                grid.for_each_within(xs, ys, zs, p1, radius, Some(AgentId(i as u32)), |id| {
                    let j = id.index();
                    if let Some(f) = interaction::collision_force(
                        p1,
                        r1,
                        Vec3::new(xs[j], ys[j], zs[j]),
                        diam[j] * 0.5,
                        mech.repulsion,
                        mech.attraction,
                    ) {
                        force += f;
                        contacts += 1;
                    }
                });
            PerAgent {
                disp: interaction::displacement(force, adh[i], mech),
                counters,
                contacts,
            }
        })
        .collect();
    let wall_fused = t1.elapsed().as_secs_f64();

    let mut counters = bdm_grid::QueryCounters::default();
    let mut contacts = 0u64;
    let disp: Vec<Vec3<f64>> = results
        .iter()
        .map(|r| {
            counters.merge(&r.counters);
            contacts += r.contacts;
            r.disp
        })
        .collect();
    apply_displacements(rm, &disp);

    let neighbors = counters.neighbors_found;
    let phases = vec![
        Phase {
            name: "neighborhood build",
            flops: 0.0,
            bytes: work_model::GRID_BUILD_BYTES_PER_AGENT * n as f64,
            random_accesses: n as f64,
            parallel,
            fp64: true,
        },
        Phase::parallel_fp64(
            "mechanical forces",
            work_model::UG_FLOPS_PER_CANDIDATE * counters.points_tested as f64
                + work_model::UG_FLOPS_PER_CONTACT * contacts as f64
                + work_model::UG_FIXED_FLOPS_PER_AGENT * n as f64,
            work_model::UG_BYTES_PER_CANDIDATE * counters.points_tested as f64
                + work_model::UG_FIXED_BYTES_PER_AGENT * n as f64,
            counters.boxes_scanned as f64,
        ),
    ];
    MechWork {
        phases,
        wall_s: vec![wall_build, wall_fused],
        gpu: None,
        candidates: counters.points_tested,
        contacts,
        neighbors,
        index_gap: None,
        simd: None,
        csr_rebuilds_skipped: 0,
    }
}

/// Agents per work item of the fused CSR pass. Fixed (not derived from
/// the thread count) so the pass is chunked identically no matter how
/// rayon schedules it; each agent's FP64 accumulation is independent, so
/// the displacements are bitwise reproducible across serial and parallel
/// runs.
pub(crate) const CSR_PASS_CHUNK: usize = 4 * 1024;

fn cpu_grid_csr_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    parallel: bool,
    scratch: &mut MechScratch,
) -> MechWork {
    let n = rm.len();
    let radius = interaction_radius(rm, params);
    let space = params.space;

    // Phase 1: counting-sort CSR build, reusing the scratch arrays.
    let t0 = Instant::now();
    let (xs, ys, zs) = rm.position_columns();
    let grid = scratch
        .csr
        .get_or_insert_with(|| CsrGrid::build_serial(&[], &[], &[], space, radius));
    let build_skipped = if parallel {
        grid.rebuild_parallel(xs, ys, zs, space, radius, &mut scratch.build)
    } else {
        grid.rebuild_serial(xs, ys, zs, space, radius, &mut scratch.build)
    };
    let wall_build = t0.elapsed().as_secs_f64();

    // Phase 2: fused neighbor scan + force computation, streaming the
    // stencil as ≤ 9 contiguous id slices (x-adjacent voxels concatenate
    // in the x-major CSR order). Same structure as the linked-list fused
    // pass, minus the successor chases and two thirds of the per-voxel
    // head lookups.
    let t1 = Instant::now();
    let diam = rm.diameter_column();
    let adh = rm.adherence_column();
    let mech = &params.mech;
    let r2 = radius * radius;
    let grid = &*grid;
    scratch.disp.clear();
    scratch.disp.resize(n, Vec3::zero());
    let chunk_stats: Vec<(bdm_grid::QueryCounters, u64, u64)> = scratch
        .disp
        .par_chunks_mut(CSR_PASS_CHUNK)
        .enumerate()
        .map(|(c, out)| {
            let base = c * CSR_PASS_CHUNK;
            let mut counters = bdm_grid::QueryCounters::default();
            let mut contacts = 0u64;
            let mut gap_sum = 0u64;
            for (k, slot) in out.iter_mut().enumerate() {
                let i = base + k;
                let p1 = Vec3::new(xs[i], ys[i], zs[i]);
                let r1 = diam[i] * 0.5;
                let mut force = Vec3::zero();
                for (first, count) in grid.geometry().x_runs(p1) {
                    counters.boxes_scanned += count as u64;
                    for &id in grid.run_range(first, count) {
                        let j = id.index();
                        if j == i {
                            continue;
                        }
                        counters.points_tested += 1;
                        gap_sum += i.abs_diff(j) as u64;
                        let p2 = Vec3::new(xs[j], ys[j], zs[j]);
                        if (p2 - p1).norm_squared() <= r2 {
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
                    }
                }
                *slot = interaction::displacement(force, adh[i], mech);
            }
            (counters, contacts, gap_sum)
        })
        .collect();
    let wall_fused = t1.elapsed().as_secs_f64();

    let mut counters = bdm_grid::QueryCounters::default();
    let mut contacts = 0u64;
    let mut gap_sum = 0u64;
    for (c, k, g) in &chunk_stats {
        counters.merge(c);
        contacts += k;
        gap_sum += g;
    }
    let disp = std::mem::take(&mut scratch.disp);
    apply_displacements(rm, &disp);
    scratch.disp = disp;

    let neighbors = counters.neighbors_found;
    let phases = vec![
        Phase {
            name: "neighborhood build",
            flops: 0.0,
            bytes: if build_skipped {
                work_model::CSR_BUILD_SKIP_BYTES_PER_AGENT * n as f64
            } else {
                work_model::CSR_BUILD_BYTES_PER_AGENT * n as f64
            },
            random_accesses: if build_skipped {
                0.0
            } else {
                work_model::CSR_BUILD_RANDOM_PER_AGENT * n as f64
            },
            parallel,
            fp64: true,
        },
        Phase::parallel_fp64(
            "mechanical forces",
            work_model::CSR_FLOPS_PER_CANDIDATE * counters.points_tested as f64
                + work_model::UG_FLOPS_PER_CONTACT * contacts as f64
                + work_model::UG_FIXED_FLOPS_PER_AGENT * n as f64,
            work_model::CSR_BYTES_PER_CANDIDATE * counters.points_tested as f64
                + work_model::UG_FIXED_BYTES_PER_AGENT * n as f64,
            work_model::CSR_RANDOM_PER_BOX * counters.boxes_scanned as f64,
        ),
    ];
    MechWork {
        phases,
        wall_s: vec![wall_build, wall_fused],
        gpu: None,
        candidates: counters.points_tested,
        contacts,
        neighbors,
        index_gap: (counters.points_tested > 0)
            .then(|| gap_sum as f64 / counters.points_tested as f64),
        simd: None,
        csr_rebuilds_skipped: build_skipped as u64,
    }
}

/// Mixed-precision SIMD variant of [`cpu_grid_csr_step`] — the paper's
/// Improvement I (FP64→FP32) applied to the CPU hot path.
///
/// Same skeleton as the scalar pass: the f64 CSR build (candidate
/// enumeration is bit-identical to the f64 path — precision must never
/// change *which* pairs are tested, only the test arithmetic), the same
/// fixed [`CSR_PASS_CHUNK`] chunking. The differences:
///
/// * per-candidate state is gathered from the lazily refreshed `f32`
///   column mirrors and streamed through the 8-wide lane types of
///   [`bdm_math::simd`] — the memory-bound gather term halves
///   ([`work_model::SIMD_BYTES_PER_CANDIDATE`]);
/// * each agent's force accumulates **per lane in f64** ([`F64x8`]) and
///   reduces in lane-index order; run remainders shorter than one vector
///   width fall back to a scalar-f32 tail running the *exact same
///   algebra* (`collision_force::<f32>` — the vector kernel replicates it
///   op-for-op), whose f64-widened contributions are added after the
///   lane reduction. The accumulation order is a pure function of the
///   candidate sequence and the batching geometry — never of thread
///   scheduling — so the path is bitwise deterministic (serial ≡
///   parallel, run ≡ rerun). It *differs* from the f64 path within the
///   ±1e-5 per-step envelope pinned by `tests/precision_claims.rs`, and
///   because storage order changes lane packing (hence rounding), f32
///   trajectories are also a function of the reorder policy — unlike the
///   f64 path, which is reorder-invariant;
/// * displacement integration stays f64: `interaction::displacement`
///   over the f64-accumulated force, with the (f32-mirrored) adherence
///   widened back — the per-step tolerance budget is spent on the force
///   kernel, not on the integrator.
fn cpu_grid_csr_step_simd(
    rm: &mut ResourceManager,
    params: &SimParams,
    parallel: bool,
    scratch: &mut MechScratch,
) -> MechWork {
    let n = rm.len();
    let radius = interaction_radius(rm, params);
    let space = params.space;

    // Phase 1: the same f64 CSR build as the scalar pass.
    let t0 = Instant::now();
    let (xs64, ys64, zs64) = rm.position_columns();
    let grid = scratch
        .csr
        .get_or_insert_with(|| CsrGrid::build_serial(&[], &[], &[], space, radius));
    let build_skipped = if parallel {
        grid.rebuild_parallel(xs64, ys64, zs64, space, radius, &mut scratch.build)
    } else {
        grid.rebuild_serial(xs64, ys64, zs64, space, radius, &mut scratch.build)
    };
    let wall_build = t0.elapsed().as_secs_f64();

    // Phase 2: bring the f32 mirrors up to date. Lazy on the dirty
    // epochs: columns untouched since the previous step cost nothing
    // (diameters/adherences of a non-growing population).
    let t1 = Instant::now();
    let refresh_copies = scratch.mirrors.refresh(rm);
    let wall_refresh = t1.elapsed().as_secs_f64();

    // Phase 3: fused scan + force over the mirrors.
    let t2 = Instant::now();
    let posd = scratch.mirrors.posd.as_slice();
    let adh = scratch.mirrors.adh.as_slice();
    let mech = &params.mech;
    let rep32 = mech.repulsion as f32;
    let att32 = mech.attraction as f32;
    let r2f = (radius as f32) * (radius as f32);
    let halfv = F32x8::splat(0.5);
    let r2v = F32x8::splat(r2f);
    let repv = F32x8::splat(rep32);
    let attv = F32x8::splat(att32);
    let epsv = F32x8::splat(f32::EPSILON);
    let grid = &*grid;
    // Raw CSR views for the candidate-append fast path: offsets plus the
    // id array as plain `u32`s (zero-copy; `AgentId` is transparent).
    let starts = grid.cell_starts();
    let ids_raw = bdm_soa::ids_as_raw(grid.cell_agents());
    scratch.disp.clear();
    scratch.disp.resize(n, Vec3::zero());

    #[derive(Default)]
    struct ChunkStats {
        counters: bdm_grid::QueryCounters,
        contacts: u64,
        gap_sum: u64,
        lanes_utilized: u64,
        pad_lanes: u64,
    }

    let chunk_stats: Vec<ChunkStats> = scratch
        .disp
        .par_chunks_mut(CSR_PASS_CHUNK)
        .enumerate()
        .map(|(c, out)| {
            let base = c * CSR_PASS_CHUNK;
            let mut stats = ChunkStats::default();
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
                stats.pad_lanes += pad as u64;
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
                        // extra: a Newton-refined `rsqrt_nr`/`recip_nr`
                        // variant of this block measured *slower* by
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
                    stats.lanes_utilized += lanes_n;
                    stats.counters.neighbors_found += neigh_acc.reduce_sum();
                    stats.contacts += contact_acc.reduce_sum();
                    stats.gap_sum += gap_acc.reduce_sum();
                }
                let force = Vec3::new(ax.reduce(), ay.reduce(), az.reduce());
                *slot = interaction::displacement(force, adh[i] as f64, mech);
            }
            stats
        })
        .collect();
    let wall_fused = t2.elapsed().as_secs_f64();

    let mut counters = bdm_grid::QueryCounters::default();
    let mut contacts = 0u64;
    let mut gap_sum = 0u64;
    let mut simd = SimdWork {
        refresh_copies,
        ..Default::default()
    };
    for s in &chunk_stats {
        counters.merge(&s.counters);
        contacts += s.contacts;
        gap_sum += s.gap_sum;
        simd.lanes_utilized += s.lanes_utilized;
        simd.pad_lanes += s.pad_lanes;
    }
    let disp = std::mem::take(&mut scratch.disp);
    apply_displacements(rm, &disp);
    scratch.disp = disp;

    let neighbors = counters.neighbors_found;
    let phases = vec![
        Phase {
            name: "neighborhood build",
            flops: 0.0,
            bytes: if build_skipped {
                work_model::CSR_BUILD_SKIP_BYTES_PER_AGENT * n as f64
            } else {
                work_model::CSR_BUILD_BYTES_PER_AGENT * n as f64
            },
            random_accesses: if build_skipped {
                0.0
            } else {
                work_model::CSR_BUILD_RANDOM_PER_AGENT * n as f64
            },
            parallel,
            fp64: true,
        },
        Phase {
            name: "f32 mirror refresh",
            flops: refresh_copies as f64,
            bytes: work_model::SIMD_REFRESH_BYTES_PER_ELEMENT * refresh_copies as f64,
            random_accesses: 0.0,
            parallel: false,
            fp64: false,
        },
        Phase {
            name: "mechanical forces",
            flops: work_model::CSR_FLOPS_PER_CANDIDATE * counters.points_tested as f64
                + work_model::UG_FLOPS_PER_CONTACT * contacts as f64
                + work_model::UG_FIXED_FLOPS_PER_AGENT * n as f64,
            bytes: work_model::SIMD_BYTES_PER_CANDIDATE * counters.points_tested as f64
                + work_model::SIMD_FIXED_BYTES_PER_AGENT * n as f64,
            random_accesses: work_model::CSR_RANDOM_PER_BOX * counters.boxes_scanned as f64,
            parallel: true,
            fp64: false,
        },
    ];
    MechWork {
        phases,
        wall_s: vec![wall_build, wall_refresh, wall_fused],
        gpu: None,
        candidates: counters.points_tested,
        contacts,
        neighbors,
        index_gap: (counters.points_tested > 0)
            .then(|| gap_sum as f64 / counters.points_tested as f64),
        simd: Some(simd),
        csr_rebuilds_skipped: build_skipped as u64,
    }
}

fn gpu_step(
    rm: &mut ResourceManager,
    params: &SimParams,
    pipeline: &mut MechanicalPipeline,
) -> MechWork {
    let radius = interaction_radius(rm, params);
    let report = if params.gpu_resident {
        // Resident path: the pipeline diffs the host columns against
        // its device mirrors (uploading only births/deaths/edits),
        // integrates on-device, and hands back the *new positions* —
        // which are installed verbatim so host and device stay bitwise
        // in lockstep for the next step's diff.
        let (positions, report) = {
            let (xs, ys, zs) = rm.position_columns();
            let scene = SceneRef {
                xs,
                ys,
                zs,
                diameters: rm.diameter_column(),
                adherences: rm.adherence_column(),
                space: params.space,
                box_len: radius,
            };
            pipeline.step_resident(&scene, rm.uid_column(), &params.mech)
        };
        for (i, &p) in positions.iter().enumerate() {
            if p != rm.position(i) {
                rm.set_position(i, p);
            }
        }
        report
    } else {
        let (disp, report) = {
            let (xs, ys, zs) = rm.position_columns();
            let scene = SceneRef {
                xs,
                ys,
                zs,
                diameters: rm.diameter_column(),
                adherences: rm.adherence_column(),
                space: params.space,
                box_len: radius,
            };
            pipeline.step(&scene, &params.mech)
        };
        apply_displacements(rm, &disp);
        report
    };
    MechWork {
        phases: Vec::new(),
        wall_s: Vec::new(),
        gpu: Some(report),
        candidates: 0,
        contacts: 0,
        neighbors: 0,
        index_gap: None,
        simd: None,
        csr_rebuilds_skipped: 0,
    }
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

    #[test]
    fn kdtree_and_grid_move_agents_identically() {
        let params = SimParams::cube(6.0);
        let mut a = random_population(300, 5.5, 3);
        let mut b = a.clone();
        let wa = mechanical_step(&mut a, &params, &EnvironmentKind::KdTree, None);
        let wb = mechanical_step(
            &mut b,
            &params,
            &EnvironmentKind::uniform_grid_serial(),
            None,
        );
        assert_eq!(wa.neighbors, wb.neighbors, "same neighbor sets expected");
        let pa = positions(&a);
        let pb = positions(&b);
        let mut max_err = 0.0f64;
        for i in 0..pa.len() {
            max_err = max_err.max((pa[i] - pb[i]).norm());
        }
        // Summation order differs (tree vs grid visit order): tiny FP skew.
        assert!(max_err < 1e-9, "divergence {max_err}");
        // The scene is dense enough that something moved.
        assert!(wa.contacts > 0);
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let params = SimParams::cube(6.0);
        let mut a = random_population(400, 5.5, 9);
        let mut b = a.clone();
        let wa = mechanical_step(
            &mut a,
            &params,
            &EnvironmentKind::uniform_grid_serial(),
            None,
        );
        let wb = mechanical_step(
            &mut b,
            &params,
            &EnvironmentKind::uniform_grid_parallel(),
            None,
        );
        assert_eq!(wa.neighbors, wb.neighbors);
        let pa = positions(&a);
        let pb = positions(&b);
        for i in 0..pa.len() {
            assert!((pa[i] - pb[i]).norm() < 1e-9);
        }
    }

    #[test]
    fn csr_grid_matches_linked_list_grid() {
        let params = SimParams::cube(6.0);
        let mut a = random_population(400, 5.5, 9);
        let mut b = a.clone();
        let wa = mechanical_step(
            &mut a,
            &params,
            &EnvironmentKind::uniform_grid_serial(),
            None,
        );
        let wb = mechanical_step(
            &mut b,
            &params,
            &EnvironmentKind::uniform_grid_csr_serial(),
            None,
        );
        // Identical stencil and acceptance test ⇒ identical work counters.
        assert_eq!(wa.neighbors, wb.neighbors);
        assert_eq!(wa.candidates, wb.candidates);
        assert_eq!(wa.contacts, wb.contacts);
        let pa = positions(&a);
        let pb = positions(&b);
        for i in 0..pa.len() {
            // Per-voxel visit order differs (reverse-insertion list vs
            // ascending id): tiny FP summation skew only.
            assert!((pa[i] - pb[i]).norm() < 1e-9);
        }
    }

    #[test]
    fn csr_serial_and_parallel_are_bitwise_identical() {
        let params = SimParams::cube(6.0);
        let mut a = random_population(500, 5.5, 21);
        let mut b = a.clone();
        mechanical_step(
            &mut a,
            &params,
            &EnvironmentKind::uniform_grid_csr_serial(),
            None,
        );
        mechanical_step(
            &mut b,
            &params,
            &EnvironmentKind::uniform_grid_csr_parallel(),
            None,
        );
        // The parallel counting sort is deterministic and the fused pass
        // accumulates per agent in CSR order either way: every FP64
        // displacement must be bit-for-bit equal, not merely close.
        assert_eq!(positions(&a), positions(&b));
    }

    #[test]
    fn csr_scratch_is_reused_across_steps() {
        let params = SimParams::cube(6.0);
        let mut rm = random_population(300, 5.5, 23);
        let mut scratch = MechScratch::default();
        let env = EnvironmentKind::uniform_grid_csr_parallel();
        let w1 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        let w2 = mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        assert!(w1.neighbors > 0);
        assert!(w2.neighbors > 0);
        // A second step through the same scratch matches a fresh run.
        let mut fresh = random_population(300, 5.5, 23);
        mechanical_step(&mut fresh, &params, &env, None);
        mechanical_step(&mut fresh, &params, &env, None);
        assert_eq!(positions(&rm), positions(&fresh));
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
    fn phases_report_work() {
        let params = SimParams::cube(6.0);
        let mut rm = random_population(300, 5.5, 11);
        let w = mechanical_step(&mut rm, &params, &EnvironmentKind::KdTree, None);
        assert_eq!(w.phases.len(), 3);
        assert!(!w.phases[0].parallel, "kd build must be serial");
        assert!(w.phases[1].parallel);
        assert!(w.phases[1].flops > 0.0);
        assert!(w.phases[2].flops > 0.0);
        let wg = mechanical_step(
            &mut rm,
            &params,
            &EnvironmentKind::uniform_grid_parallel(),
            None,
        );
        assert_eq!(wg.phases.len(), 2, "grid pipeline is build + fused pass");
        assert!(wg.phases[0].parallel, "parallel grid build");
        assert_eq!(wg.phases[1].name, "mechanical forces");
        let wc = mechanical_step(
            &mut rm,
            &params,
            &EnvironmentKind::uniform_grid_csr_parallel(),
            None,
        );
        assert_eq!(wc.phases.len(), 2, "CSR pipeline is build + fused pass");
        assert!(wc.phases[0].parallel);
        // The CSR layout's whole point: per unit of work it charges less
        // dependent random access than the linked list (build: no
        // scattered head update per agent; query: streamed slices).
        assert!(wc.phases[0].random_accesses < wg.phases[0].random_accesses);
        assert!(wc.phases[1].random_accesses < wg.phases[1].random_accesses);
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
        use crate::rm::ReorderScratch;
        use bdm_soa::Permutation;
        // A random cloud in insertion order has near-random candidate
        // index gaps; after a curve sort the fused pass must report a
        // much smaller mean gap (the reorder op's whole purpose).
        let params = SimParams::cube(6.0);
        let mut rm = random_population(2_000, 5.5, 41);
        let env = EnvironmentKind::uniform_grid_csr_serial();
        let before = mechanical_step(&mut rm.clone(), &params, &env, None)
            .index_gap
            .expect("CSR path reports a gap");
        let radius = interaction_radius(&rm, &params);
        let (xs, ys, zs) = rm.position_columns();
        let cells =
            bdm_morton::cell_keys(xs, ys, zs, &params.space, radius, bdm_morton::Curve::ZOrder);
        let keys: Vec<(u64, u64)> = cells.into_iter().zip(rm.uid_column().to_vec()).collect();
        let perm = Permutation::sorting_by_key(&keys);
        rm.apply_permutation(&perm, &mut ReorderScratch::default());
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
    fn f32simd_matches_f64_within_envelope() {
        let params = SimParams::cube(6.0);
        let params32 = params.clone().with_precision(Precision::F32Simd);
        let env = EnvironmentKind::uniform_grid_csr_serial();
        let mut a = random_population(500, 5.5, 21);
        let mut b = a.clone();
        let wa = mechanical_step(&mut a, &params, &env, None);
        let wb = mechanical_step(&mut b, &params32, &env, None);
        // Precision must never change *which* pairs get tested: the f64
        // CSR build is shared, so candidate enumeration is identical.
        assert_eq!(wa.candidates, wb.candidates);
        assert_eq!(wa.index_gap, wb.index_gap);
        assert!(wa.simd.is_none(), "f64 path reports no SIMD stats");
        let simd = wb.simd.expect("f32 path reports SIMD stats");
        assert_eq!(
            simd.lanes_utilized, wb.candidates,
            "every candidate rides a vector lane"
        );
        assert!(simd.lanes_utilized > 0, "dense scene fills vector batches");
        assert!(
            simd.pad_lanes > 0,
            "stencil remainders exercise self-id padding"
        );
        assert_eq!(
            simd.refresh_copies,
            5 * 500,
            "first step converts all 5 columns"
        );
        // The documented envelope: per-step displacement skew stays
        // below 1e-5 (forces are O(1) here, so absolute ≈ relative).
        assert!(wb.contacts > 0);
        let pa = positions(&a);
        let pb = positions(&b);
        let mut max_err = 0.0f64;
        for i in 0..pa.len() {
            max_err = max_err.max((pa[i] - pb[i]).norm());
        }
        assert!(max_err < 1e-5, "f32 envelope exceeded: {max_err}");
        assert!(max_err > 0.0, "narrowing must actually change rounding");
    }

    #[test]
    fn f32simd_serial_and_parallel_are_bitwise_identical() {
        let params = SimParams::cube(6.0).with_precision(Precision::F32Simd);
        let mut a = random_population(500, 5.5, 21);
        let mut b = a.clone();
        mechanical_step(
            &mut a,
            &params,
            &EnvironmentKind::uniform_grid_csr_serial(),
            None,
        );
        mechanical_step(
            &mut b,
            &params,
            &EnvironmentKind::uniform_grid_csr_parallel(),
            None,
        );
        // Lane packing and reduction order depend only on the candidate
        // sequence and the fixed chunking — not on thread scheduling.
        assert_eq!(positions(&a), positions(&b));
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
    fn f32simd_scratch_reuse_matches_fresh_runs() {
        let params = SimParams::cube(6.0).with_precision(Precision::F32Simd);
        let mut rm = random_population(300, 5.5, 23);
        let mut scratch = MechScratch::default();
        let env = EnvironmentKind::uniform_grid_csr_parallel();
        mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        let mut fresh = random_population(300, 5.5, 23);
        mechanical_step(&mut fresh, &params, &env, None);
        mechanical_step(&mut fresh, &params, &env, None);
        assert_eq!(positions(&rm), positions(&fresh));
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
    fn f32simd_phases_report_narrowed_traffic() {
        let params = SimParams::cube(6.0).with_precision(Precision::F32Simd);
        let mut rm = random_population(300, 5.5, 11);
        let w64 = mechanical_step(
            &mut rm.clone(),
            &SimParams::cube(6.0),
            &EnvironmentKind::uniform_grid_csr_parallel(),
            None,
        );
        let w = mechanical_step(
            &mut rm,
            &params,
            &EnvironmentKind::uniform_grid_csr_parallel(),
            None,
        );
        assert_eq!(w.phases.len(), 3, "build + mirror refresh + fused pass");
        assert_eq!(w.phases[1].name, "f32 mirror refresh");
        assert!(!w.phases[1].fp64);
        let force64 = &w64.phases[1];
        let force32 = &w.phases[2];
        assert_eq!(force32.name, "mechanical forces");
        assert!(!force32.fp64, "force phase runs at fp32 throughput");
        assert!(
            force32.bytes < force64.bytes * 0.7,
            "Improvement I: the candidate gather traffic roughly halves \
             ({} vs {})",
            force32.bytes,
            force64.bytes
        );
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
