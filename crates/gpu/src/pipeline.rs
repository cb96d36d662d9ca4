//! The complete GPU offload pipeline for the mechanical interaction
//! operation — what `bdm-sim` plugs in as its GPU environment.
//!
//! One step = H2D transfer of the needed SoA columns → device grid build
//! → mechanical kernel (version-dependent) → D2H transfer of the
//! displacements. Only "a subset of the agents' state data" crosses the
//! bus (paper §II): positions, diameters, adherence in; displacements out.
//!
//! The four paper versions plus the post-paper experiments — one
//! [`ForceKernel`] body wherever a thread owns a cell, over the grid the
//! version builds:
//!
//! | version | precision | input order | grid build | force kernel |
//! |---|---|---|---|---|
//! | `V0`       | FP64 | insertion     | [`GridBuildKernel`] | [`ForceKernel`] over [`ChainGrid`] |
//! | `V1Fp32`   | FP32 | insertion     | [`GridBuildKernel`] | [`ForceKernel`] over [`ChainGrid`] |
//! | `V2Sorted` | FP32 | Morton-sorted | [`GridBuildKernel`] | [`ForceKernel`] over [`ChainGrid`] |
//! | `V3Shared` | FP32 | Morton-sorted | [`GridBuildKernel`] | [`SharedMechKernel`] |
//! | `DynPar`   | FP32 | Morton-sorted | [`GridBuildKernel`] | [`ParentKernel`]+[`ChildKernel`]+[`FinishKernel`] |
//! | `V4Csr`    | FP32 | Morton-sorted | [`CsrCountKernel`]+[`CsrScatterKernel`] | [`ForceKernel`] over [`CsrCells`] |
//!
//! # Device residency
//!
//! The pipeline owns a persistent [`DeviceState`]: every device buffer is
//! allocated once and grown geometrically, so steady-state steps perform
//! zero allocations. Two entry points share it (and one step frame: the
//! same prologue, grid build, kernels, download and report):
//!
//! * [`MechanicalPipeline::step`] — the classic rebuilt step: upload the
//!   five columns, build, compute, download displacements. Buffers are
//!   reused but the device copy is treated as scratch.
//! * [`MechanicalPipeline::step_resident`] — agent state *stays* on the
//!   device across steps. The host hands in its (FP64) columns plus a
//!   UID column; the pipeline classifies the UID column against the one
//!   its device rows were uploaded under ([`SyncPlan`]) and moves only
//!   the difference over the bus: appended births as ranged tail
//!   uploads, swap-remove deaths as an uploaded `(dst, src)` move list
//!   compacted *on the device* ([`CompactKernel`]), scalar host-side
//!   edits as element patches. A reordered or otherwise unrecognizable
//!   UID column re-uploads everything — nobody has to tell the pipeline.
//!   Displacements are folded into the position columns on the device
//!   ([`IntegrateKernel`]) and only the three position columns come back
//!   for inspection. A steady-state step therefore uploads nothing.
//!
//! The resident path also maintains the grid incrementally: it keeps the
//! clamped voxel key of every agent and skips the whole grid build —
//! including version IV's counting sort and its PCIe scan round trip —
//! when no key changed since the last build. Skipping is bitwise safe
//! because both grid builds are pure functions of the (unchanged) keys.

use crate::counters::KernelCounters;
use crate::engine::{FromWord, HostCost, Kernel, LaunchResult, Launches, TraceAccesses};
use crate::frontend::{ApiFrontend, Runtime};
use crate::kernels::csr::{exclusive_scan_into, CsrCountKernel, CsrScatterKernel};
use crate::kernels::dynpar::{ChildKernel, FinishKernel, ParentKernel};
use crate::kernels::grid_build::GridBuildKernel;
use crate::kernels::layout::{AgentCols, ChainGrid, CsrCells, DispCols};
use crate::kernels::mech::ForceKernel;
use crate::kernels::mech_shared::{shared_words_for, tile_cap_for, SharedMechKernel};
use crate::kernels::resident::{CompactKernel, IntegrateKernel};
use crate::mem::{DeviceAllocator, DeviceBuffer, DeviceWord};
use bdm_device::specs::SystemSpec;
use bdm_device::transfer::PcieModel;
use bdm_grid::GridGeometry;
use bdm_math::interaction::MechParams;
use bdm_math::{Aabb, Scalar, Vec3};
use std::collections::HashMap;

/// Which of the paper's kernel versions to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVersion {
    /// Straight FP64 port (paper "GPU version 0").
    V0,
    /// FP32 precision reduction (Improvement I).
    V1Fp32,
    /// FP32 + Morton-sorted state (Improvement II).
    V2Sorted,
    /// FP32 + sorted + shared-memory tiles (Improvement III — a
    /// regression, per the paper).
    V3Shared,
    /// FP32 + sorted + dynamic-parallelism neighbor-loop fan-out
    /// (the paper's §VI future-work hypothesis).
    DynPar,
    /// FP32 + sorted + CSR counting-sort grid (post-paper): the force
    /// kernel streams contiguous `cell_agents` slices instead of chasing
    /// per-agent successor links.
    V4Csr,
}

impl KernelVersion {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            KernelVersion::V0 => "GPU version 0",
            KernelVersion::V1Fp32 => "GPU version I (fp32)",
            KernelVersion::V2Sorted => "GPU version II (+zorder)",
            KernelVersion::V3Shared => "GPU version III (+shared)",
            KernelVersion::DynPar => "GPU dynpar (future work)",
            KernelVersion::V4Csr => "GPU version IV (+CSR)",
        }
    }

    /// All versions, in the order the paper introduces them (the
    /// post-paper CSR experiment last).
    pub const ALL: [KernelVersion; 6] = [
        KernelVersion::V0,
        KernelVersion::V1Fp32,
        KernelVersion::V2Sorted,
        KernelVersion::V3Shared,
        KernelVersion::DynPar,
        KernelVersion::V4Csr,
    ];

    /// Whether this version sorts agents along the Z-order curve.
    pub fn sorts(&self) -> bool {
        !matches!(self, KernelVersion::V0 | KernelVersion::V1Fp32)
    }

    /// Whether this version computes in single precision.
    pub fn fp32(&self) -> bool {
        !matches!(self, KernelVersion::V0)
    }
}

/// How a step brought the device's agent rows up to date with the host
/// columns — the decision, the report field and the metric label in one.
/// A resident step reads it off the UID column (`classify`); a rebuilt
/// step treats the device as scratch, so it is always [`SyncPlan::Cold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPlan {
    /// No valid device rows (first step, after
    /// [`MechanicalPipeline::invalidate_residency`], a buffer
    /// reallocation, or a rebuilt step): upload everything.
    Cold,
    /// Same rows in the same order: upload nothing but element patches.
    Unchanged,
    /// The old rows, then births: upload only the new tail rows.
    Appended,
    /// Swap-remove deaths: upload a `(dst, src)` move list, compact
    /// on-device.
    Compacted,
    /// Same length, different sequence — a host reorder (or as many
    /// births as deaths, which looks the same from here and costs the
    /// same): upload everything.
    Permuted,
    /// Anything else (births and deaths or a reorder in one step):
    /// upload everything.
    Churn,
}

impl SyncPlan {
    /// Metric label (`gpu.sync{kind=…}`).
    pub fn label(&self) -> &'static str {
        match self {
            SyncPlan::Cold => "cold",
            SyncPlan::Unchanged => "unchanged",
            SyncPlan::Appended => "appended",
            SyncPlan::Compacted => "compacted",
            SyncPlan::Permuted => "permuted",
            SyncPlan::Churn => "churn",
        }
    }
}

/// Classify the host's UID column against `prev`, the column the device
/// rows were uploaded under (`None`: the device holds nothing valid).
/// For [`SyncPlan::Compacted`], `moves` receives the flat `(dst, src)`
/// list that turns the old rows into the new ones; `slots` is scratch.
fn classify(
    prev: Option<&[u64]>,
    uids: &[u64],
    slots: &mut HashMap<u64, u32>,
    moves: &mut Vec<u32>,
) -> SyncPlan {
    let Some(prev) = prev else {
        return SyncPlan::Cold;
    };
    let n = uids.len();
    if uids == prev {
        return SyncPlan::Unchanged;
    }
    if n > prev.len() {
        return if uids[..prev.len()] == *prev {
            SyncPlan::Appended
        } else {
            SyncPlan::Churn
        };
    }
    if n == prev.len() {
        return SyncPlan::Permuted;
    }
    // Deaths: the host's swap-remove leaves a short `(dst, src)` move
    // list with every source in the truncated tail. Destinations are
    // distinct rows below `n` and sources distinct rows at or above it,
    // so the moves are disjoint and can run one thread each.
    slots.clear();
    slots.extend(prev.iter().enumerate().map(|(slot, &u)| (u, slot as u32)));
    moves.clear();
    for (i, &u) in uids.iter().enumerate() {
        if u == prev[i] {
            continue;
        }
        match slots.get(&u) {
            Some(&src) if src as usize >= n => moves.extend([i as u32, src]),
            _ => return SyncPlan::Churn,
        }
    }
    SyncPlan::Compacted
}

/// Timing + counters of one offloaded step.
#[derive(Debug, Clone)]
pub struct GpuStepReport {
    /// Host→device transfer seconds (modeled PCIe).
    pub h2d_s: f64,
    /// Device→host transfer seconds.
    pub d2h_s: f64,
    /// Grid-construction kernel seconds (for a resident step this also
    /// includes the state-sync work: compaction moves, tail uploads).
    pub build_s: f64,
    /// Mechanical kernel(s) seconds.
    pub mech_s: f64,
    /// Total modeled step time.
    pub total_s: f64,
    /// Merged counters across all launches of the step.
    pub counters: KernelCounters,
    /// Counters of the mechanical kernel alone (roofline input).
    pub mech_counters: KernelCounters,
    /// Host-side gather passes spent permuting columns for Improvement
    /// II: 5 on upload + 3 on the inverse at download for a sorting
    /// version, 0 when the caller's columns already arrived in
    /// `sort_curve` order (or the version does not sort). The host
    /// `reorder` operation keeps resident state in curve order exactly
    /// so this stays 0 and the upload degenerates to a straight memcpy.
    /// A resident step never gathers: device order is never disturbed.
    pub sort_gathers: u32,
    /// Host→device payload bytes this step actually moved. The pinned
    /// residency invariant: a steady-state resident step reports 0.
    pub bytes_h2d: u64,
    /// Device→host payload bytes this step moved.
    pub bytes_d2h: u64,
    /// Synchronous host round trips *inside* the step (device→host
    /// readback whose result gates the next launch): version IV's scan,
    /// version III's occupancy readback, dynpar's queue-length read.
    /// Each one is a pipeline stall on real hardware; the resident
    /// grid-skip path eliminates version IV's.
    pub midstep_syncs: u32,
    /// Whether this step ran with device-resident agent state.
    pub resident: bool,
    /// How the agent rows reached the device this step.
    pub sync: SyncPlan,
    /// Whether the grid was built this step (`false`: the resident path
    /// found every voxel key unchanged and reused the device's grid).
    pub grid_built: bool,
    /// Host wall clock the SIMT simulator spent on the step's launches
    /// (measured, not modeled — the one nondeterministic field).
    pub host: HostCost,
    /// How many of the step's traced accesses the engine's lane filter
    /// absorbed — why `host.exec_s` reads what it reads.
    pub accesses: TraceAccesses,
    /// How many of the step's launches forked their blocks across the
    /// host workers, and into how many chunks — the other reason.
    pub launches: Launches,
}

impl GpuStepReport {
    /// Kernel-only seconds (the quantity Figs. 8–11 compare).
    pub fn kernel_s(&self) -> f64 {
        self.build_s + self.mech_s
    }

    /// Publish the step's timing breakdown and kernel counters into a
    /// metrics registry. Every time here is *modeled* (the trace-driven
    /// device and PCIe models), hence deterministic and gateable —
    /// unlike host wall clocks.
    pub fn publish_metrics(&self, labels: &[(&str, &str)], reg: &mut bdm_metrics::MetricsRegistry) {
        reg.observe("gpu.h2d_s", labels, self.h2d_s);
        reg.observe("gpu.d2h_s", labels, self.d2h_s);
        reg.observe("gpu.build_s", labels, self.build_s);
        reg.observe("gpu.mech_s", labels, self.mech_s);
        reg.observe("gpu.total_s", labels, self.total_s);
        reg.inc_counter("gpu.sort_gathers", labels, self.sort_gathers as f64);
        reg.inc_counter("gpu.bytes_h2d", labels, self.bytes_h2d as f64);
        reg.inc_counter("gpu.bytes_d2h", labels, self.bytes_d2h as f64);
        reg.inc_counter("gpu.midstep_syncs", labels, self.midstep_syncs as f64);
        reg.inc_counter(
            "gpu.resident_steps",
            labels,
            if self.resident { 1.0 } else { 0.0 },
        );
        let with = |key, value| [labels, &[(key, value)]].concat();
        // Why a fast path was or was not taken, one count per step.
        reg.inc_counter("gpu.sync", &with("kind", self.sync.label()), 1.0);
        let outcome = if self.grid_built { "built" } else { "skipped" };
        reg.inc_counter("gpu.grid_build", &with("outcome", outcome), 1.0);
        self.counters.publish_metrics("gpu.step", labels, reg);
        self.mech_counters.publish_metrics("gpu.mech", labels, reg);
        // The simulator's own host wall clock: informational, never gated.
        for (phase, secs) in [("exec", self.host.exec_s), ("drain", self.host.drain_s)] {
            reg.observe("gpu.host_s", &with("phase", phase), secs);
        }
        // Why it cost that: the traced accesses by the path that logged
        // them. Informational too — a count of the simulator's work, not
        // of the device's.
        let TraceAccesses { total, filtered } = self.accesses;
        for (path, n) in [("filter", filtered), ("table", total - filtered)] {
            reg.inc_counter("gpu.trace_accesses", &with("path", path), n as f64);
        }
        // And how the launches ran their blocks: forked (the kernel's
        // blocks commute) or in order.
        let Launches {
            forked, ordered, ..
        } = self.launches;
        for (exec, n) in [("forked", forked), ("ordered", ordered)] {
            reg.inc_counter("gpu.launches", &with("exec", exec), n as f64);
        }
    }
}

/// Scene inputs of one step (host-side, always FP64 — BioDynaMo's storage
/// precision; the pipeline narrows internally for FP32 versions).
#[derive(Debug, Clone, Copy)]
pub struct SceneRef<'a> {
    /// Position columns.
    pub xs: &'a [f64],
    /// Y coordinates.
    pub ys: &'a [f64],
    /// Z coordinates.
    pub zs: &'a [f64],
    /// Diameters.
    pub diameters: &'a [f64],
    /// Adherence thresholds.
    pub adherences: &'a [f64],
    /// Simulation space.
    pub space: Aabb<f64>,
    /// Uniform-grid voxel edge (≥ the largest interaction radius).
    pub box_len: f64,
}

impl<'a> SceneRef<'a> {
    /// The five agent columns in device order ([`AgentCols`]), named.
    fn columns(&self) -> [(&'static str, &'a [f64]); 5] {
        [
            ("xs", self.xs),
            ("ys", self.ys),
            ("zs", self.zs),
            ("diameters", self.diameters),
            ("adherences", self.adherences),
        ]
    }
}

/// Per-step transfer/launch cost of one pipeline phase.
#[derive(Clone, Default)]
struct PhaseCost {
    counters: KernelCounters,
    secs: f64,
    host: HostCost,
    accesses: TraceAccesses,
    launches: Launches,
    h2d_bytes: u64,
    h2d_transfers: u32,
    d2h_bytes: u64,
    d2h_transfers: u32,
    midstep_syncs: u32,
}

impl PhaseCost {
    /// Account one kernel launch to this phase.
    fn add_launch(&mut self, r: &LaunchResult) {
        self.counters.merge(&r.counters);
        self.secs += r.timing.total_s;
        self.host.merge(&r.host);
        self.accesses.merge(&r.accesses);
        self.launches.merge(&r.launches);
    }

    /// Launch `kernel` at one thread per item (128-thread groups, no
    /// shared memory) and account it to this phase.
    fn launch<K: Kernel>(&mut self, runtime: &Runtime, kernel: &K, items: usize) {
        self.add_launch(&runtime.dispatch(kernel, items, 128, 0));
    }

    /// Account `columns` uploads of `rows` device words of `W` each.
    fn add_h2d<W: DeviceWord>(&mut self, columns: u32, rows: usize) {
        self.h2d_bytes += columns as u64 * rows as u64 * W::BYTES as u64;
        self.h2d_transfers += columns;
    }

    /// Account `columns` downloads of `rows` device words of `W` each.
    fn add_d2h<W: DeviceWord>(&mut self, columns: u32, rows: usize) {
        self.d2h_bytes += columns as u64 * rows as u64 * W::BYTES as u64;
        self.d2h_transfers += columns;
    }

    /// Fold a later phase of the same step into this one.
    fn merge(&mut self, later: &PhaseCost) {
        self.counters.merge(&later.counters);
        self.secs += later.secs;
        self.host.merge(&later.host);
        self.accesses.merge(&later.accesses);
        self.launches.merge(&later.launches);
        self.h2d_bytes += later.h2d_bytes;
        self.h2d_transfers += later.h2d_transfers;
        self.d2h_bytes += later.d2h_bytes;
        self.d2h_transfers += later.d2h_transfers;
        self.midstep_syncs += later.midstep_syncs;
    }
}

/// Read `len` per-voxel counts back to the host: a transfer *and* a
/// mid-step stall, because the next launch waits on what the host makes
/// of them.
fn read_back(buf: &DeviceBuffer<u32>, len: usize, into: &mut Vec<u32>, cost: &mut PhaseCost) {
    into.clear();
    into.resize(len, 0);
    buf.download_at(0, into);
    cost.add_d2h::<u32>(1, len);
    cost.midstep_syncs += 1;
}

/// Everything the pipeline keeps alive across steps for one scalar
/// width: the device buffers (allocated once, grown geometrically), the
/// host-side scratch (narrowed columns, scan offsets, download
/// staging), and the residency bookkeeping (a host mirror of the device
/// columns, the UID column identifying each device row, and the voxel
/// keys of the last grid build for the incremental-rebuild check).
/// Device columns, narrowed host columns and mirror share the
/// [`AgentCols`] shape, so every per-column job is a loop over a zip.
struct DeviceState<R: Scalar + DeviceWord> {
    /// One bump allocator for the lifetime of the pipeline. Growth
    /// allocates fresh buffers and abandons the old ranges — addresses
    /// are never recycled, so the L2 model can never alias a stale
    /// line with a new buffer.
    alloc: DeviceAllocator,
    cap_agents: usize,
    cap_boxes: usize,
    cap_partials: usize,
    // Agent-sized device buffers (allocated to `cap_agents`).
    cols: [DeviceBuffer<R>; 5],
    disp: [DeviceBuffer<R>; 3],
    successors: DeviceBuffer<u32>,
    csr_agents: DeviceBuffer<u32>,
    queue: DeviceBuffer<u32>,
    /// `(dst, src)` pairs for on-device death compaction (2·cap).
    moves: DeviceBuffer<u32>,
    // Box-sized device buffers (allocated to `cap_boxes`).
    box_start: DeviceBuffer<u32>,
    box_length: DeviceBuffer<u32>,
    csr_cursor: DeviceBuffer<u32>,
    counts: DeviceBuffer<u32>,
    voxel_ids: DeviceBuffer<u32>,
    queue_count: DeviceBuffer<u32>,
    partials: DeviceBuffer<R>,
    // Host scratch, persistent so the steady state allocates nothing.
    /// This step's host columns, narrowed to `R`.
    host: [Vec<R>; 5],
    /// Scan/occupancy readback staging (satellite of the mid-step
    /// stall fix: the scan no longer allocates per step).
    host_counts: Vec<u32>,
    starts: Vec<u32>,
    /// Download staging for the three columns a step returns.
    down: [Vec<R>; 3],
    perm_scratch: Vec<R>,
    // Residency bookkeeping.
    /// Device agent columns mirror `mirror`/`uids` below.
    resident_valid: bool,
    /// Device grid buffers describe the *current* device positions.
    grid_valid: bool,
    mirror: [Vec<R>; 5],
    /// The UID column the device rows were uploaded under.
    uids: Vec<u64>,
    /// Clamped voxel keys at the last grid build (the incremental
    /// check: identical keys ⇒ identical grid ⇒ skip the build).
    prev_keys: Vec<u32>,
    keys_cur: Vec<u32>,
    prev_geom: Option<GridGeometry<R>>,
    /// Version III occupancy cache, refreshed whenever the grid is.
    v3_non_empty: Vec<u32>,
    v3_block_dim: u32,
    uid_slot: HashMap<u64, u32>,
    moves_host: Vec<u32>,
}

impl<R: Scalar + DeviceWord> DeviceState<R> {
    /// Empty state. Zero-length allocations do not advance the bump
    /// pointer; the one-word `queue_count` comes first and does, so every
    /// later address (coalescer and L2 model input) follows from it.
    fn new() -> Self {
        let mut alloc = DeviceAllocator::new();
        Self {
            queue_count: alloc.alloc(1),
            cols: std::array::from_fn(|_| alloc.alloc(0)),
            disp: std::array::from_fn(|_| alloc.alloc(0)),
            successors: alloc.alloc(0),
            csr_agents: alloc.alloc(0),
            queue: alloc.alloc(0),
            moves: alloc.alloc(0),
            box_start: alloc.alloc(0),
            box_length: alloc.alloc(0),
            csr_cursor: alloc.alloc(0),
            counts: alloc.alloc(0),
            voxel_ids: alloc.alloc(0),
            partials: alloc.alloc(0),
            alloc,
            cap_agents: 0,
            cap_boxes: 0,
            cap_partials: 0,
            host: Default::default(),
            host_counts: Vec::new(),
            starts: Vec::new(),
            down: Default::default(),
            perm_scratch: Vec::new(),
            resident_valid: false,
            grid_valid: false,
            mirror: Default::default(),
            uids: Vec::new(),
            prev_keys: Vec::new(),
            keys_cur: Vec::new(),
            prev_geom: None,
            v3_non_empty: Vec::new(),
            v3_block_dim: 0,
            uid_slot: HashMap::new(),
            moves_host: Vec::new(),
        }
    }

    /// Grow the agent-sized buffers to hold `n` agents (geometric, so
    /// amortized O(1) allocations) — which drops residency: the new
    /// buffers hold nothing yet. Allocation order is part of the
    /// simulated result (bump addresses feed the coalescer).
    fn ensure_agents(&mut self, n: usize) {
        if n <= self.cap_agents {
            return;
        }
        let cap = n.max(self.cap_agents * 2).max(64);
        self.cols = std::array::from_fn(|_| self.alloc.alloc(cap));
        self.disp = std::array::from_fn(|_| self.alloc.alloc(cap));
        self.successors = self.alloc.alloc(cap);
        self.csr_agents = self.alloc.alloc(cap);
        self.queue = self.alloc.alloc(cap);
        self.moves = self.alloc.alloc(2 * cap);
        self.cap_agents = cap;
        self.invalidate();
    }

    /// Grow the box-sized buffers to hold `b` voxels.
    fn ensure_boxes(&mut self, b: usize) {
        if b <= self.cap_boxes {
            return;
        }
        let cap = b.max(self.cap_boxes * 2).max(64);
        self.box_start = self.alloc.alloc(cap);
        self.box_length = self.alloc.alloc(cap);
        self.csr_cursor = self.alloc.alloc(cap);
        self.counts = self.alloc.alloc(cap);
        self.voxel_ids = self.alloc.alloc(cap);
        self.cap_boxes = cap;
        self.grid_valid = false;
    }

    /// Grow the dynpar partial-force scratch to `len` words.
    fn ensure_partials(&mut self, len: usize) {
        if len <= self.cap_partials {
            return;
        }
        let cap = len.max(self.cap_partials * 2);
        self.partials = self.alloc.alloc(cap);
        self.cap_partials = cap;
    }

    /// Drop residency: the next resident step re-uploads everything.
    fn invalidate(&mut self) {
        self.resident_valid = false;
        self.grid_valid = false;
    }

    fn agents(&self) -> AgentCols<'_, R> {
        AgentCols(&self.cols)
    }

    fn out(&self) -> DispCols<'_, R> {
        DispCols(&self.disp)
    }

    fn chains(&self) -> ChainGrid<'_> {
        ChainGrid {
            box_start: &self.box_start,
            box_length: &self.box_length,
            successors: &self.successors,
        }
    }

    fn cells(&self) -> CsrCells<'_> {
        CsrCells {
            cell_ends: &self.csr_cursor,
            cell_agents: &self.csr_agents,
        }
    }

    /// Upload rows `[from, n)` of the narrowed columns and rebase the
    /// mirror on them: `from = 0` is the full resync, `from = old n` the
    /// appended births.
    fn upload_rows(&mut self, from: usize, uids: &[u64], cost: &mut PhaseCost) {
        for ((buf, host), mirror) in self.cols.iter().zip(&self.host).zip(&mut self.mirror) {
            buf.upload_at(from, &host[from..]);
            mirror.truncate(from);
            mirror.extend_from_slice(&host[from..]);
        }
        self.uids.truncate(from);
        self.uids.extend_from_slice(&uids[from..]);
        cost.add_h2d::<R>(5, uids.len() - from);
        self.resident_valid = true;
        self.grid_valid = false;
    }

    /// Element-level host edits (growth, chemotaxis nudges): patch the
    /// device words that differ from the mirror. Each costs an index + a
    /// value on the wire; a quiet column costs nothing.
    fn patch_edits(&mut self, cost: &mut PhaseCost) {
        for ((buf, host), mirror) in self.cols.iter().zip(&self.host).zip(&mut self.mirror) {
            let mut patched = 0u64;
            for (i, (h, m)) in host.iter().zip(mirror).enumerate() {
                if h != m {
                    buf.write(i, *h);
                    *m = *h;
                    patched += 1;
                }
            }
            cost.h2d_bytes += patched * (4 + <R as DeviceWord>::BYTES as u64);
            cost.h2d_transfers += (patched > 0) as u32;
        }
    }
}

/// Download the live prefix of three device columns into the staging
/// columns, charged to `cost`.
fn download<R: Scalar + DeviceWord>(
    from: &[DeviceBuffer<R>],
    into: &mut [Vec<R>; 3],
    n: usize,
    cost: &mut PhaseCost,
) {
    for (buf, col) in from.iter().zip(into) {
        col.clear();
        col.resize(n, R::ZERO);
        buf.download_at(0, col);
    }
    cost.add_d2h::<R>(3, n);
}

/// The staged x / y / z columns as the caller's FP64 vectors.
fn widen<R: Scalar>([xs, ys, zs]: &[Vec<R>; 3]) -> Vec<Vec3<f64>> {
    (0..xs.len())
        .map(|i| Vec3::new(xs[i].to_f64(), ys[i].to_f64(), zs[i].to_f64()))
        .collect()
}

/// What every step derives from its scene before touching the device.
struct Frame<R> {
    n: usize,
    geom: GridGeometry<R>,
    params: MechParams<R>,
}

/// The step prologue both entry points share: validate the scene, derive
/// the grid geometry, size the buffers, narrow the columns to `R`.
fn begin_step<R: Scalar + DeviceWord>(
    st: &mut DeviceState<R>,
    scene: &SceneRef<'_>,
    params: &MechParams<f64>,
) -> Frame<R> {
    let n = scene.xs.len();
    assert!(n > 0, "empty scene");
    for (name, col) in scene.columns() {
        // A short column would leave last step's values in the device
        // rows it does not cover; a long one would be cut silently.
        assert_eq!(col.len(), n, "{name} column length mismatch");
    }
    let space = Aabb::new(scene.space.min.cast::<R>(), scene.space.max.cast::<R>());
    // Matches the host grids voxel for voxel: it is their type.
    let geom = GridGeometry::new(space, R::from_f64(scene.box_len));
    st.ensure_agents(n);
    st.ensure_boxes(geom.num_boxes());
    for ((_, src), dst) in scene.columns().into_iter().zip(&mut st.host) {
        dst.clear();
        dst.extend(src.iter().map(|&v| R::from_f64(v)));
    }
    Frame {
        n,
        geom,
        params: params.cast(),
    }
}

/// The full offload pipeline.
pub struct MechanicalPipeline {
    system: SystemSpec,
    runtime: Runtime,
    version: KernelVersion,
    pcie: PcieModel,
    /// Persistent device + host state, at the scalar width the version
    /// computes in.
    state: State,
    /// Candidate threshold for the dynamic-parallelism parent kernel.
    pub dynpar_threshold: u32,
    /// Space-filling curve used by the sorting versions (II, III,
    /// dynpar). Z-order is the paper's choice; Hilbert is the ablation.
    pub sort_curve: bdm_morton::Curve,
    /// Debug/ablation knob: make the resident path rebuild the grid
    /// every step even when no agent crossed a voxel boundary. The
    /// incremental skip must be bitwise-invisible, so flipping this
    /// never changes results (pinned by test).
    pub force_full_rebuild: bool,
}

enum State {
    F32(DeviceState<f32>),
    F64(DeviceState<f64>),
}

/// What a step reads of the pipeline while it holds the device state
/// mutably.
struct StepEnv<'a> {
    runtime: &'a Runtime,
    system: &'a SystemSpec,
    pcie: &'a PcieModel,
    version: KernelVersion,
    dynpar_threshold: u32,
    sort_curve: bdm_morton::Curve,
    force_full_rebuild: bool,
}

impl MechanicalPipeline {
    /// Build a pipeline for a system/frontend/version combination.
    /// `trace_sample` = trace every n-th warp (1 = all; larger values
    /// bound simulation cost on big scenes).
    pub fn new(
        system: SystemSpec,
        frontend: ApiFrontend,
        version: KernelVersion,
        trace_sample: u64,
    ) -> Self {
        Self {
            system,
            runtime: Runtime::new(frontend, system.gpu, trace_sample),
            version,
            pcie: PcieModel::new(system.pcie_bandwidth, system.pcie_latency_s),
            state: if version.fp32() {
                State::F32(DeviceState::new())
            } else {
                State::F64(DeviceState::new())
            },
            dynpar_threshold: 96,
            sort_curve: bdm_morton::Curve::ZOrder,
            force_full_rebuild: false,
        }
    }

    /// The configured kernel version.
    pub fn version(&self) -> KernelVersion {
        self.version
    }

    /// The system being simulated.
    pub fn system(&self) -> &SystemSpec {
        &self.system
    }

    /// Drop device residency: the next [`Self::step_resident`] performs
    /// a full re-upload. Callers that permute, add or remove rows need
    /// not call this — the UID column says so ([`SyncPlan`]). It is for
    /// whoever rewrites host columns wholesale *under unchanged UIDs*
    /// and does not want the element-wise patch path, and for tests
    /// that force the cold path.
    pub fn invalidate_residency(&mut self) {
        match &mut self.state {
            State::F32(s) => s.invalidate(),
            State::F64(s) => s.invalidate(),
        }
    }

    /// Whether valid device-resident agent state exists right now: the
    /// next [`Self::step_resident`] may take the diff fast path instead
    /// of a full upload. `false` after construction, after
    /// [`Self::invalidate_residency`], and until the first resident step.
    pub fn is_resident(&self) -> bool {
        match &self.state {
            State::F32(s) => s.resident_valid,
            State::F64(s) => s.resident_valid,
        }
    }

    /// Total device bytes ever allocated (monotone; constant across
    /// steady-state steps — pinned by test).
    pub fn device_allocated_bytes(&self) -> u64 {
        match &self.state {
            State::F32(s) => s.alloc.allocated_bytes(),
            State::F64(s) => s.alloc.allocated_bytes(),
        }
    }

    /// Execute one mechanical-interaction step. Returns per-agent
    /// displacements (in the caller's original agent order) and a report.
    ///
    /// Device buffers are reused across calls, but the device state is
    /// treated as scratch: everything is re-uploaded. For cross-step
    /// residency use [`Self::step_resident`].
    pub fn step(
        &mut self,
        scene: &SceneRef<'_>,
        params: &MechParams<f64>,
    ) -> (Vec<Vec3<f64>>, GpuStepReport) {
        // Invalidate the L2 between steps: each step re-uploads fresh
        // state, so cross-step line reuse would be an artifact.
        self.runtime.device().reset_l2();
        self.run(scene, None, params)
    }

    /// Execute one step with device-resident agent state. `uids`
    /// identifies each column row (same order as the scene columns); the
    /// pipeline diffs against its device mirror and ships only changes:
    /// appended births, swap-removed deaths (compacted on the device),
    /// element-level host edits. Displacements are integrated on the
    /// device and the *new positions* (in the caller's order, which the
    /// device preserves) are returned. Steady state moves zero bytes
    /// host→device and skips the grid build when no agent crossed a
    /// voxel boundary.
    pub fn step_resident(
        &mut self,
        scene: &SceneRef<'_>,
        uids: &[u64],
        params: &MechParams<f64>,
    ) -> (Vec<Vec3<f64>>, GpuStepReport) {
        // No reset_l2: cross-step cache reuse is real for resident state.
        self.run(scene, Some(uids), params)
    }

    /// Both entry points: `uids` present = resident.
    fn run(
        &mut self,
        scene: &SceneRef<'_>,
        uids: Option<&[u64]>,
        params: &MechParams<f64>,
    ) -> (Vec<Vec3<f64>>, GpuStepReport) {
        let env = StepEnv {
            runtime: &self.runtime,
            system: &self.system,
            pcie: &self.pcie,
            version: self.version,
            dynpar_threshold: self.dynpar_threshold,
            sort_curve: self.sort_curve,
            force_full_rebuild: self.force_full_rebuild,
        };
        match (&mut self.state, uids) {
            (State::F32(st), None) => env.rebuilt(st, scene, params),
            (State::F64(st), None) => env.rebuilt(st, scene, params),
            (State::F32(st), Some(uids)) => env.resident(st, scene, uids, params),
            (State::F64(st), Some(uids)) => env.resident(st, scene, uids, params),
        }
    }
}

impl StepEnv<'_> {
    /// The rebuilt step: sort, upload, build, compute, download
    /// displacements.
    fn rebuilt<R: Scalar + DeviceWord + FromWord>(
        &self,
        st: &mut DeviceState<R>,
        scene: &SceneRef<'_>,
        params: &MechParams<f64>,
    ) -> (Vec<Vec3<f64>>, GpuStepReport) {
        let f = begin_step(st, scene, params);
        // The device columns are overwritten below; whatever mirror a
        // previous resident run kept is stale now.
        st.invalidate();

        // Improvement II: host-side space-filling-curve sort of the SoA
        // columns (Z-order by default; see `sort_curve`). Keys are
        // voxel keys clamped to the grid dims — the same keys the
        // resident `reorder` operation sorts by — so when the caller's
        // columns already arrive in curve order the keys come out
        // non-decreasing and the whole permutation (5 upload gathers +
        // 3 inverse gathers after download) is skipped: the upload is a
        // straight memcpy of the host columns.
        let mut sort_gathers = 0u32;
        let mut perm = None;
        if self.version.sorts() {
            let [xs, ys, zs, ..] = &st.host;
            let (space, edge) = (f.geom.space(), f.geom.box_length());
            let keys = bdm_morton::cell_keys(xs, ys, zs, space, edge, self.sort_curve);
            if !keys.is_sorted() {
                let p = bdm_soa::Permutation::sorting_by_key(&keys);
                for col in &mut st.host {
                    p.apply_in_place(col, &mut st.perm_scratch);
                    sort_gathers += 1;
                }
                perm = Some(p);
            }
        }

        // Upload the live prefix of the persistent columns.
        let mut sync = PhaseCost::default();
        for (buf, host) in st.cols.iter().zip(&st.host) {
            buf.upload_at(0, host);
        }
        sync.add_h2d::<R>(5, f.n);

        let grid = self.build_grid(st, &f);
        let mut mech = self.run_mech(st, &f, true);

        // Download and (if sorted) restore the caller's agent order.
        download(&st.disp, &mut st.down, f.n, &mut mech);
        if let Some(p) = &perm {
            let inv = p.inverse();
            for col in &mut st.down {
                inv.apply_in_place(col, &mut st.perm_scratch);
                sort_gathers += 1;
            }
        }
        let report = self.report(None, true, sort_gathers, sync, &grid, &mech);
        (widen(&st.down), report)
    }

    /// The resident step: sync the difference, build the grid only if a
    /// voxel key moved, compute, integrate on-device, download positions.
    fn resident<R: Scalar + DeviceWord + FromWord>(
        &self,
        st: &mut DeviceState<R>,
        scene: &SceneRef<'_>,
        uids: &[u64],
        params: &MechParams<f64>,
    ) -> (Vec<Vec3<f64>>, GpuStepReport) {
        assert_eq!(uids.len(), scene.xs.len(), "uid column length mismatch");
        let f = begin_step(st, scene, params);

        // --- Sync host → device (only the difference crosses the bus).
        let mut sync = PhaseCost::default();
        let prev = st.resident_valid.then_some(st.uids.as_slice());
        let plan = classify(prev, uids, &mut st.uid_slot, &mut st.moves_host);
        match plan {
            SyncPlan::Cold | SyncPlan::Permuted | SyncPlan::Churn => {
                st.upload_rows(0, uids, &mut sync)
            }
            SyncPlan::Unchanged => st.patch_edits(&mut sync),
            SyncPlan::Appended => {
                st.upload_rows(st.uids.len(), uids, &mut sync);
                st.patch_edits(&mut sync);
            }
            SyncPlan::Compacted => {
                self.compact(st, f.n, &mut sync);
                st.patch_edits(&mut sync);
            }
        }

        // --- Incremental grid maintenance: recompute the clamped voxel
        // key of every (mirrored) agent; identical keys ⇒ the grid the
        // device already holds is still exact ⇒ skip the build (and,
        // for version IV, the counting sort + scan round trip).
        let [mx, my, mz, ..] = &st.mirror;
        st.keys_cur.clear();
        st.keys_cur
            .extend((0..f.n).map(|i| f.geom.box_index(Vec3::new(mx[i], my[i], mz[i])) as u32));
        let rebuild = !(st.grid_valid
            && !self.force_full_rebuild
            && st.prev_geom == Some(f.geom)
            && st.keys_cur == st.prev_keys);
        let mut grid = PhaseCost::default();
        if rebuild {
            grid = self.build_grid(st, &f);
            std::mem::swap(&mut st.prev_keys, &mut st.keys_cur);
            st.prev_geom = Some(f.geom);
            st.grid_valid = true;
        }

        let mut mech = self.run_mech(st, &f, rebuild);

        // --- Fold displacements into positions on the device.
        let integrate = IntegrateKernel {
            n: f.n,
            agents: st.agents(),
            disp: st.out(),
        };
        mech.launch(self.runtime, &integrate, f.n);

        // --- Inspect: only the three position columns come back.
        download(&st.cols[..3], &mut st.down, f.n, &mut mech);
        for (mirror, down) in st.mirror.iter_mut().zip(&st.down) {
            mirror.clone_from(down);
        }
        let report = self.report(Some(plan), rebuild, 0, sync, &grid, &mech);
        (widen(&st.down), report)
    }

    /// The step epilogue both entry points share: one fold of the
    /// step's phases into the report. `sync` (row uploads, compaction)
    /// counts as build time; `plan` is `None` for a rebuilt step.
    fn report(
        &self,
        plan: Option<SyncPlan>,
        grid_built: bool,
        sort_gathers: u32,
        sync: PhaseCost,
        grid: &PhaseCost,
        mech: &PhaseCost,
    ) -> GpuStepReport {
        let mut build = sync;
        build.merge(grid);
        let mut step = build.clone();
        step.merge(mech);
        let h2d_s = self.pcie.transfers_time(step.h2d_transfers, step.h2d_bytes);
        let d2h_s = self.pcie.transfers_time(step.d2h_transfers, step.d2h_bytes);
        GpuStepReport {
            h2d_s,
            d2h_s,
            build_s: build.secs,
            mech_s: mech.secs,
            total_s: h2d_s + build.secs + mech.secs + d2h_s,
            counters: step.counters,
            mech_counters: mech.counters.clone(),
            sort_gathers,
            bytes_h2d: step.h2d_bytes,
            bytes_d2h: step.d2h_bytes,
            midstep_syncs: step.midstep_syncs,
            resident: plan.is_some(),
            sync: plan.unwrap_or(SyncPlan::Cold),
            grid_built,
            host: step.host,
            accesses: step.accesses,
            launches: step.launches,
        }
    }

    /// Deaths: upload the move list [`classify`] left in `moves_host`,
    /// compact the device columns with it, replay it on the mirror.
    fn compact<R: Scalar + DeviceWord>(
        &self,
        st: &mut DeviceState<R>,
        n: usize,
        cost: &mut PhaseCost,
    ) {
        let n_moves = st.moves_host.len() / 2;
        if n_moves > 0 {
            st.moves.upload_at(0, &st.moves_host);
            cost.add_h2d::<u32>(1, st.moves_host.len());
            let compact = CompactKernel {
                n_moves,
                moves: &st.moves,
                agents: st.agents(),
            };
            cost.launch(self.runtime, &compact, n_moves);
            for pair in st.moves_host.chunks_exact(2) {
                let (dst, src) = (pair[0] as usize, pair[1] as usize);
                for mirror in &mut st.mirror {
                    mirror[dst] = mirror[src];
                }
                st.uids[dst] = st.uids[src];
            }
        }
        for mirror in &mut st.mirror {
            mirror.truncate(n);
        }
        st.uids.truncate(n);
        st.grid_valid = false;
    }

    /// Device grid build: atomic list insertion for the paper versions;
    /// for version IV, the two-pass counting sort with a host-side
    /// prefix sum in between. The scan is a grid-wide dependency, so it
    /// reads the counts back and re-uploads the offsets — a PCIe round
    /// trip (and a mid-step sync) charged the same way version III's
    /// occupancy readback is.
    fn build_grid<R: Scalar + DeviceWord>(
        &self,
        st: &mut DeviceState<R>,
        &Frame { n, geom, .. }: &Frame<R>,
    ) -> PhaseCost {
        let mut cost = PhaseCost::default();
        if self.version != KernelVersion::V4Csr {
            st.chains().reset();
            let build = GridBuildKernel {
                n,
                geom,
                agents: st.agents(),
                grid: st.chains(),
            };
            cost.launch(self.runtime, &build, n);
            return cost;
        }
        let num_boxes = geom.num_boxes();
        st.counts.fill_at(0, num_boxes, 0);
        let count = CsrCountKernel {
            n,
            geom,
            agents: st.agents(),
            counts: &st.counts,
        };
        cost.launch(self.runtime, &count, n);

        read_back(&st.counts, num_boxes, &mut st.host_counts, &mut cost);
        exclusive_scan_into(&st.host_counts, &mut st.starts);
        st.csr_cursor.upload_at(0, &st.starts[..num_boxes]);
        cost.add_h2d::<u32>(1, num_boxes);

        let scatter = CsrScatterKernel {
            n,
            geom,
            agents: st.agents(),
            cells: st.cells(),
        };
        cost.launch(self.runtime, &scatter, n);
        cost
    }

    /// The mechanical kernel(s) of one step. `refresh_occupancy` tells
    /// version III whether the grid changed since its cached non-empty
    /// voxel list (the occupancy readback is skipped when the resident
    /// path skipped the build).
    fn run_mech<R: Scalar + DeviceWord + FromWord>(
        &self,
        st: &mut DeviceState<R>,
        &Frame { n, geom, params }: &Frame<R>,
        refresh_occupancy: bool,
    ) -> PhaseCost {
        let mut cost = PhaseCost::default();
        match self.version {
            KernelVersion::V0 | KernelVersion::V1Fp32 | KernelVersion::V2Sorted => {
                let force = ForceKernel {
                    n,
                    geom,
                    agents: st.agents(),
                    source: st.chains(),
                    out: st.out(),
                    params,
                };
                cost.launch(self.runtime, &force, n);
            }
            KernelVersion::V4Csr => {
                let force = ForceKernel {
                    n,
                    geom,
                    agents: st.agents(),
                    source: st.cells(),
                    out: st.out(),
                    params,
                };
                cost.launch(self.runtime, &force, n);
            }
            KernelVersion::V3Shared => {
                if refresh_occupancy {
                    // Host needs the voxel occupancy to enumerate non-empty
                    // voxels and size the blocks — a D2H readback the fused
                    // version avoids; charge it (and the stall).
                    let num_boxes = geom.num_boxes();
                    read_back(&st.box_length, num_boxes, &mut st.host_counts, &mut cost);
                    st.v3_non_empty.clear();
                    st.v3_non_empty
                        .extend((0..num_boxes as u32).filter(|&b| st.host_counts[b as usize] > 0));
                    let max_len = st.host_counts.iter().copied().max().unwrap_or(0);
                    st.v3_block_dim = (max_len.max(28)).div_ceil(32) * 32;
                    st.voxel_ids.upload_at(0, &st.v3_non_empty);
                    cost.add_h2d::<u32>(1, st.v3_non_empty.len());
                }
                // The tile is allocated statically for the worst case —
                // the paper's kernel cannot know per-voxel occupancy at
                // compile time. The near-full shared-memory footprint
                // limits residency to ~1 block/SM, which (together with
                // the cursor atomics and boundary-check divergence) is
                // why version III loses to version II.
                let tile_cap = tile_cap_for(self.system.gpu.shared_mem_per_sm as usize);
                let k = SharedMechKernel {
                    geom,
                    voxel_ids: &st.voxel_ids,
                    agents: st.agents(),
                    chains: st.chains(),
                    out: st.out(),
                    tile_cap,
                    params,
                };
                let items = st.v3_non_empty.len() * st.v3_block_dim as usize;
                let shared_bytes = shared_words_for(tile_cap) * 8;
                cost.add_launch(
                    &self
                        .runtime
                        .dispatch(&k, items, st.v3_block_dim, shared_bytes),
                );
            }
            KernelVersion::DynPar => {
                // The queue cursor persists across steps now — zero it.
                st.queue_count.fill_at(0, 1, 0);
                let parent = ParentKernel {
                    n,
                    geom,
                    agents: st.agents(),
                    chains: st.chains(),
                    out: st.out(),
                    queue: &st.queue,
                    queue_count: &st.queue_count,
                    threshold: self.dynpar_threshold,
                    params,
                };
                cost.launch(self.runtime, &parent, n);

                let queue_len = st.queue_count.read(0) as usize;
                cost.midstep_syncs += 1;
                if queue_len > 0 {
                    st.ensure_partials(queue_len * 27 * 3);
                    // The child kernel only stores nonzero partials, so a
                    // persistent scratch must be re-zeroed each launch.
                    st.partials.fill_at(0, queue_len * 27 * 3, R::ZERO);
                    let child = ChildKernel {
                        queue_len,
                        geom,
                        agents: st.agents(),
                        chains: st.chains(),
                        queue: &st.queue,
                        partials: &st.partials,
                        params,
                    };
                    cost.launch(self.runtime, &child, queue_len * 27);
                    let finish = FinishKernel {
                        queue_len,
                        queue: &st.queue,
                        partials: &st.partials,
                        agents: st.agents(),
                        out: st.out(),
                        params,
                    };
                    cost.launch(self.runtime, &finish, queue_len);
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_device::specs::SYSTEM_A;
    use bdm_math::SplitMix64;

    type SceneCols = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

    fn scene(n: usize, extent: f64, seed: u64) -> SceneCols {
        let mut rng = SplitMix64::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        (xs, ys, zs, vec![1.0; n], vec![0.01; n])
    }

    fn split(positions: &[Vec3<f64>]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            positions.iter().map(|p| p.x).collect(),
            positions.iter().map(|p| p.y).collect(),
            positions.iter().map(|p| p.z).collect(),
        )
    }

    fn run_version(v: KernelVersion, frontend: ApiFrontend) -> (Vec<Vec3<f64>>, GpuStepReport) {
        let n = 400;
        let extent = 8.0;
        let (xs, ys, zs, dm, ad) = scene(n, extent, 7);
        let sr = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &dm,
            adherences: &ad,
            space: Aabb::new(Vec3::zero(), Vec3::splat(extent)),
            box_len: 1.0,
        };
        let mut p = MechanicalPipeline::new(SYSTEM_A, frontend, v, 1);
        p.step(&sr, &MechParams::default_params())
    }

    #[test]
    fn all_versions_agree_functionally() {
        let (base, _) = run_version(KernelVersion::V0, ApiFrontend::Cuda);
        assert!(base.iter().any(|d| *d != Vec3::zero()), "static scene?");
        for v in [
            KernelVersion::V1Fp32,
            KernelVersion::V2Sorted,
            KernelVersion::V3Shared,
            KernelVersion::DynPar,
            KernelVersion::V4Csr,
        ] {
            let (got, _) = run_version(v, ApiFrontend::Cuda);
            let mut max_err = 0.0f64;
            for i in 0..base.len() {
                max_err = max_err.max((base[i] - got[i]).norm());
            }
            // FP32 + reassociation tolerance.
            assert!(max_err < 1e-3, "{:?} deviates: {max_err}", v);
        }
    }

    #[test]
    fn frontends_agree() {
        let (cuda, _) = run_version(KernelVersion::V2Sorted, ApiFrontend::Cuda);
        let (opencl, _) = run_version(KernelVersion::V2Sorted, ApiFrontend::OpenCl);
        for i in 0..cuda.len() {
            assert_eq!(cuda[i], opencl[i]);
        }
    }

    #[test]
    fn fp32_reduces_transfer_bytes() {
        let (_, r64) = run_version(KernelVersion::V0, ApiFrontend::Cuda);
        let (_, r32) = run_version(KernelVersion::V1Fp32, ApiFrontend::Cuda);
        // Wire time scales with element width (same latency terms).
        assert!(r64.h2d_s > r32.h2d_s);
        assert!(r64.d2h_s > r32.d2h_s);
        assert!(r64.bytes_h2d > r32.bytes_h2d);
    }

    #[test]
    fn fp32_is_faster_than_fp64() {
        let (_, r64) = run_version(KernelVersion::V0, ApiFrontend::Cuda);
        let (_, r32) = run_version(KernelVersion::V1Fp32, ApiFrontend::Cuda);
        assert!(
            r32.mech_s < r64.mech_s,
            "fp32 {} should beat fp64 {}",
            r32.mech_s,
            r64.mech_s
        );
    }

    #[test]
    fn version_helpers() {
        assert!(!KernelVersion::V0.fp32());
        assert!(!KernelVersion::V0.sorts());
        assert!(KernelVersion::V1Fp32.fp32());
        assert!(!KernelVersion::V1Fp32.sorts());
        for v in [
            KernelVersion::V2Sorted,
            KernelVersion::V3Shared,
            KernelVersion::DynPar,
            KernelVersion::V4Csr,
        ] {
            assert!(v.fp32() && v.sorts(), "{v:?}");
        }
        // Labels are unique (the benchmark tables key on them).
        let labels: std::collections::HashSet<&str> =
            KernelVersion::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), KernelVersion::ALL.len());
    }

    #[test]
    fn hilbert_sorting_pipeline_matches_zorder() {
        let n = 300;
        let extent = 8.0;
        let (xs, ys, zs, dm, ad) = scene(n, extent, 13);
        let sr = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &dm,
            adherences: &ad,
            space: Aabb::new(Vec3::zero(), Vec3::splat(extent)),
            box_len: 1.0,
        };
        let params = MechParams::default_params();
        let mut z =
            MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, KernelVersion::V2Sorted, 1);
        let mut h =
            MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, KernelVersion::V2Sorted, 1);
        h.sort_curve = bdm_morton::Curve::Hilbert;
        let (dz, _) = z.step(&sr, &params);
        let (dh, _) = h.step(&sr, &params);
        // The curve changes only iteration order: FP32 reassociation noise.
        let mut max_err = 0.0f64;
        for i in 0..n {
            max_err = max_err.max((dz[i] - dh[i]).norm());
        }
        assert!(max_err < 1e-4, "curves disagree by {max_err}");
    }

    /// Acceptance pin for the host-reorder integration: a scrambled
    /// scene costs a sorting version exactly 8 gather passes (5 column
    /// uploads + 3 inverse downloads); a scene whose columns already
    /// arrive in `sort_curve` order costs 0 — the pipeline detects the
    /// non-decreasing keys and uploads the columns as-is. Non-sorting
    /// versions never gather. And the resident path tops both: a
    /// steady-state resident step performs 0 gathers *and* 0 upload
    /// bytes — the agent columns never cross the bus again.
    #[test]
    fn presorted_input_skips_the_sort_gathers() {
        let n = 500;
        let extent = 8.0;
        let (mut xs, mut ys, mut zs, dm, ad) = scene(n, extent, 21);
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let params = MechParams::default_params();
        let pipe = |v| MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, v, 1);

        let (sx, sy, sz) = (xs.clone(), ys.clone(), zs.clone());
        let scrambled = SceneRef {
            xs: &sx,
            ys: &sy,
            zs: &sz,
            diameters: &dm,
            adherences: &ad,
            space,
            box_len: 1.0,
        };
        let (_, r) = pipe(KernelVersion::V2Sorted).step(&scrambled, &params);
        assert_eq!(
            r.sort_gathers, 8,
            "scrambled input must pay the full permutation"
        );
        let (_, r0) = pipe(KernelVersion::V1Fp32).step(&scrambled, &params);
        assert_eq!(r0.sort_gathers, 0, "non-sorting version never gathers");

        // Pre-sort the host columns along the same curve — what the
        // resident `reorder` operation does between steps.
        let keys = bdm_morton::cell_keys(&xs, &ys, &zs, &space, 1.0, bdm_morton::Curve::ZOrder);
        let p = bdm_soa::Permutation::sorting_by_key(&keys);
        let mut scratch = Vec::new();
        for col in [&mut xs, &mut ys, &mut zs] {
            p.apply_in_place(col, &mut scratch);
        }
        let sorted = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &dm,
            adherences: &ad,
            space,
            box_len: 1.0,
        };
        let (_, rs) = pipe(KernelVersion::V2Sorted).step(&sorted, &params);
        assert_eq!(
            rs.sort_gathers, 0,
            "curve-ordered input must skip the permutation"
        );

        // Resident path: the first step uploads the columns; a
        // steady-state step (host columns == device mirror) uploads
        // nothing at all.
        let uids: Vec<u64> = (0..n as u64).collect();
        let mut rp = pipe(KernelVersion::V2Sorted);
        let (p1, r1) = rp.step_resident(&sorted, &uids, &params);
        assert!(r1.resident);
        assert!(r1.bytes_h2d > 0, "first resident step uploads the columns");
        let (x2, y2, z2) = split(&p1);
        let scene2 = SceneRef {
            xs: &x2,
            ys: &y2,
            zs: &z2,
            diameters: &dm,
            adherences: &ad,
            space,
            box_len: 1.0,
        };
        let (_, r2) = rp.step_resident(&scene2, &uids, &params);
        assert_eq!(r2.sort_gathers, 0, "resident step never gathers");
        assert_eq!(
            r2.bytes_h2d, 0,
            "steady-state resident step must move zero bytes host->device"
        );
    }

    /// Version IV's claim: streaming CSR slices coalesces where the
    /// linked-list successor chases cannot, so the step moves fewer
    /// 128-byte transactions through the L2 and DRAM than version II —
    /// even after paying for the extra build pass and scan round trip.
    #[test]
    fn v4_csr_reduces_memory_transactions_vs_v2() {
        let n = 3000;
        let extent = 10.0;
        let (xs, ys, zs, dm, ad) = scene(n, extent, 42);
        let sr = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &dm,
            adherences: &ad,
            space: Aabb::new(Vec3::zero(), Vec3::splat(extent)),
            box_len: 1.0,
        };
        let params = MechParams::default_params();
        let run = |v: KernelVersion| {
            MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, v, 1)
                .step(&sr, &params)
                .1
        };
        let r2 = run(KernelVersion::V2Sorted);
        let r4 = run(KernelVersion::V4Csr);
        // The force kernel alone: strictly fewer global transactions and
        // fewer DRAM lines.
        assert!(
            r4.mech_counters.global_transactions < r2.mech_counters.global_transactions,
            "CSR mech transactions {} !< linked {}",
            r4.mech_counters.global_transactions,
            r2.mech_counters.global_transactions
        );
        assert!(
            r4.mech_counters.l2_misses <= r2.mech_counters.l2_misses,
            "CSR mech DRAM lines {} !<= linked {}",
            r4.mech_counters.l2_misses,
            r2.mech_counters.l2_misses
        );
        // Whole step (build included): still ahead.
        assert!(
            r4.counters.global_transactions < r2.counters.global_transactions,
            "CSR step transactions {} !< linked {}",
            r4.counters.global_transactions,
            r2.counters.global_transactions
        );
        assert!(
            r4.counters.l2_misses <= r2.counters.l2_misses,
            "CSR step DRAM lines {} !<= linked {}",
            r4.counters.l2_misses,
            r2.counters.l2_misses
        );
        // The CSR scan is the only mid-step stall in the rebuilt path.
        assert_eq!(r4.midstep_syncs, 1);
        assert_eq!(r2.midstep_syncs, 0);
    }

    #[test]
    fn report_totals_are_consistent() {
        let (_, r) = run_version(KernelVersion::V2Sorted, ApiFrontend::Cuda);
        assert!((r.total_s - (r.h2d_s + r.build_s + r.mech_s + r.d2h_s)).abs() < 1e-15);
        assert!(r.mech_counters.total_flops() > 0.0);
        assert!(r.counters.total_flops() >= r.mech_counters.total_flops());
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The dense golden scene: ≈ 10 agents per voxel, so version III
    /// overflows a tile of the cut-down device and DynPar's queue fills.
    const DENSE_N: usize = 640;
    const DENSE_EXTENT: f64 = 4.0;

    fn report_words(r: &GpuStepReport) -> impl Iterator<Item = u64> + '_ {
        let bits = |c: &KernelCounters| fnv(c.field_bits().map(|(_, b)| b));
        [
            bits(&r.counters),
            bits(&r.mech_counters),
            r.build_s.to_bits(),
            r.mech_s.to_bits(),
            r.total_s.to_bits(),
            r.h2d_s.to_bits(),
            r.d2h_s.to_bits(),
            r.bytes_h2d,
            r.bytes_d2h,
            r.midstep_syncs as u64,
        ]
        .into_iter()
    }

    fn vec_words(vs: &[Vec3<f64>]) -> impl Iterator<Item = u64> + '_ {
        vs.iter()
            .flat_map(|d| [d.x.to_bits(), d.y.to_bits(), d.z.to_bits()])
    }

    /// Every simulated statistic of a step, pinned to the values the
    /// `BTreeMap`-of-`Vec`s coalescer produced (hard-coded from a run of
    /// the commit before the engine's trace path moved onto flat arenas):
    /// all six versions, both frontends, full and sampled tracing. The
    /// device is System A cut down to one small SM and a 32 KB L2, so
    /// every launch drains several batches and the L2 evicts — on the
    /// real System A this scene fits the cache and the hit counts would
    /// not notice a reordered transaction stream. Row = counters hash,
    /// mech-counters hash, `build_s` / `mech_s` / `total_s` bits,
    /// displacement hash.
    ///
    /// The sparse scene (≈ 2 agents per voxel) never overflows version
    /// III's tile and never fills DynPar's queue, so the `true` rows run
    /// a dense one on a device with 4 KB of shared memory per SM: the
    /// tile holds 102 entries, face and interior voxels overflow into
    /// the global fallback, and most cells go through the child and
    /// finish kernels (both asserted, so the rows cannot go vacuous).
    /// The resident rows below pin what no `step` row reaches: the sync
    /// paths, the grid skip, on-device compaction and integration. All
    /// hard-coded from a run of the commit before the kernels moved onto
    /// one force walk — except the two counter hashes of the two
    /// `V3Shared` × `trace_sample` 4 rows, re-harvested when
    /// `finalize_scaling` stopped multiplying the exact `shared_accesses`
    /// by the sampling stride (sparse 2,005,497.5 → 502,956, dense
    /// 322,284 → 80,571: the `trace_sample` 1 rows' counts; no other
    /// field of those rows moved).
    #[test]
    fn step_reports_match_the_parent_goldens() {
        const GOLDEN: [(bool, KernelVersion, u64, &str); 24] = [
            (
                false,
                KernelVersion::V0,
                1,
                "7815cd4a8a2aca01 bc2eda9790731f41 3ee10383d050f3f6 \
                 3efd77f34883be34 3f204800e4929a57 e7e75dffc2a3c910",
            ),
            (
                false,
                KernelVersion::V0,
                4,
                "9b77fe90d391cf49 5184900088673d4d 3ee110cc52d29cec \
                 3f0b0ed2e8f7e9c1 3f235d8bbde83790 e7e75dffc2a3c910",
            ),
            (
                false,
                KernelVersion::V1Fp32,
                1,
                "e53efa96a895aa65 fff0db4711781fa5 3ee0ff10ecf7ec05 \
                 3ef99a81b09fa7d2 3f1e8ba78cb5af3f 1bbf81831a510735",
            ),
            (
                false,
                KernelVersion::V1Fp32,
                4,
                "a2f94b602cc323cd 21e233075e6f51e9 3ee0ff8201b9f412 \
                 3ef9da49ca7e2008 3f1e9ba7b5c58e4e 1bbf81831a510735",
            ),
            (
                false,
                KernelVersion::V2Sorted,
                1,
                "b3ccdf12a895aa65 51a6bed311781fa5 3ee16abb67ae06a5 \
                 3eea61482db1cebe 3f1b7ea5759ac276 1bbf81831a510735",
            ),
            (
                false,
                KernelVersion::V2Sorted,
                4,
                "1ebf10102cc323cd c1ac36f75e6f51e9 3ee173755558c50a \
                 3ee9ffa94230db7c 3f1b7388d5dffbda 1bbf81831a510735",
            ),
            (
                false,
                KernelVersion::V3Shared,
                1,
                "36cb2fa7bdb2b3c7 21964c2ade8e2a07 3ee16abb67ae06a5 \
                 3f09ed49e1cc611e 3f2542e61312a02c 1bbf81831a510735",
            ),
            (
                false,
                KernelVersion::V3Shared,
                4,
                "491963a0d2aea1ec 3f2af82f791679d3 3ee173755558c50a \
                 3f09b0f3c6107eaf 3f25345c2afe5376 1bbf81831a510735",
            ),
            (
                false,
                KernelVersion::V4Csr,
                1,
                "5f3cc1807dd04825 14f8f25611781fa5 3ef11966c9037f23 \
                 3eea09206cb7d126 3f2175b6c7cd1ad8 00304e101a510735",
            ),
            (
                false,
                KernelVersion::V4Csr,
                4,
                "1c9cc8f7393408b1 046116ae5e6f51e9 3ef11dc3bfd8de56 \
                 3ee9a469efe8a588 3f216ff6fedad404 00304e101a510735",
            ),
            (
                false,
                KernelVersion::DynPar,
                1,
                "04e1dc3da895aa65 7007a05011781fa5 3ee16abb67ae06a5 \
                 3eeaed876c56caea 3f1b902d5d6f61fc 1bbf81831a510735",
            ),
            (
                false,
                KernelVersion::DynPar,
                4,
                "d20920432cc323cd 5bb20f245e6f51e9 3ee173755558c50a \
                 3eea861237ad48b2 3f1b8455f48f8981 1bbf81831a510735",
            ),
            (
                true,
                KernelVersion::V0,
                1,
                "188c79ef46c4003b f170d28e4e0b7393 3ee0e450c3689de2 \
                 3ef963c7c04ad4a6 3f1e5342302537b0 a2f827216fb6a760",
            ),
            (
                true,
                KernelVersion::V0,
                4,
                "4204f86309edb0e9 28113dddd451fbca 3ee0e4e5b11eaa93 \
                 3ef9af60c56fa43a 3f1e663b0f252d2a a2f827216fb6a760",
            ),
            (
                true,
                KernelVersion::V1Fp32,
                1,
                "6d2f06e609131c95 08d005859ef0f61d 3ee0e450c3689de2 \
                 3ef7224e6cb680a2 3f1d505b8bdf1fc1 1a7a070b4427f925",
            ),
            (
                true,
                KernelVersion::V1Fp32,
                4,
                "df56d6b8d0301667 307f668951236454 3ee0e4e5b11eaa93 \
                 3ef75a0ad5a241a2 3f1d5e5d43d0d198 1a7a070b4427f925",
            ),
            (
                true,
                KernelVersion::V2Sorted,
                1,
                "4cee62c609131c95 73aa7d759ef0f61d 3ee1336f0c1f5c1f \
                 3ee74a07a5289dc9 3f1a7aecae6d6b1a 1a7a070b4427f925",
            ),
            (
                true,
                KernelVersion::V2Sorted,
                4,
                "6d258668d0301667 1fbd85d951236454 3ee13276d54546f8 \
                 3ee76a1619e09ce9 3f1a7ecf76292859 1a7a070b4427f925",
            ),
            (
                true,
                KernelVersion::V3Shared,
                1,
                "b558d8b7c4dcfb5d 863a317646eb69a5 3ee1336f0c1f5c1f \
                 3efe08f56ebf0c06 3f222a79bcd67d8c 1a7a070b4427f925",
            ),
            (
                true,
                KernelVersion::V3Shared,
                4,
                "67a9c98dc0ad1dc4 6c89c15da7bb9d75 3ee13276d54546f8 \
                 3efa163bc10da89e 3f21ac1303b2afcd 1a7a070b4427f925",
            ),
            (
                true,
                KernelVersion::V4Csr,
                1,
                "cd172f9abc2438bd fc07524edef0f61d 3ef0fd6f73b375f6 \
                 3ee72f5e64d72591 3f20e8c7f3008761 a0714c6f8427f925",
            ),
            (
                true,
                KernelVersion::V4Csr,
                4,
                "f38d94633573a0c6 aeffabfc91236454 3ef0fcf358466b62 \
                 3ee74863a1335b4f 3f20ea48c358a96b a0714c6f8427f925",
            ),
            (
                true,
                KernelVersion::DynPar,
                1,
                "8a8ef72b7fa1b7b7 102add5346f42a1f 3ee1336f0c1f5c1f \
                 3f52f7ef86db26e2 3f54710a4277ac58 dc15fec1e427f925",
            ),
            (
                true,
                KernelVersion::DynPar,
                4,
                "3ffbfa72f4b05d73 d6cd5528a4a68628 3ee13276d54546f8 \
                 3f52d7b669bc3f01 3f5450cf34eb104d dc15fec1e427f925",
            ),
        ];
        let mut system = SYSTEM_A;
        system.gpu.sm_count = 1;
        system.gpu.max_threads_per_sm = 512;
        system.gpu.l2_bytes = 32 * 1024;
        let mut dense_system = system;
        dense_system.gpu.shared_mem_per_sm = 4096;
        let sparse = scene(1500, 9.0, 2021);
        let dense = scene(DENSE_N, DENSE_EXTENT, 2021);
        {
            // The dense rows' reason to exist, checked on the host grid.
            let (xs, ys, zs, ..) = &dense;
            let space = Aabb::new(Vec3::zero(), Vec3::splat(DENSE_EXTENT));
            let grid = bdm_grid::UniformGrid::build_serial(xs, ys, zs, space, 1.0);
            let fullest_tile = (0..xs.len())
                .map(|i| {
                    grid.neighbor_boxes(Vec3::new(xs[i], ys[i], zs[i]))
                        .map(|b| grid.boxes()[b].length as usize)
                        .sum::<usize>()
                })
                .max()
                .unwrap();
            let tile_cap = tile_cap_for(dense_system.gpu.shared_mem_per_sm as usize);
            assert!(
                fullest_tile > tile_cap,
                "version III never overflows: {fullest_tile} <= {tile_cap}"
            );
        }
        for (is_dense, v, sample, want) in GOLDEN {
            let (system, (xs, ys, zs, dm, ad), extent) = if is_dense {
                (dense_system, &dense, DENSE_EXTENT)
            } else {
                (system, &sparse, 9.0)
            };
            let sr = SceneRef {
                xs,
                ys,
                zs,
                diameters: dm,
                adherences: ad,
                space: Aabb::new(Vec3::zero(), Vec3::splat(extent)),
                box_len: 1.0,
            };
            for frontend in [ApiFrontend::Cuda, ApiFrontend::OpenCl] {
                let mut p = MechanicalPipeline::new(system, frontend, v, sample);
                let (disp, r) = p.step(&sr, &MechParams::default_params());
                if is_dense && v == KernelVersion::DynPar {
                    let queued = r.mech_counters.child_launches as usize;
                    assert!(
                        0 < queued && queued < xs.len(),
                        "DynPar must run both its inline path and its queue: {queued}"
                    );
                }
                let w: Vec<u64> = report_words(&r).collect();
                let got = format!(
                    "{:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
                    w[0],
                    w[1],
                    w[2],
                    w[3],
                    w[4],
                    fnv(vec_words(&disp)),
                );
                assert_eq!(
                    got,
                    want,
                    "dense {is_dense} {v:?} {} trace_sample {sample}: {:?}",
                    frontend.name(),
                    r.counters
                );
            }
        }

        // Resident rows: one script per version — cold, steady, 12
        // births (past the buffers' capacity: a reallocation, so cold
        // again), 3 swap-remove deaths, cross-voxel edits + growth, a
        // permutation, an order-breaking removal, 5 births that fit and
        // are appended. Per step: hash of the report (counters, mech
        // counters, the five modeled times, bytes each way, mid-step
        // syncs), hash of the positions.
        const RESIDENT: [(KernelVersion, [&str; 8]); 6] = [
            (
                KernelVersion::V0,
                [
                    "7e718fa5b6e160d1 b8cdb91239aa9004",
                    "e958f8088d3392a3 c5a5f58ca3920812",
                    "a41d7aef102a51d4 02716b149cd1d4f5",
                    "035c5ca4821d034c 6818cf0e1d9fe7c4",
                    "12021eb416cecd09 b0d517312ee46303",
                    "8e703bc6b228f02e ab636e99c8ea77d0",
                    "530715ebfc97c221 d017a2d2856731fc",
                    "4cf90ad5999cd485 0b157171cec01571",
                ],
            ),
            (
                KernelVersion::V1Fp32,
                [
                    "5d218661d14479fc b6574b47e4ac2aed",
                    "4ac2a884d7106ba8 c473706b44ac2aed",
                    "6c88366ff258df76 7634a521b776babd",
                    "8af408c911b891f6 94bd496b7624e5ef",
                    "f41fe615d7795fd7 5d18342bf624e5ef",
                    "5abf93eb838a58ab 0cc796dcf624e5ef",
                    "e8dcae5462ee4cbc 1d28808778ade5cd",
                    "b14beaf967e6b5a3 22a4422a6e21423f",
                ],
            ),
            (
                KernelVersion::V2Sorted,
                [
                    "5d218661d14479fc b6574b47e4ac2aed",
                    "4ac2a884d7106ba8 c473706b44ac2aed",
                    "6c88366ff258df76 7634a521b776babd",
                    "8af408c911b891f6 94bd496b7624e5ef",
                    "f41fe615d7795fd7 5d18342bf624e5ef",
                    "5abf93eb838a58ab 0cc796dcf624e5ef",
                    "e8dcae5462ee4cbc 1d28808778ade5cd",
                    "b14beaf967e6b5a3 22a4422a6e21423f",
                ],
            ),
            (
                KernelVersion::V3Shared,
                [
                    "43cdb1c7c4e17244 b6574b47e4ac2aed",
                    "0e727b3cba7bf56b c473706b44ac2aed",
                    "fa2851f7b1f49d2b 7634a521b776babd",
                    "a849a88d53fd884e 94bd496b7624e5ef",
                    "a9b1b537a8a5fb17 5d18342bf624e5ef",
                    "2563cc8e189c4df3 0cc796dcf624e5ef",
                    "57be87dca4c9c370 1d28808778ade5cd",
                    "f46737dcd22b8cf5 22a4422a6e21423f",
                ],
            ),
            (
                KernelVersion::V4Csr,
                [
                    "71635a9720d19657 b6574b47e4ac2aed",
                    "6e92fe80ca425699 c473706b44ac2aed",
                    "50e85550cf51a461 7634a521b776babd",
                    "38922439d9add783 94bd496b7624e5ef",
                    "fc4446d7aae39cf1 5d18342bf624e5ef",
                    "ed63cac16ce7f2fc 0cc796dcf624e5ef",
                    "de15ab8ea614cb76 1d28808778ade5cd",
                    "065f42931c521870 22a4422a6e21423f",
                ],
            ),
            (
                KernelVersion::DynPar,
                [
                    "308cb1867776549f b6574b47e4ac2aed",
                    "b2fd1d755171773e c473706b44ac2aed",
                    "249c5f000c29fca1 7634a521b776babd",
                    "ffd40829022c6a52 94bd496b7624e5ef",
                    "f460dbdb6d5f7a2c 5d18342bf624e5ef",
                    "ad833889bce807ca 0cc796dcf624e5ef",
                    "7910170a6640d99f 1d28808778ade5cd",
                    "c8e322ed59e3ded3 22a4422a6e21423f",
                ],
            ),
        ];
        for (v, want) in RESIDENT {
            for frontend in [ApiFrontend::Cuda, ApiFrontend::OpenCl] {
                let mut p = MechanicalPipeline::new(system, frontend, v, 1);
                let got = resident_script(&mut p);
                for (step, (got, want)) in got.iter().zip(want).enumerate() {
                    assert_eq!(got, want, "{v:?} {} resident step {step}", frontend.name());
                }
            }
        }
    }

    /// The birth / death / edit script of
    /// `resident_trajectory_matches_full_rebuild_bitwise`, two resync
    /// steps and a second birth wave appended, driven through
    /// `step_resident`; one
    /// `"report-hash positions-hash"` string per step.
    fn resident_script(p: &mut MechanicalPipeline) -> Vec<String> {
        let params = MechParams::default_params();
        let extent = 8.0;
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let (mut xs, mut ys, mut zs, mut dm, mut ad) = scene(150, extent, 99);
        let mut uids: Vec<u64> = (0..150).collect();
        let mut out = Vec::new();
        const PLANS: [SyncPlan; 8] = [
            SyncPlan::Cold,
            SyncPlan::Unchanged,
            SyncPlan::Cold,
            SyncPlan::Compacted,
            SyncPlan::Unchanged,
            SyncPlan::Permuted,
            SyncPlan::Churn,
            SyncPlan::Appended,
        ];
        for (step, plan) in PLANS.into_iter().enumerate() {
            let sr = SceneRef {
                xs: &xs,
                ys: &ys,
                zs: &zs,
                diameters: &dm,
                adherences: &ad,
                space,
                box_len: 1.0,
            };
            let (pos, r) = p.step_resident(&sr, &uids, &params);
            assert_eq!(r.sync, plan, "step {step}");
            assert!(r.grid_built, "every step of the script moves a voxel key");
            out.push(format!(
                "{:016x} {:016x}",
                fnv(report_words(&r)),
                fnv(vec_words(&pos))
            ));
            (xs, ys, zs) = split(&pos);
            match step {
                1 => {
                    let mut rng = SplitMix64::new(1234);
                    for k in 0..12 {
                        xs.push(rng.uniform(0.0, extent));
                        ys.push(rng.uniform(0.0, extent));
                        zs.push(rng.uniform(0.0, extent));
                        dm.push(1.0);
                        ad.push(0.01);
                        uids.push(150 + k);
                    }
                }
                2 => {
                    for &i in &[40usize, 17, 3] {
                        xs.swap_remove(i);
                        ys.swap_remove(i);
                        zs.swap_remove(i);
                        dm.swap_remove(i);
                        ad.swap_remove(i);
                        uids.swap_remove(i);
                    }
                }
                3 => {
                    xs[5] += 2.5;
                    ys[9] -= 1.5;
                    for d in dm.iter_mut().take(20) {
                        *d *= 1.05;
                    }
                }
                4 => {
                    // Equal length, different sequence: a host reorder.
                    xs.reverse();
                    ys.reverse();
                    zs.reverse();
                    dm.reverse();
                    ad.reverse();
                    uids.reverse();
                }
                5 => {
                    // An order-preserving removal shifts every later
                    // row: not a swap-remove, so not compactable.
                    xs.remove(7);
                    ys.remove(7);
                    zs.remove(7);
                    dm.remove(7);
                    ad.remove(7);
                    uids.remove(7);
                }
                6 => {
                    let mut rng = SplitMix64::new(4321);
                    for k in 0..5 {
                        xs.push(rng.uniform(0.0, extent));
                        ys.push(rng.uniform(0.0, extent));
                        zs.push(rng.uniform(0.0, extent));
                        dm.push(1.0);
                        ad.push(0.01);
                        uids.push(200 + k);
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// The resident path must be bitwise-invisible: a pipeline that
    /// keeps state on the device (skipping re-uploads, compacting
    /// deaths on-device, skipping grid builds) produces exactly the
    /// positions of a pipeline forced to re-upload and rebuild every
    /// step — across births, deaths, and host-side edits mid-sequence.
    #[test]
    fn resident_trajectory_matches_full_rebuild_bitwise() {
        for v in KernelVersion::ALL {
            let params = MechParams::default_params();
            let extent = 8.0;
            let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
            let (mut xs, mut ys, mut zs, mut dm, mut ad) = scene(150, extent, 99);
            let mut uids: Vec<u64> = (0..150).collect();
            let mut next_uid = 150u64;
            let mut a = MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, v, 1);
            let mut b = MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, v, 1);
            b.force_full_rebuild = true;
            for step in 0..6 {
                let sr = SceneRef {
                    xs: &xs,
                    ys: &ys,
                    zs: &zs,
                    diameters: &dm,
                    adherences: &ad,
                    space,
                    box_len: 1.0,
                };
                let (pa, ra) = a.step_resident(&sr, &uids, &params);
                b.invalidate_residency();
                let (pb, _) = b.step_resident(&sr, &uids, &params);
                assert_eq!(pa.len(), pb.len());
                for i in 0..pa.len() {
                    assert_eq!(pa[i], pb[i], "{v:?} step {step} agent {i}");
                }
                if step == 3 && !matches!(v, KernelVersion::V4Csr | KernelVersion::V3Shared) {
                    // The death step uploads exactly the move list
                    // (3 moves x 2 u32), not the agent columns. (IV
                    // re-uploads its scan offsets and III its non-empty
                    // voxel list after the rebuild deaths force.)
                    assert_eq!(
                        ra.bytes_h2d, 24,
                        "{v:?}: death step must upload only the move list"
                    );
                }
                for (i, p) in pa.iter().enumerate() {
                    xs[i] = p.x;
                    ys[i] = p.y;
                    zs[i] = p.z;
                }
                match step {
                    1 => {
                        // Births: appended rows with fresh uids.
                        let mut rng = SplitMix64::new(1234);
                        for _ in 0..12 {
                            xs.push(rng.uniform(0.0, extent));
                            ys.push(rng.uniform(0.0, extent));
                            zs.push(rng.uniform(0.0, extent));
                            dm.push(1.0);
                            ad.push(0.01);
                            uids.push(next_uid);
                            next_uid += 1;
                        }
                    }
                    2 => {
                        // Deaths: swap-remove (what ResourceManager
                        // does), sources all in the truncated tail.
                        for &i in &[40usize, 17, 3] {
                            xs.swap_remove(i);
                            ys.swap_remove(i);
                            zs.swap_remove(i);
                            dm.swap_remove(i);
                            ad.swap_remove(i);
                            uids.swap_remove(i);
                        }
                    }
                    3 => {
                        // Host-side scalar edits: a chemotaxis-style
                        // nudge across voxel boundaries + growth.
                        xs[5] += 2.5;
                        ys[9] -= 1.5;
                        for d in dm.iter_mut().take(20) {
                            *d *= 1.05;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// When no agent crossed a voxel boundary since the last build, the
    /// resident step skips the grid build entirely — for version IV
    /// that includes the counting sort and its scan round trip (the
    /// only mid-step sync of that version). Results stay bitwise
    /// identical to a forced rebuild.
    #[test]
    fn no_crossing_step_skips_the_grid_build() {
        // Agents 4.0 apart with diameter 1.0 never interact: zero
        // forces, zero displacement, keys frozen after step 1.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    xs.push(1.0 + 4.0 * i as f64);
                    ys.push(1.0 + 4.0 * j as f64);
                    zs.push(1.0 + 4.0 * k as f64);
                }
            }
        }
        let n = xs.len();
        let dm = vec![1.0; n];
        let ad = vec![0.01; n];
        let space = Aabb::new(Vec3::zero(), Vec3::splat(16.0));
        let uids: Vec<u64> = (0..n as u64).collect();
        let params = MechParams::default_params();
        let sr = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &dm,
            adherences: &ad,
            space,
            box_len: 2.0,
        };
        for v in KernelVersion::ALL {
            let mut p = MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, v, 1);
            let mut f = MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, v, 1);
            f.force_full_rebuild = true;
            let (p1, r1) = p.step_resident(&sr, &uids, &params);
            let (q1, _) = f.step_resident(&sr, &uids, &params);
            assert!(r1.build_s > 0.0, "{v:?}: first step must build the grid");
            let (x2, y2, z2) = split(&p1);
            let sr2 = SceneRef {
                xs: &x2,
                ys: &y2,
                zs: &z2,
                diameters: &dm,
                adherences: &ad,
                space,
                box_len: 2.0,
            };
            let (p2, r2) = p.step_resident(&sr2, &uids, &params);
            let (q2, rf2) = f.step_resident(&sr2, &uids, &params);
            assert_eq!(
                r2.build_s, 0.0,
                "{v:?}: no-crossing step must skip the build"
            );
            assert!(rf2.build_s > 0.0, "{v:?}: forced rebuild must not skip");
            assert_eq!(r2.bytes_h2d, 0, "{v:?}: frozen scene uploads nothing");
            if v == KernelVersion::V4Csr {
                assert_eq!(
                    r2.midstep_syncs, 0,
                    "skipping the counting sort removes the scan stall"
                );
                assert_eq!(rf2.midstep_syncs, 1);
            }
            // Skip is bitwise-invisible.
            assert_eq!(p1, q1, "{v:?}");
            assert_eq!(p2, q2, "{v:?}");
        }
    }

    /// Satellite pin: steady-state steps allocate no device memory —
    /// buffers are created once and reused, for both entry points.
    #[test]
    fn steady_state_steps_do_not_grow_device_allocations() {
        let n = 200;
        let extent = 8.0;
        let (xs, ys, zs, dm, ad) = scene(n, extent, 5);
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let params = MechParams::default_params();
        let uids: Vec<u64> = (0..n as u64).collect();
        let sr = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &dm,
            adherences: &ad,
            space,
            box_len: 1.0,
        };

        let mut p = MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, KernelVersion::V4Csr, 1);
        let (mut pos, _) = p.step_resident(&sr, &uids, &params);
        let bytes = p.device_allocated_bytes();
        assert!(bytes > 0);
        for _ in 0..4 {
            let (x2, y2, z2) = split(&pos);
            let sr2 = SceneRef {
                xs: &x2,
                ys: &y2,
                zs: &z2,
                diameters: &dm,
                adherences: &ad,
                space,
                box_len: 1.0,
            };
            let (np, r) = p.step_resident(&sr2, &uids, &params);
            assert!(r.resident);
            assert_eq!(
                p.device_allocated_bytes(),
                bytes,
                "resident steady state must not allocate"
            );
            pos = np;
        }

        let mut q =
            MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, KernelVersion::V2Sorted, 1);
        let _ = q.step(&sr, &params);
        let b1 = q.device_allocated_bytes();
        let _ = q.step(&sr, &params);
        assert_eq!(
            q.device_allocated_bytes(),
            b1,
            "rebuilt path must reuse its buffers across steps"
        );
    }

    /// The sync decision, driven without a device: one case per plan.
    #[test]
    fn classify_names_every_way_the_uid_column_can_change() {
        let prev = [10u64, 11, 12, 13, 14, 15];
        let (mut slots, mut moves) = (HashMap::new(), Vec::new());
        let mut plan = |prev: Option<&[u64]>, uids: &[u64]| {
            let plan = classify(prev, uids, &mut slots, &mut moves);
            (plan, moves.clone())
        };
        assert_eq!(plan(None, &prev).0, SyncPlan::Cold);
        assert_eq!(plan(Some(&prev), &prev).0, SyncPlan::Unchanged);
        assert_eq!(
            plan(Some(&prev), &[10, 11, 12, 13, 14, 15, 16, 17]).0,
            SyncPlan::Appended
        );
        // Swap-remove of rows 1 and 3: the tail back-fills them.
        assert_eq!(
            plan(Some(&prev), &[10, 15, 12, 14]),
            (SyncPlan::Compacted, vec![1, 5, 3, 4])
        );
        // A pure tail truncation compacts with no moves at all.
        assert_eq!(plan(Some(&prev), &prev[..4]), (SyncPlan::Compacted, vec![]));
        assert_eq!(
            plan(Some(&prev), &[15, 14, 13, 12, 11, 10]).0,
            SyncPlan::Permuted
        );
        // A removal that shifts rows (source not in the tail), an
        // unknown uid among the survivors, births onto a moved prefix.
        assert_eq!(plan(Some(&prev), &[10, 12, 13, 14, 15]).0, SyncPlan::Churn);
        assert_eq!(plan(Some(&prev), &[10, 99, 12, 13]).0, SyncPlan::Churn);
        assert_eq!(
            plan(Some(&prev), &[11, 10, 12, 13, 14, 15, 16]).0,
            SyncPlan::Churn
        );
        let labels: std::collections::HashSet<&str> = [
            SyncPlan::Cold,
            SyncPlan::Unchanged,
            SyncPlan::Appended,
            SyncPlan::Compacted,
            SyncPlan::Permuted,
            SyncPlan::Churn,
        ]
        .iter()
        .map(SyncPlan::label)
        .collect();
        assert_eq!(labels.len(), 6);
    }

    /// A well-formed step, then one with `edit` applied to the scene —
    /// the malformed-input tests below each break one field.
    fn step_both_ways(edit: impl Fn(&mut SceneRef<'_>), resident: bool) {
        let (xs, ys, zs, dm, ad) = scene(100, 8.0, 3);
        let mut sr = SceneRef {
            xs: &xs,
            ys: &ys,
            zs: &zs,
            diameters: &dm,
            adherences: &ad,
            space: Aabb::new(Vec3::zero(), Vec3::splat(8.0)),
            box_len: 1.0,
        };
        let params = MechParams::default_params();
        let mut p =
            MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, KernelVersion::V2Sorted, 1);
        let uids: Vec<u64> = (0..100).collect();
        // A well-formed step first, so a short column would find device
        // rows to leave stale.
        if resident {
            p.step_resident(&sr, &uids, &params);
        } else {
            p.step(&sr, &params);
        }
        edit(&mut sr);
        if resident {
            p.step_resident(&sr, &uids, &params);
        } else {
            p.step(&sr, &params);
        }
    }

    #[test]
    #[should_panic(expected = "ys column length mismatch")]
    fn step_rejects_a_short_column() {
        step_both_ways(|sr| sr.ys = &sr.ys[..99], false);
    }

    #[test]
    #[should_panic(expected = "adherences column length mismatch")]
    fn step_resident_rejects_a_short_column() {
        step_both_ways(|sr| sr.adherences = &sr.adherences[..40], true);
    }

    #[test]
    #[should_panic(expected = "box length must be positive")]
    fn step_rejects_a_zero_box_len() {
        step_both_ways(|sr| sr.box_len = 0.0, false);
    }

    #[test]
    #[should_panic(expected = "box length must be positive")]
    fn step_resident_rejects_a_nan_box_len() {
        step_both_ways(|sr| sr.box_len = f64::NAN, true);
    }
}
