//! Full-state checkpoint/restore with a bitwise resume-equivalence
//! contract.
//!
//! The repo's signature guarantee is bitwise determinism (serial ==
//! parallel, serial == sharded, reorder-pure), so the natural contract
//! for checkpointing is the strongest one: **checkpoint at step `k`,
//! restore, run to step `n` is bitwise identical to an uninterrupted run
//! to step `n`** — positions, diameters, uids, diffusion fields, and the
//! gate-deterministic metric counters. Two facts make the captured state
//! small enough to enumerate exactly:
//!
//! 1. No persistent RNG state exists: every stochastic decision derives
//!    from `(params.seed, agent uid, global step)` (see
//!    `operation::run_behavior_chunk`), so restoring the agent columns
//!    and `steps_executed` restores the randomness.
//! 2. Everything else a step touches is *derived* state, rebuilt from
//!    the columns on demand: neighborhood grids, f32 mirrors (epoch
//!    refresh), the largest-diameter cache, per-shard CSR grids, the
//!    diffusion scratch buffer, the GPU pipeline (a pure function of the
//!    environment configuration). None of it is serialized.
//!
//! # Format (version 2)
//!
//! Little-endian throughout; all `f64` values are raw IEEE-754 bit
//! patterns (`to_bits`), so round-trips are bitwise by construction.
//! Version 2 appends the `gpu_resident` flag (one byte) to PARAMS;
//! version-1 streams still restore, with the flag defaulting to `false`
//! (the knob did not exist when they were written).
//!
//! ```text
//! header   magic "BDMCKPT\0" (8) · version u32 · section_count u32
//! table    section_count × { tag u32 · byte_len u64 }
//! payload  sections, in table order
//! ```
//!
//! | tag | section   | contents                                          |
//! |-----|-----------|---------------------------------------------------|
//! | 1   | META      | steps_executed, exec mode, environment kind       |
//! | 2   | PARAMS    | the full `SimParams`                              |
//! | 3   | AGENTS    | SoA columns, behavior lists, uid counter, epochs  |
//! | 4   | DIFFUSION | per-substance params + concentration column       |
//! | 5   | SCHEDULER | per-op (name, frequency, enabled, runs)           |
//! | 6   | SHARDS    | span bounds, migration base snapshot, counters    |
//!
//! META/PARAMS/AGENTS/DIFFUSION/SCHEDULER are required; SHARDS is
//! present iff `params.shards.count > 0` (and [`SimParams::validate_for_restore`]
//! rejects any disagreement between the two). Unknown trailing sections
//! are rejected as [`CheckpointError::Corrupt`] — the golden-fixture
//! test guards the format against silent drift.
//!
//! GPU device residency is *derived* state like every other cache:
//! restore builds the pipeline fresh, so a restored simulation's first
//! resident step always performs a full resync — the
//! residency-invalidation-on-restore rule holds by construction.
//!
//! Restore never panics on malformed input: every failure maps to a
//! structured [`CheckpointError`]. Custom user operations (trait
//! objects) cannot be serialized; a restored pipeline carries the
//! default ops (plus reorder/shard-rebalance per params), and SCHEDULER
//! entries whose name matches no restored op are skipped — re-add user
//! operations after restoring, before stepping.

use crate::behavior::Behavior;
use crate::diffusion::{BoundaryCondition, DiffusionGrid, DiffusionParams};
use crate::environment::{EnvironmentKind, GpuSystem, GridLayout};
use crate::param::{Precision, SimParams};
use crate::rm::{BehaviorTable, ResourceManager};
use crate::scheduler::ExecMode;
use crate::simulation::Simulation;
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::KernelVersion;
use bdm_morton::{Curve, ShardMap};
use bdm_soa::SoaVec3;
use std::fmt;
use std::io::{Read, Write};

/// First 8 bytes of every checkpoint stream.
pub const MAGIC: [u8; 8] = *b"BDMCKPT\0";
/// Schema version this build writes. Bumping it without updating the
/// committed golden fixture fails the format tests. Restore also
/// accepts every earlier version down to [`MIN_FORMAT_VERSION`].
pub const FORMAT_VERSION: u32 = 2;
/// Oldest schema version restore still reads (version 1 lacked the
/// `gpu_resident` byte in PARAMS; it decodes with the flag off).
pub const MIN_FORMAT_VERSION: u32 = 1;

const TAG_META: u32 = 1;
const TAG_PARAMS: u32 = 2;
const TAG_AGENTS: u32 = 3;
const TAG_DIFFUSION: u32 = 4;
const TAG_SCHEDULER: u32 = 5;
const TAG_SHARDS: u32 = 6;

/// Structured, non-panicking restore failures.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying reader/writer error.
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's schema version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the stream.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The stream ended inside the header, the section table, or a
    /// section's own encoding.
    Truncated,
    /// A section-table entry claims more payload bytes than the stream
    /// carries.
    SectionOverflow {
        /// Section tag of the offending entry.
        tag: u32,
        /// Claimed byte length.
        len: u64,
        /// Bytes actually remaining in the stream.
        remaining: u64,
    },
    /// Structurally invalid content: bad enum discriminant, mismatched
    /// counts, duplicate/missing sections, invalid uid bookkeeping, …
    Corrupt(String),
    /// The checkpointed `SimParams` fail validation, or disagree with
    /// the state sections (see [`SimParams::validate_for_restore`]).
    InvalidParams(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint stream (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {supported})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint stream is truncated"),
            CheckpointError::SectionOverflow {
                tag,
                len,
                remaining,
            } => write!(
                f,
                "section {tag} claims {len} bytes but only {remaining} remain"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::InvalidParams(msg) => {
                write!(f, "checkpoint params rejected: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------

/// Append-only little-endian encoder.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.f64(v);
        }
    }
    fn u64s(&mut self, vs: &[u64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.u64(v);
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over one section's bytes.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` count immediately used to size an in-memory collection:
    /// bounded by the bytes actually present so a corrupt count can't
    /// drive a huge allocation before the decode fails.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        let need = n
            .checked_mul(elem_bytes.max(1) as u64)
            .ok_or_else(|| corrupt(format!("count {n} overflows")))?;
        if need > remaining {
            return Err(CheckpointError::Truncated);
        }
        Ok(n as usize)
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
            .collect())
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, CheckpointError> {
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(format!(
                "{} trailing bytes in section",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Intern a deserialized substance name as `&'static str`
/// (`DiffusionParams::name` is static). The per-distinct-name leak is
/// bounded: restoring the same checkpoint a thousand times leaks one
/// copy of each name, not a thousand.
fn intern_name(s: String) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut map = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("name intern cache poisoned");
    if let Some(&v) = map.get(&s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.clone().into_boxed_str());
    map.insert(s, leaked);
    leaked
}

// ---------------------------------------------------------------------
// Section encoders
// ---------------------------------------------------------------------

fn encode_meta(sim: &Simulation) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(sim.steps_executed());
    e.u8(match sim.scheduler().mode() {
        ExecMode::Serial => 0,
        ExecMode::Parallel => 1,
    });
    match *sim.environment() {
        EnvironmentKind::KdTree => e.u8(0),
        EnvironmentKind::UniformGrid { layout, parallel } => {
            e.u8(1);
            e.u8(match layout {
                GridLayout::LinkedList => 0,
                GridLayout::Csr => 1,
            });
            e.u8(parallel as u8);
        }
        EnvironmentKind::Gpu {
            system,
            frontend,
            version,
            trace_sample,
        } => {
            e.u8(2);
            e.u8(match system {
                GpuSystem::A => 0,
                GpuSystem::B => 1,
            });
            e.u8(match frontend {
                ApiFrontend::Cuda => 0,
                ApiFrontend::OpenCl => 1,
            });
            e.u8(match version {
                KernelVersion::V0 => 0,
                KernelVersion::V1Fp32 => 1,
                KernelVersion::V2Sorted => 2,
                KernelVersion::V3Shared => 3,
                KernelVersion::DynPar => 4,
                KernelVersion::V4Csr => 5,
            });
            e.u64(trace_sample);
        }
    }
    e.buf
}

fn encode_params(p: &SimParams) -> Vec<u8> {
    let mut e = Enc::default();
    e.f64(p.space.min.x);
    e.f64(p.space.min.y);
    e.f64(p.space.min.z);
    e.f64(p.space.max.x);
    e.f64(p.space.max.y);
    e.f64(p.space.max.z);
    e.f64(p.mech.repulsion);
    e.f64(p.mech.attraction);
    e.f64(p.mech.timestep);
    e.f64(p.mech.max_displacement);
    e.u64(p.seed);
    match p.interaction_radius {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            e.f64(r);
        }
    }
    e.u8(match p.reorder.curve {
        Curve::ZOrder => 0,
        Curve::Hilbert => 1,
    });
    e.u64(p.reorder.every);
    e.u8(match p.precision {
        Precision::F64 => 0,
        Precision::F32Simd => 1,
    });
    e.u64(p.shards.count as u64);
    e.u64(p.shards.rebalance_every);
    e.f64(p.shards.imbalance_threshold);
    e.u8(p.gpu_resident as u8);
    e.buf
}

fn encode_behavior(e: &mut Enc, b: &Behavior) {
    match *b {
        Behavior::GrowthDivision {
            growth_rate,
            division_threshold,
        } => {
            e.u8(0);
            e.f64(growth_rate);
            e.f64(division_threshold);
        }
        Behavior::Chemotaxis { substance, speed } => {
            e.u8(1);
            e.u64(substance as u64);
            e.f64(speed);
        }
        Behavior::Secretion { substance, rate } => {
            e.u8(2);
            e.u64(substance as u64);
            e.f64(rate);
        }
        Behavior::Apoptosis { probability } => {
            e.u8(3);
            e.f64(probability);
        }
    }
}

fn encode_agents(rm: &ResourceManager) -> Vec<u8> {
    let mut e = Enc::default();
    let n = rm.len();
    e.u64(n as u64);
    e.u64(rm.next_uid());
    e.u64(rm.positions_epoch());
    e.u64(rm.attributes_epoch());
    let (x, y, z) = rm.position_columns();
    e.f64s(x);
    e.f64s(y);
    e.f64s(z);
    e.f64s(rm.diameter_column());
    e.f64s(rm.adherence_column());
    e.u64s(rm.uid_column());
    for i in 0..n {
        let behaviors = rm.behaviors(i);
        e.u32(behaviors.len() as u32);
        for b in behaviors {
            encode_behavior(&mut e, b);
        }
    }
    e.buf
}

fn encode_diffusion(grids: &[DiffusionGrid]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(grids.len() as u32);
    for g in grids {
        let p = g.params();
        e.str(p.name);
        e.f64(p.coefficient);
        e.f64(p.decay);
        e.u64(p.resolution as u64);
        e.u8(match p.boundary {
            BoundaryCondition::Closed => 0,
            BoundaryCondition::Dirichlet => 1,
        });
        e.u64(g.concentrations().len() as u64);
        e.f64s(g.concentrations());
    }
    e.buf
}

fn encode_scheduler(sim: &Simulation) -> Vec<u8> {
    let mut e = Enc::default();
    let stats = sim.scheduler().stats();
    e.u32(stats.len() as u32);
    for s in &stats {
        e.str(&s.name);
        e.u64(s.frequency);
        e.u8(s.enabled as u8);
        e.u64(s.runs);
    }
    e.buf
}

fn encode_shards(sh: &crate::shard::ShardedEnvironment) -> Vec<u8> {
    let mut e = Enc::default();
    let bounds = sh.map().bounds();
    e.u64(bounds.len() as u64);
    e.u64s(bounds);
    let prev = sh.assignment_snapshot();
    e.u64(prev.len() as u64);
    for &(uid, shard) in prev {
        e.u64(uid);
        e.u32(shard);
    }
    e.u64(sh.migrations());
    e.u64(sh.rebalances());
    e.buf
}

// ---------------------------------------------------------------------
// Section decoders
// ---------------------------------------------------------------------

struct Meta {
    steps_executed: u64,
    mode: ExecMode,
    env: EnvironmentKind,
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, CheckpointError> {
    let mut d = Dec::new(bytes);
    let steps_executed = d.u64()?;
    let mode = match d.u8()? {
        0 => ExecMode::Serial,
        1 => ExecMode::Parallel,
        m => return Err(corrupt(format!("unknown exec mode {m}"))),
    };
    let env = match d.u8()? {
        0 => EnvironmentKind::KdTree,
        1 => {
            let layout = match d.u8()? {
                0 => GridLayout::LinkedList,
                1 => GridLayout::Csr,
                l => return Err(corrupt(format!("unknown grid layout {l}"))),
            };
            let parallel = match d.u8()? {
                0 => false,
                1 => true,
                p => return Err(corrupt(format!("bad parallel flag {p}"))),
            };
            EnvironmentKind::UniformGrid { layout, parallel }
        }
        2 => {
            let system = match d.u8()? {
                0 => GpuSystem::A,
                1 => GpuSystem::B,
                s => return Err(corrupt(format!("unknown GPU system {s}"))),
            };
            let frontend = match d.u8()? {
                0 => ApiFrontend::Cuda,
                1 => ApiFrontend::OpenCl,
                f => return Err(corrupt(format!("unknown API frontend {f}"))),
            };
            let version = match d.u8()? {
                0 => KernelVersion::V0,
                1 => KernelVersion::V1Fp32,
                2 => KernelVersion::V2Sorted,
                3 => KernelVersion::V3Shared,
                4 => KernelVersion::DynPar,
                5 => KernelVersion::V4Csr,
                v => return Err(corrupt(format!("unknown kernel version {v}"))),
            };
            let trace_sample = d.u64()?;
            EnvironmentKind::Gpu {
                system,
                frontend,
                version,
                trace_sample,
            }
        }
        k => return Err(corrupt(format!("unknown environment kind {k}"))),
    };
    d.finish()?;
    Ok(Meta {
        steps_executed,
        mode,
        env,
    })
}

fn decode_params(bytes: &[u8], version: u32) -> Result<SimParams, CheckpointError> {
    let mut d = Dec::new(bytes);
    let mut p = SimParams::cube(1.0);
    p.space.min.x = d.f64()?;
    p.space.min.y = d.f64()?;
    p.space.min.z = d.f64()?;
    p.space.max.x = d.f64()?;
    p.space.max.y = d.f64()?;
    p.space.max.z = d.f64()?;
    p.mech.repulsion = d.f64()?;
    p.mech.attraction = d.f64()?;
    p.mech.timestep = d.f64()?;
    p.mech.max_displacement = d.f64()?;
    p.seed = d.u64()?;
    p.interaction_radius = match d.u8()? {
        0 => None,
        1 => Some(d.f64()?),
        f => return Err(corrupt(format!("bad interaction_radius flag {f}"))),
    };
    p.reorder.curve = match d.u8()? {
        0 => Curve::ZOrder,
        1 => Curve::Hilbert,
        c => return Err(corrupt(format!("unknown reorder curve {c}"))),
    };
    p.reorder.every = d.u64()?;
    p.precision = match d.u8()? {
        0 => Precision::F64,
        1 => Precision::F32Simd,
        v => return Err(corrupt(format!("unknown precision {v}"))),
    };
    let count = d.u64()?;
    p.shards.count = usize::try_from(count)
        .map_err(|_| corrupt(format!("shard count {count} exceeds usize")))?;
    p.shards.rebalance_every = d.u64()?;
    p.shards.imbalance_threshold = d.f64()?;
    // Version 1 predates the residency knob: leave the default (off).
    p.gpu_resident = if version >= 2 {
        match d.u8()? {
            0 => false,
            1 => true,
            f => return Err(corrupt(format!("bad gpu_resident flag {f}"))),
        }
    } else {
        false
    };
    d.finish()?;
    Ok(p)
}

fn decode_behavior(d: &mut Dec<'_>, n_substances: usize) -> Result<Behavior, CheckpointError> {
    let substance_idx = |d: &mut Dec<'_>| -> Result<usize, CheckpointError> {
        let s = d.u64()?;
        let s = usize::try_from(s).map_err(|_| corrupt("substance index exceeds usize"))?;
        if s >= n_substances {
            return Err(corrupt(format!(
                "behavior references substance {s} but only {n_substances} exist"
            )));
        }
        Ok(s)
    };
    Ok(match d.u8()? {
        0 => Behavior::GrowthDivision {
            growth_rate: d.f64()?,
            division_threshold: d.f64()?,
        },
        1 => Behavior::Chemotaxis {
            substance: substance_idx(d)?,
            speed: d.f64()?,
        },
        2 => Behavior::Secretion {
            substance: substance_idx(d)?,
            rate: d.f64()?,
        },
        3 => Behavior::Apoptosis {
            probability: d.f64()?,
        },
        t => return Err(corrupt(format!("unknown behavior tag {t}"))),
    })
}

fn decode_agents(bytes: &[u8], n_substances: usize) -> Result<ResourceManager, CheckpointError> {
    let mut d = Dec::new(bytes);
    // Each agent needs ≥ 52 bytes (6 f64 + uid + behavior count); the
    // conservative 8-byte bound keeps corrupt counts from allocating.
    let n = d.count(8)?;
    let next_uid = d.u64()?;
    let pos_epoch = d.u64()?;
    let attr_epoch = d.u64()?;
    let x = d.f64s(n)?;
    let y = d.f64s(n)?;
    let z = d.f64s(n)?;
    let diameters = d.f64s(n)?;
    let adherences = d.f64s(n)?;
    let uids = d.u64s(n)?;
    // The wire carries a list per agent; memory keeps each distinct one
    // once. Every list is decoded into the same scratch — which grows
    // only as behaviors actually decode, whatever a corrupt count claims
    // — and interned, in storage order.
    let mut table = BehaviorTable::default();
    let mut behavior_ids = Vec::with_capacity(n);
    let mut list = Vec::new();
    for _ in 0..n {
        list.clear();
        for _ in 0..d.u32()? {
            list.push(decode_behavior(&mut d, n_substances)?);
        }
        behavior_ids.push(table.intern(&list));
    }
    d.finish()?;
    ResourceManager::from_raw_parts(
        SoaVec3::from_columns(x, y, z),
        diameters,
        adherences,
        behavior_ids,
        table,
        uids,
        next_uid,
        pos_epoch,
        attr_epoch,
    )
    .map_err(corrupt)
}

fn decode_diffusion(
    bytes: &[u8],
    space: bdm_math::Aabb<f64>,
) -> Result<Vec<DiffusionGrid>, CheckpointError> {
    let mut d = Dec::new(bytes);
    let count = d.u32()? as usize;
    let mut grids = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name = d.str()?;
        let coefficient = d.f64()?;
        let decay = d.f64()?;
        let resolution = d.u64()?;
        let resolution = usize::try_from(resolution)
            .map_err(|_| corrupt(format!("resolution {resolution} exceeds usize")))?;
        let boundary = match d.u8()? {
            0 => BoundaryCondition::Closed,
            1 => BoundaryCondition::Dirichlet,
            b => return Err(corrupt(format!("unknown boundary condition {b}"))),
        };
        let voxels = d.count(8)?;
        // Cross-check before building the grid: `from_parts` allocates
        // `res³`, so a corrupt resolution must be caught while it is
        // still just an integer (voxels is already bounded by the bytes
        // actually present). `from_parts` then re-runs the full
        // `DiffusionParams::validate` — non-finite coefficients, decays,
        // and sub-2 resolutions are rejected as corrupt, never clamped.
        let cube = resolution
            .checked_mul(resolution)
            .and_then(|r2| r2.checked_mul(resolution))
            .ok_or_else(|| corrupt(format!("resolution {resolution} overflows")))?;
        if cube != voxels {
            return Err(corrupt(format!(
                "substance '{name}' claims {voxels} voxels but resolution {resolution} implies {cube}"
            )));
        }
        let c = d.f64s(voxels)?;
        let params = DiffusionParams {
            name: intern_name(name),
            coefficient,
            decay,
            resolution,
            boundary,
        };
        grids.push(DiffusionGrid::from_parts(params, space, c).map_err(corrupt)?);
    }
    d.finish()?;
    Ok(grids)
}

struct SchedEntry {
    name: String,
    frequency: u64,
    enabled: bool,
    runs: u64,
}

fn decode_scheduler(bytes: &[u8]) -> Result<Vec<SchedEntry>, CheckpointError> {
    let mut d = Dec::new(bytes);
    let count = d.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name = d.str()?;
        let frequency = d.u64()?;
        if frequency == 0 {
            return Err(corrupt(format!("op '{name}' has frequency 0")));
        }
        let enabled = match d.u8()? {
            0 => false,
            1 => true,
            f => return Err(corrupt(format!("bad enabled flag {f}"))),
        };
        let runs = d.u64()?;
        out.push(SchedEntry {
            name,
            frequency,
            enabled,
            runs,
        });
    }
    d.finish()?;
    Ok(out)
}

struct ShardState {
    map: ShardMap,
    prev_assignment: Vec<(u64, u32)>,
    migrations: u64,
    rebalances: u64,
}

fn decode_shards(bytes: &[u8], expected_shards: usize) -> Result<ShardState, CheckpointError> {
    let mut d = Dec::new(bytes);
    let n_bounds = d.count(8)?;
    let bounds = d.u64s(n_bounds)?;
    let map = ShardMap::from_bounds(bounds).map_err(corrupt)?;
    if map.shards() != expected_shards {
        return Err(corrupt(format!(
            "shard map has {} spans but params.shards.count is {expected_shards}",
            map.shards()
        )));
    }
    let n_prev = d.count(12)?;
    let mut prev_assignment = Vec::with_capacity(n_prev);
    for _ in 0..n_prev {
        let uid = d.u64()?;
        let shard = d.u32()?;
        prev_assignment.push((uid, shard));
    }
    let migrations = d.u64()?;
    let rebalances = d.u64()?;
    d.finish()?;
    Ok(ShardState {
        map,
        prev_assignment,
        migrations,
        rebalances,
    })
}

// ---------------------------------------------------------------------
// The public API
// ---------------------------------------------------------------------

impl Simulation {
    /// Serialize the complete trajectory-determining state into `w`
    /// (see the module docs for the format). The scheduler's accumulated
    /// wall times, the profiler history, and all derived caches are
    /// deliberately excluded — everything written is a deterministic
    /// function of the trajectory, so two checkpoints of bitwise-equal
    /// simulations are byte-identical.
    pub fn checkpoint<W: Write>(&self, w: &mut W) -> Result<(), CheckpointError> {
        let mut sections: Vec<(u32, Vec<u8>)> = vec![
            (TAG_META, encode_meta(self)),
            (TAG_PARAMS, encode_params(self.params())),
            (TAG_AGENTS, encode_agents(self.rm())),
            (TAG_DIFFUSION, encode_diffusion(self.diffusion_grids())),
            (TAG_SCHEDULER, encode_scheduler(self)),
        ];
        if let Some(sh) = self.sharding() {
            sections.push((TAG_SHARDS, encode_shards(sh)));
        }
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(sections.len() as u32).to_le_bytes())?;
        for (tag, payload) in &sections {
            w.write_all(&tag.to_le_bytes())?;
            w.write_all(&(payload.len() as u64).to_le_bytes())?;
        }
        for (_, payload) in &sections {
            w.write_all(payload)?;
        }
        Ok(())
    }

    /// Rebuild a simulation from a checkpoint stream. Never panics on
    /// malformed input — every failure is a structured
    /// [`CheckpointError`], and no partially-restored `Simulation`
    /// escapes (all sections parse and validate before construction).
    ///
    /// The resume-equivalence contract: `restore(checkpoint @ k)` then
    /// `simulate(n - k)` is bitwise identical to an uninterrupted
    /// `simulate(n)` — including re-checkpointing (same bytes) and the
    /// gate-deterministic metric counters. Custom user operations are
    /// not restored (trait objects don't serialize); re-add them before
    /// stepping if the original run had any.
    pub fn restore<R: Read>(r: &mut R) -> Result<Simulation, CheckpointError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        let mut head = Dec::new(&buf);
        let magic = head.take(8)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = head.u32()?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let n_sections = head.u32()? as usize;
        let mut table = Vec::with_capacity(n_sections.min(16));
        for _ in 0..n_sections {
            let tag = head.u32()?;
            let len = head.u64()?;
            table.push((tag, len));
        }
        // Slice the payloads off the tail, length-checking each entry
        // against what actually remains.
        let mut offset = head.pos;
        let mut sections: Vec<(u32, &[u8])> = Vec::with_capacity(table.len());
        for &(tag, len) in &table {
            let remaining = (buf.len() - offset) as u64;
            if len > remaining {
                return Err(CheckpointError::SectionOverflow {
                    tag,
                    len,
                    remaining,
                });
            }
            let end = offset + len as usize;
            sections.push((tag, &buf[offset..end]));
            offset = end;
        }
        let find = |tag: u32, name: &str| -> Result<&[u8], CheckpointError> {
            let mut hits = sections.iter().filter(|&&(t, _)| t == tag);
            let first = hits
                .next()
                .ok_or_else(|| corrupt(format!("missing {name} section")))?;
            if hits.next().is_some() {
                return Err(corrupt(format!("duplicate {name} section")));
            }
            Ok(first.1)
        };
        if let Some(&(tag, _)) = sections
            .iter()
            .find(|&&(t, _)| !(TAG_META..=TAG_SHARDS).contains(&t))
        {
            return Err(corrupt(format!("unknown section tag {tag}")));
        }

        let params = decode_params(find(TAG_PARAMS, "PARAMS")?, version)?;
        let shard_bytes = sections
            .iter()
            .find(|&&(t, _)| t == TAG_SHARDS)
            .map(|&(_, b)| b);
        params
            .validate_for_restore(shard_bytes.is_some())
            .map_err(CheckpointError::InvalidParams)?;

        let meta = decode_meta(find(TAG_META, "META")?)?;
        let grids = decode_diffusion(find(TAG_DIFFUSION, "DIFFUSION")?, params.space)?;
        let rm = decode_agents(find(TAG_AGENTS, "AGENTS")?, grids.len())?;
        let sched = decode_scheduler(find(TAG_SCHEDULER, "SCHEDULER")?)?;
        let shard_state = shard_bytes
            .map(|b| decode_shards(b, params.shards.count))
            .transpose()?;

        // Everything parsed and validated; only now build the simulation
        // (params already passed validate(), so new() cannot panic).
        let mut sim = Simulation::new(params);
        sim.set_exec_mode(meta.mode);
        sim.set_environment(meta.env);
        *sim.rm_mut() = rm;
        for g in grids {
            sim.install_diffusion_grid(g);
        }
        for s in &sched {
            // Unknown names are user operations the default pipeline
            // doesn't carry — documented as skipped.
            sim.scheduler_mut()
                .restore_slot(&s.name, s.frequency, s.enabled, s.runs);
        }
        if let (Some(state), Some(sh)) = (shard_state, sim.sharding_mut()) {
            sh.restore_state(
                state.map,
                state.prev_assignment,
                state.migrations,
                state.rebalances,
            );
        }
        sim.set_steps_executed(meta.steps_executed);
        Ok(sim)
    }
}
