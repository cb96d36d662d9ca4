//! The agent-based simulation platform — a from-scratch Rust analogue of
//! the BioDynaMo core the paper builds on (v0.0.9, structs-of-arrays).
//!
//! A [`Simulation`] owns:
//!
//! * a [`ResourceManager`] — SoA storage of all cellular agents (position,
//!   diameter, adherence, tractor force, behaviors);
//! * an [`EnvironmentKind`] — the pluggable neighborhood method: kd-tree
//!   (the baseline the paper replaces), uniform grid (serial or
//!   rayon-parallel, linked-list or CSR storage — see [`GridLayout`]),
//!   or the simulated-GPU offload pipeline in any of the paper's kernel
//!   versions;
//! * zero or more [`DiffusionGrid`]s — extracellular substances evolved by
//!   explicit-Euler reaction–diffusion on the CPU ("operations that are
//!   independent of the agents, such as extracellular substance diffusion,
//!   are integral to biological systems", §II);
//! * a [`Profiler`] that records, per operation per step, both the wall
//!   time on this host and the *work counters* that feed the Table I
//!   machine models (see `bdm-device`).
//!
//! Each [`Simulation::step`] runs the [`Scheduler`]'s operation
//! pipeline — by default behaviors (growth/division/chemotaxis/
//! secretion) → mechanical interactions (environment build + neighbor
//! search + Eq. 1 forces + displacement) → bound space → diffusion —
//! where every stage is a first-class [`Operation`] with per-op
//! frequency and enable/disable, and the agent loops run chunked under
//! rayon with per-chunk execution contexts ([`exec`]) that merge in
//! chunk order: every worker count produces the bitwise-identical
//! trajectory.

pub mod behavior;
pub mod cell;
pub mod checkpoint;
pub mod diffusion;
pub mod environment;
pub mod exec;
pub mod io;
pub mod mech;
pub mod operation;
pub mod param;
pub mod profiler;
pub mod render;
pub mod rm;
pub mod scheduler;
pub mod shard;
pub mod simulation;
pub mod timeseries;
pub mod work_model;
pub mod workload;

pub use behavior::Behavior;
pub use cell::CellBuilder;
pub use checkpoint::CheckpointError;
pub use diffusion::{BoundaryCondition, DiffusionGrid, DiffusionParams, DiffusionStats};
pub use environment::{EnvironmentKind, GridLayout};
pub use exec::ExecutionContext;
pub use io::Snapshot;
pub use operation::{OpContext, Operation, ReorderOp, ShardRebalanceOp};
pub use param::{Precision, ReorderParams, ShardParams, SimParams};
pub use profiler::{OpRecord, Profiler, StepProfile};
pub use rm::ResourceManager;
pub use scheduler::{ExecMode, OpStats, Scheduler};
pub use shard::ShardedEnvironment;
pub use simulation::Simulation;
pub use timeseries::TimeSeries;

/// The worker pool under every `par_*` loop of a step (the vendored
/// fork-join `rayon`), re-exported so a caller can pin a run's worker
/// count the upstream way — `rayon::ThreadPoolBuilder::new()
/// .num_threads(n).build()?.install(|| sim.simulate(k))` — without a
/// dependency of its own. The trajectory does not depend on `n`.
pub use rayon;
