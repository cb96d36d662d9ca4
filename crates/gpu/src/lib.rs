//! Trace-driven SIMT GPU simulator with one launch path (a
//! [`LaunchConfig`] on a [`GpuDevice`]), plus the paper's
//! mechanical-interaction kernels (v0 through III and the
//! dynamic-parallelism future-work variant).
//!
//! # Why a simulator
//!
//! The paper's contribution is a GPU port of BioDynaMo's mechanical
//! interaction operation, evaluated on a GTX 1080 Ti and a Tesla V100.
//! This reproduction environment has no GPU, so the device is *simulated*:
//! kernels are ordinary Rust code that computes the real forces on the
//! real agent data (functional layer), while every floating-point
//! operation and every memory access flows through a performance model
//! (timing layer) parameterized by the Table I specs in `bdm-device`.
//!
//! The paper's three improvements then *emerge* from the model instead of
//! being asserted:
//!
//! * **Improvement I (FP64 → FP32)** — buffers and transactions shrink by
//!   half and the FLOP cost drops by the device's FP64:FP32 ratio, so a
//!   memory-bound kernel speeds up ≈ 2×.
//! * **Improvement II (Z-order sort)** — warp lanes touch nearby
//!   addresses, the coalescer merges them into fewer 128-byte
//!   transactions, and the simulated L2 hit rate rises.
//! * **Improvement III (shared-memory tiles)** — the atomic appends that
//!   build the tile serialize within warps and the boundary checks
//!   diverge, which *costs* more than the saved global traffic (the
//!   paper measured a 28 % slowdown).
//!
//! # Architecture
//!
//! * [`mem`] — device buffers (typed, addressed) and the device allocator.
//! * [`counters`] — per-kernel performance counters (`nvprof` stand-in).
//! * [`engine`] — the SIMT execution engine: blocks → warps → lanes, with
//!   per-warp coalescing, an L2 cache simulation, and divergence
//!   accounting. Deterministic at any host worker count: blocks that
//!   commute fork across the workers, the L2 sees one ordered stream.
//! * [`timing`] — converts counters into seconds on a given [`bdm_device::GpuSpec`].
//! * [`frontend`] — the CUDA / OpenCL label a result carries (the paper
//!   implements both APIs; their launches are the same grid on the same
//!   engine, so the label selects no code).
//! * [`kernels`] — the uniform-grid build kernel and the four mechanical
//!   interaction kernel versions, plus dynamic parallelism.
//! * [`pipeline`] — the full offload pipeline (H2D → build grid → forces
//!   → D2H) that `bdm-sim` plugs in as its GPU environment.

pub mod counters;
pub mod engine;
pub mod frontend;
pub mod kernels;
pub mod mem;
pub mod pipeline;
pub mod timing;

pub use counters::KernelCounters;
pub use engine::{GpuDevice, Kernel, LaunchConfig, ThreadCtx, ThreadId};
pub use frontend::ApiFrontend;
pub use mem::{DeviceBuffer, DeviceWord};
pub use pipeline::{GpuStepReport, KernelVersion, MechanicalPipeline};
pub use timing::KernelTiming;
