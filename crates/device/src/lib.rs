//! Machine models for the reproduction.
//!
//! The paper benchmarks on two physical systems (Table I) that this
//! environment does not have: dual-socket Xeons with 20/32 cores and
//! NVIDIA GTX 1080 Ti / Tesla V100 GPUs. Following the reproduction's
//! substitution rule (see `DESIGN.md` §2), *all reported runtimes are
//! produced by machine models over genuinely measured work counters*:
//!
//! * [`specs`] encodes Table I verbatim — clock rates, core counts,
//!   memory bandwidths, FP32/FP64 throughput, cache sizes.
//! * [`cache`] is a set-associative LRU cache simulator used by the GPU
//!   simulator's L2 model (sliced by address hash like a real GPU's
//!   L2; plain data behind `&mut`, fed one ordered stream).
//! * [`cpu`] is an analytic multicore timing model (roofline-style:
//!   compute / bandwidth / memory-latency terms, NUMA-aware thread
//!   scaling) fed by per-phase work counters.
//! * [`transfer`] models host↔device copies over PCIe.

pub mod cache;
pub mod cpu;
pub mod specs;
pub mod transfer;

pub use cache::{AccessOutcome, CacheSim, CacheStats, ShardedCache};
pub use cpu::{CpuModel, Phase, PhaseTime};
pub use specs::{CpuSpec, GpuSpec, SystemSpec, SYSTEM_A, SYSTEM_B};
pub use transfer::PcieModel;
