//! Machine-readable observability for the reproduction.
//!
//! The paper's entire argument is a chain of measurements (the Fig. 3
//! profile, the Fig. 8/9 speedups, the Fig. 12 roofline), and BioDynaMo
//! itself ships a timing/statistics layer so optimizations can be gated
//! on continuous benchmark tracking (Breitwieser et al. 2023). This
//! crate is that layer for the Rust reproduction:
//!
//! * [`registry`] — a labeled **counter / gauge / histogram** registry
//!   the scheduler, profiler, mechanical pass, and GPU pipeline publish
//!   into ([`MetricsRegistry`]);
//! * [`json`] — a minimal, dependency-free **JSON** value with a
//!   deterministic writer and a parser (the workspace is offline and
//!   vendored, so serde is not available);
//! * [`document`] — the stable `BENCH_<name>.json` **document schema**
//!   ([`BenchDoc`]) plus the per-metric relative-tolerance comparison
//!   ([`compare`]) that `scripts/bench_gate.sh` runs against the
//!   committed baselines under `results/`.
//!
//! Everything here is deliberately free of wall-clock reads and
//! randomness: the gate compares *modeled* times and *work counters*,
//! which are deterministic functions of the simulated trajectory; host
//! wall times are not written into a document at all.

pub mod document;
pub mod json;
pub mod registry;

pub use document::{compare, BenchDoc, CompareReport, GatePolicy, MetricSample, SCHEMA_VERSION};
pub use json::{JsonError, JsonValue};
pub use registry::{MetricData, MetricKind, MetricsRegistry};
