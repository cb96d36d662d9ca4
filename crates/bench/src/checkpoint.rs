//! Checkpoint subsystem benchmark: stream density on the benchmark-A
//! scene.
//!
//! Prints the stream's size breakdown, and verifies on every run that
//! the restored simulation re-checkpoints to the identical bytes — a
//! cheap standing smoke test of the resume-equivalence contract. Write
//! and read are timed at workload scale by the `benchmark/` harness
//! (`checkpoint.*`), not here. `--json[=DIR]` additionally serializes
//! `BENCH_checkpoint.json`: the deterministic stream-shape metrics
//! (`checkpoint.bytes_total`, `checkpoint.bytes_per_agent`) gate at
//! 2 %, and the structural counts (`checkpoint.agents`,
//! `checkpoint.sections`) must reproduce exactly.

use crate::cli::Args;
use crate::emit;
use bdm_metrics::MetricsRegistry;
use bdm_sim::workload::benchmark_a;
use bdm_sim::{EnvironmentKind, Simulation};
use std::process::ExitCode;

fn ckpt(sim: &Simulation) -> Vec<u8> {
    let mut buf = Vec::new();
    sim.checkpoint(&mut buf).expect("checkpoint to Vec");
    buf
}

/// `bench_checkpoint [--json[=DIR]]`.
pub fn main(args: &Args) -> ExitCode {
    let scale = &args.scale;

    let mut sim = benchmark_a(scale.a_cells_per_dim, 0x8);
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    sim.simulate(scale.a_steps);
    let agents = sim.rm().len();

    let bytes = ckpt(&sim);
    let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    // Standing resume-equivalence smoke check: the restored state must
    // re-serialize to the identical stream. A divergence here means the
    // checkpoint subsystem is broken — fail loudly, don't emit metrics.
    let restored = Simulation::restore(&mut &bytes[..]).expect("restore own checkpoint");
    assert_eq!(
        bytes,
        ckpt(&restored),
        "restored simulation did not re-checkpoint to identical bytes"
    );

    let bytes_per_agent = bytes.len() as f64 / agents.max(1) as f64;
    println!("== checkpoint: {agents} agents, {} steps ==", scale.a_steps);
    println!("{:<18} {:>12}", "stream bytes", bytes.len());
    println!("{:<18} {:>12}", "sections", sections);
    println!("{:<18} {:>12.1}", "bytes/agent", bytes_per_agent);

    let mut reg = MetricsRegistry::new();
    reg.set_gauge("checkpoint.bytes_total", &[], bytes.len() as f64);
    reg.set_gauge("checkpoint.bytes_per_agent", &[], bytes_per_agent);
    reg.set_gauge("checkpoint.agents", &[], agents as f64);
    reg.set_gauge("checkpoint.sections", &[], sections as f64);

    emit::finish(args, "checkpoint", &reg, "\n")
}
