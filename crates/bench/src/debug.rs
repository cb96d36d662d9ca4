//! Diagnostics: raw counters and per-phase breakdowns that explain a
//! figure's numbers rather than reproduce one.

use crate::cli::Args;
use crate::layouts::{cloud_sim, last_step_wall_ms};
use crate::{benchmark_a_offloaded, benchmark_a_with, gpu_totals};
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::KernelVersion;
use bdm_sim::{EnvironmentKind, Precision};
use std::process::ExitCode;

/// `debug_counters`: raw work counters of one benchmark-A step per
/// environment.
pub fn counters(_: &Args) -> ExitCode {
    for (env, precision) in [
        (EnvironmentKind::KdTree, Precision::F64),
        (EnvironmentKind::uniform_grid_parallel(), Precision::F64),
        (EnvironmentKind::uniform_grid_csr_parallel(), Precision::F64),
        (
            EnvironmentKind::uniform_grid_csr_parallel(),
            Precision::F32Simd,
        ),
    ] {
        let mut sim = benchmark_a_with(24, 0xA, |p| p.with_precision(precision));
        sim.set_environment(env);
        sim.simulate(1);
        let w = sim.last_mech_work().unwrap();
        let n = sim.rm().len() as f64;
        println!(
            "{:?} {}: n={} candidates/agent={:.1} neighbors/agent={:.1} contacts/agent={:.1}",
            env,
            precision.label(),
            n,
            w.candidates as f64 / n,
            w.neighbors as f64 / n,
            w.contacts as f64 / n
        );
        // The CSR rows, either precision.
        if let (Some(gap), Some(reuse)) = (w.index_gap, w.stencil_reuse(sim.rm().len())) {
            println!("  index gap={gap:.1} stencil reuse={reuse:.3}");
        }
        for (k, p) in w.phases.iter().enumerate() {
            println!(
                "  phase {} {:<20} flops/agent={:>8.1} bytes/agent={:>8.1} random/agent={:>6.2} parallel={}",
                k, p.name, p.flops / n, p.bytes / n, p.random_accesses / n, p.parallel
            );
        }
    }
    ExitCode::SUCCESS
}

/// `debug_gpu`: per-version GPU step breakdown on benchmark A.
pub fn gpu(args: &Args) -> ExitCode {
    let scale = &args.scale;
    for version in KernelVersion::ALL {
        let mut sim = benchmark_a_offloaded(scale, ApiFrontend::Cuda, version);
        sim.simulate(scale.a_steps);
        let (total, counters, mech_s) = gpu_totals(sim.profiler());
        let c = counters.unwrap();
        // Last step report details:
        let last = sim.profiler().steps().last().unwrap();
        let g = last.records.iter().find_map(|r| r.gpu.as_ref()).unwrap();
        println!(
            "{:<28} total={:>7.1}ms last: h2d={:.2}ms build={:.2}ms mech={:.2}ms d2h={:.2}ms",
            version.label(),
            total * 1e3,
            g.h2d_s * 1e3,
            g.build_s * 1e3,
            mech_s * 1e3,
            g.d2h_s * 1e3
        );
        println!(
            "   mech: txns={:.2e} l2_share={:.2} dram={:.1}MB flops={:.2e} cyc={:.2e} atomics_cyc={:.2e} AI={:.2}",
            c.global_transactions, c.l2_read_share(), c.dram_bytes() / 1e6,
            c.total_flops(), c.compute_warp_cycles, c.atomic_serial_cycles,
            c.arithmetic_intensity()
        );
        println!(
            "   simulator host cost: exec+log={:.1}ms drain={:.1}ms",
            g.host.exec_s * 1e3,
            g.host.drain_s * 1e3
        );
        // Why: how much of the exec ran in launches whose blocks commute
        // and so fork across the host workers (the rest ran in order).
        println!(
            "   exec in forked launches: {:.1}% ({} forked in {} chunks, {} in order)",
            100.0 * g.host.forked_s / g.host.exec_s.max(f64::MIN_POSITIVE),
            g.launches.forked,
            g.launches.chunks - g.launches.ordered as u64,
            g.launches.ordered
        );
        // Why: the share of traced accesses the lane filter absorbed
        // (they repeat the previous lane — sorted input — and never
        // reach the bucket table).
        println!(
            "   traced accesses: {} of {} absorbed by the lane filter ({:.1}%)",
            g.accesses.filtered,
            g.accesses.total,
            100.0 * g.accesses.filtered as f64 / g.accesses.total.max(1) as f64
        );
        println!(
            "   last step: sync={} grid={}",
            g.sync.label(),
            if g.grid_built { "built" } else { "skipped" }
        );
    }
    ExitCode::SUCCESS
}

/// `debug_steps`: per-step GPU kernel time for versions I and II.
pub fn steps(args: &Args) -> ExitCode {
    let scale = &args.scale;
    for version in [KernelVersion::V1Fp32, KernelVersion::V2Sorted] {
        let mut sim = benchmark_a_offloaded(scale, ApiFrontend::Cuda, version);
        sim.simulate(scale.a_steps);
        print!("{:<26}", version.label());
        for step in sim.profiler().steps() {
            if let Some(g) = step.records.iter().find_map(|r| r.gpu.as_ref()) {
                print!(" {:6.2}", g.kernel_s() * 1e3);
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// `debug_shards [N]`: per-phase wall breakdown of the Hilbert-sharded
/// mechanical pass (canonical sort / per-shard CSR builds with ghost
/// halos / force pass) across shard counts, on `bench_layouts`' random
/// cloud of `N` cells (default 110,592).
pub fn shards(args: &Args) -> ExitCode {
    let n = args.count.unwrap_or(110_592);
    println!("random cloud, {n} cells, uniform grid CSR (parallel)");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "shards", "sort ms", "build ms", "force ms", "reorder ms", "halo frac", "imbalance"
    );
    for shards in [1usize, 2, 4, 8] {
        let mut sim = cloud_sim(n, |p| p.with_shards(shards));
        sim.simulate(4);
        let wall = |name: &str| last_step_wall_ms(&sim, &[name]);
        let sh = sim.sharding().unwrap();
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>11.4} {:>10.3}",
            shards,
            wall("shard sort"),
            wall("neighborhood build"),
            wall("mechanical forces"),
            wall("reorder"),
            sh.halo_agents() as f64 / n as f64,
            sh.imbalance(),
        );
    }
    ExitCode::SUCCESS
}
