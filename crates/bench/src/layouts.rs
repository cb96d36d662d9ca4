//! Locality tables of the CSR grid's storage policies on one random
//! cloud: insertion order vs the host Z-order reorder, f64 vs the
//! mixed-precision force pass, and the unsharded pass vs 1/2/4/8
//! Hilbert shards, each read after six steps. Nothing here is
//! timed: grid builds and queries, whole mechanical steps, sharded
//! steps and the behaviors operation are timed at workload scale by the
//! `benchmark/` harness (`grid.*`, `kdtree.*`, `mech.step_ms.*`,
//! `shard.*`, `sim.behaviors_ms`), and every wall clock of a step is in
//! [`Simulation::metrics`]. `--json[=DIR]` serializes the deterministic
//! locality / utilization / decomposition counters
//! (`layouts.csr_index_gap`, `mech.simd_lanes_utilized`,
//! `layouts.shard_imbalance`, `layouts.shard_halo_fraction`,
//! `layouts.shard_mech_modeled_ms`, `layouts.shard_speedup_modeled_x`)
//! as `BENCH_layouts.json`; each gates at 2 %.

use crate::cli::Args;
use crate::emit;
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_math::{SplitMix64, Vec3};
use bdm_metrics::MetricsRegistry;
use bdm_sim::profiler::OpRecord;
use bdm_sim::work_model::{MECH_PHASES, REORDER, SHARD_SORT};
use bdm_sim::{CellBuilder, EnvironmentKind, Precision, SimParams, Simulation};
use std::process::ExitCode;

/// Steps each scene runs before the tables read it (the gated values
/// are pinned at this count).
const STEPS: u64 = 6;

/// The random cloud the reorder, precision and sharding tables step:
/// `n` cells of diameter 4 placed uniformly at ~2 per radius-4 voxel
/// (the benchmark regime) on the CSR parallel grid, under `params`
/// (reorder policy, precision, shards).
fn cloud_sim(n: usize, params: impl FnOnce(SimParams) -> SimParams) -> Simulation {
    let half = (n as f64 / 2.0).cbrt() * 2.0;
    let mut sim = Simulation::new(params(SimParams::cube(half).with_seed(0x2b)));
    sim.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
    let mut rng = SplitMix64::new(0x2b);
    for _ in 0..n {
        sim.add_cell(
            CellBuilder::new(Vec3::new(
                rng.uniform(-half, half),
                rng.uniform(-half, half),
                rng.uniform(-half, half),
            ))
            .diameter(4.0)
            .adherence(0.01),
        );
    }
    sim
}

/// The last step's profiler records of the mechanical interactions
/// operation and the host reorder.
fn last_step_mech_records(sim: &Simulation) -> impl Iterator<Item = &OpRecord> {
    let last = sim.profiler().steps().last().expect("a step ran");
    let mech = |r: &&OpRecord| r.name == REORDER || MECH_PHASES.contains(&r.name.as_str());
    last.records.iter().filter(mech)
}

/// The host-reorder comparison (paper §V Improvement II on the CPU):
/// the same random cloud stepped on the CSR parallel grid with agents
/// left in insertion order vs kept Z-order sorted by the `reorder`
/// operation every step. Random insertion is the adversarial case the
/// lattice-ordered benchmark A hides — uids carry no spatial locality
/// at all. The CSR index gap (mean |i - j| between each agent and its
/// tested stencil candidates) is a deterministic locality gauge the
/// regression gate holds to 2 %.
fn reorder_table(cells_per_dim: usize, reg: &mut MetricsRegistry) {
    let n = cells_per_dim * cells_per_dim * cells_per_dim;
    let env = EnvironmentKind::uniform_grid_csr_parallel();
    println!(
        "\n== host reorder: random cloud, {n} cells, {} ==",
        env.label()
    );
    println!("{:<14} {:>12}", "agent order", "index gap");
    for (order, reordered) in [("insertion", false), ("reordered", true)] {
        // Insertion order is reorder off, the default.
        let params = |p: SimParams| if reordered { p.with_reorder(1) } else { p };
        let mut sim = cloud_sim(n, params);
        sim.simulate(STEPS);
        let label = env.label();
        let gap = sim
            .metrics()
            .value("mech.csr_index_gap", &[("env", label.as_str())])
            .expect("CSR env publishes the index gap");
        println!("{:<14} {:>12.2}", order, gap);
        let labels = [("order", order)];
        reg.set_gauge("layouts.csr_index_gap", &labels, gap);
    }
}

/// Paper Improvement I on the CPU (mixed precision): the same random
/// cloud as [`reorder_table`] — Z-order sorted every step so x-runs are
/// long — stepped at `Precision::F64` (scalar baseline) and
/// `Precision::F32Simd` (fused 8-lane f32 force pass). The SIMD
/// utilization counter (`mech.simd_lanes_utilized`) is a deterministic
/// function of the trajectory and gates at 2 %.
fn simd_table(cells_per_dim: usize, reg: &mut MetricsRegistry) {
    let n = cells_per_dim * cells_per_dim * cells_per_dim;
    let env = EnvironmentKind::uniform_grid_csr_parallel();
    println!(
        "\n== mixed precision: random cloud (reordered), {n} cells, {} ==",
        env.label()
    );
    println!(
        "{:<12} {:>14} {:>12} {:>14}",
        "precision", "simd lanes", "index gap", "stencil reuse"
    );
    for precision in [Precision::F64, Precision::F32Simd] {
        let mut sim = cloud_sim(n, |p| p.with_reorder(1).with_precision(precision));
        sim.simulate(STEPS);
        let metrics = sim.metrics();
        let env_label = env.label();
        let env_labels = [("env", env_label.as_str())];
        let read = |name: &str| metrics.value(name, &env_labels).unwrap_or(0.0);
        let (lanes, gap) = (read("mech.simd_lanes_utilized"), read("mech.csr_index_gap"));
        let work = sim.last_mech_work().expect("the CSR step ran");
        let reuse = work.stencil_reuse(n).expect("a CSR sweep stages stencils");
        let reuse = format!("{reuse:.3}");
        println!(
            "{:<12} {:>14.0} {:>12.2} {:>14}",
            precision.label(),
            lanes,
            gap,
            reuse
        );
        if precision == Precision::F32Simd {
            let labels = [("precision", precision.label())];
            reg.set_gauge("mech.simd_lanes_utilized", &labels, lanes);
        }
    }
}

/// Hilbert-sharded domain decomposition: the same random cloud stepped
/// on the CSR parallel grid, unsharded (with an every-step Z-order
/// reorder so both configurations pay for locality) and at 1/2/4/8
/// shards. The modeled mech column sums the pass's own records —
/// canonical sort / host reorder, CSR build(s), force pass — so the
/// decomposition overheads are visible. The shard is the unit of
/// parallelism (each shard steps serially on its own rayon task), so
/// the decomposition speedup is reported through the System A machine
/// model at 20 threads, capped at the shard count — the repo's standard
/// way to record parallel scaling independent of the host's core count.
/// The modeled milliseconds and the shard-map telemetry (imbalance,
/// imported ghost-halo fraction) are deterministic functions of the
/// trajectory and gate at 2 %.
fn shard_table(cells_per_dim: usize, reg: &mut MetricsRegistry) {
    // The sharding acceptance regime is >=110k agents: below that the
    // per-shard build overhead dominates. Smaller bench scales are
    // clamped up so the committed JSON always records the regime where
    // per-shard stepping pays (48^3 = 110,592).
    let cells_per_dim = cells_per_dim.max(48);
    let n = cells_per_dim * cells_per_dim * cells_per_dim;
    let env = EnvironmentKind::uniform_grid_csr_parallel();
    let model = CpuModel::new(SYSTEM_A.cpu);
    const MODEL_THREADS: u32 = 20;
    println!(
        "\n== hilbert sharding: random cloud, {n} cells, {} ==",
        env.label()
    );
    println!(
        "{:<12} {:>13} {:>11} {:>11}",
        "shards", "modeled ms", "imbalance", "halo frac"
    );
    let mut modeled_single = 0.0f64;
    let mut modeled_best_multi = f64::INFINITY;
    for shards in [0usize, 1, 2, 4, 8] {
        let mut sim = cloud_sim(n, |p| match shards {
            0 => p.with_reorder(1),
            _ => p.with_shards(shards),
        });
        sim.simulate(STEPS);
        // Model the last step's mech phases at 20 System A threads. The
        // build/force phases of a sharded run fan out across shards, one
        // serial task each, so their thread count is capped at the shard
        // count; the sort and the host reorder are global rayon passes.
        let modeled_ms: f64 = last_step_mech_records(&sim)
            .flat_map(|r| r.phases.iter())
            .map(|p| {
                let threads = if shards > 0 && p.name != SHARD_SORT {
                    MODEL_THREADS.min(shards as u32)
                } else {
                    MODEL_THREADS
                };
                model.phase_time(p, threads).seconds
            })
            .sum::<f64>()
            * 1e3;
        let (imbalance, halo_frac) = sim
            .sharding()
            .map(|s| (s.imbalance(), s.halo_agents() as f64 / n as f64))
            .unwrap_or((1.0, 0.0));
        let row = if shards == 0 {
            "unsharded".to_string()
        } else {
            shards.to_string()
        };
        println!(
            "{:<12} {:>13.3} {:>11.3} {:>11.4}",
            row, modeled_ms, imbalance, halo_frac
        );
        if shards > 0 {
            let key = shards.to_string();
            let labels = [("shards", key.as_str())];
            reg.set_gauge("layouts.shard_mech_modeled_ms", &labels, modeled_ms);
            reg.set_gauge("layouts.shard_imbalance", &labels, imbalance);
            reg.set_gauge("layouts.shard_halo_fraction", &labels, halo_frac);
        }
        if shards == 1 {
            modeled_single = modeled_ms;
        } else if shards > 1 {
            modeled_best_multi = modeled_best_multi.min(modeled_ms);
        }
    }
    let speedup = modeled_single / modeled_best_multi.max(1e-12);
    println!(
        "{:<12} {:>10.2}x modeled mech speedup (1 shard / best multi-shard)",
        "", speedup
    );
    reg.set_gauge("layouts.shard_speedup_modeled_x", &[], speedup);
}

/// `bench_layouts [--json[=DIR]]`.
pub fn main(args: &Args) -> ExitCode {
    let cells_per_dim = args.scale.a_cells_per_dim;
    let mut reg = MetricsRegistry::new();
    reorder_table(cells_per_dim, &mut reg);
    shard_table(cells_per_dim, &mut reg);
    simd_table(cells_per_dim, &mut reg);
    emit::finish(args, "layouts", &reg, "\n")
}
