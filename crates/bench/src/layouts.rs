//! Wall-clock and locality tables of the CSR grid's storage policies on
//! one random cloud: insertion order vs the host Z-order reorder, f64 vs
//! the mixed-precision force pass, and the unsharded pass vs 1/2/4/8
//! Hilbert shards. Median of five repetitions. (Raw grid build / query
//! costs, whole mechanical steps and the behaviors operation are timed
//! at workload scale by the `benchmark/` harness: `grid.*`, `kdtree.*`,
//! `mech.step_ms.*`, `sim.behaviors_ms`.)
//! `--json[=DIR]` additionally serializes the medians as
//! `BENCH_layouts.json` — host wall clocks are emitted ungated (context,
//! not gate input), while the deterministic locality/utilization/
//! decomposition counters (`layouts.csr_index_gap`,
//! `mech.simd_lanes_utilized`, `layouts.shard_imbalance`,
//! `layouts.shard_halo_fraction`, `layouts.shard_mech_modeled_ms`,
//! `layouts.shard_speedup_modeled_x`) gate at 2 %.

use crate::cli::Args;
use crate::{emit, median, REPS};
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_math::{SplitMix64, Vec3};
use bdm_metrics::MetricsRegistry;
use bdm_sim::profiler::OpRecord;
use bdm_sim::{CellBuilder, EnvironmentKind, Precision, SimParams, Simulation};
use std::process::ExitCode;
use std::time::Instant;

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

/// The last step's profiler records named in `names`.
fn last_step_records<'a>(
    sim: &'a Simulation,
    names: &'a [&str],
) -> impl Iterator<Item = &'a OpRecord> + 'a {
    let last = sim.profiler().steps().last().expect("a step ran");
    let named = move |r: &&OpRecord| names.contains(&r.name.as_str());
    last.records.iter().filter(named)
}

/// Summed wall milliseconds of the last step's records named in
/// `names`.
fn last_step_wall_ms(sim: &Simulation, names: &[&str]) -> f64 {
    last_step_records(sim, names).map(|r| r.wall_s).sum::<f64>() * 1e3
}

/// One warm-up step (caches, scratch, the first sort), then the medians
/// over [`REPS`] steps of the whole step's wall clock and of the
/// `records` share of it, in ms.
fn timed_steps(sim: &mut Simulation, records: &[&str]) -> (f64, f64) {
    sim.step();
    let (mut steps, mut shares) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        let t = Instant::now();
        sim.step();
        steps.push(t.elapsed().as_secs_f64() * 1e3);
        shares.push(last_step_wall_ms(sim, records));
    }
    (median(&mut steps), median(&mut shares))
}

/// The host-reorder comparison (paper §V Improvement II on the CPU):
/// the same random cloud stepped on the CSR parallel grid with agents
/// left in insertion order vs kept Z-order sorted by the `reorder`
/// operation every step. Random insertion is the adversarial case the
/// lattice-ordered benchmark A hides — uids carry no spatial locality
/// at all. Wall clocks are informational; the CSR index gap (mean
/// |i - j| between each agent and its tested stencil candidates) is a
/// deterministic locality gauge the regression gate holds to 2 %.
fn reorder_table(cells_per_dim: usize, reg: &mut MetricsRegistry) {
    let n = cells_per_dim * cells_per_dim * cells_per_dim;
    let env = EnvironmentKind::uniform_grid_csr_parallel();
    println!(
        "\n== host reorder: random cloud, {n} cells, {} ==",
        env.label()
    );
    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "agent order", "step ms", "mech ms", "index gap"
    );
    for (order, reordered) in [("insertion", false), ("reordered", true)] {
        // Insertion order is reorder off, the default.
        let params = |p: SimParams| if reordered { p.with_reorder(1) } else { p };
        let mut sim = cloud_sim(n, params);
        let (step_ms, mech_ms) = timed_steps(&mut sim, &["mechanical forces"]);
        let label = env.label();
        let gap = sim
            .metrics()
            .value("mech.csr_index_gap", &[("env", label.as_str())])
            .expect("CSR env publishes the index gap");
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>12.2}",
            order, step_ms, mech_ms, gap
        );
        let labels = [("order", order)];
        reg.set_gauge("layouts.reorder_step_wall_ms", &labels, step_ms);
        reg.set_gauge("layouts.reorder_mech_wall_ms", &labels, mech_ms);
        reg.set_gauge("layouts.csr_index_gap", &labels, gap);
    }
}

/// Paper Improvement I on the CPU (mixed precision): the same random
/// cloud as [`reorder_table`] — Z-order sorted every step so x-runs are
/// long — stepped at `Precision::F64` (scalar baseline) and
/// `Precision::F32Simd` (fused 8-lane f32 force pass). Wall clocks and
/// the speedup ratio are informational; the SIMD utilization counter
/// (`mech.simd_lanes_utilized`) is a deterministic function of the
/// trajectory and gates at 2 %.
fn simd_table(cells_per_dim: usize, reg: &mut MetricsRegistry) {
    let n = cells_per_dim * cells_per_dim * cells_per_dim;
    let env = EnvironmentKind::uniform_grid_csr_parallel();
    println!(
        "\n== mixed precision: random cloud (reordered), {n} cells, {} ==",
        env.label()
    );
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>12} {:>14}",
        "precision", "step ms", "mech ms", "simd lanes", "index gap", "stencil reuse"
    );
    let mut mech_by_precision = [0.0f64; 2];
    for (slot, precision) in [Precision::F64, Precision::F32Simd].into_iter().enumerate() {
        let mut sim = cloud_sim(n, |p| p.with_reorder(1).with_precision(precision));
        let (step_ms, mech_ms) = timed_steps(&mut sim, &["mechanical forces"]);
        mech_by_precision[slot] = mech_ms;
        let metrics = sim.metrics();
        let env_label = env.label();
        let env_labels = [("env", env_label.as_str())];
        let read = |name: &str| metrics.value(name, &env_labels).unwrap_or(0.0);
        let (lanes, gap) = (read("mech.simd_lanes_utilized"), read("mech.csr_index_gap"));
        let work = sim.last_mech_work().expect("the CSR step ran");
        let reuse = work.stencil_reuse(n).expect("a CSR sweep stages stencils");
        let reuse = format!("{reuse:.3}");
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>14.0} {:>12.2} {:>14}",
            precision.label(),
            step_ms,
            mech_ms,
            lanes,
            gap,
            reuse
        );
        let labels = [("precision", precision.label())];
        reg.set_gauge("layouts.simd_step_wall_ms", &labels, step_ms);
        reg.set_gauge("layouts.simd_mech_wall_ms", &labels, mech_ms);
        let staged = work.stencils_staged.expect("a CSR sweep stages stencils") as f64;
        if precision == Precision::F32Simd {
            reg.set_gauge("mech.simd_lanes_utilized", &labels, lanes);
            reg.set_gauge("mech.simd_stencils_staged", &labels, staged);
        } else {
            reg.set_gauge("mech.stencils_staged", &labels, staged);
        }
    }
    let speedup = mech_by_precision[0] / mech_by_precision[1].max(1e-12);
    println!(
        "{:<12} {:>10.2}x mech-pass speedup (f64 / f32-simd)",
        "", speedup
    );
    reg.set_gauge("layouts.simd_speedup_wall_x", &[], speedup);
}

/// Hilbert-sharded domain decomposition: the same random cloud stepped
/// on the CSR parallel grid, unsharded (with an every-step Z-order
/// reorder so both configurations pay for locality) and at 1/2/4/8
/// shards. The mech column sums the pass's own records — canonical
/// sort / host reorder, CSR build(s), force pass — so the decomposition
/// overheads are visible. The shard is the unit of parallelism (each
/// shard steps serially on its own rayon task), so the decomposition
/// speedup is reported through the System A machine model at 20
/// threads, capped at the shard count — the repo's standard way to
/// record parallel scaling independent of the host's core count. Wall
/// clocks are informational (they depend on the host's worker count:
/// a 1-shard row is one task however many workers exist, while the
/// unsharded pass forks over 4 Ki-agent chunks); the modeled
/// milliseconds and the shard-map
/// telemetry (imbalance, imported ghost-halo fraction) are
/// deterministic functions of the trajectory and gate at 2 %.
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
        "{:<12} {:>10} {:>10} {:>13} {:>11} {:>11}",
        "shards", "step ms", "mech ms", "modeled ms", "imbalance", "halo frac"
    );
    let mech_records = [
        "reorder",
        "shard sort",
        "neighborhood build",
        "mechanical forces",
    ];
    let mut modeled_single = 0.0f64;
    let mut modeled_best_multi = f64::INFINITY;
    for shards in [0usize, 1, 2, 4, 8] {
        let mut sim = cloud_sim(n, |p| match shards {
            0 => p.with_reorder(1),
            _ => p.with_shards(shards),
        });
        let (step_ms, mech_ms) = timed_steps(&mut sim, &mech_records);
        // Model the last step's mech phases at 20 System A threads. The
        // build/force phases of a sharded run fan out across shards, one
        // serial task each, so their thread count is capped at the shard
        // count; the sort and the host reorder are global rayon passes.
        let modeled_ms: f64 = last_step_records(&sim, &mech_records)
            .flat_map(|r| r.phases.iter())
            .map(|p| {
                let threads = if shards > 0 && p.name != "shard sort" {
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
            "{:<12} {:>10.3} {:>10.3} {:>13.3} {:>11.3} {:>11.4}",
            row, step_ms, mech_ms, modeled_ms, imbalance, halo_frac
        );
        let key = shards.to_string();
        let labels = [("shards", key.as_str())];
        reg.set_gauge("layouts.shard_step_wall_ms", &labels, step_ms);
        reg.set_gauge("layouts.shard_mech_wall_ms", &labels, mech_ms);
        if shards > 0 {
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
    println!(
        "step / mech ms are wall clocks on {} workers, informational (never gated): shards \
         are the parallel tasks, so a row's wall time tracks min(shards, workers); the gated \
         columns are the modeled ms, imbalance and halo fraction.",
        rayon::current_num_threads()
    );
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
