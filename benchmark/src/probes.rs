//! The per-layer metrics: after the workload's probe step the traced
//! round clones the live state and calls each layer's public entry point
//! under a span of its own. Every traced run reports every metric (the
//! acceptance contract's `--trace 1`), so the agent-side probes run on
//! every workload's own agents — one layer read across a lattice, a dense
//! cloud and a sparse one — while the two layers only one workload holds
//! state for are probed on that workload's scene from every traced run:
//! the fields of `chemo_fields`, the device scene of `gpu_offload`.
//!
//! README.md maps each metric to the end-to-end metric it should move.

use crate::host;
use crate::round::{Options, Report};
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_gpu::frontend::ApiFrontend;
use bdm_gpu::pipeline::{GpuStepReport, KernelVersion, MechanicalPipeline, SceneRef};
use bdm_grid::{CsrBuildScratch, CsrGrid, UniformGrid};
use bdm_kdtree::KdTree;
use bdm_math::interaction::collision_force;
use bdm_math::{Aabb, Vec3};
use bdm_morton::Curve;
use bdm_sim::mech::{self, MechScratch, MechWork};
use bdm_sim::{CellBuilder, EnvironmentKind, Precision, Simulation};
use bdm_soa::{AgentId, F32Mirror, F32x4Mirror, Permutation};
use std::hint::black_box;

/// Neighborhood queries issued per structure (evenly strided agents).
const QUERY_SAMPLE: usize = 20_000;
/// Force evaluations timed by the `bdm-math` probe.
const FORCE_EVALUATIONS: usize = 2_000_000;

/// One reported metric, end-to-end or per-layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }

    /// A per-layer metric, with its unit from [`LAYERS`].
    ///
    /// # Panics
    /// On a name [`LAYERS`] does not list: the table, `BENCHMARK.json`
    /// and the probes must agree, and a unit test holds the first two
    /// together.
    pub fn per_layer(name: &str, value: f64) -> Self {
        let (_, unit) = LAYERS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        Self::new(name, unit, value)
    }
}

/// Every per-layer metric and its unit, in reporting order: the
/// `per_layer` list of `BENCHMARK.json`. `[x]` marks exact counts, which
/// repeat from run to run of one seed.
pub const LAYERS: &[(&str, &str)] = &[
    // bdm-sim scheduler / operations
    ("sim.behaviors_ms", "ms"),
    ("sim.reorder_ms", "ms"),
    ("sim.bound_space_ms", "ms"),
    ("sim.mech_ms", "ms"),
    ("sim.diffusion_ms", "ms"),
    ("sim.step_self_ms", "ms"),
    ("sim.step_ms_worst", "ms"),
    ("sim.births", "count"), // [x]
    // bdm-sim::mech
    ("mech.step_ms.kdtree", "ms"),
    ("mech.step_ms.ll", "ms"),
    ("mech.step_ms.csr_f64", "ms"),
    ("mech.step_ms.csr_f32", "ms"),
    ("mech.ns_per_candidate.csr_f64", "ns"),
    ("mech.ns_per_candidate.csr_f32", "ns"),
    ("mech.contacts_per_candidate", "ratio"), // [x]
    ("mech.index_gap", "count"),              // [x]
    ("mech.simd_lane_occupancy", "ratio"),    // [x]
    ("mech.csr_skip_ratio", "ratio"),         // [x]
    // bdm-sim::shard
    ("shard.step_ms", "ms"),
    ("shard.over_unsharded", "ratio"),
    ("shard.halo_ratio", "ratio"), // [x]
    ("shard.imbalance", "ratio"),  // [x]
    // bdm-grid
    ("grid.csr_build_ms", "ms"),
    ("grid.csr_rebuild_moved_ms", "ms"),
    ("grid.csr_rebuild_unmoved_ms", "ms"),
    ("grid.ll_build_ms", "ms"),
    ("grid.csr_query_ns_per_candidate", "ns"),
    ("grid.ll_query_ns_per_candidate", "ns"),
    ("grid.candidates_per_neighbor", "ratio"), // [x]
    // bdm-kdtree
    ("kdtree.build_ms", "ms"),
    ("kdtree.query_ns_per_neighbor", "ns"),
    // bdm-morton / bdm-soa
    ("morton.cell_keys_ms", "ms"),
    ("morton.sort_permutation_ms", "ms"),
    ("soa.permute_columns_ms", "ms"),
    ("soa.permute_identity_ms", "ms"),
    ("soa.mirror_refresh_ms", "ms"),
    // bdm-math
    ("math.force_ns_per_pair_f64", "ns"),
    // bdm-sim::diffusion
    ("diffusion.step_ms_f64", "ms"),
    ("diffusion.step_ms_f32", "ms"),
    ("diffusion.reference_step_ms", "ms"),
    ("diffusion.tiled_over_reference", "ratio"),
    ("diffusion.voxel_updates_per_s", "1/s"),
    ("diffusion.computed_gb_per_s", "GB/s"),
    ("diffusion.bw_fraction", "ratio"),
    ("diffusion.substeps", "count"),          // [x]
    ("diffusion.interior_fraction", "ratio"), // [x]
    // bdm-sim::checkpoint
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.read_ms", "ms"),
    ("checkpoint.round_trip_floor_ms", "ms"),
    ("checkpoint.bytes", "count"),           // [x]
    ("checkpoint.bytes_per_agent", "count"), // [x]
    ("checkpoint.write_mb_per_s", "MB/s"),
    ("checkpoint.read_mb_per_s", "MB/s"),
    // bdm-gpu / bdm-device: host cost of the simulator, then simulated
    // statistics
    ("gpu.host_ms_per_step", "ms"),
    ("gpu.host_us_per_traced_warp", "us"),
    ("gpu.resident_host_ms_per_step", "ms"),
    ("gpu.sim_total_ms", "ms"),                 // [x]
    ("gpu.sim_build_ms", "ms"),                 // [x]
    ("gpu.sim_mech_ms", "ms"),                  // [x]
    ("gpu.sim_h2d_ms", "ms"),                   // [x]
    ("gpu.sim_d2h_ms", "ms"),                   // [x]
    ("gpu.bytes_h2d", "count"),                 // [x]
    ("gpu.bytes_d2h", "count"),                 // [x]
    ("gpu.l2_hit_ratio", "ratio"),              // [x]
    ("gpu.transactions_per_agent", "ratio"),    // [x]
    ("gpu.sort_gathers", "count"),              // [x]
    ("gpu.midstep_syncs", "count"),             // [x]
    ("gpu.device_allocated_mb", "MB"),          // [x]
    ("gpu.resident_bytes_h2d_steady", "count"), // [x], must be 0
    // the analytic model as a checked instrument
    ("model.cpu_1t_s", "s"), // [x]
    ("model.cpu_1t_over_measured", "ratio"),
    // parallel surface, host, harness overheads
    ("par.threads", "count"),
    ("par.serial_over_parallel", "ratio"),
    ("host.stream_gb_per_s", "GB/s"),
    ("host.nproc", "count"),
    ("metrics.snapshot_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// `layers` in [`LAYERS`] order.
///
/// # Panics
/// Unless `layers` holds every registered metric exactly once.
pub fn in_reporting_order(mut layers: Vec<Metric>) -> Vec<Metric> {
    let rank = |l: &Metric| LAYERS.iter().position(|(n, _)| *n == l.name);
    layers.sort_by_key(rank);
    let names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
    let wanted: Vec<&str> = LAYERS.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names, wanted,
        "the traced pass must report every per-layer metric once"
    );
    layers
}

/// Metrics gathered so far, plus the tracer the probes time under.
struct Probe<'a> {
    tr: &'a mut Tracer,
    out: Vec<Metric>,
}

impl Probe<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.out.push(Metric::per_layer(name, value));
    }

    /// Time `f` under a span; returns its result and milliseconds.
    fn ms<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (v, s) = self.tr.time(span, f);
        (v, s * 1e3)
    }
}

/// Probe every layer on the state of `sim` (just after the probe step).
pub fn run(tr: &mut Tracer, sim: &Simulation, opts: Options) -> Vec<Metric> {
    let mut p = Probe {
        tr,
        out: Vec::new(),
    };
    let stream_gb_per_s = host_and_parallel_surface(&mut p, opts.scale);
    let bytes = checkpoint(&mut p, sim);
    scheduler_ops(&mut p, &bytes);
    mech_environments(&mut p, sim);
    shards(&mut p, sim);
    neighbor_structures(&mut p, sim);
    reorder_kernels(&mut p, sim);
    // The scene of the workload that holds a layer's state, when this one
    // does not: built from the same seed, as that workload builds it.
    let scene_of = |w: Workload| (w != opts.workload).then(|| w.build(opts.seed, opts.scale));
    let mut fields = scene_of(Workload::ChemoFields);
    if let Some(fields) = &mut fields {
        // One step, so the field holds its secretors' first deposits.
        fields.step();
    }
    diffusion(&mut p, fields.as_ref().unwrap_or(sim), stream_gb_per_s);
    drop(fields);
    let device = scene_of(Workload::GpuOffload);
    gpu(&mut p, device.as_ref().unwrap_or(sim));
    p.out
}

/// What is only known once the step loop is over.
pub fn after_run(
    tr: &mut Tracer,
    sim: &Simulation,
    report: &Report,
    initial_agents: usize,
    csr_skips: u64,
) -> Vec<Metric> {
    let mut p = Probe {
        tr,
        out: Vec::new(),
    };
    p.put("sim.births", sim.rm().len() as f64 - initial_agents as f64);
    // Rebuilds the live run's CSR grid skipped, per step: none where the
    // grid is rebuilt every step, on the host or (`gpu_offload`, not
    // resident) on the device.
    p.put(
        "mech.csr_skip_ratio",
        csr_skips as f64 / report.step_s.len() as f64,
    );
    // The analytic model as a checked instrument: System A, one thread,
    // over the phases the run recorded, against the run's measured time.
    let modeled = sim
        .profiler()
        .modeled_total(&CpuModel::new(SYSTEM_A.cpu), 1);
    p.put("model.cpu_1t_s", modeled);
    p.put(
        "model.cpu_1t_over_measured",
        modeled / report.step_s.iter().sum::<f64>(),
    );
    let (_, ms) = p.ms("metrics.snapshot", || black_box(sim.metrics()));
    p.put("metrics.snapshot_ms", ms);
    p.out
}

/// Write the recorded spans as `benchmark/results/trace_<workload>.json`
/// (relative to the repo root, where `run.sh` starts the harness).
pub fn write_trace(tr: &Tracer, opts: Options) {
    let mut meta = host::echo();
    meta.push(("seed", opts.seed.to_string()));
    meta.push(("scale", format!("{:?}", opts.scale)));
    let name = opts.workload.name();
    let path = format!("{}/trace_{name}.json", crate::RESULTS);
    let written = std::fs::create_dir_all(crate::RESULTS)
        .and_then(|()| std::fs::write(&path, tr.chrome_trace(name, &meta)));
    match written {
        Ok(()) => println!("trace {path} ({} spans)", tr.spans().len()),
        Err(e) => println!("trace not written to {path}: {e}"),
    }
}

// ---------------------------------------------------------------------
// host, parallel surface
// ---------------------------------------------------------------------

fn host_and_parallel_surface(p: &mut Probe, scale: Scale) -> f64 {
    let nproc = host::nproc();
    p.put("host.nproc", nproc as f64);
    p.put(
        "par.threads",
        rayon::current_num_threads().min(nproc) as f64,
    );
    let (stream, _) = p.ms("host.stream_triad", || {
        host::stream_triad(scale == Scale::Full)
    });
    println!(
        "stream triad: {:.2} GB/s over 3 arrays of {} MiB (last-level cache {} MiB)",
        stream.gb_per_s,
        stream.array_bytes >> 20,
        stream.llc_bytes >> 20
    );
    p.put("host.stream_gb_per_s", stream.gb_per_s);
    stream.gb_per_s
}

// ---------------------------------------------------------------------
// bdm-sim::checkpoint
// ---------------------------------------------------------------------

fn checkpoint(p: &mut Probe, sim: &Simulation) -> Vec<u8> {
    let mut bytes = Vec::new();
    let (written, write_ms) = p.ms("checkpoint.write", || sim.checkpoint(&mut bytes));
    written.expect("checkpoint into memory");
    let (restored, read_ms) = p.ms("checkpoint.read", || {
        Simulation::restore(&mut bytes.as_slice())
    });
    drop(restored.expect("restore of a fresh checkpoint"));
    let mb = bytes.len() as f64 / 1e6;
    p.put("checkpoint.write_ms", write_ms);
    p.put("checkpoint.read_ms", read_ms);
    p.put("checkpoint.bytes", bytes.len() as f64);
    p.put(
        "checkpoint.bytes_per_agent",
        bytes.len() as f64 / sim.rm().len() as f64,
    );
    p.put("checkpoint.write_mb_per_s", mb / (write_ms / 1e3));
    p.put("checkpoint.read_mb_per_s", mb / (read_ms / 1e3));
    bytes
}

// ---------------------------------------------------------------------
// bdm-sim scheduler / operations
// ---------------------------------------------------------------------

/// Each operation's cost on the step after the probe step, isolated with
/// `Scheduler::set_enabled` on a twin restored from `bytes`. Every twin
/// first runs one full step (so scratch buffers exist and the
/// incremental grid has a previous build to compare with, as in the live
/// run), then the measured step with one operation enabled.
fn scheduler_ops(p: &mut Probe, bytes: &[u8]) {
    const OPS: [(&str, &str, &str); 5] = [
        ("reorder", "sim.reorder", "sim.reorder_ms"),
        ("behaviors", "sim.behaviors", "sim.behaviors_ms"),
        ("mechanical interactions", "sim.mech", "sim.mech_ms"),
        ("bound space", "sim.bound_space", "sim.bound_space_ms"),
        ("diffusion", "sim.diffusion", "sim.diffusion_ms"),
    ];
    let twin = || {
        let mut twin = Simulation::restore(&mut &bytes[..]).expect("restore of a fresh checkpoint");
        twin.step();
        twin
    };

    let mut full = twin();
    // Operations the workload itself runs on the measured step.
    let step = full.steps_executed();
    let due: Vec<String> = full
        .scheduler()
        .stats()
        .into_iter()
        .filter(|s| s.enabled && step % s.frequency == 0)
        .map(|s| s.name)
        .collect();
    let (_, full_ms) = p.ms("sim.step_full", || full.step());
    drop(full);

    let mut due_ms = 0.0;
    for (op, span, metric) in OPS {
        let mut twin = twin();
        let names: Vec<String> = twin
            .scheduler()
            .op_names()
            .into_iter()
            .map(String::from)
            .collect();
        for name in &names {
            twin.scheduler_mut().set_enabled(name, name == op);
        }
        // A reorder pass is measured even where it is not due (or never
        // runs); it then stays out of the step's self time below.
        twin.scheduler_mut().set_frequency(op, 1);
        let (_, ms) = p.ms(span, || twin.step());
        p.put(metric, ms);
        if due.iter().any(|d| d == op) {
            due_ms += ms;
        }
    }
    p.put("sim.step_self_ms", full_ms - due_ms);
}

// ---------------------------------------------------------------------
// bdm-sim::mech
// ---------------------------------------------------------------------

fn mech_environments(p: &mut Probe, sim: &Simulation) {
    let step = |p: &mut Probe, span, env: EnvironmentKind, precision| -> (MechWork, f64) {
        let params = sim.params().clone().with_precision(precision);
        let mut rm = sim.rm().clone();
        let mut scratch = MechScratch::default();
        // Untimed first call: allocates the scratch and builds the grid
        // the second call's incremental check compares against.
        mech::mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch);
        p.ms(span, || {
            mech::mechanical_step_with_scratch(&mut rm, &params, &env, None, &mut scratch)
        })
    };
    let csr = EnvironmentKind::uniform_grid_csr_parallel();
    let (_, kd_ms) = step(p, "mech.kdtree", EnvironmentKind::KdTree, Precision::F64);
    let ll = EnvironmentKind::uniform_grid_parallel();
    let (_, ll_ms) = step(p, "mech.ll", ll, Precision::F64);
    let (w64, f64_ms) = step(p, "mech.csr_f64", csr, Precision::F64);
    let (w32, f32_ms) = step(p, "mech.csr_f32", csr, Precision::F32Simd);
    p.put("mech.step_ms.kdtree", kd_ms);
    p.put("mech.step_ms.ll", ll_ms);
    p.put("mech.step_ms.csr_f64", f64_ms);
    p.put("mech.step_ms.csr_f32", f32_ms);
    let per_candidate = |ms: f64, w: &MechWork| ms * 1e6 / w.candidates as f64;
    p.put("mech.ns_per_candidate.csr_f64", per_candidate(f64_ms, &w64));
    p.put("mech.ns_per_candidate.csr_f32", per_candidate(f32_ms, &w32));
    p.put(
        "mech.contacts_per_candidate",
        w64.contacts as f64 / w64.candidates as f64,
    );
    p.put(
        "mech.index_gap",
        w64.index_gap.expect("a CSR pass that tested candidates"),
    );
    let simd = w32.simd.expect("lane counts of the f32 SIMD pass");
    p.put(
        "mech.simd_lane_occupancy",
        simd.lanes_utilized as f64 / (simd.lanes_utilized + simd.pad_lanes) as f64,
    );
}

// ---------------------------------------------------------------------
// bdm-sim::shard
// ---------------------------------------------------------------------

/// One steady step of a 4-shard twin of the scene's agents against an
/// unsharded twin (both CSR, f64, no behaviors).
fn shards(p: &mut Probe, sim: &Simulation) {
    let rm = sim.rm();
    let twin = |shards: usize| {
        let mut params = sim.params().clone().with_precision(Precision::F64);
        params.reorder.every = 0;
        if shards > 0 {
            params = params.with_shards(shards);
        }
        let mut twin = Simulation::new(params);
        twin.set_environment(EnvironmentKind::uniform_grid_csr_parallel());
        for i in 0..rm.len() {
            twin.add_cell(
                CellBuilder::new(rm.position(i))
                    .diameter(rm.diameter(i))
                    .adherence(rm.adherence(i)),
            );
        }
        // Untimed: sorts storage into shard order, builds the grids.
        twin.step();
        twin
    };
    let mut sharded = twin(4);
    let mut plain = twin(0);
    let (_, sharded_ms) = p.ms("shard.step", || sharded.step());
    let (_, plain_ms) = p.ms("shard.unsharded_step", || plain.step());
    let env = sharded.sharding().expect("with_shards(4) shards");
    p.put("shard.step_ms", sharded_ms);
    p.put("shard.over_unsharded", sharded_ms / plain_ms);
    p.put(
        "shard.halo_ratio",
        env.halo_agents() as f64 / rm.len() as f64,
    );
    p.put("shard.imbalance", env.imbalance());
}

// ---------------------------------------------------------------------
// bdm-grid, bdm-kdtree, bdm-math
// ---------------------------------------------------------------------

fn neighbor_structures(p: &mut Probe, sim: &Simulation) {
    let rm = sim.rm();
    let (xs, ys, zs) = rm.position_columns();
    let space = sim.params().space;
    let radius = mech::interaction_radius(rm, sim.params());
    let n = rm.len();
    let queries: Vec<usize> = (0..n).step_by(n.div_ceil(QUERY_SAMPLE).max(1)).collect();
    let at = |i: usize| Vec3::new(xs[i], ys[i], zs[i]);

    // Build / rebuild. Every space here is a cube, so the same positions
    // with x and y exchanged are a valid scene with different voxel keys:
    // rebuilding onto them takes the full counting-sort path, and
    // rebuilding onto them again takes the incremental skip.
    let (mut csr, build_ms) = p.ms("grid.csr_build", || {
        CsrGrid::build_parallel(xs, ys, zs, space, radius)
    });
    p.put("grid.csr_build_ms", build_ms);
    let mut scratch = CsrBuildScratch::default();
    let (skipped, moved_ms) = p.ms("grid.csr_rebuild_moved", || {
        csr.rebuild_parallel(ys, xs, zs, space, radius, &mut scratch)
    });
    assert!(!skipped, "exchanged coordinates must change voxel keys");
    p.put("grid.csr_rebuild_moved_ms", moved_ms);
    let (skipped, unmoved_ms) = p.ms("grid.csr_rebuild_unmoved", || {
        csr.rebuild_parallel(ys, xs, zs, space, radius, &mut scratch)
    });
    assert!(skipped, "an unchanged scene must take the incremental path");
    p.put("grid.csr_rebuild_unmoved_ms", unmoved_ms);
    csr.rebuild_parallel(xs, ys, zs, space, radius, &mut scratch);
    let (ll, ll_build_ms) = p.ms("grid.ll_build", || {
        UniformGrid::build_parallel(xs, ys, zs, space, radius)
    });
    p.put("grid.ll_build_ms", ll_build_ms);

    // Queries: the same strided sample of agents against each structure,
    // the visitor only counting.
    let (csr_counters, csr_ms) = p.ms("grid.csr_query", || {
        let mut total = bdm_grid::QueryCounters::default();
        let mut found = 0u64;
        for &i in &queries {
            let id = AgentId::from_index(i);
            total.merge(&csr.for_each_within(xs, ys, zs, at(i), radius, Some(id), |_| found += 1));
        }
        black_box(found);
        total
    });
    let (ll_counters, ll_ms) = p.ms("grid.ll_query", || {
        let mut total = bdm_grid::QueryCounters::default();
        let mut found = 0u64;
        for &i in &queries {
            let id = AgentId::from_index(i);
            total.merge(&ll.for_each_within(xs, ys, zs, at(i), radius, Some(id), |_| found += 1));
        }
        black_box(found);
        total
    });
    p.put(
        "grid.csr_query_ns_per_candidate",
        csr_ms * 1e6 / csr_counters.points_tested as f64,
    );
    p.put(
        "grid.ll_query_ns_per_candidate",
        ll_ms * 1e6 / ll_counters.points_tested as f64,
    );
    p.put(
        "grid.candidates_per_neighbor",
        csr_counters.points_tested as f64 / csr_counters.neighbors_found as f64,
    );

    let (tree, kd_build_ms) = p.ms("kdtree.build", || KdTree::build(xs, ys, zs));
    p.put("kdtree.build_ms", kd_build_ms);
    let (kd_counters, kd_ms) = p.ms("kdtree.query", || {
        let mut total = bdm_kdtree::QueryCounters::default();
        let mut found = 0u64;
        for &i in &queries {
            total.merge(&tree.for_each_within(at(i), radius, Some(i as u32), |_| found += 1));
        }
        black_box(found);
        total
    });
    p.put(
        "kdtree.query_ns_per_neighbor",
        kd_ms * 1e6 / kd_counters.neighbors_found as f64,
    );

    // Eq. 1 over the sampled agents' true neighbor pairs (collected
    // untimed): the arithmetic floor under `mech.ns_per_candidate.*`.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for &i in &queries {
        let id = AgentId::from_index(i);
        csr.for_each_within(xs, ys, zs, at(i), radius, Some(id), |j| {
            pairs.push((i as u32, j.0))
        });
    }
    let diameters = rm.diameter_column();
    let mech = sim.params().mech;
    let sweeps = FORCE_EVALUATIONS.div_ceil(pairs.len());
    let (_, force_ms) = p.ms("math.collision_force", || {
        let mut acc = Vec3::<f64>::zero();
        for _ in 0..sweeps {
            for &(i, j) in black_box(&pairs) {
                let (i, j) = (i as usize, j as usize);
                if let Some(f) = collision_force(
                    at(i),
                    diameters[i] / 2.0,
                    at(j),
                    diameters[j] / 2.0,
                    mech.repulsion,
                    mech.attraction,
                ) {
                    acc += f;
                }
            }
        }
        black_box(acc)
    });
    p.put(
        "math.force_ns_per_pair_f64",
        force_ms * 1e6 / (sweeps * pairs.len()) as f64,
    );
}

// ---------------------------------------------------------------------
// bdm-morton, bdm-soa
// ---------------------------------------------------------------------

/// The reorder operation's kernels on the agent columns put back into
/// insertion (uid) order, i.e. the gather a first reorder performs.
fn reorder_kernels(p: &mut Probe, sim: &Simulation) {
    let rm = sim.rm();
    let space = sim.params().space;
    let radius = mech::interaction_radius(rm, sim.params());
    let by_uid = Permutation::sorting_by_key(rm.uid_column());
    let (xs, ys, zs) = rm.position_columns();
    let mut cols: Vec<Vec<f64>> = [xs, ys, zs, rm.diameter_column(), rm.adherence_column()]
        .into_iter()
        .map(|c| by_uid.apply(c))
        .collect();

    let (keys, keys_ms) = p.ms("morton.cell_keys", || {
        bdm_morton::cell_keys(&cols[0], &cols[1], &cols[2], &space, radius, Curve::ZOrder)
    });
    black_box(keys);
    p.put("morton.cell_keys_ms", keys_ms);
    let (perm, sort_ms) = p.ms("morton.sort_permutation", || {
        bdm_morton::sort_permutation(&cols[0], &cols[1], &cols[2], &space, radius)
    });
    p.put("morton.sort_permutation_ms", sort_ms);

    let mut scratch = Vec::new();
    let mut permute = |p: &mut Probe, span, perm: &Permutation| {
        let mut refs: Vec<&mut Vec<f64>> = cols.iter_mut().collect();
        p.ms(span, || {
            perm.apply_columns_in_place(&mut refs, &mut scratch)
        })
        .1
    };
    let gather_ms = permute(p, "soa.permute_columns", &perm);
    p.put("soa.permute_columns_ms", gather_ms);
    let identity_ms = permute(p, "soa.permute_identity", &Permutation::identity(rm.len()));
    p.put("soa.permute_identity_ms", identity_ms);

    // Steady-state refresh of the f32 shadows (buffers already sized).
    let mut packed = F32x4Mirror::new();
    let mut adherence = F32Mirror::new();
    let mut refresh = |epoch: u64| {
        packed.refresh(epoch, epoch, &cols[0], &cols[1], &cols[2], &cols[3])
            + adherence.refresh(epoch, &cols[4])
    };
    refresh(1);
    let (converted, refresh_ms) = p.ms("soa.mirror_refresh", || refresh(2));
    assert_eq!(converted, 5 * rm.len() as u64);
    p.put("soa.mirror_refresh_ms", refresh_ms);
}

// ---------------------------------------------------------------------
// bdm-sim::diffusion
// ---------------------------------------------------------------------

/// The solvers on copies of the scene's first field.
fn diffusion(p: &mut Probe, sim: &Simulation, stream_gb_per_s: f64) {
    let field = sim.diffusion_grids()[0].clone();
    let dt = sim.params().mech.timestep;
    // Each solver runs twice on its own copy; the second run is timed
    // (the f32 path sizes its staging buffers on first use).
    let mut tiled = field.clone();
    tiled.step_in(dt, Precision::F64);
    let (stats, f64_ms) = p.ms("diffusion.step_f64", || tiled.step_in(dt, Precision::F64));
    let mut narrow = field.clone();
    narrow.step_in(dt, Precision::F32Simd);
    let (_, f32_ms) = p.ms("diffusion.step_f32", || {
        narrow.step_in(dt, Precision::F32Simd)
    });
    let mut reference = field;
    reference.step_reference(dt);
    let (_, reference_ms) = p.ms("diffusion.step_reference", || reference.step_reference(dt));

    p.put("diffusion.step_ms_f64", f64_ms);
    p.put("diffusion.step_ms_f32", f32_ms);
    p.put("diffusion.reference_step_ms", reference_ms);
    p.put("diffusion.tiled_over_reference", f64_ms / reference_ms);
    let seconds = f64_ms / 1e3;
    p.put(
        "diffusion.voxel_updates_per_s",
        stats.voxel_updates as f64 / seconds,
    );
    // Computed, not measured, traffic — the program's own work model:
    // 2 words per interior update, 8 per peeled-face update.
    let faces = stats.voxel_updates - stats.interior_updates;
    let computed_gb = 8.0 * (2.0 * stats.interior_updates as f64 + 8.0 * faces as f64) / 1e9;
    p.put("diffusion.computed_gb_per_s", computed_gb / seconds);
    p.put(
        "diffusion.bw_fraction",
        computed_gb / seconds / stream_gb_per_s,
    );
    p.put("diffusion.substeps", stats.substeps as f64);
    p.put("diffusion.interior_fraction", stats.interior_fraction());
}

// ---------------------------------------------------------------------
// bdm-gpu, bdm-device
// ---------------------------------------------------------------------

/// Owned columns of the scene handed to the GPU simulator (the resident
/// probe installs the positions a step returns, as `Simulation` does).
struct GpuScene {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    diameters: Vec<f64>,
    adherences: Vec<f64>,
    space: Aabb<f64>,
    box_len: f64,
}

impl GpuScene {
    fn of(sim: &Simulation) -> Self {
        let rm = sim.rm();
        let (xs, ys, zs) = rm.position_columns();
        Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            zs: zs.to_vec(),
            diameters: rm.diameter_column().to_vec(),
            adherences: rm.adherence_column().to_vec(),
            space: sim.params().space,
            box_len: mech::interaction_radius(rm, sim.params()),
        }
    }

    fn as_ref(&self) -> SceneRef<'_> {
        SceneRef {
            xs: &self.xs,
            ys: &self.ys,
            zs: &self.zs,
            diameters: &self.diameters,
            adherences: &self.adherences,
            space: self.space,
            box_len: self.box_len,
        }
    }
}

fn gpu(p: &mut Probe, sim: &Simulation) {
    let mut scene = GpuScene::of(sim);
    let n = scene.xs.len();
    let mech = sim.params().mech;
    let pipeline =
        || MechanicalPipeline::new(SYSTEM_A, ApiFrontend::Cuda, KernelVersion::V2Sorted, 1);

    // `MechanicalPipeline::step`: everything re-uploaded every step. The
    // first call allocates the device buffers; the second is timed.
    let mut offload = pipeline();
    offload.step(&scene.as_ref(), &mech);
    let ((_, report), host_ms): ((_, GpuStepReport), f64) =
        p.ms("gpu.step", || offload.step(&scene.as_ref(), &mech));
    let c = &report.counters;
    p.put("gpu.host_ms_per_step", host_ms);
    p.put(
        "gpu.host_us_per_traced_warp",
        host_ms * 1e3 / c.warps_traced as f64,
    );
    p.put("gpu.sim_total_ms", report.total_s * 1e3);
    p.put("gpu.sim_build_ms", report.build_s * 1e3);
    p.put("gpu.sim_mech_ms", report.mech_s * 1e3);
    p.put("gpu.sim_h2d_ms", report.h2d_s * 1e3);
    p.put("gpu.sim_d2h_ms", report.d2h_s * 1e3);
    p.put("gpu.bytes_h2d", report.bytes_h2d as f64);
    p.put("gpu.bytes_d2h", report.bytes_d2h as f64);
    p.put("gpu.l2_hit_ratio", c.l2_hits / (c.l2_hits + c.l2_misses));
    p.put(
        "gpu.transactions_per_agent",
        c.global_transactions / n as f64,
    );
    p.put("gpu.sort_gathers", f64::from(report.sort_gathers));
    p.put("gpu.midstep_syncs", f64::from(report.midstep_syncs));
    p.put(
        "gpu.device_allocated_mb",
        offload.device_allocated_bytes() as f64 / 1e6,
    );

    // `step_resident`: the first call uploads everything; the host then
    // installs the returned positions (as `Simulation` does), so the
    // second call is the steady state and must move nothing to the device.
    let mut resident = pipeline();
    let uids: Vec<u64> = (0..n as u64).collect();
    let (positions, _) = resident.step_resident(&scene.as_ref(), &uids, &mech);
    for (i, q) in positions.iter().enumerate() {
        (scene.xs[i], scene.ys[i], scene.zs[i]) = (q.x, q.y, q.z);
    }
    let ((_, steady), resident_ms) = p.ms("gpu.step_resident", || {
        resident.step_resident(&scene.as_ref(), &uids, &mech)
    });
    p.put("gpu.resident_host_ms_per_step", resident_ms);
    p.put("gpu.resident_bytes_h2d_steady", steady.bytes_h2d as f64);
}
