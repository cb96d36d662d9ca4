//! Diagnostic: raw work counters of one benchmark-A step per environment.
use bdm_sim::workload::benchmark_a;
use bdm_sim::{EnvironmentKind, Precision};

fn main() {
    for (env, precision) in [
        (EnvironmentKind::KdTree, Precision::F64),
        (EnvironmentKind::uniform_grid_parallel(), Precision::F64),
        (EnvironmentKind::uniform_grid_csr_parallel(), Precision::F64),
        (
            EnvironmentKind::uniform_grid_csr_parallel(),
            Precision::F32Simd,
        ),
    ] {
        let seed = benchmark_a(24, 0xA);
        let mut sim = bdm_sim::Simulation::new(seed.params().clone().with_precision(precision));
        *sim.rm_mut() = seed.rm().clone();
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
}
