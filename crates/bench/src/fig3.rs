//! Fig. 3 regenerator: runtime profile of the cell-division benchmark.
//!
//! The paper profiles benchmark A on the kd-tree baseline and finds the
//! mechanical interactions operation dominant: 51 % of the runtime in
//! the force calculations and 36 % in the neighborhood update. This
//! module reruns that profile (work counters from real execution, time
//! from the System A CPU model) and reports the same shares.

use crate::cli::Args;
use crate::emit;
use crate::scale::BenchScale;
use bdm_device::cpu::CpuModel;
use bdm_device::specs::SYSTEM_A;
use bdm_metrics::MetricsRegistry;
use bdm_sim::work_model::{MECHANICAL_FORCES, NEIGHBORHOOD_BUILD, NEIGHBORHOOD_SEARCH};
use bdm_sim::workload::benchmark_a;
use bdm_sim::EnvironmentKind;
use std::process::ExitCode;

/// One profile line.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Operation name.
    pub name: String,
    /// Modeled seconds on System A.
    pub modeled_s: f64,
    /// Share of the total.
    pub share: f64,
}

/// The regenerated profile.
#[derive(Debug, Clone)]
pub struct Fig3Report {
    /// Per-operation rows, pipeline order.
    pub rows: Vec<ProfileRow>,
    /// Combined share of the mechanical interactions operation
    /// (build + search + forces) — the paper's "by a large margin".
    pub mech_share: f64,
    /// Share of the force phase alone (paper: 51 %).
    pub forces_share: f64,
    /// Share of the neighborhood update (build + search; paper: 36 %).
    pub neighborhood_share: f64,
    /// Rendered text breakdown.
    pub rendered: String,
}

/// Run benchmark A on the kd-tree baseline and profile it.
pub fn run(scale: &BenchScale) -> Fig3Report {
    let mut sim = benchmark_a(scale.a_cells_per_dim, 0xA);
    sim.set_environment(EnvironmentKind::KdTree);
    sim.simulate(scale.a_steps);

    let model = CpuModel::new(SYSTEM_A.cpu);
    // Fig. 3 profiles the stock single-threaded run: the shares match the
    // paper's 51 % forces / 36 % neighborhood split at one thread (the
    // serial kd build would otherwise dominate any multithreaded share).
    let threads = 1;
    let per_op = sim.profiler().modeled_per_op(&model, threads);
    let total: f64 = per_op.iter().map(|(_, t)| t).sum();
    let rows: Vec<ProfileRow> = per_op
        .iter()
        .map(|(name, t)| ProfileRow {
            name: name.clone(),
            modeled_s: *t,
            share: t / total,
        })
        .collect();
    let share_of = |name: &str| -> f64 {
        rows.iter()
            .filter(|r| r.name == name)
            .map(|r| r.share)
            .sum()
    };
    let forces_share = share_of(MECHANICAL_FORCES);
    let neighborhood_share = share_of(NEIGHBORHOOD_BUILD) + share_of(NEIGHBORHOOD_SEARCH);
    let rendered = sim.profiler().render_breakdown(&model, threads);
    Fig3Report {
        mech_share: forces_share + neighborhood_share,
        forces_share,
        neighborhood_share,
        rows,
        rendered,
    }
}

/// `fig3_profile [--json[=DIR]]`: regenerate Fig. 3, the runtime
/// profile of the cell-division benchmark (kd-tree baseline, modeled on
/// System A's Xeon at one thread); `--json` also serializes the profile
/// as `BENCH_fig3.json`.
pub fn main(args: &Args) -> ExitCode {
    let scale = &args.scale;
    println!(
        "Fig. 3: cell-division benchmark profile ({}^3 = {} cells, {} steps)\n",
        scale.a_cells_per_dim,
        scale.a_cells(),
        scale.a_steps
    );
    let r = run(scale);
    println!("{}", r.rendered);
    println!(
        "mechanical interactions share: {:.0}% (forces {:.0}%, neighborhood {:.0}%)",
        r.mech_share * 100.0,
        r.forces_share * 100.0,
        r.neighborhood_share * 100.0
    );
    println!("paper reports: forces 51%, neighborhood update 36% (sum 87%)");

    let mut reg = MetricsRegistry::new();
    for row in &r.rows {
        let labels = [("op", row.name.as_str())];
        reg.set_gauge("fig3.modeled_s", &labels, row.modeled_s);
        reg.set_gauge("fig3.share", &labels, row.share);
    }
    reg.set_gauge("fig3.mech_share", &[], r.mech_share);
    reg.set_gauge("fig3.forces_share", &[], r.forces_share);
    reg.set_gauge("fig3.neighborhood_share", &[], r.neighborhood_share);
    emit::finish(args, "fig3", &reg, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanical_op_dominates_profile() {
        let r = run(&BenchScale::smoke());
        assert!(
            r.mech_share > 0.7,
            "mechanical interactions should dominate, got {:.2}",
            r.mech_share
        );
        // Forces outweigh the neighborhood update, as in Fig. 3.
        assert!(
            r.forces_share > r.neighborhood_share,
            "forces {:.2} vs neighborhood {:.2}",
            r.forces_share,
            r.neighborhood_share
        );
        assert!(r.rendered.contains("mechanical forces"));
    }
}
