//! Fig. 2 regenerator: a cross-sectional view of the cell-division
//! model, cells colored by diameter, written as a PPM image.

use crate::cli::Args;
use bdm_sim::render::{render_simulation, Image};
use bdm_sim::workload::benchmark_a;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn write(img: &Image, out: &Path) -> std::io::Result<()> {
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(out)?);
    img.write_ppm(&mut w)?;
    w.flush()
}

/// `fig2_visualization [PATH]`: render the image to `PATH` (default
/// `results/fig2_cell_division.ppm`).
pub fn main(args: &Args) -> ExitCode {
    let default = || PathBuf::from("results/fig2_cell_division.ppm");
    let out = args.path.clone().unwrap_or_else(default);
    // Fig. 2 runs the module "with fewer cells and a longer runtime"
    // than benchmark A, so the diameter spread is visible.
    let mut sim = benchmark_a(args.scale.a_cells_per_dim.min(20), 0x2);
    sim.simulate(15);
    let img = render_simulation(&sim, 800);
    if let Err(e) = write(&img, &out) {
        eprintln!("bdm-bench: {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "Fig. 2: rendered {} cells ({}x{} px, colored by diameter) to {}",
        sim.rm().len(),
        img.width(),
        img.height(),
        out.display()
    );
    ExitCode::SUCCESS
}
