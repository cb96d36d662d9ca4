//! `bdm-bench <command> [arguments]` — every table, figure, ablation,
//! bench table and diagnostic of the crate behind one binary; see
//! `bdm-bench list` and [`bdm_bench::cli`].

fn main() -> std::process::ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    bdm_bench::cli::run(&raw)
}
