//! Table I regenerator: the benchmark system specifications.

use crate::cli::Args;
use crate::table;
use bdm_device::specs::{SystemSpec, SYSTEM_A, SYSTEM_B};
use std::process::ExitCode;

/// Render Table I from the encoded specs.
pub fn render() -> String {
    let row = |s: &SystemSpec| -> Vec<String> {
        vec![
            s.name.to_string(),
            s.gpu.name.to_string(),
            format!("{} GB", s.gpu.dram_bytes >> 30),
            format!("{:.0} GB/s", s.gpu.dram_bandwidth / 1e9),
            format!("{:.2} TFLOPS", s.gpu.fp32_flops / 1e12),
            format!("{:.3} TFLOPS", s.gpu.fp64_flops / 1e12),
            s.cpu.name.to_string(),
            format!(
                "{} ({} sockets, {} threads)",
                s.cpu.total_cores(),
                s.cpu.sockets,
                s.cpu.total_cores() * 2
            ),
            format!("{} GB", s.cpu.dram_bytes >> 30),
        ]
    };
    table::render(
        &[
            "",
            "GPU chip",
            "GPU RAM",
            "Mem BW",
            "FP32 perf",
            "FP64 perf",
            "CPU chip",
            "CPU cores",
            "CPU DRAM",
        ],
        &[row(&SYSTEM_A), row(&SYSTEM_B)],
    )
}

/// `table1`: regenerate the paper's Table I from the encoded machine
/// specs.
pub fn main(_: &Args) -> ExitCode {
    println!("Table I: Specifications of the systems used for benchmarking\n");
    println!("{}", render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_contains_paper_values() {
        let t = super::render();
        for needle in [
            "GTX 1080 Ti",
            "Tesla V100",
            "484 GB/s",
            "900 GB/s",
            "11.34 TFLOPS",
            "15.70 TFLOPS",
            "0.354 TFLOPS",
            "7.800 TFLOPS",
            "E5-2640",
            "Gold 6130",
            "20 (2 sockets, 40 threads)",
            "32 (2 sockets, 64 threads)",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }
}
