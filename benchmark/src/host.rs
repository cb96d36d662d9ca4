//! What the harness reads from the host: peak memory of this process,
//! processor and cache sizes, and a measured streaming bandwidth to hold
//! the diffusion solver's computed traffic against.

use std::hint::black_box;
use std::time::Instant;

/// `VmHWM` of this process in kB (0 where `/proc` is not available).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Data and unified caches of cpu0 as `(level, bytes)`, from sysfs.
pub fn caches() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().map(|m| m << 20),
                None => size.parse(),
            },
        };
        if let (Ok(level), Ok(bytes)) = (level.trim().parse(), bytes) {
            out.push((level, bytes));
        }
    }
    out
}

/// `"L1 48K, L2 2048K, L3 266240K"` for the echo into output documents.
pub fn caches_label() -> String {
    let parts: Vec<String> = caches()
        .iter()
        .map(|(level, bytes)| format!("L{level} {}K", bytes >> 10))
        .collect();
    if parts.is_empty() {
        "unknown".into()
    } else {
        parts.join(", ")
    }
}

/// Outcome of the STREAM-triad probe.
pub struct Stream {
    /// Best-of-passes bandwidth, counting 3 words moved per element.
    pub gb_per_s: f64,
    /// Bytes in each of the three arrays.
    pub array_bytes: u64,
    /// The last-level cache the arrays were sized against.
    pub llc_bytes: u64,
}

/// `a[i] = b[i] + s * c[i]` over three arrays of four times the
/// last-level cache each, clamped to 64 … 256 MiB, best of three passes.
/// (The cap binds on the host this was written on: sysfs reports the
/// whole socket's 260 MiB L3 to a 2-vCPU guest, first touch of guest
/// memory costs ≈ 20 µs per page, and the measured bandwidth is flat —
/// 12.4 … 13.5 GB/s — from 64 MiB to 1 GiB per array.)
///
/// `full_size: false` (the harness's quick mode) stops at the 64 MiB.
pub fn stream_triad(full_size: bool) -> Stream {
    let llc_bytes = caches().iter().map(|&(_, b)| b).max().unwrap_or(32 << 20);
    let cap = if full_size { 256 << 20 } else { 64 << 20 };
    let array_bytes = (4 * llc_bytes).clamp(64 << 20, cap);
    let n = (array_bytes / 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    Stream {
        gb_per_s: 3.0 * array_bytes as f64 / best / 1e9,
        array_bytes,
        llc_bytes,
    }
}

/// Where, on what and from which sources a document was produced; echoed
/// into every output document.
pub fn echo() -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("commit", env("BENCH_COMMIT")),
        ("rustc", env("BENCH_RUSTC")),
        ("nproc", nproc().to_string()),
        ("caches", caches_label()),
        (
            "par_threads",
            rayon::current_num_threads().min(nproc()).to_string(),
        ),
    ]
}
