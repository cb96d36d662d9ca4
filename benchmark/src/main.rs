//! The repo's end-to-end benchmark (see `BENCHMARK.json` and README.md).
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line last
//! run.sh [--seed N] [--quick]                             every workload, both passes
//! ```
//!
//! The parent process measures nothing itself: every round of a workload
//! runs in a fresh child (`bdm-benchmark round …`, see `round.rs`), one
//! at a time, and the parent folds the rounds into the published numbers.

mod checks;
mod digest;
mod host;
mod probes;
mod round;
mod stats;
mod trace;
mod workloads;

use probes::Metric;
use round::{Options, Report};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::json_string;
use workloads::{Scale, Workload};

/// Plain rounds per workload behind every end-to-end number. The
/// estimator is a floor, and a floor over more samples can only be lower,
/// so the count belongs to the benchmark: it is not a knob, and it does
/// not depend on how fast the program or the host is (README.md has the
/// spread measured at this setting). `--seconds` can only cut a run short.
const ROUNDS: usize = 8;
/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to. Sized
/// so that [`ROUNDS`] rounds fit even in this host's slow hours.
const DEFAULT_SECONDS: f64 = 30.0;
/// Sweeps of {plain, spans-only, serial} rounds after the traced pass's
/// probing round; its two ratios compare floors of this many samples.
const TRACED_SWEEPS: usize = 2;
/// Where the harness writes, relative to the repo root (`run.sh` starts
/// it there).
const RESULTS: &str = "benchmark/results";
/// Where the full run appends its one line per invocation.
const HISTORY: &str = "benchmark/results/history.jsonl";

// ---------------------------------------------------------------------
// command line
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Args {
    child: bool,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    quick: bool,
    verify: bool,
    spans: bool,
    probes: bool,
    serial: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_some_and(|a| a == "round") {
        args.child = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = Some(value("a number")?.parse().map_err(|e| bad(&e))?),
            "--seconds" => args.seconds = Some(value("a number")?.parse().map_err(|e| bad(&e))?),
            "--trace" => args.trace = Some(value("0 or 1")?.parse().map_err(|e| bad(&e))?),
            "--quick" => args.quick = true,
            "--verify" => args.verify = true,
            "--spans" => args.spans = true,
            "--probes" => args.probes = true,
            "--serial" => args.serial = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bdm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = match args.workload.as_deref().map(Workload::from_name) {
        Some(None) => {
            eprintln!("bdm-benchmark: unknown workload {:?}", args.workload);
            return ExitCode::from(2);
        }
        Some(w) => w,
        None => None,
    };
    let cfg = Config {
        seed: args.seed.unwrap_or(42),
        scale: if args.quick {
            Scale::Quick
        } else {
            Scale::Full
        },
    };
    if args.child {
        let Some(workload) = workload else {
            eprintln!("bdm-benchmark round: --workload is required");
            return ExitCode::from(2);
        };
        print!(
            "{}",
            round::run(Options {
                verify: args.verify,
                spans: args.spans,
                probes: args.probes,
                serial: args.serial,
                ..cfg.round(workload)
            })
            .to_wire()
        );
        return ExitCode::SUCCESS;
    }
    let all_passed = match workload {
        Some(w) => one_workload(
            w,
            cfg,
            args.seconds.unwrap_or(DEFAULT_SECONDS),
            args.trace == Some(1),
        ),
        None => every_workload(cfg),
    };
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// running rounds
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Config {
    seed: u64,
    scale: Scale,
}

impl Config {
    /// Plain rounds per workload in the untraced pass.
    fn rounds(self) -> usize {
        match self.scale {
            Scale::Full => ROUNDS,
            Scale::Quick => 1,
        }
    }

    /// Sweeps after the traced pass's probing round.
    fn traced_sweeps(self) -> usize {
        match self.scale {
            Scale::Full => TRACED_SWEEPS,
            Scale::Quick => 1,
        }
    }

    /// A plain round of `workload`: no checks beyond the per-round ones,
    /// no spans, no probes, parallel mode.
    fn round(self, workload: Workload) -> Options {
        Options {
            workload,
            seed: self.seed,
            scale: self.scale,
            verify: false,
            spans: false,
            probes: false,
            serial: false,
        }
    }
}

/// Run one round in a child process and wait for it. `None` when the
/// child crashed or did not finish its report.
fn spawn(opts: Options) -> Option<Report> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["round", "--workload", opts.workload.name(), "--seed"])
        .arg(opts.seed.to_string());
    let flags = [
        (opts.scale == Scale::Quick, "--quick"),
        (opts.verify, "--verify"),
        (opts.spans, "--spans"),
        (opts.probes, "--probes"),
        (opts.serial, "--serial"),
    ];
    cmd.args(flags.iter().filter(|f| f.0).map(|f| f.1));
    let output = cmd.output().expect("spawn a round");
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text
        .lines()
        .filter(|l| l.starts_with("trace ") || l.starts_with("stream "))
    {
        println!("{line}");
    }
    let report = output
        .status
        .success()
        .then(|| Report::from_wire(&text))
        .flatten();
    if report.is_none() {
        println!(
            "round of {} failed ({}): {}",
            opts.workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        );
    }
    report
}

/// Every round of one workload in one invocation, and how they went.
#[derive(Default)]
struct Rounds {
    /// Plain untraced rounds: the end-to-end samples.
    plain: Vec<Report>,
    /// Rounds with span recording on (traced pass).
    spans: Vec<Report>,
    /// Serial-mode rounds (traced pass).
    serial: Vec<Report>,
    /// Per-layer metrics of the probing round (traced pass).
    layers: Vec<Metric>,
    /// (final-state digest, exact-counter digest) of every round whose
    /// steps all succeeded.
    digests: Vec<(u64, u64)>,
    /// Operations attempted: steps, checks, and children that crashed.
    attempted: u64,
    /// Operations failed.
    failed: u64,
}

impl Rounds {
    /// Run one round and book its operations.
    fn run(&mut self, opts: Options) {
        let name = opts.workload.name();
        let Some(mut report) = spawn(opts) else {
            self.attempted += 1;
            self.failed += 1;
            return;
        };
        self.attempted += (report.step_s.len() + report.checks.len()) as u64;
        self.failed += report.failed_steps;
        for c in &report.checks {
            if !c.passed {
                self.failed += 1;
                println!("CHECK FAILED {name} {}: {}", c.name, c.detail);
            } else if opts.verify {
                println!("  check {name} {:<26} ok  {}", c.name, c.detail);
            }
        }
        if report.failed_steps == 0 {
            self.digests.push((report.digest, report.counters_digest));
        }
        if opts.probes {
            // Its step loop carries the probes' cache and allocator
            // footprint: a source of layer metrics, not of step samples.
            self.layers = std::mem::take(&mut report.layers);
        } else if opts.serial {
            self.serial.push(report);
        } else if opts.spans {
            self.spans.push(report);
        } else {
            self.plain.push(report);
        }
    }

    /// The cross-round checks: a deterministic program given one seed
    /// must end every round — plain, traced or serial, the serial and
    /// parallel grids being bitwise equal — in the same state with the
    /// same counters.
    fn check_determinism(&mut self, w: Workload) {
        let same =
            |key: fn(&(u64, u64)) -> u64| self.digests.windows(2).all(|p| key(&p[0]) == key(&p[1]));
        let verdicts = [
            ("final-state digest", same(|d| d.0)),
            ("exact counters", same(|d| d.1)),
        ];
        for (what, identical) in verdicts {
            self.attempted += 1;
            if !identical {
                self.failed += 1;
                println!("CHECK FAILED {}: {what} differs between rounds", w.name());
            }
        }
    }
}

fn step_rounds(rounds: &[Report]) -> Vec<Vec<f64>> {
    rounds.iter().map(|r| r.step_s.clone()).collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(rounds: &[Report]) -> Vec<Metric> {
    let column = |f: fn(&Report) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let steps = step_rounds(rounds);
    let run_s = stats::composite_floor(&steps);
    let agent_steps: u64 = rounds.first().map_or(0, |r| r.agents.iter().sum());
    vec![
        Metric::new("run_s", "s", run_s),
        Metric::new("agent_steps_per_s", "1/s", agent_steps as f64 / run_s),
        Metric::new(
            "peak_rss_mb",
            "MB",
            stats::median(&column(|r| r.peak_rss_kb as f64)) * 1024.0 / 1e6,
        ),
        Metric::new("setup_s", "s", stats::floor(&column(|r| r.setup_s))),
    ]
}

/// Median and spread of the per-round totals behind the floors, and the
/// step-time distribution as far as the sample supports one.
fn print_context(rounds: &[Report], cfg: Config) {
    let totals: Vec<f64> = rounds.iter().map(|r| r.step_s.iter().sum()).collect();
    let iqr = stats::iqr_share(&totals).map_or("n/a".into(), |s| format!("{:.1} %", s * 100.0));
    println!(
        "  context: {} of {} rounds; per-round run total median {:.4} s, IQR {iqr} of median, \
         fastest single round {:.4} s",
        rounds.len(),
        cfg.rounds(),
        stats::median(&totals),
        stats::floor(&totals),
    );
    let steps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.step_s.iter().copied())
        .collect();
    let tail = stats::supported_percentile(steps.len()).map_or(String::new(), |p| {
        format!(", p{p} {:.3} ms", stats::percentile(&steps, p) * 1e3)
    });
    println!(
        "  context: {} step samples, median {:.3} ms{tail}",
        steps.len(),
        stats::median(&steps) * 1e3
    );
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

// ---------------------------------------------------------------------
// the two passes
// ---------------------------------------------------------------------

/// The untraced pass: [`Config::rounds`] plain rounds of every workload
/// in `workloads`, round-robin, so each workload's samples span the whole
/// pass. The last round also runs the once-per-invocation checks. A round
/// that would still be running `seconds` after the pass began is not
/// started (the one before it is then the last); on a host that slow the
/// context line shows the shortfall.
fn untraced_pass(workloads: &[Workload], cfg: Config, seconds: f64) -> Vec<Rounds> {
    let mut all: Vec<Rounds> = workloads.iter().map(|_| Rounds::default()).collect();
    let began = Instant::now();
    let mut longest_sweep = 0.0f64;
    for done in 0..cfg.rounds() {
        // Room for this round and one more?
        let out_of_time = began.elapsed().as_secs_f64() + 2.0 * longest_sweep > seconds;
        let last = done + 1 == cfg.rounds() || out_of_time;
        let sweep = Instant::now();
        for (w, rounds) in workloads.iter().zip(&mut all) {
            rounds.run(Options {
                verify: last,
                ..cfg.round(*w)
            });
        }
        longest_sweep = longest_sweep.max(sweep.elapsed().as_secs_f64());
        if last {
            break;
        }
    }
    for (w, rounds) in workloads.iter().zip(&mut all) {
        rounds.check_determinism(*w);
    }
    all
}

/// The traced pass of one workload: one probing round, then
/// [`Config::traced_sweeps`] sweeps of {plain, spans-only, serial} rounds,
/// so the two ratios below compare floors of equally many samples taken
/// side by side. A sweep that would still be running `seconds` after the
/// pass began is not started, the first excepted.
fn traced_pass(w: Workload, cfg: Config, seconds: f64) -> Rounds {
    let mut rounds = Rounds::default();
    let began = Instant::now();
    let plain = cfg.round(w);
    rounds.run(Options {
        probes: true,
        ..plain
    });
    for done in 0..cfg.traced_sweeps() {
        let sweep = Instant::now();
        rounds.run(plain);
        rounds.run(Options {
            spans: true,
            ..plain
        });
        rounds.run(Options {
            serial: true,
            ..plain
        });
        let sweeps = done + 1;
        if began.elapsed().as_secs_f64() + sweep.elapsed().as_secs_f64() > seconds
            && sweeps < cfg.traced_sweeps()
        {
            println!("  out of time: {sweeps} of {} sweeps", cfg.traced_sweeps());
            break;
        }
    }
    rounds.check_determinism(w);
    let floor = |r: &[Report]| stats::composite_floor(&step_rounds(r));
    let parallel = floor(&rounds.plain);
    let serial = floor(&rounds.serial) / parallel;
    let traced = floor(&rounds.spans) / parallel;
    let worst = stats::step_floors(&step_rounds(&rounds.plain))
        .into_iter()
        .fold(0.0, f64::max);
    let checkpoint: Vec<f64> = rounds.plain.iter().map(|r| r.checkpoint_s).collect();
    rounds.layers.extend([
        Metric::per_layer("sim.step_ms_worst", worst * 1e3),
        Metric::per_layer(
            "checkpoint.round_trip_floor_ms",
            stats::floor(&checkpoint) * 1e3,
        ),
        Metric::per_layer("par.serial_over_parallel", serial),
        Metric::per_layer("trace.overhead_ratio", traced),
    ]);
    rounds.layers = probes::in_reporting_order(std::mem::take(&mut rounds.layers));
    rounds
}

/// `--workload W --seconds S --trace T`: the contract the driver runs.
fn one_workload(w: Workload, cfg: Config, seconds: f64, traced: bool) -> bool {
    print_header(cfg, w.name());
    let (rounds, metrics) = if traced {
        let rounds = traced_pass(w, cfg, seconds);
        let metrics = rounds.layers.clone();
        (rounds, metrics)
    } else {
        let rounds = untraced_pass(&[w], cfg, seconds).remove(0);
        print_context(&rounds.plain, cfg);
        let metrics = end_to_end(&rounds.plain);
        (rounds, metrics)
    };
    print_metrics(w.name(), &metrics);
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rounds.failed == 0,
        rounds.attempted,
        rounds.failed,
        values.join(",")
    );
    rounds.failed == 0
}

/// No `--workload`: both passes over every workload, every metric
/// printed, one line appended to the history.
fn every_workload(cfg: Config) -> bool {
    print_header(cfg, "all workloads");
    let untraced = untraced_pass(&Workload::ALL, cfg, f64::INFINITY);
    let mut attempted = 0;
    let mut failed = 0;
    let mut history = Vec::new();
    for (w, rounds) in Workload::ALL.iter().zip(&untraced) {
        let metrics = end_to_end(&rounds.plain);
        print_metrics(
            &format!("\n== {} (end to end, tracing off) ==", w.name()),
            &metrics,
        );
        print_context(&rounds.plain, cfg);
        attempted += rounds.attempted;
        failed += rounds.failed;
        let values: Vec<String> = metrics
            .iter()
            .map(|m| format!("{}:{}", json_string(&m.name), json_number(m.value)))
            .collect();
        history.push(format!(
            "{}:{{{}}}",
            json_string(w.name()),
            values.join(",")
        ));
    }
    for w in Workload::ALL {
        let rounds = traced_pass(w, cfg, f64::INFINITY);
        print_metrics(
            &format!("\n== {} (per layer, traced pass) ==", w.name()),
            &rounds.layers,
        );
        attempted += rounds.attempted;
        failed += rounds.failed;
    }
    println!(
        "\noperations attempted {attempted}, failed {failed}, failed_share {}",
        failed as f64 / attempted as f64
    );
    if cfg.scale == Scale::Quick {
        println!("--quick: one round at one-eighth size; NOT comparable, not recorded");
    } else {
        let mut fields: Vec<String> = host::echo()
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        fields.push(format!("\"seed\":{}", cfg.seed));
        fields.push(format!("\"rounds\":{ROUNDS}"));
        fields.push(format!("\"failed\":{failed}"));
        fields.push(format!("\"workloads\":{{{}}}", history.join(",")));
        let line = format!("{{{}}}\n", fields.join(","));
        let appended = std::fs::create_dir_all(RESULTS)
            .and_then(|()| {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(HISTORY)
            })
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
        match appended {
            Ok(()) => println!("appended to {HISTORY}"),
            Err(e) => println!("could not append to {HISTORY}: {e}"),
        }
    }
    failed == 0
}

fn print_header(cfg: Config, what: &str) {
    let echo: Vec<String> = host::echo()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "bdm-benchmark: {what}, seed {}, scale {:?}, {}",
        cfg.seed,
        cfg.scale,
        echo.join(", ")
    );
}

/// A JSON number with every digit (`null` if not finite).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics and workloads the
    /// harness reports, with the same units.
    #[test]
    fn benchmark_json_lists_what_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declares = |name: &str, unit: &str| {
            doc.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\","))
        };
        for (name, unit) in probes::LAYERS {
            assert!(declares(name, unit), "per_layer lacks {name} [{unit}]");
        }
        let end_to_end = end_to_end(&[Report::default()]);
        for m in &end_to_end {
            assert!(declares(&m.name, &m.unit), "end_to_end lacks {}", m.name);
        }
        assert_eq!(
            doc.matches("\"better\":").count(),
            probes::LAYERS.len() + end_to_end.len(),
            "BENCHMARK.json declares a metric the harness does not report"
        );
        for w in Workload::ALL {
            assert!(doc.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        assert_eq!(doc.matches("\"why\":").count(), Workload::ALL.len());
    }

    #[test]
    fn result_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
