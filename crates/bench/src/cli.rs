//! The `bdm-bench` command line: one dispatch table, one argument
//! parser, one scale lookup.
//!
//! `bdm-bench <command> [flags]` runs the command named by the first
//! argument; [`COMMANDS`] is the whole surface — `bdm-bench list`, the
//! usage text and the crate's module docs are printed from / checked
//! against it. A command, flag or `BDM_BENCH_SCALE` value the table does
//! not know is a usage error (exit code 2), never silently ignored.

use crate::scale::BenchScale;
use crate::{ablation, checkpoint, diffusion, dynpar, emit, layouts, verify};
use crate::{fig10, fig12, fig2, fig3, fig8, table1};
use std::path::PathBuf;
use std::process::ExitCode;

/// One argument a command may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--json[=DIR]`: also write the command's `BENCH_<name>.json`
    /// (under `results/` when bare).
    Json,
    /// `--out=DIR`.
    Out,
    /// `--baseline=DIR`.
    Baseline,
    /// `--fresh=DIR`.
    Fresh,
    /// `--tol=T`.
    Tol,
    /// A positional output path.
    Path,
}

impl Flag {
    /// How the usage text spells it.
    fn usage(self) -> &'static str {
        match self {
            Flag::Json => "[--json[=DIR]]",
            Flag::Out => "[--out=DIR]",
            Flag::Baseline => "[--baseline=DIR]",
            Flag::Fresh => "--fresh=DIR",
            Flag::Tol => "[--tol=T]",
            Flag::Path => "[PATH]",
        }
    }

    /// Which flag `arg` spells, if any.
    fn of(arg: &str) -> Option<Self> {
        if !arg.starts_with('-') {
            return Some(Flag::Path);
        }
        let (key, value) = match arg.split_once('=') {
            Some((key, _)) => (key, true),
            None => (arg, false),
        };
        match (key, value) {
            ("--json", _) => Some(Flag::Json),
            ("--out", true) => Some(Flag::Out),
            ("--baseline", true) => Some(Flag::Baseline),
            ("--fresh", true) => Some(Flag::Fresh),
            ("--tol", true) => Some(Flag::Tol),
            _ => None,
        }
    }
}

/// A command's parsed arguments plus the run's scale.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `BDM_BENCH_SCALE`, validated.
    pub scale: BenchScale,
    /// `--json[=DIR]`.
    pub json: Option<PathBuf>,
    /// `--out=DIR`.
    pub out: Option<PathBuf>,
    /// `--baseline=DIR`.
    pub baseline: Option<PathBuf>,
    /// `--fresh=DIR`.
    pub fresh: Option<PathBuf>,
    /// `--tol=T`.
    pub tol: Option<f64>,
    /// The positional output path.
    pub path: Option<PathBuf>,
}

impl Args {
    /// Parse `raw` for a command taking `accepted`; anything else — or
    /// a value that does not parse — is an error naming the choices.
    pub fn parse(raw: &[String], accepted: &[Flag], scale: BenchScale) -> Result<Self, String> {
        let takes = || match accepted {
            [] => "takes no arguments".to_string(),
            _ => format!("takes {}", usage_of(accepted)),
        };
        let mut args = Args {
            scale,
            json: emit::json_dir_from_args(raw),
            ..Args::default()
        };
        let mut seen = Vec::new();
        for arg in raw {
            let flag = match Flag::of(arg) {
                Some(flag) if accepted.contains(&flag) => flag,
                _ => return Err(format!("unknown argument {arg:?}: the command {}", takes())),
            };
            if seen.contains(&flag) {
                return Err(format!(
                    "{arg:?} repeats an argument: the command {}",
                    takes()
                ));
            }
            seen.push(flag);
            let value = arg.split_once('=').map_or(arg.as_str(), |(_, v)| v);
            match flag {
                Flag::Json => {} // read above, by the parser its unit test pins
                Flag::Out => args.out = Some(value.into()),
                Flag::Baseline => args.baseline = Some(value.into()),
                Flag::Fresh => args.fresh = Some(value.into()),
                Flag::Path => args.path = Some(value.into()),
                Flag::Tol => {
                    let tol = value.parse().ok().filter(|t: &f64| *t >= 0.0);
                    args.tol = Some(tol.ok_or(format!("{arg}: T must be a number >= 0"))?);
                }
            }
        }
        Ok(args)
    }
}

/// One row of the dispatch table: the first argument that selects the
/// command, the arguments it takes, a one-line description, the entry
/// point.
pub type Command = (
    &'static str,
    &'static [Flag],
    &'static str,
    fn(&Args) -> ExitCode,
);

const NONE: &[Flag] = &[];
const JSON: &[Flag] = &[Flag::Json];
const OUT: &[Flag] = &[Flag::Out];
const GATE: &[Flag] = &[Flag::Baseline, Flag::Fresh, Flag::Tol];
const PATH: &[Flag] = &[Flag::Path];

/// Every command, in the order `list` and the usage text print them —
/// one row each, kept aligned by hand.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    ("table1",              NONE,  "Table I: the two benchmark systems",                      table1::main),
    ("fig2_visualization",  PATH,  "Fig. 2: cell-division cross-section (PPM image)",         fig2::main),
    ("fig3_profile",        JSON,  "Fig. 3: benchmark A profile on the kd-tree baseline",     fig3::main),
    ("fig8_fig9",           JSON,  "Figs. 8+9: benchmark A across every implementation",      fig8::main),
    ("fig10_fig11",         NONE,  "Figs. 10+11: benchmark B runtime and speedup vs density", fig10::main),
    ("fig12_roofline",      NONE,  "Fig. 12: roofline of GPU version II, ERT ceilings",       fig12::main),
    ("ablation_dynpar",     NONE,  "dynamic parallelism vs GPU version II (§VI)",             dynpar::main),
    ("ablation_sampling",   NONE,  "modeled kernel time vs trace-sampling stride",            ablation::sampling),
    ("ablation_transfers",  NONE,  "PCIe transfer share vs population",                       ablation::transfers),
    ("verify_reproduction", NONE,  "grade the paper's claims (exit 1 if one fails)",          verify::main),
    ("bench_json",          OUT,   "write BENCH_sim.json + BENCH_gpu.json",                   emit::bench_json),
    ("bench_layouts",       JSON,  "CSR storage policies: reorder, precision, sharding",      layouts::main),
    ("bench_diffusion",     JSON,  "in-place diffusion sweep vs the reference sweep",         diffusion::main),
    ("bench_checkpoint",    JSON,  "checkpoint stream shape and resume check",                checkpoint::main),
    ("bench_gate",          GATE,  "fresh BENCH_*.json vs the baselines (exit 1: regressed)", emit::bench_gate),
    ("debug_metrics",       NONE,  "every published metric, one document per scene",          emit::debug_metrics),
];

/// `flags` as one usage line spells them.
fn usage_of(flags: &[Flag]) -> String {
    let flags: Vec<&str> = flags.iter().map(|f| f.usage()).collect();
    flags.join(" ")
}

/// The usage text: every command with its arguments and description.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: bdm-bench <command> [arguments]   (bdm-bench list prints the command names)\n\n",
    );
    for (name, flags, about, _) in COMMANDS {
        out.push_str(&format!("  {name} {}\n      {about}\n", usage_of(flags)));
    }
    out.push_str("\nenvironment: BDM_BENCH_SCALE=smoke | default | paper (default: default)\n");
    out
}

/// Report a usage error on stderr; the exit code of one is 2.
pub fn usage_error(msg: &str) -> ExitCode {
    eprintln!("bdm-bench: {msg}\n\n{}", usage());
    ExitCode::from(2)
}

/// Run the command `raw` (the process arguments after the program name)
/// selects.
pub fn run(raw: &[String]) -> ExitCode {
    let Some((name, rest)) = raw.split_first() else {
        return usage_error("no command given");
    };
    if name == "list" && rest.is_empty() {
        for (name, ..) in COMMANDS {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(&(_, flags, _, command)) = COMMANDS.iter().find(|c| c.0 == name) else {
        return usage_error(&format!("unknown command {name:?}"));
    };
    match BenchScale::from_env().and_then(|scale| Args::parse(rest, flags, scale)) {
        Ok(args) => command(&args),
        Err(msg) => usage_error(&format!("{name}: {msg}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str], accepted: &[Flag]) -> Result<Args, String> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, accepted, BenchScale::smoke())
    }

    #[test]
    fn each_flag_lands_in_its_field() {
        let a = parse(&["--fresh=/f", "--tol=0.5", "--baseline=b"], GATE).unwrap();
        assert_eq!(a.fresh, Some(PathBuf::from("/f")));
        assert_eq!(a.baseline, Some(PathBuf::from("b")));
        assert_eq!(a.tol, Some(0.5));
        assert_eq!(
            parse(&["--json"], JSON).unwrap().json,
            Some("results".into())
        );
        assert_eq!(parse(&["--json=d"], JSON).unwrap().json, Some("d".into()));
        assert_eq!(
            parse(&["--out=o"], &[Flag::Out]).unwrap().out,
            Some("o".into())
        );
        assert_eq!(
            parse(&["a.ppm"], &[Flag::Path]).unwrap().path,
            Some("a.ppm".into())
        );
        let none = parse(&[], GATE).unwrap();
        assert!(none.fresh.is_none() && none.tol.is_none() && none.json.is_none());
    }

    #[test]
    fn what_a_command_does_not_take_is_an_error_naming_what_it_does() {
        let cases: [(&[&str], &[Flag]); 10] = [
            (&["--json"], &[]),
            (&["--jsonx"], JSON),
            (&["--out"], &[Flag::Out]),
            (&["--fresh=x"], JSON),
            (&["stray"], JSON),
            (&["-h"], &[Flag::Path]),
            (&["a", "b"], &[Flag::Path]),
            (&["--json", "--json=d"], JSON),
            (&["--tol=fast"], &[Flag::Tol]),
            (&["--tol=-1"], &[Flag::Tol]),
        ];
        for (raw, accepted) in cases {
            let err = parse(raw, accepted).unwrap_err();
            assert!(err.contains(raw[raw.len() - 1]), "{raw:?}: {err}");
        }
        let err = parse(&["--nope"], &[Flag::Baseline, Flag::Fresh]).unwrap_err();
        assert!(err.contains("[--baseline=DIR] --fresh=DIR"), "{err}");
        assert!(parse(&["x"], &[]).unwrap_err().contains("no arguments"));
    }

    #[test]
    fn the_table_is_what_the_docs_and_the_usage_text_list() {
        let docs = include_str!("lib.rs");
        let rows = |text: &str, open: &str| -> Vec<String> {
            text.lines()
                .filter_map(|l| l.strip_prefix(open))
                .map(|l| l.split(['`', ' ']).next().unwrap().to_string())
                .filter(|name| !name.is_empty())
                .collect()
        };
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        assert_eq!(rows(docs, "//! | `"), names, "lib.rs module-doc table");
        assert_eq!(rows(&usage(), "  "), names, "usage text");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(!names.contains(&"list"));
    }
}
