//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` runs a fixed set of seeds untraced and
//! then traced, timing each layer's public entry points from here, and
//! prints the per-layer metrics. Every line before the last is human
//! readable; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod calib;
mod report;
mod service;
mod sim;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <tree_silence|ag_stacked|loose_budget|service_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let simulation = [&sim::TREE_SILENCE, &sim::AG_STACKED, &sim::LOOSE_BUDGET]
        .into_iter()
        .find(|w| w.name == args.workload);
    let why = match simulation {
        Some(w) => w.why,
        None if args.workload == "service_mix" => service::WHY,
        None => {
            eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        }
    };

    // Spools and checkpoints live under the working directory, removed
    // again before exit.
    let scratch =
        PathBuf::from(".perfbench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} engine_threads=1 available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    println!("# why: {why}");

    let mut report = Report::default();
    match (simulation, args.trace) {
        (Some(w), false) => w.measure(&args, &mut report),
        (Some(w), true) => w.trace(&args, &mut report, &scratch),
        (None, false) => service::measure(&args, &mut report, &scratch),
        (None, true) => service::trace(&args, &mut report, &scratch),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    println!("{}", report.json());
    ExitCode::SUCCESS
}
