//! `bench` — the hermetic benchmark of the DPC chain job.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the driver's form)
//! bench run   --workload <name> [--seed <n>] [--seconds <s>]       (= --trace 0)
//! bench trace --workload <name> [--seed <n>] [--seconds <s>]       (= --trace 1)
//! bench selfcheck [--seconds <s>]                                  (seeds 7 and 11 must agree)
//! bench manifest                                                   (prints BENCHMARK.json)
//! bench tcp-child proc=<i> addrs=… <job args>                      (internal)
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the full self-describing
//! record is written to `benchmark/out/`. A failed output check, a timeout
//! or a bad argument exits non-zero with a JSON `error` on standard error.

mod adapter;
mod analysis;
mod envinfo;
mod episode;
mod json;
mod layers;
mod manifest;
mod oracle;
mod procfs;
mod run;
mod selfcheck;
mod spans;
mod stats;
mod watchdog;

use episode::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use watchdog::{report_error, Watchdog};

/// Default seed; 11 is kept as the held-out seed for claims.
const DEFAULT_SEED: u64 = 7;
/// Default `--seconds` (matches `run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = manifest::RUN_SECONDS;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = episode::WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?
            }
            "--trace" => {
                out.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_once(a: &Args) -> Result<bool, String> {
    let workload = a.workload.ok_or("--workload is required")?;
    let _watchdog = Watchdog::arm(format!("workload {} seed {}", workload.name(), a.seed));
    let outcome = run::execute(workload, a.seed, a.seconds, a.traced, &out_dir())?;
    let file = out_dir().join(format!(
        "{}-seed{}-{}.json",
        workload.name(),
        a.seed,
        if a.traced { "trace" } else { "run" }
    ));
    std::fs::write(&file, outcome.record.render() + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("record: {}", file.display());
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "selfcheck" | "manifest" | "tcp-child")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = match command {
        "tcp-child" => adapter::run_worker_process(rest.iter().map(String::as_str)).map(|()| true),
        "manifest" => {
            print!("{}", manifest::render());
            Ok(true)
        }
        "selfcheck" => parse_flags(rest).and_then(|a| selfcheck::selfcheck(a.seconds, &out_dir())),
        _ => parse_flags(rest).and_then(|mut a| {
            a.traced |= command == "trace";
            run_once(&a)
        }),
    };
    adapter::kill_worker_processes();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            report_error("check failed: see the table above or the `problems` in the record");
            ExitCode::from(1)
        }
        Err(msg) => {
            report_error(&msg);
            ExitCode::from(2)
        }
    }
}
