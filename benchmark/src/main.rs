//! The ftsg benchmark: one workload per process, timed from outside
//! through the libraries' public API. `run.sh` builds and calls this; see
//! README.md for what is measured and why.

mod alloc;
mod harness;
mod json;
mod names;
mod probes;
mod rep;
mod spans;
mod stamp;
mod stats;
mod timed;
mod traced;
mod validate;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{Budget, Harness};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: ftsg-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace 0|1] [--smoke] [--out <dir>] | --list | --spec";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

/// What the command line asks for.
enum Request {
    Run(Args),
    /// Print the workload names.
    List,
    /// Print the text of `BENCHMARK.json`.
    Spec,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Request, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(names::RUN_SECONDS),
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(Request::List),
            "--spec" => return Ok(Request::Spec),
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = value()?,
            "--out" => args.out = PathBuf::from(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {} is outside (0, 600]", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Request::Run(args))
}

fn run(args: &Args, started: Instant) -> Result<bool, String> {
    let w = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {} (try --list)", args.workload))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut h = Harness::new(w, args.seed, args.out.clone());
    // The budget covers the whole process, reference rep included.
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let (table, values) = if args.trace {
        (names::PER_LAYER, traced::run(&mut h, started, deadline, args.smoke, &args.out)?)
    } else {
        let budget = if args.smoke { Budget::Reps(2) } else { Budget::Until(deadline) };
        (names::END_TO_END, timed::run(&mut h, budget)?)
    };
    let line = json::result_line(table, &values, h.attempted, h.failed)?;
    // `run.sh` passes `<repo>/benchmark/out`.
    let repo = args.out.join("../..");
    println!(
        "{}",
        stamp::stamp_line(w.name, h.seed, &h.plan.victim_ranks(), h.attempted, rep::WORKERS, &repo)
    );
    println!("{line}");
    Ok(h.failed == 0)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let hits =
        stamp::guarded_env(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()));
    if !hits.is_empty() {
        eprintln!("refusing to start: {hits:?} change the program's modes; unset them");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Request::Run(args)) => args,
        Ok(Request::List) => {
            for w in &workload::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Request::Spec) => {
            print!("{}", names::spec());
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{}: {why}", args.workload);
            ExitCode::FAILURE
        }
    }
}
