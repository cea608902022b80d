//! `expt-scale` — re-run a Fig-8-style failure sweep at ~1k/10k/100k
//! simulated ranks and compare the pooled cooperative scheduler against
//! the legacy thread-per-rank runtime (wall-clock per simulated step,
//! peak RSS, largest launchable world). Emits `target/expt/BENCH_pr6.json`
//! (`--out` names the file instead).
//!
//! ```text
//! expt-scale [--smoke] [--threads-per-rank] [--scales a,b,c] [--n N]
//!            [--steps LOG2] [--failures F] [--seed S] [--workers W]
//!            [--stack-kb K] [--timeout-secs T] [--out PATH]
//! ```
//!
//! Each configuration runs in a child re-exec of this binary (internal
//! `--child` flag) so peak RSS is per-configuration and a thread-mode
//! attempt that cannot finish is recorded as a DNF instead of hanging
//! the sweep.

use std::time::Duration;

use ftsg_bench::experiments::scale::{orchestrate, run_child, ChildSpec, ScaleOpts};
use ftsg_core::RecoveryPolicy;

fn usage() -> ! {
    eprintln!(
        "usage: expt-scale [--smoke] [--threads-per-rank] [--scales a,b,c] [--n N] \
         [--steps LOG2] [--failures F] [--seed S] [--workers W] [--stack-kb K] \
         [--policy respawn|shrink|substitute|defer] [--timeout-secs T] [--out PATH]"
    );
    std::process::exit(2);
}

fn child_main(args: &[String]) -> ! {
    let mut spec = ChildSpec {
        n: 9,
        s: 53,
        log2_steps: 4,
        failures: 1,
        seed: 2014,
        threads: false,
        workers: 0,
        stack_kb: 1024,
        policy: RecoveryPolicy::Respawn,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--child" => {}
            "--n" => spec.n = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--s" => spec.s = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--steps" => spec.log2_steps = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--failures" => spec.failures = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => spec.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--mode" => spec.threads = take(&mut i) == "threads",
            "--workers" => spec.workers = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--stack-kb" => spec.stack_kb = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                spec.policy = RecoveryPolicy::from_label(&take(&mut i)).unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
        i += 1;
    }
    println!("{}", run_child(&spec));
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--child") {
        child_main(&args);
    }
    let mut o = ScaleOpts::default();
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--threads-per-rank" => o.threads_only = true,
            "--scales" => {
                o.scales =
                    take(&mut i).split(',').map(|s| s.parse().unwrap_or_else(|_| usage())).collect()
            }
            "--n" => o.n = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--steps" => o.log2_steps = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--failures" => o.failures = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--workers" => o.workers = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--stack-kb" => o.stack_kb = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                o.policy = RecoveryPolicy::from_label(&take(&mut i)).unwrap_or_else(|| usage())
            }
            "--timeout-secs" => {
                o.timeout = Duration::from_secs(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--out" => o.out = take(&mut i),
            _ => usage(),
        }
        i += 1;
    }
    if smoke {
        o.apply_smoke();
    }
    std::process::exit(orchestrate(&o));
}
