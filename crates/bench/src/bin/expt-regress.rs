//! `expt-regress` — bench-regression gate: re-measure the gated
//! quantities (level-9 step speedup, n9 combine-tree speedup, SIMD
//! ratio, the absolute d=2 step wall, the 3D rows-over-closure ratio,
//! the sliced-over-bytewise CRC ratio) and fail (exit 1) if any slips
//! more than 15% against its committed `BENCH_pr*.json` baseline — or,
//! for the CRC ratio, under its 2x floor — or if the one-failure repair
//! of the paper's shape does not reproduce its committed agree count and
//! `T_RECONSTRUCT` exactly, or a
//! warm collective round of 64 ranks, a warm robust-coefficient solve or
//! a warm Fig. 4 handler call its committed allocator-request count, or a
//! whole `paper2d_kill` or `solve3d_kill` run asks for more bytes than
//! committed, or a whole `solve3d_kill` run makes more allocator requests
//! than committed, or the `paper2d_kill` makespan, the `ckpt_heavy` restore
//! and makespan or the 3D CR kill's makespan is not its committed value
//! (see `ftsg_bench::experiments::regress` for the list).
//!
//! ```text
//! expt-regress [--dir PATH] [--iters K] [--exact]
//! ```
//!
//! `--dir` points at the directory holding the committed baselines
//! (default `.`, the repo root); `--iters` sets the timed repetitions per
//! wall-clock measurement (default 30, median taken); `--exact` runs only
//! the deterministic gates (virtual clock, allocator counts and bytes),
//! which CI blocks on.

use ftsg_bench::experiments::alloc_sites::{bytes, requests, TracingAllocator};
use ftsg_bench::experiments::regress;

/// Counts allocator requests and bytes by every thread (the allocation
/// gates); it never traces here.
#[global_allocator]
static ALLOCATOR: TracingAllocator = TracingAllocator;

fn usage() -> ! {
    eprintln!("usage: expt-regress [--dir PATH] [--iters K] [--exact]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = ".".to_string();
    let mut iters = 30usize;
    let mut exact = false;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--dir" => dir = take(&mut i),
            "--iters" => iters = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--exact" => exact = true,
            _ => usage(),
        }
        i += 1;
    }
    let outcome = if exact {
        regress::run_exact(&dir, requests, bytes)
    } else {
        regress::run(&dir, iters, requests, bytes)
    };
    match outcome {
        Ok(report) => {
            if exact {
                print!("{}", report.table().render());
            } else {
                report.table().emit("results/regress.csv");
            }
            if report.all_pass() {
                println!(
                    "regression gate: PASS ({} gates within {:.0}%)",
                    report.gates.len(),
                    report.tolerance * 100.0
                );
            } else {
                for g in report.gates.iter().filter(|g| !g.pass) {
                    eprintln!(
                        "regression gate: {} regressed beyond {:.0}%: baseline {:.4} vs fresh \
                         {:.4} ({})",
                        g.name,
                        report.tolerance * 100.0,
                        g.baseline,
                        g.fresh,
                        g.source
                    );
                }
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("expt-regress: {e}");
            std::process::exit(2);
        }
    }
}
