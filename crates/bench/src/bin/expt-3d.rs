//! `expt-3d` — 3D error-vs-lost-grids curves (the paper's Figs. 9/10
//! lifted to d = 3), for the advection–diffusion and elliptic problems
//! under CR / RC / AC.
//!
//! ```text
//! expt-3d [--smoke] [--n N] [--l L] [--steps LOG2] [--reps R]
//!         [--max-lost K] [--seed S] [--out PATH]
//! ```
//!
//! Writes `results/expt3d.csv` and the `BENCH_pr10.json` acceptance
//! artifact (`--out` overrides the JSON path). `--smoke` shrinks the
//! sweep for the CI lane. Exits non-zero if an error is not finite or a
//! healthy error is round-off rather than discretization error
//! (`healthy_errors_resolved`).

use ftsg_bench::experiments::dim3::{self, Dim3Opts};

fn parse_args() -> Dim3Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!(
            "usage: expt-3d [--smoke] [--n N] [--l L] [--steps LOG2] [--reps R] [--max-lost K] \
             [--seed S] [--out PATH]"
        );
        std::process::exit(2);
    };
    let mut o = Dim3Opts::default();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--smoke" => o.apply_smoke(),
            "--n" => o.n = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--l" => o.l = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--steps" => o.log2_steps = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--reps" => o.reps = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-lost" => o.max_lost = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => o.out = take(&mut i),
            _ => usage(),
        }
        i += 1;
    }
    if o.l < 2 || o.n < o.l {
        eprintln!("expt-3d: need 2 <= l <= n (got n={}, l={})", o.n, o.l);
        std::process::exit(2);
    }
    o
}

fn main() {
    let o = parse_args();
    let points = dim3::sweep(&o);
    let t = dim3::table(&o, &points);
    t.emit("results/expt3d.csv");
    let json = dim3::to_json(&o, &points);
    if let Err(e) = std::fs::write(&o.out, &json) {
        eprintln!("expt-3d: cannot write {}: {e}", o.out);
        std::process::exit(1);
    }
    println!("acceptance artifact written to {}", o.out);
    let bad = points.iter().filter(|p| !p.err.is_finite()).count();
    if !dim3::healthy_errors_resolved(&points) {
        eprintln!("expt-3d: a healthy error is below {:e}: round-off", dim3::RESOLVED_ERR);
        std::process::exit(1);
    }
    std::process::exit(if bad == 0 { 0 } else { 1 });
}
