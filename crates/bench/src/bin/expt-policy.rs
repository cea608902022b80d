//! `expt-policy` — recovery-policy matrix: per-failure-count overhead vs
//! solution error vs virtual makespan across `RecoveryPolicy` × technique
//! (see `ftsg_bench::experiments::policy`). Emits
//! `target/expt/BENCH_pr7.json` (`BENCH_OUT` names the file instead) and
//! `results/policy.csv`.
//!
//! Accepts the standard experiment flags (`--n`, `--l`, `--steps`,
//! `--reps`, `--seed`, `--quick`).

use ftsg_bench::experiments::policy;
use ftsg_bench::table::{bench_out, utc_today};
use ftsg_bench::Opts;

fn main() {
    let opts = Opts::from_args();
    let report = policy::run(&opts);
    report.table().emit("results/policy.csv");
    println!(
        "overhead vs respawn at {} failures: substitute {:.2}x, shrink {:.2}x",
        policy::FAILURE_COUNTS.last().unwrap(),
        report.substitute_overhead_ratio,
        report.shrink_overhead_ratio,
    );
    let out = bench_out("BENCH_pr7.json", "");
    std::fs::write(&out, report.to_json(&utc_today())).expect("write bench json");
    println!("wrote {out}");
}
