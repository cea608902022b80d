//! `expt-kernel` — kernel vectorization acceptance: per-stencil row
//! GFLOP/s (scalar vs SIMD) and the level-9 steady-state step wall under
//! scalar and SIMD rows (see `ftsg_bench::experiments::kernel`).
//! Emits `target/expt/BENCH_pr8.json` (`BENCH_OUT` names the file
//! instead) and `results/kernel.csv`, then the 3D section — closure
//! reference vs row kernels at the `solve3d_kill` slab shapes — as
//! `target/expt/BENCH_pr17.json` (`<BENCH_OUT stem>_3d.json` when
//! `BENCH_OUT` redirects the run) and
//! `results/kernel3d.csv`.
//!
//! Accepts the standard experiment flags; only `--reps` (timing samples,
//! scaled ×10) and `--quick` matter here.

use ftsg_bench::experiments::kernel;
use ftsg_bench::table::{bench_out, utc_today};
use ftsg_bench::Opts;

fn main() {
    let opts = Opts::from_args();
    let iters = if opts.quick { 10 } else { opts.reps.max(3) * 10 };
    let report = kernel::run(".", iters);
    report.table().emit("results/kernel.csv");
    assert!(report.bitwise_ok, "SIMD path drifted from the scalar reference");
    println!(
        "level-9 step: simd {:.2}x vs scalar (isa: {})",
        report.simd_speedup_vs_scalar, report.isa
    );
    if let Some(v) = report.speedup_vs_pr1_fast {
        println!("vs committed BENCH_pr1 fast path: {v:.2}x (required: 2.0x)");
    }
    let out = bench_out("BENCH_pr8.json", "");
    std::fs::write(&out, report.to_json(&utc_today())).expect("write bench json");
    println!("wrote {out}");

    let report = kernel::run_3d(iters);
    report.table().emit("results/kernel3d.csv");
    assert!(report.bitwise_ok, "3D row kernels drifted from the closure reference");
    println!(
        "3D step: rows {:.2}x vs closure (isa: {}, nproc: {}, cpu: {})",
        report.rows_speedup_vs_closure, report.isa, report.nproc, report.cpu
    );
    let out3d = bench_out("BENCH_pr17.json", "_3d");
    std::fs::write(&out3d, report.to_json(&utc_today())).expect("write bench json");
    println!("wrote {out3d}");
}
