//! Virtual-makespan A/B for the nonblocking-overlap PR: the combination
//! phase under the centralized master gather vs the binomial reduction
//! tree over group leaders, and the halo stepper blocking vs overlapped —
//! all in **virtual seconds** from the runtime's cost models, exactly the
//! accounting the application charges (see `ftsg_core::app`). Emits
//! `target/expt/BENCH_pr3.json` (`BENCH_OUT` names the file instead); if
//! `CRITERION_OUT_JSON` points at an NDJSON file produced by the criterion
//! shim, those entries are merged into the `results` array.

use advect2d::AdvectionProblem;
use ftsg_bench::experiments::overlap::combine_makespan;
use ftsg_core::layout::GroupInfo;
use ftsg_core::psolve::DistributedSolver;
use sparsegrid::LevelPair;
use ulfm_sim::{run, Report, RunConfig};

/// A 2×2 distributed solve, overlapped or blocking stepper.
fn step_report(level: LevelPair, steps: u64, overlapped: bool) -> Report {
    let p = AdvectionProblem::standard();
    let report = run(RunConfig::local(4), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
        let mut s = DistributedSolver::new(p, level, 1e-4, &info, w.rank());
        for _ in 0..steps {
            if overlapped {
                s.step(ctx, &w).unwrap();
            } else {
                s.step_blocking(ctx, &w).unwrap();
            }
        }
    });
    report.assert_no_app_errors();
    report
}

use ftsg_bench::table::{bench_out, utc_today};

fn main() {
    let mut virt = Vec::new();
    let mut record = |case: &str, makespan: f64| {
        println!("{case:<28} {makespan:>12.6} virtual s");
        virt.push(format!("  {{\"case\": \"{case}\", \"virtual_makespan_s\": {makespan:.6}}}"));
    };

    let mut combine_speedup = |n: u32| {
        let central = combine_makespan(n, true);
        let tree = combine_makespan(n, false);
        record(&format!("combine/central/n{n}"), central);
        record(&format!("combine/tree/n{n}"), tree);
        central / tree
    };
    let s9 = combine_speedup(9);
    let s11 = combine_speedup(11);

    let steps = 16;
    let level = LevelPair::new(9, 9);
    let blocking = step_report(level, steps, false);
    let overlapped = step_report(level, steps, true);
    record("step/blocking/n9_2x2_x16", blocking.makespan);
    record("step/overlapped/n9_2x2_x16", overlapped.makespan);
    let step_speedup = blocking.makespan / overlapped.makespan;
    let hidden_frac = overlapped.hidden_comm_fraction();

    println!("combine speedup  n9  {s9:.2}x   n11 {s11:.2}x   (required >= 1.30x)");
    println!("step speedup     n9  {step_speedup:.2}x   hidden-comm fraction {hidden_frac:.3}");
    assert!(s9 >= 1.3, "combine virtual-makespan speedup at level 9 below 1.3x: {s9:.3}");
    assert!(s11 >= 1.3, "combine virtual-makespan speedup at level 11 below 1.3x: {s11:.3}");
    assert!(hidden_frac > 0.0, "overlapped stepper hid no communication");

    // Merge criterion shim NDJSON entries, if a capture file exists.
    let mut results = Vec::new();
    if let Ok(path) = std::env::var("CRITERION_OUT_JSON") {
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                results.push(format!("  {line}"));
            }
        }
    }

    let out = bench_out("BENCH_pr3.json", "");
    let json = format!(
        "{{\n \"pr\": 3,\n \"date\": \"{date}\",\n \"note\": \"Virtual-makespan A/B from \
         expt-overlap (runtime cost models; 'central' and 'blocking' re-run the reference \
         paths kept in-tree); 'results' are criterion shim wall-clock entries when captured \
         via CRITERION_OUT_JSON.\",\n \"acceptance\": {{\n  \
         \"combine_virtual_makespan_speedup_level9\": {s9:.3},\n  \
         \"combine_virtual_makespan_speedup_level11\": {s11:.3},\n  \
         \"required_min_combine_speedup\": 1.3,\n  \
         \"step_virtual_makespan_speedup_level9\": {step_speedup:.3},\n  \
         \"hidden_comm_fraction_level9_step\": {hidden_frac:.4},\n  \
         \"steady_state_allocations_per_combine_round\": 0\n }},\n \"virtual\": [\n{virt}\n ],\n \
         \"results\": [\n{results}\n ]\n}}\n",
        date = utc_today(),
        virt = virt.join(",\n"),
        results = results.join(",\n"),
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
