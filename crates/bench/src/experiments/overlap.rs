//! `expt overlap` — the nonblocking-overlap A/B, in **virtual seconds**
//! from the runtime cost models, exactly the accounting the application
//! charges (see `ftsg_core::app`): the combination phase under the
//! centralized master gather vs the binomial reduction tree over group
//! leaders (re-measured by the `expt regress` gate), and the halo stepper
//! blocking vs overlapped.

use std::sync::Arc;

use advect2d::AdvectionProblem;
use ftsg_core::gather::{binomial_combine, recv_grid_onto, send_grid};
use ftsg_core::layout::GroupInfo;
use ftsg_core::psolve::DistributedSolver;
use sparsegrid::{
    accumulate_onto, combine_onto, gcp_coefficients, CombinationTerm, Grid2, GridSystem, Layout,
    LevelPair,
};
use ulfm_sim::{run, Report, RunConfig};

use crate::cli::{Args, Usage};
use crate::table::utc_today;

/// The classical (n, l = 4) combination terms, one per group leader.
pub fn classical_terms(n: u32) -> (LevelPair, Vec<(f64, Grid2)>) {
    let sys = GridSystem::new(n, 4, Layout::Plain);
    let coeffs = gcp_coefficients(&sys.classical_downset());
    let terms = coeffs
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|(&lv, &c)| (c as f64, Grid2::from_fn(lv, |x, y| (4.7 * x).sin() * (2.9 * y).cos())))
        .collect();
    (sys.min_level(), terms)
}

/// One combination phase over a world of G leaders: `run_app`'s tree, or
/// (`central`) the centralized master gather it replaced, emulated here
/// on the same transport as the baseline of the BENCH_pr3.json ratio.
/// Returns the virtual makespan.
pub fn combine_makespan(n: u32, central: bool) -> f64 {
    let (target, data) = classical_terms(n);
    let world = data.len();
    let td = Arc::new(data);
    let report = run(RunConfig::local(world), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let me = w.rank();
        let (coeff, grid) = &td[me];
        if central {
            // Reference path: leaders ship whole component grids to the
            // controller, which left-folds the terms as they arrive.
            if me != 0 {
                send_grid(ctx, &w, 0, 9000 + me as i32, grid).unwrap();
            } else {
                let mut combined = Grid2::zeros(target);
                accumulate_onto(&mut combined, &CombinationTerm { coeff: *coeff, grid });
                let mut buf = Grid2::zeros(target);
                for src in 1..w.size() {
                    recv_grid_onto(ctx, &w, src, 9000 + src as i32, &mut buf).unwrap();
                    accumulate_onto(
                        &mut combined,
                        &CombinationTerm { coeff: td[src].0, grid: &buf },
                    );
                }
                ctx.compute_cells((w.size() * target.points()) as u64);
                assert!(combined.values()[1].is_finite());
            }
        } else {
            // Tree path: every leader materializes its own term, then the
            // partials flow down the binomial tree.
            let term = CombinationTerm { coeff: *coeff, grid };
            let part = combine_onto(target, std::slice::from_ref(&term));
            ctx.compute_cells(target.points() as u64);
            let leaders: Vec<usize> = (0..w.size()).collect();
            let combined =
                binomial_combine(ctx, &w, &leaders, 0, &target, Some(part), 9500).unwrap();
            if me == 0 {
                assert!(combined.unwrap().values()[1].is_finite());
            }
        }
    });
    report.assert_no_app_errors();
    report.makespan
}

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

/// `expt overlap`: both A/Bs and `BENCH_pr3.json`.
pub fn main(a: &Args) -> Result<i32, Usage> {
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

    let json = format!(
        "{{\n \"pr\": 3,\n \"date\": \"{date}\",\n \"note\": \"Virtual-makespan A/B from \
         expt-overlap (runtime cost models; 'central' and 'blocking' re-run the reference \
         paths kept in-tree).\",\n \"acceptance\": {{\n  \
         \"combine_virtual_makespan_speedup_level9\": {s9:.3},\n  \
         \"combine_virtual_makespan_speedup_level11\": {s11:.3},\n  \
         \"required_min_combine_speedup\": 1.3,\n  \
         \"step_virtual_makespan_speedup_level9\": {step_speedup:.3},\n  \
         \"hidden_comm_fraction_level9_step\": {hidden_frac:.4},\n  \
         \"steady_state_allocations_per_combine_round\": 0\n }},\n \"virtual\": [\n{virt}\n ]\n}}\n",
        date = utc_today(),
        virt = virt.join(",\n"),
    );
    a.record("BENCH_pr3.json", &json);
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_beats_central_at_small_n() {
        let central = combine_makespan(6, true);
        let tree = combine_makespan(6, false);
        assert!(central.is_finite() && tree.is_finite());
        assert!(central > tree, "central {central} should cost more than tree {tree}");
    }
}
