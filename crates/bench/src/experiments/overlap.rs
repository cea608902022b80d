//! The combination-phase A/B measured by `expt-overlap` and re-measured
//! by the `expt-regress` gate: one combination round over a world of
//! group leaders, centralized master gather vs binomial reduction tree,
//! in **virtual seconds** from the runtime cost models.

use std::sync::Arc;

use ftsg_core::gather::{binomial_combine, recv_grid_onto, send_grid};
use sparsegrid::{
    accumulate_onto, combine_onto, gcp_coefficients, CombinationTerm, Grid2, GridSystem, Layout,
    LevelPair,
};
use ulfm_sim::{run, RunConfig};

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
            let mut scratch = Vec::new();
            let combined =
                binomial_combine(ctx, &w, &leaders, 0, &target, Some(part), &mut scratch, 9500)
                    .unwrap();
            if me == 0 {
                assert!(combined.unwrap().values()[1].is_finite());
            }
        }
    });
    report.assert_no_app_errors();
    report.makespan
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
