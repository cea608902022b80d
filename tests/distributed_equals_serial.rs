//! Cross-crate oracle test: the distributed Lax–Wendroff solve (domain
//! decomposition + halo exchange over the simulated MPI runtime) must
//! reproduce the single-owner serial solver **bitwise** — same stencil,
//! same arithmetic order, halos standing in for periodic wrap.

use ftsg::app::gather::gather_grid_into;
use ftsg::app::psolve::DistributedSolver;
use ftsg::app::GroupInfo;
use ftsg::grid::{Grid2, LevelPair};
use ftsg::mpi::{run, RunConfig};
use ftsg::pde::{AdvectionProblem, LocalSolver};

fn compare(level: LevelPair, px: usize, py: usize, steps: u64) {
    let problem = AdvectionProblem::standard();
    let dt = 0.1 / (1u64 << level.i.max(level.j)) as f64;

    // Serial oracle.
    let mut serial = LocalSolver::new(problem, level, dt);
    serial.run(steps);

    // Distributed run.
    let nprocs = px * py;
    let info = GroupInfo { grid: 0, first: 0, size: nprocs, px, py };
    let report = run(RunConfig::local(nprocs), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let mut solver = DistributedSolver::new(problem, level, dt, &info, w.rank());
        solver.run(ctx, &w, steps).unwrap();
        let mut full = (w.rank() == 0).then(|| Grid2::zeros(level));
        gather_grid_into(ctx, &w, &info, &level, &solver, full.as_mut()).unwrap();
        if let Some(grid) = full {
            // Compare against the serial oracle, node by node, bitwise.
            let mut max_diff = 0.0f64;
            let mut exact = true;
            let oracle = {
                let mut s = LocalSolver::new(problem, level, dt);
                s.run(steps);
                s
            };
            for m in 0..grid.ny() {
                for k in 0..grid.nx() {
                    let a = grid.at(k, m);
                    let b = oracle.grid().at(k, m);
                    if a != b {
                        exact = false;
                        max_diff = max_diff.max((a - b).abs());
                    }
                }
            }
            ctx.report_f64("exact", if exact { 1.0 } else { 0.0 });
            ctx.report_f64("max_diff", max_diff);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(
        report.get_f64("exact"),
        Some(1.0),
        "distributed ({px}x{py}) differs from serial by {:?} at level {level}",
        report.get_f64("max_diff")
    );
}

#[test]
fn single_proc_matches_serial() {
    compare(LevelPair::new(4, 4), 1, 1, 12);
}

#[test]
fn row_decomposition_matches_serial() {
    compare(LevelPair::new(4, 5), 1, 4, 10);
}

#[test]
fn column_decomposition_matches_serial() {
    compare(LevelPair::new(5, 4), 4, 1, 10);
}

#[test]
fn grid_decomposition_matches_serial() {
    compare(LevelPair::new(5, 5), 2, 2, 10);
}

#[test]
fn anisotropic_uneven_decomposition_matches_serial() {
    compare(LevelPair::new(6, 3), 4, 2, 8);
}

#[test]
fn many_procs_thin_blocks_match_serial() {
    compare(LevelPair::new(3, 6), 2, 8, 6);
}
