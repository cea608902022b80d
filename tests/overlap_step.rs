//! The overlapped halo-exchange stepper (`isend`/`irecv` posted, deep
//! interior computed in flight, boundary ring finished at the waits)
//! must be **bitwise equal** to the blocking reference stepper at every
//! step — and must actually hide communication behind compute (nonzero
//! hidden-comm fraction in the run report).

use ftsg::app::psolve::DistributedSolver;
use ftsg::app::ProcLayout;
use ftsg::grid::LevelPair;
use ftsg::mpi::{run, RunConfig};
use ftsg::pde::{AdvectionProblem, TimeGrid};

/// Step two solvers side by side — one overlapped, one blocking — on
/// communicators split off the world (distinct contexts, no tag
/// cross-talk) and
/// compare their owned blocks bitwise after every step.
fn ab_compare(level: LevelPair, px: usize, py: usize, steps: u64) {
    let world = px * py;
    let problem = AdvectionProblem::standard();
    let tg = TimeGrid::for_system(&problem, level.i.max(level.j), steps, 0.4);
    let report = run(RunConfig::local(world), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let g_over = w.split(ctx, Some(0), w.rank() as i64).unwrap().unwrap();
        let g_block = w.split(ctx, Some(0), w.rank() as i64).unwrap().unwrap();
        let info = ftsg::app::layout::GroupInfo { grid: 0, first: 0, size: world, px, py };
        let mut over = DistributedSolver::new(problem, level, tg.dt, &info, w.rank());
        let mut block = DistributedSolver::new(problem, level, tg.dt, &info, w.rank());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for s in 0..steps {
            over.step(ctx, &g_over).unwrap();
            block.step_blocking(ctx, &g_block).unwrap();
            over.local_block_into(&mut a);
            block.local_block_into(&mut b);
            let same =
                a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "overlapped and blocking steppers diverged at step {s}");
        }
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(world as f64));
}

#[test]
fn overlapped_equals_blocking_2x2() {
    ab_compare(LevelPair::new(5, 5), 2, 2, 6);
}

#[test]
fn overlapped_equals_blocking_4x1() {
    ab_compare(LevelPair::new(5, 4), 4, 1, 6);
}

#[test]
fn overlapped_equals_blocking_1x4() {
    ab_compare(LevelPair::new(4, 5), 1, 4, 6);
}

#[test]
fn overlapped_equals_blocking_single_rank() {
    ab_compare(LevelPair::new(4, 4), 1, 1, 4);
}

#[test]
fn overlapped_stepper_hides_communication() {
    // A multi-rank overlapped solve must record hidden comm time (flight
    // time overlapped by the interior compute) and a nonzero fraction.
    let problem = AdvectionProblem::standard();
    let level = LevelPair::new(7, 7);
    let steps = 8;
    let tg = TimeGrid::for_system(&problem, 7, steps, 0.4);
    let report = run(RunConfig::local(4), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let info = ftsg::app::layout::GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
        let mut s = DistributedSolver::new(problem, level, tg.dt, &info, w.rank());
        s.run(ctx, &w, steps).unwrap();
    });
    report.assert_no_app_errors();
    assert!(report.comm_hidden > 0.0, "no communication was hidden");
    let frac = report.hidden_comm_fraction();
    assert!(
        frac > 0.0 && frac <= 1.0,
        "hidden-comm fraction out of range: {frac} (hidden {}, exposed {})",
        report.comm_hidden,
        report.comm_exposed
    );
}

#[test]
fn full_app_reports_hidden_comm() {
    // End-to-end: the application run itself must overlap halo traffic.
    use ftsg::app::app::keys;
    use ftsg::app::{run_app, AppConfig, Technique};
    let cfg = AppConfig::small(Technique::AlternateCombination);
    let world = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    assert!(report.get_f64(keys::ERR_L1).is_some());
    assert!(report.comm_hidden > 0.0, "app run hid no communication");
    assert!(report.hidden_comm_fraction() > 0.0);
}
