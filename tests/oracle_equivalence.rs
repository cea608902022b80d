//! The strongest end-to-end check in the repository: the *distributed*
//! application's reported error must equal an *offline serial*
//! recomputation of the whole pipeline — per-grid Lax–Wendroff solves,
//! the technique's data recovery rule, the (robust) combination, and the
//! l1 norm — to floating-point identity. Any divergence anywhere in the
//! distributed stack (halo exchange, gather-scatter, recovery transfers,
//! coefficient surgery) shows up here.

use ftsg::app::app::keys;
use ftsg::app::{run_app, AppConfig, ProcLayout, Technique};
use ftsg::grid::scheme::RcSource;
use ftsg::grid::{
    combine_binomial, l1_error_vs, robust_coefficients, CombinationTerm, Grid2, LevelSet,
};
use ftsg::mpi::{run, RunConfig};
use ftsg::pde::{LocalSolver, TimeGrid};

/// Solve every sub-grid of the system serially (bitwise equal to the
/// distributed solves, as `distributed_equals_serial` establishes).
fn serial_grids(cfg: &AppConfig) -> Vec<Grid2> {
    let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let tg = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4);
    layout
        .system()
        .grids()
        .iter()
        .map(|g| {
            let mut s = LocalSolver::new(cfg.problem, g.level, tg.dt);
            s.run(cfg.steps());
            s.grid().clone()
        })
        .collect()
}

fn app_error(cfg: AppConfig) -> f64 {
    let world = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report.get_f64(keys::ERR_L1).unwrap()
}

#[test]
fn healthy_run_matches_serial_oracle() {
    let cfg = AppConfig::paper_shaped(Technique::CheckpointRestart, 7, 1, 5);
    let sys = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).system().clone();
    let grids = serial_grids(&cfg);
    let terms: Vec<CombinationTerm> = sys
        .combination_ids()
        .into_iter()
        .map(|id| CombinationTerm { coeff: sys.classical_coefficient(id) as f64, grid: &grids[id] })
        .collect();
    let combined = combine_binomial(sys.min_level(), &terms);
    let tg = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4);
    let t_final = tg.dt * cfg.steps() as f64;
    let oracle = l1_error_vs(&combined, cfg.problem.exact_at(t_final));

    let measured = app_error(cfg);
    assert!(
        measured.to_bits() == oracle.to_bits(),
        "distributed {measured:e} vs serial oracle {oracle:e}"
    );
}

#[test]
fn rc_simulated_losses_match_serial_oracle() {
    // Lose a diagonal (copy recovery) and a lower-diagonal (resample
    // recovery); the oracle applies the same substitution rules serially.
    let lost = vec![2usize, 4usize];
    let cfg = AppConfig::paper_shaped(Technique::ResamplingCopying, 7, 1, 5)
        .with_simulated_losses(lost.clone());
    let sys = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).system().clone();
    let grids = serial_grids(&cfg);

    // Apply the RC recovery rules.
    let mut recovered: Vec<Grid2> = grids.clone();
    for &b in &lost {
        match sys.rc_source(b).expect("RC source exists") {
            RcSource::Copy(src) => recovered[b] = grids[src].clone(),
            RcSource::Resample(src) => recovered[b] = grids[src].restrict_to(sys.grid(b).level),
        }
    }
    let terms: Vec<CombinationTerm> = sys
        .combination_ids()
        .into_iter()
        .map(|id| CombinationTerm {
            coeff: sys.classical_coefficient(id) as f64,
            grid: &recovered[id],
        })
        .collect();
    let combined = combine_binomial(sys.min_level(), &terms);
    let tg = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4);
    let t_final = tg.dt * cfg.steps() as f64;
    let oracle = l1_error_vs(&combined, cfg.problem.exact_at(t_final));

    let measured = app_error(cfg);
    assert!(
        measured.to_bits() == oracle.to_bits(),
        "RC distributed {measured:e} vs serial oracle {oracle:e}"
    );
}

#[test]
fn ac_simulated_losses_match_serial_oracle() {
    // AC's final solution is the robust combination over the survivors.
    let lost = vec![1usize, 5usize];
    let cfg = AppConfig::paper_shaped(Technique::AlternateCombination, 7, 1, 5)
        .with_simulated_losses(lost.clone());
    let sys = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).system().clone();
    let grids = serial_grids(&cfg);

    let lost_levels: Vec<_> = lost.iter().map(|&b| sys.grid(b).level).collect();
    let surviving: LevelSet =
        sys.grids().iter().filter(|g| !lost.contains(&g.id)).map(|g| g.level).collect();
    let coeffs = robust_coefficients(&sys.classical_downset(), &lost_levels, &surviving);
    let terms: Vec<CombinationTerm> = sys
        .grids()
        .iter()
        .filter(|g| !lost.contains(&g.id))
        .filter_map(|g| {
            coeffs.get(&g.level).map(|&c| CombinationTerm { coeff: c as f64, grid: &grids[g.id] })
        })
        .filter(|t| t.coeff != 0.0)
        .collect();
    let combined = combine_binomial(sys.min_level(), &terms);
    let tg = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4);
    let t_final = tg.dt * cfg.steps() as f64;
    let oracle = l1_error_vs(&combined, cfg.problem.exact_at(t_final));

    let measured = app_error(cfg);
    assert!(
        measured.to_bits() == oracle.to_bits(),
        "AC distributed {measured:e} vs serial oracle {oracle:e}"
    );
}

#[test]
fn cr_real_failure_matches_healthy_oracle() {
    // Checkpoint/Restart with a real mid-run kill is *exact*: the final
    // error must equal the healthy serial oracle.
    let cfg = AppConfig::paper_shaped(Technique::CheckpointRestart, 7, 1, 5);
    let sys = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).system().clone();
    let grids = serial_grids(&cfg);
    let terms: Vec<CombinationTerm> = sys
        .combination_ids()
        .into_iter()
        .map(|id| CombinationTerm { coeff: sys.classical_coefficient(id) as f64, grid: &grids[id] })
        .collect();
    let combined = combine_binomial(sys.min_level(), &terms);
    let tg = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4);
    let t_final = tg.dt * cfg.steps() as f64;
    let oracle = l1_error_vs(&combined, cfg.problem.exact_at(t_final));

    let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let victim = layout.group(3).first;
    let cfg = cfg.with_plan(ftsg::mpi::FaultPlan::single(victim, 9));
    let measured = app_error(cfg);
    assert!(
        measured.to_bits() == oracle.to_bits(),
        "CR-after-failure {measured:e} vs healthy oracle {oracle:e}"
    );
}
