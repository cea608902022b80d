//! Randomized soak test: many configurations × techniques × random
//! admissible failure plans. Every run must terminate (the runtime's
//! deadlock-freedom in practice), repair every failure, and produce a
//! finite combined-solution error. Any stall, protocol mismatch, or
//! unrecovered state fails loudly.

use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayout, Technique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ulfm_sim::{run, FaultPlan, RunConfig};

/// Build an admissible random plan: victims never rank 0, never violating
/// the RC conflict constraints when the technique is RC.
fn random_plan(
    layout: &ProcLayout,
    technique: Technique,
    n_failures: usize,
    max_step: u64,
    rng: &mut StdRng,
) -> FaultPlan {
    let conflicts = layout.system().rc_conflicts();
    let mut victims: Vec<(usize, u64)> = Vec::new();
    let mut guard = 0;
    while victims.len() < n_failures && guard < 1000 {
        guard += 1;
        let r = rng.gen_range(1..layout.world_size());
        if victims.iter().any(|&(v, _)| v == r) {
            continue;
        }
        if technique == Technique::ResamplingCopying {
            let mut broken: Vec<usize> = victims.iter().map(|&(v, _)| layout.grid_of(v)).collect();
            broken.push(layout.grid_of(r));
            if conflicts.iter().any(|&(a, b)| broken.contains(&a) && broken.contains(&b)) {
                continue;
            }
        }
        let step = rng.gen_range(0..=max_step);
        victims.push((r, step));
    }
    FaultPlan::new(victims)
}

#[test]
fn soak_random_failures_all_techniques() {
    let mut rng = StdRng::seed_from_u64(0xF1E57);
    let mut runs = 0;
    let mut total_failures = 0;
    for round in 0..18 {
        let technique = match round % 3 {
            0 => Technique::CheckpointRestart,
            1 => Technique::ResamplingCopying,
            _ => Technique::AlternateCombination,
        };
        let n = rng.gen_range(5u32..=7);
        let l = rng.gen_range(3u32..=4).min(n);
        let scale = rng.gen_range(1usize..=2);
        let log2_steps = rng.gen_range(4u32..=5);
        let cfg = AppConfig {
            n,
            l,
            scale,
            technique,
            log2_steps,
            plan: FaultPlan::none(),
            checkpoints: rng.gen_range(1..=3),
            ckpt_dir: ftsg_core::config::default_ckpt_dir(),
            ckpt_async: true,
            ckpt_corruption: Default::default(),
            problem: advect2d::AdvectionProblem::standard(),
            dim: 2,
            problem_nd: None,
            simulated_lost_grids: Vec::new(),
            respawn_policy: Default::default(),
            recovery_policy: Default::default(),
            spares: 0,
            output_prefix: None,
            kernel: advect2d::KernelConfig::global(),
            observer: None,
        };
        let layout = ProcLayout::new(n, l, technique.layout(), scale);
        let n_failures = rng.gen_range(1usize..=3).min(layout.world_size() / 4);
        // Kills may strike at any step: CR absorbs them mid-run, RC/AC
        // leave the group broken until end-of-run recovery.
        let max_step = cfg.steps();
        let plan = random_plan(&layout, technique, n_failures, max_step, &mut rng);
        let expected_failures = plan.n_failures();
        let cfg = cfg.with_plan(plan);

        let world = layout.world_size();
        let report =
            run(RunConfig::local(world).with_seed(round as u64), move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        assert_eq!(
            report.get_f64(keys::N_FAILED),
            Some(expected_failures as f64),
            "round {round} ({technique:?}, n={n}, l={l}, s={scale}): repairs"
        );
        let err = report.get_f64(keys::ERR_L1).unwrap();
        assert!(err.is_finite() && err < 0.5, "round {round} ({technique:?}): error {err}");
        runs += 1;
        total_failures += expected_failures;
    }
    assert_eq!(runs, 18);
    assert!(total_failures >= 18, "the soak must actually inject failures");
}

#[test]
fn soak_simulated_loss_patterns() {
    // Sweep every single-grid loss and a batch of random multi-losses for
    // AC, checking the robust combination never panics and never exceeds
    // a loose error budget.
    let technique = Technique::AlternateCombination;
    let base = AppConfig::paper_shaped(technique, 7, 1, 4);
    let layout = ProcLayout::new(base.n, base.l, technique.layout(), base.scale);
    let world = layout.world_size();
    let n_grids = layout.system().n_grids();

    for g in 0..n_grids {
        let cfg = base.clone().with_simulated_losses(vec![g]);
        let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        let err = report.get_f64(keys::ERR_L1).unwrap();
        assert!(err.is_finite() && err < 0.5, "single loss of grid {g}: {err}");
    }

    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..6 {
        let k = rng.gen_range(2..=4);
        let mut grids: Vec<usize> = Vec::new();
        while grids.len() < k {
            let g = rng.gen_range(0..n_grids);
            if !grids.contains(&g) {
                grids.push(g);
            }
        }
        grids.sort_unstable();
        let cfg = base.clone().with_simulated_losses(grids.clone());
        let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        let err = report.get_f64(keys::ERR_L1).unwrap();
        assert!(err.is_finite(), "losses {grids:?}: {err}");
    }
}
