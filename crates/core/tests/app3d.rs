//! End-to-end runs of the d-dimensional application driver: 3D
//! advection–diffusion and elliptic problems under every technique ×
//! recovery policy, healthy and with injected kills. The nd driver
//! reports under the same keys as the 2D one, so the assertions mirror
//! `app_e2e.rs` / `soak.rs`.

use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayoutN, RecoveryPolicy, Technique};
use ulfm_sim::{run, FaultPlan, Report, RunConfig};

const TECHNIQUES: [Technique; 4] = [
    Technique::CheckpointRestart,
    Technique::ResamplingCopying,
    Technique::AlternateCombination,
    Technique::BuddyCheckpoint,
];

fn layout_of(cfg: &AppConfig) -> ProcLayoutN {
    ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout(), cfg.scale)
}

fn run_3d(cfg: AppConfig) -> Report {
    let world = cfg.world_size(layout_of(&cfg).world_size());
    let report = run(RunConfig::local(world).with_seed(3), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

/// Healthy 3D runs: every technique converges to the same combined
/// solution (identical classical combination), under every policy.
#[test]
fn healthy_3d_error_is_technique_and_policy_invariant() {
    let mut baseline: Option<u64> = None;
    for technique in TECHNIQUES {
        for (policy, spares) in [
            (RecoveryPolicy::Respawn, 0usize),
            (RecoveryPolicy::DeferRepair, 0),
            (RecoveryPolicy::ShrinkRedistribute, 0),
            (RecoveryPolicy::SpareSubstitute, 2),
        ] {
            let cfg =
                AppConfig::small_nd(technique, 3).with_recovery_policy(policy).with_spares(spares);
            let report = run_3d(cfg);
            let err = report.get_f64(keys::ERR_L1).unwrap();
            assert!(
                err.is_finite() && err < 0.1,
                "{technique:?}/{policy:?}: 3D healthy error {err}"
            );
            // The healthy numerics must not depend on the protection
            // technique or the repair policy.
            match baseline {
                None => baseline = Some(err.to_bits()),
                Some(b) => assert_eq!(
                    err.to_bits(),
                    b,
                    "{technique:?}/{policy:?}: healthy 3D error bits drifted"
                ),
            }
            assert_eq!(report.get_f64(keys::N_FAILED), Some(0.0));
        }
    }
}

/// One mid-run kill under every technique × respawn-family policy: the
/// failure is detected, repaired, data recovered, and the final error
/// stays within the loss envelope (AC's robust combination is lossier
/// than exact recovery but must stay bounded).
#[test]
fn killed_3d_runs_recover_under_every_technique() {
    for technique in TECHNIQUES {
        for (policy, spares) in [
            (RecoveryPolicy::Respawn, 0usize),
            (RecoveryPolicy::DeferRepair, 0),
            (RecoveryPolicy::SpareSubstitute, 2),
        ] {
            let base =
                AppConfig::small_nd(technique, 3).with_recovery_policy(policy).with_spares(spares);
            let layout = layout_of(&base);
            // Kill the last active rank mid-run (never rank 0; a single
            // victim cannot violate the RC conflict constraint).
            let victim = layout.world_size() - 1;
            let step = base.steps() / 2;
            let cfg = base.with_plan(FaultPlan::new(vec![(victim, step)]));
            let report = run_3d(cfg);
            assert_eq!(
                report.get_f64(keys::N_FAILED),
                Some(1.0),
                "{technique:?}/{policy:?}: repair count"
            );
            let err = report.get_f64(keys::ERR_L1).unwrap();
            assert!(
                err.is_finite() && err < 0.5,
                "{technique:?}/{policy:?}: post-recovery error {err}"
            );
        }
    }
}

/// `ShrinkRedistribute` in 3D: the victim's grid is dropped and the
/// robust combination of the survivors still produces a bounded error.
#[test]
fn shrink_redistribute_drops_grids_in_3d() {
    for technique in TECHNIQUES {
        let base = AppConfig::small_nd(technique, 3)
            .with_recovery_policy(RecoveryPolicy::ShrinkRedistribute);
        let layout = layout_of(&base);
        let victim = layout.world_size() - 1;
        let step = base.steps() / 2;
        let cfg = base.with_plan(FaultPlan::new(vec![(victim, step)]));
        let report = run_3d(cfg);
        let err = report.get_f64(keys::ERR_L1).unwrap();
        assert!(err.is_finite() && err < 0.5, "{technique:?}: shrink error {err}");
        let dropped = report.get_list(keys::DROPPED_GRIDS).unwrap_or_default();
        assert_eq!(
            dropped,
            vec![layout.grid_of(victim) as f64],
            "{technique:?}: the victim's grid is dropped"
        );
        let world = report.get_f64(keys::WORLD).unwrap() as usize;
        assert!(world < layout.world_size(), "{technique:?}: the world shrank");
    }
}

/// The 3D elliptic problem (distributed Jacobi relaxation) through the
/// same fault-tolerant driver, healthy and with a kill.
#[test]
fn elliptic_3d_healthy_and_killed() {
    use advect2d::ndproblem::ProblemN;
    let base = AppConfig::small_nd(Technique::CheckpointRestart, 3)
        .with_problem_nd(ProblemN::standard_elliptic(3));
    let healthy = run_3d(base.clone());
    let err = healthy.get_f64(keys::ERR_L1).unwrap();
    assert!(err.is_finite() && err < 0.2, "healthy elliptic error {err}");

    let layout = layout_of(&base);
    let victim = layout.world_size() - 1;
    let step = base.steps() / 2;
    let killed = run_3d(base.with_plan(FaultPlan::new(vec![(victim, step)])));
    assert_eq!(killed.get_f64(keys::N_FAILED), Some(1.0));
    let kerr = killed.get_f64(keys::ERR_L1).unwrap();
    // Checkpoint recovery is exact up to the replayed steps.
    assert!((kerr - err).abs() < 1e-9, "elliptic CR recovery drifted: {kerr} vs {err}");
}

/// Simulated end-of-run grid losses (the paper's Fig. 9/10 experiment,
/// lifted to 3D): AC's robust combination over the survivors stays
/// bounded for every single-grid loss.
#[test]
fn simulated_3d_losses_stay_bounded() {
    let base = AppConfig::small_nd(Technique::AlternateCombination, 3);
    let layout = layout_of(&base);
    let healthy = run_3d(base.clone()).get_f64(keys::ERR_L1).unwrap();
    let n_grids = layout.system().n_grids();
    for g in (0..n_grids).step_by(5) {
        let cfg = base.clone().with_simulated_losses(vec![g]);
        let report = run_3d(cfg);
        let err = report.get_f64(keys::ERR_L1).unwrap();
        assert!(err.is_finite() && err < 0.5, "loss of grid {g}: error {err}");
        // Losing a duplicated level costs nothing; losing a unique one
        // may move the error but must not blow it up.
        assert!(err < 20.0 * healthy.max(1e-3), "loss of grid {g}: {err} vs healthy {healthy}");
    }
}

/// A bad (dim, n, l) triple must surface as a clean config error at the
/// application boundary, not a panic inside the simplex enumeration.
#[test]
fn invalid_nd_config_is_rejected_before_launch() {
    let mut cfg = AppConfig::small_nd(Technique::CheckpointRestart, 3);
    cfg.n = 2;
    cfg.l = 4;
    assert!(cfg.validate().unwrap_err().contains('l'), "n < l must be a config error");
}
