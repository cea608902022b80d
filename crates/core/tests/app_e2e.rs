//! End-to-end tests of the fault-tolerant application: real distributed
//! solves over the simulated runtime, real fail-stop kills, real
//! communicator reconstruction, and all three data recovery techniques.

use std::sync::{Arc, Mutex};

use ftsg_core::app::keys;
use ftsg_core::config::{AppEvent, AppObserver};
use ftsg_core::{run_app, AppConfig, ProcLayout, ProcLayoutN, Technique};
use ulfm_sim::{run, FaultPlan, Report, RunConfig};

fn launch(cfg: AppConfig) -> Report {
    let world =
        ftsg_core::ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let rc = RunConfig::local(world);
    let report = run(rc, move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

#[test]
fn healthy_run_cr() {
    let report = launch(AppConfig::small(Technique::CheckpointRestart));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(err.is_finite() && err < 0.05, "combined-solution error {err}");
    assert_eq!(report.get_f64(keys::N_FAILED), Some(0.0));
    assert!(report.get_f64(keys::T_CKPT).unwrap() > 0.0, "CR must checkpoint");
    assert_eq!(report.procs_failed, 0);
}

#[test]
fn healthy_run_rc() {
    let report = launch(AppConfig::small(Technique::ResamplingCopying));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(err.is_finite() && err < 0.05);
    assert_eq!(report.get_f64(keys::T_CKPT), Some(0.0));
}

#[test]
fn healthy_run_ac() {
    let report = launch(AppConfig::small(Technique::AlternateCombination));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(err.is_finite() && err < 0.05);
}

#[test]
fn healthy_error_identical_across_techniques() {
    // Without failures the combined solution is technique-independent:
    // redundancy grids do not enter the classical combination.
    let e_cr =
        launch(AppConfig::small(Technique::CheckpointRestart)).get_f64(keys::ERR_L1).unwrap();
    let e_rc =
        launch(AppConfig::small(Technique::ResamplingCopying)).get_f64(keys::ERR_L1).unwrap();
    let e_ac =
        launch(AppConfig::small(Technique::AlternateCombination)).get_f64(keys::ERR_L1).unwrap();
    assert!((e_cr - e_rc).abs() < 1e-14, "CR {e_cr} vs RC {e_rc}");
    assert!((e_cr - e_ac).abs() < 1e-14, "CR {e_cr} vs AC {e_ac}");
}

/// One failure at the end (the paper's standard injection point for RC and
/// AC), recovered, error stays close to baseline.
#[test]
fn rc_recovers_single_failure_at_end() {
    let base = AppConfig::small(Technique::ResamplingCopying);
    let steps = base.steps();
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();

    // Kill one rank of a diagonal group (grid 1): exact copy recovery.
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(1).first; // root of grid 1 — also exercises root respawn
    let cfg = base.with_plan(FaultPlan::single(victim, steps));
    let report = launch(cfg);
    assert_eq!(report.get_f64(keys::N_FAILED), Some(1.0));
    assert!(report.get_f64(keys::T_RECONSTRUCT).unwrap() > 0.0);
    let err = report.get_f64(keys::ERR_L1).unwrap();
    // Duplicate copy is exact → error equals the baseline.
    assert!(
        (err - baseline).abs() < 1e-12,
        "copy recovery should be exact: {err} vs baseline {baseline}"
    );
}

#[test]
fn rc_resample_recovery_is_approximate_but_close() {
    let base = AppConfig::small(Technique::ResamplingCopying);
    let steps = base.steps();
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
    // Kill a rank of a lower-diagonal grid → resampling from the finer
    // diagonal above it.
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let lower_id = base.l as usize; // first lower-diagonal grid
    let victim = layout.group(lower_id).first;
    let report = launch(base.with_plan(FaultPlan::single(victim, steps)));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(err.is_finite());
    // Within a factor of 10 of baseline (the paper's robustness headline).
    assert!(err < 10.0 * baseline, "resample error {err} vs baseline {baseline}");
}

#[test]
fn ac_recovers_single_failure_within_factor_10() {
    let base = AppConfig::small(Technique::AlternateCombination);
    let steps = base.steps();
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(1).first; // middle diagonal grid → recruits extras
    let report = launch(base.with_plan(FaultPlan::single(victim, steps)));
    assert_eq!(report.get_f64(keys::N_FAILED), Some(1.0));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(err.is_finite() && err > 0.0);
    assert!(err < 10.0 * baseline, "AC error {err} vs baseline {baseline}");
}

#[test]
fn cr_recovers_midrun_failure_exactly() {
    let base = AppConfig::small(Technique::CheckpointRestart);
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
    // Kill mid-segment: detection at the next checkpoint, restart, exact
    // recompute → error identical to baseline.
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(2).first + 1;
    let report = launch(base.with_plan(FaultPlan::single(victim, 15)));
    assert_eq!(report.get_f64(keys::N_FAILED), Some(1.0));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(
        (err - baseline).abs() < 1e-12,
        "CR recovery must be exact: {err} vs baseline {baseline}"
    );
    assert!(report.get_f64(keys::T_RECOVERY).unwrap() > 0.0);
}

/// What rank 0 streams to an observer over a run with one kill: the
/// first event is `Epoch { step: 0 }` (the benchmark harness splits set-up
/// from solve there), epoch steps strictly increase, and the one repair
/// arrives once, as `Recovered { ranks: 1 }`, after the kill step.
#[test]
fn observer_sees_epoch_zero_first_and_one_recovery_after_the_kill() {
    let kill = 15;
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let base = AppConfig::small(Technique::CheckpointRestart);
    let steps = base.steps();
    let layout = ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(2).first + 1;
    let cfg = base
        .with_plan(FaultPlan::single(victim, kill))
        .with_observer(AppObserver::new(move |ev| sink.lock().unwrap().push(ev)));
    let report = launch(cfg);
    assert_eq!(report.get_f64(keys::N_FAILED), Some(1.0));

    let events = events.lock().unwrap().clone();
    assert_eq!(events.first(), Some(&AppEvent::Epoch { step: 0, steps }), "{events:?}");
    let epochs: Vec<u64> = events
        .iter()
        .filter_map(|ev| match *ev {
            AppEvent::Epoch { step, .. } => Some(step),
            AppEvent::Recovered { .. } => None,
        })
        .collect();
    assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epochs {epochs:?}");
    let recovered: Vec<(u64, usize)> = events
        .iter()
        .filter_map(|ev| match *ev {
            AppEvent::Recovered { step, ranks } => Some((step, ranks)),
            AppEvent::Epoch { .. } => None,
        })
        .collect();
    assert_eq!(recovered.len(), 1, "{events:?}");
    let (step, ranks) = recovered[0];
    assert_eq!(ranks, 1);
    assert!(step > kill, "recovered at step {step}, killed at {kill}");
}

#[test]
fn cr_failure_before_first_checkpoint_restarts_from_ic() {
    let base = AppConfig::small(Technique::CheckpointRestart);
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(1).first;
    // Dies at step 3, before the first checkpoint at step 10.
    let report = launch(base.with_plan(FaultPlan::single(victim, 3)));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!((err - baseline).abs() < 1e-12, "IC restart is exact: {err} vs {baseline}");
}

/// Alternate Combination recovers by its coefficients alone: a kill right
/// before the final detection and a failure-free run that merely *lists*
/// the same grid as lost (`simulated_lost_grids`, whose solvers keep their
/// true data) report the same error to the bit — so the final solution
/// reads nothing of the killed grid, neither a respawned solver's initial
/// condition nor any recovered sample. In 2D and 3D.
#[test]
fn ac_kill_at_the_end_combines_exactly_like_a_listed_loss() {
    let grid = 1;
    for dim in [2usize, 3] {
        let base = if dim >= 3 {
            // n = 5, not 4: at m = 1 the error is taken on a 3×3×3 grid
            // where every combination agrees, lost grid or not.
            let mut cfg = AppConfig::small_nd(Technique::AlternateCombination, dim);
            cfg.n = 5;
            cfg
        } else {
            AppConfig::small(Technique::AlternateCombination)
        };
        let (world, first, size) = if dim >= 3 {
            let lay = ProcLayoutN::new(dim, base.n, base.l, base.technique.layout(), base.scale);
            (lay.world_size(), lay.group(grid).first, lay.group(grid).size)
        } else {
            let lay = ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
            (lay.world_size(), lay.group(grid).first, lay.group(grid).size)
        };
        assert!(size > 1, "{dim}D: grid {grid} needs a non-root member");
        let launch = |cfg: AppConfig| {
            let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
            report.assert_no_app_errors();
            report.get_f64(keys::ERR_L1).unwrap()
        };
        let healthy = launch(base.clone());
        let listed = launch(base.clone().with_simulated_losses(vec![grid]));
        let killed = launch(base.clone().with_plan(FaultPlan::single(first + 1, base.steps())));
        assert_ne!(listed.to_bits(), healthy.to_bits(), "{dim}D: the loss must show");
        assert_eq!(
            killed.to_bits(),
            listed.to_bits(),
            "{dim}D: killed {killed} vs listed {listed}"
        );
    }
}

#[test]
fn multiple_failures_across_grids_all_techniques() {
    for technique in [
        Technique::CheckpointRestart,
        Technique::ResamplingCopying,
        Technique::AlternateCombination,
    ] {
        let base = AppConfig::paper_shaped(technique, 6, 1, 5);
        let steps = base.steps();
        let layout = ftsg_core::ProcLayout::new(base.n, base.l, technique.layout(), base.scale);
        // Two victims on two different, non-conflicting grids.
        let v1 = layout.group(1).first + 1; // diagonal 1 (non-root member)
        let v2 = layout.group(2).first; // diagonal 2 root
        let when = if technique == Technique::CheckpointRestart { 5 } else { steps };
        let report = launch(base.with_plan(FaultPlan::new(vec![(v1, when), (v2, when)])));
        assert_eq!(
            report.get_f64(keys::N_FAILED),
            Some(2.0),
            "{technique:?} must repair both failures"
        );
        let err = report.get_f64(keys::ERR_L1).unwrap();
        assert!(err.is_finite() && err < 0.1, "{technique:?} error {err}");
        assert_eq!(report.procs_failed, 2);
    }
}

#[test]
fn respawned_ranks_return_to_original_hosts() {
    // The load-balancing property: children are spawned on the host the
    // failed rank occupied (hostfile line failedRank / SLOTS).
    let base = AppConfig::small(Technique::AlternateCombination);
    let steps = base.steps();
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(2).first;
    let cfg = base.with_plan(FaultPlan::single(victim, steps));
    let world = layout.world_size();
    let rc = RunConfig::local(world);
    let slots = rc.profile.slots_per_host;
    let report = run(rc, move |ctx| {
        if ctx.is_spawned() {
            ctx.report_f64("child_host", ctx.my_host() as f64);
        }
        run_app(&cfg, ctx);
    });
    report.assert_no_app_errors();
    let expect = (victim / slots) as f64;
    assert_eq!(report.get_f64("child_host"), Some(expect));
}

#[test]
fn total_time_grows_with_failures() {
    let base = AppConfig::small(Technique::ResamplingCopying);
    let steps = base.steps();
    let t0 = launch(base.clone()).get_f64(keys::T_TOTAL).unwrap();
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(3).first;
    let t1 =
        launch(base.with_plan(FaultPlan::single(victim, steps))).get_f64(keys::T_TOTAL).unwrap();
    assert!(t1 > t0, "failure run ({t1}) must cost more than healthy ({t0})");
}

#[test]
fn two_separate_failure_epochs_under_cr() {
    // Failures in *different* segments of a Checkpoint/Restart run: the
    // application reconstructs twice, restores from different checkpoints,
    // and still finishes exactly.
    let base = AppConfig::small(Technique::CheckpointRestart); // 32 steps, ckpts at 10/20/30
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let v1 = layout.group(1).first; // dies at step 5 → detected at 10
    let v2 = layout.group(2).first + 1; // dies at step 25 → detected at 30
    let report = launch(base.with_plan(FaultPlan::new(vec![(v1, 5), (v2, 25)])));
    assert_eq!(report.get_f64(keys::N_FAILED), Some(2.0));
    assert_eq!(report.procs_failed, 2);
    assert_eq!(report.procs_created, layout.world_size() + 2);
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(
        (err - baseline).abs() < 1e-12,
        "two-epoch CR recovery must stay exact: {err} vs {baseline}"
    );
}

#[test]
fn same_rank_position_can_fail_twice() {
    // The rank position that failed and was respawned fails AGAIN in a
    // later segment: its replacement's replacement must still come up and
    // the run must finish exactly. (Respawned processes re-enter the same
    // application entry, so the second kill hits the child.)
    let base = AppConfig::small(Technique::CheckpointRestart);
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let v = layout.group(1).first;
    // Dies at step 5 (detected at 10, respawned), then the *replacement*
    // dies at step 25 (detected at 30, respawned again).
    let report = launch(base.with_plan(FaultPlan::new(vec![(v, 5), (v, 25)])));
    assert_eq!(report.get_f64(keys::N_FAILED), Some(1.0), "same rank id both times");
    assert_eq!(report.procs_failed, 2, "two distinct processes died");
    assert_eq!(report.procs_created, layout.world_size() + 2);
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!((err - baseline).abs() < 1e-12);
}

#[test]
fn buddy_checkpoint_healthy_and_exact_recovery() {
    // Healthy run matches the other techniques' baseline error; a mid-run
    // failure restores from the buddy's in-memory copy and recomputes —
    // exact, like CR, but with zero disk traffic.
    let base = AppConfig::small(Technique::BuddyCheckpoint);
    let baseline_cr =
        launch(AppConfig::small(Technique::CheckpointRestart)).get_f64(keys::ERR_L1).unwrap();
    let healthy = launch(base.clone());
    let e0 = healthy.get_f64(keys::ERR_L1).unwrap();
    assert!((e0 - baseline_cr).abs() < 1e-14, "BC healthy == CR healthy");

    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let victim = layout.group(2).first; // group root dies mid-run
    let report = launch(base.with_plan(FaultPlan::single(victim, 15)));
    assert_eq!(report.get_f64(keys::N_FAILED), Some(1.0));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!((err - e0).abs() < 1e-12, "buddy recovery must be exact: {err} vs {e0}");
    assert!(report.get_f64(keys::T_RECOVERY).unwrap() > 0.0);
}

#[test]
fn buddy_checkpoint_falls_back_to_ic_when_buddy_root_dies_too() {
    // Kill a grid's root AND its buddy's root in the same epoch: the
    // in-memory copy dies with the buddy, so recovery restarts the grid
    // from the initial condition and recomputes everything — still exact.
    let base = AppConfig::small(Technique::BuddyCheckpoint);
    let baseline = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    // Buddy of grid g is the next combining grid; grid 1's buddy is 2.
    let v1 = layout.group(1).first;
    let v2 = layout.group(2).first;
    let report = launch(base.with_plan(FaultPlan::new(vec![(v1, 15), (v2, 15)])));
    assert_eq!(report.get_f64(keys::N_FAILED), Some(2.0));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!((err - baseline).abs() < 1e-12, "IC fallback still exact: {err} vs {baseline}");
}

#[test]
fn buddy_checkpoint_avoids_disk_entirely() {
    // Virtual disk accounting: BC's protection time excludes the disk
    // latency that dominates CR on a slow-disk cluster.
    use ulfm_sim::ClusterProfile;
    let world =
        ftsg_core::ProcLayout::new(6, 3, Technique::BuddyCheckpoint.layout(), 1).world_size();
    let time_of = |technique: Technique| {
        let cfg = AppConfig::small(technique);
        let report =
            run(RunConfig::cluster(ClusterProfile::opl(), world), move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        report.get_f64(keys::T_CKPT).unwrap()
    };
    let cr = time_of(Technique::CheckpointRestart);
    let bc = time_of(Technique::BuddyCheckpoint);
    assert!(
        bc < cr / 100.0,
        "diskless protection ({bc}) must be far below disk checkpoints ({cr})"
    );
}

#[test]
fn only_checkpoint_restart_opens_a_checkpoint_directory() {
    // Every other technique keeps its data in memory: no rank creates the
    // directory. Under CR rank 0 removes it at the end, with every
    // checkpoint in it.
    for technique in [
        Technique::ResamplingCopying,
        Technique::AlternateCombination,
        Technique::BuddyCheckpoint,
        Technique::CheckpointRestart,
    ] {
        let cfg = AppConfig::small(technique);
        let dir = cfg.ckpt_dir.clone();
        assert!(!dir.exists(), "{dir:?} is fresh");
        let r = launch(cfg);
        if technique == Technique::CheckpointRestart {
            assert!(r.get_f64(keys::T_CKPT).unwrap() > 0.0, "CR wrote checkpoints");
        }
        assert!(!dir.exists(), "{technique:?} left {dir:?}");
    }
}

#[test]
fn a_checkpoint_restart_run_leaves_nothing_at_its_checkpoint_directory() {
    // A fresh path, a kill mid-run: checkpoints are written, one is read
    // back by the restart, and the run ends with the path gone.
    let dir = std::env::temp_dir().join(format!("ftsg-e2e-leftover-{}", std::process::id()));
    assert!(!dir.exists(), "{dir:?} is fresh");
    let mut cfg =
        AppConfig::small(Technique::CheckpointRestart).with_plan(FaultPlan::new(vec![(1, 15)]));
    cfg.ckpt_dir = dir.clone();
    let r = launch(cfg);
    assert_eq!(r.procs_failed, 1);
    assert!(r.get_f64(keys::T_RECOVERY).unwrap() > 0.0, "the restart read a checkpoint");
    assert!(!dir.exists(), "the run left {dir:?}");
}

/// A Checkpoint/Restart kill that strikes during the combination, in 2D
/// and 3D: the victim, a non-root member of grid 1, dies entering its
/// first allreduce, which is the combination's. The combination's repair
/// restores the group from its last checkpoint and recomputes to the end,
/// so solvers that released their spare buffer with the run's last step
/// step again. The error must equal the failure-free run's to the bit,
/// and it and the makespan must equal values pinned before solvers
/// released their spare. Message counts are not pinned: with more than
/// one scheduler worker they depend on timing.
#[test]
fn cr_kill_during_the_combination_recomputes_to_the_pinned_bits() {
    use ulfm_sim::{FaultSite, OpClass};
    let grid = 1;
    for (dim, err_bits, makespan_bits) in [
        (2usize, 0x3f41_f1f2_92e9_3597_u64, 0x3f6e_d010_5f59_e8fc_u64),
        (3, 0x3f82_660e_c2ab_84f1, 0x3f6d_8080_bb48_b852),
    ] {
        let base = if dim >= 3 {
            // n = 5: at m = 1 the error is taken where every combination
            // agrees, so it could not tell restored data from any other.
            let mut cfg = AppConfig::small_nd(Technique::CheckpointRestart, dim);
            cfg.n = 5;
            cfg
        } else {
            AppConfig::small(Technique::CheckpointRestart)
        };
        let (world, first) = if dim >= 3 {
            let lay = ProcLayoutN::new(dim, base.n, base.l, base.technique.layout(), base.scale);
            (lay.world_size(), lay.group(grid).first)
        } else {
            let lay = ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
            (lay.world_size(), lay.group(grid).first)
        };
        let launch = |cfg: AppConfig| {
            let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
            report.assert_no_app_errors();
            report
        };
        let healthy = launch(base.clone()).get_f64(keys::ERR_L1).unwrap();
        let site = FaultSite::Op { kind: OpClass::Allreduce, nth: 0 };
        let killed = launch(base.with_plan(FaultPlan::at_site(first + 1, site)));
        assert_eq!(killed.get_f64(keys::N_FAILED), Some(1.0), "{dim}D");
        assert!(killed.get_f64(keys::T_RECOVERY).unwrap() > 0.0, "{dim}D: no restore ran");
        let err = killed.get_f64(keys::ERR_L1).unwrap();
        assert_eq!(err.to_bits(), healthy.to_bits(), "{dim}D: {err} vs healthy {healthy}");
        assert_eq!(err.to_bits(), err_bits, "{dim}D: err_l1 {err}");
        assert_eq!(killed.makespan.to_bits(), makespan_bits, "{dim}D: {}", killed.makespan);
    }
}
