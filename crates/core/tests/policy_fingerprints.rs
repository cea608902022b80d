//! Bitwise fingerprints of the healthy (no-failure) application run.
//!
//! The recovery-policy engine's contract is that the no-failure path under
//! the default `Respawn` policy is **bitwise-identical** to the pre-policy
//! code: same `err_l1` bits, same virtual makespan bits, for every
//! technique. These constants were captured from the tree *before* the
//! policy engine landed; any drift in them means the healthy path gained
//! or lost an operation.
//!
//! `DeferRepair` adds no operations until a failure occurs, so its healthy
//! run must match `Respawn` exactly too. `ShrinkRedistribute` and
//! `SpareSubstitute` change the end-of-run gathers / world size (so their
//! makespans legitimately differ), but the *numerics* — the combined
//! solution error — must still be bit-equal on a healthy run.
//!
//! The d = 3 table below holds the d-dimensional stack to the same three
//! contracts.

use advect2d::ndproblem::ProblemN;
use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayout, ProcLayoutN, RecoveryPolicy, Technique};
use ulfm_sim::{run, Report, RunConfig};

fn healthy_report(cfg: AppConfig) -> Report {
    let layout_world =
        ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let world = cfg.world_size(layout_world);
    let report = run(RunConfig::local(world).with_seed(1), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

fn fingerprint(technique: Technique) -> (u64, u64) {
    let report = healthy_report(AppConfig::small(technique));
    let err = report.get_f64(keys::ERR_L1).expect("controller reports err_l1");
    (err.to_bits(), report.makespan.to_bits())
}

/// (technique, err_l1 bits, makespan bits) under `AppConfig::small`,
/// seed 1, captured pre-policy-engine. The CR makespan was re-captured
/// twice. The disk falls behind this shape's checkpoints: when the
/// checkpoint writer became newest-wins, the end-of-run drain paid for at
/// most two writes (0.002188 vsec; it paid for every queued one,
/// 0.003196); since the end of the run supersedes the queued snapshot, it
/// pays for the write in flight alone (0.0011787).
const PINNED: &[(Technique, u64, u64)] = &[
    (Technique::CheckpointRestart, 0x3f41f1f292e93597, 0x3f535003ce6bb359),
    (Technique::ResamplingCopying, 0x3f41f1f292e93597, 0x3f38acd2b9ff4857),
    (Technique::AlternateCombination, 0x3f41f1f292e93597, 0x3f38ab7b2111254d),
    (Technique::BuddyCheckpoint, 0x3f41f1f292e93597, 0x3f3dfc953c67ba5c),
];

#[test]
fn healthy_run_is_bitwise_stable_per_technique() {
    let actual: Vec<(Technique, u64, u64)> = PINNED
        .iter()
        .map(|&(t, _, _)| {
            let (e, m) = fingerprint(t);
            (t, e, m)
        })
        .collect();
    for (t, e, m) in &actual {
        println!("    ({:?}, {:#018x}, {:#018x}),", t, e, m);
    }
    for (&(t, err_bits, mk_bits), &(_, e, m)) in PINNED.iter().zip(&actual) {
        assert_eq!(e, err_bits, "{} err_l1 bits drifted", t.label());
        assert_eq!(m, mk_bits, "{} makespan bits drifted", t.label());
    }
}

/// `DeferRepair` adds no operation until a failure happens: its healthy
/// run must be bitwise-identical to `Respawn` — makespan included.
#[test]
fn healthy_defer_is_bitwise_identical_to_respawn() {
    for &(t, err_bits, mk_bits) in PINNED {
        let report =
            healthy_report(AppConfig::small(t).with_recovery_policy(RecoveryPolicy::DeferRepair));
        let err = report.get_f64(keys::ERR_L1).expect("err_l1");
        assert_eq!(err.to_bits(), err_bits, "{} defer err bits", t.label());
        assert_eq!(report.makespan.to_bits(), mk_bits, "{} defer makespan bits", t.label());
    }
}

/// `ShrinkRedistribute` and `SpareSubstitute` change the end-of-run
/// gathers (and, for substitute, the world size), so their makespans
/// legitimately differ — but with no failure the *numerics* take exactly
/// the same path: the combined-solution error must be bit-equal.
#[test]
fn healthy_shrink_and_substitute_keep_error_bits() {
    for &(t, err_bits, _) in PINNED {
        for (policy, spares) in
            [(RecoveryPolicy::ShrinkRedistribute, 0usize), (RecoveryPolicy::SpareSubstitute, 2)]
        {
            let report = healthy_report(
                AppConfig::small(t).with_recovery_policy(policy).with_spares(spares),
            );
            let err = report.get_f64(keys::ERR_L1).expect("err_l1");
            assert_eq!(err.to_bits(), err_bits, "{} {} err bits", t.label(), policy);
            // Contract bookkeeping on the healthy run.
            let world = report.get_f64(keys::WORLD).unwrap() as usize;
            let orig = report.get_list(keys::RANK_ORIG).expect("policy gathers rank_orig");
            assert_eq!(orig.len(), world);
            for (i, &o) in orig.iter().enumerate() {
                assert_eq!(o as usize, i, "healthy {} run is the identity map", policy);
            }
            if policy == RecoveryPolicy::ShrinkRedistribute {
                assert_eq!(
                    report.get_list(keys::DROPPED_GRIDS).unwrap_or_default(),
                    Vec::<f64>::new()
                );
            }
        }
    }
}

// ---- The same three contracts at d = 3. ----

fn healthy_report_3d(cfg: AppConfig) -> Report {
    let layout_world =
        ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let world = cfg.world_size(layout_world);
    let report = run(RunConfig::local(world).with_seed(1), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

/// `AppConfig::small_nd(technique, 3)`, on the elliptic problem if asked.
fn small_3d(technique: Technique, elliptic: bool) -> AppConfig {
    let cfg = AppConfig::small_nd(technique, 3);
    if elliptic {
        cfg.with_problem_nd(ProblemN::standard_elliptic(3))
    } else {
        cfg
    }
}

/// (technique, elliptic, err_l1 bits, makespan bits) under
/// `AppConfig::small_nd(technique, 3)`, seed 1, captured from the
/// d-dimensional driver before it became an instance of the generic one.
const PINNED_3D: &[(Technique, bool, u64, u64)] = &[
    (Technique::CheckpointRestart, false, 0x3fb5feba2f2e25f9, 0x3f6a31eb123ac8b5),
    (Technique::ResamplingCopying, false, 0x3fb5feba2f2e25f9, 0x3f22efcf63de7f58),
    (Technique::AlternateCombination, false, 0x3fb5feba2f2e25f9, 0x3f20eb1265bbcf29),
    (Technique::BuddyCheckpoint, false, 0x3fb5feba2f2e25f9, 0x3f2a9e198ea4fc7e),
    // The elliptic problem (distributed Jacobi). Its error is the
    // round-off residue ROADMAP item 1a describes; the bits still pin it.
    (Technique::CheckpointRestart, true, 0x36154aa962ffbda0, 0x3f6a31eb123ac8b5),
];

#[test]
fn healthy_3d_run_is_bitwise_stable_per_technique() {
    let actual: Vec<(u64, u64)> = PINNED_3D
        .iter()
        .map(|&(t, elliptic, _, _)| {
            let report = healthy_report_3d(small_3d(t, elliptic));
            let err = report.get_f64(keys::ERR_L1).expect("controller reports err_l1");
            (err.to_bits(), report.makespan.to_bits())
        })
        .collect();
    for (&(t, elliptic, _, _), (e, m)) in PINNED_3D.iter().zip(&actual) {
        println!("    ({:?}, {elliptic}, {:#018x}, {:#018x}),", t, e, m);
    }
    for (&(t, elliptic, err_bits, mk_bits), &(e, m)) in PINNED_3D.iter().zip(&actual) {
        assert_eq!(e, err_bits, "{} (elliptic {elliptic}) 3D err_l1 bits drifted", t.label());
        assert_eq!(m, mk_bits, "{} (elliptic {elliptic}) 3D makespan bits drifted", t.label());
    }
}

#[test]
fn healthy_3d_defer_is_bitwise_identical_to_respawn() {
    for &(t, elliptic, err_bits, mk_bits) in PINNED_3D {
        let cfg = small_3d(t, elliptic).with_recovery_policy(RecoveryPolicy::DeferRepair);
        let report = healthy_report_3d(cfg);
        let err = report.get_f64(keys::ERR_L1).expect("err_l1");
        assert_eq!(err.to_bits(), err_bits, "{} 3D defer err bits", t.label());
        assert_eq!(report.makespan.to_bits(), mk_bits, "{} 3D defer makespan bits", t.label());
    }
}

#[test]
fn healthy_3d_shrink_and_substitute_keep_error_bits() {
    for &(t, elliptic, err_bits, _) in PINNED_3D {
        for (policy, spares) in
            [(RecoveryPolicy::ShrinkRedistribute, 0usize), (RecoveryPolicy::SpareSubstitute, 2)]
        {
            let cfg = small_3d(t, elliptic).with_recovery_policy(policy).with_spares(spares);
            let report = healthy_report_3d(cfg);
            let err = report.get_f64(keys::ERR_L1).expect("err_l1");
            assert_eq!(err.to_bits(), err_bits, "{} {} 3D err bits", t.label(), policy);
            let world = report.get_f64(keys::WORLD).unwrap() as usize;
            let orig = report.get_list(keys::RANK_ORIG).expect("policy gathers rank_orig");
            assert_eq!(orig.len(), world);
            for (i, &o) in orig.iter().enumerate() {
                assert_eq!(o as usize, i, "healthy 3D {} run is the identity map", policy);
            }
            if policy == RecoveryPolicy::ShrinkRedistribute {
                assert_eq!(
                    report.get_list(keys::DROPPED_GRIDS).unwrap_or_default(),
                    Vec::<f64>::new()
                );
            }
        }
    }
}
