//! Kill sweep inside the confirming round.
//!
//! The data recovery of a failure event runs between the confirming
//! round's agree and its barrier, and that barrier is the only commit
//! point. This sweep strikes a *second* victim at every operation the
//! round and the recovery make — each `DuringRecovery` index until the
//! site stops firing (the repair's shrink/spawn/merge/agree/split, then
//! the attempt's metadata broadcast, its group split and the technique's
//! restore transfers), and the round's own agree, barrier, broadcast and
//! splits by operation count — with the second victim in the primary
//! victim's grid, in another grid, and next to the respawned slot, for
//! every technique × refill policy × {2D, 3D}. Every run must finish
//! without an application error or a stall, repair exactly the kills that
//! landed, and keep the technique's accuracy contract: CR/BC reproduce
//! the failure-free error to the bit; RC/AC end exactly where the same
//! victims dying *together* at the detection point end (the approximate
//! techniques' error depends on which grids were lost, not on when).

use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayout, ProcLayoutN, RecoveryPolicy, Technique};
use ulfm_sim::{run, FaultPlan, FaultSite, OpClass, Report, RunConfig};

const TECHNIQUES: [Technique; 4] = [
    Technique::CheckpointRestart,
    Technique::ResamplingCopying,
    Technique::AlternateCombination,
    Technique::BuddyCheckpoint,
];

/// Two lost grids on these small shapes: the multi-failure version of the
/// paper's Fig. 10 factor-10 observation, as the chaos O3 oracle has it.
const ENVELOPE: f64 = 64.0;

const POLICIES: [(RecoveryPolicy, usize); 3] = [
    (RecoveryPolicy::Respawn, 0),
    (RecoveryPolicy::SpareSubstitute, 2),
    (RecoveryPolicy::DeferRepair, 0),
];

/// `(first rank, size)` of every grid's group, and the ranks that must not
/// fail together with `failed` under Resampling and Copying.
fn shape_of(cfg: &AppConfig, failed: &[usize]) -> (Vec<(usize, usize)>, Vec<usize>) {
    let layout = cfg.technique.layout();
    if cfg.dim >= 3 {
        let lay = ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, layout, cfg.scale);
        let groups = lay.groups().iter().map(|g| (g.first, g.size)).collect();
        (groups, lay.rc_forbidden_ranks(failed))
    } else {
        let lay = ProcLayout::new(cfg.n, cfg.l, layout, cfg.scale);
        let groups = lay.groups().iter().map(|g| (g.first, g.size)).collect();
        (groups, lay.rc_forbidden_ranks(failed))
    }
}

fn launch(cfg: AppConfig) -> Report {
    let (groups, _) = shape_of(&cfg, &[]);
    let layout_world = groups.last().map_or(0, |&(first, size)| first + size);
    let world = cfg.world_size(layout_world);
    run(RunConfig::local(world).with_seed(5), move |ctx| run_app(&cfg, ctx))
}

/// The primary victim (last member of the first multi-rank grid other
/// than the controller's) and the three second victims: same grid, another
/// grid, and the world-rank neighbour of the slot being refilled.
fn victims(cfg: &AppConfig) -> (usize, [(&'static str, usize); 3]) {
    let (groups, _) = shape_of(cfg, &[]);
    let &(first, size) = groups
        .iter()
        .skip(1)
        .find(|&&(_, size)| size >= 2)
        .expect("a multi-rank grid besides the controller's");
    let primary = first + size - 1;
    let same = first;
    let world = groups.last().map_or(0, |&(f, s)| f + s);
    let (_, rc_forbidden) = shape_of(cfg, &[primary]);
    let admissible = |r: usize| {
        r != 0
            && r != primary
            && r != same
            && !(cfg.technique == Technique::ResamplingCopying && rc_forbidden.contains(&r))
    };
    let other = (1..world).rev().find(|&r| admissible(r)).expect("a victim in another grid");
    let neighbour = (primary + 1..world)
        .chain((1..primary).rev())
        .find(|&r| admissible(r) && r != other)
        .expect("a neighbour of the refilled slot");
    (primary, [("same grid", same), ("other grid", other), ("neighbour", neighbour)])
}

/// The second victim's strike sites beyond the `DuringRecovery` sweep.
fn op_sites() -> Vec<FaultSite> {
    let op = |kind, nth| FaultSite::Op { kind, nth };
    vec![
        op(OpClass::Barrier, 1),
        op(OpClass::Barrier, 2),
        op(OpClass::Bcast, 0),
        op(OpClass::Split, 1),
        op(OpClass::Split, 2),
        op(OpClass::Agree, 1),
        op(OpClass::Agree, 2),
    ]
}

/// `err_l1` of `base` with the given victims all dying at step `when`.
fn reference(base: &AppConfig, victims: &[usize], when: u64) -> f64 {
    let plan = FaultPlan::new(victims.iter().map(|&v| (v, when)).collect());
    let report = launch(base.clone().with_plan(plan));
    assert!(report.app_errors.is_empty(), "reference {victims:?}: {:?}", report.app_errors);
    assert_eq!(report.procs_failed, victims.len());
    report.get_f64(keys::ERR_L1).expect("reference err_l1")
}

/// Run one two-victim case and check every contract. `expected` is the
/// error the run must reproduce, by number of kills that landed (1 or 2);
/// returns that number.
fn check(
    base: &AppConfig,
    expected: [f64; 2],
    primary: (usize, u64),
    second: (usize, FaultSite),
) -> usize {
    let what = format!(
        "{:?}/{:?}/{}D primary {primary:?} second {second:?}",
        base.technique, base.recovery_policy, base.dim
    );
    let plan = FaultPlan::new_sites(vec![(primary.0, FaultSite::Step(primary.1)), second]);
    let report = launch(base.clone().with_plan(plan));
    // A stall would surface here too, as a collective-mismatch error.
    assert!(report.app_errors.is_empty(), "{what}: {:?}", report.app_errors);
    let landed = report.procs_failed;
    assert!((1..=2).contains(&landed), "{what}: {landed} kills landed");
    assert_eq!(
        report.get_f64(keys::N_FAILED),
        Some(landed as f64),
        "{what}: every kill that landed is repaired, nothing else"
    );
    let err = report.get_f64(keys::ERR_L1).expect("err_l1");
    let want = expected[landed - 1];
    assert_eq!(err.to_bits(), want.to_bits(), "{what}: err_l1 {err:e}, expected {want:e}");
    landed
}

fn sweep(dim: usize) {
    let mut cases = 0usize;
    for technique in TECHNIQUES {
        for (policy, spares) in POLICIES {
            let base = if dim >= 3 {
                AppConfig::small_nd(technique, dim)
            } else {
                AppConfig::small(technique)
            }
            .with_recovery_policy(policy)
            .with_spares(spares);
            let exact = technique.has_periodic_protection();
            // CR/BC detect at the next protection point; RC/AC at the end.
            let when = if exact { 7 } else { base.steps() };
            let (primary, seconds) = victims(&base);
            let healthy = reference(&base, &[], 0);
            for (_, second) in seconds {
                let expected = if exact {
                    [healthy; 2]
                } else {
                    let both = reference(&base, &[primary, second], when);
                    assert!(both <= ENVELOPE * healthy, "{technique:?}/{dim}D: {both:e}");
                    [reference(&base, &[primary], when), both]
                };
                // The operations inside the recovery scopes, in order, until
                // the second victim runs out of them: every one of the
                // repair, the attempt's collectives and the first restore
                // transfers, then every seventh of the recompute's halo
                // traffic (4 isend + 4 irecv + 8 wait a step in 2D, half
                // that in 3D — a stride of 7 walks through all of them).
                let mut fired = 0usize;
                let dense = 32u64;
                for nth in (0..dense).chain((dense..4096).step_by(7)) {
                    let site = FaultSite::DuringRecovery { nth };
                    cases += 1;
                    if check(&base, expected, (primary, when), (second, site)) < 2 {
                        break;
                    }
                    fired += 1;
                }
                // Repair (≥ 1 op under every policy) plus the attempt's
                // broadcast and group split.
                assert!(
                    fired >= 3,
                    "{technique:?}/{policy:?}/{dim}D: only {fired} recovery sites fired"
                );
                for site in op_sites() {
                    check(&base, expected, (primary, when), (second, site));
                    cases += 1;
                }
            }
        }
    }
    eprintln!("commit_kills {dim}D: {cases} two-victim cases");
    assert!(cases > 300, "{dim}D sweep ran only {cases} cases");
}

#[test]
fn second_kills_inside_the_confirming_round_2d() {
    sweep(2);
}

#[test]
fn second_kills_inside_the_confirming_round_3d() {
    sweep(3);
}
