//! Op-count audit: how many ULFM operations one failure event puts on
//! rank 0's path, against the paper's listings (Figs. 3 and 5).
//!
//! A single-failure `Respawn` repair is two `OMPI_Comm_agree` on the world
//! (before the detecting and before the confirming barrier) and one on
//! the intercommunicator, one shrink, one spawn, one merge; the listings'
//! one split re-orders the ranks and the application adds its per-grid
//! group split. `SpareSubstitute` promotes by the same two splits and
//! never spawns or merges. The counts do not depend on the technique or
//! the dimension.

use ftsg_core::app::{keys, AUDITED_OPS};
use ftsg_core::{run_app, AppConfig, ProcLayout, ProcLayoutN, RecoveryPolicy, Technique};
use ulfm_sim::{run, FaultPlan, RunConfig};

const TECHNIQUES: [Technique; 4] = [
    Technique::CheckpointRestart,
    Technique::ResamplingCopying,
    Technique::AlternateCombination,
    Technique::BuddyCheckpoint,
];

/// Per-event counts in [`AUDITED_OPS`] order: agree, intercomm_agree,
/// shrink, spawn_multiple, intercomm_merge, split, barrier.
const RESPAWN: [f64; 7] = [2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
const SUBSTITUTE: [f64; 7] = [2.0, 0.0, 1.0, 0.0, 0.0, 2.0, 2.0];

#[test]
fn one_failure_event_makes_the_listings_calls() {
    for dim in [2usize, 3] {
        for technique in TECHNIQUES {
            for (policy, spares, expected) in [
                (RecoveryPolicy::Respawn, 0, RESPAWN),
                (RecoveryPolicy::SpareSubstitute, 2, SUBSTITUTE),
            ] {
                let base = if dim >= 3 {
                    AppConfig::small_nd(technique, dim)
                } else {
                    AppConfig::small(technique)
                }
                .with_recovery_policy(policy)
                .with_spares(spares);
                let layout = technique.layout();
                // The last rank of the last grid: not in rank 0's group, so
                // rank 0 runs none of the technique's group collectives.
                let layout_world = if dim >= 3 {
                    ProcLayoutN::new(base.dim, base.n, base.l, layout, base.scale).world_size()
                } else {
                    ProcLayout::new(base.n, base.l, layout, base.scale).world_size()
                };
                let when = if technique.has_periodic_protection() {
                    base.steps() / 2
                } else {
                    base.steps()
                };
                let cfg = base.with_plan(FaultPlan::single(layout_world - 1, when));
                let world = cfg.world_size(layout_world);
                let report =
                    run(RunConfig::local(world).with_seed(2), move |ctx| run_app(&cfg, ctx));
                report.assert_no_app_errors();
                assert_eq!(report.timelines.len(), 1);
                let counted: Vec<f64> = AUDITED_OPS
                    .iter()
                    .map(|op| {
                        let per_event = report.get_list(&keys::op_count(op)).expect("op counts");
                        assert_eq!(per_event.len(), 1, "one entry per failure event");
                        per_event[0]
                    })
                    .collect();
                assert_eq!(counted, expected, "{technique:?}/{policy:?}/{dim}D: {AUDITED_OPS:?}");
            }
        }
    }
}

#[test]
fn healthy_runs_report_no_event_counts() {
    let cfg = AppConfig::small(Technique::AlternateCombination);
    let world = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    assert!(report.get_list(&keys::op_count("agree")).is_none());
}
