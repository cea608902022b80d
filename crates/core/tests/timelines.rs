//! Per-failure-event recovery timelines: every repaired failure event
//! must surface in the run report as a `RecoveryTimeline` whose named
//! phase durations are non-negative and sum — exactly, within float
//! round-off — to the event's measured recovery window.

use ftsg_core::{run_app, AppConfig, Technique, PHASES};
use ulfm_sim::{run, FaultPlan, Report, RunConfig};

fn launch(cfg: AppConfig) -> Report {
    let world =
        ftsg_core::ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let report = run(RunConfig::local(world), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

fn assert_well_formed(report: &Report) {
    for tl in &report.timelines {
        assert!(tl.t_start < tl.t_end, "empty event window: {tl:?}");
        assert_eq!(
            tl.phases.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            PHASES,
            "phase names and order are fixed"
        );
        for (name, dur) in &tl.phases {
            assert!(*dur >= 0.0, "phase {name} has negative duration {dur}");
        }
        let sum = tl.phase_sum();
        let total = tl.total();
        assert!((sum - total).abs() < 1e-9, "phases sum to {sum} but the event window is {total}");
        assert!(!tl.failed_ranks.is_empty(), "a repair event names its victims");
    }
}

#[test]
fn every_technique_yields_a_timeline_per_failure_event() {
    for technique in [
        Technique::CheckpointRestart,
        Technique::ResamplingCopying,
        Technique::AlternateCombination,
        Technique::BuddyCheckpoint,
    ] {
        let base = AppConfig::small(technique);
        let steps = base.steps();
        let layout = ftsg_core::ProcLayout::new(base.n, base.l, technique.layout(), base.scale);
        // A victim in rank 0's own group: the timeline is rank 0's view,
        // so the data-restore phase is rank 0's own restore (for other
        // groups' failures it is rank 0's wait in the confirming barrier).
        let victim = layout.group(0).first + 1;
        // CR/BC detect at the next protection point; RC/AC at the end.
        let when = if technique.has_periodic_protection() { 15 } else { steps };
        let report = launch(base.with_plan(FaultPlan::single(victim, when)));
        assert!(report.procs_failed > 0, "{technique:?}: the kill must land");
        assert_eq!(report.timelines.len(), 1, "{technique:?}: one event, one timeline");
        assert_well_formed(&report);
        let tl = &report.timelines[0];
        assert_eq!(tl.event, 0);
        assert!(tl.failed_ranks.contains(&victim), "{technique:?}: victim recorded");
        assert!(tl.detect_step >= when, "{technique:?}: detection at or after the strike");
        // The protocol segments were actually measured, not defaulted.
        assert!(tl.phase("spawn") > 0.0, "{technique:?}: respawn must take time");
        assert!(tl.phase("data_restore") > 0.0, "{technique:?}: restore must take time");
    }
}

#[test]
fn separate_failure_epochs_get_separate_timelines() {
    let base = AppConfig::small(Technique::CheckpointRestart); // ckpts at 10/20/30
    let layout = ftsg_core::ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let v1 = layout.group(1).first; // dies at 5 → detected at 10
    let v2 = layout.group(2).first + 1; // dies at 25 → detected at 30
    let report = launch(base.with_plan(FaultPlan::new(vec![(v1, 5), (v2, 25)])));
    assert_eq!(report.timelines.len(), 2);
    assert_well_formed(&report);
    let (a, b) = (&report.timelines[0], &report.timelines[1]);
    assert_eq!((a.event, b.event), (0, 1));
    assert!(a.t_end <= b.t_start + 1e-12, "events are disjoint and ordered");
    assert_eq!((a.detect_step, b.detect_step), (10, 30));
    assert!(a.failed_ranks.contains(&v1));
    assert!(b.failed_ranks.contains(&v2));
}

#[test]
fn healthy_runs_have_no_timelines() {
    let report = launch(AppConfig::small(Technique::ResamplingCopying));
    assert_eq!(report.procs_failed, 0);
    assert!(report.timelines.is_empty());
}
