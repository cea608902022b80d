//! Per-failure-event recovery timelines (the paper's Figs. 8–11 lens).
//!
//! Every detected failure event yields one [`RecoveryTimeline`]: the
//! event's wall-clock window on rank 0 broken into the protocol's named
//! phases, measured from the [`ReconstructTimings`] the reconstruction
//! accumulated for that event. The named phases are disjoint segments of
//! the window; whatever the instrumented segments do not cover (the
//! confirming barrier's own cost, the checkpoint drain, the recovery's
//! metadata broadcast and group split) lands in the `"other"` residual, so
//! the phase durations always sum — exactly, within float round-off — to
//! the event's measured recovery time. That invariant is what the chaos
//! campaign's timeline oracle checks on every injected failure.
//!
//! Being a *per-rank* view, synchronization waits land where rank 0 waits.
//! The data recovery runs inside the confirming round, so when another
//! group restores its data rank 0 waits for it in the confirming barrier;
//! that wait — the barrier's time net of its own cost, measured by the
//! runtime's per-rank `peer_wait` — is booked under `"data_restore"`
//! together with rank 0's own restore: the phase reads "what the event
//! spent on getting the data back, as rank 0 lived it". Waits for late
//! arrivals at the *detecting* round stay in the `"agree"` they happen in
//! (as an MPI profiler attributes wait time to the operation waited in).

use ulfm_sim::RecoveryTimeline;

use crate::reconstruct::ReconstructTimings;

/// Phase names of a recovery timeline, in protocol order. `"other"` is
/// the residual that makes the phases sum to the event window.
pub const PHASES: [&str; 10] = [
    "detect",
    "ack",
    "revoke_shrink",
    "failed_list",
    "spawn",
    "merge",
    "agree",
    "rank_reorder",
    "data_restore",
    "other",
];

/// Build the timeline of one failure event from the reconstruction
/// timings accumulated over the event's window `[t_start, t_end]`.
///
/// `event` is the 0-based failure-event index on this run; `detect_step`
/// the solver step at which the failure was detected. Every phase
/// duration is clamped non-negative and the residual absorbs the
/// remainder, so `phases` sums to `t_end - t_start` within `1e-9`.
pub fn build_timeline(
    event: usize,
    detect_step: u64,
    t_start: f64,
    t_end: f64,
    tm: &ReconstructTimings,
) -> RecoveryTimeline {
    let named = [
        ("detect", tm.t_detect),
        ("ack", tm.t_ack),
        ("revoke_shrink", tm.t_revoke + tm.t_shrink),
        ("failed_list", tm.t_flist),
        ("spawn", tm.t_spawn),
        ("merge", tm.t_merge),
        ("agree", tm.t_agree),
        ("rank_reorder", tm.t_split),
        ("data_restore", tm.t_restore),
    ];
    let total = t_end - t_start;
    let mut phases: Vec<(&'static str, f64)> = Vec::with_capacity(PHASES.len());
    let mut sum = 0.0;
    for (name, dur) in named {
        let dur = dur.max(0.0);
        sum += dur;
        phases.push((name, dur));
    }
    // The instrumented segments are disjoint sub-intervals of the window,
    // so the residual is non-negative up to accumulated round-off.
    debug_assert!(total - sum > -1e-9, "phases ({sum}) exceed the event window ({total})");
    phases.push(("other", (total - sum).max(0.0)));
    RecoveryTimeline {
        event,
        detect_step,
        t_start,
        t_end,
        failed_ranks: tm.failed_ranks.to_vec(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_sum_exactly_to_the_event_window() {
        let tm = ReconstructTimings {
            t_detect: 0.010,
            t_ack: 0.002,
            t_revoke: 0.001,
            t_shrink: 0.015,
            t_flist: 0.003,
            t_spawn: 0.040,
            t_merge: 0.005,
            t_agree: 0.004,
            t_split: 0.006,
            t_restore: 0.080,
            failed_ranks: [3].into(),
            ..Default::default()
        };
        let tl = build_timeline(0, 16, 1.0, 1.25, &tm);
        assert_eq!(tl.phases.len(), PHASES.len());
        for (i, (name, dur)) in tl.phases.iter().enumerate() {
            assert_eq!(*name, PHASES[i]);
            assert!(*dur >= 0.0);
        }
        assert!((tl.phase_sum() - tl.total()).abs() < 1e-9);
        assert!((tl.phase("revoke_shrink") - 0.016).abs() < 1e-15);
        assert!(tl.phase("other") > 0.0);
        assert_eq!(tl.failed_ranks, vec![3]);
    }

    #[test]
    fn tiny_overshoot_clamps_other_to_zero() {
        // Round-off can push the named sum a hair past the window; the
        // residual clamps instead of going negative.
        let tm = ReconstructTimings { t_spawn: 0.1 + 1e-12, ..Default::default() };
        let tl = build_timeline(1, 32, 0.0, 0.1, &tm);
        assert_eq!(tl.phase("other"), 0.0);
        assert!((tl.phase_sum() - tl.total()).abs() < 1e-9);
    }
}
