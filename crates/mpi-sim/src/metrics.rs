//! Always-on, allocation-bounded observability primitives.
//!
//! Three pieces, all cheap enough to leave on by default:
//!
//! * [`TraceRing`] — a capped ring buffer of [`TraceEvent`]s. The backing
//!   storage is preallocated once; when full, new events overwrite the
//!   oldest and a dropped counter grows. Pushing never allocates in
//!   steady state, so tracing no longer needs an opt-in flag.
//! * [`MetricsCell`] — per-rank counters (messages, bytes, receive
//!   retries, failures observed, time waited in collectives for slower
//!   peers) plus per-operation virtual-duration aggregates over the fixed
//!   [`OP_NAMES`] table. All fields are
//!   [`Cell`]s in rank-thread-local storage: updating one is a couple of
//!   register moves, never a lock, never an allocation.
//! * [`RecoveryTimeline`] — one per failure event, the paper's Figs. 8–11
//!   decomposition: named recovery phases with virtual durations that
//!   partition the event window exactly (the `other` phase absorbs the
//!   un-named remainder, so the phases always sum to `t_end - t_start`).

use std::cell::Cell;

use crate::runtime::TraceEvent;

/// Default [`TraceRing`] capacity (events). A [`TraceEvent`] is 80 bytes,
/// so the ring preallocates 2,621,440 bytes (2.5 MiB) per run — small
/// enough to leave on everywhere, large enough that typical
/// campaign-size runs drop nothing.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 15;

/// Every operation name the runtime traces, in a fixed order so per-op
/// aggregates can live in a flat array instead of a map.
pub const OP_NAMES: [&str; 16] = [
    "send",
    "recv",
    "isend",
    "barrier",
    "bcast",
    "gather",
    "scatter",
    "alltoall",
    "reduce",
    "split",
    "dup",
    "shrink",
    "agree",
    "intercomm_merge",
    "intercomm_agree",
    "spawn_multiple",
];

/// Index of `op` in [`OP_NAMES`], or `None` for names outside the table
/// (phase spans, failure markers).
fn op_index(op: &str) -> Option<usize> {
    OP_NAMES.iter().position(|n| *n == op)
}

/// A capped ring buffer of trace events: preallocated, overwrite-oldest,
/// with a counter of how many events were evicted (or suppressed when
/// the capacity is zero, i.e. tracing disabled).
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Oldest element when the ring is full; insertion point otherwise.
    head: usize,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events. Capacity 0 disables
    /// recording entirely (every push is counted as dropped).
    pub fn new(capacity: usize) -> Self {
        // Preallocate so steady-state pushes never grow the Vec, but cap
        // the eager reservation for absurd capacities — beyond it the
        // Vec grows amortized during warm-up and is still fixed-size
        // afterwards.
        TraceRing {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            cap: capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Record `ev`, evicting the oldest event when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of events held before eviction starts.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted (ring full) or suppressed (capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A copy of the retained events, oldest first — for a peek mid-run;
    /// the end of a run takes them with [`into_events`](Self::into_events).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// The retained events, oldest first: the ring's own storage, rotated
    /// in place and handed over.
    pub fn into_events(mut self) -> Vec<TraceEvent> {
        self.buf.rotate_left(self.head);
        self.buf
    }
}

/// Live per-rank counters, owned by the rank's `Ctx` (one OS thread), so
/// plain [`Cell`]s suffice. Snapshot into a [`RankMetrics`] when the
/// rank exits.
#[derive(Debug)]
pub struct MetricsCell {
    msgs_sent: Cell<u64>,
    bytes_sent: Cell<u64>,
    msgs_recvd: Cell<u64>,
    bytes_recvd: Cell<u64>,
    recv_retries: Cell<u64>,
    failures_observed: Cell<u64>,
    peer_wait: Cell<f64>,
    op_count: [Cell<u64>; OP_NAMES.len()],
    op_time: [Cell<f64>; OP_NAMES.len()],
}

impl Default for MetricsCell {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsCell {
    pub fn new() -> Self {
        MetricsCell {
            msgs_sent: Cell::new(0),
            bytes_sent: Cell::new(0),
            msgs_recvd: Cell::new(0),
            bytes_recvd: Cell::new(0),
            recv_retries: Cell::new(0),
            failures_observed: Cell::new(0),
            peer_wait: Cell::new(0.0),
            op_count: [const { Cell::new(0) }; OP_NAMES.len()],
            op_time: [const { Cell::new(0.0) }; OP_NAMES.len()],
        }
    }

    /// Account one completed operation of virtual duration `dur`.
    pub fn note_op(&self, op: &str, dur: f64) {
        if let Some(i) = op_index(op) {
            self.op_count[i].set(self.op_count[i].get() + 1);
            self.op_time[i].set(self.op_time[i].get() + dur.max(0.0));
        }
    }

    /// Completed operations named `op` so far (0 outside [`OP_NAMES`]).
    pub fn op_count(&self, op: &str) -> u64 {
        op_index(op).map_or(0, |i| self.op_count[i].get())
    }

    /// Account `dt` virtual seconds spent in a collective waiting for the
    /// last participant to arrive (nothing when this rank was the last).
    pub fn note_peer_wait(&self, dt: f64) {
        if dt > 0.0 {
            self.peer_wait.set(self.peer_wait.get() + dt);
        }
    }

    /// Cumulative [`note_peer_wait`](Self::note_peer_wait) seconds.
    pub fn peer_wait(&self) -> f64 {
        self.peer_wait.get()
    }

    /// Account one sent point-to-point payload.
    pub fn note_sent(&self, bytes: usize) {
        self.msgs_sent.set(self.msgs_sent.get() + 1);
        self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
    }

    /// Account one received point-to-point payload.
    pub fn note_recvd(&self, bytes: usize) {
        self.msgs_recvd.set(self.msgs_recvd.get() + 1);
        self.bytes_recvd.set(self.bytes_recvd.get() + bytes as u64);
    }

    /// Account one empty-mailbox receive poll that had to retry.
    pub fn note_recv_retry(&self) {
        self.recv_retries.set(self.recv_retries.get() + 1);
    }

    /// Account one `ProcFailed`/`Revoked` surfaced to this rank.
    pub fn note_failure_observed(&self) {
        self.failures_observed.set(self.failures_observed.get() + 1);
    }

    /// Freeze the counters into a plain snapshot for the [`crate::Report`].
    pub fn snapshot(&self, proc: u64, host: usize) -> RankMetrics {
        RankMetrics {
            proc,
            host,
            msgs_sent: self.msgs_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            msgs_recvd: self.msgs_recvd.get(),
            bytes_recvd: self.bytes_recvd.get(),
            recv_retries: self.recv_retries.get(),
            failures_observed: self.failures_observed.get(),
            peer_wait: self.peer_wait.get(),
            op_count: std::array::from_fn(|i| self.op_count[i].get()),
            op_time: std::array::from_fn(|i| self.op_time[i].get()),
        }
    }
}

/// Final counter values for one process, reported even for processes
/// that failed mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMetrics {
    /// Process id (world-unique, stable across respawns creating new ids).
    pub proc: u64,
    /// Host the process ran on.
    pub host: usize,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recvd: u64,
    pub bytes_recvd: u64,
    /// Empty-mailbox receive polls that timed out and retried.
    pub recv_retries: u64,
    /// `ProcFailed`/`Revoked` errors surfaced to this process.
    pub failures_observed: u64,
    /// Virtual seconds spent inside collectives waiting for slower
    /// participants to arrive (the operations' own cost excluded).
    pub peer_wait: f64,
    /// Completed-operation count per [`OP_NAMES`] entry.
    pub op_count: [u64; OP_NAMES.len()],
    /// Summed virtual duration per [`OP_NAMES`] entry.
    pub op_time: [f64; OP_NAMES.len()],
}

/// All per-rank metric snapshots of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// One snapshot per process that ran (ordered by `ProcId`, i.e.
    /// launch order — independent of scheduling).
    pub ranks: Vec<RankMetrics>,
}

impl MetricsReport {
    /// Total point-to-point messages sent across all processes.
    pub fn total_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_sent).sum()
    }

    /// Total point-to-point payload bytes sent across all processes.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Total empty-mailbox receive retries across all processes.
    pub fn total_retries(&self) -> u64 {
        self.ranks.iter().map(|r| r.recv_retries).sum()
    }

    /// Total failure observations (`ProcFailed`/`Revoked` surfaced).
    pub fn total_failures_observed(&self) -> u64 {
        self.ranks.iter().map(|r| r.failures_observed).sum()
    }

    /// `(count, summed virtual seconds)` per operation name, skipping
    /// operations that never ran. Unlike [`crate::Report::op_totals`]
    /// this is complete even when the trace ring dropped events.
    pub fn op_totals(&self) -> Vec<(&'static str, u64, f64)> {
        OP_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let n: u64 = self.ranks.iter().map(|r| r.op_count[i]).sum();
                let t: f64 = self.ranks.iter().map(|r| r.op_time[i]).sum();
                (*name, n, t)
            })
            .filter(|(_, n, _)| *n > 0)
            .collect()
    }
}

/// Per-phase decomposition of one recovery event — the paper's Figs. 8–11
/// bars, measured on (world) rank 0's virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryTimeline {
    /// 0-based index of this failure event within the run.
    pub event: usize,
    /// Solver step at which the failure was detected.
    pub detect_step: u64,
    /// Rank 0 virtual time entering the detection/repair path.
    pub t_start: f64,
    /// Rank 0 virtual time when the repaired world committed.
    pub t_end: f64,
    /// World ranks repaired during this event.
    pub failed_ranks: Vec<usize>,
    /// `(phase name, virtual seconds)`, ordered. Every duration is
    /// non-negative and the durations sum to [`Self::total`] (the last
    /// `other` entry absorbs un-instrumented time by construction).
    pub phases: Vec<(&'static str, f64)>,
}

impl RecoveryTimeline {
    /// Wall (virtual) time of the whole event.
    pub fn total(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Duration of the named phase (0 when absent).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases.iter().find(|(n, _)| *n == name).map(|(_, d)| *d).unwrap_or(0.0)
    }

    /// Sum of all phase durations; equals [`Self::total`] within 1e-9.
    pub fn phase_sum(&self) -> f64 {
        self.phases.iter().map(|(_, d)| d).sum()
    }
}

/// Hand-rolled JSON array for a set of timelines (the repo avoids serde).
pub fn timelines_to_json(timelines: &[RecoveryTimeline]) -> String {
    let mut out = String::from("[");
    for (i, tl) in timelines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"event\": {}, \"detect_step\": {}, \"t_start\": {:.9}, \"t_end\": {:.9}, \
             \"failed_ranks\": {:?}, \"phases\": {{",
            tl.event, tl.detect_step, tl.t_start, tl.t_end, tl.failed_ranks
        ));
        for (j, (name, dur)) in tl.phases.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {dur:.9}"));
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> TraceEvent {
        TraceEvent {
            proc: 0,
            host: 0,
            op: "send",
            cat: "mpi",
            cid: 0,
            t_start: t,
            t_end: t + 1.0,
            bytes: 8,
        }
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut r = TraceRing::new(8);
        for i in 0..5 {
            r.push(ev(i as f64));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let ts: Vec<f64> = r.events().iter().map(|e| e.t_start).collect();
        assert_eq!(ts, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.push(ev(i as f64));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let ts: Vec<f64> = r.events().iter().map(|e| e.t_start).collect();
        assert_eq!(ts, vec![6.0, 7.0, 8.0, 9.0], "retained events are the newest, oldest first");
    }

    #[test]
    fn into_events_hands_over_the_rings_own_storage_in_the_same_order() {
        for pushes in [0, 3, 4, 10, 11] {
            let mut r = TraceRing::new(4);
            for i in 0..pushes {
                r.push(ev(i as f64));
            }
            let (copy, storage) = (r.events(), r.buf.as_ptr());
            let taken = r.into_events();
            assert_eq!(taken, copy, "{pushes} pushes");
            assert_eq!(taken.as_ptr(), storage, "rotated in place, not copied");
        }
    }

    #[test]
    fn zero_capacity_ring_records_nothing_but_counts() {
        let mut r = TraceRing::new(0);
        for i in 0..3 {
            r.push(ev(i as f64));
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 3);
        assert!(r.events().is_empty());
    }

    #[test]
    fn metrics_cell_snapshot_roundtrip() {
        let m = MetricsCell::new();
        m.note_sent(100);
        m.note_sent(28);
        m.note_recvd(100);
        m.note_recv_retry();
        m.note_failure_observed();
        m.note_op("barrier", 0.5);
        m.note_op("barrier", 0.25);
        m.note_op("not-an-op", 9.0); // ignored
        m.note_peer_wait(0.5);
        m.note_peer_wait(-0.25); // the last arriver waits for nobody
        assert_eq!((m.op_count("barrier"), m.op_count("not-an-op")), (2, 0));
        let s = m.snapshot(7, 2);
        assert_eq!(s.peer_wait, 0.5);
        assert_eq!((s.proc, s.host), (7, 2));
        assert_eq!((s.msgs_sent, s.bytes_sent), (2, 128));
        assert_eq!((s.msgs_recvd, s.bytes_recvd), (1, 100));
        assert_eq!((s.recv_retries, s.failures_observed), (1, 1));
        let rep = MetricsReport { ranks: vec![s] };
        assert_eq!(rep.op_totals(), vec![("barrier", 2, 0.75)]);
        assert_eq!(rep.total_messages(), 2);
        assert_eq!(rep.total_bytes(), 228 - 100);
    }

    #[test]
    fn timeline_phase_sum_matches_total() {
        let tl = RecoveryTimeline {
            event: 0,
            detect_step: 16,
            t_start: 1.0,
            t_end: 3.5,
            failed_ranks: vec![3],
            phases: vec![("detect", 1.0), ("spawn", 1.0), ("other", 0.5)],
        };
        assert!((tl.phase_sum() - tl.total()).abs() < 1e-12);
        assert_eq!(tl.phase("spawn"), 1.0);
        assert_eq!(tl.phase("merge"), 0.0);
        let json = timelines_to_json(&[tl]);
        assert!(json.contains("\"detect_step\": 16"));
        assert!(json.contains("\"spawn\": 1.000000000"));
    }
}
