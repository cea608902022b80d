//! The pooled cooperative scheduler: parkers, ready queue, worker loop.
//!
//! A bounded pool of worker threads (default: available parallelism)
//! drains a FIFO ready queue of runnable ranks. A rank runs on a worker
//! until it blocks in a runtime op — empty-mailbox receive, rendezvous
//! wait, stalled collective — at which point it *parks*: its fiber is
//! stashed on its `ProcState` and the worker picks the next runnable
//! rank. Whoever makes the blocked condition true (a send landing in the
//! mailbox, a collective publishing its outcome, a kill) *wakes* the
//! parker, which re-enqueues the rank exactly once.
//!
//! ## Parker protocol
//!
//! Four states, transitions by CAS:
//!
//! ```text
//! IDLE ──park──▶ PARKING ──worker──▶ PARKED ──wake──▶ IDLE (+enqueue)
//!   ▲                │
//!   └──consume── NOTIFIED ◀──wake (park in progress or not parked)
//! ```
//!
//! Parking is two-phase to close the classic lost-wakeup race: the fiber
//! sets PARKING and suspends; only the *worker* — after the fiber's stack
//! is fully saved and stowed — promotes PARKING→PARKED. A wake that
//! lands in between leaves a NOTIFIED token, which the worker observes
//! (its CAS fails) and converts into an immediate re-enqueue. A wake that
//! lands before parking leaves the same token, consumed at the next park
//! attempt. Every blocking site is a recheck loop, so a stale token
//! (spurious wake) costs one extra condition check, never correctness.
//!
//! The same parker runs *timed* waits for plain OS threads (the
//! `ThreadPerRank` escape hatch and standalone unit-test processes):
//! park degrades to a condvar wait with the historical 500 µs poll tick,
//! preserving the old runtime's behaviour exactly.
//!
//! ## Idle sweep
//!
//! Fiber parks have no timeout, but two runtime features relied on the
//! old 500 µs polling tick: stall-timeout detection (a collective where
//! a peer never arrives must wake *somebody* to notice) and kill
//! delivery to ranks blocked in ops whose wake the victim would have
//! provided. A worker that finds the queue empty for a sweep interval
//! wakes every parked rank; each re-checks its condition (including its
//! stall clock) and re-parks. The sweep is the safety net that makes a
//! missing wake a performance bug, not a hang.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::fiber::{self, SwitchReason};
use crate::proc::ProcState;

/// Poll tick of the thread-mode parker and period of the idle sweep —
/// the historical blocking-wait granularity of the runtime.
pub(crate) const TICK: Duration = Duration::from_micros(500);

const IDLE: u8 = 0;
const NOTIFIED: u8 = 1;
const PARKING: u8 = 2;
const PARKED: u8 = 3;

/// One rank's park/wake synchronizer. See the module docs for the
/// protocol.
pub(crate) struct Parker {
    state: AtomicU8,
    // Thread-mode (timed) waits only.
    mx: Mutex<()>,
    cv: Condvar,
}

impl Default for Parker {
    fn default() -> Self {
        Parker { state: AtomicU8::new(IDLE), mx: Mutex::new(()), cv: Condvar::new() }
    }
}

impl Parker {
    /// Deliver a wake. Returns `true` when the target was PARKED and the
    /// caller must enqueue it (exactly one waker wins that transition);
    /// otherwise the wake is recorded as a token or was redundant.
    pub(crate) fn notify(&self) -> bool {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            match cur {
                PARKED => {
                    match self.state.compare_exchange(
                        PARKED,
                        IDLE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return true,
                        Err(c) => cur = c,
                    }
                }
                NOTIFIED => return false,
                _ => match self.state.compare_exchange(
                    cur,
                    NOTIFIED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // Close the race with a thread-mode parker between
                        // its token check and its condvar wait.
                        drop(self.mx.lock());
                        self.cv.notify_all();
                        return false;
                    }
                    Err(c) => cur = c,
                },
            }
        }
    }

    /// Fiber-mode park: suspend until notified. Consumes a pending token
    /// without suspending.
    fn park_fiber(&self) {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            match cur {
                NOTIFIED => {
                    match self.state.compare_exchange(
                        NOTIFIED,
                        IDLE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return,
                        Err(c) => cur = c,
                    }
                }
                IDLE => {
                    match self.state.compare_exchange(
                        IDLE,
                        PARKING,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => break,
                        Err(c) => cur = c,
                    }
                }
                s => unreachable!("park from state {s}"),
            }
        }
        fiber::suspend(SwitchReason::Parked);
    }

    /// Worker-side completion of a fiber park, called after the fiber is
    /// stowed. Returns `true` if the rank is now PARKED; `false` if a
    /// wake raced in and the caller must re-enqueue it.
    fn finish_park(&self) -> bool {
        match self.state.compare_exchange(PARKING, PARKED, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => true,
            Err(_) => {
                // NOTIFIED landed mid-park: consume it and rerun.
                self.state.store(IDLE, Ordering::Release);
                false
            }
        }
    }

    /// Thread-mode park: timed condvar wait with token fast path. Always
    /// returns within ~`tick` (the caller's loop re-checks its condition),
    /// exactly like the old Condvar-per-op blocking.
    fn park_thread(&self, tick: Duration) {
        if self.state.swap(IDLE, Ordering::AcqRel) == NOTIFIED {
            return;
        }
        let mut g = self.mx.lock();
        if self.state.swap(IDLE, Ordering::AcqRel) == NOTIFIED {
            return;
        }
        self.cv.wait_for(&mut g, tick);
        // Leave IDLE behind whether we were notified or timed out; the
        // caller re-checks its condition either way.
        self.state.store(IDLE, Ordering::Release);
    }

    /// Is this parker currently in the fully-parked state? (Sweep
    /// predicate; racy reads are fine, `notify` re-validates.)
    fn is_parked(&self) -> bool {
        self.state.load(Ordering::Acquire) == PARKED
    }
}

/// Block the calling rank until [`ProcState::wake`] (or a sweep) fires.
/// Dispatches on execution substrate: fibers park indefinitely (the hub
/// sweep bounds stall detection), plain threads poll at `TICK`. Returns
/// whether it polled: the substrate is read before the park, because a
/// fiber may resume on another worker thread.
pub(crate) fn block_wait(me: &ProcState) -> bool {
    if fiber::in_fiber() {
        me.parker.park_fiber();
        false
    } else {
        me.parker.park_thread(TICK);
        true
    }
}

/// Number of registry shards; must be a power of two.
const SHARDS: usize = 16;

/// Scheduler + scalable universe bookkeeping, shared by every
/// `ProcState` of a run. Also constructed (without workers) in
/// thread-per-rank mode, where only the registry and the per-host live
/// counters are used.
pub(crate) struct Hub {
    /// Sharded process registry (shard = id % SHARDS). Sharding keeps
    /// 100k registrations from serializing on one lock.
    registry: [Mutex<Vec<Arc<ProcState>>>; SHARDS],
    registered: AtomicUsize,
    /// Live (never-failed) process count per hostfile slot. Incremented
    /// at registration, decremented exactly once at first failure —
    /// mirroring the registry-scan definition of "live" it replaces
    /// (normal completion never decrements; see `Universe::live_per_host`).
    host_live: Box<[AtomicUsize]>,
    /// FIFO of runnable ranks (fiber mode only).
    ready: Mutex<VecDeque<Arc<ProcState>>>,
    /// Signals workers waiting on an empty queue.
    ready_cv: Condvar,
    /// Set when the run's last process exits; workers drain and leave.
    shutdown: AtomicBool,
}

impl Hub {
    pub(crate) fn new(n_hosts: usize) -> Arc<Hub> {
        Arc::new(Hub {
            registry: std::array::from_fn(|_| Mutex::new(Vec::new())),
            registered: AtomicUsize::new(0),
            host_live: (0..n_hosts).map(|_| AtomicUsize::new(0)).collect(),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    // -- registry & live accounting ----------------------------------

    pub(crate) fn register(&self, p: Arc<ProcState>) {
        self.host_live[p.host].fetch_add(1, Ordering::AcqRel);
        self.registry[(p.id.0 as usize) & (SHARDS - 1)].lock().push(p);
        self.registered.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn procs_created(&self) -> usize {
        self.registered.load(Ordering::Acquire)
    }

    pub(crate) fn procs_failed(&self) -> usize {
        self.registry.iter().map(|s| s.lock().iter().filter(|p| p.is_failed()).count()).sum()
    }

    /// O(1) per-host live count (replaces the O(registry) scan).
    pub(crate) fn live_on_host(&self, host: usize) -> usize {
        self.host_live[host].load(Ordering::Acquire)
    }

    /// Snapshot of live counts per host, O(hosts). In debug builds the
    /// counters are reconciled against a full registry scan.
    pub(crate) fn live_per_host(&self) -> Vec<usize> {
        let counts: Vec<usize> = self.host_live.iter().map(|c| c.load(Ordering::Acquire)).collect();
        #[cfg(debug_assertions)]
        {
            // Neither a kill (flag store, then counter decrement) nor a
            // registration (counter increment, then registry push) is
            // atomic with respect to this lock-free snapshot, so a
            // mismatch only counts once it persists across re-reads.
            let mut attempts = 0;
            loop {
                let live: Vec<usize> =
                    self.host_live.iter().map(|c| c.load(Ordering::Acquire)).collect();
                let mut scan = vec![0usize; live.len()];
                for shard in &self.registry {
                    for p in shard.lock().iter() {
                        if !p.is_failed() {
                            scan[p.host] += 1;
                        }
                    }
                }
                if scan == live {
                    break;
                }
                attempts += 1;
                debug_assert!(
                    attempts < 1000,
                    "per-host live counters {live:?} diverged from registry scan {scan:?}"
                );
                std::thread::yield_now();
            }
        }
        counts
    }

    /// First-failure bookkeeping: decrement the victim's host counter.
    /// Called exactly once per process (guarded by
    /// `ProcState::counted_failed`); the global failure epoch is bumped
    /// alongside, in `proc.rs`.
    pub(crate) fn note_first_failure(&self, host: usize) {
        self.host_live[host].fetch_sub(1, Ordering::AcqRel);
    }

    // -- ready queue --------------------------------------------------

    /// Make a rank runnable. Caller must hold the exactly-once enqueue
    /// right (initial launch, a winning PARKED→IDLE wake, or a worker
    /// requeueing its own yielded/raced fiber).
    pub(crate) fn enqueue(&self, p: Arc<ProcState>) {
        self.ready.lock().push_back(p);
        self.ready_cv.notify_one();
    }

    /// Begin shutdown: wake all workers so they observe the flag.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(self.ready.lock());
        self.ready_cv.notify_all();
    }

    /// Wake every parked rank so it re-checks its blocking condition.
    /// Used on kills (peers must observe the failure without a targeted
    /// wake) and by the idle sweep (stall-timeout detection).
    pub(crate) fn wake_all_parked(&self) {
        for shard in &self.registry {
            // Clone out so `wake` (which takes the ready lock) runs
            // without the shard lock held.
            let procs: Vec<Arc<ProcState>> =
                shard.lock().iter().filter(|p| p.parker.is_parked()).cloned().collect();
            for p in procs {
                p.wake();
            }
        }
    }

    /// Worker loop body: pop the next runnable rank, run it to its next
    /// suspension, dispose per the switch reason.
    fn worker_loop(self: &Arc<Hub>) {
        loop {
            let p = {
                let mut q = self.ready.lock();
                loop {
                    if let Some(p) = q.pop_front() {
                        break p;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let timed_out = self.ready_cv.wait_for(&mut q, TICK).timed_out();
                    if timed_out && q.is_empty() && !self.shutdown.load(Ordering::Acquire) {
                        // Everyone is parked: sweep so blocked ranks
                        // re-check stall clocks and failure flags.
                        drop(q);
                        self.wake_all_parked();
                        q = self.ready.lock();
                    }
                }
            };
            let mut fb = p.take_fiber();
            match fiber::resume(&mut fb) {
                SwitchReason::Finished => drop(fb),
                SwitchReason::Parked => {
                    // Stow the continuation *before* publishing PARKED:
                    // the winning waker's worker may pick the rank up
                    // immediately and must find the fiber in the slot.
                    p.store_fiber(fb);
                    if !p.parker.finish_park() {
                        self.enqueue(p);
                    }
                }
                SwitchReason::Yielded => {
                    p.store_fiber(fb);
                    self.enqueue(p);
                }
            }
        }
    }

    /// Spawn `n` pooled workers. The run joins them to completion.
    pub(crate) fn start_workers(self: &Arc<Hub>, n: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|i| {
                let hub = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("ulfm-worker-{i}"))
                    .spawn(move || hub.worker_loop())
                    .expect("spawn scheduler worker")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::ProcId;

    #[test]
    fn notify_token_is_consumed_by_next_park() {
        let p = Parker::default();
        assert!(!p.notify()); // no one parked: token
        let t0 = std::time::Instant::now();
        p.park_thread(Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1), "token should skip the wait");
    }

    #[test]
    fn thread_park_times_out() {
        let p = Parker::default();
        let t0 = std::time::Instant::now();
        p.park_thread(Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn cross_thread_thread_mode_wake() {
        let p = Arc::new(ProcState::new(ProcId(1), 0));
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || {
            // Several park rounds; each bounded by TICK regardless.
            for _ in 0..4 {
                block_wait(&p2);
            }
        });
        for _ in 0..4 {
            p.wake();
            std::thread::sleep(Duration::from_micros(200));
        }
        h.join().unwrap();
    }

    #[test]
    fn host_live_counters_track_failures() {
        let hub = Hub::new(2);
        let a = Arc::new(ProcState::new(ProcId(1), 0));
        let b = Arc::new(ProcState::new(ProcId(2), 1));
        let c = Arc::new(ProcState::new(ProcId(3), 1));
        for p in [&a, &b, &c] {
            p.attach_hub(&hub);
            hub.register(Arc::clone(p));
        }
        assert_eq!(hub.live_per_host(), vec![1, 2]);
        let e0 = crate::proc::failure_epoch();
        b.kill();
        assert_eq!(hub.live_per_host(), vec![1, 1]);
        assert_eq!(crate::proc::failure_epoch(), e0 + 1);
        b.mark_dead(); // second phase must not double-count
        assert_eq!(hub.live_per_host(), vec![1, 1]);
        assert_eq!(crate::proc::failure_epoch(), e0 + 1);
        assert_eq!(hub.procs_failed(), 1);
        assert_eq!(hub.procs_created(), 3);
    }
}
