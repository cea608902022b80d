//! Deadlock-free collective matching.
//!
//! Every collective operation (including the ULFM ones) is executed through
//! a per-communicator **operation table**: participants deposit a
//! contribution under a `(sequence, kind)` key and block until the
//! operation's outcome is available. The blocking wait is a park/recheck
//! loop (see [`crate::sched`]) that re-checks, on every wake:
//!
//! * *was I killed?* → unwind with the fail-stop sentinel,
//! * *was the communicator revoked?* → finish the op with
//!   [`Error::Revoked`] (unless the op is revoke-immune, like `shrink`),
//! * *did a peer die before contributing?* → fail the op with
//!   [`Error::ProcFailed`] (or, for *tolerant* ops like `shrink`/`agree`,
//!   complete it over the surviving contributors),
//! * *has everyone arrived?* → the last arriver computes the outcome once
//!   and publishes it.
//!
//! No failure scenario can therefore wedge a collective: whoever resolves
//! the op wakes every blocked participant, kills wake everyone, and the
//! scheduler's idle sweep re-runs the checks whenever the system goes
//! quiet — the worst case is the stall-detector timeout, which converts
//! an application-level collective-ordering bug (which would deadlock
//! real MPI) into [`Error::CollectiveMismatch`].
//!
//! **Ownership** (DESIGN.md §2 has the long form). An operation's state
//! is one vector of [`Slot`]s indexed by participant, sized when its
//! first member arrives and recycled through the table's free list when
//! the entry is collected. A [`Deposit`] is *moved* into its owner's slot
//! and is the table's from then on — a member killed after depositing
//! leaves it behind for the survivors. The finishing participant moves
//! the deposits out again, folding in **ascending participant order**,
//! and writes each participant's [`Share`] into that participant's slot;
//! consuming is taking one's own share, by value. What nobody took is
//! dropped when the entry is collected.
//!
//! Failure scans are cached per op against the global
//! [`crate::proc::failure_epoch`]: while no new process fails, arrival
//! accounting is O(known failures) instead of O(participants) per wake,
//! which is what keeps 100k-rank collectives from going quadratic.
//!
//! The outcome also carries the operation's **virtual end time**
//! `max(contributed clocks) + cost`, which is how collectives synchronize
//! the participants' virtual clocks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::Mutex;

use crate::comm::{CommShared, InterShared, Pooled};
use crate::error::{Error, Result};
use crate::proc::{failure_epoch, KillSignal, ProcState};
use crate::spawn::SpawnSpec;

/// Collective kinds; part of the matching key so mismatched collectives
/// surface as a mismatch instead of exchanging garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpKind {
    Barrier,
    Bcast,
    Gather,
    Scatter,
    Reduce,
    Allreduce,
    Split,
    Shrink,
    Agree,
    Merge,
    Spawn,
}

/// Matching key: the nth collective of a given kind on a communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OpKey {
    pub seq: u64,
    pub kind: OpKind,
}

/// What a participant brings to the operation. Small fixed-size
/// contributions travel inline; bulk ones are pooled wire buffers.
#[derive(Debug, Default)]
pub(crate) enum Deposit {
    /// Nothing (barrier, the non-roots of a bcast or scatter).
    #[default]
    None,
    /// Agreement flag.
    Flag(bool),
    /// One scalar, as zero-padded little-endian wire bytes (allreduce).
    Word([u8; 8]),
    /// One payload (bcast root, gather/reduce contributions).
    Bytes(BytesMut),
    /// Per-destination payloads (the scatter root's).
    Parts(Vec<BytesMut>),
    /// Split colour (None = `MPI_UNDEFINED`) and ordering key.
    SplitKey { color: Option<i64>, key: i64 },
    /// Merge `high` flag (the side follows from the participant index).
    MergeSide { high: bool },
    /// What to spawn (the spawn's root).
    Specs(Vec<SpawnSpec>),
}

/// One participant's share of a finished operation's outcome.
#[derive(Default)]
pub(crate) enum Share {
    /// Nothing (barrier, the non-roots of a gather or reduce, the
    /// `MPI_UNDEFINED` colour of a split).
    #[default]
    Unit,
    /// The agreed flag.
    Flag(bool),
    /// The reduced scalar, in [`Deposit::Word`]'s form.
    Word([u8; 8]),
    /// A payload for this participant alone (its scatter part, the
    /// reduction at the root); the consumer recycles the buffer.
    Bytes(BytesMut),
    /// Per-rank payloads for this participant alone (the gather root's
    /// view).
    Parts(Pooled),
    /// Payloads every participant reads (bcast).
    Shared(Arc<Pooled>),
    /// A new intracommunicator and this participant's rank in it.
    Comm(Arc<CommShared>, usize),
    /// A new intercommunicator (spawn, parent side).
    Inter(Arc<InterShared>),
}

/// A participant's place in an operation: its deposit on the way in, its
/// share of the outcome on the way out.
#[derive(Default)]
pub(crate) struct Slot {
    arrived: bool,
    /// Set once this participant has taken its share. The entry is only
    /// collected once every *live* participant has: a dead one's past
    /// consumption must never stand in for a live one still on its way
    /// (a rank that consumed and then died would otherwise let the entry
    /// vanish before a slow rank arrives, re-creates it, and observes a
    /// spurious failure).
    consumed: bool,
    /// The participant's virtual clock when it deposited.
    pub clock: f64,
    pub deposit: Deposit,
    pub share: Share,
}

impl Slot {
    /// Move a [`Deposit::Bytes`] out (`None` for anything else).
    pub fn take_bytes(&mut self) -> Option<BytesMut> {
        match std::mem::take(&mut self.deposit) {
            Deposit::Bytes(buf) => Some(buf),
            _ => None,
        }
    }
}

/// The slots of the participants that have deposited, in ascending
/// participant order.
pub(crate) fn arrived(slots: &mut [Slot]) -> impl Iterator<Item = (usize, &mut Slot)> {
    slots.iter_mut().enumerate().filter(|(_, s)| s.arrived)
}

/// What a consumer gets back: the operation's times and its own share.
pub(crate) struct Outcome {
    /// Virtual time at which the last participant arrived (the maximum of
    /// the contributed clocks): what an early arriver waits until.
    pub t_arrived: f64,
    /// Virtual time at which the operation completes for everyone:
    /// `t_arrived` plus the operation's cost.
    pub t_end: f64,
    /// This participant's share (matched by the calling collective), or
    /// the uniform error the operation finished with.
    pub result: Result<Share>,
}

/// A resolved operation: its times and, if it failed, the uniform error.
struct Done {
    t_arrived: f64,
    t_end: f64,
    err: Option<Error>,
}

#[derive(Default)]
struct OpState {
    slots: Vec<Slot>,
    arrived: usize,
    consumed: usize,
    done: Option<Done>,
    /// Participant indices observed failed, valid as of `scan_epoch`.
    /// Re-scanned only when the global failure epoch moves, so healthy
    /// ops never pay the O(participants) scan after the first one.
    failed_cache: Vec<usize>,
    /// 0 matches the no-failures-ever epoch: the empty cache is valid.
    scan_epoch: u64,
}

impl OpState {
    /// Bring `failed_cache` up to date with the global failure epoch.
    fn refresh_failed(&mut self, participants: &[Arc<ProcState>]) {
        let epoch = failure_epoch();
        if self.scan_epoch == epoch {
            return;
        }
        self.failed_cache.clear();
        self.failed_cache
            .extend(participants.iter().enumerate().filter(|(_, p)| p.is_failed()).map(|(i, _)| i));
        self.scan_epoch = epoch;
    }

    /// Participants known failed that never deposited.
    fn failed_missing(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed_cache.iter().copied().filter(|&i| !self.slots[i].arrived)
    }

    /// Publish the outcome: `cost` after the last arrival, `err` for all
    /// or (with `None`) each participant's share from its slot.
    fn resolve(&mut self, cost: f64, err: Option<Error>) {
        let t_arrived =
            self.slots.iter().filter(|s| s.arrived).fold(0.0_f64, |m, s| m.max(s.clock));
        self.done = Some(Done { t_arrived, t_end: t_arrived + cost, err });
    }

    /// Empty the state for the free list: untaken shares and deposits are
    /// dropped here, the two vectors keep their storage.
    fn reset(&mut self) {
        self.slots.clear();
        self.failed_cache.clear();
        (self.arrived, self.consumed, self.done, self.scan_epoch) = (0, 0, None, 0);
    }
}

/// Per-communicator operation table: the few operations in flight (a
/// rank is in one collective at a time, so a linear search beats a hash)
/// and the collected states awaiting reuse.
#[derive(Default)]
pub(crate) struct OpTable {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    live: Vec<(OpKey, OpState)>,
    free: Vec<OpState>,
}

/// Everything `run_op` needs to know about the calling participant.
pub(crate) struct OpCtx<'a> {
    /// This participant's index in the operation's participant space.
    pub my_index: usize,
    /// All participants, indexable by participant index.
    pub participants: &'a [Arc<ProcState>],
    /// The communicator's revoked flag.
    pub revoked: &'a AtomicBool,
    /// The recovery tools (`shrink`, `agree`) complete over the survivors
    /// and ignore a revoke; any other op fails with `ProcFailed` when a
    /// participant died before contributing, and a revoke aborts it.
    pub recovery: bool,
    /// Virtual cost charged when the op *fails* (detection cost).
    pub fail_cost: f64,
    /// Stall-detector timeout (collective-ordering bugs).
    pub stall_timeout: Duration,
}

impl OpTable {
    /// Execute one collective: deposit `deposit` at virtual time `clock`
    /// and wait for the outcome. `finish` runs exactly once (in whichever
    /// participant completes the operation) over the slots: it reads the
    /// deposits of those that [`arrived`], writes every participant's
    /// share, and returns the operation's virtual cost — or the error all
    /// participants are to see. The caller is responsible for advancing
    /// its clock to `t_end` and matching its share.
    pub fn run_op<F>(
        &self,
        key: OpKey,
        ctx: OpCtx<'_>,
        clock: f64,
        deposit: Deposit,
        finish: F,
    ) -> Outcome
    where
        F: FnOnce(&mut [Slot]) -> (Result<()>, f64),
    {
        let started = Instant::now();
        let n = ctx.participants.len();
        let me = ctx.my_index;
        let mut finish = Some(finish);
        let mut deposit = Some(deposit);
        // Wake every blocked peer once the outcome is published. Waking
        // under the table lock is fine (parker and ready-queue locks are
        // leaves); only the resolving participant pays the O(p) sweep.
        let wake_peers = || {
            for (i, p) in ctx.participants.iter().enumerate() {
                if i != me {
                    p.wake();
                }
            }
        };
        let mut guard = self.inner.lock();
        loop {
            // Re-find each iteration: the table may change between waits.
            let Inner { live, free } = &mut *guard;
            let at = match live.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => open(live, free, key, n),
            };
            let st = &mut live[at].1;

            if st.done.is_none() {
                if let Some(deposit) = deposit.take() {
                    let slot = &mut st.slots[me];
                    // A handle's sequence counters never mint a key twice.
                    assert!(!slot.arrived, "participant {me} deposited twice into {key:?}");
                    *slot = Slot { arrived: true, clock, deposit, ..Slot::default() };
                    st.arrived += 1;
                    // No wake here: arrivals alone never unblock anyone —
                    // the last arriver resolves the op in its own loop
                    // below and wakes the others then.
                }
            }

            // Fail-stop takes precedence over everything, including a
            // ready outcome: a killed process must not act on the result.
            // Its deposit stays behind for the survivors.
            if ctx.participants[me].killed.load(Ordering::Acquire) {
                drop(guard);
                std::panic::panic_any(KillSignal);
            }

            if let Some(done) = &st.done {
                let result = match &done.err {
                    Some(e) => Err(e.clone()),
                    None => Ok(std::mem::take(&mut st.slots[me].share)),
                };
                let out = Outcome { t_arrived: done.t_arrived, t_end: done.t_end, result };
                if !std::mem::replace(&mut st.slots[me].consumed, true) {
                    st.consumed += 1;
                }
                // Collect once every live participant has consumed, i.e.
                // every non-consumer is failed. The failed set comes from
                // the epoch cache, so a full consume cycle stays O(p).
                st.refresh_failed(ctx.participants);
                let all_live_consumed = st.consumed == n || {
                    let failed_not_consumed =
                        st.failed_cache.iter().filter(|&&i| !st.slots[i].consumed).count();
                    st.consumed + failed_not_consumed == n
                };
                if all_live_consumed {
                    retire(live, free, at);
                }
                return out;
            }

            // Revocation aborts the op for every participant.
            if !ctx.recovery && ctx.revoked.load(Ordering::Acquire) {
                st.resolve(ctx.fail_cost, Some(Error::Revoked));
                wake_peers();
                continue;
            }

            // Arrival / failure accounting, O(known failures) per wake
            // thanks to the epoch cache.
            st.refresh_failed(ctx.participants);
            let failed_missing = st.failed_missing().count();
            let missing_live = n - st.arrived - failed_missing;

            if missing_live == 0 {
                if failed_missing == 0 || ctx.recovery {
                    // Complete (over the survivors, for the recovery tools).
                    let (res, cost) = complete(&mut finish, key, &mut st.slots, ctx.fail_cost);
                    st.resolve(cost, res.err());
                } else {
                    let ranks = st.failed_missing().collect();
                    st.resolve(ctx.fail_cost, Some(Error::ProcFailed { ranks }));
                }
                wake_peers();
                continue;
            }

            // Failures with live participants still missing: keep waiting.
            // Finalizing here would cache a partial victim list — a second
            // victim that has not yet reached its kill point would go
            // unreported to every participant. The op resolves once each
            // participant is accounted for (arrived or failed), which is
            // the `missing_live == 0` branch above.

            if started.elapsed() > ctx.stall_timeout {
                let err = stalled(st, key, failed_missing > 0 && !ctx.recovery, ctx.stall_timeout);
                st.resolve(ctx.fail_cost, Some(err));
                wake_peers();
                continue;
            }

            // Park until a peer resolves the op, a kill lands, or the
            // idle sweep fires (which is what drives the stall detector).
            drop(guard);
            crate::sched::block_wait(&ctx.participants[me]);
            guard = self.inner.lock();
        }
    }
}

/// Enter `key` in the table, for `n` participants, reusing a collected
/// state if there is one; returns its index. Out of line, like
/// [`retire`]: the state passes through the frame, and `run_op`'s frame
/// stays on the stack of every participant that waits.
#[inline(never)]
fn open(live: &mut Vec<(OpKey, OpState)>, free: &mut Vec<OpState>, key: OpKey, n: usize) -> usize {
    let mut st = free.pop().unwrap_or_default();
    st.slots.resize_with(n, Slot::default);
    live.push((key, st));
    live.len() - 1
}

/// Collect the entry at `at` for reuse.
#[inline(never)]
fn retire(live: &mut Vec<(OpKey, OpState)>, free: &mut Vec<OpState>, at: usize) {
    let (_, mut st) = live.swap_remove(at);
    st.reset();
    free.push(st);
}

/// Run an operation's finisher over its slots. Out of line: a finisher
/// (a spawn's launches its children) can need a large frame, and
/// `run_op`'s frame stays on the stack of every participant that waits.
#[inline(never)]
fn complete<F>(
    finish: &mut Option<F>,
    key: OpKey,
    slots: &mut [Slot],
    fail_cost: f64,
) -> (Result<()>, f64)
where
    F: FnOnce(&mut [Slot]) -> (Result<()>, f64),
{
    match finish.take() {
        Some(f) => f(slots),
        None => (Err(Error::Protocol(format!("{key:?} resolved twice"))), fail_cost),
    }
}

/// The error a stalled operation resolves with: the failure when a
/// participant died (live peers never arrived, likely thrown off course by
/// it; report the failure, not the stall), else the ordering bug.
#[cold]
#[inline(never)]
fn stalled(st: &mut OpState, key: OpKey, failed: bool, timeout: Duration) -> Error {
    if failed {
        return Error::ProcFailed { ranks: st.failed_missing().collect() };
    }
    let n = st.slots.len();
    let arrived: Vec<usize> = arrived(&mut st.slots).map(|(i, _)| i).collect();
    Error::CollectiveMismatch {
        detail: format!("{key:?}: only {arrived:?} of {n} participants arrived within {timeout:?}"),
    }
}

#[cfg(test)]
impl OpTable {
    /// How many participants have deposited into the live op `key`.
    pub(crate) fn arrived_in(&self, key: OpKey) -> usize {
        self.inner.lock().live.iter().find(|(k, _)| *k == key).map_or(0, |(_, st)| st.arrived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{ProcId, ProcState};
    use std::sync::Arc;

    fn procs(n: usize) -> Vec<Arc<ProcState>> {
        (0..n).map(|i| Arc::new(ProcState::new(ProcId(i as u64), 0))).collect()
    }

    /// A finisher whose outcome, for everyone, is the bit set of the
    /// participants that arrived; costs `cost`.
    fn arrivals(cost: f64) -> impl FnOnce(&mut [Slot]) -> (Result<()>, f64) {
        move |slots| {
            let set = arrived(slots).fold(0u64, |set, (i, _)| set | 1 << i);
            for s in slots.iter_mut() {
                s.share = Share::Word(set.to_le_bytes());
            }
            (Ok(()), cost)
        }
    }

    fn word(out: &Outcome) -> u64 {
        match out.result {
            Ok(Share::Word(w)) => u64::from_le_bytes(w),
            Ok(_) => panic!("expected a word share"),
            Err(ref e) => panic!("expected a word share, got {e:?}"),
        }
    }

    /// Participant `i` of `parts` runs the op `key` to its outcome on a
    /// thread of its own.
    fn spawn_op(
        table: &Arc<OpTable>,
        parts: &[Arc<ProcState>],
        revoked: &Arc<AtomicBool>,
        key: OpKey,
        i: usize,
        (recovery, fail_cost, clock): (bool, f64, f64),
    ) -> std::thread::JoinHandle<Outcome> {
        let (table, parts, revoked) = (Arc::clone(table), parts.to_vec(), Arc::clone(revoked));
        std::thread::spawn(move || {
            let ctx = OpCtx {
                my_index: i,
                participants: &parts,
                revoked: &revoked,
                recovery,
                fail_cost,
                stall_timeout: Duration::from_secs(5),
            };
            table.run_op(key, ctx, clock, Deposit::None, arrivals(1.0))
        })
    }

    fn unrevoked() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }

    #[test]
    fn all_arrive_single_result_and_clock_sync() {
        let table = Arc::new(OpTable::default());
        let parts = procs(4);
        let key = OpKey { seq: 0, kind: OpKind::Barrier };
        let clocks = [1.0, 4.0, 2.0, 3.0];
        let handles: Vec<_> = (0..4)
            .map(|i| spawn_op(&table, &parts, &unrevoked(), key, i, (false, 0.5, clocks[i])))
            .collect();
        for h in handles {
            let o = h.join().unwrap();
            assert_eq!(o.t_arrived, 4.0); // the last arrival ...
            assert!((o.t_end - 5.0).abs() < 1e-12); // ... plus cost 1.0
            assert_eq!(word(&o), 0b1111);
        }
    }

    #[test]
    fn dead_member_fails_intolerant_op() {
        let table = Arc::new(OpTable::default());
        let parts = procs(3);
        parts[2].kill(); // dies before contributing
        let key = OpKey { seq: 1, kind: OpKind::Barrier };
        let handles: Vec<_> = (0..2)
            .map(|i| spawn_op(&table, &parts, &unrevoked(), key, i, (false, 0.25, 1.0)))
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            match &out.result {
                Err(Error::ProcFailed { ranks }) => assert_eq!(ranks[..], [2]),
                other => panic!("expected ProcFailed, got {:?}", other.as_ref().err()),
            }
            assert!((out.t_end - 1.25).abs() < 1e-12);
        }
    }

    #[test]
    fn dead_member_tolerated_by_tolerant_op() {
        let table = Arc::new(OpTable::default());
        let parts = procs(3);
        parts[1].kill();
        let key = OpKey { seq: 2, kind: OpKind::Shrink };
        let handles: Vec<_> = [0usize, 2]
            .map(|i| spawn_op(&table, &parts, &unrevoked(), key, i, (true, 0.0, 0.0)))
            .into_iter()
            .collect();
        for h in handles {
            assert_eq!(word(&h.join().unwrap()), 0b101, "the survivors, in order");
        }
    }

    #[test]
    fn revocation_aborts_waiting_op() {
        let table = Arc::new(OpTable::default());
        let parts = procs(2);
        let revoked = unrevoked();
        let key = OpKey { seq: 3, kind: OpKind::Bcast };
        let h = spawn_op(&table, &parts, &revoked, key, 0, (false, 0.0, 0.0));
        std::thread::sleep(Duration::from_millis(20));
        revoked.store(true, Ordering::Release);
        parts[0].wake();
        let out = h.join().unwrap();
        assert_eq!(out.result.err(), Some(Error::Revoked));
    }

    #[test]
    fn stall_detector_fires_on_missing_participant() {
        let table = OpTable::default();
        let parts = procs(2); // participant 1 never calls
        let revoked = AtomicBool::new(false);
        let key = OpKey { seq: 4, kind: OpKind::Gather };
        let ctx = OpCtx {
            my_index: 0,
            participants: &parts,
            revoked: &revoked,
            recovery: false,
            fail_cost: 0.0,
            stall_timeout: Duration::from_millis(50),
        };
        let out = table.run_op(key, ctx, 0.0, Deposit::None, arrivals(0.0));
        assert!(matches!(out.result, Err(Error::CollectiveMismatch { .. })));
    }

    #[test]
    fn late_arrival_after_failure_consumes_same_outcome() {
        // Participant 1 arrives only after the op already failed because
        // participant 2 died; it must see the identical outcome.
        let table = Arc::new(OpTable::default());
        let parts = procs(3);
        parts[2].kill();
        let revoked = unrevoked();
        let key = OpKey { seq: 5, kind: OpKind::Barrier };
        let run = |i| spawn_op(&table, &parts, &revoked, key, i, (false, 0.0, 0.0));
        let o0 = run(0).join().unwrap();
        assert!(o0.result.is_err());
        assert_eq!(table.inner.lock().live.len(), 1, "a live participant has yet to consume");
        // Now the late participant arrives.
        let o1 = run(1).join().unwrap();
        assert_eq!(o0.result.err(), o1.result.err());
        // Everyone alive has consumed: the entry is collected. The dead
        // participant, were it to reach the op after all (killed, not yet
        // unwound), finds no entry, re-creates it, deposits — and unwinds
        // at the fail-stop check before it can act on anything.
        assert_eq!(table.inner.lock().live.len(), 0);
        assert!(run(2).join().is_err_and(|unwound| unwound.is::<KillSignal>()));
        let inner = table.inner.lock();
        assert_eq!((inner.live.len(), inner.live[0].1.arrived), (1, 1), "its deposit stays");
    }

    #[test]
    fn slot_vector_is_reused_across_keys_and_participant_counts() {
        let table = Arc::new(OpTable::default());
        let revoked = unrevoked();
        let round = |n: usize, seq: u64, kind: OpKind| {
            let parts = procs(n);
            let key = OpKey { seq, kind };
            let handles: Vec<_> = (0..n)
                .map(|i| spawn_op(&table, &parts, &revoked, key, i, (false, 0.0, 0.0)))
                .collect();
            for h in handles {
                assert_eq!(word(&h.join().unwrap()), (1 << n) - 1);
            }
            let inner = table.inner.lock();
            assert_eq!((inner.live.len(), inner.free.len()), (0, 1), "collected, kept for reuse");
            assert!(inner.free[0].slots.is_empty(), "nothing of the finished op survives");
            (inner.free[0].slots.as_ptr() as usize, inner.free[0].slots.capacity())
        };
        let (first, cap) = round(6, 0, OpKind::Barrier);
        assert!(cap >= 6);
        // Fewer participants, another kind, another sequence number: the
        // same storage, no matter what the key is.
        assert_eq!(round(2, 0, OpKind::Agree), (first, cap));
        assert_eq!(round(6, 7, OpKind::Gather), (first, cap));
        // More participants than ever before: it grows, once.
        let (_, grown) = round(9, 8, OpKind::Barrier);
        assert!(grown >= 9);
        assert_eq!(round(9, 9, OpKind::Barrier).1, grown);
    }

    #[test]
    fn deposits_move_in_and_shares_move_out() {
        // Every deposit is moved (not copied) into the table and moved out
        // again as its right-hand neighbour's share — also the deposit of
        // a participant killed while it waited.
        let table = Arc::new(OpTable::default());
        let parts = procs(3);
        let revoked = unrevoked();
        let key = OpKey { seq: 0, kind: OpKind::Gather };
        let deposited = Arc::new(Mutex::new([0usize; 3]));
        let go = |i: usize| {
            let (table, parts, revoked) = (Arc::clone(&table), parts.clone(), Arc::clone(&revoked));
            let deposited = Arc::clone(&deposited);
            std::thread::spawn(move || {
                let ctx = OpCtx {
                    my_index: i,
                    participants: &parts,
                    revoked: &revoked,
                    recovery: false,
                    fail_cost: 0.0,
                    stall_timeout: Duration::from_secs(5),
                };
                let mut buf = BytesMut::with_capacity(8);
                buf.extend_from_slice(&[i as u8; 4]);
                deposited.lock()[i] = buf.as_ptr() as usize;
                let out = table.run_op(key, ctx, 0.0, Deposit::Bytes(buf), |slots| {
                    for i in 0..slots.len() {
                        if let Deposit::Bytes(b) = std::mem::take(&mut slots[(i + 1) % 3].deposit) {
                            slots[i].share = Share::Bytes(b);
                        }
                    }
                    (Ok(()), 0.0)
                });
                match out.result {
                    Ok(Share::Bytes(b)) => (b.as_ptr() as usize, b.to_vec()),
                    _ => panic!("expected a neighbour's buffer"),
                }
            })
        };
        let h2 = go(2);
        while table.arrived_in(key) < 1 {
            std::thread::yield_now();
        }
        parts[2].kill(); // after its deposit
        assert!(h2.join().is_err_and(|unwound| unwound.is::<KillSignal>()), "killed while blocked");
        let (h0, h1) = (go(0), go(1));
        let (got0, got1) = (h0.join().unwrap(), h1.join().unwrap());
        let deposited = *deposited.lock();
        assert_eq!(got0, (deposited[1], vec![1; 4]));
        assert_eq!(got1, (deposited[2], vec![2; 4]), "the dead member's bytes, its very buffer");
        // Both live members consumed, so the entry was collected — and the
        // share nobody came for (the dead member's) was dropped with it.
        let inner = table.inner.lock();
        assert_eq!((inner.live.len(), inner.free.len()), (0, 1));
        assert!(inner.free[0].slots.is_empty());
    }
}
