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
//! Failure scans are cached per op against the global
//! [`crate::proc::failure_epoch`]: while no new process fails, arrival
//! accounting is O(contributions) instead of O(participants) per wake,
//! which is what keeps 100k-rank collectives from going quadratic.
//!
//! The outcome also carries the operation's **virtual end time**
//! `max(contributed clocks) + cost`, which is how collectives synchronize
//! the participants' virtual clocks.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::proc::{failure_epoch, KillSignal, ProcState};

/// Collective kinds; part of the matching key so mismatched collectives
/// surface as a mismatch instead of exchanging garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpKind {
    Barrier,
    Bcast,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    Reduce,
    Allreduce,
    Split,
    Dup,
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

/// What a participant brings to the operation.
#[derive(Debug, Clone)]
pub(crate) enum OpData {
    /// Nothing (barrier).
    None,
    /// Agreement flag.
    Flag(bool),
    /// One payload (bcast root, gather/reduce contributions).
    Bytes(Bytes),
    /// Per-destination payloads (scatter root, alltoall).
    Parts(Vec<Bytes>),
    /// Split colour (None = `MPI_UNDEFINED`) and ordering key.
    SplitKey { color: Option<i64>, key: i64 },
    /// Merge side and `high` flag.
    MergeSide { high: bool },
}

/// A participant's deposit: its virtual clock and its data.
#[derive(Debug, Clone)]
pub(crate) struct Contribution {
    pub clock: f64,
    pub data: OpData,
}

/// Published outcome of an operation.
pub(crate) struct Outcome {
    /// Virtual time at which the last participant arrived (the maximum of
    /// the contributed clocks): what an early arriver waits until.
    pub t_arrived: f64,
    /// Virtual time at which the operation completes for everyone:
    /// `t_arrived` plus the operation's cost.
    pub t_end: f64,
    /// The computed result (downcast by the calling collective), or the
    /// uniform error the operation finished with.
    pub result: Result<Arc<dyn Any + Send + Sync>>,
}

struct OpState {
    contrib: BTreeMap<usize, Contribution>,
    done: Option<Arc<Outcome>>,
    /// Participant indices that have consumed the outcome. The entry may
    /// only be garbage-collected once every *live* participant has
    /// consumed — a dead participant's past consumption must never
    /// substitute for a live one still on its way (a fast-failing rank
    /// that consumed and then died would otherwise let the entry vanish
    /// before a slow rank arrives, which would then re-create it and
    /// observe a spurious failure).
    consumed_by: std::collections::BTreeSet<usize>,
    /// Participant indices observed failed, valid as of `scan_epoch`.
    /// Re-scanned only when the global failure epoch moves, so healthy
    /// ops never pay the O(participants) scan after the first one.
    failed_cache: Vec<usize>,
    scan_epoch: u64,
}

impl Outcome {
    fn at(t_arrived: f64, cost: f64, result: Result<Arc<dyn Any + Send + Sync>>) -> Arc<Self> {
        Arc::new(Outcome { t_arrived, t_end: t_arrived + cost, result })
    }
}

impl OpState {
    fn new() -> Self {
        OpState {
            contrib: BTreeMap::new(),
            done: None,
            consumed_by: std::collections::BTreeSet::new(),
            failed_cache: Vec::new(),
            scan_epoch: 0, // matches the no-failures-ever epoch: cache is validly empty
        }
    }

    /// Bring `failed_cache` up to date with the global failure epoch.
    fn refresh_failed(&mut self, participants: &[Arc<ProcState>]) {
        let epoch = failure_epoch();
        if self.scan_epoch == epoch {
            return;
        }
        self.failed_cache = participants
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_failed())
            .map(|(i, _)| i)
            .collect();
        self.scan_epoch = epoch;
    }
}

/// Per-communicator operation table.
pub(crate) struct OpTable {
    inner: Mutex<HashMap<OpKey, OpState>>,
}

impl Default for OpTable {
    fn default() -> Self {
        Self::new()
    }
}

/// How an operation reacts to failures and revocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpSemantics {
    /// Tolerant ops (`shrink`, `agree`, post-failure `merge`) complete over
    /// the survivors; intolerant ops fail with `ProcFailed`.
    pub tolerant: bool,
    /// Whether a communicator revoke aborts the op.
    pub revocable: bool,
}

/// Everything `run_op` needs to know about the calling participant.
pub(crate) struct OpCtx<'a> {
    /// This participant's index in the operation's participant space.
    pub my_index: usize,
    /// All participants, indexable by participant index.
    pub participants: &'a [Arc<ProcState>],
    /// The calling process (for self-kill checks).
    pub me: &'a Arc<ProcState>,
    /// The communicator's revoked flag.
    pub revoked: &'a AtomicBool,
    /// Failure/revocation semantics of this op.
    pub semantics: OpSemantics,
    /// Virtual cost charged when the op *fails* (detection cost).
    pub fail_cost: f64,
    /// Stall-detector timeout (collective-ordering bugs).
    pub stall_timeout: Duration,
}

impl OpTable {
    pub fn new() -> Self {
        OpTable { inner: Mutex::new(HashMap::new()) }
    }

    /// Execute one collective. `finish` computes, exactly once (in whichever
    /// thread completes the operation), the shared outcome and the
    /// operation's virtual cost from the deposited contributions. Returns
    /// the outcome handle; the caller is responsible for advancing its
    /// clock to `t_end` and downcasting the result.
    pub fn run_op<F>(
        &self,
        key: OpKey,
        ctx: OpCtx<'_>,
        contrib: Contribution,
        finish: F,
    ) -> Arc<Outcome>
    where
        F: FnOnce(&BTreeMap<usize, Contribution>) -> (Arc<dyn Any + Send + Sync>, f64),
    {
        let started = Instant::now();
        let mut finish = Some(finish);
        let mut deposited = false;
        // Wake every blocked peer once the outcome is published. Waking
        // under the table lock is fine (parker and ready-queue locks are
        // leaves); only the resolving participant pays the O(p) sweep.
        let wake_peers = |ctx: &OpCtx<'_>| {
            for (i, p) in ctx.participants.iter().enumerate() {
                if i != ctx.my_index {
                    p.wake();
                }
            }
        };
        let mut guard = self.inner.lock();
        loop {
            // Re-fetch each iteration: the map may be mutated between waits.
            let st = guard.entry(key).or_insert_with(OpState::new);

            if !deposited && st.done.is_none() {
                let prev = st.contrib.insert(ctx.my_index, contrib.clone());
                assert!(
                    prev.is_none(),
                    "participant {} deposited twice into {key:?}",
                    ctx.my_index
                );
                deposited = true;
                // No wake here: arrivals alone never unblock anyone — the
                // last arriver resolves the op in its own loop below and
                // wakes the others then.
            }

            // Fail-stop takes precedence over everything, including a
            // ready outcome: a killed process must not act on the result.
            if ctx.me.killed.load(Ordering::Acquire) {
                drop(guard);
                std::panic::panic_any(KillSignal);
            }

            if let Some(done) = &st.done {
                let out = Arc::clone(done);
                st.consumed_by.insert(ctx.my_index);
                // Garbage-collect once every live participant has
                // consumed, i.e. every non-consumer is failed. The failed
                // set comes from the epoch cache, so a full consume cycle
                // is O(p log p), not O(p²).
                st.refresh_failed(ctx.participants);
                let n = ctx.participants.len();
                let all_live_consumed = st.consumed_by.len() == n || {
                    let failed_not_consumed =
                        st.failed_cache.iter().filter(|i| !st.consumed_by.contains(i)).count();
                    st.consumed_by.len() + failed_not_consumed == n
                };
                if all_live_consumed {
                    guard.remove(&key);
                }
                return out;
            }

            // Fail-stop: if we were killed while blocked, unwind now; our
            // contribution stays behind for the survivors.
            if ctx.me.killed.load(Ordering::Acquire) {
                drop(guard);
                std::panic::panic_any(KillSignal);
            }

            // Revocation aborts revocable ops for every participant.
            if ctx.semantics.revocable && ctx.revoked.load(Ordering::Acquire) {
                let arrived = max_clock(&st.contrib).max(contrib.clock);
                st.done = Some(Outcome::at(arrived, ctx.fail_cost, Err(Error::Revoked)));
                wake_peers(&ctx);
                continue;
            }

            // Arrival / failure accounting, O(contributions + known
            // failures) per wake thanks to the epoch cache.
            st.refresh_failed(ctx.participants);
            let failed_missing: Vec<usize> =
                st.failed_cache.iter().filter(|i| !st.contrib.contains_key(i)).copied().collect();
            let missing_live = ctx.participants.len() - st.contrib.len() - failed_missing.len();

            if missing_live == 0 {
                if failed_missing.is_empty() || ctx.semantics.tolerant {
                    // Complete (over the survivors, for tolerant ops).
                    let f = finish.take().expect("finish consumed twice");
                    let (result, cost) = f(&st.contrib);
                    st.done = Some(Outcome::at(max_clock(&st.contrib), cost, Ok(result)));
                } else {
                    st.done = Some(Outcome::at(
                        max_clock(&st.contrib),
                        ctx.fail_cost,
                        Err(Error::ProcFailed { ranks: failed_missing }),
                    ));
                }
                wake_peers(&ctx);
                continue;
            }

            // Failures with live participants still missing: keep waiting.
            // Finalizing here would cache a partial victim list — a second
            // victim that has not yet reached its kill point would go
            // unreported to every participant. The op resolves once each
            // participant is accounted for (arrived or failed), which is
            // the `missing_live == 0` branch above.

            if started.elapsed() > ctx.stall_timeout {
                let result = if !failed_missing.is_empty() && !ctx.semantics.tolerant {
                    // Live peers never arrived, likely thrown off course by
                    // the failure; report the failure, not the stall.
                    Err(Error::ProcFailed { ranks: failed_missing })
                } else {
                    let arrived: Vec<usize> = st.contrib.keys().copied().collect();
                    Err(Error::CollectiveMismatch {
                        detail: format!(
                            "{key:?}: only {arrived:?} of {} participants arrived within {:?}",
                            ctx.participants.len(),
                            ctx.stall_timeout
                        ),
                    })
                };
                st.done = Some(Outcome::at(max_clock(&st.contrib), ctx.fail_cost, result));
                wake_peers(&ctx);
                continue;
            }

            // Park until a peer resolves the op, a kill lands, or the
            // idle sweep fires (which is what drives the stall detector).
            drop(guard);
            crate::sched::block_wait(ctx.me);
            guard = self.inner.lock();
        }
    }
}

fn max_clock(contrib: &BTreeMap<usize, Contribution>) -> f64 {
    contrib.values().fold(0.0_f64, |m, c| m.max(c.clock))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{ProcId, ProcState};
    use std::sync::Arc;

    fn procs(n: usize) -> Vec<Arc<ProcState>> {
        (0..n).map(|i| Arc::new(ProcState::new(ProcId(i as u64), 0))).collect()
    }

    fn sem(tolerant: bool) -> OpSemantics {
        OpSemantics { tolerant, revocable: true }
    }

    fn run_from_all(
        table: Arc<OpTable>,
        parts: Vec<Arc<ProcState>>,
        revoked: Arc<AtomicBool>,
        tolerant: bool,
        clocks: Vec<f64>,
    ) -> Vec<Arc<Outcome>> {
        let key = OpKey { seq: 0, kind: OpKind::Barrier };
        let mut handles = Vec::new();
        for (i, _me) in parts.iter().cloned().enumerate() {
            let table = Arc::clone(&table);
            let parts = parts.clone();
            let revoked = Arc::clone(&revoked);
            let clock = clocks[i];
            handles.push(std::thread::spawn(move || {
                let ctx = OpCtx {
                    my_index: i,
                    participants: &parts,
                    me: &parts[i],
                    revoked: &revoked,
                    semantics: sem(tolerant),
                    fail_cost: 0.5,
                    stall_timeout: Duration::from_secs(5),
                };
                table.run_op(key, ctx, Contribution { clock, data: OpData::None }, |c| {
                    (Arc::new(c.len()) as Arc<dyn Any + Send + Sync>, 1.0)
                })
            }));
        }
        me_unused(&parts);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn me_unused(_: &[Arc<ProcState>]) {}

    #[test]
    fn all_arrive_single_result_and_clock_sync() {
        let table = Arc::new(OpTable::new());
        let parts = procs(4);
        let outs = run_from_all(
            table,
            parts,
            Arc::new(AtomicBool::new(false)),
            false,
            vec![1.0, 4.0, 2.0, 3.0],
        );
        for o in &outs {
            assert_eq!(o.t_arrived, 4.0); // the last arrival ...
            assert!((o.t_end - 5.0).abs() < 1e-12); // ... plus cost 1.0
            let n = o.result.as_ref().unwrap().downcast_ref::<usize>().unwrap();
            assert_eq!(*n, 4);
        }
    }

    #[test]
    fn dead_member_fails_intolerant_op() {
        let table = Arc::new(OpTable::new());
        let parts = procs(3);
        parts[2].kill(); // dies before contributing
        let live = [parts[0].clone(), parts[1].clone()];
        let revoked = Arc::new(AtomicBool::new(false));
        let key = OpKey { seq: 1, kind: OpKind::Barrier };
        let mut handles = Vec::new();
        for (i, _) in live.iter().enumerate() {
            let table = Arc::clone(&table);
            let parts = parts.clone();
            let revoked = Arc::clone(&revoked);
            handles.push(std::thread::spawn(move || {
                let ctx = OpCtx {
                    my_index: i,
                    participants: &parts,
                    me: &parts[i],
                    revoked: &revoked,
                    semantics: sem(false),
                    fail_cost: 0.25,
                    stall_timeout: Duration::from_secs(5),
                };
                table.run_op(key, ctx, Contribution { clock: 1.0, data: OpData::None }, |c| {
                    (Arc::new(c.len()) as Arc<dyn Any + Send + Sync>, 1.0)
                })
            }));
        }
        for h in handles {
            let out = h.join().unwrap();
            match &out.result {
                Err(Error::ProcFailed { ranks }) => assert_eq!(ranks, &vec![2]),
                other => panic!("expected ProcFailed, got {other:?}"),
            }
            assert!((out.t_end - 1.25).abs() < 1e-12);
        }
    }

    #[test]
    fn dead_member_tolerated_by_tolerant_op() {
        let table = Arc::new(OpTable::new());
        let parts = procs(3);
        parts[1].kill();
        let revoked = Arc::new(AtomicBool::new(false));
        let key = OpKey { seq: 2, kind: OpKind::Shrink };
        let mut handles = Vec::new();
        for i in [0usize, 2usize] {
            let table = Arc::clone(&table);
            let parts = parts.clone();
            let revoked = Arc::clone(&revoked);
            handles.push(std::thread::spawn(move || {
                let ctx = OpCtx {
                    my_index: i,
                    participants: &parts,
                    me: &parts[i],
                    revoked: &revoked,
                    semantics: OpSemantics { tolerant: true, revocable: false },
                    fail_cost: 0.0,
                    stall_timeout: Duration::from_secs(5),
                };
                table.run_op(key, ctx, Contribution { clock: 0.0, data: OpData::None }, |c| {
                    (Arc::new(c.keys().copied().collect::<Vec<_>>()) as _, 0.0)
                })
            }));
        }
        for h in handles {
            let out = h.join().unwrap();
            let survivors =
                out.result.as_ref().unwrap().downcast_ref::<Vec<usize>>().unwrap().clone();
            assert_eq!(survivors, vec![0, 2]);
        }
    }

    #[test]
    fn revocation_aborts_waiting_op() {
        let table = Arc::new(OpTable::new());
        let parts = procs(2);
        let revoked = Arc::new(AtomicBool::new(false));
        let key = OpKey { seq: 3, kind: OpKind::Bcast };
        let t_table = Arc::clone(&table);
        let t_parts = parts.clone();
        let t_rev = Arc::clone(&revoked);
        let h = std::thread::spawn(move || {
            let ctx = OpCtx {
                my_index: 0,
                participants: &t_parts,
                me: &t_parts[0],
                revoked: &t_rev,
                semantics: sem(false),
                fail_cost: 0.0,
                stall_timeout: Duration::from_secs(5),
            };
            t_table.run_op(key, ctx, Contribution { clock: 0.0, data: OpData::None }, |_| {
                (Arc::new(()) as _, 0.0)
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        revoked.store(true, Ordering::Release);
        parts[0].wake();
        let out = h.join().unwrap();
        assert_eq!(out.result.as_ref().err(), Some(&Error::Revoked));
    }

    #[test]
    fn stall_detector_fires_on_missing_participant() {
        let table = Arc::new(OpTable::new());
        let parts = procs(2); // participant 1 never calls
        let revoked = Arc::new(AtomicBool::new(false));
        let key = OpKey { seq: 4, kind: OpKind::Gather };
        let ctx = OpCtx {
            my_index: 0,
            participants: &parts,
            me: &parts[0],
            revoked: &revoked,
            semantics: sem(false),
            fail_cost: 0.0,
            stall_timeout: Duration::from_millis(50),
        };
        let out = table.run_op(key, ctx, Contribution { clock: 0.0, data: OpData::None }, |_| {
            (Arc::new(()) as _, 0.0)
        });
        assert!(matches!(out.result, Err(Error::CollectiveMismatch { .. })));
    }

    #[test]
    fn late_arrival_after_failure_consumes_same_outcome() {
        // Participant 1 arrives only after the op already failed because
        // participant 2 died; it must see the identical outcome.
        let table = Arc::new(OpTable::new());
        let parts = procs(3);
        parts[2].kill();
        let revoked = Arc::new(AtomicBool::new(false));
        let key = OpKey { seq: 5, kind: OpKind::Barrier };

        let run =
            |i: usize, table: Arc<OpTable>, parts: Vec<Arc<ProcState>>, rev: Arc<AtomicBool>| {
                std::thread::spawn(move || {
                    let ctx = OpCtx {
                        my_index: i,
                        participants: &parts,
                        me: &parts[i],
                        revoked: &rev,
                        semantics: sem(false),
                        fail_cost: 0.0,
                        stall_timeout: Duration::from_secs(5),
                    };
                    table.run_op(key, ctx, Contribution { clock: 0.0, data: OpData::None }, |_| {
                        (Arc::new(()) as _, 0.0)
                    })
                })
            };
        let h0 = run(0, Arc::clone(&table), parts.clone(), Arc::clone(&revoked));
        let o0 = h0.join().unwrap();
        assert!(o0.result.is_err());
        // Now the late participant arrives.
        let h1 = run(1, Arc::clone(&table), parts.clone(), Arc::clone(&revoked));
        let o1 = h1.join().unwrap();
        assert_eq!(o0.result.as_ref().err(), o1.result.as_ref().err());
    }
}
