//! Asynchronous checkpointing: a background writer stage that takes the
//! checkpoint file I/O off the solver's critical path.
//!
//! The paper prices Checkpoint/Restart entirely by `T_IO` (Eq. 2,
//! `C = T / T_IO`) because every periodic write stalls the group root for
//! a full disk write. Here the root instead gathers its sub-grid straight
//! into one of two snapshot buffers it borrows from this stage
//! ([`AsyncCheckpointer::take_buffer`]) and submits the filled buffer
//! ([`AsyncCheckpointer::submit`]) to a dedicated writer thread; the
//! solver keeps stepping while the write is in flight. The matching
//! virtual-disk cost is charged as deferred I/O via
//! [`Ctx::disk_write_async`] and settled — hidden where compute covered
//! it, exposed where it did not — at the drain barriers.
//!
//! Ownership: a snapshot buffer belongs to exactly one party at a time
//! and is never copied. The stage owns both while idle; `take_buffer`
//! lends one to the root, which is its gather target; `submit` keeps it
//! as the queued snapshot or moves it to the writer, which streams it to
//! disk and sends it back to the free list; a buffer whose gather failed,
//! or whose snapshot was superseded, returns to the idle list.
//!
//! Protocol invariants:
//!
//! * **Newest wins, on the virtual clock.** The virtual disk holds at
//!   most one write in flight and one queued behind it
//!   ([`Ctx::disk_write_async`]). The queued snapshot stays here, on the
//!   solver side, until the virtual clock passes its start (the
//!   in-flight write's end); only then is it shipped to the writer
//!   thread. A checkpoint submitted before that replaces it: the
//!   superseded snapshot is neither charged nor written, and is counted
//!   in the `ckpt_superseded` report key at the next drain. So which
//!   files land depends on the virtual schedule alone, never on how far
//!   the OS thread has got, and a disk two or more writes behind skips
//!   the stale snapshots instead of paying for each.
//! * **Two buffers, real backpressure.** At most [`QUEUE_DEPTH`]
//!   snapshots exist; a `take_buffer` that needs the buffer of the write
//!   in flight blocks until the writer thread has really written it, so
//!   memory stays bounded.
//! * **A drain never starts a write.** `drain` blocks until every
//!   shipped snapshot has landed and surfaces any writer-side I/O error.
//!   A queued snapshot whose write has not started by then is superseded,
//!   at the recovery barrier and at the end of the run alike: it is
//!   dropped unwritten and uncharged ([`Ctx::disk_drop_unstarted`]) and
//!   counted in `ckpt_superseded`, while the write in flight still lands
//!   and is paid for. A queued snapshot exists only while a write is in
//!   flight, so the disk is a whole write behind; landing it would cost a
//!   full `T_IO` of waiting to save recomputing the steps between the two
//!   snapshots, which took less than `T_IO` plus one checkpoint period.
//!   A restore after the drain reads the newest checkpoint on disk, the
//!   one that was in flight, and recomputes from there.
//! * **Crash atomicity.** The writer reuses [`CheckpointStore::write`],
//!   so every file still lands via tmp + rename + directory fsync: a rank
//!   killed with writes in flight leaves either a complete, checksummed
//!   checkpoint or none — never a torn one. A rank that dies lands what
//!   it shipped and drops a queued snapshot that was never shipped.
//!
//! Fault sites, all inside `submit` and in this order, once per submit
//! whether or not it supersedes: [`OpClass::CkptSnapshot`] (the snapshot
//! is complete), [`OpClass::CkptEnqueue`] before the hand-off,
//! [`OpClass::CkptWrite`] (inside `disk_write_async`) before the virtual
//! write is scheduled; and [`OpClass::CkptDrain`] at the top of every
//! drain — so chaos campaigns can kill a root at every stage of the
//! pipeline.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sparsegrid::{Grid2, LevelPair};
use ulfm_sim::{Ctx, Error, OpClass, Result};

use crate::checkpoint::CheckpointStore;

/// Snapshots in existence at once. Two means "double buffer": one being
/// written, one queued or being filled.
pub const QUEUE_DEPTH: usize = 2;

/// A filled snapshot buffer on its way to the writer.
struct Snapshot {
    grid_id: usize,
    step: u64,
    grid: Grid2,
}

/// Shared solver/writer state: in-flight count and writer-side errors.
struct Shared {
    pending: Mutex<usize>,
    all_done: Condvar,
    errors: Mutex<Vec<String>>,
}

/// Lock with poison recovery. The data under both mutexes (a gauge and an
/// error list) is valid after any partial update, so a panic on either
/// side of the pipeline must not cascade into every later lock: a
/// poisoned checkpointer would otherwise fail every later enqueue and
/// drain of its rank.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn writer_gone() -> Error {
    Error::InvalidArg("checkpoint writer thread is gone".into())
}

/// A background checkpoint writer bound to one [`CheckpointStore`].
///
/// Owned by a group root; dropped (joining the writer thread) when the
/// rank finishes or dies. Dropping without draining is safe: the writer
/// finishes every shipped snapshot first, a queued one that was never
/// shipped is dropped, and file atomicity guarantees no partial state
/// either way.
pub struct AsyncCheckpointer {
    job_tx: Option<SyncSender<Snapshot>>,
    free_rx: Receiver<Grid2>,
    /// Snapshot buffers not created yet (of the `QUEUE_DEPTH`).
    uncreated: usize,
    /// Buffers lent out and given back unused, or superseded.
    idle: Vec<Grid2>,
    /// The newest snapshot and its write's virtual start, held back until
    /// the clock passes that start.
    queued: Option<(Snapshot, f64)>,
    /// Snapshots superseded since the last drain reported them.
    superseded: u32,
    shared: Arc<Shared>,
    writer: Option<JoinHandle<()>>,
}

impl AsyncCheckpointer {
    /// Spawn the writer thread for `store`; an error if the thread cannot
    /// be spawned (the caller writes synchronously instead).
    pub fn new(store: CheckpointStore) -> std::io::Result<Self> {
        let (job_tx, job_rx) = sync_channel::<Snapshot>(QUEUE_DEPTH);
        let (free_tx, free_rx) = sync_channel::<Grid2>(QUEUE_DEPTH);
        let shared = Arc::new(Shared {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
            errors: Mutex::new(Vec::new()),
        });
        let shared2 = Arc::clone(&shared);
        let writer = std::thread::Builder::new().name("ckpt-writer".into()).spawn(move || {
            while let Ok(snap) = job_rx.recv() {
                if let Err(e) = store.write(snap.grid_id, snap.step, &snap.grid) {
                    lock_recover(&shared2.errors)
                        .push(format!("grid {} step {}: {e}", snap.grid_id, snap.step));
                }
                {
                    let mut n = lock_recover(&shared2.pending);
                    *n -= 1;
                    if *n == 0 {
                        shared2.all_done.notify_all();
                    }
                }
                // Hand the buffer back for reuse; the solver may
                // already be gone (rank death) — that's fine.
                let _ = free_tx.send(snap.grid);
            }
        })?;
        Ok(AsyncCheckpointer {
            job_tx: Some(job_tx),
            free_rx,
            uncreated: QUEUE_DEPTH,
            idle: Vec::new(),
            queued: None,
            superseded: 0,
            shared,
            writer: Some(writer),
        })
    }

    /// Borrow a snapshot buffer, re-shaped to `level` with unspecified
    /// node values: the caller assembles the next checkpoint into it and
    /// passes it to [`submit`](Self::submit) — or, if the assembly failed,
    /// to [`give_back`](Self::give_back).
    ///
    /// Blocks — real backpressure, not virtual — when no buffer is idle:
    /// one holds the queued snapshot and the other is in the writer's
    /// hands until its file has landed.
    pub fn take_buffer(&mut self, level: LevelPair) -> Result<Grid2> {
        let mut grid = if let Some(grid) = self.idle.pop() {
            grid
        } else if self.uncreated > 0 {
            self.uncreated -= 1;
            return Ok(Grid2::zeros(level));
        } else {
            self.free_rx.recv().map_err(|_| writer_gone())?
        };
        grid.reshape(level);
        Ok(grid)
    }

    /// Return a buffer from [`take_buffer`](Self::take_buffer) unused.
    pub fn give_back(&mut self, grid: Grid2) {
        self.idle.push(grid);
    }

    /// Submit a filled snapshot buffer as the checkpoint of `grid_id` at
    /// `step`; returns the encoded byte size (header + payload +
    /// checksum), as `write` would. Virtual disk cost is charged as
    /// deferred I/O on `ctx`. The snapshot goes to the writer thread once
    /// its virtual write has started; until then it is the queued one,
    /// and the next submit supersedes it if it still has not started.
    ///
    /// A shut-down writer stage is a recoverable condition, not a
    /// protocol bug: the error hands the snapshot back so the caller can
    /// degrade to the synchronous write path (see the CR checkpoint arm
    /// in `app`), and must never panic the rank.
    pub fn submit(
        &mut self,
        ctx: &Ctx,
        grid_id: usize,
        step: u64,
        grid: Grid2,
    ) -> std::result::Result<usize, (Error, Grid2)> {
        // The queued write that has started by now is in flight: ship it
        // before any fault site, so a root dying in this submit lands it.
        let shipped = self.ship_started(ctx.now());
        ctx.fault_op(OpClass::CkptSnapshot);
        ctx.fault_op(OpClass::CkptEnqueue);
        if let Err(e) = shipped {
            return Err((e, grid));
        }
        if self.job_tx.is_none() {
            return Err((Error::InvalidArg("checkpoint writer already shut down".into()), grid));
        }
        let bytes = crate::checkpoint::OVERHEAD + grid.byte_size();
        let write = ctx.disk_write_async(bytes);
        debug_assert_eq!(
            write.superseded,
            self.queued.is_some(),
            "the virtual disk and this stage disagree on the queued write"
        );
        self.supersede_queued();
        let snap = Snapshot { grid_id, step, grid };
        if write.start > ctx.now() {
            self.queued = Some((snap, write.start));
        } else if let Err(refused) = self.ship(snap) {
            return Err((writer_gone(), refused.grid));
        }
        Ok(bytes)
    }

    /// Hand `snap` to the writer thread, or back if it is gone.
    fn ship(&mut self, snap: Snapshot) -> std::result::Result<(), Snapshot> {
        let Some(tx) = self.job_tx.as_ref() else { return Err(snap) };
        *lock_recover(&self.shared.pending) += 1;
        tx.send(snap).map_err(|refused| {
            // Writer thread is gone; roll the gauge back so a later drain
            // cannot wait forever on a job that will never complete.
            *lock_recover(&self.shared.pending) -= 1;
            refused.0
        })
    }

    /// Drop the queued snapshot, if any, unwritten: its buffer goes idle
    /// and it counts as superseded.
    fn supersede_queued(&mut self) {
        if let Some((stale, _)) = self.queued.take() {
            self.idle.push(stale.grid);
            self.superseded += 1;
        }
    }

    /// Ship the queued snapshot if its virtual write starts by `now`. A
    /// refused one is dropped: its buffer goes idle and the error tells
    /// the caller the stage is gone.
    fn ship_started(&mut self, now: f64) -> Result<()> {
        match self.queued.take() {
            Some((snap, start)) if start <= now => self.ship(snap).map_err(|refused| {
                self.idle.push(refused.grid);
                writer_gone()
            }),
            queued => {
                self.queued = queued;
                Ok(())
            }
        }
    }

    /// Checkpoints submitted and not yet landed on disk: those shipped to
    /// the writer and the queued one.
    pub fn in_flight(&self) -> usize {
        *lock_recover(&self.shared.pending) + usize::from(self.queued.is_some())
    }

    /// Block until every shipped checkpoint has landed, settle the
    /// deferred virtual disk cost on `ctx`, report the snapshots
    /// superseded since the last drain, and surface any writer-side I/O
    /// error. A queued snapshot whose write has not started by now is
    /// superseded — neither written nor charged. A fault site
    /// ([`OpClass::CkptDrain`]) fires first, so a chaos victim can die
    /// with writes in flight.
    pub fn drain(&mut self, ctx: &Ctx) -> Result<()> {
        ctx.fault_op(OpClass::CkptDrain);
        let shipped = self.ship_started(ctx.now());
        let dropped = ctx.disk_drop_unstarted();
        debug_assert_eq!(
            dropped,
            self.queued.is_some(),
            "the virtual disk and this stage disagree on the queued write"
        );
        self.supersede_queued();
        {
            let mut n = lock_recover(&self.shared.pending);
            while *n > 0 {
                n = self.shared.all_done.wait(n).unwrap_or_else(|e| e.into_inner());
            }
        }
        ctx.disk_drain();
        if self.superseded > 0 {
            ctx.report_add(crate::app::keys::CKPT_SUPERSEDED, f64::from(self.superseded));
            self.superseded = 0;
        }
        let mut errors = std::mem::take(&mut *lock_recover(&self.shared.errors));
        if let Err(e) = shipped {
            errors.push(e.to_string());
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(Error::InvalidArg(format!("checkpoint write failed: {}", errors.join("; "))))
        }
    }
}

impl Drop for AsyncCheckpointer {
    fn drop(&mut self) {
        // Closing the job channel stops the writer after it finishes the
        // shipped snapshots; a queued one never shipped is dropped with
        // this stage. Rename-atomicity makes whatever is still in flight
        // land completely or not at all.
        self.job_tx.take();
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::OVERHEAD;
    use ulfm_sim::{run, FaultPlan, FaultSite, RunConfig};

    fn store() -> CheckpointStore {
        CheckpointStore::new(crate::config::default_ckpt_dir()).unwrap()
    }

    /// Snapshot `grid` the way a root does: borrow a buffer, fill it,
    /// submit it.
    fn enqueue(
        ck: &mut AsyncCheckpointer,
        ctx: &Ctx,
        grid_id: usize,
        step: u64,
        grid: &Grid2,
    ) -> Result<usize> {
        let mut buf = ck.take_buffer(grid.level())?;
        buf.values_mut().copy_from_slice(grid.values());
        ck.submit(ctx, grid_id, step, buf).map_err(|(e, _)| e)
    }

    #[test]
    fn enqueued_checkpoints_land_and_validate() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let mut ck = AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap()).unwrap();
            let g = Grid2::from_fn(LevelPair::new(4, 3), |x, y| x * y + 0.5);
            for step in [10u64, 20, 30] {
                enqueue(&mut ck, ctx, 0, step, &g).unwrap();
                ctx.advance(1.0);
            }
            ck.drain(ctx).unwrap();
            assert_eq!(ck.in_flight(), 0);
            assert!(ctx.io_hidden() > 0.0, "compute must hide some disk time");
        })
        .assert_no_app_errors();
        let (restored, skipped) = s.read_latest_valid(0).unwrap();
        let (step, _, _) = restored.expect("newest checkpoint");
        assert_eq!(step, 30);
        assert_eq!(skipped, 0);
        s.clear().unwrap();
    }

    #[test]
    fn snapshot_buffers_circulate_without_copies() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let mut ck = AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap()).unwrap();
            let level = LevelPair::new(4, 4);
            // The two buffers of the double buffer, by allocation.
            let a = ck.take_buffer(level).unwrap();
            let b = ck.take_buffer(level).unwrap();
            let ptrs = [a.values().as_ptr(), b.values().as_ptr()];
            // A buffer whose gather failed comes straight back.
            ck.give_back(b);
            let b = ck.take_buffer(LevelPair::new(3, 4)).unwrap();
            assert_eq!(b.values().as_ptr(), ptrs[1]);
            assert_eq!((b.level(), b.values().len()), (LevelPair::new(3, 4), 9 * 17));
            ck.give_back(b);
            // A submitted one returns from the writer once it has landed:
            // every later buffer is one of the same two allocations.
            ck.submit(ctx, 0, 1, a).map_err(|(e, _)| e).unwrap();
            for step in 2..6u64 {
                let g = ck.take_buffer(level).unwrap();
                assert!(ptrs.contains(&g.values().as_ptr()), "a third buffer appeared");
                ck.submit(ctx, 0, step, g).map_err(|(e, _)| e).unwrap();
            }
            // Step 1 is in flight, step 5 queued behind it: the drain
            // lands step 1 and supersedes step 5.
            ck.drain(ctx).unwrap();
            // A refused snapshot is handed back intact for the sync path.
            ck.job_tx.take();
            let mut g = ck.take_buffer(level).unwrap();
            g.values_mut().fill(7.0);
            let (err, back) = ck.submit(ctx, 0, 9, g).unwrap_err();
            assert!(err.to_string().contains("writer"), "got: {err}");
            assert!(back.values().iter().all(|&v| v == 7.0));
        })
        .assert_no_app_errors();
        assert_eq!(s.read(0).unwrap().expect("landed").0, 1);
        s.clear().unwrap();
    }

    /// The steps of grid `id` on disk, newest first.
    fn landed(s: &CheckpointStore, id: usize) -> Vec<u64> {
        s.candidates(id).unwrap().into_iter().map(|(step, _)| step).collect()
    }

    #[test]
    fn only_the_writes_that_start_land() {
        let s = store().with_retention(8);
        let dir = s.dir().to_path_buf();
        let report = run(RunConfig::local(1), move |ctx| {
            let mut ck =
                AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap().with_retention(8))
                    .unwrap();
            let level = LevelPair::new(4, 4);
            let mut buffers = Vec::new();
            // Five submits with no clock advance: step 1 starts at once,
            // step 2 queues behind it, and each later one supersedes the
            // queued snapshot before its write starts.
            for step in 1..=5u64 {
                let g = ck.take_buffer(level).unwrap();
                if !buffers.contains(&g.values().as_ptr()) {
                    buffers.push(g.values().as_ptr());
                }
                ck.submit(ctx, 0, step, g).map_err(|(e, _)| e).unwrap();
                assert!(ck.in_flight() <= QUEUE_DEPTH);
            }
            assert_eq!(buffers.len(), QUEUE_DEPTH, "still two allocations");
            assert_eq!(ck.superseded, 3);
            // The drain lands step 1 and supersedes the queued step 5.
            ck.drain(ctx).unwrap();
            assert_eq!((ck.in_flight(), ck.superseded), (0, 0));
            // Then one write per compute interval longer than a write:
            // nothing is superseded, everything lands.
            let cost = ctx.profile().disk.write(OVERHEAD + Grid2::zeros(level).byte_size());
            for step in 6..=8u64 {
                let g = ck.take_buffer(level).unwrap();
                ck.submit(ctx, 0, step, g).map_err(|(e, _)| e).unwrap();
                ctx.advance(2.0 * cost);
            }
            ck.drain(ctx).unwrap();
        });
        report.assert_no_app_errors();
        assert_eq!(landed(&s, 0), [8, 7, 6, 1]);
        assert_eq!(report.get_f64(crate::app::keys::CKPT_SUPERSEDED), Some(4.0));
        s.clear().unwrap();
    }

    #[test]
    fn a_final_drain_lands_the_started_writes_and_supersedes_the_queued_one() {
        let s = store().with_retention(8);
        let dir = s.dir().to_path_buf();
        let rc = RunConfig::local(1);
        let level = LevelPair::new(4, 4);
        let cost = rc.profile.disk.write(OVERHEAD + Grid2::zeros(level).byte_size());
        let report = run(rc, move |ctx| {
            let mut ck =
                AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap().with_retention(8))
                    .unwrap();
            let submit = |ck: &mut AsyncCheckpointer, step| {
                let g = ck.take_buffer(level).unwrap();
                ck.submit(ctx, 0, step, g).map_err(|(e, _)| e).unwrap();
            };
            // Step 1 starts at once; step 2 queues behind it and has not
            // started when the run ends: the drain waits for step 1 only.
            submit(&mut ck, 1);
            submit(&mut ck, 2);
            let t0 = ctx.now();
            ck.drain(ctx).unwrap();
            assert!((ctx.now() - t0 - cost).abs() < 1e-12, "waited {}", ctx.now() - t0);
            assert_eq!((ck.in_flight(), ck.superseded), (0, 0));
            // A queued write the clock has reached has started: it lands.
            submit(&mut ck, 3);
            submit(&mut ck, 4);
            ctx.advance(1.5 * cost);
            ck.drain(ctx).unwrap();
            assert_eq!(ck.in_flight(), 0);
            // Nothing pends: a final drain with nothing queued drops nothing.
            ck.drain(ctx).unwrap();
        });
        report.assert_no_app_errors();
        assert_eq!(landed(&s, 0), [4, 3, 1]);
        assert_eq!(report.get_f64(crate::app::keys::CKPT_SUPERSEDED), Some(1.0));
        // Paid: the three writes that landed, not the superseded one.
        let paid = report.io_hidden + report.io_exposed;
        assert!((paid - 3.0 * cost).abs() < 1e-12, "paid {paid} for three writes of {cost}");
        s.clear().unwrap();
    }

    #[test]
    fn fault_sites_fire_once_per_submit_whether_or_not_it_supersedes() {
        // Submit `k` (0-based) of five back-to-back ones supersedes for
        // k ≥ 2; each must still be the `k`-th occurrence of every class,
        // and the 3k..3k+2-th operation in a recovery scope.
        let dies_in = |site: FaultSite| -> f64 {
            let s = store();
            let dir = s.dir().to_path_buf();
            let plan = FaultPlan::at_site(1, site);
            let report = run(RunConfig::local(2), move |ctx| {
                let rank = ctx.initial_world().unwrap().rank();
                if rank == 0 {
                    return;
                }
                ctx.arm_fault_sites(&plan, rank);
                let _scope = ctx.recovery_scope();
                let mut ck = AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap()).unwrap();
                let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x * y);
                for step in 0..5u64 {
                    enqueue(&mut ck, ctx, 0, step, &g).unwrap();
                    ctx.report_add("submitted", 1.0);
                }
                ck.drain(ctx).unwrap();
            });
            report.assert_no_app_errors();
            assert_eq!(report.procs_failed, 1, "{site:?} never fired");
            s.clear().unwrap();
            report.get_f64("submitted").unwrap_or(0.0)
        };
        for k in 0..5u64 {
            for kind in [OpClass::CkptSnapshot, OpClass::CkptEnqueue, OpClass::CkptWrite] {
                assert_eq!(dies_in(FaultSite::Op { kind, nth: k }), k as f64, "{kind:?} #{k}");
            }
            for j in 0..3 {
                let nth = 3 * k + j;
                assert_eq!(dies_in(FaultSite::DuringRecovery { nth }), k as f64, "op #{nth}");
            }
        }
        // The drain's site follows the fifteen submit sites.
        assert_eq!(dies_in(FaultSite::DuringRecovery { nth: 15 }), 5.0);
        assert_eq!(dies_in(FaultSite::Op { kind: OpClass::CkptDrain, nth: 0 }), 5.0);
    }

    /// Dropping the stage without a drain (a rank that dies or returns
    /// early) lands what was shipped to the writer thread — the write in
    /// flight — and discards the queued snapshot that was never shipped.
    #[test]
    fn drop_without_drain_still_lands_queued_writes() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let mut ck = AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap()).unwrap();
            let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x - y);
            // Step 7 starts at once and is shipped; step 8 queues behind
            // it and has not started when the rank drops the stage.
            enqueue(&mut ck, ctx, 2, 7, &g).unwrap();
            enqueue(&mut ck, ctx, 2, 8, &g).unwrap();
            assert_eq!(ck.in_flight(), 2);
            // Dropped here: the writer must finish the shipped job first.
        })
        .assert_no_app_errors();
        assert_eq!(landed(&s, 2), [7]);
        s.clear().unwrap();
    }

    #[test]
    fn enqueue_after_writer_shutdown_errors_instead_of_panicking() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let mut ck = AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap()).unwrap();
            let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x + y);
            enqueue(&mut ck, ctx, 0, 1, &g).unwrap();
            ck.drain(ctx).unwrap();
            // Simulate the writer stage going away mid-run (the Drop path
            // with the checkpointer still referenced): enqueue must turn
            // into an error the caller can degrade on, never a panic.
            ck.job_tx.take();
            if let Some(h) = ck.writer.take() {
                h.join().unwrap();
            }
            let err = enqueue(&mut ck, ctx, 0, 2, &g).unwrap_err();
            assert!(err.to_string().contains("writer"), "got: {err}");
            // The gauge was not bumped for the refused snapshot, so a
            // later drain still returns instead of waiting forever.
            assert_eq!(ck.in_flight(), 0);
            ck.drain(ctx).unwrap();
        })
        .assert_no_app_errors();
        s.clear().unwrap();
    }

    #[test]
    fn poisoned_lock_leaves_enqueue_and_drain_functional() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let mut ck = AsyncCheckpointer::new(CheckpointStore::new(&dir).unwrap()).unwrap();
            // Poison both shared mutexes the way a panicking write-side
            // thread would: panic while holding each guard.
            let shared = Arc::clone(&ck.shared);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = shared.pending.lock().unwrap();
                panic!("simulated writer-side panic");
            }));
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = shared.errors.lock().unwrap();
                panic!("simulated writer-side panic");
            }));
            assert!(ck.shared.pending.is_poisoned());
            // The pipeline keeps working: enqueue, observe, drain — no
            // poison cascade into this rank.
            let g = Grid2::from_fn(LevelPair::new(4, 4), |x, y| x * y);
            enqueue(&mut ck, ctx, 1, 9, &g).unwrap();
            ck.drain(ctx).unwrap();
            assert_eq!(ck.in_flight(), 0);
        })
        .assert_no_app_errors();
        let (step, _, _) = s.read(1).unwrap().expect("write landed despite poisoned locks");
        assert_eq!(step, 9);
        s.clear().unwrap();
    }

    #[test]
    fn writer_errors_surface_at_drain() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let inner = CheckpointStore::new(&dir).unwrap();
            let mut ck = AsyncCheckpointer::new(inner).unwrap();
            // Nuke the directory so the writer's tmp-file creation fails.
            std::fs::remove_dir_all(&dir).unwrap();
            let g = Grid2::from_fn(LevelPair::new(2, 2), |x, _| x);
            enqueue(&mut ck, ctx, 0, 1, &g).unwrap();
            let err = ck.drain(ctx).unwrap_err();
            assert!(err.to_string().contains("checkpoint write failed"), "got: {err}");
            // A second drain reports clean — errors are consumed.
            ck.drain(ctx).unwrap();
        })
        .assert_no_app_errors();
    }
}
