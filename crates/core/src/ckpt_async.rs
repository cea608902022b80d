//! Asynchronous checkpointing on the virtual clock: a group root's
//! checkpoint writes are priced as deferred disk time, so the solver's
//! compute hides them. One stage serves both stacks: it is generic over
//! the grid ([`CheckpointGrid`]), which picks the file format and the
//! file length the virtual disk charges.
//!
//! The paper prices Checkpoint/Restart entirely by `T_IO` (Eq. 2,
//! `C = T / T_IO`) because every periodic write stalls the group root for
//! a full disk write. Here the root instead gathers its sub-grid straight
//! into a snapshot buffer it borrows from this stage
//! ([`AsyncCheckpointer::take_buffer`]) and submits the filled buffer
//! ([`AsyncCheckpointer::submit`]). The matching virtual-disk cost is
//! charged as deferred I/O via [`Ctx::disk_write_async`] and settled —
//! hidden where compute covered it, exposed where it did not — at the
//! drain barriers. The file itself is written inline, on the root's own
//! fiber, at the first submit or drain that finds the clock past the
//! write's virtual start. Which files land, and when, therefore depends
//! on the virtual schedule alone.
//!
//! Ownership: a snapshot buffer belongs to exactly one party at a time
//! and is never copied. The stage owns it while idle; `take_buffer`
//! lends one to the root, which is its gather target; `submit` keeps it
//! as the queued snapshot or writes it and takes it back idle; a buffer
//! whose gather failed, or whose snapshot was superseded, returns to the
//! idle list. The stage holds at most one queued snapshot, so a root that
//! borrows one buffer at a time owns two.
//!
//! Protocol invariants:
//!
//! * **Newest wins, on the virtual clock.** The virtual disk holds at
//!   most one write in flight and one queued behind it
//!   ([`Ctx::disk_write_async`]). The queued snapshot stays here until
//!   the virtual clock passes its start (the in-flight write's end); only
//!   then is it written. A checkpoint submitted before that replaces it:
//!   the superseded snapshot is neither charged nor written, and is
//!   counted in the `ckpt_superseded` report key at the next drain. So a
//!   disk two or more writes behind skips the stale snapshots instead of
//!   paying for each.
//! * **A drain never starts a write.** `drain` writes the queued snapshot
//!   only if its write has started by then. One that has not is
//!   superseded, at the recovery barrier and at the end of the run alike:
//!   it is dropped unwritten and uncharged ([`Ctx::disk_drop_unstarted`])
//!   and counted in `ckpt_superseded`, while the write in flight is paid
//!   for. A queued snapshot exists only while a write is in flight, so the
//!   disk is a whole write behind; landing it would cost a full `T_IO` of
//!   waiting to save recomputing the steps between the two snapshots,
//!   which took less than `T_IO` plus one checkpoint period. A restore
//!   after the drain reads the newest checkpoint on disk, the one that
//!   was in flight, and recomputes from there.
//! * **Crash atomicity.** Every file lands via [`CheckpointStore::write`]
//!   (tmp + rename + directory fsync): a rank killed mid-write leaves
//!   either a complete, checksummed checkpoint or none — never a torn
//!   one. A rank that dies has landed every write that started and drops
//!   the queued snapshot with this stage.
//!
//! A write error returns from the `submit` or `drain` that performed the
//! write. Fault sites, all inside `submit` and in this order, once per
//! submit whether or not it supersedes: [`OpClass::CkptSnapshot`] (the
//! snapshot is complete), [`OpClass::CkptEnqueue`] before the hand-off,
//! [`OpClass::CkptWrite`] (inside `disk_write_async`) before the virtual
//! write is scheduled; and [`OpClass::CkptDrain`] at the top of every
//! drain — so chaos campaigns can kill a root at every stage of the
//! pipeline.

use ulfm_sim::{Ctx, Error, OpClass, Result};

use crate::checkpoint::{CheckpointGrid, CheckpointStore};

/// A filled snapshot buffer whose write has not started.
struct Snapshot<G> {
    grid_id: usize,
    step: u64,
    grid: G,
}

/// The checkpoint stage of one group root (see the module docs). Dropping
/// it without a drain (a rank that dies or returns early) drops the
/// queued snapshot unwritten; every write that started has landed.
pub struct AsyncCheckpointer<G> {
    /// Buffers lent out and given back unused, written, or superseded.
    idle: Vec<G>,
    /// The newest snapshot and its write's virtual start, held back until
    /// the clock passes that start.
    queued: Option<(Snapshot<G>, f64)>,
    /// Snapshots superseded since the last drain reported them.
    superseded: u32,
}

impl<G> Default for AsyncCheckpointer<G> {
    /// An empty stage: no buffer exists before the first borrow.
    fn default() -> Self {
        AsyncCheckpointer { idle: Vec::new(), queued: None, superseded: 0 }
    }
}

impl<G: CheckpointGrid> AsyncCheckpointer<G> {
    /// Borrow a snapshot buffer, re-shaped to `level` with unspecified
    /// node values: the caller assembles the next checkpoint into it and
    /// passes it to [`submit`](Self::submit) — or, if the assembly failed,
    /// to [`give_back`](Self::give_back).
    pub fn take_buffer(&mut self, level: &G::Level) -> G {
        match self.idle.pop() {
            Some(mut grid) => {
                grid.reshape(level);
                grid
            }
            None => G::zeros(level),
        }
    }

    /// Return a buffer from [`take_buffer`](Self::take_buffer) unused.
    pub fn give_back(&mut self, grid: G) {
        self.idle.push(grid);
    }

    /// Submit a filled snapshot buffer as the checkpoint of `grid_id` at
    /// `step`, to land in `store`. Virtual disk cost is charged as
    /// deferred I/O on `ctx`. The snapshot is written once its virtual
    /// write has started; until then it is the queued one, and the next
    /// submit supersedes it if it still has not started.
    pub fn submit(
        &mut self,
        ctx: &Ctx,
        store: &CheckpointStore,
        grid_id: usize,
        step: u64,
        grid: G,
    ) -> Result<()> {
        // The queued write that has started by now is in flight: land it
        // before any fault site, so a root dying in this submit has it.
        let shipped = self.ship_started(ctx.now(), store);
        ctx.fault_op(OpClass::CkptSnapshot);
        ctx.fault_op(OpClass::CkptEnqueue);
        if let Err(e) = shipped {
            self.idle.push(grid);
            return Err(e);
        }
        let write = ctx.disk_write_async(grid.file_len());
        debug_assert_eq!(
            write.superseded,
            self.queued.is_some(),
            "the virtual disk and this stage disagree on the queued write"
        );
        self.supersede_queued();
        let snap = Snapshot { grid_id, step, grid };
        if write.start > ctx.now() {
            self.queued = Some((snap, write.start));
            Ok(())
        } else {
            self.ship(store, snap)
        }
    }

    /// Write `snap` to `store`; its buffer goes idle either way.
    fn ship(&mut self, store: &CheckpointStore, snap: Snapshot<G>) -> Result<()> {
        let Snapshot { grid_id, step, grid } = snap;
        let written = store.write(grid_id, step, &grid);
        self.idle.push(grid);
        written.map(drop).map_err(|e| {
            Error::InvalidArg(format!("checkpoint write failed: grid {grid_id} step {step}: {e}"))
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

    /// Write the queued snapshot if its virtual write starts by `now`.
    fn ship_started(&mut self, now: f64, store: &CheckpointStore) -> Result<()> {
        match self.queued.take() {
            Some((snap, start)) if start <= now => self.ship(store, snap),
            queued => {
                self.queued = queued;
                Ok(())
            }
        }
    }

    /// Land every started write in `store`, settle the deferred virtual
    /// disk cost on `ctx`, and report the snapshots superseded since the
    /// last drain. A queued snapshot whose write has not started by now is
    /// superseded — neither written nor charged. A fault site
    /// ([`OpClass::CkptDrain`]) fires first, so a chaos victim can die
    /// with writes in flight.
    pub fn drain(&mut self, ctx: &Ctx, store: &CheckpointStore) -> Result<()> {
        ctx.fault_op(OpClass::CkptDrain);
        let shipped = self.ship_started(ctx.now(), store);
        let dropped = ctx.disk_drop_unstarted();
        debug_assert_eq!(
            dropped,
            self.queued.is_some(),
            "the virtual disk and this stage disagree on the queued write"
        );
        self.supersede_queued();
        ctx.disk_drain();
        if self.superseded > 0 {
            ctx.report_add(crate::app::keys::CKPT_SUPERSEDED, f64::from(self.superseded));
            self.superseded = 0;
        }
        shipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegrid::{Grid2, GridN, LevelPair, LevelVecN};
    use ulfm_sim::{run, FaultPlan, FaultSite, RunConfig};

    fn store() -> CheckpointStore {
        CheckpointStore::new(crate::config::default_ckpt_dir()).unwrap()
    }

    /// Snapshot `grid` the way a root does: borrow a buffer, fill it,
    /// submit it.
    fn enqueue(
        ck: &mut AsyncCheckpointer<Grid2>,
        ctx: &Ctx,
        store: &CheckpointStore,
        grid_id: usize,
        step: u64,
        grid: &Grid2,
    ) -> Result<()> {
        let mut buf = ck.take_buffer(&grid.level());
        buf.values_mut().copy_from_slice(grid.values());
        ck.submit(ctx, store, grid_id, step, buf)
    }

    #[test]
    fn enqueued_checkpoints_land_and_validate() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let store = CheckpointStore::new(&dir).unwrap();
            let mut ck = AsyncCheckpointer::<Grid2>::default();
            let g = Grid2::from_fn(LevelPair::new(4, 3), |x, y| x * y + 0.5);
            for step in [10u64, 20, 30] {
                enqueue(&mut ck, ctx, &store, 0, step, &g).unwrap();
                ctx.advance(1.0);
            }
            ck.drain(ctx, &store).unwrap();
            assert!(ck.queued.is_none());
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
    fn a_gridn_stage_lands_v3_files_and_charges_their_length() {
        let s = store().with_retention(8);
        let dir = s.dir().to_path_buf();
        let level: LevelVecN = [3, 1, 2].into_iter().collect();
        let g = GridN::from_fn(&level, |x| x[0] - 2.0 * x[1] * x[2] + 0.25);
        let expect = g.clone();
        let rc = RunConfig::local(1);
        let cost = rc.profile.disk.write(g.file_len());
        let report = run(rc, move |ctx| {
            let store = CheckpointStore::new(&dir).unwrap().with_retention(8);
            let mut ck = AsyncCheckpointer::<GridN>::default();
            // One write per compute interval longer than a write: every
            // snapshot lands.
            for step in [10u64, 20, 30] {
                let mut buf = ck.take_buffer(&level);
                buf.values_mut().copy_from_slice(g.values());
                ck.submit(ctx, &store, 3, step, buf).unwrap();
                ctx.advance(2.0 * cost);
            }
            ck.drain(ctx, &store).unwrap();
        });
        report.assert_no_app_errors();
        let files = s.candidates(3).unwrap();
        assert_eq!(files.iter().map(|f| f.0).collect::<Vec<_>>(), [30, 20, 10]);
        for (step, path) in &files {
            let raw = std::fs::read(path).unwrap();
            assert_eq!(raw, CheckpointStore::encode_nd(*step, expect.level(), expect.values()));
            // Charged as long as the file on disk is.
            assert_eq!(raw.len(), expect.file_len());
        }
        let mut back = GridN::zeros(&[0]);
        let (restored, skipped) = s.read_latest_valid_into(3, &mut back).unwrap();
        assert_eq!((restored, skipped), (Some((30, expect.file_len())), 0));
        assert_eq!(back, expect);
        let paid = report.io_hidden + report.io_exposed;
        assert!((paid - 3.0 * cost).abs() < 1e-12, "paid {paid} for three writes of {cost}");
        s.clear().unwrap();
    }

    #[test]
    fn snapshot_buffers_circulate_without_copies() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let store = CheckpointStore::new(&dir).unwrap();
            let mut ck = AsyncCheckpointer::<Grid2>::default();
            let level = LevelPair::new(4, 4);
            // The two buffers of the double buffer, by allocation.
            let a = ck.take_buffer(&level);
            let b = ck.take_buffer(&level);
            let ptrs = [a.values().as_ptr(), b.values().as_ptr()];
            // A buffer whose gather failed comes straight back.
            ck.give_back(b);
            let b = ck.take_buffer(&LevelPair::new(3, 4));
            assert_eq!(b.values().as_ptr(), ptrs[1]);
            assert_eq!((b.level(), b.values().len()), (LevelPair::new(3, 4), 9 * 17));
            ck.give_back(b);
            // A submitted one comes back once written or superseded:
            // every later buffer is one of the same two allocations.
            ck.submit(ctx, &store, 0, 1, a).unwrap();
            for step in 2..6u64 {
                let g = ck.take_buffer(&level);
                assert!(ptrs.contains(&g.values().as_ptr()), "a third buffer appeared");
                ck.submit(ctx, &store, 0, step, g).unwrap();
            }
            // Step 1 is in flight, step 5 queued behind it: the drain
            // lands step 1 and supersedes step 5.
            ck.drain(ctx, &store).unwrap();
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
            let store = CheckpointStore::new(&dir).unwrap().with_retention(8);
            let mut ck = AsyncCheckpointer::<Grid2>::default();
            let level = LevelPair::new(4, 4);
            let mut buffers = Vec::new();
            // Five submits with no clock advance: step 1 starts at once,
            // step 2 queues behind it, and each later one supersedes the
            // queued snapshot before its write starts.
            for step in 1..=5u64 {
                let g = ck.take_buffer(&level);
                if !buffers.contains(&g.values().as_ptr()) {
                    buffers.push(g.values().as_ptr());
                }
                ck.submit(ctx, &store, 0, step, g).unwrap();
            }
            assert_eq!(buffers.len(), 2, "still two allocations");
            assert_eq!(ck.superseded, 3);
            // The drain lands step 1 and supersedes the queued step 5.
            ck.drain(ctx, &store).unwrap();
            assert_eq!((ck.queued.is_some(), ck.superseded), (false, 0));
            // Then one write per compute interval longer than a write:
            // nothing is superseded, everything lands.
            let cost = ctx.profile().disk.write(Grid2::zeros(level).file_len());
            for step in 6..=8u64 {
                let g = ck.take_buffer(&level);
                ck.submit(ctx, &store, 0, step, g).unwrap();
                ctx.advance(2.0 * cost);
            }
            ck.drain(ctx, &store).unwrap();
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
        let cost = rc.profile.disk.write(Grid2::zeros(level).file_len());
        let report = run(rc, move |ctx| {
            let store = CheckpointStore::new(&dir).unwrap().with_retention(8);
            let mut ck = AsyncCheckpointer::<Grid2>::default();
            let submit = |ck: &mut AsyncCheckpointer<Grid2>, step| {
                let g = ck.take_buffer(&level);
                ck.submit(ctx, &store, 0, step, g).unwrap();
            };
            // Step 1 starts at once; step 2 queues behind it and has not
            // started when the run ends: the drain waits for step 1 only.
            submit(&mut ck, 1);
            submit(&mut ck, 2);
            let t0 = ctx.now();
            ck.drain(ctx, &store).unwrap();
            assert!((ctx.now() - t0 - cost).abs() < 1e-12, "waited {}", ctx.now() - t0);
            assert_eq!((ck.queued.is_some(), ck.superseded), (false, 0));
            // A queued write the clock has reached has started: it lands.
            submit(&mut ck, 3);
            submit(&mut ck, 4);
            ctx.advance(1.5 * cost);
            ck.drain(ctx, &store).unwrap();
            assert!(ck.queued.is_none());
            // Nothing pends: a final drain with nothing queued drops nothing.
            ck.drain(ctx, &store).unwrap();
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
                let store = CheckpointStore::new(&dir).unwrap();
                let mut ck = AsyncCheckpointer::<Grid2>::default();
                let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x * y);
                for step in 0..5u64 {
                    enqueue(&mut ck, ctx, &store, 0, step, &g).unwrap();
                    ctx.report_add("submitted", 1.0);
                }
                ck.drain(ctx, &store).unwrap();
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
    /// early) has landed the write in flight and discards the queued
    /// snapshot that never started.
    #[test]
    fn drop_without_drain_still_lands_queued_writes() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let store = CheckpointStore::new(&dir).unwrap();
            let mut ck = AsyncCheckpointer::<Grid2>::default();
            let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x - y);
            // Step 7 starts at once and is written; step 8 queues behind
            // it and has not started when the rank drops the stage.
            enqueue(&mut ck, ctx, &store, 2, 7, &g).unwrap();
            enqueue(&mut ck, ctx, &store, 2, 8, &g).unwrap();
            assert!(ck.queued.is_some());
        })
        .assert_no_app_errors();
        assert_eq!(landed(&s, 2), [7]);
        s.clear().unwrap();
    }

    #[test]
    fn writer_errors_surface_from_the_call_that_writes() {
        let s = store();
        let dir = s.dir().to_path_buf();
        run(RunConfig::local(1), move |ctx| {
            let store = CheckpointStore::new(&dir).unwrap();
            let mut ck = AsyncCheckpointer::<Grid2>::default();
            // Nuke the directory so the write's tmp-file creation fails.
            std::fs::remove_dir_all(&dir).unwrap();
            let g = Grid2::from_fn(LevelPair::new(2, 2), |x, _| x);
            // Step 1 starts at once: the submit writes it and fails.
            let err = enqueue(&mut ck, ctx, &store, 0, 1, &g).unwrap_err();
            assert!(err.to_string().contains("checkpoint write failed"), "got: {err}");
            // Nothing was left pending, so a later drain is clean.
            ck.drain(ctx, &store).unwrap();
        })
        .assert_no_app_errors();
    }
}
