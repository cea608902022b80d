//! The end-to-end fault-tolerant application (§II): solve the 2D advection
//! equation on every sub-grid for `2^k` timesteps, suffer injected
//! process failures, detect them, reconstruct the world communicator at
//! its original size and rank order, recover the lost sub-grid data with
//! the configured technique, combine, and measure the error against the
//! analytic solution.
//!
//! Every rank — original or respawned — executes [`run_app`]; respawned
//! children are routed through the child branch of the reconstruction
//! protocol exactly as a re-executed `main()` would be in the paper's MPI
//! code.

use advect2d::TimeGrid;
use sparsegrid::{
    combine_onto, l1_error_vs, robust_coefficients, CombinationTerm, Grid2, LevelPair, LevelSet,
};
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::checkpoint::CheckpointStore;
use crate::ckpt_async::AsyncCheckpointer;
use crate::config::{AppConfig, AppEvent, CombineMode, Technique};
use crate::gather::{
    binomial_combine, current_rank_of, gather_grid, gather_grid_into, recv_grid, send_grid,
};
use crate::layout::{Assignment, ProcLayout};
use crate::policy::RecoveryPolicy;
use crate::psolve::DistributedSolver;
use crate::reconstruct::{
    is_casualty, reconstruct, repair_deferred, Attempt, Join, ReconstructTimings, RepairArm,
};
use crate::recovery;
use crate::tags::TagSpace;
use crate::timeline::build_timeline;

/// Report keys the application deposits (see [`AppOutcome`]).
pub mod keys {
    /// Virtual makespan of the whole run (max over ranks), seconds.
    pub const T_TOTAL: &str = "t_total";
    /// Data recovery overhead (paper Fig. 9a component), max over ranks.
    pub const T_RECOVERY: &str = "t_recovery";
    /// Total checkpoint-writing time (CR; part of Fig. 9a's CR bar).
    pub const T_CKPT: &str = "t_ckpt_total";
    /// Failed-list creation time, cumulative over repairs (Fig. 8a).
    pub const T_LIST: &str = "t_list";
    /// Whole communicator-reconstruction time (Fig. 8b).
    pub const T_RECONSTRUCT: &str = "t_reconstruct";
    /// `OMPI_Comm_shrink` time (Table I).
    pub const T_SHRINK: &str = "t_shrink";
    /// `MPI_Comm_spawn_multiple` time (Table I).
    pub const T_SPAWN: &str = "t_spawn";
    /// `MPI_Intercomm_merge` time (Table I).
    pub const T_MERGE: &str = "t_merge";
    /// `OMPI_Comm_agree` time during repair (Table I).
    pub const T_AGREE: &str = "t_agree";
    /// Average l1 error of the combined solution vs the analytic solution
    /// (Fig. 10).
    pub const ERR_L1: &str = "err_l1";
    /// Number of process failures repaired.
    pub const N_FAILED: &str = "n_failed";
    /// World size of the run.
    pub const WORLD: &str = "world";
    /// Solve-phase time (max over ranks), excluding recovery/combination.
    pub const T_SOLVE: &str = "t_solve";
    /// Final rank→host map (hostfile index per world rank, in rank
    /// order) — the chaos oracles compare it against the no-failure run to
    /// prove recovery restored the paper's load balance.
    pub const RANK_HOSTS: &str = "rank_hosts";
    /// Final rank→grid map (grid id per world rank, in rank order).
    pub const RANK_GRIDS: &str = "rank_grids";
    /// Corrupt/torn checkpoint files skipped by restart fallback,
    /// summed over all checkpoint restores of the run. Healthy stores
    /// never set this key; the chaos O6 oracle checks it both ways.
    pub const CKPT_SKIPPED: &str = "ckpt_skipped_corrupt";
    /// Fault-injection corruption strikes that actually landed on a
    /// completed checkpoint file, summed over ranks. Failure detection
    /// races the planned write in real time (kills behave like real
    /// SIGKILLs), so a planned strike may be preempted by an early
    /// repair; the O6 oracle only demands a reported skip when this
    /// key shows the damage truly reached the disk.
    pub const CKPT_CORRUPT_APPLIED: &str = "ckpt_corrupt_applied";
    /// Original rank per final world rank, gathered only under the
    /// `ShrinkRedistribute` and `SpareSubstitute` policies (the O7
    /// policy-invariant oracle checks the membership contract with it;
    /// the respawn-family policies restore the identity map and skip the
    /// gather to keep the no-failure path bitwise-identical).
    pub const RANK_ORIG: &str = "rank_orig";
    /// Grid ids dropped for good under `ShrinkRedistribute` (rank-0
    /// list; the final combination excluded them via robust
    /// coefficients).
    pub const DROPPED_GRIDS: &str = "dropped_grids";
    /// Set to 1 by rank 0 when the run exited through cooperative
    /// cancellation (the campaign service reads it to classify the job
    /// as cancelled rather than failed).
    pub const CANCELLED: &str = "cancelled";
    /// How many operations named `op` (an entry of
    /// [`AUDITED_OPS`](super::AUDITED_OPS)) rank 0 made during each
    /// failure event: a list with one entry per event, in event order.
    pub fn op_count(op: &str) -> String {
        format!("ops_{op}")
    }
}

/// Marker type documenting the report-key contract of [`run_app`]: results
/// are deposited on the run blackboard under [`keys`].
#[derive(Debug, Clone, Copy)]
pub struct AppOutcome;

/// Detection points: for Checkpoint/Restart, every checkpoint period and
/// the end; otherwise just the end ("the 2D-advection solver is run for
/// 2^13 timesteps at which point failure detection is tested", §III).
pub(crate) fn detection_points(cfg: &AppConfig) -> Vec<u64> {
    let steps = cfg.steps();
    let mut v = Vec::new();
    if cfg.technique.has_periodic_protection() {
        let p = cfg.ckpt_period();
        let mut s = p;
        while s < steps {
            v.push(s);
            s += p;
        }
    }
    v.push(steps);
    v
}

/// Where a CR group root assembles and lands its periodic checkpoints.
///
/// While the background writer stage is usable, the gather target *is*
/// one of its two snapshot buffers: the root assembles into it and hands
/// it over, nothing is copied. In synchronous mode — configured, or
/// degraded to because the writer stage became unusable, which pins the
/// rank to the critical-path write for the rest of the run — the root
/// assembles into the one buffer kept here and writes from it.
#[derive(Default)]
struct CkptLanding {
    /// The background writer, created by the first checkpoint of a root
    /// in async mode.
    writer: Option<AsyncCheckpointer>,
    degraded: bool,
    /// The synchronous path's gather target, reused across rounds.
    own: Option<Grid2>,
}

impl CkptLanding {
    /// The grid to gather the next checkpoint into, at `level`; its node
    /// values are unspecified. May block on the writer's backpressure.
    fn buffer(&mut self, cfg: &AppConfig, store: &CheckpointStore, level: LevelPair) -> Grid2 {
        if cfg.ckpt_async && !self.degraded {
            let ck = self.writer.get_or_insert_with(|| AsyncCheckpointer::new(store.clone()));
            match ck.take_buffer(level) {
                Ok(grid) => return grid,
                Err(_) => self.degrade(),
            }
        }
        match self.own.take() {
            Some(mut grid) => {
                grid.reshape(level);
                grid
            }
            None => Grid2::zeros(level),
        }
    }

    /// The writer stage is unusable (its thread is gone). Degrade to the
    /// synchronous critical-path write for the rest of the run instead of
    /// failing the rank: slower, still correct. Dropping the checkpointer
    /// joins the dead thread.
    fn degrade(&mut self) {
        self.degraded = true;
        self.writer = None;
    }

    /// A buffer from [`buffer`](Self::buffer) whose gather failed: back to
    /// where it came from.
    fn release(&mut self, grid: Grid2) {
        match self.writer.as_mut() {
            Some(ck) => ck.give_back(grid),
            None => self.own = Some(grid),
        }
    }

    /// Land the gathered `grid` as the checkpoint of `grid_id` at `step`:
    /// snapshot + hand-off (T_IO is charged as deferred cost and settled
    /// at the drains), or the synchronous write.
    fn land(
        &mut self,
        ctx: &Ctx,
        store: &CheckpointStore,
        grid_id: usize,
        step: u64,
        mut grid: Grid2,
    ) -> Result<()> {
        if let Some(ck) = self.writer.as_mut() {
            match ck.submit(ctx, grid_id, step, grid) {
                Ok(_) => return Ok(()),
                Err((_, refused)) => {
                    grid = refused;
                    self.degrade();
                }
            }
        }
        let bytes = store
            .write(grid_id, step, &grid)
            .map_err(|e| Error::InvalidArg(format!("checkpoint write: {e}")))?;
        ctx.disk_write(bytes);
        self.own = Some(grid);
        Ok(())
    }

    /// Drain the async checkpoint queue if this rank runs one (group
    /// roots under CR with `ckpt_async`); a no-op everywhere else. Called
    /// before every checkpoint restore and at end of run, so a restart
    /// only ever sees fully landed files and the store can be cleared
    /// safely.
    fn drain(&self, ctx: &Ctx) -> Result<()> {
        match &self.writer {
            Some(ck) => {
                ck.drain(ctx).map_err(|e| Error::InvalidArg(format!("checkpoint drain: {e}")))
            }
            None => Ok(()),
        }
    }
}

/// Split the world into per-grid groups. Idle spare ranks (`my` is
/// `None`, `SpareSubstitute` only) take the colour one past the last grid
/// so they land in a group of their own and the split stays collective.
pub(crate) fn build_group_by_color(
    ctx: &Ctx,
    world: &Comm,
    grid: Option<usize>,
    n_grids: usize,
) -> Result<Comm> {
    let color = grid.map_or(n_grids as i64, |g| g as i64);
    world
        .split(ctx, Some(color), world.rank() as i64)?
        .ok_or_else(|| Error::InvalidArg("every rank belongs to a grid group".into()))
}

/// [`build_group_by_color`] keyed by the 2D assignment.
fn build_group(ctx: &Ctx, world: &Comm, my: Option<Assignment>, n_grids: usize) -> Result<Comm> {
    build_group_by_color(ctx, world, my.map(|m| m.grid), n_grids)
}

/// What a committed data-recovery attempt leaves behind on this rank.
pub(crate) struct Recovered {
    /// The detection step the data came back at.
    pub at_step: u64,
    /// The per-grid group communicator over the confirmed world.
    pub group: Comm,
    /// This rank's accountable recovery time (Fig. 9a).
    pub t_recovery: f64,
    /// The failed-rank list the recovery used (rank 0's broadcast).
    pub failed: Vec<usize>,
}

/// First collective of a data-recovery attempt: rank 0 tells everyone —
/// respawned children know nothing — the detection step `dp` and the ranks
/// to recover: this event's casualties so far, plus (at the final step)
/// the earlier end-of-run casualties, so that late-spawned children derive
/// the same lost-grid set as the survivors.
pub(crate) fn share_recovery_metadata(
    ctx: &Ctx,
    world: &Comm,
    dp: Option<u64>,
    steps: u64,
    event_failed: &[usize],
    end_failed: &[usize],
) -> Result<(u64, Vec<usize>)> {
    let meta: Option<Vec<u64>> = if world.rank() == 0 {
        // Cross-rank protocol assumption, not a local invariant: slot 0
        // knows the detection step because the controller never fails (the
        // paper's standing constraint) and children are never spawned into
        // slot 0. If adversarial fault timing ever violates that — the
        // exact regime the chaos engine probes — fail with an error
        // (recorded and isolated) instead of panicking: a retry cannot
        // manufacture the missing metadata, so this is a hard error, not
        // a vote against the round.
        let Some(d) = dp else {
            return Err(Error::InvalidArg(
                "recovery metadata missing on the controller rank".into(),
            ));
        };
        let mut failed = event_failed.to_vec();
        if d == steps {
            failed.extend(end_failed.iter().filter(|r| !event_failed.contains(r)));
        }
        failed.sort_unstable();
        let mut v = vec![d];
        v.extend(failed.iter().map(|&r| r as u64));
        Some(v)
    } else {
        None
    };
    let meta = world.bcast(ctx, 0, meta.as_deref())?;
    Ok((meta[0], meta[1..].iter().map(|&r| r as usize).collect()))
}

/// [`reconstruct`] with `attempt` as the data recovery of its confirming
/// rounds: returns the confirmed world and what the attempt of the round
/// that was confirmed recovered (`None` when no round ran one — nothing
/// failed, or the arm only shrinks and so refills nothing to recover).
pub(crate) fn reconstruct_recovering(
    ctx: &Ctx,
    join: Join,
    arm: &mut RepairArm<'_>,
    timings: &mut ReconstructTimings,
    mut attempt: impl FnMut(&Ctx, &Comm, &mut ReconstructTimings) -> Result<Recovered>,
) -> Result<(Comm, Option<Recovered>)> {
    let mut last: Option<Recovered> = None;
    let mut run = |ctx: &Ctx, world: &Comm, tm: &mut ReconstructTimings| {
        last = None;
        last = Some(attempt(ctx, world, tm)?);
        Ok(())
    };
    let riding: Option<Attempt<'_>> =
        if matches!(arm, RepairArm::Shrink(_)) { None } else { Some(&mut run) };
    let world = reconstruct(ctx, join, arm, riding, timings)?;
    Ok((world, last))
}

/// The ULFM operations the per-event audit counts (`ulfm_sim::OP_NAMES`
/// spellings), each reported under the key `ops_<name>`.
pub const AUDITED_OPS: [&str; 7] =
    ["agree", "intercomm_agree", "shrink", "spawn_multiple", "intercomm_merge", "split", "barrier"];

/// One failure event as rank 0 books it: where its window and its
/// operation counts started, and what the repair loop timed.
pub(crate) struct Event {
    t_start: f64,
    ops_start: [u64; AUDITED_OPS.len()],
    /// This event's timings only (detection, reconstruction and the data
    /// recovery riding its confirming round).
    pub round: ReconstructTimings,
}

impl Event {
    pub fn open(ctx: &Ctx) -> Self {
        Event {
            t_start: ctx.now(),
            ops_start: AUDITED_OPS.map(|op| ctx.op_count(op)),
            round: ReconstructTimings::default(),
        }
    }

    /// The repaired world is confirmed: rank 0 reports the event's
    /// timeline and how many of each audited operation it made (one list
    /// entry per event), everyone folds its timings into the run's.
    pub fn close(
        self,
        ctx: &Ctx,
        cfg: &AppConfig,
        world: &Comm,
        index: &mut usize,
        step: u64,
        run: &mut ReconstructTimings,
    ) {
        if world.rank() == 0 {
            ctx.report_timeline(build_timeline(*index, step, self.t_start, ctx.now(), &self.round));
            for (op, n0) in AUDITED_OPS.iter().zip(self.ops_start) {
                ctx.report_push(&keys::op_count(op), (ctx.op_count(op) - n0) as f64);
            }
        }
        *index += 1;
        merge_timings(run, &self.round);
        notify(cfg, world, AppEvent::Recovered { step, ranks: self.round.failed_ranks.len() });
    }
}

/// What every data-recovery attempt of a run reads but never changes.
struct Env<'a> {
    cfg: &'a AppConfig,
    layout: &'a ProcLayout,
    store: &'a CheckpointStore,
    dt: f64,
}

/// This rank's share of what a repair can rewrite: its grid slot, the
/// solver on it, the protection data it holds, and the casualty lists the
/// final combination needs.
#[derive(Default)]
struct RankState {
    /// `None` on the idle spare tail under `SpareSubstitute`.
    my: Option<Assignment>,
    solver: Option<DistributedSolver>,
    /// Checkpoint buffers and (async mode) the background writer; only a
    /// CR group root ever puts anything in it.
    landing: CkptLanding,
    /// In-memory buddy checkpoints this rank holds for partner grids
    /// (Buddy Checkpoint only; respawned ranks start empty).
    buddy_store: recovery::BuddyStore,
    /// Grids that lost data at the *final* detection point; the Alternate
    /// Combination's final solution is the robust combination over the
    /// survivors ("all the surviving sub-grids, including those on the
    /// extra layers, are assigned new coefficients for the combination").
    final_lost: Vec<usize>,
    /// Ranks that failed at the *final* detection step (or later, during
    /// the combination), accumulated across failure events.
    end_failed: Vec<usize>,
    t_rec: f64,
    t_ckpt: f64,
}

impl RankState {
    /// Take the grid slot of `world_rank` (none on the spare tail),
    /// rebuilding the solver if the slot changed: a respawned child takes
    /// its slot for the first time, a promote split may have moved a spare
    /// into a failed slot (or, on the spawn fallback, back out). The data
    /// recovery that follows restores the solver's state. No other repair
    /// ever moves a surviving rank, so elsewhere this changes nothing.
    fn take_slot(&mut self, env: &Env<'_>, world_rank: usize) {
        let new = env.layout.try_assignment(world_rank);
        if new != self.my {
            self.my = new;
            self.solver = new.map(|m| {
                DistributedSolver::new(
                    env.cfg.problem,
                    env.layout.system().grid(m.grid).level,
                    env.dt,
                    env.layout.group(m.grid),
                    m.local,
                )
                .with_kernel(env.cfg.kernel)
            });
        }
    }

    /// One data-recovery attempt on the `world` being confirmed: drain the
    /// in-flight checkpoints, learn what failed, rebuild the per-grid
    /// group communicators, and run the technique's data recovery.
    /// Idempotent (restore + recompute), so a later round may re-run it.
    fn attempt(
        &mut self,
        ctx: &Ctx,
        env: &Env<'_>,
        world: &Comm,
        dp: Option<u64>,
        timings: &mut ReconstructTimings,
    ) -> Result<Recovered> {
        // Recovery barrier: every in-flight async checkpoint must land
        // before any restore reads the store (counted as checkpoint time —
        // it is the write's exposed tail).
        let t_drain0 = ctx.now();
        stage(self.landing.drain(ctx), "ckpt-drain", ctx)?;
        self.t_ckpt += ctx.now() - t_drain0;
        self.take_slot(env, world.rank());
        let steps = env.cfg.steps();
        let (at_step, failed) = share_recovery_metadata(
            ctx,
            world,
            dp,
            steps,
            &timings.failed_ranks,
            &self.end_failed,
        )?;
        let n_grids = env.layout.system().grids().len();
        let group = build_group(ctx, world, self.my, n_grids)?;
        // Even a failed attempt spent restore time — attribute it. Idle
        // spares hold no grid data; they skip the technique's recovery
        // (group collectives plus point-to-point between grid owners) and
        // just keep the world collectives around it company.
        let t_res0 = ctx.now();
        let recovered = match (self.my, self.solver.as_mut()) {
            (Some(m), Some(sv)) => recovery::recover(
                ctx,
                env.cfg,
                env.layout,
                world,
                &group,
                m,
                sv,
                env.store,
                &mut self.buddy_store,
                &failed,
                at_step,
            ),
            _ => Ok(recovery::RecoveryStats::default()),
        };
        timings.t_restore += ctx.now() - t_res0;
        match recovered {
            Ok(stats) => Ok(Recovered { at_step, group, t_recovery: stats.t_recovery, failed }),
            Err(e) => {
                // Release every peer still blocked in this attempt's group
                // collectives (the loop revokes the world).
                if is_casualty(&e) {
                    group.revoke(ctx);
                }
                Err(e)
            }
        }
    }

    /// Run the Fig. 3 loop with this rank's data recovery riding its
    /// confirming rounds, and book what the confirming barrier committed:
    /// returns the confirmed world and, if any round ran an attempt, the
    /// new group communicator and the step the data came back at.
    fn reconstruct(
        &mut self,
        ctx: &Ctx,
        env: &Env<'_>,
        join: Join,
        arm: &mut RepairArm<'_>,
        dp: Option<u64>,
        timings: &mut ReconstructTimings,
    ) -> Result<(Comm, Option<(Comm, u64)>)> {
        let (world, recovered) =
            reconstruct_recovering(ctx, join, arm, timings, |ctx, world, tm| {
                self.attempt(ctx, env, world, dp, tm)
            })?;
        Ok((world, recovered.map(|rec| self.commit(env, rec))))
    }

    fn commit(&mut self, env: &Env<'_>, rec: Recovered) -> (Comm, u64) {
        self.t_rec += rec.t_recovery;
        if rec.at_step == env.cfg.steps() {
            extend_lost(&mut self.final_lost, env.layout, &rec.failed);
            self.end_failed = rec.failed;
        }
        (rec.group, rec.at_step)
    }
}

/// Execute the fault-tolerant application on this rank. Panics (recording
/// an app error in the run report) on unrecoverable protocol failures;
/// deposits results under [`keys`] via the rank-0 controller.
pub fn run_app(cfg: &AppConfig, ctx: &mut Ctx) {
    if cfg.dim >= 3 {
        return crate::app_nd::run_app_nd(cfg, ctx);
    }
    match run_app_inner(cfg, ctx) {
        Ok(()) => {}
        // A respawned child whose repair round was abandoned by a further
        // failure: its successor is already being spawned by the
        // survivors' restarted recovery loop; exiting quietly is the
        // correct behaviour, not an error.
        Err(Error::Orphaned) => {}
        // Cooperative cancellation: every rank exits together at an epoch
        // boundary after agreeing on the cancel flag; rank 0 has already
        // reported `keys::CANCELLED`, so this is a quiet non-error exit.
        Err(Error::Cancelled) => {}
        Err(e) => panic!("ftsg application failed: {e}"),
    }
}

/// Emit a live observer event from rank 0 (a no-op on other ranks and
/// without an observer configured).
pub(crate) fn notify(cfg: &AppConfig, world: &Comm, ev: AppEvent) {
    if world.rank() == 0 {
        if let Some(obs) = &cfg.observer {
            obs.emit(ev);
        }
    }
}

/// Attach a protocol-stage label to an error so an unrecoverable failure
/// reports *where* in the application flow it happened.
pub(crate) fn stage<T>(r: Result<T>, which: &str, _ctx: &Ctx) -> Result<T> {
    r.map_err(|e| match e {
        Error::InvalidArg(msg) => Error::InvalidArg(format!("[{which}] {msg}")),
        other => Error::InvalidArg(format!("[{which}] {other}")),
    })
}

fn run_app_inner(cfg: &AppConfig, ctx: &mut Ctx) -> Result<()> {
    let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let steps = cfg.steps();
    let tg = TimeGrid::for_system(&cfg.problem, cfg.n, steps, 0.4);
    let store = CheckpointStore::new(&cfg.ckpt_dir)
        .map_err(|e| Error::InvalidArg(format!("checkpoint dir: {e}")))?
        .with_corruption(cfg.ckpt_corruption.clone());
    let env = Env { cfg, layout: &layout, store: &store, dt: tg.dt };
    let mut st = RankState::default();

    let mut repair_timings = ReconstructTimings::default();
    let mut t_solve_local = 0.0_f64;

    // ---- policy state. ----
    let pol = cfg.recovery_policy;
    // Grid-owning world prefix `W`; ranks `>= active_slots` are idle
    // spares (`SpareSubstitute` only).
    let active_slots = layout.world_size();
    let n_grids = layout.system().grids().len();
    // Current world rank → original rank. `None` means the identity (the
    // world was never shrunk); set only by the shrink-family repairs.
    let mut members: Option<Vec<usize>> = None;
    // Cumulative dead under the shrink-family policies, original ranks.
    let mut deferred: Vec<usize> = Vec::new();
    // Grids dropped for good under `ShrinkRedistribute` (= the grids
    // broken by `deferred`).
    let mut dropped: Vec<usize> = Vec::new();

    // ---- world acquisition (original vs respawned child). ----
    let mut world: Comm;
    let mut current_step: u64;
    let mut group: Comm;

    if let Some(parent) = ctx.parent() {
        // NOTE: children never arm fault sites — a replacement re-arming
        // its predecessor's operation counters would strike again at the
        // same index, killing every successive replacement forever.
        //
        // A child attaches, takes its slot and has its data recovered all
        // inside the loop; whatever wrecks a later round, it repairs the
        // way the survivors do (the numbering is original: it exists).
        let mut arm =
            RepairArm::for_policy(pol, cfg.respawn_policy, active_slots, &mut members, true);
        let joined =
            st.reconstruct(ctx, &env, Join::Child(parent), &mut arm, None, &mut repair_timings);
        (world, (group, current_step)) = match joined {
            Ok((w, Some(rec))) => (w, rec),
            Ok((_, None)) => {
                return Err(Error::InvalidArg("[child-reconstruct] no recovery ran".into()))
            }
            // Our repair round was abandoned mid-flight; exit cleanly.
            Err(Error::Orphaned) => return Err(Error::Orphaned),
            Err(e) => return Err(Error::InvalidArg(format!("[child-reconstruct] {e}"))),
        };
    } else {
        world = ctx
            .initial_world()
            .ok_or_else(|| Error::InvalidArg("original process has no world".into()))?;
        let expected = cfg.world_size(layout.world_size());
        if world.size() != expected {
            return Err(Error::InvalidArg(format!(
                "world size {} does not match layout size {} (+ {} spares)",
                world.size(),
                layout.world_size(),
                cfg.spares
            )));
        }
        // Arm this rank's operation-site and during-recovery fault
        // triggers (step-boundary strikes stay polled in the main loop).
        // Only original ranks arm — see the child branch.
        ctx.arm_fault_sites(&cfg.plan, world.rank());
        st.take_slot(&env, world.rank());
        group = stage(build_group(ctx, &world, st.my, n_grids), "initial-split", ctx)?;
        current_step = 0;
    }

    // This rank's original identity: fixed for the whole run, used for
    // step-strike polling (world ranks shift under the shrink-family
    // policies; under respawn it equals the world rank throughout).
    let orig_rank = world.rank();

    // ---- main loop over detection segments. ----
    let dpoints = detection_points(cfg);
    let mut group_broken = false;
    // Failure events this run repaired, as seen from rank 0 (the only
    // rank guaranteed to survive every event end-to-end); indexes the
    // per-event recovery timelines.
    let mut event_idx = 0usize;
    // Reused across every gather below — the owned block is copied into
    // this buffer instead of a fresh Vec per checkpoint/combine.
    let mut block_buf: Vec<f64> = Vec::new();
    while current_step < steps {
        // ---- epoch boundary: observer tick + cooperative cancellation
        // poll. Every rank arrives here together (children join at the
        // loop top once the round that recovered them is confirmed;
        // survivors finish the repair arm of the previous iteration
        // first), so both the poll broadcast and the agree below are
        // collective. ----
        notify(cfg, &world, AppEvent::Epoch { step: current_step, steps });
        if let Some(flag) = &cfg.cancel {
            let mine = if world.rank() == 0 {
                Some(vec![flag.load(std::sync::atomic::Ordering::Relaxed) as u64])
            } else {
                None
            };
            // A failure can strike the poll broadcast itself; treat a
            // disrupted poll as "no cancel seen" and let the
            // fault-tolerant agree make the verdict uniform. The flag is
            // monotonic, so a cancel masked by a failure this epoch is
            // simply observed at the next one.
            let seen = match world.bcast(ctx, 0, mine.as_deref()) {
                Ok(v) => v[0] != 0,
                Err(e) if is_casualty(&e) => false,
                Err(e) => return Err(Error::InvalidArg(format!("[cancel-poll] {e}"))),
            };
            let mut cancel = seen;
            let _ = world.agree(ctx, &mut cancel); // fault-tolerant; AND
            if cancel {
                if world.rank() == 0 {
                    ctx.report_f64(keys::CANCELLED, 1.0);
                }
                return Err(Error::Cancelled);
            }
        }
        let dp = dpoints
            .iter()
            .copied()
            .find(|&d| d > current_step)
            .ok_or_else(|| Error::InvalidArg("detection points end at `steps`".into()))?;

        // Solve this segment. A broken group sits the stepping out (its
        // data will be recovered wholesale — or, under the shrink-family
        // policies, its grid is already dropped), but the failure
        // generator keeps firing: a planned kill strikes at its step
        // regardless of what the rank is doing, like a real SIGKILL.
        // Strikes are planned by *original* rank — world ranks shift
        // under the shrink-family policies.
        let t_solve0 = ctx.now();
        for s in current_step..dp {
            if cfg.plan.strikes(orig_rank, s) {
                ctx.die();
            }
            if group_broken {
                continue;
            }
            let Some(sv) = st.solver.as_mut() else {
                continue; // idle spare
            };
            match sv.step(ctx, &group) {
                Ok(()) => {}
                Err(e) if is_casualty(&e) => {
                    // Propagate the failure to the rest of the group:
                    // members whose halo partners are alive would
                    // otherwise wait forever on neighbours that have
                    // stopped stepping. This is exactly what
                    // `OMPI_Comm_revoke` exists for.
                    group.revoke(ctx);
                    group_broken = true;
                }
                Err(e) => return Err(e),
            }
        }
        t_solve_local += ctx.now() - t_solve0;
        current_step = dp;
        // Failures injected "at some point before the combination": a plan
        // entry at `steps` strikes right before the final detection.
        if dp == steps && cfg.plan.strikes(orig_rank, steps) {
            ctx.die();
        }

        // Detection and — if the barrier fails — reconstruction with the
        // data recovery riding its confirming round: the Fig. 3 protocol,
        // with the repair action chosen by the recovery policy.
        let mut event = Event::open(ctx);
        let mut arm =
            RepairArm::for_policy(pol, cfg.respawn_policy, active_slots, &mut members, false);
        let (w, recovered) = stage(
            st.reconstruct(ctx, &env, Join::Detect(world), &mut arm, Some(dp), &mut event.round),
            "detect-reconstruct",
            ctx,
        )?;
        world = w;
        if let Some((g, d)) = recovered {
            debug_assert_eq!(d, dp);
            group = g;
            group_broken = false;
            event.close(ctx, cfg, &world, &mut event_idx, dp, &mut repair_timings);
        } else if !event.round.failed_ranks.is_empty() {
            // Shrink-family mid-run repair: nothing was spawned. Fold the
            // new dead (original numbering) into the cumulative set, drop
            // their grids, and keep going on the survivors. Survivors of
            // a broken grid sit out — for good under shrink, until the
            // epoch batch under defer. Healthy groups keep their old
            // group communicator (its membership is untouched).
            for &r in &event.round.failed_ranks {
                if !deferred.contains(&r) {
                    deferred.push(r);
                }
            }
            deferred.sort_unstable();
            dropped = layout.broken_grids(&deferred);
            group_broken = st.my.is_some_and(|m| dropped.contains(&m.grid));
            event.close(ctx, cfg, &world, &mut event_idx, dp, &mut repair_timings);
        } else if cfg.technique == Technique::CheckpointRestart && dp < steps && !group_broken {
            // Healthy checkpoint write ("failure detection is tested prior
            // to initiating the checkpoint write"). A rank sitting out
            // (broken grid under a shrink-family policy) and the idle
            // spares skip the write.
            if let (Some(m), Some(sv)) = (st.my, st.solver.as_ref()) {
                let t0 = ctx.now();
                // The root gathers straight into the buffer the checkpoint
                // is written from.
                let mut target =
                    (group.rank() == 0).then(|| st.landing.buffer(cfg, &store, sv.level()));
                match gather_grid_into(
                    ctx,
                    &group,
                    layout.group(m.grid),
                    sv.level(),
                    sv,
                    target.as_mut(),
                ) {
                    Ok(()) => {
                        if let Some(g) = target {
                            st.landing.land(ctx, &store, m.grid, current_step, g)?;
                        }
                    }
                    Err(e) if is_casualty(&e) => {
                        // A group member died mid-checkpoint. This checkpoint
                        // is lost (recovery will fall back to an older one and
                        // recompute further); mark the group broken and let
                        // the next detection point repair.
                        if let Some(g) = target {
                            st.landing.release(g);
                        }
                        group.revoke(ctx);
                        world.revoke(ctx);
                        group_broken = true;
                    }
                    Err(e) => return Err(e),
                }
                st.t_ckpt += ctx.now() - t0;
            }
        } else if cfg.technique == Technique::BuddyCheckpoint && dp < steps && members.is_none() {
            // Healthy buddy exchange: the in-memory, diskless analogue.
            // Suspended for the rest of the run once a shrink-family
            // repair removed ranks (`members` set): the exchange is a
            // world-wide protocol keyed by original roots, and a dropped
            // grid's root may simply be gone. `members` flips identically
            // on every survivor, so the suspension is collective.
            if !group_broken {
                if let (Some(m), Some(sv)) = (st.my, st.solver.as_ref()) {
                    let t0 = ctx.now();
                    match recovery::buddy_exchange(
                        ctx,
                        &layout,
                        &world,
                        &group,
                        m,
                        sv,
                        current_step,
                        &mut st.buddy_store,
                    ) {
                        Ok(()) => {}
                        Err(e) if is_casualty(&e) => {
                            // Release any peer blocked on the dead/errored ranks.
                            world.revoke(ctx);
                            if !group.failed_ranks().is_empty() || group.is_revoked() {
                                // Our own group lost someone: sit the next segment
                                // out and let the detection point repair us.
                                group.revoke(ctx);
                                group_broken = true;
                            }
                            // Otherwise a *cross-group* buddy failed mid-exchange:
                            // our grid is intact, so skip this protection round
                            // (the buddy store keeps its previous copy) and keep
                            // stepping.
                        }
                        Err(e) => return Err(e),
                    }
                    st.t_ckpt += ctx.now() - t0;
                }
            }
        }

        // ---- the `DeferRepair` lazy batch: at the combination epoch,
        // respawn every accumulated dead in one round and run the
        // technique's data recovery with the full failed set in the round
        // that confirms them. From here on the run is indistinguishable
        // from `Respawn`. ----
        if pol == RecoveryPolicy::DeferRepair && dp == steps && !deferred.is_empty() {
            let mut event = Event::open(ctx);
            let m = members.take().unwrap_or_else(|| (0..world.size()).collect());
            let refilled = stage(
                repair_deferred(ctx, world, m, &mut deferred, cfg.respawn_policy, &mut event.round),
                "defer-epoch-repair",
                ctx,
            )?;
            let (w, recovered) = stage(
                st.reconstruct(
                    ctx,
                    &env,
                    Join::Refilled(refilled),
                    &mut RepairArm::Respawn(cfg.respawn_policy),
                    Some(steps),
                    &mut event.round,
                ),
                "defer-epoch-recovery",
                ctx,
            )?;
            world = w;
            if let Some((g, _)) = recovered {
                group = g;
            }
            group_broken = false;
            deferred.clear();
            dropped.clear();
            event.close(ctx, cfg, &world, &mut event_idx, steps, &mut repair_timings);
        }
    }

    // ---- end-of-run drain barrier: the last checkpoint may still be in
    // flight; it must land (and its un-hidden disk time must be paid)
    // before any simulated-loss restore reads the store and before the
    // store is cleared. ----
    {
        let t_drain0 = ctx.now();
        stage(st.landing.drain(ctx), "ckpt-drain-final", ctx)?;
        st.t_ckpt += ctx.now() - t_drain0;
    }
    // Every write (and any fault-injected strike on it) has landed by
    // now; tell the restart-integrity oracle which strikes really did.
    let corrupt_applied = store.corruptions_applied();
    if corrupt_applied > 0 {
        ctx.report_add(keys::CKPT_CORRUPT_APPLIED, corrupt_applied as f64);
    }

    // ---- simulated grid losses (paper Figs. 9 and 10): run the data
    // recovery path as if each listed grid had lost a process — no real
    // kill, no communicator reconstruction ("non-real (simulated)",
    // §III). ----
    if !cfg.simulated_lost_grids.is_empty() {
        let fabricated: Vec<usize> = cfg
            .simulated_lost_grids
            .iter()
            .map(|&g| {
                let info = layout.group(g);
                // Never fabricate rank 0 as failed (controller constraint).
                info.first + info.size - 1
            })
            .collect();
        debug_assert!(!fabricated.contains(&0), "rank 0 cannot be a (simulated) victim");
        // The recovery protocol is group collectives plus point-to-point
        // between grid owners; idle spares have nothing to do.
        if let (Some(m), Some(sv)) = (st.my, st.solver.as_mut()) {
            let stats = recovery::recover(
                ctx,
                cfg,
                &layout,
                &world,
                &group,
                m,
                sv,
                &store,
                &mut st.buddy_store,
                &fabricated,
                steps,
            )?;
            st.t_rec += stats.t_recovery;
        }
        for g in layout.broken_grids(&fabricated) {
            if !st.final_lost.contains(&g) {
                st.final_lost.push(g);
            }
        }
        st.final_lost.sort_unstable();
    }

    // ---- combination & measurement. ----
    // Under Alternate Combination with end-of-run losses, the final
    // combination *is* the robust combination over the survivors (the
    // "compulsory stage" whose sample also served as recovered data);
    // otherwise it is the classical Eq.-1 combination, using recovered
    // data where grids were restored.
    //
    // The whole phase runs inside a retry loop: a failure striking during
    // the combination or the final reductions revokes the comms, repairs
    // the world, re-runs data recovery for the new casualties, and
    // restarts the phase from scratch on the fresh communicators (the
    // combination is pure, so re-running it is safe).
    // (err, t_rec_max, t_ckpt_max, t_solve_max, t_end, rank_hosts, rank_grids, rank_orig)
    type CombineOutcome = (f64, f64, f64, f64, f64, Vec<f64>, Vec<f64>, Vec<f64>);
    // Under `ShrinkRedistribute` the dropped grids are lost for good:
    // fold them into the final lost set so the combination recomputes its
    // coefficients over the survivors (for *every* technique — there is
    // no restored data to combine classically).
    if pol == RecoveryPolicy::ShrinkRedistribute {
        for &g in &dropped {
            if !st.final_lost.contains(&g) {
                st.final_lost.push(g);
            }
        }
        st.final_lost.sort_unstable();
    }
    let sys = layout.system();
    let tags = TagSpace::for_layout(&layout);
    let (err, t_rec_max, t_ckpt_max, t_solve_max, t_end, rank_hosts, rank_grids, rank_orig) = loop {
        let attempt: Result<CombineOutcome> = (|| {
            let use_robust = match pol {
                // Dropped grids were never repaired: robust coefficients
                // are the only way to a solution, whatever the technique.
                RecoveryPolicy::ShrinkRedistribute => !st.final_lost.is_empty(),
                // Repaired-slot policies restored exact (CR/BC) or
                // near-exact (RC) data; only Alternate Combination's
                // end-of-run losses combine robustly.
                _ => cfg.technique == Technique::AlternateCombination && !st.final_lost.is_empty(),
            };
            let (combine_ids, combine_coeffs): (Vec<usize>, Vec<f64>) = if use_robust {
                // A level only counts as lost when *no* surviving grid
                // holds it: under the Duplicates layout a dropped
                // diagonal whose duplicate survives is still covered.
                let surviving: LevelSet = sys
                    .grids()
                    .iter()
                    .filter(|g| !st.final_lost.contains(&g.id))
                    .map(|g| g.level)
                    .collect();
                let lost_levels: Vec<LevelPair> = st
                    .final_lost
                    .iter()
                    .map(|&b| sys.grid(b).level)
                    .filter(|lv| !surviving.contains(lv))
                    .collect();
                let cmap = robust_coefficients(&sys.classical_downset(), &lost_levels, &surviving);
                // One combining grid per level, in grid-id order (the
                // diagonal precedes its duplicate, so the duplicate only
                // stands in when the diagonal is gone) — a duplicate pair
                // must not be double-counted.
                let mut ids: Vec<usize> = Vec::new();
                let mut covered: Vec<LevelPair> = Vec::new();
                for g in sys.grids() {
                    if st.final_lost.contains(&g.id)
                        || cmap.get(&g.level).copied().unwrap_or(0) == 0
                        || covered.contains(&g.level)
                    {
                        continue;
                    }
                    covered.push(g.level);
                    ids.push(g.id);
                }
                let coeffs = ids.iter().map(|&i| cmap[&sys.grid(i).level] as f64).collect();
                (ids, coeffs)
            } else {
                let ids = sys.combination_ids();
                let coeffs = ids.iter().map(|&i| sys.classical_coefficient(i) as f64).collect();
                (ids, coeffs)
            };
            // A dropped grid never combines (it is in `final_lost`), so a
            // sitting-out survivor is excluded via `combine_ids` already;
            // `group_broken` and the spare guard make the exclusion
            // explicit.
            let combining = !group_broken && st.my.is_some_and(|m| combine_ids.contains(&m.grid));
            let mut my_full: Option<Grid2> = None;
            if combining {
                let m = st.my.expect("combining rank owns a grid");
                let sv = st.solver.as_ref().expect("combining rank runs a solver");
                my_full = gather_grid(ctx, &group, layout.group(m.grid), sv.level(), sv)?;
            }
            let target = sys.min_level();
            let combined: Option<Grid2> = match cfg.combine_mode {
                CombineMode::Central => {
                    // Reference path: every leader ships its whole grid to
                    // the controller, which left-folds the combination.
                    // (Rank 0 is always original rank 0 — the members map
                    // never drops it.)
                    if let Some(g) = &my_full {
                        if world.rank() != 0 {
                            let gid = st.my.expect("combining rank owns a grid").grid;
                            send_grid(ctx, &world, 0, tags.combine + gid as i32, g)?;
                        }
                    }
                    if world.rank() == 0 {
                        let mut sources: Vec<(f64, Grid2)> = Vec::new();
                        for (&gid, &coeff) in combine_ids.iter().zip(&combine_coeffs) {
                            // Layout roots are original ranks; translate to
                            // the current world (a surviving grid's root is
                            // alive, or the grid would be in the lost set).
                            let src = current_rank_of(layout.root_of(gid), members.as_deref())
                                .ok_or_else(|| {
                                    Error::InvalidArg(format!(
                                        "combining grid {gid}'s root is not in the shrunken world"
                                    ))
                                })?;
                            let grid = if src == world.rank() {
                                // Each grid id is combined exactly once, so
                                // the gathered grid can be moved, not cloned.
                                my_full.take().expect("controller gathered its own grid")
                            } else {
                                // Every source is alive at once for the
                                // fold, so each is a grid of its own.
                                recv_grid(ctx, &world, src, tags.combine + gid as i32)?
                            };
                            sources.push((coeff, grid));
                        }
                        let terms: Vec<CombinationTerm> = sources
                            .iter()
                            .map(|(c, g)| CombinationTerm { coeff: *c, grid: g })
                            .collect();
                        let combined = combine_onto(target, &terms);
                        ctx.compute_cells((terms.len() * target.points()) as u64);
                        Some(combined)
                    } else {
                        None
                    }
                }
                CombineMode::Tree => {
                    // Binomial reduction tree over the group leaders, in
                    // combination-term order: each leader materializes its
                    // own term on the target level, then partially combined
                    // grids flow down a log-depth tree (bitwise equal to
                    // `combine_binomial` of the same ordered term list).
                    // Layout roots are original ranks; translate each to
                    // the current (possibly shrunken) world.
                    let leaders: Vec<usize> = combine_ids
                        .iter()
                        .map(|&gid| {
                            current_rank_of(layout.root_of(gid), members.as_deref()).ok_or_else(
                                || {
                                    Error::InvalidArg(format!(
                                        "combining grid {gid}'s leader is not in the shrunken world"
                                    ))
                                },
                            )
                        })
                        .collect::<Result<_>>()?;
                    let part = match my_full.take() {
                        Some(g) => {
                            let mg = st.my.expect("combining rank owns a grid").grid;
                            let k = combine_ids
                                .iter()
                                .position(|&gid| gid == mg)
                                .expect("leader's grid is a combination term");
                            let term = CombinationTerm { coeff: combine_coeffs[k], grid: &g };
                            let p = combine_onto(target, std::slice::from_ref(&term));
                            ctx.compute_cells(target.points() as u64);
                            Some(p)
                        }
                        None => None,
                    };
                    binomial_combine(
                        ctx,
                        &world,
                        &leaders,
                        0,
                        target,
                        part,
                        &mut block_buf,
                        tags.tree,
                    )?
                }
            };
            let mut err = f64::NAN;
            if world.rank() == 0 {
                let combined = combined.unwrap_or_else(|| Grid2::zeros(target));
                let t_final = tg.dt * steps as f64;
                err = l1_error_vs(&combined, cfg.problem.exact_at(t_final));
                if let Some(prefix) = &cfg.output_prefix {
                    let base = prefix.display();
                    crate::output::write_csv(&combined, format!("{base}.csv"))
                        .map_err(|e| Error::InvalidArg(format!("solution csv: {e}")))?;
                    crate::output::write_pgm(&combined, format!("{base}.pgm"))
                        .map_err(|e| Error::InvalidArg(format!("solution pgm: {e}")))?;
                }
            }
            let t_rec_max = world.allreduce_max(ctx, st.t_rec)?;
            let t_ckpt_max = world.allreduce_max(ctx, st.t_ckpt)?;
            let t_solve_max = world.allreduce_max(ctx, t_solve_local)?;
            let t_end = world.allreduce_max(ctx, ctx.now())?;
            // Final rank→host and rank→grid maps, gathered over the live
            // world so the chaos oracles can compare them with the
            // no-failure run's.
            let flatten = |o: Option<Vec<Vec<f64>>>| -> Vec<f64> {
                o.map(|v| v.into_iter().flatten().collect()).unwrap_or_default()
            };
            let hosts = flatten(world.gather(ctx, 0, &[ctx.my_host() as f64])?);
            // Idle spares report grid −1.
            let grids = flatten(world.gather(ctx, 0, &[st.my.map_or(-1.0, |m| m.grid as f64)])?);
            // The membership map, only under the policies whose contract
            // O7 checks through it — the respawn-family policies skip the
            // extra gather so their no-failure path stays bitwise
            // identical to the pre-policy code.
            let origs = if matches!(
                pol,
                RecoveryPolicy::ShrinkRedistribute | RecoveryPolicy::SpareSubstitute
            ) {
                flatten(world.gather(ctx, 0, &[orig_rank as f64])?)
            } else {
                Vec::new()
            };
            Ok((err, t_rec_max, t_ckpt_max, t_solve_max, t_end, hosts, grids, origs))
        })();
        match attempt {
            Ok(v) => break v,
            Err(Error::ProcFailed { .. }) | Err(Error::Revoked) | Err(Error::Protocol(_)) => {
                // Release peers still blocked in this attempt, repair,
                // recover the new casualties, and go again. This is a
                // failure event of its own: window and timings start here.
                // Under shrink there is no repair and no data recovery —
                // the new dead and their grids are dropped and the retry
                // runs over the smaller survivor set; healthy groups keep
                // their comms (their membership is intact).
                let shrink = pol == RecoveryPolicy::ShrinkRedistribute;
                let mut event = Event::open(ctx);
                world.revoke(ctx);
                if !shrink {
                    group.revoke(ctx);
                }
                let mut arm = RepairArm::for_policy(
                    pol,
                    cfg.respawn_policy,
                    active_slots,
                    &mut members,
                    true,
                );
                let (w, recovered) = stage(
                    st.reconstruct(
                        ctx,
                        &env,
                        Join::Detect(world),
                        &mut arm,
                        Some(steps),
                        &mut event.round,
                    ),
                    "combine-reconstruct",
                    ctx,
                )?;
                world = w;
                if let Some((g, _)) = recovered {
                    group = g;
                }
                if shrink {
                    for &r in &event.round.failed_ranks {
                        if !deferred.contains(&r) {
                            deferred.push(r);
                        }
                    }
                    deferred.sort_unstable();
                    dropped = layout.broken_grids(&deferred);
                    for &g in &dropped {
                        if !st.final_lost.contains(&g) {
                            st.final_lost.push(g);
                        }
                    }
                    st.final_lost.sort_unstable();
                    group_broken = st.my.is_some_and(|m| dropped.contains(&m.grid));
                }
                event.close(ctx, cfg, &world, &mut event_idx, steps, &mut repair_timings);
            }
            Err(e) => return Err(e),
        }
    };

    // ---- report (controller writes the blackboard). ----
    if world.rank() == 0 {
        ctx.report_f64(keys::T_TOTAL, t_end);
        ctx.report_f64(keys::T_RECOVERY, t_rec_max);
        ctx.report_f64(keys::T_CKPT, t_ckpt_max);
        ctx.report_f64(keys::T_SOLVE, t_solve_max);
        ctx.report_f64(keys::ERR_L1, err);
        ctx.report_f64(keys::T_LIST, repair_timings.t_list);
        ctx.report_f64(keys::T_RECONSTRUCT, repair_timings.t_total);
        ctx.report_f64(keys::T_SHRINK, repair_timings.t_shrink);
        ctx.report_f64(keys::T_SPAWN, repair_timings.t_spawn);
        ctx.report_f64(keys::T_MERGE, repair_timings.t_merge);
        ctx.report_f64(keys::T_AGREE, repair_timings.t_agree);
        ctx.report_f64(keys::N_FAILED, repair_timings.failed_ranks.len() as f64);
        ctx.report_f64(keys::WORLD, world.size() as f64);
        ctx.report_list(keys::RANK_HOSTS, &rank_hosts);
        ctx.report_list(keys::RANK_GRIDS, &rank_grids);
        if !rank_orig.is_empty() {
            ctx.report_list(keys::RANK_ORIG, &rank_orig);
        }
        if pol == RecoveryPolicy::ShrinkRedistribute {
            let d: Vec<f64> = dropped.iter().map(|&g| g as f64).collect();
            ctx.report_list(keys::DROPPED_GRIDS, &d);
        }
        // Best-effort cleanup of the checkpoint directory.
        let _ = store.clear();
    }
    Ok(())
}

/// Fold the grids broken by `failed` into the end-of-run lost-grid set.
fn extend_lost(final_lost: &mut Vec<usize>, layout: &ProcLayout, failed: &[usize]) {
    for g in layout.broken_grids(failed) {
        if !final_lost.contains(&g) {
            final_lost.push(g);
        }
    }
    final_lost.sort_unstable();
}

pub(crate) fn merge_timings(acc: &mut ReconstructTimings, round: &ReconstructTimings) {
    acc.t_list += round.t_list;
    acc.t_detect += round.t_detect;
    acc.t_ack += round.t_ack;
    acc.t_revoke += round.t_revoke;
    acc.t_flist += round.t_flist;
    acc.t_restore += round.t_restore;
    acc.t_shrink += round.t_shrink;
    acc.t_spawn += round.t_spawn;
    acc.t_merge += round.t_merge;
    acc.t_agree += round.t_agree;
    acc.t_split += round.t_split;
    acc.t_total += round.t_total;
    acc.rounds += round.rounds;
    for &r in &round.failed_ranks {
        if !acc.failed_ranks.contains(&r) {
            acc.failed_ranks.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_points_cr_vs_others() {
        let mut cfg = AppConfig::small(Technique::CheckpointRestart); // 32 steps, C=2
        assert_eq!(detection_points(&cfg), vec![10, 20, 30, 32]);
        cfg.technique = Technique::AlternateCombination;
        assert_eq!(detection_points(&cfg), vec![32]);
        cfg.technique = Technique::ResamplingCopying;
        assert_eq!(detection_points(&cfg), vec![32]);
    }

    #[test]
    fn detection_points_period_divides_steps() {
        let cfg = AppConfig::small(Technique::CheckpointRestart).with_checkpoints(3);
        // period = 32 / 4 = 8 → checkpoints at 8, 16, 24; end at 32.
        assert_eq!(detection_points(&cfg), vec![8, 16, 24, 32]);
    }
}
