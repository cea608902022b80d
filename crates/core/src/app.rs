//! The end-to-end fault-tolerant application (§II): solve the advection
//! equation on every sub-grid for `2^k` timesteps, suffer injected
//! process failures, detect them, reconstruct the world communicator at
//! its original size and rank order, recover the lost sub-grid data with
//! the configured technique, combine, and measure the error against the
//! analytic solution.
//!
//! One driver serves every dimension: [`run_app`] dispatches once, by
//! `cfg.dim`, to the generic `run` over the 2D stack ([`D2`]) or the
//! d-dimensional one ([`Nd`]); what differs between them is the
//! [`Stack`] trait. Results land under the same [`keys`] either way.
//!
//! Every rank — original or respawned — executes [`run_app`]; respawned
//! children are routed through the child branch of the reconstruction
//! protocol exactly as a re-executed `main()` would be in the paper's MPI
//! code.

use std::borrow::Cow;

use sparsegrid::ComponentGrid;
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::{AppConfig, AppEvent, Technique};
use crate::gather::{binomial_combine, current_rank_of};
use crate::landing::Landing;
use crate::policy::RecoveryPolicy;
use crate::reconstruct::{
    confirm, is_casualty, reconstruct, repair_deferred, union_shared, Attempt, Join,
    ReconstructTimings, RepairArm,
};
use crate::recovery::{self, buddy_exchange, BuddyStore, RecoveryStats};
use crate::stack::{Env, Nd, Stack, D2};
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
    /// completed checkpoint file, summed over ranks. A planned strike
    /// misses when its write never lands (a kill before it, or a later
    /// checkpoint or the recovery barrier superseding it on the virtual
    /// clock); the O6 oracle only demands a reported skip when this key
    /// shows the damage truly reached the disk.
    pub const CKPT_CORRUPT_APPLIED: &str = "ckpt_corrupt_applied";
    /// Checkpoint snapshots superseded before their asynchronous write
    /// started (never charged, never written; see `ckpt_async`), summed
    /// over group roots and reported at each drain. Absent when none was.
    pub const CKPT_SUPERSEDED: &str = "ckpt_superseded";
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

/// The first detection point after `step` (which must be below
/// `steps`). The points are, under periodic protection, every multiple of
/// the checkpoint period below `steps`, and `steps` itself; otherwise just
/// the end ("the 2D-advection solver is run for 2^13 timesteps at which
/// point failure detection is tested", §III).
fn next_detection_point(cfg: &AppConfig, step: u64) -> u64 {
    let steps = cfg.steps();
    if !cfg.technique.has_periodic_protection() {
        return steps;
    }
    let p = cfg.ckpt_period();
    (step / p + 1).saturating_mul(p).min(steps)
}

/// Split the world into per-grid groups. Idle spare ranks (`grid` is
/// `None`, `SpareSubstitute` only) take the colour one past the last grid
/// so they land in a group of their own and the split stays collective.
fn build_group(ctx: &Ctx, world: &Comm, grid: Option<usize>, n_grids: usize) -> Result<Comm> {
    let color = grid.map_or(n_grids as i64, |g| g as i64);
    world
        .split(ctx, Some(color), world.rank() as i64)?
        .ok_or_else(|| Error::InvalidArg("every rank belongs to a grid group".into()))
}

/// What a committed data-recovery attempt leaves behind on this rank.
struct Recovered {
    /// The detection step the data came back at.
    at_step: u64,
    /// The per-grid group communicator over the confirmed world.
    group: Comm,
    /// What the data recovery did on this rank.
    stats: RecoveryStats,
    /// The failed-rank list the recovery used (rank 0's broadcast).
    failed: Vec<usize>,
}

/// First collective of a data-recovery attempt: rank 0 tells everyone —
/// respawned children know nothing — the detection step `dp` and the ranks
/// to recover: this event's casualties so far, plus (at the final step)
/// the earlier end-of-run casualties, so that late-spawned children derive
/// the same lost-grid set as the survivors.
fn share_recovery_metadata(
    ctx: &Ctx,
    world: &Comm,
    dp: Option<u64>,
    steps: u64,
    event_failed: &[usize],
    end_failed: &[usize],
) -> Result<(u64, Vec<usize>)> {
    let meta: Option<Vec<usize>> = if world.rank() == 0 {
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
        // [step, failed ranks ascending...]: a `usize` travels as a `u64`.
        let mut v = vec![d as usize];
        v.extend_from_slice(event_failed);
        if d == steps {
            v.extend(end_failed.iter().filter(|r| !event_failed.contains(r)));
        }
        v[1..].sort_unstable();
        Some(v)
    } else {
        None
    };
    // The received message becomes the failed list in place.
    let mut failed = world.bcast(ctx, 0, meta.as_deref())?;
    if failed.is_empty() {
        return Err(Error::Protocol("recovery metadata without a detection step".into()));
    }
    let at_step = failed.remove(0) as u64;
    Ok((at_step, failed))
}

/// The ULFM operations the per-event audit counts (`ulfm_sim::OP_NAMES`
/// spellings), each reported under the key `ops_<name>`.
pub const AUDITED_OPS: [&str; 7] =
    ["agree", "intercomm_agree", "shrink", "spawn_multiple", "intercomm_merge", "split", "barrier"];

/// One failure event as rank 0 books it: where its window and its
/// operation counts started, and what the repair loop timed.
struct Event {
    t_start: f64,
    ops_start: [u64; AUDITED_OPS.len()],
    /// This event's timings only (detection, reconstruction and the data
    /// recovery riding its confirming round).
    round: ReconstructTimings,
}

impl Event {
    fn open(ctx: &Ctx) -> Self {
        Event {
            t_start: ctx.now(),
            ops_start: AUDITED_OPS.map(|op| ctx.op_count(op)),
            round: ReconstructTimings::default(),
        }
    }

    /// The repaired world is confirmed: rank 0 reports the event's
    /// timeline and how many of each audited operation it made (one list
    /// entry per event), everyone folds its timings into the run's.
    fn close(
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

/// This rank's share of what a repair can rewrite: its grid slot, the
/// solver on it, the protection data it holds, and the casualty lists the
/// final combination needs.
struct RankState<S: Stack> {
    /// `None` on the idle spare tail under `SpareSubstitute`.
    my: Option<S::Assignment>,
    /// `Some` exactly when `my` is.
    solver: Option<S::Solver>,
    /// Where every whole grid this rank assembles or receives lands
    /// (under CR with `ckpt_async`, a group root's checkpoint stage too).
    landing: Landing<S>,
    /// In-memory buddy checkpoints this rank holds for partner grids
    /// (Buddy Checkpoint only; respawned ranks start empty).
    buddy_store: BuddyStore<S>,
    /// Grids that lost data at the *final* detection point; the Alternate
    /// Combination's final solution is the robust combination over the
    /// survivors ("all the surviving sub-grids, including those on the
    /// extra layers, are assigned new coefficients for the combination").
    final_lost: Vec<usize>,
    /// Ranks that failed at the *final* detection step (or later, during
    /// the combination), accumulated across failure events.
    end_failed: Vec<usize>,
    /// The last robust solve of an Alternate Combination recovery: the
    /// lost set it was solved for and the coefficients by grid id. The
    /// combination reuses them when that set is `final_lost`.
    robust: Option<(Vec<usize>, Vec<i64>)>,
    t_rec: f64,
    t_ckpt: f64,
}

impl<S: Stack> RankState<S> {
    fn new() -> Self {
        RankState {
            my: None,
            solver: None,
            landing: Landing::default(),
            buddy_store: BuddyStore::<S>::new(),
            final_lost: Vec::new(),
            end_failed: Vec::new(),
            robust: None,
            t_rec: 0.0,
            t_ckpt: 0.0,
        }
    }

    /// This rank's grid id (none on the spare tail).
    fn grid(&self) -> Option<usize> {
        self.my.map(S::grid_of)
    }

    /// Take the grid slot of `world_rank` (none on the spare tail),
    /// rebuilding the solver if the slot changed: a respawned child takes
    /// its slot for the first time, a promote split may have moved a spare
    /// into a failed slot (or, on the spawn fallback, back out). The data
    /// recovery that follows restores the solver's state. No other repair
    /// ever moves a surviving rank, so elsewhere this changes nothing.
    fn take_slot(&mut self, env: &Env<'_, S>, world_rank: usize) {
        let new = S::assignment(env.layout, world_rank);
        if new != self.my {
            self.my = new;
            self.solver = new.map(|m| S::solver(env, m));
        }
    }

    /// One data-recovery attempt on the `world` being confirmed: drain the
    /// in-flight checkpoints, learn what failed, rebuild the per-grid
    /// group communicators, and run the technique's data recovery.
    /// Idempotent (restore + recompute), so a later round may re-run it.
    fn attempt(
        &mut self,
        ctx: &Ctx,
        env: &Env<'_, S>,
        world: &Comm,
        dp: Option<u64>,
        timings: &mut ReconstructTimings,
    ) -> Result<Recovered> {
        // Recovery barrier: the async checkpoint in flight must land before
        // any restore reads the store (counted as checkpoint time — it is
        // the write's exposed tail). A queued snapshot is superseded, not
        // waited for: the restore reads the one in flight and recomputes
        // the steps between the two.
        if let Some(store) = env.store {
            let t_drain0 = ctx.now();
            stage(self.landing.drain(ctx, store), "ckpt-drain")?;
            self.t_ckpt += ctx.now() - t_drain0;
        }
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
        let group = build_group(ctx, world, self.grid(), S::n_grids(env.layout))?;
        // Even a failed attempt spent restore time — attribute it.
        let t_res0 = ctx.now();
        let recovered = self.recover(ctx, env, world, &group, &failed, at_step);
        timings.t_restore += ctx.now() - t_res0;
        match recovered {
            Ok(stats) => Ok(Recovered { at_step, group, stats, failed }),
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

    /// The technique's recovery of the grids `failed` broke. Idle spares
    /// hold no grid data: they skip it (group collectives plus
    /// point-to-point between grid owners) and just keep the world
    /// collectives around it company, learning only which grids broke.
    fn recover(
        &mut self,
        ctx: &Ctx,
        env: &Env<'_, S>,
        world: &Comm,
        group: &Comm,
        failed: &[usize],
        at_step: u64,
    ) -> Result<RecoveryStats> {
        let broken = S::broken_grids(env.layout, failed);
        let (Some(m), Some(sv)) = (self.my, self.solver.as_mut()) else {
            return Ok(RecoveryStats { recovered_grids: broken, ..RecoveryStats::default() });
        };
        let (my, landing, bs) = (S::grid_of(m), &mut self.landing, &mut self.buddy_store);
        recovery::recover::<S>(ctx, env, world, group, my, sv, landing, bs, broken, at_step)
    }

    /// Fold a recovery at the final step into the final combination's lost
    /// set, keeping the robust coefficients it solved (Alternate
    /// Combination) for the combination to reuse.
    fn lose_at_end(&mut self, stats: RecoveryStats) {
        union_into(&mut self.final_lost, &stats.recovered_grids);
        if let Some(coeffs) = stats.robust {
            self.robust = Some((stats.recovered_grids, coeffs));
        }
    }

    /// Run the Fig. 3 loop — `enter` starts it, as a child or on a world
    /// in place — with this rank's data recovery riding its confirming
    /// rounds, and book what the confirming barrier committed: returns what
    /// `enter` returned and, if any round ran an attempt, the new group
    /// communicator and the step the data came back at.
    fn reconstruct<T>(
        &mut self,
        env: &Env<'_, S>,
        arm: &mut RepairArm<'_>,
        dp: Option<u64>,
        timings: &mut ReconstructTimings,
        enter: impl FnOnce(
            &mut RepairArm<'_>,
            Option<Attempt<'_>>,
            &mut ReconstructTimings,
        ) -> Result<T>,
    ) -> Result<(T, Option<(Comm, u64)>)> {
        // What the attempt of the confirmed round recovered: `None` when
        // no round ran one (nothing failed, or the arm only shrinks and so
        // refills nothing to recover).
        let mut last: Option<Recovered> = None;
        let mut run = |ctx: &Ctx, world: &Comm, tm: &mut ReconstructTimings| {
            last = None;
            last = Some(self.attempt(ctx, env, world, dp, tm)?);
            Ok(())
        };
        let riding: Option<Attempt<'_>> =
            if matches!(arm, RepairArm::Shrink(_)) { None } else { Some(&mut run) };
        let entered = enter(arm, riding, timings)?;
        Ok((entered, self.commit(env, last)))
    }

    /// Book the attempt the confirming barrier committed, if one ran. Out
    /// of line, so that the recovered state is not copied through the
    /// frame the repair loop runs on.
    #[inline(never)]
    fn commit(&mut self, env: &Env<'_, S>, last: Option<Recovered>) -> Option<(Comm, u64)> {
        let rec = last?;
        self.t_rec += rec.stats.t_recovery;
        if rec.at_step == env.cfg.steps() {
            self.lose_at_end(rec.stats);
            self.end_failed = rec.failed;
        }
        Some((rec.group, rec.at_step))
    }
}

/// Execute the fault-tolerant application on this rank. Panics (recording
/// an app error in the run report) on unrecoverable protocol failures;
/// deposits results under [`keys`] via the rank-0 controller.
pub fn run_app(cfg: &AppConfig, ctx: &mut Ctx) {
    let ran = if cfg.dim >= 3 { run::<Nd>(cfg, ctx) } else { run::<D2>(cfg, ctx) };
    match ran {
        Ok(()) => {}
        // A respawned child whose repair round was abandoned by a further
        // failure: its successor is already being spawned by the
        // survivors' restarted recovery loop; exiting quietly is the
        // correct behaviour, not an error.
        Err(Error::Orphaned) => {}
        Err(e) => panic!("ftsg application failed: {e}"),
    }
}

/// Emit a live observer event from rank 0 (a no-op on other ranks and
/// without an observer configured).
fn notify(cfg: &AppConfig, world: &Comm, ev: AppEvent) {
    if world.rank() == 0 {
        if let Some(obs) = &cfg.observer {
            obs.emit(ev);
        }
    }
}

/// Attach a protocol-stage label to an error so an unrecoverable failure
/// reports *where* in the application flow it happened.
fn stage<T>(r: Result<T>, which: &str) -> Result<T> {
    r.map_err(|e| match e {
        Error::InvalidArg(msg) => Error::InvalidArg(format!("[{which}] {msg}")),
        other => Error::InvalidArg(format!("[{which}] {other}")),
    })
}

/// The driver's bookkeeping between its phases, besides this rank's
/// [`RankState`] and its two communicators (which `drive` holds and
/// the phases that repair replace in place).
struct Progress {
    /// This rank's original identity: fixed for the whole run, used for
    /// step-strike polling (world ranks shift under the shrink-family
    /// policies; under respawn it equals the world rank throughout).
    orig_rank: usize,
    /// This rank's group sits the stepping out: it lost data that the next
    /// detection point recovers, or (shrink family) its grid was dropped.
    group_broken: bool,
    /// Current world rank → original rank. `None` means the identity (the
    /// world was never shrunk); set only by the shrink-family repairs.
    members: Option<Vec<usize>>,
    /// Cumulative dead under the shrink-family policies, original ranks.
    deferred: Vec<usize>,
    /// Grids dropped for good under `ShrinkRedistribute` (= the grids
    /// broken by `deferred`).
    dropped: Vec<usize>,
    /// The run's repair timings, every failure event folded in.
    timings: ReconstructTimings,
    /// Failure events this run repaired, as seen from rank 0 (the only
    /// rank guaranteed to survive every event end-to-end); indexes the
    /// per-event recovery timelines.
    events: usize,
    /// This rank's time in the stepping.
    t_solve: f64,
}

/// What the combination phase hands the report: the combined solution's
/// error (rank 0) and the run-wide reductions and maps.
struct Combined {
    err: f64,
    t_rec_max: f64,
    t_ckpt_max: f64,
    t_solve_max: f64,
    t_end: f64,
    rank_hosts: Vec<f64>,
    rank_grids: Vec<f64>,
    rank_orig: Vec<f64>,
}

/// The driver, once for every [`Stack`]: set-up, world acquisition, the
/// segment loop with detection and repair, the combination, the report.
/// The phases are kept out of line so that the frames under a repair hold
/// loop state only: how deep the repair path reaches is how many stack
/// pages every simulated rank keeps resident.
#[inline(never)]
fn run<S: Stack>(cfg: &AppConfig, ctx: &mut Ctx) -> Result<()> {
    let (layout, problem, dt) = S::setup(cfg)?;
    let store = open_store(cfg)?;
    let env = Env::<S> { cfg, layout: &layout, problem: &problem, store: store.as_ref(), dt };
    let mut st = RankState::<S>::new();
    let mut p = Progress {
        orig_rank: 0,
        group_broken: false,
        members: None,
        deferred: Vec::new(),
        dropped: Vec::new(),
        timings: ReconstructTimings::default(),
        events: 0,
        t_solve: 0.0,
    };
    drive(ctx, &env, &mut st, &mut p)
}

/// Only Checkpoint/Restart writes to disk; every other technique runs
/// without a store, and without creating its directory.
#[inline(never)]
fn open_store(cfg: &AppConfig) -> Result<Option<CheckpointStore>> {
    Ok(match cfg.technique {
        Technique::CheckpointRestart => Some(
            CheckpointStore::new(&cfg.ckpt_dir)
                .map_err(|e| Error::InvalidArg(format!("checkpoint dir: {e}")))?
                .with_corruption(cfg.ckpt_corruption.clone()),
        ),
        _ => None,
    })
}

/// World acquisition, for an original rank or a respawned child. Returns
/// the world, this rank's group and the first step to solve.
#[inline(never)]
fn acquire_world<S: Stack>(
    ctx: &mut Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
) -> Result<(Comm, Comm, u64)> {
    let cfg = env.cfg;
    // Grid-owning world prefix `W`; ranks `>= active_slots` are idle
    // spares (`SpareSubstitute` only).
    let active_slots = S::world_size(env.layout);
    if let Some(parent) = ctx.parent() {
        // NOTE: children never arm fault sites — a replacement re-arming
        // its predecessor's operation counters would strike again at the
        // same index, killing every successive replacement forever.
        //
        // A child attaches, takes its slot and has its data recovered all
        // inside the loop; whatever wrecks a later round, it repairs the
        // way the survivors do (the numbering is original: it exists).
        let (pol, respawn) = (cfg.recovery_policy, cfg.respawn_policy);
        let mut arm = RepairArm::for_policy(pol, respawn, active_slots, &mut p.members, true);
        let ctx: &Ctx = ctx;
        let joined = st.reconstruct(env, &mut arm, None, &mut p.timings, |arm, riding, tm| {
            reconstruct(ctx, Join::Child(parent), arm, riding, tm)
        });
        return match joined {
            Ok((world, Some((group, step)))) => Ok((world, group, step)),
            Ok((_, None)) => Err(Error::InvalidArg("[child-reconstruct] no recovery ran".into())),
            // Our repair round was abandoned mid-flight; exit cleanly.
            Err(Error::Orphaned) => Err(Error::Orphaned),
            Err(e) => Err(Error::InvalidArg(format!("[child-reconstruct] {e}"))),
        };
    }
    let world = ctx
        .initial_world()
        .ok_or_else(|| Error::InvalidArg("original process has no world".into()))?;
    if world.size() != cfg.world_size(active_slots) {
        return Err(Error::InvalidArg(format!(
            "world size {} does not match layout size {active_slots} (+ {} spares)",
            world.size(),
            cfg.spares
        )));
    }
    // Arm this rank's operation-site and during-recovery fault triggers
    // (step-boundary strikes stay polled in the main loop). Only original
    // ranks arm — see the child branch.
    ctx.arm_fault_sites(&cfg.plan, world.rank());
    st.take_slot(env, world.rank());
    let group = build_group(ctx, &world, st.grid(), S::n_grids(env.layout));
    Ok((world, stage(group, "initial-split")?, 0))
}

/// World acquisition, then the main loop over detection segments: solve a
/// segment, detect, and — if the barrier fails — reconstruct with the data
/// recovery riding the confirming round (the Fig. 3 protocol, with the
/// repair action chosen by the recovery policy); else protect the data.
/// Then the combination and the report, on the world and the group the
/// loop ends with.
#[inline(never)]
fn drive<S: Stack>(
    ctx: &mut Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
) -> Result<()> {
    let (mut world, mut group, mut step) = acquire_world(ctx, env, st, p)?;
    p.orig_rank = world.rank();

    let ctx: &Ctx = ctx;
    let (cfg, steps) = (env.cfg, env.cfg.steps());
    while step < steps {
        // ---- epoch boundary: observer tick (rank 0 only; no operation). ----
        notify(cfg, &world, AppEvent::Epoch { step, steps });
        let dp = next_detection_point(cfg, step);
        solve(ctx, env, st, p, &group, step..dp)?;
        step = dp;
        // Failures injected "at some point before the combination": a plan
        // entry at `steps` strikes right before the final detection.
        if dp == steps && cfg.plan.strikes(p.orig_rank, steps) {
            ctx.die();
        }

        let healthy = detect(ctx, env, st, p, &mut world, &mut group, dp)?;
        if healthy && dp < steps {
            protect(ctx, env, st, p, &world, &group, dp)?;
        }

        if cfg.recovery_policy == RecoveryPolicy::DeferRepair
            && dp == steps
            && !p.deferred.is_empty()
        {
            world = repair_epoch(ctx, env, st, p, world, &mut group)?;
        }
    }
    finish(ctx, env, st, p, world, group)
}

/// Detection at step `dp` and — if the barrier fails — reconstruction
/// with the data recovery riding its confirming round, on `world` in
/// place. Returns whether the world was healthy: nothing failed, so the
/// data may be protected.
#[inline(never)]
fn detect<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
    world: &mut Comm,
    group: &mut Comm,
    dp: u64,
) -> Result<bool> {
    let cfg = env.cfg;
    let mut event = Event::open(ctx);
    let active_slots = S::world_size(env.layout);
    let (pol, respawn) = (cfg.recovery_policy, cfg.respawn_policy);
    let mut arm = RepairArm::for_policy(pol, respawn, active_slots, &mut p.members, false);
    let ((), recovered) = stage(
        st.reconstruct(env, &mut arm, Some(dp), &mut event.round, |arm, riding, tm| {
            confirm(ctx, world, false, ctx.now(), arm, riding, tm)
        }),
        "detect-reconstruct",
    )?;
    if let Some((g, d)) = recovered {
        debug_assert_eq!(d, dp);
        *group = g;
        p.group_broken = false;
    } else if !event.round.failed_ranks.is_empty() {
        // Shrink-family mid-run repair: nothing was spawned. Fold the new
        // dead (original numbering) into the cumulative set, drop their
        // grids, and keep going on the survivors. Survivors of a broken
        // grid sit out — for good under shrink, until the epoch batch
        // under defer. Healthy groups keep their old group communicator
        // (its membership is untouched).
        union_into(&mut p.deferred, &event.round.failed_ranks);
        p.dropped = S::broken_grids(env.layout, &p.deferred);
        p.group_broken = st.grid().is_some_and(|g| p.dropped.contains(&g));
    } else {
        return Ok(true);
    }
    event.close(ctx, cfg, world, &mut p.events, dp, &mut p.timings);
    Ok(false)
}

/// Solve the steps `range` of a segment. A broken group sits the stepping
/// out (its data will be recovered wholesale — or, under the shrink-family
/// policies, its grid is already dropped), but the failure generator keeps
/// firing: a planned kill strikes at its step regardless of what the rank
/// is doing, like a real SIGKILL. Strikes are planned by *original* rank —
/// world ranks shift under the shrink-family policies.
#[inline(never)]
fn solve<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
    group: &Comm,
    range: std::ops::Range<u64>,
) -> Result<()> {
    let t_solve0 = ctx.now();
    for s in range {
        if env.cfg.plan.strikes(p.orig_rank, s) {
            ctx.die();
        }
        if p.group_broken {
            continue;
        }
        let Some(sv) = st.solver.as_mut() else {
            continue; // idle spare
        };
        match S::step(sv, ctx, group) {
            Ok(()) => {}
            Err(e) if is_casualty(&e) => {
                // Propagate the failure to the rest of the group: members
                // whose halo partners are alive would otherwise wait
                // forever on neighbours that have stopped stepping. This
                // is exactly what `OMPI_Comm_revoke` exists for.
                group.revoke(ctx);
                p.group_broken = true;
            }
            Err(e) => return Err(e),
        }
    }
    p.t_solve += ctx.now() - t_solve0;
    Ok(())
}

/// Protect the data at a healthy detection point before the last: the
/// checkpoint write (CR) or the buddy exchange (BC). The other techniques
/// keep no copy.
#[inline(never)]
fn protect<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
    world: &Comm,
    group: &Comm,
    step: u64,
) -> Result<()> {
    let cfg = env.cfg;
    if cfg.technique == Technique::CheckpointRestart && !p.group_broken {
        // Healthy checkpoint write ("failure detection is tested prior to
        // initiating the checkpoint write"). A rank sitting out (broken
        // grid under a shrink-family policy) and the idle spares skip the
        // write.
        if let (Some(m), Some(sv)) = (st.my, st.solver.as_ref()) {
            let t0 = ctx.now();
            let (m, store) = (S::grid_of(m), env.checkpoints()?);
            match st.landing.checkpoint(ctx, cfg, store, group, env.layout, m, sv, step) {
                Ok(()) => {}
                Err(e) if is_casualty(&e) => {
                    // A group member died mid-checkpoint. This checkpoint
                    // is lost (recovery will fall back to an older one and
                    // recompute further); mark the group broken and let the
                    // next detection point repair.
                    group.revoke(ctx);
                    world.revoke(ctx);
                    p.group_broken = true;
                }
                Err(e) => return Err(e),
            }
            st.t_ckpt += ctx.now() - t0;
        }
    } else if cfg.technique == Technique::BuddyCheckpoint && p.members.is_none() {
        // Healthy buddy exchange: the in-memory, diskless analogue.
        // Suspended for the rest of the run once a shrink-family repair
        // removed ranks (`members` set): the exchange is a world-wide
        // protocol keyed by original roots, and a dropped grid's root may
        // simply be gone. `members` flips identically on every survivor,
        // so the suspension is collective.
        if let (false, Some(m), Some(sv)) = (p.group_broken, st.my, st.solver.as_ref()) {
            let t0 = ctx.now();
            let (m, layout) = (S::grid_of(m), env.layout);
            let (landing, bs) = (&mut st.landing, &mut st.buddy_store);
            match buddy_exchange::<S>(ctx, layout, world, group, m, sv, step, landing, bs) {
                Ok(()) => {}
                Err(e) if is_casualty(&e) => {
                    // Release any peer blocked on the dead/errored ranks.
                    world.revoke(ctx);
                    if !group.failed_ranks().is_empty() || group.is_revoked() {
                        // Our own group lost someone: sit the next segment
                        // out and let the detection point repair us.
                        group.revoke(ctx);
                        p.group_broken = true;
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
    Ok(())
}

/// The `DeferRepair` lazy batch: at the combination epoch, respawn every
/// accumulated dead in one round and run the technique's data recovery
/// with the full failed set in the round that confirms them. From here on
/// the run is indistinguishable from `Respawn`. Returns the repaired world.
#[inline(never)]
fn repair_epoch<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
    world: Comm,
    group: &mut Comm,
) -> Result<Comm> {
    let (cfg, steps) = (env.cfg, env.cfg.steps());
    let mut event = Event::open(ctx);
    let m = p.members.take().unwrap_or_else(|| (0..world.size()).collect());
    let respawn = cfg.respawn_policy;
    let refilled = stage(
        repair_deferred(ctx, world, m, &mut p.deferred, respawn, &mut event.round),
        "defer-epoch-repair",
    )?;
    let (mut world, mut arm) = (refilled, RepairArm::Respawn(respawn));
    let ((), recovered) = stage(
        st.reconstruct(env, &mut arm, Some(steps), &mut event.round, |arm, riding, tm| {
            confirm(ctx, &mut world, true, ctx.now(), arm, riding, tm)
        }),
        "defer-epoch-recovery",
    )?;
    if let Some((g, _)) = recovered {
        *group = g;
    }
    p.group_broken = false;
    p.deferred.clear();
    p.dropped.clear();
    event.close(ctx, cfg, &world, &mut p.events, steps, &mut p.timings);
    Ok(world)
}

/// Everything after the last segment: the end-of-run drain, the
/// combination and the report.
#[inline(never)]
fn finish<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
    mut world: Comm,
    mut group: Comm,
) -> Result<()> {
    settle(ctx, env, st, &world, &group)?;
    let combined = combine(ctx, env, st, p, &mut world, &mut group)?;
    report(ctx, env, p, &world, &combined);
    Ok(())
}

/// After the last segment: the end-of-run drain, the corruption tally and
/// the simulated grid losses.
#[inline(never)]
fn settle<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    world: &Comm,
    group: &Comm,
) -> Result<()> {
    // ---- end-of-run drain barrier: the write in flight must land (and
    // its un-hidden disk time must be paid) before the store is cleared
    // or the simulated-loss restore below reads it. A queued snapshot
    // whose write has not started is superseded, unwritten and
    // uncharged. ----
    if let Some(store) = env.store {
        let t_drain0 = ctx.now();
        stage(st.landing.drain(ctx, store), "ckpt-drain-final")?;
        st.t_ckpt += ctx.now() - t_drain0;
    }
    // Every write (and any fault-injected strike on it) has landed by
    // now; tell the restart-integrity oracle which strikes really did.
    let corrupt_applied = env.store.map_or(0, CheckpointStore::corruptions_applied);
    if corrupt_applied > 0 {
        ctx.report_add(keys::CKPT_CORRUPT_APPLIED, corrupt_applied as f64);
    }

    // ---- simulated grid losses (paper Figs. 9 and 10): run the data
    // recovery path as if each listed grid had lost a process — no real
    // kill, no communicator reconstruction ("non-real (simulated)",
    // §III). ----
    let lost = &env.cfg.simulated_lost_grids;
    if !lost.is_empty() {
        // Never fabricate rank 0 as failed (controller constraint).
        let fabricated: Vec<usize> = lost.iter().map(|&g| S::last_rank_of(env.layout, g)).collect();
        debug_assert!(!fabricated.contains(&0), "rank 0 cannot be a (simulated) victim");
        let stats = st.recover(ctx, env, world, group, &fabricated, env.cfg.steps())?;
        st.t_rec += stats.t_recovery;
        st.lose_at_end(stats);
    }
    Ok(())
}

/// Combination & measurement. Under Alternate Combination with end-of-run
/// losses, the final combination *is* the robust combination over the
/// survivors (the "compulsory stage" of §III-B, and the recovered
/// solution: the lost grids' solvers were never restored, and nothing
/// reads them); otherwise it is the classical Eq.-1 combination, using
/// recovered data where grids were restored.
///
/// The whole phase runs inside a retry loop: a failure striking during
/// the combination or the final reductions revokes the comms, repairs the
/// world, re-runs data recovery for the new casualties, and restarts the
/// phase from scratch on the fresh communicators (the combination is
/// pure, so re-running it is safe). `world` and `group` end as the
/// communicators the combination succeeded on.
#[inline(never)]
fn combine<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
    world: &mut Comm,
    group: &mut Comm,
) -> Result<Combined> {
    // Under `ShrinkRedistribute` the dropped grids are lost for good:
    // fold them into the final lost set so the combination recomputes its
    // coefficients over the survivors (for *every* technique — there is
    // no restored data to combine classically).
    if env.cfg.recovery_policy == RecoveryPolicy::ShrinkRedistribute {
        union_into(&mut st.final_lost, &p.dropped);
    }
    let tags = TagSpace::for_grids(S::n_grids(env.layout));
    loop {
        match combine_once(ctx, env, st, p, world, group, tags.tree) {
            Ok(combined) => return Ok(combined),
            Err(Error::ProcFailed { .. }) | Err(Error::Revoked) | Err(Error::Protocol(_)) => {
                repair_combine(ctx, env, st, p, world, group)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A failure struck the combination: release peers still blocked in the
/// attempt, repair, recover the new casualties, on `world` and `group` in
/// place. This is a failure event of its own: window and timings start
/// here. Under shrink there is no repair and no data recovery — the new
/// dead and their grids are dropped and the retry runs over the smaller
/// survivor set; healthy groups keep their comms (their membership is
/// intact).
#[inline(never)]
fn repair_combine<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &mut Progress,
    world: &mut Comm,
    group: &mut Comm,
) -> Result<()> {
    let (cfg, steps) = (env.cfg, env.cfg.steps());
    let pol = cfg.recovery_policy;
    let shrink = pol == RecoveryPolicy::ShrinkRedistribute;
    let mut event = Event::open(ctx);
    world.revoke(ctx);
    if !shrink {
        group.revoke(ctx);
    }
    let active_slots = S::world_size(env.layout);
    let mut arm =
        RepairArm::for_policy(pol, cfg.respawn_policy, active_slots, &mut p.members, true);
    let ((), recovered) = stage(
        st.reconstruct(env, &mut arm, Some(steps), &mut event.round, |arm, riding, tm| {
            confirm(ctx, world, false, ctx.now(), arm, riding, tm)
        }),
        "combine-reconstruct",
    )?;
    if let Some((g, _)) = recovered {
        *group = g;
    }
    if shrink {
        union_into(&mut p.deferred, &event.round.failed_ranks);
        p.dropped = S::broken_grids(env.layout, &p.deferred);
        union_into(&mut st.final_lost, &p.dropped);
        p.group_broken = st.grid().is_some_and(|g| p.dropped.contains(&g));
    }
    event.close(ctx, cfg, world, &mut p.events, steps, &mut p.timings);
    Ok(())
}

/// One attempt at the combination and the final reductions.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn combine_once<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    st: &mut RankState<S>,
    p: &Progress,
    world: &Comm,
    group: &Comm,
    tag: i32,
) -> Result<Combined> {
    let (cfg, layout, pol) = (env.cfg, env.layout, env.cfg.recovery_policy);
    let use_robust = match pol {
        // Dropped grids were never repaired: robust coefficients are the
        // only way to a solution, whatever the technique.
        RecoveryPolicy::ShrinkRedistribute => !st.final_lost.is_empty(),
        // Repaired-slot policies restored exact (CR/BC) or near-exact (RC)
        // data; only Alternate Combination's end-of-run losses combine
        // robustly.
        _ => cfg.technique == Technique::AlternateCombination && !st.final_lost.is_empty(),
    };
    // The robust coefficients by grid id: the recovery's own solve when it
    // was for this very lost set (under Alternate Combination's layout a
    // lost level is never covered by a survivor, so `covered` changes
    // nothing), else solved here. A level only counts as lost when *no*
    // surviving grid holds it: under the Duplicates layout a dropped
    // diagonal whose duplicate survives is still covered.
    let robust: Option<Cow<'_, [i64]>> = use_robust.then(|| match &st.robust {
        Some((lost, by_grid)) if *lost == st.final_lost => Cow::Borrowed(&by_grid[..]),
        _ => Cow::Owned(S::robust_coefficients(layout, &st.final_lost, true).0),
    });
    // The combination's terms, as grid ids in term order; a term's
    // coefficient is read off `robust` or the classical scheme.
    let combine_ids = match &robust {
        Some(by_grid) => {
            // One combining grid per level, in grid-id order (the diagonal
            // precedes its duplicate, so the duplicate only stands in when
            // the diagonal is gone) — a duplicate pair must not be
            // double-counted.
            let mut ids: Vec<usize> = Vec::with_capacity(S::n_grids(layout));
            for (g, &c) in by_grid.iter().enumerate() {
                let level = S::level(layout, g);
                if st.final_lost.contains(&g)
                    || c == 0
                    || ids.iter().any(|&i| S::level(layout, i) == level)
                {
                    continue;
                }
                ids.push(g);
            }
            ids
        }
        None => S::combination_ids(layout),
    };
    // A dropped grid never combines (it is in `final_lost`), so a
    // sitting-out survivor is excluded via `combine_ids` already;
    // `group_broken` and the spare guard make the exclusion explicit.
    let my_grid = st.grid().filter(|g| !p.group_broken && combine_ids.contains(g));
    // This rank's term: its grid and that grid's coefficient.
    let my_term = my_grid.map(|m| match &robust {
        Some(by_grid) => (m, by_grid[m] as f64),
        None => (m, S::classical_coefficient(layout, m)),
    });
    let target = S::min_level(layout);
    // Binomial reduction tree over the group leaders, in combination-term
    // order: each leader materializes its own term on the target level,
    // then partially combined grids flow down a log-depth tree (bitwise
    // equal to `combine_binomial` of the same ordered term list).
    let part = match (my_term, st.solver.as_ref()) {
        (Some((m, coeff)), Some(sv)) => st
            .landing
            .gather(ctx, group, layout, m, sv, |own| Ok(S::term(ctx, &target, coeff, own)))?,
        _ => None,
    };
    // The term list becomes the leader list in place.
    let leaders = combine_ids
        .into_iter()
        .map(|gid| current_root::<S>(layout, gid, p.members.as_deref()))
        .collect::<Result<Vec<usize>>>()?;
    let combined = binomial_combine(ctx, world, &leaders, 0, &target, part, tag)?;
    let mut err = f64::NAN;
    if world.rank() == 0 {
        let combined = combined.unwrap_or_else(|| S::Grid::zeros(&target));
        err = S::l1_error(env.problem, &combined, env.dt * cfg.steps() as f64);
        if let Some(prefix) = &cfg.output_prefix {
            S::write_solution(&combined, prefix)?;
        }
    }
    let t_rec_max = world.allreduce_max(ctx, st.t_rec)?;
    let t_ckpt_max = world.allreduce_max(ctx, st.t_ckpt)?;
    let t_solve_max = world.allreduce_max(ctx, p.t_solve)?;
    let t_end = world.allreduce_max(ctx, ctx.now())?;
    // Final rank→host and rank→grid maps, gathered over the live world so
    // the chaos oracles can compare them with the no-failure run's. The
    // root decodes the contributions straight into one list.
    let gather_scalar = |v: f64| -> Result<Vec<f64>> {
        Ok(world.gather_view(ctx, 0, &[v])?.map(|parts| parts.concat()).unwrap_or_default())
    };
    let rank_hosts = gather_scalar(ctx.my_host() as f64)?;
    // Idle spares report grid −1.
    let rank_grids = gather_scalar(st.grid().map_or(-1.0, |g| g as f64))?;
    // The membership map, only under the policies whose contract O7
    // checks through it — the respawn-family policies skip the extra
    // gather so their no-failure path stays bitwise identical to the
    // pre-policy code.
    let rank_orig =
        if matches!(pol, RecoveryPolicy::ShrinkRedistribute | RecoveryPolicy::SpareSubstitute) {
            gather_scalar(p.orig_rank as f64)?
        } else {
            Vec::new()
        };
    Ok(Combined {
        err,
        t_rec_max,
        t_ckpt_max,
        t_solve_max,
        t_end,
        rank_hosts,
        rank_grids,
        rank_orig,
    })
}

/// The report: the controller writes the blackboard.
#[inline(never)]
fn report<S: Stack>(ctx: &Ctx, env: &Env<'_, S>, p: &Progress, world: &Comm, c: &Combined) {
    if world.rank() != 0 {
        return;
    }
    let t = &p.timings;
    ctx.report_f64(keys::T_TOTAL, c.t_end);
    ctx.report_f64(keys::T_RECOVERY, c.t_rec_max);
    ctx.report_f64(keys::T_CKPT, c.t_ckpt_max);
    ctx.report_f64(keys::T_SOLVE, c.t_solve_max);
    ctx.report_f64(keys::ERR_L1, c.err);
    ctx.report_f64(keys::T_LIST, t.t_list);
    ctx.report_f64(keys::T_RECONSTRUCT, t.t_total);
    ctx.report_f64(keys::T_SHRINK, t.t_shrink);
    ctx.report_f64(keys::T_SPAWN, t.t_spawn);
    ctx.report_f64(keys::T_MERGE, t.t_merge);
    ctx.report_f64(keys::T_AGREE, t.t_agree);
    ctx.report_f64(keys::N_FAILED, t.failed_ranks.len() as f64);
    ctx.report_f64(keys::WORLD, world.size() as f64);
    ctx.report_list(keys::RANK_HOSTS, &c.rank_hosts);
    ctx.report_list(keys::RANK_GRIDS, &c.rank_grids);
    if !c.rank_orig.is_empty() {
        ctx.report_list(keys::RANK_ORIG, &c.rank_orig);
    }
    if env.cfg.recovery_policy == RecoveryPolicy::ShrinkRedistribute {
        let d: Vec<f64> = p.dropped.iter().map(|&g| g as f64).collect();
        ctx.report_list(keys::DROPPED_GRIDS, &d);
    }
    // Best-effort cleanup of the checkpoint directory, if the run had one:
    // its files, then the directory itself (`remove_dir` refuses one that
    // is not empty).
    if let Some(store) = env.store {
        let _ = store.clear();
        let _ = std::fs::remove_dir(store.dir());
    }
}

/// Add `items` to the sorted set `set` (grid ids or ranks), keeping it
/// sorted.
fn union_into(set: &mut Vec<usize>, items: &[usize]) {
    for &x in items {
        if !set.contains(&x) {
            set.push(x);
        }
    }
    set.sort_unstable();
}

/// `grid`'s root in the current world. Layout roots are original ranks
/// and `members` maps the current world to them; a combining grid's root
/// is alive, or the grid would be in the lost set.
fn current_root<S: Stack>(
    layout: &S::Layout,
    grid: usize,
    members: Option<&[usize]>,
) -> Result<usize> {
    current_rank_of(S::root_of(layout, grid), members).ok_or_else(|| {
        Error::InvalidArg(format!("combining grid {grid}'s root is not in the shrunken world"))
    })
}

fn merge_timings(acc: &mut ReconstructTimings, round: &ReconstructTimings) {
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
    union_shared(&mut acc.failed_ranks, &round.failed_ranks);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The detection points `drive` visits from step 0.
    fn detection_points(cfg: &AppConfig) -> Vec<u64> {
        let mut points = vec![next_detection_point(cfg, 0)];
        while let Some(&last) = points.last().filter(|&&p| p < cfg.steps()) {
            points.push(next_detection_point(cfg, last));
        }
        points
    }

    /// The list the points used to be built as, before epoch 0 on every
    /// rank: the reference `next_detection_point` is held to.
    fn listed_detection_points(cfg: &AppConfig) -> Vec<u64> {
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

    #[test]
    fn the_next_detection_point_is_the_listed_one_after_every_step() {
        let techniques = [
            Technique::CheckpointRestart,
            Technique::BuddyCheckpoint,
            Technique::ResamplingCopying,
            Technique::AlternateCombination,
        ];
        // 32 steps: periods 32, 16, 10, 8, 6, 5, 4, 1 — dividing `steps`
        // and not; 31 checkpoints (period 1) and more than steps (period
        // clamped to 1).
        for technique in techniques {
            for checkpoints in [0, 1, 2, 3, 4, 5, 7, 31, 40] {
                let cfg = AppConfig::small(technique).with_checkpoints(checkpoints);
                let listed = listed_detection_points(&cfg);
                assert_eq!(detection_points(&cfg), listed, "{technique:?} C={checkpoints}");
                for step in 0..cfg.steps() {
                    let want = listed.iter().copied().find(|&d| d > step).unwrap();
                    assert_eq!(
                        next_detection_point(&cfg, step),
                        want,
                        "{technique:?} C={checkpoints} step {step}"
                    );
                }
            }
        }
    }
}
