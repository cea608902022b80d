//! The end-to-end fault-tolerant application in d dimensions — the nd
//! sibling of [`crate::app`], protocol step for protocol step.
//!
//! Solves a d-dimensional advection–diffusion (or elliptic Jacobi) problem
//! on every sub-grid of the truncated-simplex combination, suffers
//! injected process failures, detects, reconstructs, recovers with the
//! configured technique under any of the four recovery policies, combines
//! (tree or central), and measures the error against the analytic
//! solution. Results land under the same report [`crate::app::keys`] as
//! the 2D driver, so every chaos oracle and experiment harness reads both
//! paths identically.
//!
//! Differences from the 2D driver, all deliberate:
//!
//! * checkpoints are **synchronous** (the format-v3 write path has no
//!   async writer stage yet — the 2D A/B comparison already covers that
//!   axis);
//! * no CSV/PGM solution dump (`output_prefix` is 2D-only);
//! * groups decompose into slabs along the last axis, so the solver is
//!   [`DistributedSolverN`] and halo traffic is 2 sends + 2 receives per
//!   step instead of the 2D solver's 4 + 4.

use advect2d::ndproblem::{ProblemN, TimeGridN};
use sparsegrid::{
    combine_onto_nd, robust_coefficients_nd, CombinationTermN, GridN, LevelSetN, LevelVecN,
};
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::app::{
    build_group_by_color, detection_points, keys, notify, reconstruct_recovering,
    share_recovery_metadata, stage, Event, Recovered,
};
use crate::checkpoint::CheckpointStore;
use crate::config::{AppConfig, AppEvent, CombineMode, Technique};
use crate::gather::current_rank_of;
use crate::gather_nd::{
    binomial_combine_n, gather_grid_n, gather_grid_n_into, recv_grid_n, send_grid_n,
};
use crate::layout_nd::{AssignmentN, ProcLayoutN};
use crate::policy::RecoveryPolicy;
use crate::psolve_nd::DistributedSolverN;
use crate::reconstruct::{is_casualty, repair_deferred, Join, ReconstructTimings, RepairArm};
use crate::recovery_nd;
use crate::tags::TagSpace;

/// Split the world into per-grid groups (spares take the overflow colour).
fn build_group_n(ctx: &Ctx, world: &Comm, my: Option<AssignmentN>, n_grids: usize) -> Result<Comm> {
    build_group_by_color(ctx, world, my.map(|m| m.grid), n_grids)
}

/// What every data-recovery attempt of a run reads but never changes.
struct EnvN<'a> {
    cfg: &'a AppConfig,
    layout: &'a ProcLayoutN,
    store: &'a CheckpointStore,
    problem: &'a ProblemN,
    dt: f64,
}

/// This rank's share of what a repair can rewrite — the nd twin of the 2D
/// driver's `RankState` (checkpoints are synchronous here, so there is no
/// writer stage to drain).
#[derive(Default)]
struct RankStateN {
    /// `None` on the idle spare tail under `SpareSubstitute`.
    my: Option<AssignmentN>,
    solver: Option<DistributedSolverN>,
    buddy_store: recovery_nd::BuddyStoreN,
    final_lost: Vec<usize>,
    end_failed: Vec<usize>,
    t_rec: f64,
    t_ckpt: f64,
}

impl RankStateN {
    /// Take the grid slot of `world_rank` (none on the spare tail),
    /// rebuilding the solver if the slot changed (a respawned child, a
    /// promoted spare); the data recovery that follows restores its state.
    fn take_slot(&mut self, env: &EnvN<'_>, world_rank: usize) {
        let new = env.layout.try_assignment(world_rank);
        if new != self.my {
            self.my = new;
            self.solver = new.map(|m| {
                DistributedSolverN::new(
                    env.problem.clone(),
                    &env.layout.system().grid(m.grid).level,
                    env.dt,
                    env.layout.group(m.grid),
                    m.local,
                )
                .with_kernel(env.cfg.kernel)
            });
        }
    }

    /// One data-recovery attempt on the `world` being confirmed: learn
    /// what failed, rebuild the group communicators, run the technique's
    /// recovery. Idempotent, so a later round may re-run it.
    fn attempt(
        &mut self,
        ctx: &Ctx,
        env: &EnvN<'_>,
        world: &Comm,
        dp: Option<u64>,
        timings: &mut ReconstructTimings,
    ) -> Result<Recovered> {
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
        let group = build_group_n(ctx, world, self.my, n_grids)?;
        let t_res0 = ctx.now();
        let recovered = match (self.my, self.solver.as_mut()) {
            (Some(m), Some(sv)) => recovery_nd::recover_n(
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
            _ => Ok(crate::recovery::RecoveryStats::default()),
        };
        timings.t_restore += ctx.now() - t_res0;
        match recovered {
            Ok(stats) => Ok(Recovered { at_step, group, t_recovery: stats.t_recovery, failed }),
            Err(e) => {
                if is_casualty(&e) {
                    group.revoke(ctx);
                }
                Err(e)
            }
        }
    }

    /// The Fig. 3 loop with this rank's data recovery riding its
    /// confirming rounds; books what the confirming barrier committed.
    fn reconstruct(
        &mut self,
        ctx: &Ctx,
        env: &EnvN<'_>,
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

    fn commit(&mut self, env: &EnvN<'_>, rec: Recovered) -> (Comm, u64) {
        self.t_rec += rec.t_recovery;
        if rec.at_step == env.cfg.steps() {
            extend_lost_n(&mut self.final_lost, env.layout, &rec.failed);
            self.end_failed = rec.failed;
        }
        (rec.group, rec.at_step)
    }
}

/// Execute the d-dimensional fault-tolerant application on this rank.
/// Same entry contract as [`crate::app::run_app`]; dispatched from there
/// when `cfg.dim >= 3`.
pub fn run_app_nd(cfg: &AppConfig, ctx: &mut Ctx) {
    match run_app_nd_inner(cfg, ctx) {
        Ok(()) => {}
        Err(Error::Orphaned) => {}
        Err(Error::Cancelled) => {}
        Err(e) => panic!("ftsg nd application failed: {e}"),
    }
}

fn run_app_nd_inner(cfg: &AppConfig, ctx: &mut Ctx) -> Result<()> {
    // Satellite bugfix boundary: user-supplied (dim, n, l) triples that
    // would panic inside `truncated_simplex` surface as config errors.
    cfg.validate().map_err(Error::InvalidArg)?;
    let problem = cfg.resolved_problem_nd();
    let layout = ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let steps = cfg.steps();
    let tg = TimeGridN::for_system(&problem, cfg.n, steps, 0.4);
    let store = CheckpointStore::new(&cfg.ckpt_dir)
        .map_err(|e| Error::InvalidArg(format!("checkpoint dir: {e}")))?
        .with_corruption(cfg.ckpt_corruption.clone());
    let env = EnvN { cfg, layout: &layout, store: &store, problem: &problem, dt: tg.dt };
    let mut st = RankStateN::default();

    let mut repair_timings = ReconstructTimings::default();
    let mut t_solve_local = 0.0_f64;

    // ---- policy state. ----
    let pol = cfg.recovery_policy;
    let active_slots = layout.world_size();
    let n_grids = layout.system().grids().len();
    let mut members: Option<Vec<usize>> = None;
    let mut deferred: Vec<usize> = Vec::new();
    let mut dropped: Vec<usize> = Vec::new();

    // ---- world acquisition (original vs respawned child). ----
    let mut world: Comm;
    let mut current_step: u64;
    let mut group: Comm;

    if let Some(parent) = ctx.parent() {
        // A child attaches, takes its slot and has its data recovered all
        // inside the loop, repairing later rounds the way survivors do.
        let mut arm =
            RepairArm::for_policy(pol, cfg.respawn_policy, active_slots, &mut members, true);
        let joined =
            st.reconstruct(ctx, &env, Join::Child(parent), &mut arm, None, &mut repair_timings);
        (world, (group, current_step)) = match joined {
            Ok((w, Some(rec))) => (w, rec),
            Ok((_, None)) => {
                return Err(Error::InvalidArg("[child-reconstruct] no recovery ran".into()))
            }
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
        ctx.arm_fault_sites(&cfg.plan, world.rank());
        st.take_slot(&env, world.rank());
        group = stage(build_group_n(ctx, &world, st.my, n_grids), "initial-split", ctx)?;
        current_step = 0;
    }

    let orig_rank = world.rank();

    // ---- main loop over detection segments. ----
    let dpoints = detection_points(cfg);
    let mut group_broken = false;
    let mut event_idx = 0usize;
    let mut block_buf: Vec<f64> = Vec::new();
    // A CR group root's checkpoint buffer: gathered into and written from
    // every round, allocated by the first.
    let mut ckpt_grid: Option<GridN> = None;
    while current_step < steps {
        notify(cfg, &world, AppEvent::Epoch { step: current_step, steps });
        if let Some(flag) = &cfg.cancel {
            let mine = if world.rank() == 0 {
                Some(vec![flag.load(std::sync::atomic::Ordering::Relaxed) as u64])
            } else {
                None
            };
            let seen = match world.bcast(ctx, 0, mine.as_deref()) {
                Ok(v) => v[0] != 0,
                Err(e) if is_casualty(&e) => false,
                Err(e) => return Err(Error::InvalidArg(format!("[cancel-poll] {e}"))),
            };
            let mut cancel = seen;
            let _ = world.agree(ctx, &mut cancel);
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

        // Solve this segment; planned kills strike by original rank.
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
                    group.revoke(ctx);
                    group_broken = true;
                }
                Err(e) => return Err(e),
            }
        }
        t_solve_local += ctx.now() - t_solve0;
        current_step = dp;
        if dp == steps && cfg.plan.strikes(orig_rank, steps) {
            ctx.die();
        }

        // Detection + reconstruction with the data recovery riding its
        // confirming round (Fig. 3 protocol, policy-directed).
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
            // Shrink-family mid-run repair: drop the dead and their grids.
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
            // Healthy synchronous checkpoint write (v3 format).
            if let (Some(m), Some(sv)) = (st.my, st.solver.as_ref()) {
                let t0 = ctx.now();
                let mut target = (group.rank() == 0)
                    .then(|| ckpt_grid.get_or_insert_with(|| GridN::zeros(sv.level())));
                match gather_grid_n_into(
                    ctx,
                    &group,
                    layout.group(m.grid),
                    sv.level(),
                    sv,
                    target.as_deref_mut(),
                ) {
                    Ok(()) => {
                        if let Some(g) = target {
                            let bytes = store
                                .write_nd(m.grid, current_step, g)
                                .map_err(|e| Error::InvalidArg(format!("checkpoint write: {e}")))?;
                            ctx.disk_write(bytes);
                        }
                    }
                    Err(e) if is_casualty(&e) => {
                        group.revoke(ctx);
                        world.revoke(ctx);
                        group_broken = true;
                    }
                    Err(e) => return Err(e),
                }
                st.t_ckpt += ctx.now() - t0;
            }
        } else if cfg.technique == Technique::BuddyCheckpoint && dp < steps && members.is_none() {
            // Healthy buddy exchange (suspended after any shrink repair).
            if !group_broken {
                if let (Some(m), Some(sv)) = (st.my, st.solver.as_ref()) {
                    let t0 = ctx.now();
                    match recovery_nd::buddy_exchange_n(
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
                            world.revoke(ctx);
                            if !group.failed_ranks().is_empty() || group.is_revoked() {
                                group.revoke(ctx);
                                group_broken = true;
                            }
                        }
                        Err(e) => return Err(e),
                    }
                    st.t_ckpt += ctx.now() - t0;
                }
            }
        }

        // ---- the `DeferRepair` epoch batch. ----
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

    // Synchronous writes all landed inline; report applied strikes.
    let corrupt_applied = store.corruptions_applied();
    if corrupt_applied > 0 {
        ctx.report_add(keys::CKPT_CORRUPT_APPLIED, corrupt_applied as f64);
    }

    // ---- simulated grid losses (paper Figs. 9 and 10, now in 3D). ----
    if !cfg.simulated_lost_grids.is_empty() {
        let fabricated: Vec<usize> = cfg
            .simulated_lost_grids
            .iter()
            .map(|&g| {
                let info = layout.group(g);
                info.first + info.size - 1
            })
            .collect();
        debug_assert!(!fabricated.contains(&0), "rank 0 cannot be a (simulated) victim");
        if let (Some(m), Some(sv)) = (st.my, st.solver.as_mut()) {
            let stats = recovery_nd::recover_n(
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

    // ---- combination & measurement (retry loop, same commit discipline
    // as the 2D driver). ----
    type CombineOutcome = (f64, f64, f64, f64, f64, Vec<f64>, Vec<f64>, Vec<f64>);
    if pol == RecoveryPolicy::ShrinkRedistribute {
        for &g in &dropped {
            if !st.final_lost.contains(&g) {
                st.final_lost.push(g);
            }
        }
        st.final_lost.sort_unstable();
    }
    let sys = layout.system();
    let tags = TagSpace::for_layout_nd(&layout);
    let (err, t_rec_max, t_ckpt_max, t_solve_max, t_end, rank_hosts, rank_grids, rank_orig) = loop {
        let attempt: Result<CombineOutcome> = (|| {
            let use_robust = match pol {
                RecoveryPolicy::ShrinkRedistribute => !st.final_lost.is_empty(),
                _ => cfg.technique == Technique::AlternateCombination && !st.final_lost.is_empty(),
            };
            let (combine_ids, combine_coeffs): (Vec<usize>, Vec<f64>) = if use_robust {
                let mut surviving = LevelSetN::new(sys.dim());
                for g in sys.grids().iter().filter(|g| !st.final_lost.contains(&g.id)) {
                    surviving.insert(g.level.clone());
                }
                let lost_levels: Vec<LevelVecN> = st
                    .final_lost
                    .iter()
                    .map(|&b| sys.grid(b).level.clone())
                    .filter(|lv| !surviving.contains(lv))
                    .collect();
                let cmap =
                    robust_coefficients_nd(&sys.classical_downset(), &lost_levels, &surviving);
                let mut ids: Vec<usize> = Vec::new();
                let mut covered: Vec<LevelVecN> = Vec::new();
                for g in sys.grids() {
                    if st.final_lost.contains(&g.id)
                        || cmap.get(&g.level).copied().unwrap_or(0) == 0
                        || covered.contains(&g.level)
                    {
                        continue;
                    }
                    covered.push(g.level.clone());
                    ids.push(g.id);
                }
                let coeffs = ids.iter().map(|&i| cmap[&sys.grid(i).level] as f64).collect();
                (ids, coeffs)
            } else {
                let ids = sys.combination_ids();
                let coeffs = ids.iter().map(|&i| sys.classical_coefficient(i) as f64).collect();
                (ids, coeffs)
            };
            let combining = !group_broken && st.my.is_some_and(|m| combine_ids.contains(&m.grid));
            let mut my_full: Option<GridN> = None;
            if combining {
                let m = st.my.expect("combining rank owns a grid");
                let sv = st.solver.as_ref().expect("combining rank runs a solver");
                my_full = gather_grid_n(ctx, &group, layout.group(m.grid), sv.level(), sv)?;
            }
            let target = sys.min_level();
            let combined: Option<GridN> = match cfg.combine_mode {
                CombineMode::Central => {
                    if let Some(g) = &my_full {
                        if world.rank() != 0 {
                            let gid = st.my.expect("combining rank owns a grid").grid;
                            send_grid_n(ctx, &world, 0, tags.combine + gid as i32, g)?;
                        }
                    }
                    if world.rank() == 0 {
                        let mut sources: Vec<(f64, GridN)> = Vec::new();
                        for (&gid, &coeff) in combine_ids.iter().zip(&combine_coeffs) {
                            let src = current_rank_of(layout.root_of(gid), members.as_deref())
                                .ok_or_else(|| {
                                    Error::InvalidArg(format!(
                                        "combining grid {gid}'s root is not in the shrunken world"
                                    ))
                                })?;
                            let grid = if src == world.rank() {
                                my_full.take().expect("controller gathered its own grid")
                            } else {
                                recv_grid_n(ctx, &world, src, tags.combine + gid as i32)?
                            };
                            sources.push((coeff, grid));
                        }
                        let terms: Vec<CombinationTermN> = sources
                            .iter()
                            .map(|(c, g)| CombinationTermN { coeff: *c, grid: g })
                            .collect();
                        let combined = combine_onto_nd(&target, &terms);
                        ctx.compute_cells((terms.len() * combined.values().len()) as u64);
                        Some(combined)
                    } else {
                        None
                    }
                }
                CombineMode::Tree => {
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
                            let term = CombinationTermN { coeff: combine_coeffs[k], grid: &g };
                            let p = combine_onto_nd(&target, std::slice::from_ref(&term));
                            ctx.compute_cells(p.values().len() as u64);
                            Some(p)
                        }
                        None => None,
                    };
                    binomial_combine_n(
                        ctx,
                        &world,
                        &leaders,
                        0,
                        &target,
                        part,
                        &mut block_buf,
                        tags.tree,
                    )?
                }
            };
            let mut err = f64::NAN;
            if world.rank() == 0 {
                let combined = combined.unwrap_or_else(|| GridN::zeros(&target));
                let t_final = tg.dt * steps as f64;
                let p = problem.clone();
                err = combined.l1_error_vs(move |x| p.exact(x, t_final));
            }
            let t_rec_max = world.allreduce_max(ctx, st.t_rec)?;
            let t_ckpt_max = world.allreduce_max(ctx, st.t_ckpt)?;
            let t_solve_max = world.allreduce_max(ctx, t_solve_local)?;
            let t_end = world.allreduce_max(ctx, ctx.now())?;
            let flatten = |o: Option<Vec<Vec<f64>>>| -> Vec<f64> {
                o.map(|v| v.into_iter().flatten().collect()).unwrap_or_default()
            };
            let hosts = flatten(world.gather(ctx, 0, &[ctx.my_host() as f64])?);
            let grids = flatten(world.gather(ctx, 0, &[st.my.map_or(-1.0, |m| m.grid as f64)])?);
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
                // A failure event of its own: repair and recover the new
                // casualties — under shrink, drop them and their grids —
                // and go again (see the 2D driver).
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
        let _ = store.clear();
    }
    Ok(())
}

/// Fold the grids broken by `failed` into the end-of-run lost-grid set.
fn extend_lost_n(final_lost: &mut Vec<usize>, layout: &ProcLayoutN, failed: &[usize]) {
    for g in layout.broken_grids(failed) {
        if !final_lost.contains(&g) {
            final_lost.push(g);
        }
    }
    final_lost.sort_unstable();
}
