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

use crate::app::{build_group_by_color, detection_points, keys, merge_timings, notify, stage};
use crate::checkpoint::CheckpointStore;
use crate::config::{AppConfig, AppEvent, CombineMode, Technique};
use crate::gather::current_rank_of;
use crate::gather_nd::{
    binomial_combine_n, gather_grid_n, gather_grid_n_into, recv_grid_n, send_grid_n,
};
use crate::layout_nd::{AssignmentN, ProcLayoutN};
use crate::policy::RecoveryPolicy;
use crate::psolve_nd::DistributedSolverN;
use crate::reconstruct::{
    communicator_reconstruct_shrink, communicator_reconstruct_substitute,
    communicator_reconstruct_with, deferred_epoch_repair, detect_and_repair, ReconstructTimings,
};
use crate::recovery_nd;
use crate::tags::TagSpace;
use crate::timeline::build_timeline;

/// Gather this rank's sub-grid to its group root (staging the owned slab
/// through the shared buffer) into a grid that passes to the caller.
fn gather_own_grid_n(
    ctx: &Ctx,
    group: &Comm,
    layout: &ProcLayoutN,
    my: AssignmentN,
    solver: &DistributedSolverN,
    block_buf: &mut Vec<f64>,
) -> Result<Option<GridN>> {
    solver.local_block_into(block_buf);
    gather_grid_n(ctx, group, layout.group(my.grid), solver.level(), block_buf)
}

/// Split the world into per-grid groups (spares take the overflow colour).
fn build_group_n(ctx: &Ctx, world: &Comm, my: Option<AssignmentN>, n_grids: usize) -> Result<Comm> {
    build_group_by_color(ctx, world, my.map(|m| m.grid), n_grids)
}

/// Re-derive this rank's slot after a `SpareSubstitute` promote split.
fn refresh_slot_n(
    cfg: &AppConfig,
    layout: &ProcLayoutN,
    world: &Comm,
    problem: &ProblemN,
    dt: f64,
    my: &mut Option<AssignmentN>,
    solver: &mut Option<DistributedSolverN>,
) {
    if cfg.recovery_policy != RecoveryPolicy::SpareSubstitute {
        return;
    }
    let new = layout.try_assignment(world.rank());
    if new != *my {
        *my = new;
        *solver = new.map(|m| {
            DistributedSolverN::new(
                problem.clone(),
                &layout.system().grid(m.grid).level,
                dt,
                layout.group(m.grid),
                m.local,
            )
            .with_kernel(cfg.kernel)
        });
    }
}

/// Post-reconstruction recovery with the commit protocol of
/// [`crate::app`]: attempt → fault-tolerant agree → on failure repair and
/// retry with the enlarged failed-rank list. Recovery is idempotent.
#[allow(clippy::too_many_arguments)]
fn recover_with_commit_n(
    ctx: &Ctx,
    cfg: &AppConfig,
    layout: &ProcLayoutN,
    mut world: Comm,
    my: &mut Option<AssignmentN>,
    solver: &mut Option<DistributedSolverN>,
    problem: &ProblemN,
    dt: f64,
    store: &CheckpointStore,
    buddy_store: &mut recovery_nd::BuddyStoreN,
    mut known: Option<(u64, Vec<usize>)>,
    timings: &mut ReconstructTimings,
) -> Result<(Comm, u64, Comm, f64, Vec<usize>)> {
    let n_grids = layout.system().grids().len();
    loop {
        let _scope = ctx.recovery_scope();
        let mut group_attempt: Option<Comm> = None;
        let attempt: Result<(u64, f64, Vec<usize>)> = (|| {
            let meta: Option<Vec<u64>> = if world.rank() == 0 {
                let Some((d, failed)) = known.clone() else {
                    return Err(Error::InvalidArg(
                        "recovery metadata missing on the controller rank".into(),
                    ));
                };
                let mut v = vec![d];
                v.extend(failed.iter().map(|&r| r as u64));
                Some(v)
            } else {
                None
            };
            let meta = world.bcast(ctx, 0, meta.as_deref())?;
            let at_step = meta[0];
            let failed: Vec<usize> = meta[1..].iter().map(|&r| r as usize).collect();
            let group = &*group_attempt.insert(build_group_n(ctx, &world, *my, n_grids)?);
            let t_res0 = ctx.now();
            let recovered = match (*my, solver.as_mut()) {
                (Some(m), Some(sv)) => recovery_nd::recover_n(
                    ctx,
                    cfg,
                    layout,
                    &world,
                    group,
                    m,
                    sv,
                    store,
                    buddy_store,
                    &failed,
                    at_step,
                ),
                _ => Ok(crate::recovery::RecoveryStats::default()),
            };
            timings.t_restore += ctx.now() - t_res0;
            let stats = recovered?;
            Ok((at_step, stats.t_recovery, failed))
        })();
        let ok = match &attempt {
            Ok(_) => true,
            Err(Error::ProcFailed { .. }) | Err(Error::Revoked) => false,
            Err(e) => return Err(e.clone()),
        };
        if !ok {
            world.revoke(ctx);
            if let Some(g) = &group_attempt {
                g.revoke(ctx);
            }
        }
        let t_ack0 = ctx.now();
        world.failure_ack(ctx);
        timings.t_ack += ctx.now() - t_ack0;
        let mut flag = ok;
        let t_agree0 = ctx.now();
        let _ = world.agree(ctx, &mut flag);
        timings.t_agree += ctx.now() - t_agree0;
        if flag {
            if let (Ok((at_step, trec, failed)), Some(group)) = (attempt, group_attempt) {
                return Ok((world, at_step, group, trec, failed));
            }
        }
        let mut round = ReconstructTimings::default();
        world = match cfg.recovery_policy {
            RecoveryPolicy::SpareSubstitute => communicator_reconstruct_substitute(
                ctx,
                world,
                layout.world_size(),
                cfg.respawn_policy,
                &mut round,
            )?,
            _ => communicator_reconstruct_with(
                ctx,
                Some(world),
                None,
                cfg.respawn_policy,
                &mut round,
            )?,
        };
        refresh_slot_n(cfg, layout, &world, problem, dt, my, solver);
        if let Some((_, failed)) = known.as_mut() {
            for &r in &round.failed_ranks {
                if !failed.contains(&r) {
                    failed.push(r);
                }
            }
            failed.sort_unstable();
        }
        merge_timings(timings, &round);
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

    let child = ctx.is_spawned();
    let mut repair_timings = ReconstructTimings::default();
    let mut buddy_store: recovery_nd::BuddyStoreN = Default::default();
    let mut final_lost: Vec<usize> = Vec::new();
    let mut end_failed: Vec<usize> = Vec::new();
    let mut t_rec_local = 0.0_f64;
    let mut t_ckpt_local = 0.0_f64;
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
    let mut my: Option<AssignmentN>;
    let mut solver: Option<DistributedSolverN>;
    let mut group: Comm;

    let new_solver = |m: AssignmentN| {
        DistributedSolverN::new(
            problem.clone(),
            &layout.system().grid(m.grid).level,
            tg.dt,
            layout.group(m.grid),
            m.local,
        )
        .with_kernel(cfg.kernel)
    };

    if child {
        let parent = ctx.parent().expect("spawned process has a parent intercommunicator");
        world = match communicator_reconstruct_with(
            ctx,
            None,
            Some(parent),
            cfg.respawn_policy,
            &mut repair_timings,
        ) {
            Ok(w) => w,
            Err(Error::Orphaned) => return Err(Error::Orphaned),
            Err(e) => return Err(Error::InvalidArg(format!("[child-reconstruct] {e}"))),
        };
        my = Some(layout.assignment(world.rank()));
        solver = my.map(new_solver);
        let (w, d, g, trec, failed) = stage(
            recover_with_commit_n(
                ctx,
                cfg,
                &layout,
                world,
                &mut my,
                &mut solver,
                &problem,
                tg.dt,
                &store,
                &mut buddy_store,
                None,
                &mut repair_timings,
            ),
            "child-post-recovery",
            ctx,
        )?;
        world = w;
        group = g;
        current_step = d;
        t_rec_local += trec;
        if d == steps {
            extend_lost_n(&mut final_lost, &layout, &failed);
            end_failed = failed;
        }
    } else {
        world = ctx.initial_world().expect("original process has a world");
        let expected = cfg.world_size(layout.world_size());
        if world.size() != expected {
            return Err(Error::InvalidArg(format!(
                "world size {} does not match layout size {} (+ {} spares)",
                world.size(),
                layout.world_size(),
                cfg.spares
            )));
        }
        my = layout.try_assignment(world.rank());
        ctx.arm_fault_sites(&cfg.plan, world.rank());
        solver = my.map(new_solver);
        group = stage(build_group_n(ctx, &world, my, n_grids), "initial-split", ctx)?;
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
                Err(Error::ProcFailed { .. }) | Err(Error::Revoked) => false,
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
            .expect("detection points end at `steps`");

        // Solve this segment; planned kills strike by original rank.
        let t_solve0 = ctx.now();
        for s in current_step..dp {
            if cfg.plan.strikes(orig_rank, s) {
                ctx.die();
            }
            if group_broken {
                continue;
            }
            let Some(sv) = solver.as_mut() else {
                continue; // idle spare
            };
            match sv.step(ctx, &group) {
                Ok(()) => {}
                Err(Error::ProcFailed { .. }) | Err(Error::Revoked) => {
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

        // Detection + reconstruction (Fig. 3 protocol, policy-directed).
        let t_event0 = ctx.now();
        let mut round = ReconstructTimings::default();
        world = stage(
            detect_and_repair(
                ctx,
                world,
                pol,
                cfg.respawn_policy,
                active_slots,
                &mut members,
                &mut round,
            ),
            "detect-reconstruct",
            ctx,
        )?;
        let repaired = !round.failed_ranks.is_empty();
        if repaired && pol.shrinks_mid_run() {
            for &r in &round.failed_ranks {
                if !deferred.contains(&r) {
                    deferred.push(r);
                }
            }
            deferred.sort_unstable();
            dropped = layout.broken_grids(&deferred);
            group_broken = my.is_some_and(|m| dropped.contains(&m.grid));
            if world.rank() == 0 {
                ctx.report_timeline(build_timeline(event_idx, dp, t_event0, ctx.now(), &round));
            }
            event_idx += 1;
            merge_timings(&mut repair_timings, &round);
            notify(cfg, &world, AppEvent::Recovered { step: dp, ranks: round.failed_ranks.len() });
        } else if repaired {
            let mut known_failed = round.failed_ranks.clone();
            if world.rank() == 0 && dp == steps {
                for &r in &end_failed {
                    if !known_failed.contains(&r) {
                        known_failed.push(r);
                    }
                }
                known_failed.sort_unstable();
            }
            refresh_slot_n(cfg, &layout, &world, &problem, tg.dt, &mut my, &mut solver);
            let known = Some((dp, known_failed));
            let (w, d, g, trec, failed) = stage(
                recover_with_commit_n(
                    ctx,
                    cfg,
                    &layout,
                    world,
                    &mut my,
                    &mut solver,
                    &problem,
                    tg.dt,
                    &store,
                    &mut buddy_store,
                    known,
                    &mut round,
                ),
                "post-recovery",
                ctx,
            )?;
            debug_assert_eq!(d, dp);
            world = w;
            group = g;
            t_rec_local += trec;
            group_broken = false;
            if world.rank() == 0 {
                ctx.report_timeline(build_timeline(event_idx, dp, t_event0, ctx.now(), &round));
            }
            event_idx += 1;
            merge_timings(&mut repair_timings, &round);
            notify(cfg, &world, AppEvent::Recovered { step: dp, ranks: round.failed_ranks.len() });
            if d == steps {
                extend_lost_n(&mut final_lost, &layout, &failed);
                end_failed = failed;
            }
        } else if cfg.technique == Technique::CheckpointRestart && dp < steps && !group_broken {
            // Healthy synchronous checkpoint write (v3 format).
            if let (Some(m), Some(sv)) = (my, solver.as_ref()) {
                let t0 = ctx.now();
                let mut target = (group.rank() == 0)
                    .then(|| ckpt_grid.get_or_insert_with(|| GridN::zeros(sv.level())));
                sv.local_block_into(&mut block_buf);
                match gather_grid_n_into(
                    ctx,
                    &group,
                    layout.group(m.grid),
                    sv.level(),
                    &block_buf,
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
                    Err(Error::ProcFailed { .. }) | Err(Error::Revoked) => {
                        group.revoke(ctx);
                        world.revoke(ctx);
                        group_broken = true;
                    }
                    Err(e) => return Err(e),
                }
                t_ckpt_local += ctx.now() - t0;
            }
        } else if cfg.technique == Technique::BuddyCheckpoint && dp < steps && members.is_none() {
            // Healthy buddy exchange (suspended after any shrink repair).
            if !group_broken {
                if let (Some(m), Some(sv)) = (my, solver.as_ref()) {
                    let t0 = ctx.now();
                    match recovery_nd::buddy_exchange_n(
                        ctx,
                        &layout,
                        &world,
                        &group,
                        m,
                        sv,
                        current_step,
                        &mut buddy_store,
                    ) {
                        Ok(()) => {}
                        Err(Error::ProcFailed { .. }) | Err(Error::Revoked) => {
                            world.revoke(ctx);
                            if !group.failed_ranks().is_empty() || group.is_revoked() {
                                group.revoke(ctx);
                                group_broken = true;
                            }
                        }
                        Err(e) => return Err(e),
                    }
                    t_ckpt_local += ctx.now() - t0;
                }
            }
        }

        // ---- the `DeferRepair` epoch batch. ----
        if pol == RecoveryPolicy::DeferRepair && dp == steps && !deferred.is_empty() {
            let t_event0 = ctx.now();
            let mut round = ReconstructTimings::default();
            let m = members.take().unwrap_or_else(|| (0..world.size()).collect());
            world = stage(
                deferred_epoch_repair(ctx, world, m, &mut deferred, cfg.respawn_policy, &mut round),
                "defer-epoch-repair",
                ctx,
            )?;
            let mut known_failed = round.failed_ranks.clone();
            if world.rank() == 0 {
                for &r in &end_failed {
                    if !known_failed.contains(&r) {
                        known_failed.push(r);
                    }
                }
                known_failed.sort_unstable();
            }
            let (w, d, g, trec, failed) = stage(
                recover_with_commit_n(
                    ctx,
                    cfg,
                    &layout,
                    world,
                    &mut my,
                    &mut solver,
                    &problem,
                    tg.dt,
                    &store,
                    &mut buddy_store,
                    Some((steps, known_failed)),
                    &mut round,
                ),
                "defer-epoch-recovery",
                ctx,
            )?;
            debug_assert_eq!(d, steps);
            world = w;
            group = g;
            t_rec_local += trec;
            group_broken = false;
            deferred.clear();
            dropped.clear();
            if world.rank() == 0 {
                ctx.report_timeline(build_timeline(event_idx, steps, t_event0, ctx.now(), &round));
            }
            event_idx += 1;
            merge_timings(&mut repair_timings, &round);
            notify(
                cfg,
                &world,
                AppEvent::Recovered { step: steps, ranks: round.failed_ranks.len() },
            );
            extend_lost_n(&mut final_lost, &layout, &failed);
            end_failed = failed;
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
        if let (Some(m), Some(sv)) = (my, solver.as_mut()) {
            let stats = recovery_nd::recover_n(
                ctx,
                cfg,
                &layout,
                &world,
                &group,
                m,
                sv,
                &store,
                &mut buddy_store,
                &fabricated,
                steps,
            )?;
            t_rec_local += stats.t_recovery;
        }
        for g in layout.broken_grids(&fabricated) {
            if !final_lost.contains(&g) {
                final_lost.push(g);
            }
        }
        final_lost.sort_unstable();
    }

    // ---- combination & measurement (retry loop, same commit discipline
    // as the 2D driver). ----
    type CombineOutcome = (f64, f64, f64, f64, f64, Vec<f64>, Vec<f64>, Vec<f64>);
    if pol == RecoveryPolicy::ShrinkRedistribute {
        for &g in &dropped {
            if !final_lost.contains(&g) {
                final_lost.push(g);
            }
        }
        final_lost.sort_unstable();
    }
    let sys = layout.system();
    let tags = TagSpace::for_layout_nd(&layout);
    let (err, t_rec_max, t_ckpt_max, t_solve_max, t_end, rank_hosts, rank_grids, rank_orig) = loop {
        let attempt: Result<CombineOutcome> = (|| {
            let use_robust = match pol {
                RecoveryPolicy::ShrinkRedistribute => !final_lost.is_empty(),
                _ => cfg.technique == Technique::AlternateCombination && !final_lost.is_empty(),
            };
            let (combine_ids, combine_coeffs): (Vec<usize>, Vec<f64>) = if use_robust {
                let mut surviving = LevelSetN::new(sys.dim());
                for g in sys.grids().iter().filter(|g| !final_lost.contains(&g.id)) {
                    surviving.insert(g.level.clone());
                }
                let lost_levels: Vec<LevelVecN> = final_lost
                    .iter()
                    .map(|&b| sys.grid(b).level.clone())
                    .filter(|lv| !surviving.contains(lv))
                    .collect();
                let cmap =
                    robust_coefficients_nd(&sys.classical_downset(), &lost_levels, &surviving);
                let mut ids: Vec<usize> = Vec::new();
                let mut covered: Vec<LevelVecN> = Vec::new();
                for g in sys.grids() {
                    if final_lost.contains(&g.id)
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
            let combining = !group_broken && my.is_some_and(|m| combine_ids.contains(&m.grid));
            let mut my_full: Option<GridN> = None;
            if combining {
                let m = my.expect("combining rank owns a grid");
                let sv = solver.as_ref().expect("combining rank runs a solver");
                my_full = gather_own_grid_n(ctx, &group, &layout, m, sv, &mut block_buf)?;
            }
            let target = sys.min_level();
            let combined: Option<GridN> = match cfg.combine_mode {
                CombineMode::Central => {
                    if let Some(g) = &my_full {
                        if world.rank() != 0 {
                            let gid = my.expect("combining rank owns a grid").grid;
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
                            let mg = my.expect("combining rank owns a grid").grid;
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
            let t_rec_max = world.allreduce_max(ctx, t_rec_local)?;
            let t_ckpt_max = world.allreduce_max(ctx, t_ckpt_local)?;
            let t_solve_max = world.allreduce_max(ctx, t_solve_local)?;
            let t_end = world.allreduce_max(ctx, ctx.now())?;
            let flatten = |o: Option<Vec<Vec<f64>>>| -> Vec<f64> {
                o.map(|v| v.into_iter().flatten().collect()).unwrap_or_default()
            };
            let hosts = flatten(world.gather(ctx, 0, &[ctx.my_host() as f64])?);
            let grids = flatten(world.gather(ctx, 0, &[my.map_or(-1.0, |m| m.grid as f64)])?);
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
            Err(Error::ProcFailed { .. }) | Err(Error::Revoked) | Err(Error::Protocol(_))
                if pol == RecoveryPolicy::ShrinkRedistribute =>
            {
                let t_event0 = ctx.now();
                world.revoke(ctx);
                let mut round = ReconstructTimings::default();
                world = stage(
                    communicator_reconstruct_shrink(ctx, world, &mut members, &mut round),
                    "combine-shrink",
                    ctx,
                )?;
                for &r in &round.failed_ranks {
                    if !deferred.contains(&r) {
                        deferred.push(r);
                    }
                }
                deferred.sort_unstable();
                dropped = layout.broken_grids(&deferred);
                for &g in &dropped {
                    if !final_lost.contains(&g) {
                        final_lost.push(g);
                    }
                }
                final_lost.sort_unstable();
                group_broken = my.is_some_and(|m| dropped.contains(&m.grid));
                if world.rank() == 0 {
                    ctx.report_timeline(build_timeline(
                        event_idx,
                        steps,
                        t_event0,
                        ctx.now(),
                        &round,
                    ));
                }
                event_idx += 1;
                merge_timings(&mut repair_timings, &round);
                notify(
                    cfg,
                    &world,
                    AppEvent::Recovered { step: steps, ranks: round.failed_ranks.len() },
                );
            }
            Err(Error::ProcFailed { .. }) | Err(Error::Revoked) | Err(Error::Protocol(_)) => {
                let t_event0 = ctx.now();
                world.revoke(ctx);
                group.revoke(ctx);
                let mut round = ReconstructTimings::default();
                world = stage(
                    match pol {
                        RecoveryPolicy::SpareSubstitute => communicator_reconstruct_substitute(
                            ctx,
                            world,
                            active_slots,
                            cfg.respawn_policy,
                            &mut round,
                        ),
                        _ => communicator_reconstruct_with(
                            ctx,
                            Some(world),
                            None,
                            cfg.respawn_policy,
                            &mut round,
                        ),
                    },
                    "combine-reconstruct",
                    ctx,
                )?;
                refresh_slot_n(cfg, &layout, &world, &problem, tg.dt, &mut my, &mut solver);
                let mut known_failed = round.failed_ranks.clone();
                for &r in &end_failed {
                    if !known_failed.contains(&r) {
                        known_failed.push(r);
                    }
                }
                known_failed.sort_unstable();
                let (w, d, g, trec, failed) = stage(
                    recover_with_commit_n(
                        ctx,
                        cfg,
                        &layout,
                        world,
                        &mut my,
                        &mut solver,
                        &problem,
                        tg.dt,
                        &store,
                        &mut buddy_store,
                        Some((steps, known_failed)),
                        &mut round,
                    ),
                    "combine-recovery",
                    ctx,
                )?;
                debug_assert_eq!(d, steps);
                world = w;
                group = g;
                t_rec_local += trec;
                if world.rank() == 0 {
                    ctx.report_timeline(build_timeline(
                        event_idx,
                        steps,
                        t_event0,
                        ctx.now(),
                        &round,
                    ));
                }
                event_idx += 1;
                merge_timings(&mut repair_timings, &round);
                notify(
                    cfg,
                    &world,
                    AppEvent::Recovered { step: steps, ranks: round.failed_ranks.len() },
                );
                extend_lost_n(&mut final_lost, &layout, &failed);
                end_failed = failed;
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
