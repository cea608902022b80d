//! Data recovery for the d-dimensional application — the nd sibling of
//! [`crate::recovery`], technique for technique.
//!
//! The protocols are structurally identical to the 2D ones (whole-sub-grid
//! restore, same message choreography, same accounting): only the types
//! change — [`GridN`] payloads, [`ProcLayoutN`] slab groups, the v3
//! checkpoint format, and [`robust_coefficients_nd`] over the truncated
//! simplex for Alternate Combination. Keeping the two paths separate (not
//! generic) preserves the 2D path's bitwise fingerprints.

use sparsegrid::{
    combine_onto_nd, robust_coefficients_nd, CombinationTermN, GridN, LevelSetN, LevelVecN,
    RcSourceN,
};
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::{AppConfig, Technique};
use crate::gather_nd::{gather_grid_n, recv_grid_n, recv_grid_n_onto, scatter_grid_n, send_grid_n};
use crate::layout_nd::{AssignmentN, ProcLayoutN};
use crate::psolve_nd::DistributedSolverN;
use crate::recovery::RecoveryStats;
use crate::tags::TagSpace;

/// In-memory buddy checkpoints of d-dimensional partner grids held *by
/// this rank*: grid id → (checkpointed step, grid data).
pub type BuddyStoreN = std::collections::HashMap<usize, (u64, GridN)>;

/// The buddy of a combining grid: the next combining grid, cyclically —
/// same contract (and same non-panicking error surface) as
/// [`crate::recovery::buddy_of`].
pub fn buddy_of_n(layout: &ProcLayoutN, grid: usize) -> Result<usize> {
    let ids = layout.system().combination_ids();
    let pos = ids.iter().position(|&g| g == grid).ok_or_else(|| {
        Error::InvalidArg(format!("grid {grid} is not in the combining set {ids:?}"))
    })?;
    Ok(ids[(pos + 1) % ids.len()])
}

/// Periodic buddy exchange over d-dimensional groups. Collective over the
/// world.
#[allow(clippy::too_many_arguments)]
pub fn buddy_exchange_n(
    ctx: &Ctx,
    layout: &ProcLayoutN,
    world: &Comm,
    group: &Comm,
    my: AssignmentN,
    solver: &DistributedSolverN,
    at_step: u64,
    store: &mut BuddyStoreN,
) -> Result<()> {
    let ids = layout.system().combination_ids();
    let tags = TagSpace::for_layout_nd(layout);
    // Phase 1: every group gathers and its root sends to the buddy root.
    let full = gather_grid_n(ctx, group, layout.group(my.grid), solver.level(), solver)?;
    if let Some(grid) = &full {
        let buddy = buddy_of_n(layout, my.grid)?;
        send_grid_n(ctx, world, layout.root_of(buddy), tags.buddy + my.grid as i32, grid)?;
    }
    // Phase 2: buddy roots collect the copies addressed to them.
    for &g in &ids {
        let buddy = buddy_of_n(layout, g)?;
        if world.rank() == layout.root_of(buddy) {
            let (src, tag) = (layout.root_of(g), tags.buddy + g as i32);
            match store.get_mut(&g) {
                // In place over the previous round's copy — same grid,
                // same level, written only once the values arrived whole
                // (see `recovery::buddy_exchange`).
                Some((step, grid)) => {
                    recv_grid_n_onto(ctx, world, src, tag, grid)?;
                    *step = at_step;
                }
                None => {
                    store.insert(g, (at_step, recv_grid_n(ctx, world, src, tag)?));
                }
            }
        }
    }
    Ok(())
}

/// Sentinel broadcast when no checkpoint exists yet.
const NO_CHECKPOINT: u64 = u64::MAX;

/// Run the configured technique's d-dimensional data recovery after a
/// reconstruction. Collective over the world; same contract as
/// [`crate::recovery::recover`].
#[allow(clippy::too_many_arguments)]
pub fn recover_n(
    ctx: &Ctx,
    cfg: &AppConfig,
    layout: &ProcLayoutN,
    world: &Comm,
    group: &Comm,
    my: AssignmentN,
    solver: &mut DistributedSolverN,
    store: &CheckpointStore,
    buddy_store: &mut BuddyStoreN,
    failed_ranks: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let broken = layout.broken_grids(failed_ranks);
    if broken.is_empty() {
        return Ok(RecoveryStats::default());
    }
    let t0 = ctx.now();
    let stats = match cfg.technique {
        Technique::CheckpointRestart => {
            recover_checkpoint_n(ctx, layout, group, my, solver, store, &broken, at_step)
        }
        Technique::ResamplingCopying => {
            recover_resample_copy_n(ctx, layout, world, group, my, solver, &broken, at_step)
        }
        Technique::AlternateCombination => {
            recover_alt_combination_n(ctx, layout, world, group, my, solver, &broken, at_step)
        }
        Technique::BuddyCheckpoint => {
            recover_buddy_n(ctx, layout, world, group, my, solver, buddy_store, &broken, at_step)
        }
    }?;
    ctx.trace_phase("data_restore", t0);
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn recover_buddy_n(
    ctx: &Ctx,
    layout: &ProcLayoutN,
    world: &Comm,
    group: &Comm,
    my: AssignmentN,
    solver: &mut DistributedSolverN,
    store: &mut BuddyStoreN,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let t0 = ctx.now();
    let tags = TagSpace::for_layout_nd(layout);
    let mut touched = false;
    for &b in broken {
        let buddy = buddy_of_n(layout, b)?;
        // The buddy root answers with [has, step] and then maybe the grid.
        if world.rank() == layout.root_of(buddy) {
            touched = true;
            match store.get(&b) {
                Some((step, grid)) => {
                    world.send(
                        ctx,
                        layout.root_of(b),
                        tags.buddy_hdr + b as i32,
                        &[1u64, *step],
                    )?;
                    send_grid_n(ctx, world, layout.root_of(b), tags.buddy + b as i32, grid)?;
                }
                None => {
                    world.send(ctx, layout.root_of(b), tags.buddy_hdr + b as i32, &[0u64, 0u64])?;
                }
            }
        }
        if my.grid == b {
            touched = true;
            let payload: Option<(u64, GridN)> = if group.rank() == 0 {
                let hdr: Vec<u64> =
                    world.recv(ctx, layout.root_of(buddy), tags.buddy_hdr + b as i32)?;
                if hdr[0] == 1 {
                    let grid =
                        recv_grid_n(ctx, world, layout.root_of(buddy), tags.buddy + b as i32)?;
                    Some((hdr[1], grid))
                } else {
                    None
                }
            } else {
                None
            };
            let step_msg: Option<Vec<u64>> = if group.rank() == 0 {
                Some(vec![payload.as_ref().map_or(NO_CHECKPOINT, |(s, _)| *s)])
            } else {
                None
            };
            let restored = group.bcast(ctx, 0, step_msg.as_deref())?[0];
            if restored == NO_CHECKPOINT {
                solver.reset_to_initial();
            } else {
                let grid = payload.map(|(_, g)| g);
                let block = scatter_grid_n(ctx, group, layout.group(b), grid.as_ref())?;
                solver.load_block(&block, restored);
            }
            let behind = at_step - solver.steps_done();
            solver.run(ctx, group, behind)?;
        }
    }
    let t = if touched { ctx.now() - t0 } else { 0.0 };
    Ok(RecoveryStats { t_recovery: t, recovered_grids: broken.to_vec() })
}

#[allow(clippy::too_many_arguments)]
fn recover_checkpoint_n(
    ctx: &Ctx,
    layout: &ProcLayoutN,
    group: &Comm,
    my: AssignmentN,
    solver: &mut DistributedSolverN,
    store: &CheckpointStore,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    if !broken.contains(&my.grid) {
        return Ok(RecoveryStats { t_recovery: 0.0, recovered_grids: broken.to_vec() });
    }
    let t0 = ctx.now();
    let info = layout.group(my.grid);
    // Root reads the newest *valid* v3 checkpoint, falling back past
    // corrupt, torn, or wrong-format files.
    let payload: Option<(u64, GridN)> = if group.rank() == 0 {
        let (restored, skipped) = store
            .read_latest_valid_nd(my.grid)
            .map_err(|e| Error::InvalidArg(format!("checkpoint read: {e}")))?;
        if skipped > 0 {
            ctx.report_add(crate::app::keys::CKPT_SKIPPED, skipped as f64);
        }
        match restored {
            Some((step, grid, bytes)) => {
                ctx.disk_read(bytes);
                Some((step, grid))
            }
            None => None,
        }
    } else {
        None
    };
    let step_msg: Option<Vec<u64>> = if group.rank() == 0 {
        Some(vec![payload.as_ref().map_or(NO_CHECKPOINT, |(s, _)| *s)])
    } else {
        None
    };
    let restored = group.bcast(ctx, 0, step_msg.as_deref())?[0];
    if restored == NO_CHECKPOINT {
        solver.reset_to_initial();
    } else {
        let grid = payload.map(|(_, g)| g);
        let block = scatter_grid_n(ctx, group, info, grid.as_ref())?;
        solver.load_block(&block, restored);
    }
    let behind = at_step - solver.steps_done();
    solver.run(ctx, group, behind)?;
    Ok(RecoveryStats { t_recovery: ctx.now() - t0, recovered_grids: broken.to_vec() })
}

#[allow(clippy::too_many_arguments)]
fn recover_resample_copy_n(
    ctx: &Ctx,
    layout: &ProcLayoutN,
    world: &Comm,
    group: &Comm,
    my: AssignmentN,
    solver: &mut DistributedSolverN,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let sys = layout.system();
    let tags = TagSpace::for_layout_nd(layout);
    let t0 = ctx.now();
    let mut touched = false;
    for &b in broken {
        let src = sys.rc_source(b).ok_or_else(|| {
            Error::InvalidArg(format!("grid {b} has no Resampling-and-Copying source"))
        })?;
        let (src_id, resample) = match src {
            RcSourceN::Copy(s) => (s, false),
            RcSourceN::Resample(s) => (s, true),
        };
        if broken.contains(&src_id) {
            return Err(Error::InvalidArg(format!(
                "RC constraint violated: grids {b} and {src_id} failed together"
            )));
        }
        let b_level = sys.grid(b).level.clone();
        if my.grid == src_id {
            touched = true;
            // Source group: gather and ship (restricted if resampling).
            let full = gather_grid_n(ctx, group, layout.group(src_id), solver.level(), solver)?;
            if let Some(full) = full {
                let out = if resample { full.restrict_to(&b_level) } else { full };
                send_grid_n(ctx, world, layout.root_of(b), tags.rc + b as i32, &out)?;
            }
        }
        if my.grid == b {
            touched = true;
            let grid: Option<GridN> = if group.rank() == 0 {
                Some(recv_grid_n(ctx, world, layout.root_of(src_id), tags.rc + b as i32)?)
            } else {
                None
            };
            let block = scatter_grid_n(ctx, group, layout.group(b), grid.as_ref())?;
            solver.load_block(&block, at_step);
        }
    }
    let t = if touched { ctx.now() - t0 } else { 0.0 };
    Ok(RecoveryStats { t_recovery: t, recovered_grids: broken.to_vec() })
}

#[allow(clippy::too_many_arguments)]
fn recover_alt_combination_n(
    ctx: &Ctx,
    layout: &ProcLayoutN,
    world: &Comm,
    group: &Comm,
    my: AssignmentN,
    solver: &mut DistributedSolverN,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let sys = layout.system();
    let tags = TagSpace::for_layout_nd(layout);

    // --- 1. Robust coefficients over the survivors (the technique's
    //        accountable recovery cost; deterministic, computed locally). ---
    let t_coeff0 = ctx.now();
    let lost_levels: Vec<LevelVecN> = broken.iter().map(|&b| sys.grid(b).level.clone()).collect();
    let mut surviving = LevelSetN::new(sys.dim());
    for g in sys.grids().iter().filter(|g| !broken.contains(&g.id)) {
        surviving.insert(g.level.clone());
    }
    let downset = sys.classical_downset();
    let coeffs = robust_coefficients_nd(&downset, &lost_levels, &surviving);
    // Virtual cost of solving the small coefficient problem.
    ctx.advance(1.0e-4 + 4.0e-6 * downset.len() as f64);
    let t_recovery = ctx.now() - t_coeff0;

    // --- 2. Gather the needed surviving grids to world rank 0. ---
    let needed: Vec<usize> = sys
        .grids()
        .iter()
        .filter(|g| !broken.contains(&g.id) && coeffs.get(&g.level).copied().unwrap_or(0) != 0)
        .map(|g| g.id)
        .collect();
    if needed.is_empty() {
        return Err(Error::InvalidArg(
            "alternate combination: no surviving grids can cover the losses".into(),
        ));
    }
    if needed.contains(&my.grid) {
        let full = gather_grid_n(ctx, group, layout.group(my.grid), solver.level(), solver)?;
        if let Some(full) = full {
            send_grid_n(ctx, world, 0, tags.ac_gather + my.grid as i32, &full)?;
        }
    }

    // --- 3. The controller combines onto each lost level and ships the
    //        recovered grids back. ---
    if world.rank() == 0 {
        let mut sources: Vec<(f64, GridN)> = Vec::with_capacity(needed.len());
        for &gid in &needed {
            let g = recv_grid_n(ctx, world, layout.root_of(gid), tags.ac_gather + gid as i32)?;
            let c = coeffs[&sys.grid(gid).level] as f64;
            sources.push((c, g));
        }
        let terms: Vec<CombinationTermN> =
            sources.iter().map(|(c, g)| CombinationTermN { coeff: *c, grid: g }).collect();
        for &b in broken {
            let lvl = &sys.grid(b).level;
            let recovered = combine_onto_nd(lvl, &terms);
            ctx.compute_cells((terms.len() * recovered.values().len()) as u64);
            send_grid_n(ctx, world, layout.root_of(b), tags.ac_result + b as i32, &recovered)?;
        }
    }

    // --- 4. Broken groups load the recovered data. ---
    if broken.contains(&my.grid) {
        let grid: Option<GridN> = if group.rank() == 0 {
            Some(recv_grid_n(ctx, world, 0, tags.ac_result + my.grid as i32)?)
        } else {
            None
        };
        let block = scatter_grid_n(ctx, group, layout.group(my.grid), grid.as_ref())?;
        solver.load_block(&block, at_step);
    }

    Ok(RecoveryStats { t_recovery, recovered_grids: broken.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegrid::Layout;

    #[test]
    fn buddy_of_n_cycles_within_the_combining_set() {
        let layout = ProcLayoutN::new(3, 4, 4, Layout::Plain, 1);
        let ids = layout.system().combination_ids();
        for &g in &ids {
            let b = buddy_of_n(&layout, g).unwrap();
            assert!(ids.contains(&b));
            assert_ne!(b, g, "a grid must never buddy itself");
        }
    }

    #[test]
    fn buddy_of_n_non_combining_grid_is_an_error_not_a_panic() {
        let layout = ProcLayoutN::new(3, 4, 4, Layout::ExtraLayers, 1);
        let ids = layout.system().combination_ids();
        let outsider = layout
            .system()
            .grids()
            .iter()
            .map(|g| g.id)
            .find(|id| !ids.contains(id))
            .expect("ExtraLayers layout must have non-combining grids");
        let err = buddy_of_n(&layout, outsider).unwrap_err();
        assert!(err.to_string().contains("not in the combining set"), "got: {err}");
        assert!(buddy_of_n(&layout, 9999).is_err());
    }
}
