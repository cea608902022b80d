//! The data recovery techniques: the paper's three (§II-D) plus the
//! diskless buddy-checkpointing extension.
//!
//! Data recovery always restores the **whole sub-grid** that experienced
//! failures: "data recovery only for the failed processes on a sub-grid is
//! not sufficient as the data of the surviving processes on a communicator
//! can be updated locally by the solver before the failure is detected."
//!
//! * **Checkpoint/Restart** — the broken group's root reads the recent
//!   on-disk checkpoint (or falls back to the initial condition), scatters
//!   it, and the group recomputes the timesteps between the checkpoint and
//!   the detection point.
//! * **Resampling and Copying** — a lost diagonal grid is copied from its
//!   duplicate (and vice versa); a lost lower-diagonal grid is re-sampled
//!   (exact injection) from the finer diagonal grid above it. Constraint:
//!   a grid and its recovery partner must not fail together.
//! * **Alternate Combination** — new (robust) combination coefficients are
//!   computed over the surviving grids — including the two extra layers —
//!   and the lost grid's data is a sample of that combined solution.
//!   Only the coefficient computation counts as recovery overhead; the
//!   gather/combine work "happens as a compulsory stage later" (§III-B).
//! * **Buddy Checkpoint** *(extension, not in the paper)* — periodic
//!   in-memory copies on a partner group's root; restore + recompute like
//!   Checkpoint/Restart, no disk involved, initial-condition fallback if
//!   the buddy's copies died with their holder.

use sparsegrid::{combine_onto, robust_coefficients, CombinationTerm, Grid2, LevelPair, LevelSet};
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::{AppConfig, Technique};
use crate::gather::{gather_grid, recv_grid, recv_grid_onto, scatter_grid, send_grid};
use crate::layout::{Assignment, ProcLayout};
use crate::psolve::DistributedSolver;
use crate::tags::TagSpace;
use sparsegrid::scheme::RcSource;

/// In-memory buddy checkpoints held *by this rank* for partner grids:
/// grid id → (checkpointed step, grid data). Only group roots hold
/// entries; a respawned root starts empty (its copies died with it).
pub type BuddyStore = std::collections::HashMap<usize, (u64, Grid2)>;

/// The buddy of a combining grid: the next combining grid, cyclically.
/// Deterministic and never the grid itself (there are ≥ 3 combining
/// grids for every `l ≥ 2`).
///
/// A grid id outside the combining set is an error, not a panic: this is
/// called inside the recovery path with grid ids derived from the failed
/// rank list, and a rank whose grid does not combine (e.g. a bogus
/// simulated-loss id) must surface as a recoverable [`Error`] rather
/// than unwind mid-recovery.
pub fn buddy_of(layout: &ProcLayout, grid: usize) -> Result<usize> {
    let ids = layout.system().combination_ids();
    let pos = ids.iter().position(|&g| g == grid).ok_or_else(|| {
        Error::InvalidArg(format!("grid {grid} is not in the combining set {ids:?}"))
    })?;
    Ok(ids[(pos + 1) % ids.len()])
}

/// Periodic buddy exchange (the Buddy Checkpoint protection point): every
/// combining group gathers its grid; the root ships it to the buddy
/// group's root, which stores it in memory. Collective over the world.
#[allow(clippy::too_many_arguments)]
pub fn buddy_exchange(
    ctx: &Ctx,
    layout: &ProcLayout,
    world: &Comm,
    group: &Comm,
    my: Assignment,
    solver: &DistributedSolver,
    at_step: u64,
    store: &mut BuddyStore,
) -> Result<()> {
    let ids = layout.system().combination_ids();
    let tags = TagSpace::for_layout(layout);
    // Phase 1: every group gathers and its root sends to the buddy root.
    let full = gather_grid(ctx, group, layout.group(my.grid), solver.level(), solver)?;
    if let Some(grid) = &full {
        let buddy = buddy_of(layout, my.grid)?;
        send_grid(ctx, world, layout.root_of(buddy), tags.buddy + my.grid as i32, grid)?;
    }
    // Phase 2: buddy roots collect the copies addressed to them.
    for &g in &ids {
        let buddy = buddy_of(layout, g)?;
        if world.rank() == layout.root_of(buddy) {
            let (src, tag) = (layout.root_of(g), tags.buddy + g as i32);
            match store.get_mut(&g) {
                // Overwrite the previous round's copy in place. It is the
                // same grid at the same level, so nothing is re-shaped and
                // the values are only written once they arrived whole: a
                // transfer that fails leaves the previous copy intact.
                Some((step, grid)) => {
                    recv_grid_onto(ctx, world, src, tag, grid)?;
                    *step = at_step;
                }
                None => {
                    store.insert(g, (at_step, recv_grid(ctx, world, src, tag)?));
                }
            }
        }
    }
    Ok(())
}

/// Sentinel broadcast when no checkpoint exists yet (restart from the
/// initial condition).
const NO_CHECKPOINT: u64 = u64::MAX;

/// What one recovery accomplished on this rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Virtual time this rank spent in the technique's accountable
    /// recovery work (the paper's Fig. 9a quantity; aggregate with a max
    /// across the world).
    pub t_recovery: f64,
    /// Sub-grids that were restored.
    pub recovered_grids: Vec<usize>,
}

/// Run the configured technique's data recovery after a reconstruction.
/// Collective over the world (every rank calls it; ranks not involved in
/// a given transfer fall through). `at_step` is the detection point; all
/// broken grids come back with their state at `at_step`.
///
/// Policy note: data recovery presumes the failed slots were *refilled*
/// (respawn, spare substitution, or the deferred epoch batch).
/// `ShrinkRedistribute` never calls this — its broken grids are dropped
/// and the final combination handles them with robust coefficients.
#[allow(clippy::too_many_arguments)]
pub fn recover(
    ctx: &Ctx,
    cfg: &AppConfig,
    layout: &ProcLayout,
    world: &Comm,
    group: &Comm,
    my: Assignment,
    solver: &mut DistributedSolver,
    store: &CheckpointStore,
    buddy_store: &mut BuddyStore,
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
            recover_checkpoint(ctx, layout, group, my, solver, store, &broken, at_step)
        }
        Technique::ResamplingCopying => {
            recover_resample_copy(ctx, layout, world, group, my, solver, &broken, at_step)
        }
        Technique::AlternateCombination => {
            recover_alt_combination(ctx, layout, world, group, my, solver, &broken, at_step)
        }
        Technique::BuddyCheckpoint => {
            recover_buddy(ctx, layout, world, group, my, solver, buddy_store, &broken, at_step)
        }
    }?;
    ctx.trace_phase("data_restore", t0);
    Ok(stats)
}

/// Buddy-checkpoint recovery: the broken grid's last in-memory copy lives
/// on its buddy group's root; restore from there (or restart from the
/// initial condition if the buddy root died too and its copies with it),
/// then recompute to the detection point.
#[allow(clippy::too_many_arguments)]
fn recover_buddy(
    ctx: &Ctx,
    layout: &ProcLayout,
    world: &Comm,
    group: &Comm,
    my: Assignment,
    solver: &mut DistributedSolver,
    store: &mut BuddyStore,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let t0 = ctx.now();
    let tags = TagSpace::for_layout(layout);
    let mut touched = false;
    for &b in broken {
        let buddy = buddy_of(layout, b)?;
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
                    send_grid(ctx, world, layout.root_of(b), tags.buddy + b as i32, grid)?;
                }
                None => {
                    world.send(ctx, layout.root_of(b), tags.buddy_hdr + b as i32, &[0u64, 0u64])?;
                }
            }
        }
        if my.grid == b {
            touched = true;
            let payload: Option<(u64, Grid2)> = if group.rank() == 0 {
                let hdr: Vec<u64> =
                    world.recv(ctx, layout.root_of(buddy), tags.buddy_hdr + b as i32)?;
                if hdr[0] == 1 {
                    let grid = recv_grid(ctx, world, layout.root_of(buddy), tags.buddy + b as i32)?;
                    Some((hdr[1], grid))
                } else {
                    None
                }
            } else {
                None
            };
            // Everyone in the group learns the restored step.
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
                let block = scatter_grid(ctx, group, layout.group(b), grid.as_ref())?;
                solver.load_block(&block, restored);
            }
            let behind = at_step - solver.steps_done();
            solver.run(ctx, group, behind)?;
            // This group's own buddy copies of *other* grids are stale but
            // intact; its copy OF this grid lives elsewhere and stays valid.
        }
    }
    let t = if touched { ctx.now() - t0 } else { 0.0 };
    Ok(RecoveryStats { t_recovery: t, recovered_grids: broken.to_vec() })
}

#[allow(clippy::too_many_arguments)]
fn recover_checkpoint(
    ctx: &Ctx,
    layout: &ProcLayout,
    group: &Comm,
    my: Assignment,
    solver: &mut DistributedSolver,
    store: &CheckpointStore,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    if !broken.contains(&my.grid) {
        return Ok(RecoveryStats { t_recovery: 0.0, recovered_grids: broken.to_vec() });
    }
    let t0 = ctx.now();
    let info = layout.group(my.grid);
    // Root reads the newest *valid* checkpoint from disk, falling back
    // past corrupt or torn files (a restart must never consume a corrupt
    // checkpoint; with none left it restarts from the initial condition).
    let payload: Option<(u64, Grid2)> = if group.rank() == 0 {
        let (restored, skipped) = store
            .read_latest_valid(my.grid)
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
    // Everyone learns the restored step.
    let step_msg: Option<Vec<u64>> = if group.rank() == 0 {
        Some(vec![payload.as_ref().map_or(NO_CHECKPOINT, |(s, _)| *s)])
    } else {
        None
    };
    let restored = group.bcast(ctx, 0, step_msg.as_deref())?[0];
    if restored == NO_CHECKPOINT {
        // No checkpoint yet: restart from the initial condition.
        solver.reset_to_initial();
    } else {
        let grid = payload.map(|(_, g)| g);
        let block = scatter_grid(ctx, group, info, grid.as_ref())?;
        solver.load_block(&block, restored);
    }
    // Recompute up to the detection point ("performs a recomputation for a
    // number of timesteps by which the checkpoint is behind").
    let behind = at_step - solver.steps_done();
    solver.run(ctx, group, behind)?;
    Ok(RecoveryStats { t_recovery: ctx.now() - t0, recovered_grids: broken.to_vec() })
}

#[allow(clippy::too_many_arguments)]
fn recover_resample_copy(
    ctx: &Ctx,
    layout: &ProcLayout,
    world: &Comm,
    group: &Comm,
    my: Assignment,
    solver: &mut DistributedSolver,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let sys = layout.system();
    let tags = TagSpace::for_layout(layout);
    let t0 = ctx.now();
    let mut touched = false;
    for &b in broken {
        let src = sys.rc_source(b).ok_or_else(|| {
            Error::InvalidArg(format!("grid {b} has no Resampling-and-Copying source"))
        })?;
        let (src_id, resample) = match src {
            RcSource::Copy(s) => (s, false),
            RcSource::Resample(s) => (s, true),
        };
        if broken.contains(&src_id) {
            return Err(Error::InvalidArg(format!(
                "RC constraint violated: grids {b} and {src_id} failed together"
            )));
        }
        let b_level = sys.grid(b).level;
        if my.grid == src_id {
            touched = true;
            // Source group: gather and ship (restricted if resampling).
            let full = gather_grid(ctx, group, layout.group(src_id), solver.level(), solver)?;
            if let Some(full) = full {
                let out = if resample { full.restrict_to(b_level) } else { full };
                send_grid(ctx, world, layout.root_of(b), tags.rc + b as i32, &out)?;
            }
        }
        if my.grid == b {
            touched = true;
            let grid: Option<Grid2> = if group.rank() == 0 {
                Some(recv_grid(ctx, world, layout.root_of(src_id), tags.rc + b as i32)?)
            } else {
                None
            };
            let block = scatter_grid(ctx, group, layout.group(b), grid.as_ref())?;
            solver.load_block(&block, at_step);
        }
    }
    let t = if touched { ctx.now() - t0 } else { 0.0 };
    Ok(RecoveryStats { t_recovery: t, recovered_grids: broken.to_vec() })
}

#[allow(clippy::too_many_arguments)]
fn recover_alt_combination(
    ctx: &Ctx,
    layout: &ProcLayout,
    world: &Comm,
    group: &Comm,
    my: Assignment,
    solver: &mut DistributedSolver,
    broken: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let sys = layout.system();
    let tags = TagSpace::for_layout(layout);

    // --- 1. New combination coefficients over the survivors (this is the
    //        technique's accountable recovery cost). Deterministic, so
    //        every rank computes them locally. ---
    let t_coeff0 = ctx.now();
    let lost_levels: Vec<LevelPair> = broken.iter().map(|&b| sys.grid(b).level).collect();
    let surviving: LevelSet =
        sys.grids().iter().filter(|g| !broken.contains(&g.id)).map(|g| g.level).collect();
    let downset = sys.classical_downset();
    let coeffs = robust_coefficients(&downset, &lost_levels, &surviving);
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
        let full = gather_grid(ctx, group, layout.group(my.grid), solver.level(), solver)?;
        if let Some(full) = full {
            // Root ships to the controller (self-sends are fine).
            send_grid(ctx, world, 0, tags.ac_gather + my.grid as i32, &full)?;
        }
    }

    // --- 3. The controller combines onto each lost level and ships the
    //        recovered grids back. ---
    if world.rank() == 0 {
        let mut sources: Vec<(f64, Grid2)> = Vec::with_capacity(needed.len());
        for &gid in &needed {
            let g = recv_grid(ctx, world, layout.root_of(gid), tags.ac_gather + gid as i32)?;
            let c = coeffs[&sys.grid(gid).level] as f64;
            sources.push((c, g));
        }
        let terms: Vec<CombinationTerm> =
            sources.iter().map(|(c, g)| CombinationTerm { coeff: *c, grid: g }).collect();
        for &b in broken {
            let lvl = sys.grid(b).level;
            let recovered = combine_onto(lvl, &terms);
            ctx.compute_cells((terms.len() * lvl.points()) as u64);
            send_grid(ctx, world, layout.root_of(b), tags.ac_result + b as i32, &recovered)?;
        }
    }

    // --- 4. Broken groups load the recovered data. ---
    if broken.contains(&my.grid) {
        let grid: Option<Grid2> = if group.rank() == 0 {
            Some(recv_grid(ctx, world, 0, tags.ac_result + my.grid as i32)?)
        } else {
            None
        };
        let block = scatter_grid(ctx, group, layout.group(my.grid), grid.as_ref())?;
        solver.load_block(&block, at_step);
    }

    Ok(RecoveryStats { t_recovery, recovered_grids: broken.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegrid::Layout;

    #[test]
    fn buddy_of_cycles_within_the_combining_set() {
        let layout = ProcLayout::new(6, 3, Layout::Plain, 1);
        let ids = layout.system().combination_ids();
        for &g in &ids {
            let b = buddy_of(&layout, g).unwrap();
            assert!(ids.contains(&b));
            assert_ne!(b, g, "a grid must never buddy itself");
        }
    }

    #[test]
    fn buddy_of_non_combining_grid_is_an_error_not_a_panic() {
        // Regression: a failed rank's grid id outside the combining set
        // used to unwind mid-recovery via `.expect("combining grid")`.
        let layout = ProcLayout::new(6, 3, Layout::ExtraLayers, 1);
        let ids = layout.system().combination_ids();
        // The extra-layer grids exist in the system but take no part in
        // the classical combination — exactly the miss the recovery path
        // can feed in.
        let outsider = layout
            .system()
            .grids()
            .iter()
            .map(|g| g.id)
            .find(|id| !ids.contains(id))
            .expect("ExtraLayers layout must have non-combining grids");
        let err = buddy_of(&layout, outsider).unwrap_err();
        assert!(err.to_string().contains("not in the combining set"), "got: {err}");
        // And an id that is in no layout at all.
        assert!(buddy_of(&layout, 9999).is_err());
    }
}
