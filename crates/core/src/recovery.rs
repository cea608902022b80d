//! The data recovery techniques: the paper's three (§II-D) plus the
//! diskless buddy-checkpointing extension, written once for every
//! [`Stack`].
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
//!   and that is the whole recovery: only the coefficient computation
//!   counts as recovery overhead, the gather/combine work "happens as a
//!   compulsory stage later" (§III-B). Every AC recovery runs at the final
//!   step, where the lost grids join the final combination's lost set, so
//!   the robust combination over the survivors *is* the recovered
//!   solution (arXiv:1404.2670) and no sample of it is shipped back to the
//!   lost grids: nothing would read it.
//! * **Buddy Checkpoint** *(extension, not in the paper)* — periodic
//!   in-memory copies on a partner group's root; restore + recompute like
//!   Checkpoint/Restart, no disk involved, initial-condition fallback if
//!   the buddy's copies died with their holder.
//!
//! Every whole grid a technique assembles or receives lands in the rank's
//! one landing grid ([`Landing`]); the only fresh grids are the ones a
//! technique makes — a resample — and a buddy copy the first time it is
//! stored.
//!
//! `my` below is always this rank's grid id.

use sparsegrid::scheme::RcSource;
use sparsegrid::ComponentGrid;
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::Technique;
use crate::gather::{recv_grid_onto, scatter_grid_into, send_grid};
use crate::landing::Landing;
use crate::stack::{Env, Stack};
use crate::tags::TagSpace;

/// In-memory buddy checkpoints held *by this rank* for partner grids:
/// grid id → (checkpointed step, grid data). Only group roots hold
/// entries; a respawned root starts empty (its copies died with it).
pub type BuddyStore<S> = std::collections::HashMap<usize, (u64, <S as Stack>::Grid)>;

/// The buddy of a combining grid: the next combining grid, cyclically.
/// Deterministic and never the grid itself (there are ≥ 3 combining
/// grids for every `l ≥ 2`).
///
/// A grid id outside the combining set is an error, not a panic: this is
/// called inside the recovery path with grid ids derived from the failed
/// rank list, and a rank whose grid does not combine (e.g. a bogus
/// simulated-loss id) must surface as a recoverable [`Error`] rather
/// than unwind mid-recovery.
pub fn buddy_of<S: Stack>(layout: &S::Layout, grid: usize) -> Result<usize> {
    let ids = S::combination_ids(layout);
    let pos = ids.iter().position(|&g| g == grid).ok_or_else(|| {
        Error::InvalidArg(format!("grid {grid} is not in the combining set {ids:?}"))
    })?;
    Ok(ids[(pos + 1) % ids.len()])
}

/// Periodic buddy exchange (the Buddy Checkpoint protection point): every
/// combining group gathers its grid; the root ships it to the buddy
/// group's root, which stores it in memory. Collective over the world.
#[allow(clippy::too_many_arguments)]
pub fn buddy_exchange<S: Stack>(
    ctx: &Ctx,
    layout: &S::Layout,
    world: &Comm,
    group: &Comm,
    my: usize,
    solver: &S::Solver,
    at_step: u64,
    landing: &mut Landing<S>,
    store: &mut BuddyStore<S>,
) -> Result<()> {
    let ids = S::combination_ids(layout);
    let tags = TagSpace::for_grids(S::n_grids(layout));
    // Phase 1: every group gathers and its root sends to the buddy root.
    landing.gather(ctx, group, layout, my, solver, |grid| {
        let buddy = buddy_of::<S>(layout, my)?;
        send_grid(ctx, world, S::root_of(layout, buddy), tags.buddy + my as i32, grid)
    })?;
    // Phase 2: buddy roots collect the copies addressed to them.
    for &g in &ids {
        let buddy = buddy_of::<S>(layout, g)?;
        if world.rank() == S::root_of(layout, buddy) {
            let (src, tag) = (S::root_of(layout, g), tags.buddy + g as i32);
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
                    let mut grid = S::Grid::zeros(S::level(layout, g));
                    recv_grid_onto(ctx, world, src, tag, &mut grid)?;
                    store.insert(g, (at_step, grid));
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
/// a given transfer fall through). `at_step` is the detection point; the
/// broken grids come back with their state at `at_step`, except under
/// Alternate Combination, which leaves them out of the final combination
/// instead.
///
/// Policy note: data recovery presumes the failed slots were *refilled*
/// (respawn, spare substitution, or the deferred epoch batch).
/// `ShrinkRedistribute` never calls this — its broken grids are dropped
/// and the final combination handles them with robust coefficients.
#[allow(clippy::too_many_arguments)]
pub fn recover<S: Stack>(
    ctx: &Ctx,
    env: &Env<'_, S>,
    world: &Comm,
    group: &Comm,
    my: usize,
    solver: &mut S::Solver,
    landing: &mut Landing<S>,
    buddy_store: &mut BuddyStore<S>,
    failed_ranks: &[usize],
    at_step: u64,
) -> Result<RecoveryStats> {
    let broken = S::broken_grids(env.layout, failed_ranks);
    if broken.is_empty() {
        return Ok(RecoveryStats::default());
    }
    let t0 = ctx.now();
    let r = Recovery::<S> { ctx, layout: env.layout, world, group, my, broken: &broken, at_step };
    let t_recovery = match env.cfg.technique {
        Technique::CheckpointRestart => r.checkpoint(solver, landing, env.checkpoints()?),
        Technique::ResamplingCopying => r.resample_copy(solver, landing),
        Technique::AlternateCombination => r.alt_combination(env.cfg.steps()),
        Technique::BuddyCheckpoint => r.buddy(solver, landing, buddy_store),
    }?;
    ctx.trace_phase("data_restore", t0);
    Ok(RecoveryStats { t_recovery, recovered_grids: broken })
}

/// One data recovery, as this rank takes part in it. Each technique
/// returns this rank's accountable recovery time.
struct Recovery<'a, S: Stack> {
    ctx: &'a Ctx,
    layout: &'a S::Layout,
    world: &'a Comm,
    group: &'a Comm,
    /// This rank's grid id.
    my: usize,
    /// The grids to restore, ascending.
    broken: &'a [usize],
    /// The detection point they come back at.
    at_step: u64,
}

impl<S: Stack> Recovery<'_, S> {
    /// The group's scatter of `whole`, which exactly its root supplies,
    /// straight into every member's solver block; the solvers then stand
    /// at `steps`.
    fn scatter(&self, solver: &mut S::Solver, whole: Option<&S::Grid>, steps: u64) -> Result<()> {
        let info = S::group(self.layout, self.my);
        scatter_grid_into(self.ctx, self.group, info, whole, solver)?;
        S::set_steps_done(solver, steps);
        Ok(())
    }

    /// The restore half of Checkpoint/Restart and Buddy Checkpoint: the
    /// group learns the step of the copy its root holds in `payload`,
    /// loads it (or, with none, restarts from the initial condition), and
    /// recomputes up to the detection point ("performs a recomputation for
    /// a number of timesteps by which the checkpoint is behind").
    fn restore(&self, solver: &mut S::Solver, payload: Option<(u64, &S::Grid)>) -> Result<()> {
        let Recovery { ctx, group, at_step, .. } = *self;
        let step_msg: Option<Vec<u64>> = if group.rank() == 0 {
            Some(vec![payload.map_or(NO_CHECKPOINT, |(s, _)| s)])
        } else {
            None
        };
        let restored = group.bcast(ctx, 0, step_msg.as_deref())?[0];
        let from = if restored == NO_CHECKPOINT {
            S::reset_to_initial(solver);
            0
        } else {
            self.scatter(solver, payload.map(|(_, g)| g), restored)?;
            restored
        };
        for _ in from..at_step {
            S::step(solver, ctx, group)?;
        }
        Ok(())
    }

    /// Buddy-checkpoint recovery: the broken grid's last in-memory copy
    /// lives on its buddy group's root; restore from there (or restart from
    /// the initial condition if the buddy root died too and its copies with
    /// it), then recompute to the detection point.
    fn buddy(
        &self,
        solver: &mut S::Solver,
        landing: &mut Landing<S>,
        store: &BuddyStore<S>,
    ) -> Result<f64> {
        let Recovery { ctx, layout, world, group, my, broken, .. } = *self;
        let t0 = ctx.now();
        let tags = TagSpace::for_grids(S::n_grids(layout));
        let mut touched = false;
        for &b in broken {
            let buddy = buddy_of::<S>(layout, b)?;
            let (root_b, root_buddy) = (S::root_of(layout, b), S::root_of(layout, buddy));
            // The buddy root answers with [has, step] and then maybe the grid.
            if world.rank() == root_buddy {
                touched = true;
                match store.get(&b) {
                    Some((step, grid)) => {
                        world.send(ctx, root_b, tags.buddy_hdr + b as i32, &[1u64, *step])?;
                        send_grid(ctx, world, root_b, tags.buddy + b as i32, grid)?;
                    }
                    None => {
                        world.send(ctx, root_b, tags.buddy_hdr + b as i32, &[0u64, 0u64])?;
                    }
                }
            }
            if my == b {
                touched = true;
                landing.with_root(group.rank() == 0, S::level(layout, b), |grid| {
                    let payload = match grid {
                        Some(grid) => {
                            let hdr: Vec<u64> =
                                world.recv(ctx, root_buddy, tags.buddy_hdr + b as i32)?;
                            if hdr[0] == 1 {
                                recv_grid_onto(
                                    ctx,
                                    world,
                                    root_buddy,
                                    tags.buddy + b as i32,
                                    grid,
                                )?;
                                Some((hdr[1], &*grid))
                            } else {
                                None
                            }
                        }
                        None => None,
                    };
                    self.restore(solver, payload)
                })?;
                // This group's own buddy copies of *other* grids are stale but
                // intact; its copy OF this grid lives elsewhere and stays valid.
            }
        }
        Ok(if touched { ctx.now() - t0 } else { 0.0 })
    }

    fn checkpoint(
        &self,
        solver: &mut S::Solver,
        landing: &mut Landing<S>,
        store: &CheckpointStore,
    ) -> Result<f64> {
        let Recovery { ctx, layout, group, my, broken, .. } = *self;
        if !broken.contains(&my) {
            return Ok(0.0);
        }
        let t0 = ctx.now();
        // Root reads the newest *valid* checkpoint from disk, falling back
        // past corrupt or torn files (a restart must never consume a corrupt
        // checkpoint; with none left it restarts from the initial condition).
        landing.with_root(group.rank() == 0, S::level(layout, my), |grid| {
            let payload = match grid {
                Some(grid) => {
                    let (restored, skipped) = store
                        .read_latest_valid_into(my, grid)
                        .map_err(|e| Error::InvalidArg(format!("checkpoint read: {e}")))?;
                    if skipped > 0 {
                        ctx.report_add(crate::app::keys::CKPT_SKIPPED, skipped as f64);
                    }
                    restored.map(|(step, bytes)| {
                        ctx.disk_read(bytes);
                        (step, &*grid)
                    })
                }
                None => None,
            };
            self.restore(solver, payload)
        })?;
        Ok(ctx.now() - t0)
    }

    fn resample_copy(&self, solver: &mut S::Solver, landing: &mut Landing<S>) -> Result<f64> {
        let Recovery { ctx, layout, world, group, my, broken, at_step } = *self;
        let tags = TagSpace::for_grids(S::n_grids(layout));
        let t0 = ctx.now();
        let mut touched = false;
        for &b in broken {
            let src = S::rc_source(layout, b).ok_or_else(|| {
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
            let (b_level, tag) = (S::level(layout, b), tags.rc + b as i32);
            if my == src_id {
                touched = true;
                // Source group: gather and ship (restricted if resampling).
                landing.gather(ctx, group, layout, src_id, solver, |full| {
                    let root_b = S::root_of(layout, b);
                    if resample {
                        send_grid(ctx, world, root_b, tag, &S::restrict(full, b_level))
                    } else {
                        send_grid(ctx, world, root_b, tag, full)
                    }
                })?;
            }
            if my == b {
                touched = true;
                landing.with_root(group.rank() == 0, b_level, |mut grid| {
                    if let Some(grid) = grid.as_deref_mut() {
                        recv_grid_onto(ctx, world, S::root_of(layout, src_id), tag, grid)?;
                    }
                    self.scatter(solver, grid.as_deref(), at_step)
                })?;
            }
        }
        Ok(if touched { ctx.now() - t0 } else { 0.0 })
    }

    /// Alternate Combination: new coefficients over the survivors, and
    /// nothing else (see the module docs). Sound only at the final step,
    /// where every AC recovery runs: a mid-run loss would need a sample of
    /// the combination to step on from.
    fn alt_combination(&self, final_step: u64) -> Result<f64> {
        let Recovery { ctx, layout, broken, at_step, .. } = *self;
        if at_step != final_step {
            return Err(Error::InvalidArg(format!(
                "alternate combination recovers at the final step {final_step}, not {at_step}"
            )));
        }
        // The technique's accountable recovery cost. Deterministic, so every
        // rank computes the coefficients locally. Every broken level is
        // lost: the extra-layers layout holds each level once.
        let t_coeff0 = ctx.now();
        let (coeffs, downset_len) = S::robust_coefficients(layout, broken, false);
        // Virtual cost of solving the small coefficient problem.
        ctx.advance(1.0e-4 + 4.0e-6 * downset_len as f64);
        if !coeffs.iter().enumerate().any(|(g, &c)| c != 0 && !broken.contains(&g)) {
            return Err(Error::InvalidArg(
                "alternate combination: no surviving grids can cover the losses".into(),
            ));
        }
        Ok(ctx.now() - t_coeff0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{Nd, D2};
    use crate::{ProcLayout, ProcLayoutN};
    use sparsegrid::Layout;

    fn assert_buddies_cycle<S: Stack>(layout: &S::Layout) {
        let ids = S::combination_ids(layout);
        for &g in &ids {
            let b = buddy_of::<S>(layout, g).unwrap();
            assert!(ids.contains(&b));
            assert_ne!(b, g, "a grid must never buddy itself");
        }
    }

    /// The extra-layer grids exist in the system but take no part in the
    /// classical combination — exactly the miss the recovery path can
    /// feed in — and an id in no layout at all.
    fn assert_outsiders_are_errors<S: Stack>(layout: &S::Layout) {
        let ids = S::combination_ids(layout);
        let outsider = (0..S::n_grids(layout))
            .find(|id| !ids.contains(id))
            .expect("ExtraLayers layout must have non-combining grids");
        let err = buddy_of::<S>(layout, outsider).unwrap_err();
        assert!(err.to_string().contains("not in the combining set"), "got: {err}");
        assert!(buddy_of::<S>(layout, 9999).is_err());
    }

    #[test]
    fn buddy_of_cycles_within_the_combining_set() {
        assert_buddies_cycle::<D2>(&ProcLayout::new(6, 3, Layout::Plain, 1));
    }

    #[test]
    fn buddy_of_non_combining_grid_is_an_error_not_a_panic() {
        // Regression: a failed rank's grid id outside the combining set
        // used to unwind mid-recovery via `.expect("combining grid")`.
        assert_outsiders_are_errors::<D2>(&ProcLayout::new(6, 3, Layout::ExtraLayers, 1));
    }

    #[test]
    fn buddy_of_n_cycles_within_the_combining_set() {
        assert_buddies_cycle::<Nd>(&ProcLayoutN::new(3, 4, 4, Layout::Plain, 1));
    }

    #[test]
    fn buddy_of_n_non_combining_grid_is_an_error_not_a_panic() {
        assert_outsiders_are_errors::<Nd>(&ProcLayoutN::new(3, 4, 4, Layout::ExtraLayers, 1));
    }
}
