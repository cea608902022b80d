//! One landing grid per rank.
//!
//! Every whole sub-grid a rank assembles or receives lands in one grid the
//! rank owns: a checkpoint gather, a recovery gather, the final
//! combination's gather, a grid received from another rank (a copy or a
//! resample, a buddy copy) and a checkpoint decoded for a restart.
//! Each use takes the grid, re-shaped to its level with its allocation
//! kept, and gives it back when done ([`Landing::with`]), so once the grid
//! has grown to the largest level through it the rank allocates no
//! grid-sized buffer again. Nothing exists before first use: no rank
//! allocates a grid before its first step.
//!
//! On a Checkpoint/Restart group root with the background writer stage,
//! the landing grid *is* one of the writer's two snapshot buffers
//! ([`Stack::take_buffer`]): a checkpoint is gathered into it and handed
//! over without a copy, and between checkpoints — after a drain, when both
//! sit idle — the same buffers take the restore and the final gather. The
//! writer keeps only the newest checkpoint whose write has not started on
//! the virtual clock: with one write in flight and one queued, the next
//! checkpoint's gather waits for the in-flight buffer's real write, and
//! the queued snapshot comes back unwritten if it still has not started
//! when the next one is submitted or a drain (the recovery barrier, the
//! end of the run) is reached. A borrowed buffer goes back on every
//! path, errors included: the writer owns exactly two, and a lost one
//! would block the next borrow forever.
//! In synchronous mode — configured, or degraded to because the writer
//! stage became unusable, which pins the rank to the critical-path write
//! for the rest of the run — and for a stack without a writer stage
//! ([`Stack::Writer`]), the landing grid is the one kept here.

use sparsegrid::ComponentGrid;
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::checkpoint::CheckpointStore;
use crate::config::AppConfig;
use crate::gather::gather_grid_into;
use crate::stack::{Level, Stack};

/// A rank's landing grid (see the module docs).
pub struct Landing<S: Stack> {
    /// The background writer, created by the first checkpoint of a root
    /// in async mode.
    writer: Option<S::Writer>,
    degraded: bool,
    /// The landing grid whenever there is no writer.
    own: Option<S::Grid>,
}

impl<S: Stack> Default for Landing<S> {
    fn default() -> Self {
        Landing { writer: None, degraded: false, own: None }
    }
}

impl<S: Stack> Landing<S> {
    /// Run `f` on the landing grid re-shaped to `level` (node values
    /// unspecified: `f` overwrites what it reads) and take the grid back,
    /// whatever `f` returns. May block on the writer's backpressure.
    pub fn with<T>(
        &mut self,
        level: &Level<S>,
        f: impl FnOnce(&mut S::Grid) -> Result<T>,
    ) -> Result<T> {
        let mut grid = self.take(level);
        let out = f(&mut grid);
        self.give_back(grid);
        out
    }

    /// [`with`](Self::with) on a group root; `f(None)` on the other
    /// members, which land no grid.
    pub fn with_root<T>(
        &mut self,
        root: bool,
        level: &Level<S>,
        f: impl FnOnce(Option<&mut S::Grid>) -> Result<T>,
    ) -> Result<T> {
        if root {
            self.with(level, |grid| f(Some(grid)))
        } else {
            f(None)
        }
    }

    /// The group's gather of grid `id` into its root's landing grid, which
    /// `then` reads before it is taken back: `then`'s value on the root
    /// (group rank 0), `None` on the other members.
    pub fn gather<T>(
        &mut self,
        ctx: &Ctx,
        group: &Comm,
        layout: &S::Layout,
        id: usize,
        sv: &S::Solver,
        then: impl FnOnce(&S::Grid) -> Result<T>,
    ) -> Result<Option<T>> {
        let (info, level) = (S::group(layout, id), S::level(layout, id));
        self.with_root(group.rank() == 0, level, |out| match out {
            Some(grid) => {
                gather_grid_into(ctx, group, info, level, sv, Some(&mut *grid))?;
                then(grid).map(Some)
            }
            None => gather_grid_into(ctx, group, info, level, sv, None).map(|()| None),
        })
    }

    /// The group's periodic checkpoint of grid `id` at `step`: gathered
    /// into the root's landing grid and landed from it — handed to the
    /// writer stage (T_IO is charged as deferred cost and settled at the
    /// drains; a later checkpoint may supersede it before its write
    /// starts), or written synchronously. The first checkpoint of a root
    /// in async mode starts the writer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn checkpoint(
        &mut self,
        ctx: &Ctx,
        cfg: &AppConfig,
        store: &CheckpointStore,
        group: &Comm,
        layout: &S::Layout,
        id: usize,
        sv: &S::Solver,
        step: u64,
    ) -> Result<()> {
        let (info, level) = (S::group(layout, id), S::level(layout, id));
        if group.rank() != 0 {
            return gather_grid_into(ctx, group, info, level, sv, None);
        }
        if cfg.ckpt_async && !self.degraded && self.writer.is_none() {
            self.writer = S::open_writer(store);
        }
        let mut grid = self.take(level);
        if let Err(e) = gather_grid_into(ctx, group, info, level, sv, Some(&mut grid)) {
            self.give_back(grid);
            return Err(e);
        }
        if let Some(ck) = self.writer.as_mut() {
            match S::submit(ck, ctx, id, step, grid) {
                Ok(()) => return Ok(()),
                Err(refused) => {
                    grid = refused;
                    self.degrade();
                }
            }
        }
        let written = S::write_checkpoint(store, id, step, &grid);
        self.give_back(grid);
        let bytes = written.map_err(|e| Error::InvalidArg(format!("checkpoint write: {e}")))?;
        ctx.disk_write(bytes);
        Ok(())
    }

    /// Drain the async checkpoint queue if this rank runs one (group
    /// roots under CR with `ckpt_async`); a no-op everywhere else. Called
    /// before every checkpoint restore and at end of run, so a restart
    /// only ever sees fully landed files and the store can be cleared
    /// safely. Only the started writes land: a queued snapshot is
    /// superseded, unwritten and uncharged, and a restore reads the write
    /// that was in flight and recomputes from its step.
    pub(crate) fn drain(&mut self, ctx: &Ctx) -> Result<()> {
        match &mut self.writer {
            Some(ck) => {
                S::drain(ck, ctx).map_err(|e| Error::InvalidArg(format!("checkpoint drain: {e}")))
            }
            None => Ok(()),
        }
    }

    /// The landing grid at `level`: a snapshot buffer while the writer
    /// stage is usable, the rank's own grid otherwise.
    fn take(&mut self, level: &Level<S>) -> S::Grid {
        if let Some(ck) = self.writer.as_mut() {
            match S::take_buffer(ck, level) {
                Ok(grid) => return grid,
                Err(_) => self.degrade(),
            }
        }
        match self.own.take() {
            Some(mut grid) => {
                grid.reshape(level);
                grid
            }
            None => S::Grid::zeros(level),
        }
    }

    /// A grid from [`take`](Self::take), back to where it came from.
    fn give_back(&mut self, grid: S::Grid) {
        match self.writer.as_mut() {
            Some(ck) => S::give_back(ck, grid),
            None => self.own = Some(grid),
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
}
