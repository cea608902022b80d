//! The distributed Lax–Wendroff solver: one process group per sub-grid,
//! 2D block domain decomposition, halo exchange over the simulated MPI
//! runtime.
//!
//! The periodic fundamental domain of sub-grid `(i, j)` has `2^i × 2^j`
//! distinct nodes (node `2^i` duplicates node 0). Each group member owns a
//! contiguous block and keeps it inside a one-cell halo-padded buffer; a
//! step is a two-phase halo exchange (y edges first, then x edges carrying
//! the freshly filled y-halos so corners arrive for the cross term) and
//! one stencil application via [`advect2d::laxwendroff::lax_wendroff_kernel`].

use advect2d::laxwendroff::{lax_wendroff_row, lw_row_fn, LwCoef};
use advect2d::stepper::PaddedField;
use advect2d::{AdvectionProblem, KernelConfig};
use sparsegrid::{ensure_len, LevelPair};
use ulfm_sim::{waitall, Comm, Ctx, Result};

use crate::gather::{BlockRows, BlockRowsMut};
use crate::layout::GroupInfo;

/// Halo-exchange message tags (runtime-reserved range is negative, so any
/// positive values work; these only need to be distinct per direction).
const TAG_N: i32 = 101;
const TAG_S: i32 = 102;
const TAG_E: i32 = 103;
const TAG_W: i32 = 104;

/// The contiguous index range owned by block `b` of `parts` over `n`
/// items: standard balanced split.
pub fn block_range(n: usize, parts: usize, b: usize) -> (usize, usize) {
    debug_assert!(b < parts);
    let start = b * n / parts;
    let end = (b + 1) * n / parts;
    (start, end - start)
}

/// One rank's share of a distributed sub-grid solve.
#[derive(Debug, Clone)]
pub struct DistributedSolver {
    problem: AdvectionProblem,
    level: LevelPair,
    dt: f64,
    coef: LwCoef,
    px: usize,
    py: usize,
    pi: usize,
    pj: usize,
    x0: usize,
    y0: usize,
    lnx: usize,
    lny: usize,
    field: PaddedField,
    send_buf: Vec<f64>,
    recv_buf: Vec<f64>,
    /// Second receive buffer so both directions of a halo axis can have
    /// nonblocking receives posted at once.
    recv_buf2: Vec<f64>,
    steps_done: u64,
    /// The step after which the field's spare buffer is released.
    last_step: Option<u64>,
    /// Kernel formulation for the stencil sweeps. Both formulations are
    /// bitwise-identical; see `advect2d::simd`.
    kernel: KernelConfig,
}

impl DistributedSolver {
    /// Initialize this rank's block from the problem's initial condition.
    pub fn new(
        problem: AdvectionProblem,
        level: LevelPair,
        dt: f64,
        info: &GroupInfo,
        local_rank: usize,
    ) -> Self {
        assert!(local_rank < info.size);
        let nx_glob = 1usize << level.i;
        let ny_glob = 1usize << level.j;
        let pi = local_rank % info.px;
        let pj = local_rank / info.px;
        let (x0, lnx) = block_range(nx_glob, info.px, pi);
        let (y0, lny) = block_range(ny_glob, info.py, pj);
        assert!(lnx >= 1 && lny >= 1, "empty block: {info:?} rank {local_rank}");
        let hx = 1.0 / nx_glob as f64;
        let hy = 1.0 / ny_glob as f64;
        let coef = LwCoef::new(&problem, hx, hy, dt);
        let mut s = DistributedSolver {
            problem,
            level,
            dt,
            coef,
            px: info.px,
            py: info.py,
            pi,
            pj,
            x0,
            y0,
            lnx,
            lny,
            field: PaddedField::new(lnx, lny),
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
            recv_buf2: Vec::new(),
            steps_done: 0,
            last_step: None,
            kernel: KernelConfig::global(),
        };
        s.reset_to_initial();
        s
    }

    /// Replace the kernel formulation; results are bitwise-identical in
    /// both, only speed changes.
    pub fn with_kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// The solve ends at step `steps`: committing that step releases the
    /// field's spare buffer, which only a recovery that rewinds this
    /// solver steps with again (its next step re-creates it). Without
    /// this, the spare is kept.
    pub fn with_last_step(mut self, steps: u64) -> Self {
        self.last_step = Some(steps);
        self
    }

    /// Refill the block from the initial condition and rewind the step
    /// counter. The condition is separable
    /// ([`AdvectionProblem::initial_x`]), so it is tabulated once per
    /// column and once per row and multiplied out, not evaluated per
    /// cell.
    pub fn reset_to_initial(&mut self) {
        let nx_glob = (1usize << self.level.i) as f64;
        let ny_glob = (1usize << self.level.j) as f64;
        let fx: Vec<f64> = (self.x0..self.x0 + self.lnx)
            .map(|gx| self.problem.initial_x(gx as f64 / nx_glob))
            .collect();
        let pnx = self.lnx + 2;
        let padded = self.field.padded_mut();
        for m in 0..self.lny {
            let fy = self.problem.initial_y((self.y0 + m) as f64 / ny_glob);
            let row = &mut padded[(m + 1) * pnx + 1..][..self.lnx];
            for (v, &f) in row.iter_mut().zip(&fx) {
                *v = f * fy;
            }
        }
        self.steps_done = 0;
    }

    /// Group rank of the process-grid neighbour at offset `(dx, dy)`,
    /// wrapping periodically (domain periodicity = process-grid wrap,
    /// since the blocks tile the fundamental domain).
    fn neighbor(&self, dx: isize, dy: isize) -> usize {
        let ni = (self.pi as isize + dx).rem_euclid(self.px as isize) as usize;
        let nj = (self.pj as isize + dy).rem_euclid(self.py as isize) as usize;
        nj * self.px + ni
    }

    /// Two-phase halo exchange over the group communicator.
    ///
    /// Allocation-free: interior rows are sent straight from the padded
    /// buffer (they are contiguous), columns are packed into a reused
    /// scratch vector, and all four receives land in a reused buffer via
    /// [`Comm::sendrecv_into`].
    fn halo_exchange(&mut self, ctx: &Ctx, group: &Comm) -> Result<()> {
        let pnx = self.lnx + 2;
        let (lnx, lny) = (self.lnx, self.lny);
        // Phase 1: y direction (interior rows only). Rows are contiguous
        // slices of the padded buffer — no packing needed.
        let north = self.neighbor(0, 1);
        let south = self.neighbor(0, -1);
        // Send up, receive from below (both tagged N for the northward
        // stream), and vice versa.
        let n = group.sendrecv_into(
            ctx,
            north,
            TAG_N,
            self.field.interior_row(lny - 1),
            south,
            TAG_N,
            &mut self.recv_buf,
        )?;
        debug_assert_eq!(n, lnx);
        self.field.padded_mut()[1..1 + lnx].copy_from_slice(&self.recv_buf[..lnx]);
        let n = group.sendrecv_into(
            ctx,
            south,
            TAG_S,
            self.field.interior_row(0),
            north,
            TAG_S,
            &mut self.recv_buf,
        )?;
        debug_assert_eq!(n, lnx);
        self.field.padded_mut()[(lny + 1) * pnx + 1..][..lnx]
            .copy_from_slice(&self.recv_buf[..lnx]);
        // Phase 2: x direction, full padded height so corners propagate.
        let east = self.neighbor(1, 0);
        let west = self.neighbor(-1, 0);
        ensure_len(&mut self.send_buf, lny + 2);
        for m in 0..lny + 2 {
            self.send_buf[m] = self.field.padded()[m * pnx + lnx];
        }
        let n = group.sendrecv_into(
            ctx,
            east,
            TAG_E,
            &self.send_buf,
            west,
            TAG_E,
            &mut self.recv_buf,
        )?;
        debug_assert_eq!(n, lny + 2);
        {
            let padded = self.field.padded_mut();
            for m in 0..lny + 2 {
                padded[m * pnx] = self.recv_buf[m];
            }
        }
        for m in 0..lny + 2 {
            self.send_buf[m] = self.field.padded()[m * pnx + 1];
        }
        let n = group.sendrecv_into(
            ctx,
            west,
            TAG_W,
            &self.send_buf,
            east,
            TAG_W,
            &mut self.recv_buf,
        )?;
        debug_assert_eq!(n, lny + 2);
        {
            let padded = self.field.padded_mut();
            for m in 0..lny + 2 {
                padded[m * pnx + lnx + 1] = self.recv_buf[m];
            }
        }
        Ok(())
    }

    /// Advance one timestep with communication–computation overlap:
    /// post the y-direction halo ring nonblocking, compute the deep
    /// interior (no halo dependence) while the rows fly, complete and
    /// install them, post the x-direction ring (full padded height — the
    /// packed columns carry the freshly installed y-halos so corners
    /// propagate), compute the north/south boundary rows, complete, and
    /// finish the east/west boundary columns. Every cell evaluates the
    /// exact expression of [`step_blocking`], just in a different order of
    /// disjoint regions, so the result is **bitwise equal** to the
    /// blocking reference — while the halo flight time is hidden behind
    /// the interior stencil (`max(compute, exposed_comm)` instead of
    /// their sum on the virtual clock).
    ///
    /// Errors with `ProcFailed` if a halo partner has died — all posted
    /// requests are still driven to completion by `waitall` first, so a
    /// mid-step death surfaces uniformly and never wedges a survivor. The
    /// group is then *broken* and must be data-recovered as a whole
    /// (§II-D).
    ///
    /// [`step_blocking`]: DistributedSolver::step_blocking
    pub fn step(&mut self, ctx: &Ctx, group: &Comm) -> Result<()> {
        let (lnx, lny) = (self.lnx, self.lny);
        let pnx = lnx + 2;
        let coef = self.coef;
        let north = self.neighbor(0, 1);
        let south = self.neighbor(0, -1);
        let east = self.neighbor(1, 0);
        let west = self.neighbor(-1, 0);
        let row = lw_row_fn(self.kernel.kind);
        let DistributedSolver { field, send_buf, recv_buf, recv_buf2, .. } = self;
        let kernel =
            move |s: &[f64], c: &[f64], n: &[f64], out: &mut [f64]| row(s, c, n, &coef, out);

        // Phase 1: y direction (interior rows, contiguous — no packing).
        // Eager sends copy at post time, so the field stays free for the
        // stencil while the requests are in flight.
        let mut ry = [
            group.isend(ctx, north, TAG_N, field.interior_row(lny - 1))?,
            group.isend(ctx, south, TAG_S, field.interior_row(0))?,
            group.irecv_into(ctx, south, TAG_N, recv_buf)?,
            group.irecv_into(ctx, north, TAG_S, recv_buf2)?,
        ];
        // Deep interior: needs no halo at all. This is the bulk of the
        // compute that hides the halo flight time.
        field.step_region(1, lny.saturating_sub(1), 1, lnx.saturating_sub(1), kernel);
        ctx.compute_step_cells((lny.saturating_sub(2) * lnx.saturating_sub(2)) as u64);
        waitall(ctx, &mut ry)?;
        debug_assert_eq!(recv_buf.len(), lnx);
        field.padded_mut()[1..1 + lnx].copy_from_slice(&recv_buf[..lnx]);
        field.padded_mut()[(lny + 1) * pnx + 1..][..lnx].copy_from_slice(&recv_buf2[..lnx]);

        // Phase 2: x direction, full padded height so corners propagate.
        // One scratch buffer serves both packs: the eager isend has
        // copied the first column before the second overwrites it.
        ensure_len(send_buf, lny + 2);
        for (m, v) in send_buf.iter_mut().enumerate() {
            *v = field.padded()[m * pnx + lnx];
        }
        let re = group.isend(ctx, east, TAG_E, send_buf)?;
        for (m, v) in send_buf.iter_mut().enumerate() {
            *v = field.padded()[m * pnx + 1];
        }
        let rw = group.isend(ctx, west, TAG_W, send_buf)?;
        let mut rx = [
            re,
            rw,
            group.irecv_into(ctx, west, TAG_E, recv_buf)?,
            group.irecv_into(ctx, east, TAG_W, recv_buf2)?,
        ];
        // North/south boundary rows need only the y-halos just installed.
        field.step_region(0, 1, 1, lnx.saturating_sub(1), kernel);
        if lny > 1 {
            field.step_region(lny - 1, lny, 1, lnx.saturating_sub(1), kernel);
        }
        let edge_rows = if lny > 1 { 2 } else { 1 };
        ctx.compute_step_cells((edge_rows * lnx.saturating_sub(2)) as u64);
        waitall(ctx, &mut rx)?;
        debug_assert_eq!(recv_buf.len(), lny + 2);
        {
            let padded = field.padded_mut();
            for m in 0..lny + 2 {
                padded[m * pnx] = recv_buf[m];
                padded[m * pnx + lnx + 1] = recv_buf2[m];
            }
        }
        // East/west boundary columns complete the ring.
        field.step_region(0, lny, 0, 1, kernel);
        if lnx > 1 {
            field.step_region(0, lny, lnx - 1, lnx, kernel);
        }
        let edge_cols = if lnx > 1 { 2 } else { 1 };
        ctx.compute_step_cells((edge_cols * lny) as u64);
        self.commit_step();
        Ok(())
    }

    /// The blocking reference step (halo exchange, then the whole
    /// stencil): kept in-tree as the bitwise oracle for [`step`] and as
    /// the serial baseline the overlap benchmarks compare against.
    ///
    /// [`step`]: DistributedSolver::step
    pub fn step_blocking(&mut self, ctx: &Ctx, group: &Comm) -> Result<()> {
        self.halo_exchange(ctx, group)?;
        let coef = self.coef;
        self.field.step_region(0, self.lny, 0, self.lnx, |s, c, n, out| {
            lax_wendroff_row(s, c, n, &coef, out)
        });
        ctx.compute_step_cells((self.lnx * self.lny) as u64);
        self.commit_step();
        Ok(())
    }

    /// Swap the step's output in and count it; the solve's last step
    /// also releases the spare buffer.
    fn commit_step(&mut self) {
        self.field.commit_step();
        self.steps_done += 1;
        if Some(self.steps_done) == self.last_step {
            self.field.release_spare();
        }
    }

    /// Run `n` steps.
    pub fn run(&mut self, ctx: &Ctx, group: &Comm, n: u64) -> Result<()> {
        for _ in 0..n {
            self.step(ctx, group)?;
        }
        Ok(())
    }

    /// The owned interior block, row-major `lnx × lny`.
    pub fn local_block(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.local_block_into(&mut out);
        out
    }

    /// Copy the owned interior block into a reused buffer (cleared
    /// first) — the allocation-free form of [`local_block`].
    ///
    /// [`local_block`]: DistributedSolver::local_block
    pub fn local_block_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.block_len());
        self.for_each_row(&mut |row| out.extend_from_slice(row));
    }

    /// Set the step counter: the block was loaded in place (a scatter
    /// into [`BlockRowsMut`]) with the state after `steps_done` steps.
    pub fn set_steps_done(&mut self, steps_done: u64) {
        self.steps_done = steps_done;
    }

    /// Block geometry: `(x0, y0, lnx, lny)` in fundamental-domain nodes.
    pub fn block_geometry(&self) -> (usize, usize, usize, usize) {
        (self.x0, self.y0, self.lnx, self.lny)
    }

    /// Steps taken so far.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// The sub-grid level.
    pub fn level(&self) -> LevelPair {
        self.level
    }

    /// The fixed timestep.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The PDE.
    pub fn problem(&self) -> &AdvectionProblem {
        &self.problem
    }
}

/// The owned interior block, row by row where it lies in the padded field.
impl BlockRows for DistributedSolver {
    fn block_len(&self) -> usize {
        self.lnx * self.lny
    }
    fn for_each_row(&self, put: &mut dyn FnMut(&[f64])) {
        for m in 0..self.lny {
            put(self.field.interior_row(m));
        }
    }
}

impl BlockRowsMut for DistributedSolver {
    fn for_each_row_mut(&mut self, put: &mut dyn FnMut(&mut [f64])) {
        let (lnx, pnx) = (self.lnx, self.lnx + 2);
        let padded = self.field.padded_mut();
        for m in 0..self.lny {
            put(&mut padded[(m + 1) * pnx + 1..][..lnx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_partitions_exactly() {
        for (n, parts) in [(16, 4), (17, 4), (8, 3), (1024, 8), (5, 5)] {
            let mut total = 0;
            let mut next = 0;
            for b in 0..parts {
                let (s, len) = block_range(n, parts, b);
                assert_eq!(s, next);
                assert!(len >= 1, "empty block n={n} parts={parts} b={b}");
                next = s + len;
                total += len;
            }
            assert_eq!(total, n);
        }
    }

    #[test]
    fn local_block_roundtrip() {
        let info = GroupInfo { grid: 0, first: 0, size: 1, px: 1, py: 1 };
        let p = AdvectionProblem::standard();
        let mut s = DistributedSolver::new(p, LevelPair::new(3, 3), 0.01, &info, 0);
        let block = s.local_block();
        assert_eq!(block.len(), 64);
        let mut modified = block.clone();
        modified[10] = 99.0;
        let mut src = modified.as_slice();
        s.for_each_row_mut(&mut |row| {
            let (head, rest) = src.split_at(row.len());
            row.copy_from_slice(head);
            src = rest;
        });
        s.set_steps_done(7);
        assert_eq!(s.local_block(), modified);
        assert_eq!(s.steps_done(), 7);
    }

    #[test]
    fn initial_block_matches_ic() {
        let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
        let p = AdvectionProblem::standard();
        let s = DistributedSolver::new(p, LevelPair::new(4, 4), 0.01, &info, 3);
        let (x0, y0, lnx, lny) = s.block_geometry();
        assert_eq!((x0, y0), (8, 8)); // rank 3 = (pi=1, pj=1)
        let block = s.local_block();
        let ic = p.initial();
        for m in 0..lny {
            for k in 0..lnx {
                let x = (x0 + k) as f64 / 16.0;
                let y = (y0 + m) as f64 / 16.0;
                assert!((block[m * lnx + k] - ic(x, y)).abs() < 1e-15);
            }
        }
    }
}
