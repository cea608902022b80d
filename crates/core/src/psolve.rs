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
//!
//! The padded field is the only halo storage a rank keeps, as in MPI's
//! own idiom of receiving into the ghost plane (`MPI_Irecv(&A[nrow+1][0],
//! …)`): every halo is received straight into its ghost row or column
//! ([`ulfm_sim::Request::wait_with`]) and sent straight from where it
//! lies — a row as one slice, a column element by element into the
//! pooled wire buffer ([`ulfm_sim::Comm::isend_with`]). A warm step makes
//! no allocator request, and neither does a fresh solver's first one once
//! its communicator's buffer pool is warm.

use advect2d::laxwendroff::{lax_wendroff_row, lw_row_fn, LwCoef};
use advect2d::stepper::PaddedField;
use advect2d::{AdvectionProblem, KernelConfig};
use sparsegrid::LevelPair;
use ulfm_sim::{waitall_with, Comm, Ctx, Error, Result};

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
    /// cell. The column factors are tabulated in the block's first
    /// interior row, which every other row is written from before it is
    /// scaled itself: each cell is the same product, and no table is
    /// allocated.
    pub fn reset_to_initial(&mut self) {
        let nx_glob = (1usize << self.level.i) as f64;
        let ny_glob = (1usize << self.level.j) as f64;
        let (lnx, pnx, problem) = (self.lnx, self.lnx + 2, &self.problem);
        let fy = |m: usize| problem.initial_y((self.y0 + m) as f64 / ny_glob);
        // Padded rows 0 and 1, then padded rows 2.. (interior rows 1..).
        let (head, rest) = self.field.padded_mut().split_at_mut(2 * pnx);
        let fx = &mut head[pnx + 1..][..lnx];
        for (f, gx) in fx.iter_mut().zip(self.x0..) {
            *f = problem.initial_x(gx as f64 / nx_glob);
        }
        for m in 1..self.lny {
            let fy = fy(m);
            let row = &mut rest[(m - 1) * pnx + 1..][..lnx];
            for (v, &f) in row.iter_mut().zip(fx.iter()) {
                *v = f * fy;
            }
        }
        let fy = fy(0);
        fx.iter_mut().for_each(|f| *f *= fy);
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

    /// Two-phase halo exchange over the group communicator, blocking.
    ///
    /// Interior rows are sent straight from the padded buffer and
    /// received straight into its ghost rows (they are contiguous);
    /// columns go through a local vector, packed to send and decoded to
    /// unpack. The overlapped [`step`](Self::step) needs no such vector.
    fn halo_exchange(&mut self, ctx: &Ctx, group: &Comm) -> Result<()> {
        let pnx = self.lnx + 2;
        let (lnx, lny) = (self.lnx, self.lny);
        let (north, south) = (self.neighbor(0, 1), self.neighbor(0, -1));
        let (east, west) = (self.neighbor(1, 0), self.neighbor(-1, 0));
        let field = &mut self.field;
        // Phase 1: y direction (interior rows only). Send up, receive
        // from below (both tagged N for the northward stream), and vice
        // versa.
        group.send(ctx, north, TAG_N, field.interior_row(lny - 1))?;
        group.recv_onto(ctx, south, TAG_N, &mut field.padded_mut()[1..1 + lnx])?;
        group.send(ctx, south, TAG_S, field.interior_row(0))?;
        group.recv_onto(
            ctx,
            north,
            TAG_S,
            &mut field.padded_mut()[(lny + 1) * pnx + 1..][..lnx],
        )?;
        // Phase 2: x direction, full padded height so corners propagate.
        let mut col = Vec::with_capacity(lny + 2);
        for (x, ghost, dest, src, tag) in
            [(lnx, 0, east, west, TAG_E), (1, lnx + 1, west, east, TAG_W)]
        {
            col.clear();
            col.extend(field.padded()[x..].iter().step_by(pnx));
            group.send(ctx, dest, tag, &col)?;
            if group.recv_into(ctx, src, tag, &mut col)? != lny + 2 {
                return Err(Error::InvalidArg(format!(
                    "halo column of {} values, expected {}",
                    col.len(),
                    lny + 2
                )));
            }
            for (v, &c) in field.padded_mut()[ghost..].iter_mut().step_by(pnx).zip(&col) {
                *v = c;
            }
        }
        Ok(())
    }

    /// Advance one timestep with communication–computation overlap:
    /// post the y-direction halo ring nonblocking, compute the deep
    /// interior (no halo dependence) while the rows fly, complete the
    /// receives straight into the ghost rows, post the x-direction ring
    /// (full padded height — the columns carry the freshly received
    /// y-halos so corners propagate), compute the north/south boundary
    /// rows, complete the receives straight into the ghost columns, and
    /// finish the east/west boundary columns. Every cell evaluates the
    /// exact expression of [`step_blocking`], just in a different order of
    /// disjoint regions, so the result is **bitwise equal** to the
    /// blocking reference — while the halo flight time is hidden behind
    /// the interior stencil (`max(compute, exposed_comm)` instead of
    /// their sum on the virtual clock).
    ///
    /// No halo is staged: rows are sent from and received into the padded
    /// field where they lie, and each column is pushed element by element
    /// into its pooled wire buffer ([`Comm::isend_with`]) and read element
    /// by element off the wire into its ghost column
    /// ([`ulfm_sim::Request::wait_with`]). A halo of the wrong length is
    /// an `InvalidArg` that writes nothing into the field.
    ///
    /// Errors with `ProcFailed` if a halo partner has died — all posted
    /// requests are still driven to completion by `waitall_with` first, so
    /// a mid-step death surfaces uniformly and never wedges a survivor.
    /// The group is then *broken* and must be data-recovered as a whole
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
        let field = &mut self.field;
        let kernel =
            move |s: &[f64], c: &[f64], n: &[f64], out: &mut [f64]| row(s, c, n, &coef, out);

        // Phase 1: y direction (interior rows, contiguous — no packing).
        // Eager sends copy at post time, so the field stays free for the
        // stencil while the requests are in flight.
        let mut ry = [
            group.isend(ctx, north, TAG_N, field.interior_row(lny - 1))?,
            group.isend(ctx, south, TAG_S, field.interior_row(0))?,
            group.irecv(ctx, south, TAG_N)?,
            group.irecv(ctx, north, TAG_S)?,
        ];
        // Deep interior: needs no halo at all. This is the bulk of the
        // compute that hides the halo flight time.
        field.step_region(1, lny.saturating_sub(1), 1, lnx.saturating_sub(1), kernel);
        ctx.compute_step_cells((lny.saturating_sub(2) * lnx.saturating_sub(2)) as u64);
        // Receive 2 (from the south) lands in ghost row 0, receive 3 in
        // ghost row lny + 1.
        waitall_with(ctx, &mut ry, |i, wire| {
            let ghost = if i == 2 { 0 } else { lny + 1 };
            wire.read_onto(&mut field.padded_mut()[ghost * pnx + 1..][..lnx])
        })?;

        // Phase 2: x direction, full padded height so corners propagate.
        let mut rx = [
            group.isend_with(ctx, east, TAG_E, lny + 2, |put| put_column(field, lnx, put))?,
            group.isend_with(ctx, west, TAG_W, lny + 2, |put| put_column(field, 1, put))?,
            group.irecv(ctx, west, TAG_E)?,
            group.irecv(ctx, east, TAG_W)?,
        ];
        // North/south boundary rows need only the y-halos just received.
        field.step_region(0, 1, 1, lnx.saturating_sub(1), kernel);
        if lny > 1 {
            field.step_region(lny - 1, lny, 1, lnx.saturating_sub(1), kernel);
        }
        let edge_rows = if lny > 1 { 2 } else { 1 };
        ctx.compute_step_cells((edge_rows * lnx.saturating_sub(2)) as u64);
        // Receive 2 (from the west) lands in ghost column 0, receive 3 in
        // ghost column lnx + 1.
        waitall_with(ctx, &mut rx, |i, wire| {
            wire.expect_len(lny + 2)?;
            let ghost = if i == 2 { 0 } else { lnx + 1 };
            for (v, w) in field.padded_mut()[ghost..].iter_mut().step_by(pnx).zip(wire.iter()) {
                *v = w;
            }
            Ok(())
        })?;
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

/// Push padded column `x` of `field`, full padded height, element by
/// element: an east/west halo as it lies in the field.
fn put_column(field: &PaddedField, x: usize, put: &mut dyn FnMut(&[f64])) {
    for v in field.padded()[x..].iter().step_by(field.pnx()) {
        put(std::slice::from_ref(v));
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
    use ulfm_sim::{run, RunConfig};

    #[test]
    fn a_halo_of_the_wrong_length_is_an_error_that_writes_no_ghost() {
        // A 2×1 group: rank 0 steps, rank 1 stands in for its east/west
        // neighbour and sends columns one value short.
        let report = run(RunConfig::local(2), |ctx| {
            let w = ctx.initial_world().unwrap();
            let info = GroupInfo { grid: 0, first: 0, size: 2, px: 2, py: 1 };
            let p = AdvectionProblem::standard();
            let mut s = DistributedSolver::new(p, LevelPair::new(3, 3), 0.01, &info, w.rank());
            let (lnx, lny) = (s.lnx, s.lny);
            if w.rank() == 1 {
                w.send(ctx, 0, TAG_E, &vec![1.0f64; lny + 1]).unwrap();
                w.send(ctx, 0, TAG_W, &vec![1.0f64; lny + 1]).unwrap();
                return;
            }
            let ghosts = |s: &DistributedSolver| -> Vec<f64> {
                let pnx = lnx + 2;
                let col = |x: usize| s.field.padded()[x..].iter().step_by(pnx).copied();
                col(0).chain(col(lnx + 1)).collect()
            };
            let before = ghosts(&s);
            let err = s.step(ctx, &w).unwrap_err();
            assert!(matches!(err, Error::InvalidArg(_)), "{err}");
            assert_eq!(ghosts(&s), before, "no ghost column written");
            assert_eq!(s.steps_done(), 0);
            ctx.report_f64("checked", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("checked"), Some(1.0));
    }

    /// The block's interior as the initial condition tabulated into a
    /// column table and multiplied out row by row: the form
    /// `reset_to_initial` is held to.
    fn tabulated_initial(s: &DistributedSolver) -> Vec<f64> {
        let nx_glob = (1usize << s.level.i) as f64;
        let ny_glob = (1usize << s.level.j) as f64;
        let fx: Vec<f64> =
            (s.x0..s.x0 + s.lnx).map(|gx| s.problem.initial_x(gx as f64 / nx_glob)).collect();
        let mut cells = Vec::new();
        for m in 0..s.lny {
            let fy = s.problem.initial_y((s.y0 + m) as f64 / ny_glob);
            cells.extend(fx.iter().map(|&f| f * fy));
        }
        cells
    }

    #[test]
    fn the_initial_condition_is_the_tabulated_one_bit_for_bit() {
        // Ragged blocks, one column wide (lnx = 1) and one row high
        // (lny = 1) among them.
        let shapes =
            [((3, 2), 3, 4), ((2, 3), 4, 3), ((4, 4), 3, 5), ((5, 3), 2, 2), ((2, 2), 1, 1)];
        let p = AdvectionProblem::standard();
        let (mut thin, mut flat) = (false, false);
        for ((i, j), px, py) in shapes {
            let info = GroupInfo { grid: 0, first: 0, size: px * py, px, py };
            for rank in 0..info.size {
                let mut s = DistributedSolver::new(p, LevelPair::new(i, j), 0.01, &info, rank);
                (thin, flat) = (thin || s.lnx == 1, flat || s.lny == 1);
                let cells = |s: &DistributedSolver| -> Vec<u64> {
                    (0..s.lny)
                        .flat_map(|m| s.field.interior_row(m).iter().map(|v| v.to_bits()))
                        .collect()
                };
                let want: Vec<u64> = tabulated_initial(&s).iter().map(|v| v.to_bits()).collect();
                assert_eq!(cells(&s), want, "level ({i}, {j}) {px}x{py} rank {rank}");
                // A reset over stepped values lands the same bits.
                s.field.padded_mut().iter_mut().for_each(|v| *v = f64::NAN);
                s.steps_done = 3;
                s.reset_to_initial();
                assert_eq!(cells(&s), want, "reset: level ({i}, {j}) {px}x{py} rank {rank}");
                assert_eq!(s.steps_done(), 0);
            }
        }
        assert!(thin && flat, "no block was one column wide and one row high");
    }

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
