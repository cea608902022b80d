//! The distributed d-dimensional solver: one process group per sub-grid,
//! slab decomposition along the last axis, plane halo exchange over the
//! simulated MPI runtime.
//!
//! The periodic fundamental domain of sub-grid `l` has `∏ 2^{l_i}`
//! distinct nodes. Each group member owns a contiguous run of hyperplanes
//! along the last axis inside a one-cell halo-padded buffer; a step wraps
//! the transverse axes periodically (the slab owns them entirely), then
//! exchanges the two boundary planes with the ring neighbours — each one
//! contiguous slice of the padded buffer, sent from where it lies and
//! received straight into the halo plane (planes `0` and `lnz + 1`), so a
//! rank keeps no halo storage besides its field — and applies the problem's
//! [`StencilN`] row by row ([`PaddedFieldN::step_rows`]): no allocation
//! and one kernel dispatch per contiguous axis-0 row.
//! Like the 2D [`crate::psolve::DistributedSolver`], the overlapped
//! [`step`](DistributedSolverN::step) computes the deep interior while
//! the planes fly and is **bitwise equal** to the blocking reference
//! [`step_blocking`](DistributedSolverN::step_blocking) (which always
//! runs the scalar row loop), which in turn is bitwise equal to the
//! single-owner [`advect2d::ndsolve::SolverN`].

use advect2d::ndfield::PaddedFieldN;
use advect2d::ndproblem::ProblemN;
use advect2d::ndsolve::StencilN;
use advect2d::{KernelConfig, KernelKind};
use sparsegrid::LevelVecN;
use ulfm_sim::{waitall_with, Comm, Ctx, Result};

use crate::gather::{BlockRows, BlockRowsMut};
use crate::layout_nd::GroupInfoN;
use crate::psolve::block_range;

/// Halo-plane message tags (distinct from the 2D solver's 101–104 only
/// for readability; the comms never share a communicator).
const TAG_UP: i32 = 111;
const TAG_DOWN: i32 = 112;

/// One rank's share of a distributed d-dimensional sub-grid solve.
pub struct DistributedSolverN {
    problem: ProblemN,
    level: LevelVecN,
    dt: f64,
    size: usize,
    slab: usize,
    z0: usize,
    lnz: usize,
    field: PaddedFieldN,
    stencil: StencilN,
    kind: KernelKind,
    steps_done: u64,
    /// The step after which the field's spare buffer is released.
    last_step: Option<u64>,
}

impl DistributedSolverN {
    /// Initialize this rank's slab from the problem's initial condition.
    pub fn new(
        problem: ProblemN,
        level: &[u32],
        dt: f64,
        info: &GroupInfoN,
        local_rank: usize,
    ) -> Self {
        assert!(local_rank < info.size, "local rank {local_rank} beyond group {info:?}");
        assert_eq!(problem.dim(), level.len(), "problem/level dimension mismatch");
        let d = level.len();
        let np: Vec<usize> = level.iter().map(|&l| 1usize << l).collect();
        let (z0, lnz) = block_range(np[d - 1], info.size, local_rank);
        assert!(lnz >= 1, "empty slab: {info:?} rank {local_rank}");
        let mut shape = np.clone();
        shape[d - 1] = lnz;
        let field = PaddedFieldN::new(&shape);
        let stencil = StencilN::for_slab(&problem, &field, z0, &np, dt);
        let mut s = DistributedSolverN {
            problem,
            level: LevelVecN::new(level),
            dt,
            size: info.size,
            slab: local_rank,
            z0,
            lnz,
            field,
            stencil,
            kind: KernelConfig::global().kind,
            steps_done: 0,
            last_step: None,
        };
        s.reset_to_initial();
        s
    }

    /// Replace the row-kernel formulation (results are bit-identical
    /// either way).
    pub fn with_kernel(mut self, kernel: KernelConfig) -> Self {
        self.kind = kernel.kind;
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

    /// Refill the slab from the initial condition and rewind the step
    /// counter. The condition is separable ([`ProblemN::initial`]), so
    /// it is tabulated once per axis node — the scale folded into axis
    /// 0's table — and multiplied out, not evaluated per cell.
    pub fn reset_to_initial(&mut self) {
        let last = self.level.len() - 1;
        let mut tables = Vec::with_capacity(self.field.shape().iter().sum());
        for (i, (&n, &l)) in self.field.shape().iter().zip(&self.level).enumerate() {
            let np = (1usize << l) as f64;
            let first = if i == last { self.z0 } else { 0 };
            tables
                .extend((first..first + n).map(|g| self.problem.initial_factor(i, g as f64 / np)));
        }
        let scale = self.problem.initial_scale();
        tables[..self.field.shape()[0]].iter_mut().for_each(|f| *f *= scale);
        self.field.fill_separable(&tables);
        self.steps_done = 0;
    }

    /// Interior cells of one hyperplane (the transverse extent).
    fn plane_cells(&self) -> usize {
        self.field.shape()[..self.field.dim() - 1].iter().product()
    }

    /// Advance one timestep with communication–computation overlap: wrap
    /// the transverse halo, post the two boundary-plane sends and halo
    /// receives nonblocking, compute the deep interior planes while they
    /// fly, complete the receives straight into the halo planes (a plane
    /// of the wrong length is an `InvalidArg` that writes nothing), then
    /// compute the two boundary planes. Every cell evaluates the exact
    /// expression of [`step_blocking`](Self::step_blocking) in a
    /// different order of disjoint plane ranges, so the result is
    /// **bitwise equal**.
    ///
    /// Errors with `ProcFailed` if a ring partner has died — all posted
    /// requests are driven to completion by `waitall_with` first, so a
    /// mid-step death surfaces uniformly and never wedges a survivor.
    pub fn step(&mut self, ctx: &Ctx, group: &Comm) -> Result<()> {
        let lnz = self.lnz;
        let plane_cells = self.plane_cells();
        let up = (self.slab + 1) % self.size;
        let down = (self.slab + self.size - 1) % self.size;
        self.field.wrap_transverse_halo();
        let DistributedSolverN { field, stencil, kind, .. } = self;
        let row = |cur: &[f64], off: usize, out: &mut [f64]| stencil.row(*kind, cur, off, out);
        // Eager sends copy at post time, so the field stays free for the
        // stencil while the requests are in flight.
        let mut reqs = [
            group.isend(ctx, up, TAG_UP, field.plane(lnz))?,
            group.isend(ctx, down, TAG_DOWN, field.plane(1))?,
            group.irecv(ctx, down, TAG_UP)?,
            group.irecv(ctx, up, TAG_DOWN)?,
        ];
        // Deep interior planes need no external halo.
        field.step_rows(1, lnz.saturating_sub(1), row);
        ctx.compute_step_cells((plane_cells * lnz.saturating_sub(2)) as u64);
        // Receive 2 (from below) lands in plane 0, receive 3 in lnz + 1.
        waitall_with(ctx, &mut reqs, |i, wire| {
            wire.read_onto(field.plane_mut(if i == 2 { 0 } else { lnz + 1 }))
        })?;
        // Boundary planes complete the cover.
        field.step_rows(0, 1, row);
        if lnz > 1 {
            field.step_rows(lnz - 1, lnz, row);
        }
        ctx.compute_step_cells((plane_cells * lnz.min(2)) as u64);
        self.commit_step();
        Ok(())
    }

    /// The blocking reference step (halo exchange, then the whole
    /// stencil with the scalar row loop): kept in-tree as the bitwise
    /// oracle for [`step`](Self::step).
    pub fn step_blocking(&mut self, ctx: &Ctx, group: &Comm) -> Result<()> {
        let lnz = self.lnz;
        let up = (self.slab + 1) % self.size;
        let down = (self.slab + self.size - 1) % self.size;
        self.field.wrap_transverse_halo();
        let DistributedSolverN { field, stencil, .. } = self;
        group.send(ctx, up, TAG_UP, field.plane(lnz))?;
        group.recv_onto(ctx, down, TAG_UP, field.plane_mut(0))?;
        group.send(ctx, down, TAG_DOWN, field.plane(1))?;
        group.recv_onto(ctx, up, TAG_DOWN, field.plane_mut(lnz + 1))?;
        field.step_rows(0, lnz, |cur, off, out| stencil.row(KernelKind::Scalar, cur, off, out));
        self.commit_step();
        ctx.compute_step_cells((self.plane_cells() * lnz) as u64);
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

    /// The owned interior slab, row-major with axis 0 fastest.
    pub fn local_block(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.local_block_into(&mut out);
        out
    }

    /// Copy the owned interior slab into a reused buffer (cleared first),
    /// one contiguous axis-0 run at a time.
    pub fn local_block_into(&self, out: &mut Vec<f64>) {
        out.clear();
        self.field.extend_with_interior(out);
    }

    /// Set the step counter: the slab was loaded in place (a scatter
    /// into [`BlockRowsMut`]) with the state after `steps_done` steps.
    pub fn set_steps_done(&mut self, steps_done: u64) {
        self.steps_done = steps_done;
    }

    /// Slab geometry: `(z0, lnz)` in fundamental-domain planes along the
    /// last axis.
    pub fn block_geometry(&self) -> (usize, usize) {
        (self.z0, self.lnz)
    }

    /// Steps taken so far.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// The sub-grid level vector.
    pub fn level(&self) -> &[u32] {
        &self.level
    }

    /// The fixed timestep.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The PDE.
    pub fn problem(&self) -> &ProblemN {
        &self.problem
    }
}

/// The owned interior slab, one contiguous axis-0 run at a time.
impl BlockRows for DistributedSolverN {
    fn block_len(&self) -> usize {
        self.field.shape().iter().product()
    }
    fn for_each_row(&self, put: &mut dyn FnMut(&[f64])) {
        self.field.for_each_interior_row(put);
    }
}

impl BlockRowsMut for DistributedSolverN {
    fn for_each_row_mut(&mut self, put: &mut dyn FnMut(&mut [f64])) {
        self.field.for_each_interior_row_mut(put);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advect2d::ndsolve::SolverN;
    use sparsegrid::ndgrid::advance;
    use ulfm_sim::{run, Error, RunConfig};

    #[test]
    fn a_halo_plane_of_the_wrong_length_is_an_error_that_writes_no_plane() {
        // Two slabs: rank 0 steps, rank 1 stands in for both its ring
        // neighbours and sends planes one value short.
        let report = run(RunConfig::local(2), |ctx| {
            let w = ctx.initial_world().unwrap();
            let info = GroupInfoN { grid: 0, first: 0, size: 2 };
            let p = ProblemN::standard_advection(3);
            let mut s = DistributedSolverN::new(p, &[3, 3, 3], 0.01, &info, w.rank());
            let (lnz, len) = (s.lnz, s.field.plane_len());
            if w.rank() == 1 {
                w.send(ctx, 0, TAG_UP, &vec![1.0f64; len - 1]).unwrap();
                w.send(ctx, 0, TAG_DOWN, &vec![1.0f64; len - 1]).unwrap();
                return;
            }
            let halos = |s: &DistributedSolverN| {
                [s.field.plane(0).to_vec(), s.field.plane(lnz + 1).to_vec()]
            };
            let before = halos(&s);
            let err = s.step(ctx, &w).unwrap_err();
            assert!(matches!(err, Error::InvalidArg(_)), "{err}");
            assert_eq!(halos(&s), before, "no halo plane written");
            assert_eq!(s.steps_done(), 0);
            ctx.report_f64("checked", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("checked"), Some(1.0));
    }

    /// Fundamental-domain values of a single-owner solve, row-major with
    /// axis 0 fastest (seam nodes excluded) — the oracle layout
    /// [`DistributedSolverN::local_block`] uses.
    fn fundamental(s: &SolverN) -> Vec<f64> {
        let g = s.grid();
        let shape: Vec<usize> = g.shape().iter().map(|&n| n - 1).collect();
        let mut out = Vec::with_capacity(shape.iter().product());
        let mut idx = vec![0usize; shape.len()];
        loop {
            out.push(g.at(&idx));
            if !advance(&mut idx, &shape) {
                return out;
            }
        }
    }

    fn distributed_matches_serial(problem: ProblemN, level: Vec<u32>, world: usize, steps: u64) {
        let report = run(RunConfig::local(world), move |ctx| {
            let w = ctx.initial_world().unwrap();
            let info = GroupInfoN { grid: 0, first: 0, size: world };
            let mut ds = DistributedSolverN::new(problem.clone(), &level, 0.002, &info, w.rank());
            ds.run(ctx, &w, steps).unwrap();
            // Blocking reference runs beside it in the same group (tags
            // are quiescent between steps, so reuse is safe).
            let mut db = DistributedSolverN::new(problem.clone(), &level, 0.002, &info, w.rank());
            for _ in 0..steps {
                db.step_blocking(ctx, &w).unwrap();
            }
            assert_eq!(
                ds.local_block(),
                db.local_block(),
                "overlapped step must equal the blocking reference bitwise"
            );
            // Serial single-owner oracle.
            let mut serial = SolverN::new(problem.clone(), &level, 0.002);
            serial.run(steps);
            let all = fundamental(&serial);
            let (z0, lnz) = ds.block_geometry();
            let plane: usize = level[..level.len() - 1].iter().map(|&l| 1usize << l).product();
            let want = &all[z0 * plane..(z0 + lnz) * plane];
            assert_eq!(
                ds.local_block(),
                want,
                "rank {} slab must equal the serial oracle bitwise",
                w.rank()
            );
            ctx.report_add("ok", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(world as f64));
    }

    #[test]
    fn single_rank_advection_matches_serial_bitwise() {
        distributed_matches_serial(ProblemN::standard_advection(3), vec![3, 2, 3], 1, 5);
    }

    #[test]
    fn multi_rank_advection_matches_serial_bitwise() {
        distributed_matches_serial(ProblemN::standard_advection(3), vec![2, 2, 3], 4, 6);
    }

    #[test]
    fn uneven_slabs_match_serial_bitwise() {
        // nz = 8 over 3 slabs → sizes 2/3/3.
        distributed_matches_serial(ProblemN::standard_advection(3), vec![2, 1, 3], 3, 4);
    }

    #[test]
    fn elliptic_jacobi_matches_serial_bitwise() {
        distributed_matches_serial(ProblemN::standard_elliptic(3), vec![2, 2, 2], 2, 8);
    }

    #[test]
    fn local_block_roundtrip() {
        let info = GroupInfoN { grid: 0, first: 0, size: 1 };
        let p = ProblemN::standard_advection(3);
        let mut s = DistributedSolverN::new(p, &[2, 2, 2], 0.01, &info, 0);
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
    fn initial_slab_matches_ic() {
        let info = GroupInfoN { grid: 0, first: 0, size: 4 };
        let p = ProblemN::standard_advection(3);
        let s = DistributedSolverN::new(p.clone(), &[2, 2, 4], 0.01, &info, 3);
        let (z0, lnz) = s.block_geometry();
        assert_eq!((z0, lnz), (12, 4));
        let block = s.local_block();
        let mut i = 0;
        for z in 0..lnz {
            for y in 0..4 {
                for x in 0..4 {
                    let pt = [x as f64 / 4.0, y as f64 / 4.0, (z0 + z) as f64 / 16.0];
                    assert!((block[i] - p.initial(&pt)).abs() < 1e-15, "at {pt:?}");
                    i += 1;
                }
            }
        }
    }
}
