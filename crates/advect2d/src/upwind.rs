//! First-order upwind scheme — the classical baseline the Lax–Wendroff
//! solver is measured against.
//!
//! Not used by the paper's application (which is pure Lax–Wendroff), but
//! indispensable as a numerical cross-check: upwind converges at first
//! order and is monotone; Lax–Wendroff at second order with dispersive
//! ripples. The convergence-order tests in this crate pin both down.

use sparsegrid::Grid2;

use crate::problem::AdvectionProblem;
use crate::simd::{KernelConfig, KernelKind};
use crate::stepper::PaddedField;

/// Precomputed upwind coefficients for one `(Δt, hx, hy, a)` combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpwindCoef {
    /// `aₓ Δt / hx`
    pub cx: f64,
    /// `a_y Δt / hy`
    pub cy: f64,
}

impl UpwindCoef {
    /// Coefficients for a given problem, mesh widths and timestep.
    pub fn new(p: &AdvectionProblem, hx: f64, hy: f64, dt: f64) -> Self {
        UpwindCoef { cx: p.ax * dt / hx, cy: p.ay * dt / hy }
    }

    /// The CFL number `|cx| + |cy|` (stability needs ≤ 1).
    pub fn cfl(&self) -> f64 {
        self.cx.abs() + self.cy.abs()
    }
}

/// One upwind update of a single output row (same row-slice contract as
/// [`crate::laxwendroff::lax_wendroff_row`]).
#[inline]
pub fn upwind_row(
    south: &[f64],
    center: &[f64],
    north: &[f64],
    coef: &UpwindCoef,
    out: &mut [f64],
) {
    let nx = out.len();
    let south = &south[..nx + 2];
    let center = &center[..nx + 2];
    let north = &north[..nx + 2];
    for k in 0..nx {
        let c = center[k + 1];
        let w = center[k];
        let e = center[k + 2];
        let s = south[k + 1];
        let n = north[k + 1];
        // Difference against the upwind neighbour in each direction.
        let dx = if coef.cx >= 0.0 { c - w } else { e - c };
        let dy = if coef.cy >= 0.0 { c - s } else { n - c };
        out[k] = c - coef.cx * dx - coef.cy * dy;
    }
}

/// An upwind row kernel: `(south, center, north, coef, out)`.
pub type UpwindRowFn = fn(&[f64], &[f64], &[f64], &UpwindCoef, &mut [f64]);

/// The row function implementing `kind` (see
/// [`crate::laxwendroff::lw_row_fn`]).
pub fn upwind_row_fn(kind: KernelKind) -> UpwindRowFn {
    match kind {
        KernelKind::Scalar => upwind_row,
        KernelKind::Simd => crate::simd::upwind_row_simd,
    }
}

/// One upwind update on a halo-padded block (same layout contract as
/// [`crate::laxwendroff::lax_wendroff_kernel`]; extents asserted in
/// release too, since the stride is implicit in `nx`).
pub fn upwind_kernel(padded: &[f64], nx: usize, ny: usize, coef: &UpwindCoef, out: &mut [f64]) {
    let pnx = nx + 2;
    assert_eq!(padded.len(), pnx * (ny + 2), "padded extent mismatch for {nx}x{ny}");
    assert_eq!(out.len(), nx * ny, "output extent mismatch for {nx}x{ny}");
    for m in 0..ny {
        let south = &padded[m * pnx..][..pnx];
        let center = &padded[(m + 1) * pnx..][..pnx];
        let north = &padded[(m + 2) * pnx..][..pnx];
        upwind_row(south, center, north, coef, &mut out[m * nx..][..nx]);
    }
}

/// One periodic upwind step on a whole [`Grid2`]: the rebuild-everything
/// reference path, kept for the bitwise-equivalence tests against the
/// double-buffered [`UpwindSolver`].
pub fn upwind_step_naive(
    grid: &mut Grid2,
    coef: &UpwindCoef,
    padded: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    let nx = grid.nx() - 1;
    let ny = grid.ny() - 1;
    let pnx = nx + 2;
    sparsegrid::ensure_len(padded, pnx * (ny + 2));
    let wrapx = |k: isize| -> usize { k.rem_euclid(nx as isize) as usize };
    let wrapy = |m: isize| -> usize { m.rem_euclid(ny as isize) as usize };
    for pm in 0..ny + 2 {
        let gm = wrapy(pm as isize - 1);
        for pk in 0..pnx {
            let gk = wrapx(pk as isize - 1);
            padded[pm * pnx + pk] = grid.at(gk, gm);
        }
    }
    sparsegrid::ensure_len(out, nx * ny);
    upwind_kernel(padded, nx, ny, coef, out);
    for m in 0..ny {
        grid.row_mut(m)[..nx].copy_from_slice(&out[m * nx..][..nx]);
    }
    for m in 0..ny {
        let v = grid.at(0, m);
        *grid.at_mut(nx, m) = v;
    }
    for k in 0..grid.nx() {
        let v = grid.at(k, 0);
        *grid.at_mut(k, ny) = v;
    }
}

/// Single-owner periodic upwind solver, mirroring
/// [`crate::laxwendroff::LocalSolver`].
#[derive(Debug, Clone)]
pub struct UpwindSolver {
    problem: AdvectionProblem,
    grid: Grid2,
    coef: UpwindCoef,
    dt: f64,
    steps_done: u64,
    field: PaddedField,
    kernel: KernelConfig,
}

impl UpwindSolver {
    /// Initialize from the problem's initial condition.
    pub fn new(problem: AdvectionProblem, level: sparsegrid::LevelPair, dt: f64) -> Self {
        let grid = Grid2::from_fn(level, problem.initial());
        let (hx, hy) = grid.spacing();
        let coef = UpwindCoef::new(&problem, hx, hy, dt);
        let field = PaddedField::new(grid.nx() - 1, grid.ny() - 1);
        UpwindSolver {
            problem,
            grid,
            coef,
            dt,
            steps_done: 0,
            field,
            kernel: KernelConfig::global(),
        }
    }

    /// Replace the kernel formulation (results are bitwise-identical).
    pub fn with_kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// Advance one timestep.
    pub fn step(&mut self) {
        self.run(1);
    }

    /// Advance `n` timesteps through the double-buffered padded field
    /// (one grid load/store per call, no per-step allocation); bitwise
    /// identical to `n` calls of [`upwind_step_naive`].
    pub fn run(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.field.load(&self.grid);
        let coef = self.coef;
        let row = upwind_row_fn(self.kernel.kind);
        for _ in 0..n {
            self.field.refresh_periodic_halo();
            self.field.step(|s, c, nn, out| row(s, c, nn, &coef, out));
        }
        self.field.store(&mut self.grid);
        self.steps_done += n;
    }

    /// Simulated time reached.
    pub fn time(&self) -> f64 {
        self.steps_done as f64 * self.dt
    }

    /// The current solution grid.
    pub fn grid(&self) -> &Grid2 {
        &self.grid
    }

    /// The PDE.
    pub fn problem(&self) -> &AdvectionProblem {
        &self.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laxwendroff::LocalSolver;
    use crate::problem::InitialCondition;
    use sparsegrid::{l1_error_vs, linf_error_vs, LevelPair};

    #[test]
    fn constant_state_is_a_fixed_point() {
        let p = AdvectionProblem { ax: 1.0, ay: -0.5, ic: InitialCondition::Constant(2.0) };
        let mut s = UpwindSolver::new(p, LevelPair::new(4, 4), 0.01);
        s.run(30);
        assert_eq!(linf_error_vs(s.grid(), |_, _| 2.0), 0.0);
    }

    #[test]
    fn first_order_convergence() {
        let p = AdvectionProblem::standard();
        let err_at = |lev: u32| {
            let dt = 0.2 / (1u64 << lev) as f64;
            let steps = (0.25 / dt).round() as u64;
            let mut s = UpwindSolver::new(p, LevelPair::new(lev, lev), dt);
            s.run(steps);
            l1_error_vs(s.grid(), p.exact_at(s.time()))
        };
        let e4 = err_at(4);
        let e5 = err_at(5);
        // First order: halving h roughly halves the error.
        assert!(e5 < e4 / 1.6, "e4={e4}, e5={e5}");
        assert!(e5 > e4 / 3.0, "suspiciously fast convergence for upwind");
    }

    #[test]
    fn lax_wendroff_beats_upwind_on_smooth_data() {
        let p = AdvectionProblem::standard();
        let lev = 6;
        let dt = 0.2 / 64.0;
        let steps = 64;
        let mut up = UpwindSolver::new(p, LevelPair::new(lev, lev), dt);
        let mut lw = LocalSolver::new(p, LevelPair::new(lev, lev), dt);
        up.run(steps);
        lw.run(steps);
        let e_up = l1_error_vs(up.grid(), p.exact_at(up.time()));
        let e_lw = l1_error_vs(lw.grid(), p.exact_at(lw.time()));
        assert!(
            e_lw < e_up / 5.0,
            "second order must beat first order: LW {e_lw} vs upwind {e_up}"
        );
    }

    #[test]
    fn upwind_is_monotone_no_overshoot() {
        // Upwind never creates new extrema; values stay within the IC range.
        let p = AdvectionProblem { ax: 1.0, ay: 1.0, ic: InitialCondition::CosHill };
        let mut s = UpwindSolver::new(p, LevelPair::new(5, 5), 0.2 / 32.0);
        s.run(64);
        for &v in s.grid().values() {
            assert!((-1e-12..=1.0 + 1e-12).contains(&v), "overshoot: {v}");
        }
    }

    #[test]
    fn negative_velocity_upwinds_the_other_way() {
        let p = AdvectionProblem {
            ax: -1.0,
            ay: -1.0,
            ic: InitialCondition::SinProduct { kx: 1, ky: 1 },
        };
        let dt = 0.2 / 32.0;
        let mut s = UpwindSolver::new(p, LevelPair::new(5, 5), dt);
        s.run(32);
        let e = l1_error_vs(s.grid(), p.exact_at(s.time()));
        assert!(e < 0.2, "negative-velocity transport broken: {e}");
    }

    #[test]
    fn cfl_reporting() {
        let p = AdvectionProblem::standard();
        let c = UpwindCoef::new(&p, 0.1, 0.1, 0.02);
        assert!((c.cfl() - 0.4).abs() < 1e-12);
    }
}
