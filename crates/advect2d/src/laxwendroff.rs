//! The unsplit 2D Lax–Wendroff scheme.
//!
//! Second-order in space and time for the advection equation:
//!
//! ```text
//! u' = u − Δt (aₓ uₓ + a_y u_y)
//!        + Δt²/2 (aₓ² uₓₓ + 2 aₓ a_y uₓ_y + a_y² u_y_y)
//! ```
//!
//! with central differences on a nine-point stencil. The stencil kernel is
//! written against a **halo-padded block** so the same code path serves
//! both the single-owner solver here and the distributed
//! domain-decomposition solver in `ftsg-core` (whose halo exchange fills
//! the padding from neighbour ranks instead of periodic wrap).

use sparsegrid::Grid2;

use crate::problem::AdvectionProblem;
use crate::simd::{KernelConfig, KernelKind};
use crate::stepper::PaddedField;

/// Precomputed stencil coefficients for one `(Δt, hx, hy, a)` combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LwCoef {
    /// −aₓΔt / (2hx)
    pub cx: f64,
    /// −a_yΔt / (2hy)
    pub cy: f64,
    /// aₓ²Δt² / (2hx²)
    pub cxx: f64,
    /// a_y²Δt² / (2hy²)
    pub cyy: f64,
    /// aₓa_yΔt² / (4hxhy)
    pub cxy: f64,
}

impl LwCoef {
    /// Coefficients for a given problem, mesh widths and timestep.
    pub fn new(p: &AdvectionProblem, hx: f64, hy: f64, dt: f64) -> Self {
        LwCoef {
            cx: -p.ax * dt / (2.0 * hx),
            cy: -p.ay * dt / (2.0 * hy),
            cxx: p.ax * p.ax * dt * dt / (2.0 * hx * hx),
            cyy: p.ay * p.ay * dt * dt / (2.0 * hy * hy),
            cxy: p.ax * p.ay * dt * dt / (4.0 * hx * hy),
        }
    }

    /// The 2D CFL number `|aₓ|Δt/hx + |a_y|Δt/hy` (stability needs ≲ 1).
    pub fn cfl(&self) -> f64 {
        2.0 * (self.cx.abs() + self.cy.abs())
    }
}

/// Apply one Lax–Wendroff update to a single output row.
///
/// `south`, `center`, `north` are three consecutive padded rows (each
/// `nx + 2` wide, where `nx = out.len()`); `out` receives the updated
/// interior row. Binding the three input rows and the output row to
/// slices of known relative length lets the compiler hoist every bounds
/// check out of the k-loop — this is the hot inner loop of the whole
/// solver.
#[inline]
pub fn lax_wendroff_row(
    south: &[f64],
    center: &[f64],
    north: &[f64],
    coef: &LwCoef,
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
        let sw = south[k];
        let se = south[k + 2];
        let nw = north[k];
        let ne = north[k + 2];
        out[k] = c
            + coef.cx * (e - w)
            + coef.cy * (n - s)
            + coef.cxx * (e - 2.0 * c + w)
            + coef.cyy * (n - 2.0 * c + s)
            + coef.cxy * (ne - nw - se + sw);
    }
}

/// A Lax–Wendroff row kernel: `(south, center, north, coef, out)`.
pub type LwRowFn = fn(&[f64], &[f64], &[f64], &LwCoef, &mut [f64]);

/// The row function implementing `kind`: the scalar reference or the
/// vectorized rows of [`crate::simd`] — bitwise-identical by
/// construction, so the choice only affects speed.
pub fn lw_row_fn(kind: KernelKind) -> LwRowFn {
    match kind {
        KernelKind::Scalar => lax_wendroff_row,
        KernelKind::Simd => crate::simd::lax_wendroff_row_simd,
    }
}

/// Apply one Lax–Wendroff update to a halo-padded block.
///
/// `padded` has exactly `(nx + 2) × (ny + 2)` values, row-major with x
/// fastest; the halo (first/last row/column) must already contain the
/// neighbour values. `out` receives the `nx × ny` interior update.
/// Extents are asserted (in release too): the stride is implicit in
/// `nx`, so a mis-sized block would silently read stale halo data.
pub fn lax_wendroff_kernel(padded: &[f64], nx: usize, ny: usize, coef: &LwCoef, out: &mut [f64]) {
    let pnx = nx + 2;
    assert_eq!(padded.len(), pnx * (ny + 2), "padded extent mismatch for {nx}x{ny}");
    assert_eq!(out.len(), nx * ny, "output extent mismatch for {nx}x{ny}");
    for m in 0..ny {
        let south = &padded[m * pnx..][..pnx];
        let center = &padded[(m + 1) * pnx..][..pnx];
        let north = &padded[(m + 2) * pnx..][..pnx];
        lax_wendroff_row(south, center, north, coef, &mut out[m * nx..][..nx]);
    }
}

/// One periodic Lax–Wendroff step on a whole [`Grid2`] (single owner, no
/// domain decomposition): fills a padded copy by periodic wrap and runs
/// the kernel. Nodes `0` and `N` are identified (periodic), and both are
/// stored for interoperability with the combination code.
///
/// This is the straightforward rebuild-everything formulation, kept as
/// the bitwise reference for the double-buffered fast path used by
/// [`LocalSolver`] (see the `equivalence` tests and
/// `DESIGN.md`, "Hot-path memory discipline"); new code should step
/// through [`LocalSolver`] or [`crate::stepper::PaddedField`] instead.
pub fn lax_wendroff_step(
    grid: &mut Grid2,
    coef: &LwCoef,
    padded: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    // Interior is the fundamental domain [0, N) × [0, M): node N duplicates
    // node 0.
    let nx = grid.nx() - 1;
    let ny = grid.ny() - 1;
    let pnx = nx + 2;
    sparsegrid::ensure_len(padded, pnx * (ny + 2));
    let wrapx = |k: isize| -> usize { (k.rem_euclid(nx as isize)) as usize };
    let wrapy = |m: isize| -> usize { (m.rem_euclid(ny as isize)) as usize };
    for pm in 0..ny + 2 {
        let gm = wrapy(pm as isize - 1);
        for pk in 0..pnx {
            let gk = wrapx(pk as isize - 1);
            padded[pm * pnx + pk] = grid.at(gk, gm);
        }
    }
    sparsegrid::ensure_len(out, nx * ny);
    lax_wendroff_kernel(padded, nx, ny, coef, out);
    for m in 0..ny {
        for k in 0..nx {
            *grid.at_mut(k, m) = out[m * nx + k];
        }
    }
    // Re-assert the periodic seam.
    for m in 0..ny {
        let v = grid.at(0, m);
        *grid.at_mut(nx, m) = v;
    }
    for k in 0..grid.nx() {
        let v = grid.at(k, 0);
        *grid.at_mut(k, ny) = v;
    }
}

/// Single-owner advection solver for one component grid.
///
/// This is what each sub-grid's process group computes in aggregate; the
/// serial version is the correctness oracle for the distributed solver and
/// the workhorse of the error experiments.
///
/// ```
/// use advect2d::{AdvectionProblem, LocalSolver};
/// use sparsegrid::{l1_error_vs, LevelPair};
///
/// let problem = AdvectionProblem::standard();
/// let mut solver = LocalSolver::new(problem, LevelPair::new(6, 6), 0.2 / 64.0);
/// solver.run(64);
/// let err = l1_error_vs(solver.grid(), problem.exact_at(solver.time()));
/// assert!(err < 5e-3, "second-order scheme on a smooth problem: {err}");
/// ```
#[derive(Debug, Clone)]
pub struct LocalSolver {
    problem: AdvectionProblem,
    grid: Grid2,
    coef: LwCoef,
    dt: f64,
    steps_done: u64,
    field: PaddedField,
    kernel: KernelConfig,
}

impl LocalSolver {
    /// Initialize the solver on a grid level with a fixed timestep (the
    /// paper uses one `Δt` across all component grids for stability).
    /// The kernel configuration defaults to the process-wide
    /// [`KernelConfig::global`]; override with [`Self::with_kernel`].
    pub fn new(problem: AdvectionProblem, level: sparsegrid::LevelPair, dt: f64) -> Self {
        let grid = Grid2::from_fn(level, problem.initial());
        let (hx, hy) = grid.spacing();
        let coef = LwCoef::new(&problem, hx, hy, dt);
        let field = PaddedField::new(grid.nx() - 1, grid.ny() - 1);
        LocalSolver {
            problem,
            grid,
            coef,
            dt,
            steps_done: 0,
            field,
            kernel: KernelConfig::global(),
        }
    }

    /// Replace the kernel formulation. Both formulations produce
    /// bitwise-identical grids.
    pub fn with_kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// Advance one timestep.
    pub fn step(&mut self) {
        self.run(1);
    }

    /// Advance `n` timesteps.
    ///
    /// The grid is loaded into the double-buffered padded field once,
    /// stepped `n` times (per step: an `O(perimeter)` halo refresh, the
    /// stencil, a buffer swap — no allocation, no full-field copies),
    /// and stored back once. Bitwise identical to `n` calls of the
    /// reference [`lax_wendroff_step`].
    pub fn run(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.field.load(&self.grid);
        let coef = self.coef;
        let row = lw_row_fn(self.kernel.kind);
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

    /// Timesteps taken so far.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// The current solution grid.
    pub fn grid(&self) -> &Grid2 {
        &self.grid
    }

    /// Replace the solution (data recovery path).
    pub fn set_grid(&mut self, grid: Grid2) {
        assert_eq!(grid.level(), self.grid.level(), "recovered grid level mismatch");
        self.grid = grid;
    }

    /// Rewind to a checkpointed state (Checkpoint/Restart path).
    pub fn restore(&mut self, grid: Grid2, steps_done: u64) {
        self.set_grid(grid);
        self.steps_done = steps_done;
    }

    /// The problem being solved.
    pub fn problem(&self) -> &AdvectionProblem {
        &self.problem
    }

    /// The fixed timestep.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndsolve::tests::{error_after, upwind};
    use crate::problem::InitialCondition;
    use sparsegrid::{l1_error_vs, linf_error_vs, LevelPair};

    #[test]
    fn constant_state_is_a_fixed_point() {
        let p = AdvectionProblem { ax: 1.0, ay: 0.5, ic: InitialCondition::Constant(3.0) };
        let mut s = LocalSolver::new(p, LevelPair::new(4, 4), 0.01);
        s.run(25);
        assert_eq!(linf_error_vs(s.grid(), |_, _| 3.0), 0.0);
    }

    #[test]
    fn mass_is_conserved_on_periodic_domain() {
        let p = AdvectionProblem::standard();
        let mut s = LocalSolver::new(p, LevelPair::new(5, 5), 0.005);
        let mass = |g: &Grid2| -> f64 {
            // Sum over the fundamental domain (exclude duplicated seam).
            let mut acc = 0.0;
            for m in 0..g.ny() - 1 {
                for k in 0..g.nx() - 1 {
                    acc += g.at(k, m);
                }
            }
            acc
        };
        let m0 = mass(s.grid());
        s.run(100);
        let m1 = mass(s.grid());
        assert!((m0 - m1).abs() < 1e-10, "mass drift {m0} -> {m1}");
    }

    #[test]
    fn second_order_convergence() {
        // Halving h (and Δt) must shrink the error ~4×; accept ≥ 3×.
        let p = AdvectionProblem::standard();
        let err_at = |lev: u32| {
            let dt = 0.2 / (1u64 << lev) as f64; // CFL ≈ 0.4 at unit speed
            let steps = (0.25 / dt).round() as u64;
            let mut s = LocalSolver::new(p, LevelPair::new(lev, lev), dt);
            s.run(steps);
            let t = s.time();
            l1_error_vs(s.grid(), p.exact_at(t))
        };
        let e4 = err_at(4);
        let e5 = err_at(5);
        let e6 = err_at(6);
        assert!(e5 < e4 / 3.0, "e4={e4}, e5={e5}");
        assert!(e6 < e5 / 3.0, "e5={e5}, e6={e6}");
    }

    #[test]
    fn anisotropic_grids_converge_too() {
        let p = AdvectionProblem::standard();
        let dt = 0.2 / 64.0;
        let mut s = LocalSolver::new(p, LevelPair::new(6, 3), dt);
        s.run(32);
        let e = l1_error_vs(s.grid(), p.exact_at(s.time()));
        // Error dominated by the coarse direction (h = 1/8) but bounded.
        assert!(e < 0.05, "anisotropic error {e}");
    }

    #[test]
    fn lax_wendroff_beats_upwind_on_smooth_data() {
        // First-order upwind: the d = 2 upwind–diffusion stencil, κ = 0.
        let p = AdvectionProblem::standard();
        let (lev, dt, steps) = (6, 0.2 / 64.0, 64);
        let e_up = error_after(&upwind([p.ax, p.ay]), &[lev, lev], dt, steps);
        let mut lw = LocalSolver::new(p, LevelPair::new(lev, lev), dt);
        lw.run(steps);
        let e_lw = l1_error_vs(lw.grid(), p.exact_at(lw.time()));
        assert!(
            e_lw < e_up / 5.0,
            "second order must beat first order: LW {e_lw} vs upwind {e_up}"
        );
    }

    #[test]
    fn periodic_seam_stays_consistent() {
        let p = AdvectionProblem::standard();
        let mut s = LocalSolver::new(p, LevelPair::new(4, 4), 0.01);
        s.run(10);
        let g = s.grid();
        for m in 0..g.ny() {
            assert_eq!(g.at(0, m), g.at(g.nx() - 1, m));
        }
        for k in 0..g.nx() {
            assert_eq!(g.at(k, 0), g.at(k, g.ny() - 1));
        }
    }

    #[test]
    fn cfl_reporting() {
        let p = AdvectionProblem::standard();
        let c = LwCoef::new(&p, 1.0 / 16.0, 1.0 / 16.0, 0.4 / 32.0);
        assert!((c.cfl() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn restore_rewinds_state() {
        let p = AdvectionProblem::standard();
        let mut s = LocalSolver::new(p, LevelPair::new(4, 4), 0.01);
        s.run(5);
        let saved = s.grid().clone();
        let saved_steps = s.steps_done();
        s.run(7);
        s.restore(saved.clone(), saved_steps);
        assert_eq!(s.steps_done(), 5);
        assert_eq!(s.grid(), &saved);
        // Recompute and confirm determinism.
        s.run(7);
        let a = s.grid().clone();
        let mut s2 = LocalSolver::new(p, LevelPair::new(4, 4), 0.01);
        s2.run(12);
        assert_eq!(a, *s2.grid());
    }
}
