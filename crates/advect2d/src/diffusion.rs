//! A second model PDE: the 2D heat (diffusion) equation
//! `∂u/∂t = ν ∇²u` with periodic boundary conditions, solved with the
//! explicit FTCS scheme.
//!
//! The sparse grid combination technique is PDE-agnostic — the paper's
//! framework targets "PDE solvers" generally — and this module is the
//! second data point: the same grids, coefficients, and combination code
//! paths work unchanged (see `examples/diffusion_combination.rs`).
//!
//! For the `sin(2πk_x x) sin(2πk_y y)` initial condition the exact
//! solution decays as `exp(−4π²ν(k_x² + k_y²) t)`, giving a closed-form
//! reference for error measurement.

use sparsegrid::Grid2;

use crate::simd::{KernelConfig, KernelKind};
use crate::stepper::PaddedField;

/// The 2D diffusion problem on the periodic unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionProblem {
    /// Diffusivity ν > 0.
    pub nu: f64,
    /// x wavenumber of the sine initial condition.
    pub kx: u32,
    /// y wavenumber of the sine initial condition.
    pub ky: u32,
}

impl DiffusionProblem {
    /// ν = 0.05, fundamental mode.
    pub fn standard() -> Self {
        DiffusionProblem { nu: 0.05, kx: 1, ky: 1 }
    }

    /// The initial condition `sin(2πk_x x) sin(2πk_y y)`.
    pub fn initial(&self) -> impl Fn(f64, f64) -> f64 + '_ {
        use std::f64::consts::TAU;
        move |x, y| (TAU * self.kx as f64 * x).sin() * (TAU * self.ky as f64 * y).sin()
    }

    /// The exact solution at time `t`.
    pub fn exact(&self, x: f64, y: f64, t: f64) -> f64 {
        use std::f64::consts::TAU;
        let lambda = self.nu * (TAU * TAU) * (self.kx * self.kx + self.ky * self.ky) as f64;
        (-lambda * t).exp() * (TAU * self.kx as f64 * x).sin() * (TAU * self.ky as f64 * y).sin()
    }

    /// The exact solution at a fixed time as a closure of `(x, y)`.
    pub fn exact_at(&self, t: f64) -> impl Fn(f64, f64) -> f64 + '_ {
        move |x, y| self.exact(x, y, t)
    }

    /// A stable explicit timestep for the finest grid of size `2^n`:
    /// FTCS needs `ν Δt (1/hx² + 1/hy²) ≤ 1/2`; `safety ∈ (0, 1]` scales
    /// below the limit.
    pub fn stable_dt(&self, n: u32, safety: f64) -> f64 {
        let h = 1.0 / (1u64 << n) as f64;
        safety * 0.25 * h * h / self.nu
    }
}

/// One FTCS update of a single output row (same row-slice contract as
/// [`crate::laxwendroff::lax_wendroff_row`], 5-point stencil).
#[inline]
pub fn ftcs_row(south: &[f64], center: &[f64], north: &[f64], rx: f64, ry: f64, out: &mut [f64]) {
    let nx = out.len();
    let south = &south[..nx + 2];
    let center = &center[..nx + 2];
    let north = &north[..nx + 2];
    for k in 0..nx {
        let c = center[k + 1];
        let w = center[k];
        let e = center[k + 2];
        let s = south[k + 1];
        let n_ = north[k + 1];
        out[k] = c + rx * (e - 2.0 * c + w) + ry * (n_ - 2.0 * c + s);
    }
}

/// An FTCS row kernel: `(south, center, north, rx, ry, out)`.
pub type FtcsRowFn = fn(&[f64], &[f64], &[f64], f64, f64, &mut [f64]);

/// The row function implementing `kind` (see
/// [`crate::laxwendroff::lw_row_fn`]).
pub fn ftcs_row_fn(kind: KernelKind) -> FtcsRowFn {
    match kind {
        KernelKind::Scalar => ftcs_row,
        KernelKind::Simd => crate::simd::ftcs_row_simd,
    }
}

/// One FTCS update on a halo-padded block (same layout contract as
/// [`crate::laxwendroff::lax_wendroff_kernel`]; extents asserted in
/// release too, since the stride is implicit in `nx`).
pub fn ftcs_kernel(padded: &[f64], nx: usize, ny: usize, rx: f64, ry: f64, out: &mut [f64]) {
    let pnx = nx + 2;
    assert_eq!(padded.len(), pnx * (ny + 2), "padded extent mismatch for {nx}x{ny}");
    assert_eq!(out.len(), nx * ny, "output extent mismatch for {nx}x{ny}");
    for m in 0..ny {
        let south = &padded[m * pnx..][..pnx];
        let center = &padded[(m + 1) * pnx..][..pnx];
        let north = &padded[(m + 2) * pnx..][..pnx];
        ftcs_row(south, center, north, rx, ry, &mut out[m * nx..][..nx]);
    }
}

/// One periodic FTCS step on a whole grid (single owner): the
/// rebuild-everything reference path, kept for the bitwise-equivalence
/// tests against the double-buffered [`DiffusionSolver`].
pub fn ftcs_step(problem: &DiffusionProblem, grid: &mut Grid2, dt: f64, scratch: &mut Vec<f64>) {
    let nx = grid.nx() - 1;
    let ny = grid.ny() - 1;
    let (hx, hy) = grid.spacing();
    let rx = problem.nu * dt / (hx * hx);
    let ry = problem.nu * dt / (hy * hy);
    sparsegrid::ensure_len(scratch, nx * ny);
    let wrap = |k: isize, n: usize| -> usize { k.rem_euclid(n as isize) as usize };
    for m in 0..ny {
        for k in 0..nx {
            let c = grid.at(k, m);
            let e = grid.at(wrap(k as isize + 1, nx), m);
            let w = grid.at(wrap(k as isize - 1, nx), m);
            let n_ = grid.at(k, wrap(m as isize + 1, ny));
            let s = grid.at(k, wrap(m as isize - 1, ny));
            scratch[m * nx + k] = c + rx * (e - 2.0 * c + w) + ry * (n_ - 2.0 * c + s);
        }
    }
    for m in 0..ny {
        for k in 0..nx {
            *grid.at_mut(k, m) = scratch[m * nx + k];
        }
    }
    // Periodic seam.
    for m in 0..ny {
        let v = grid.at(0, m);
        *grid.at_mut(nx, m) = v;
    }
    for k in 0..grid.nx() {
        let v = grid.at(k, 0);
        *grid.at_mut(k, ny) = v;
    }
}

/// Single-owner diffusion solver mirroring
/// [`crate::laxwendroff::LocalSolver`].
#[derive(Debug, Clone)]
pub struct DiffusionSolver {
    problem: DiffusionProblem,
    grid: Grid2,
    dt: f64,
    steps_done: u64,
    field: PaddedField,
    kernel: KernelConfig,
}

impl DiffusionSolver {
    /// Initialize from the sine initial condition.
    pub fn new(problem: DiffusionProblem, level: sparsegrid::LevelPair, dt: f64) -> Self {
        let grid = Grid2::from_fn(level, problem.initial());
        let field = PaddedField::new(grid.nx() - 1, grid.ny() - 1);
        DiffusionSolver { problem, grid, dt, steps_done: 0, field, kernel: KernelConfig::global() }
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
    /// identical to `n` calls of [`ftcs_step`].
    pub fn run(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let (hx, hy) = self.grid.spacing();
        let rx = self.problem.nu * self.dt / (hx * hx);
        let ry = self.problem.nu * self.dt / (hy * hy);
        self.field.load(&self.grid);
        let row = ftcs_row_fn(self.kernel.kind);
        for _ in 0..n {
            self.field.refresh_periodic_halo();
            self.field.step(|s, c, nn, out| row(s, c, nn, rx, ry, out));
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

    /// The problem.
    pub fn problem(&self) -> &DiffusionProblem {
        &self.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegrid::{l1_error_vs, linf_error_vs, LevelPair};

    #[test]
    fn amplitude_decays_at_the_analytic_rate() {
        let p = DiffusionProblem::standard();
        let dt = p.stable_dt(5, 0.8);
        let mut s = DiffusionSolver::new(p, LevelPair::new(5, 5), dt);
        s.run(120);
        let t = s.time();
        let err = l1_error_vs(s.grid(), p.exact_at(t));
        // Analytic amplitude at t.
        let amp = p.exact(0.25, 0.25, t);
        assert!(amp > 0.05, "don't let it decay to nothing: {amp}");
        assert!(err < 0.01 * amp.max(0.1), "decay rate wrong: err {err}, amp {amp}");
    }

    #[test]
    fn second_order_spatial_convergence() {
        let p = DiffusionProblem::standard();
        let err_at = |lev: u32| {
            // Fixed final time; dt scaled with h² (FTCS stability), so the
            // spatial error dominates.
            let dt = p.stable_dt(lev, 0.5);
            let t_final = 0.05;
            let steps = (t_final / dt).round() as u64;
            let mut s = DiffusionSolver::new(p, LevelPair::new(lev, lev), dt);
            s.run(steps);
            l1_error_vs(s.grid(), p.exact_at(s.time()))
        };
        let e4 = err_at(4);
        let e5 = err_at(5);
        assert!(e5 < e4 / 3.0, "e4={e4}, e5={e5}");
    }

    #[test]
    fn constant_zero_is_a_fixed_point() {
        let p = DiffusionProblem { nu: 0.1, kx: 1, ky: 1 };
        let mut g = Grid2::zeros(LevelPair::new(4, 4));
        let mut scratch = Vec::new();
        ftcs_step(&p, &mut g, 1e-4, &mut scratch);
        assert_eq!(linf_error_vs(&g, |_, _| 0.0), 0.0);
    }

    #[test]
    fn maximum_principle_holds_within_stability() {
        // Diffusion never amplifies extrema.
        let p = DiffusionProblem::standard();
        let dt = p.stable_dt(5, 0.9);
        let mut s = DiffusionSolver::new(p, LevelPair::new(5, 5), dt);
        let max0 = s.grid().values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        s.run(100);
        let max1 = s.grid().values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max1 <= max0 + 1e-12, "amplified: {max0} -> {max1}");
    }

    #[test]
    fn anisotropic_grid_still_converges() {
        let p = DiffusionProblem::standard();
        // Stability set by the finer direction.
        let dt = p.stable_dt(6, 0.5);
        let mut s = DiffusionSolver::new(p, LevelPair::new(6, 3), dt);
        s.run(100);
        let e = l1_error_vs(s.grid(), p.exact_at(s.time()));
        assert!(e < 0.05, "anisotropic diffusion error {e}");
    }
}
