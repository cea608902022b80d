//! d-dimensional steppers: first-order upwind advection–diffusion and
//! Jacobi sweeps for the elliptic problem, plus the single-owner
//! [`SolverN`] that drives them over a [`PaddedFieldN`].
//!
//! The solvers hold a [`StencilN`] — the problem's coefficients in row
//! form — and step with [`PaddedFieldN::step_rows`]; the single-owner
//! solver and the distributed slab solver (`ftsg-core::psolve_nd`) share
//! it, and rows never read what they write, so decomposition cannot
//! change the arithmetic: decomposed steps are bitwise equal to
//! monolithic ones. The point closures [`upwind_diffusion_kernel`] and
//! [`jacobi_kernel`] are the reference formulation every row kernel
//! (scalar loop and each SIMD backend) is tested bitwise against.
//!
//! At d = 2 the upwind–diffusion stencil is also the crate's first-order
//! upwind scheme (`κ = 0`) and its FTCS heat equation (`a = 0`): the
//! operation order per cell is that of the five-point 2D formulas, so
//! both come out bit for bit (`tests/equivalence.rs`).

use sparsegrid::ndgrid::advance;
use sparsegrid::GridN;

use crate::ndfield::PaddedFieldN;
use crate::ndproblem::ProblemN;
use crate::simd::{jacobi_row_n_simd, upwind_diffusion_row_n_simd, KernelConfig, KernelKind};

/// Precomputed upwind–diffusion coefficients for one `(Δt, h, a, κ)`
/// combination: per-axis Courant numbers `c_i = a_i Δt / h_i` and
/// diffusion numbers `r_i = κ Δt / h_i²`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpwindDiffusionCoefN {
    /// `a_i Δt / h_i`
    pub c: Vec<f64>,
    /// `κ Δt / h_i²`
    pub r: Vec<f64>,
}

impl UpwindDiffusionCoefN {
    /// Coefficients for a given problem, per-axis mesh widths and
    /// timestep. Panics if called for the elliptic class.
    pub fn new(p: &ProblemN, h: &[f64], dt: f64) -> Self {
        match p {
            ProblemN::AdvectionDiffusion { a, kappa, .. } => UpwindDiffusionCoefN {
                c: a.iter().zip(h).map(|(ai, hi)| ai * dt / hi).collect(),
                r: h.iter().map(|hi| kappa * dt / (hi * hi)).collect(),
            },
            ProblemN::Elliptic { .. } => panic!("elliptic problems advance by Jacobi sweeps"),
        }
    }

    /// The explicit-stability number `Σ_i (|c_i| + 2 r_i)` (needs ≤ 1).
    pub fn stability(&self) -> f64 {
        self.c.iter().map(|v| v.abs()).sum::<f64>() + 2.0 * self.r.iter().sum::<f64>()
    }
}

/// One upwind–diffusion point update as a kernel for
/// [`PaddedFieldN::step_with`]: difference against the upwind neighbour
/// per axis plus the centered second difference, exactly the 2D upwind
/// row kernel generalized.
pub fn upwind_diffusion_kernel(
    coef: UpwindDiffusionCoefN,
    pstride: Vec<usize>,
) -> impl Fn(&[f64], usize) -> f64 {
    move |cur, off| {
        let c = cur[off];
        let mut acc = c;
        for (i, &s) in pstride.iter().enumerate() {
            let fwd = cur[off + s];
            let bwd = cur[off - s];
            let dx = if coef.c[i] >= 0.0 { c - bwd } else { fwd - c };
            acc -= coef.c[i] * dx;
            acc += coef.r[i] * (fwd - 2.0 * c + bwd);
        }
        acc
    }
}

/// One weighted-Jacobi point update for `−Δu = f` as a kernel for
/// [`PaddedFieldN::step_with`]: `rhs` must be laid out in the *padded*
/// offset space of the field (halo entries unused), so the kernel can
/// index it with the same offset it reads the solution at.
pub fn jacobi_kernel(
    inv_h2: Vec<f64>,
    pstride: Vec<usize>,
    rhs: Vec<f64>,
) -> impl Fn(&[f64], usize) -> f64 {
    let inv_diag = 1.0 / (2.0 * inv_h2.iter().sum::<f64>());
    move |cur, off| {
        let mut acc = rhs[off];
        for i in 0..pstride.len() {
            let s = pstride[i];
            acc += inv_h2[i] * (cur[off + s] + cur[off - s]);
        }
        acc * inv_diag
    }
}

/// One axis of the upwind–diffusion row update: the neighbour distance
/// in the padded buffer, the axis's Courant and diffusion numbers, and
/// the upwind side (`c ≥ 0` differences backwards), resolved once here
/// instead of once per point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpwindAxisN {
    /// Padded stride of the axis.
    pub stride: usize,
    /// `a_i Δt / h_i`
    pub c: f64,
    /// `κ Δt / h_i²`
    pub r: f64,
    /// `c ≥ 0`: the upwind neighbour is the backward one.
    pub backward: bool,
}

/// One axis of the Jacobi row update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiAxisN {
    /// Padded stride of the axis.
    pub stride: usize,
    /// `1 / h_i²`
    pub inv_h2: f64,
}

/// What a d-dimensional solver steps with: the problem class's
/// coefficients in row form. Built once per solver; [`row`](Self::row)
/// is the row kernel [`PaddedFieldN::step_rows`] applies.
#[derive(Debug, Clone, PartialEq)]
pub enum StencilN {
    /// First-order upwind advection + centered diffusion.
    UpwindDiffusion(Vec<UpwindAxisN>),
    /// Weighted-Jacobi sweep for `−Δu = f`.
    Jacobi {
        /// Per-axis stride and `1 / h_i²`.
        axes: Vec<JacobiAxisN>,
        /// `1 / (2 Σ_i 1/h_i²)`
        inv_diag: f64,
        /// Right-hand side in the padded offset space of the field.
        rhs: Vec<f64>,
    },
}

impl StencilN {
    /// Row form of [`upwind_diffusion_kernel`]`(coef, pstride)`.
    pub fn upwind_diffusion(coef: &UpwindDiffusionCoefN, pstride: &[usize]) -> Self {
        StencilN::UpwindDiffusion(
            (pstride.iter().zip(&coef.c).zip(&coef.r))
                .map(|((&stride, &c), &r)| UpwindAxisN { stride, c, r, backward: c >= 0.0 })
                .collect(),
        )
    }

    /// Row form of [`jacobi_kernel`]`(inv_h2, pstride, rhs)`.
    pub fn jacobi(inv_h2: &[f64], pstride: &[usize], rhs: Vec<f64>) -> Self {
        StencilN::Jacobi {
            axes: (pstride.iter().zip(inv_h2))
                .map(|(&stride, &inv_h2)| JacobiAxisN { stride, inv_h2 })
                .collect(),
            inv_diag: 1.0 / (2.0 * inv_h2.iter().sum::<f64>()),
            rhs,
        }
    }

    /// The stencil a problem steps with on `field` (a slab whose last
    /// axis starts at global plane `z0` of a domain with `np` cells per
    /// axis), at timestep `dt`.
    pub fn for_slab(
        problem: &ProblemN,
        field: &PaddedFieldN,
        z0: usize,
        np: &[usize],
        dt: f64,
    ) -> Self {
        let h: Vec<f64> = np.iter().map(|&n| 1.0 / n as f64).collect();
        if problem.is_elliptic() {
            let inv_h2: Vec<f64> = h.iter().map(|hi| 1.0 / (hi * hi)).collect();
            StencilN::jacobi(&inv_h2, field.pstrides(), padded_rhs_slab(problem, field, z0, np))
        } else {
            let coef = UpwindDiffusionCoefN::new(problem, &h, dt);
            StencilN::upwind_diffusion(&coef, field.pstrides())
        }
    }

    /// Update one contiguous axis-0 row: `out[k]` becomes the new value
    /// of the cell at padded offset `off + k` of `cur`. `Scalar` runs
    /// the axis-pass loops below; `Simd` runs the lane-parallel body of
    /// the process's ISA — bit-identical by construction (see
    /// [`crate::simd`]).
    #[inline]
    pub fn row(&self, kind: KernelKind, cur: &[f64], off: usize, out: &mut [f64]) {
        match (self, kind) {
            (StencilN::UpwindDiffusion(axes), KernelKind::Scalar) => {
                upwind_diffusion_row_n(axes, cur, off, out)
            }
            (StencilN::UpwindDiffusion(axes), KernelKind::Simd) => {
                upwind_diffusion_row_n_simd(axes, cur, off, out)
            }
            (StencilN::Jacobi { axes, inv_diag, rhs }, KernelKind::Scalar) => {
                jacobi_row_n(axes, *inv_diag, rhs, cur, off, out)
            }
            (StencilN::Jacobi { axes, inv_diag, rhs }, KernelKind::Simd) => {
                jacobi_row_n_simd(axes, *inv_diag, rhs, cur, off, out)
            }
        }
    }
}

/// Scalar upwind–diffusion row, one pass per axis over contiguous
/// slices: `out` starts as the row's centre values and each axis applies
/// its two updates to every cell — per cell the operation sequence of
/// [`upwind_diffusion_kernel`] (`acc = c`, then per axis in order
/// `acc − c_i·dx`, `acc + r_i·(fwd − 2c + bwd)`), with the upwind side
/// chosen once per axis instead of once per point.
pub fn upwind_diffusion_row_n(axes: &[UpwindAxisN], cur: &[f64], off: usize, out: &mut [f64]) {
    let n = out.len();
    let c = &cur[off..off + n];
    out.copy_from_slice(c);
    for ax in axes {
        let fwd = &cur[off + ax.stride..][..n];
        let bwd = &cur[off - ax.stride..][..n];
        let cells = out.iter_mut().zip(c).zip(fwd.iter().zip(bwd));
        if ax.backward {
            for ((acc, &c), (&fwd, &bwd)) in cells {
                *acc -= ax.c * (c - bwd);
                *acc += ax.r * (fwd - 2.0 * c + bwd);
            }
        } else {
            for ((acc, &c), (&fwd, &bwd)) in cells {
                *acc -= ax.c * (fwd - c);
                *acc += ax.r * (fwd - 2.0 * c + bwd);
            }
        }
    }
}

/// Scalar Jacobi row, one pass per axis: per cell the operation sequence
/// of [`jacobi_kernel`] (`acc = rhs`, per axis `acc + (fwd + bwd)/h_i²`,
/// then `acc · inv_diag`).
pub fn jacobi_row_n(
    axes: &[JacobiAxisN],
    inv_diag: f64,
    rhs: &[f64],
    cur: &[f64],
    off: usize,
    out: &mut [f64],
) {
    let n = out.len();
    out.copy_from_slice(&rhs[off..off + n]);
    for ax in axes {
        let fwd = &cur[off + ax.stride..][..n];
        let bwd = &cur[off - ax.stride..][..n];
        for (acc, (&fwd, &bwd)) in out.iter_mut().zip(fwd.iter().zip(bwd)) {
            *acc += ax.inv_h2 * (fwd + bwd);
        }
    }
    for acc in out.iter_mut() {
        *acc *= inv_diag;
    }
}

/// Sample a problem's right-hand side into the padded offset space of a
/// field (interior entries only; halo stays zero).
pub fn padded_rhs(problem: &ProblemN, field: &PaddedFieldN) -> Vec<f64> {
    padded_rhs_slab(problem, field, 0, field.shape())
}

/// [`padded_rhs`] for a slab field whose last axis starts at global plane
/// `z0` of a domain with `np` cells per axis.
pub fn padded_rhs_slab(
    problem: &ProblemN,
    field: &PaddedFieldN,
    z0: usize,
    np: &[usize],
) -> Vec<f64> {
    let d = field.dim();
    let mut rhs = vec![0.0; field.padded().len()];
    let mut idx = vec![0usize; d];
    let mut x = vec![0.0f64; d];
    loop {
        for i in 0..d {
            let g = if i == d - 1 { idx[i] + z0 } else { idx[i] };
            x[i] = g as f64 / np[i] as f64;
        }
        let off: usize = idx.iter().zip(field.pstrides()).map(|(&k, &s)| (k + 1) * s).sum();
        rhs[off] = problem.rhs(&x);
        if !advance(&mut idx, field.shape()) {
            return rhs;
        }
    }
}

/// Single-owner periodic d-dimensional solver, mirroring the 2D
/// [`LocalSolver`](crate::LocalSolver) pattern: load once, step through
/// the double-buffered padded field, store once.
#[derive(Debug, Clone)]
pub struct SolverN {
    problem: ProblemN,
    grid: GridN,
    dt: f64,
    steps_done: u64,
    field: PaddedFieldN,
    stencil: StencilN,
}

impl SolverN {
    /// Initialize from the problem's initial condition at a level vector.
    pub fn new(problem: ProblemN, level: &[u32], dt: f64) -> Self {
        assert_eq!(problem.dim(), level.len(), "problem/level dimension mismatch");
        let grid = GridN::from_fn(level, |x| problem.initial(x));
        let field = PaddedFieldN::from_grid(&grid);
        let stencil = StencilN::for_slab(&problem, &field, 0, field.shape(), dt);
        SolverN { problem, grid, dt, steps_done: 0, field, stencil }
    }

    /// Advance `n` timesteps (or Jacobi sweeps for the elliptic class).
    pub fn run(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let SolverN { grid, field, stencil, .. } = self;
        let kind = KernelConfig::global().kind;
        field.load(grid);
        let planes = field.shape()[field.dim() - 1];
        for _ in 0..n {
            field.refresh_periodic_halo();
            field.step_rows(0, planes, |cur, off, out| stencil.row(kind, cur, off, out));
            field.commit_step();
        }
        field.store(grid);
        self.steps_done += n;
    }

    /// Advance one step.
    pub fn step(&mut self) {
        self.run(1);
    }

    /// Simulated time reached (sweep count for the elliptic class).
    pub fn time(&self) -> f64 {
        self.steps_done as f64 * self.dt
    }

    /// The current solution grid.
    pub fn grid(&self) -> &GridN {
        &self.grid
    }

    /// The PDE.
    pub fn problem(&self) -> &ProblemN {
        &self.problem
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ndproblem::TimeGridN;

    /// The heat equation `∂u/∂t = κΔu` in 2D: no velocity, so the
    /// stencil is FTCS.
    pub(crate) fn heat(kappa: f64) -> ProblemN {
        ProblemN::AdvectionDiffusion { a: vec![0.0; 2], kappa, k: vec![1; 2] }
    }

    /// First-order upwind advection in 2D: no diffusion.
    pub(crate) fn upwind(a: [f64; 2]) -> ProblemN {
        ProblemN::AdvectionDiffusion { a: a.to_vec(), kappa: 0.0, k: vec![1; 2] }
    }

    /// `Δt` at `safety` times the explicit-stability bound of level `n`.
    pub(crate) fn stable_dt(p: &ProblemN, n: u32, safety: f64) -> f64 {
        TimeGridN::for_system(p, n, 0, safety).dt
    }

    /// l1 error against the exact solution after `steps` steps.
    pub(crate) fn error_after(p: &ProblemN, level: &[u32], dt: f64, steps: u64) -> f64 {
        let mut s = SolverN::new(p.clone(), level, dt);
        s.run(steps);
        let t = s.time();
        s.grid().l1_error_vs(|x| p.exact(x, t))
    }

    /// A solver whose state is overwritten with the constant `value`.
    pub(crate) fn constant_solver(p: ProblemN, level: &[u32], dt: f64, value: f64) -> SolverN {
        let mut s = SolverN::new(p, level, dt);
        for v in s.grid.values_mut() {
            *v = value;
        }
        s
    }

    #[test]
    fn constant_state_is_a_fixed_point_of_advection() {
        let p =
            ProblemN::AdvectionDiffusion { a: vec![1.0, -0.5, 0.25], kappa: 0.1, k: vec![1; 3] };
        let mut s = constant_solver(p, &[3, 3, 3], 0.001, 2.0);
        s.run(20);
        for &v in s.grid().values() {
            assert!((v - 2.0).abs() < 1e-13, "constant broken: {v}");
        }
    }

    #[test]
    fn advection_diffusion_tracks_the_exact_solution() {
        let p = ProblemN::standard_advection(3);
        let dt = TimeGridN::for_system(&p, 5, 0, 0.4).dt;
        let err = error_after(&p, &[5, 5, 5], dt, (0.05 / dt).round() as u64);
        assert!(err < 0.06, "first-order upwind should stay close: {err}");
    }

    #[test]
    fn upwind_converges_at_first_order() {
        let p = ProblemN::standard_advection(2);
        let err_at = |lev: u32| {
            let dt = 0.1 / (1u64 << lev) as f64;
            error_after(&p, &[lev, lev], dt, (0.1 / dt).round() as u64)
        };
        let e4 = err_at(4);
        let e5 = err_at(5);
        assert!(e5 < e4 / 1.6, "e4={e4}, e5={e5}");
    }

    #[test]
    fn ftcs_converges_at_second_order_in_space() {
        // Fixed final time, Δt scaled with h² (the stability bound), so
        // the spatial error dominates.
        let p = heat(0.05);
        let err_at = |lev: u32| {
            let dt = stable_dt(&p, lev, 0.5);
            error_after(&p, &[lev, lev], dt, (0.05 / dt).round() as u64)
        };
        let e4 = err_at(4);
        let e5 = err_at(5);
        assert!(e5 < e4 / 3.0, "e4={e4}, e5={e5}");
    }

    #[test]
    fn jacobi_converges_to_the_manufactured_solution() {
        let p = ProblemN::standard_elliptic(3);
        let mut s = SolverN::new(p.clone(), &[3, 3, 3], 1.0);
        s.run(400);
        let err = s.grid().l1_error_vs(|x| p.exact(x, 0.0));
        assert!(err < 0.03, "Jacobi should approach u*: {err}");
        // More sweeps keep improving (monotone residual decay).
        let mut s2 = SolverN::new(p.clone(), &[3, 3, 3], 1.0);
        s2.run(800);
        let err2 = s2.grid().l1_error_vs(|x| p.exact(x, 0.0));
        assert!(err2 <= err + 1e-12, "{err2} vs {err}");
    }

    #[test]
    fn stability_number_is_reported() {
        let p = ProblemN::standard_advection(3);
        let coef = UpwindDiffusionCoefN::new(&p, &[0.1, 0.1, 0.1], 0.01);
        assert!(coef.stability() > 0.0 && coef.stability() < 1.0);
    }
}
