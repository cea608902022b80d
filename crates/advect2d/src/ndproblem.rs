//! d-dimensional model problems with closed-form reference solutions.
//!
//! Two problem classes drive the generalized solver:
//!
//! * **Advection–diffusion** `∂u/∂t + a·∇u = κΔu` on the periodic unit
//!   cube, with the separable exact solution
//!   `u(x, t) = exp(−κ(2π)²·Σ k_i²·t) · Π sin(2π k_i (x_i − a_i t))` —
//!   the transport term shifts each factor, the diffusion term decays
//!   the amplitude, so both operators are verified at once.
//! * **Elliptic** `−Δu = f` with the manufactured solution
//!   `u*(x) = Π sin(2π k_i x_i)`, `f = (2π)² Σ k_i² · u*`, solved by
//!   Jacobi sweeps (the SNIPPETS exemplars' workload class). With
//!   periodic boundaries the operator is singular on constants; Jacobi
//!   preserves the mean exactly, so a zero-mean start converges to the
//!   zero-mean discrete solution that `u*` samples.

use std::f64::consts::PI;

/// A d-dimensional PDE instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemN {
    /// `∂u/∂t + a·∇u = κΔu`, periodic on `[0,1]^d`.
    AdvectionDiffusion {
        /// Advection velocity per axis.
        a: Vec<f64>,
        /// Diffusion coefficient (≥ 0; 0 is pure advection).
        kappa: f64,
        /// Wave numbers of the separable initial condition.
        k: Vec<u32>,
    },
    /// `−Δu = f` with the manufactured solution `Π sin(2π k_i x_i)`.
    Elliptic {
        /// Wave numbers of the manufactured solution.
        k: Vec<u32>,
    },
}

impl ProblemN {
    /// The standard advection–diffusion instance: unit diagonal velocity,
    /// mild diffusion, wave number 1 on every axis.
    pub fn standard_advection(dim: usize) -> Self {
        ProblemN::AdvectionDiffusion { a: vec![1.0; dim], kappa: 0.02, k: vec![1; dim] }
    }

    /// The standard elliptic instance: wave number 1 on every axis.
    pub fn standard_elliptic(dim: usize) -> Self {
        ProblemN::Elliptic { k: vec![1; dim] }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        match self {
            ProblemN::AdvectionDiffusion { a, .. } => a.len(),
            ProblemN::Elliptic { k } => k.len(),
        }
    }

    /// True for the elliptic (sweep-iterated) problem class.
    pub fn is_elliptic(&self) -> bool {
        matches!(self, ProblemN::Elliptic { .. })
    }

    /// Initial condition: the exact solution at `t = 0` for
    /// advection–diffusion, the zero guess for the elliptic solve.
    ///
    /// By definition the product, in axis order, of
    /// [`initial_scale`](Self::initial_scale) and one
    /// [`initial_factor`](Self::initial_factor) per axis — so a caller
    /// that tabulates the factors per axis and multiplies in that order
    /// reproduces it bit for bit without a transcendental per cell.
    pub fn initial(&self, x: &[f64]) -> f64 {
        x.iter()
            .enumerate()
            .fold(self.initial_scale(), |u, (i, &xi)| u * self.initial_factor(i, xi))
    }

    /// What the per-axis factors of [`initial`](Self::initial) multiply:
    /// the `t = 0` amplitude, or 0 for the elliptic zero guess.
    pub fn initial_scale(&self) -> f64 {
        match self {
            ProblemN::AdvectionDiffusion { .. } => self.amplitude(0.0),
            ProblemN::Elliptic { .. } => 0.0,
        }
    }

    /// Axis `i`'s factor of [`initial`](Self::initial) at coordinate `xi`
    /// (1 for the elliptic zero guess, which has none).
    pub fn initial_factor(&self, i: usize, xi: f64) -> f64 {
        match self {
            ProblemN::AdvectionDiffusion { .. } => self.axis_factor(i, xi, 0.0),
            ProblemN::Elliptic { .. } => 1.0,
        }
    }

    /// The reference solution: time-dependent for advection–diffusion,
    /// the manufactured `u*` (time-independent) for the elliptic solve.
    /// Separable: the amplitude times one factor per axis, in axis order.
    pub fn exact(&self, x: &[f64], t: f64) -> f64 {
        x.iter().enumerate().fold(self.amplitude(t), |u, (i, &xi)| u * self.axis_factor(i, xi, t))
    }

    /// The time-dependent amplitude of [`exact`](Self::exact).
    fn amplitude(&self, t: f64) -> f64 {
        match self {
            ProblemN::AdvectionDiffusion { kappa, k, .. } => {
                let lambda: f64 =
                    kappa * (2.0 * PI).powi(2) * k.iter().map(|&ki| (ki * ki) as f64).sum::<f64>();
                (-lambda * t).exp()
            }
            ProblemN::Elliptic { .. } => 1.0,
        }
    }

    /// Axis `i`'s factor of [`exact`](Self::exact) at coordinate `xi`.
    fn axis_factor(&self, i: usize, xi: f64, t: f64) -> f64 {
        match self {
            ProblemN::AdvectionDiffusion { a, k, .. } => {
                (2.0 * PI * k[i] as f64 * (xi - a[i] * t)).sin()
            }
            ProblemN::Elliptic { k } => (2.0 * PI * k[i] as f64 * xi).sin(),
        }
    }

    /// Right-hand side of the elliptic problem, `f = (2π)² Σ k_i² · u*`
    /// (zero for the time-dependent class, which has no source).
    pub fn rhs(&self, x: &[f64]) -> f64 {
        match self {
            ProblemN::AdvectionDiffusion { .. } => 0.0,
            ProblemN::Elliptic { k } => {
                let lam: f64 =
                    (2.0 * PI).powi(2) * k.iter().map(|&ki| (ki * ki) as f64).sum::<f64>();
                lam * self.exact(x, 0.0)
            }
        }
    }
}

/// The shared time discretization of a d-dimensional combination solve
/// (for the elliptic class, "steps" are Jacobi sweeps and `dt` is unused).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGridN {
    /// Fixed timestep used by every component grid.
    pub dt: f64,
    /// Number of timesteps (or sweeps) to run.
    pub steps: u64,
}

impl TimeGridN {
    /// Choose `Δt` from the explicit-stability bound on the finest mesh
    /// of a system with full grid size `n`: the upwind–diffusion update
    /// needs `Σ_i (|a_i| Δt/h + 2 κ Δt/h²) ≤ 1`, so
    /// `Δt = cfl / (Σ|a_i|·2ⁿ + 2dκ·4ⁿ)`.
    pub fn for_system(problem: &ProblemN, n: u32, steps: u64, cfl: f64) -> Self {
        assert!(cfl > 0.0 && cfl <= 1.0, "CFL must be in (0, 1], got {cfl}");
        match problem {
            ProblemN::AdvectionDiffusion { a, kappa, .. } => {
                let inv_h = (1u64 << n) as f64;
                let speed: f64 = a.iter().map(|v| v.abs()).sum();
                let rate = speed * inv_h + 2.0 * kappa * a.len() as f64 * inv_h * inv_h;
                assert!(rate > 0.0, "advection velocity and diffusion cannot both vanish");
                TimeGridN { dt: cfl / rate, steps }
            }
            ProblemN::Elliptic { .. } => TimeGridN { dt: 1.0, steps },
        }
    }

    /// The paper-like configuration: CFL 0.4 and `2^k` steps.
    pub fn paper_like(problem: &ProblemN, n: u32, log2_steps: u32) -> Self {
        Self::for_system(problem, n, 1u64 << log2_steps, 0.4)
    }

    /// Total simulated time.
    pub fn total_time(&self) -> f64 {
        self.dt * self.steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_solution_satisfies_separability() {
        let p = ProblemN::standard_advection(3);
        // At t = 0 the solution is the plain product of sines.
        let x = [0.3, 0.1, 0.7];
        let want = (2.0 * PI * 0.3).sin() * (2.0 * PI * 0.1).sin() * (2.0 * PI * 0.7).sin();
        assert!((p.exact(&x, 0.0) - want).abs() < 1e-14);
        // Amplitude decays in time (diffusion) while transporting.
        let later = p.exact(&[0.3 + 0.1, 0.1 + 0.1, 0.7 + 0.1], 0.1);
        assert!(later.abs() < want.abs());
    }

    #[test]
    fn elliptic_rhs_matches_minus_laplacian() {
        let p = ProblemN::standard_elliptic(3);
        // −Δ(Π sin) = (2π)²·3·Π sin for unit wave numbers.
        let x = [0.2, 0.4, 0.6];
        let lam = (2.0 * PI).powi(2) * 3.0;
        assert!((p.rhs(&x) - lam * p.exact(&x, 0.0)).abs() < 1e-10);
    }

    #[test]
    fn dt_respects_combined_stability_bound() {
        let p = ProblemN::standard_advection(3);
        let tg = TimeGridN::for_system(&p, 4, 10, 0.4);
        let inv_h = 16.0;
        let rate = 3.0 * inv_h + 2.0 * 0.02 * 3.0 * inv_h * inv_h;
        assert!((tg.dt - 0.4 / rate).abs() < 1e-15);
    }

    #[test]
    fn elliptic_timegrid_counts_sweeps() {
        let p = ProblemN::standard_elliptic(3);
        let tg = TimeGridN::paper_like(&p, 4, 5);
        assert_eq!(tg.steps, 32);
    }
}
