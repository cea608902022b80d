//! Problem definition: velocity field, initial conditions, and the exact
//! analytic solution used for error measurement.

/// Initial conditions `u₀(x, y)` on the periodic unit square.
///
/// An enum (rather than a closure) so problems are `Copy + Send` and can
/// be shipped to every simulated MPI rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialCondition {
    /// `sin(2π kx·x) · sin(2π ky·y)` — smooth, periodic, zero-mean.
    SinProduct {
        /// x wavenumber.
        kx: u32,
        /// y wavenumber.
        ky: u32,
    },
    /// A smooth raised-cosine hill centred at (½, ½):
    /// `¼ (1 − cos 2πx)(1 − cos 2πy)`.
    CosHill,
    /// Constant value (trivially invariant under advection; useful in
    /// tests).
    Constant(f64),
}

impl InitialCondition {
    /// Evaluate `u₀` at a point (assumed already wrapped into `[0,1)²`).
    ///
    /// Every variant is separable, and this product *is* its definition:
    /// a caller that tabulates [`x_factor`](Self::x_factor) and
    /// [`y_factor`](Self::y_factor) per axis and multiplies them in this
    /// order reproduces `eval` bit for bit, one transcendental per node
    /// of an axis instead of two per cell.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        self.x_factor(x) * self.y_factor(y)
    }

    /// The x-dependent factor of `u₀` (it carries any constant).
    pub fn x_factor(&self, x: f64) -> f64 {
        use std::f64::consts::TAU;
        match *self {
            InitialCondition::SinProduct { kx, .. } => (TAU * kx as f64 * x).sin(),
            InitialCondition::CosHill => 0.25 * (1.0 - (TAU * x).cos()),
            InitialCondition::Constant(c) => c,
        }
    }

    /// The y-dependent factor of `u₀`.
    pub fn y_factor(&self, y: f64) -> f64 {
        use std::f64::consts::TAU;
        match *self {
            InitialCondition::SinProduct { ky, .. } => (TAU * ky as f64 * y).sin(),
            InitialCondition::CosHill => 1.0 - (TAU * y).cos(),
            InitialCondition::Constant(_) => 1.0,
        }
    }
}

/// The scalar 2D advection problem `∂u/∂t + a·∇u = 0` with periodic
/// boundary conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvectionProblem {
    /// x-velocity.
    pub ax: f64,
    /// y-velocity.
    pub ay: f64,
    /// Initial condition.
    pub ic: InitialCondition,
}

/// Wrap a coordinate into `[0, 1)`.
#[inline]
pub fn wrap01(x: f64) -> f64 {
    let r = x.rem_euclid(1.0);
    if r == 1.0 {
        0.0
    } else {
        r
    }
}

impl AdvectionProblem {
    /// The configuration used throughout the experiments: unit diagonal
    /// velocity and a `sin·sin` initial condition.
    pub fn standard() -> Self {
        AdvectionProblem { ax: 1.0, ay: 1.0, ic: InitialCondition::SinProduct { kx: 1, ky: 1 } }
    }

    /// The exact solution `u(x, y, t) = u₀(x − aₓt, y − a_y t)` (wrapped).
    pub fn exact(&self, x: f64, y: f64, t: f64) -> f64 {
        self.ic.eval(wrap01(x - self.ax * t), wrap01(y - self.ay * t))
    }

    /// The initial condition as a closure of `(x, y)`.
    pub fn initial(&self) -> impl Fn(f64, f64) -> f64 + '_ {
        move |x, y| self.ic.eval(wrap01(x), wrap01(y))
    }

    /// The x factor of [`initial`](Self::initial):
    /// `initial()(x, y) == initial_x(x) * initial_y(y)`, bit for bit.
    pub fn initial_x(&self, x: f64) -> f64 {
        self.ic.x_factor(wrap01(x))
    }

    /// The y factor of [`initial`](Self::initial).
    pub fn initial_y(&self, y: f64) -> f64 {
        self.ic.y_factor(wrap01(y))
    }

    /// The exact solution at a fixed time as a closure of `(x, y)`.
    pub fn exact_at(&self, t: f64) -> impl Fn(f64, f64) -> f64 + '_ {
        move |x, y| self.exact(x, y, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap01_behaviour() {
        assert_eq!(wrap01(0.0), 0.0);
        assert_eq!(wrap01(1.0), 0.0);
        assert!((wrap01(1.25) - 0.25).abs() < 1e-15);
        assert!((wrap01(-0.25) - 0.75).abs() < 1e-15);
        assert!((wrap01(-3.5) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn exact_solution_translates_initial_condition() {
        let p = AdvectionProblem::standard();
        // After t, the value at x equals u0 at x - a t.
        let (x, y, t) = (0.3, 0.8, 0.45);
        let expect = p.ic.eval(wrap01(x - t), wrap01(y - t));
        assert!((p.exact(x, y, t) - expect).abs() < 1e-15);
    }

    #[test]
    fn exact_solution_is_time_periodic_for_unit_velocity() {
        let p = AdvectionProblem::standard();
        for &(x, y) in &[(0.1, 0.2), (0.7, 0.9), (0.5, 0.5)] {
            assert!((p.exact(x, y, 1.0) - p.exact(x, y, 0.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn initial_conditions_evaluate() {
        let s = InitialCondition::SinProduct { kx: 1, ky: 1 };
        assert!(s.eval(0.0, 0.5).abs() < 1e-15);
        assert!((s.eval(0.25, 0.25) - 1.0).abs() < 1e-15);
        let h = InitialCondition::CosHill;
        assert!((h.eval(0.5, 0.5) - 1.0).abs() < 1e-15);
        assert!(h.eval(0.0, 0.3).abs() < 1e-15);
        assert_eq!(InitialCondition::Constant(2.5).eval(0.9, 0.1), 2.5);
    }

    #[test]
    fn constant_ic_is_invariant() {
        let p = AdvectionProblem { ax: 2.0, ay: -1.0, ic: InitialCondition::Constant(7.0) };
        assert_eq!(p.exact(0.123, 0.456, 0.789), 7.0);
    }
}
