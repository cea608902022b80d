//! # advect2d — the paper's model PDE
//!
//! The scalar advection equation in two spatial dimensions,
//!
//! ```text
//! ∂u/∂t + a·∇u = 0   on  [0,1]² (periodic),
//! ```
//!
//! solved on regular (anisotropic) grids with an unsplit **Lax–Wendroff**
//! scheme [Lax & Wendroff 1960], exactly as the paper's sparse-grid
//! combination solver does on every sub-grid. The problem has a closed-form
//! solution (`u(x, t) = u₀(x − a t)` wrapped periodically), "which can be
//! calculated for advection from the initial conditions" — that is the
//! reference all error measurements compare against.
//!
//! The d-dimensional [`SolverN`] (first-order upwind advection–diffusion,
//! Jacobi sweeps) carries the other model problems. At d = 2 it is the
//! first-order upwind scheme with `κ = 0` and the FTCS heat equation with
//! `a = 0` (`tests/equivalence.rs` holds it to their point formulas bit
//! for bit).

#[cfg(test)]
mod diffusion;
pub mod laxwendroff;
pub mod ndfield;
pub mod ndproblem;
pub mod ndsolve;
pub mod problem;
pub mod simd;
pub mod stepper;
#[cfg(test)]
mod upwind;

pub use laxwendroff::{
    lax_wendroff_kernel, lax_wendroff_row, lax_wendroff_step, lw_row_fn, LocalSolver, LwCoef,
};
pub use ndfield::PaddedFieldN;
pub use ndproblem::{ProblemN, TimeGridN};
pub use ndsolve::{
    jacobi_kernel, jacobi_row_n, padded_rhs, padded_rhs_slab, upwind_diffusion_kernel,
    upwind_diffusion_row_n, JacobiAxisN, SolverN, StencilN, UpwindAxisN, UpwindDiffusionCoefN,
};
pub use problem::{AdvectionProblem, InitialCondition};
pub use simd::{
    jacobi_row_n_simd, lax_wendroff_row_simd, simd_isa_label, upwind_diffusion_row_n_on,
    upwind_diffusion_row_n_simd, KernelConfig, KernelKind, SimdIsa,
};
pub use stepper::{PaddedField, TimeGrid};
