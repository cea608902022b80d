//! # sparsegrid — the sparse grid combination technique (2D)
//!
//! Implements the numerical machinery of the paper: anisotropic component
//! grids `(2^i+1) × (2^j+1)` on the unit square, the classical combination
//! formula (the paper's Eq. 1)
//!
//! ```text
//! u_{n,l}^s = Σ_{i+j = 2n−l+1, i,j ≤ n} u_{i,j}  −  Σ_{i+j = 2n−l, i,j ≤ n−1} u_{i,j}
//! ```
//!
//! and the **general coefficient problem** solution that powers the
//! *Alternate Combination* recovery technique: for any downset `J` of
//! levels, the inclusion–exclusion coefficients
//!
//! ```text
//! c(a) = Σ_{z ∈ {0,1}²} (−1)^{|z|} [a + z ∈ J]
//! ```
//!
//! yield a valid combination; after grid losses the surviving downset is
//! `J \ upset(lost)` and the recomputed coefficients recruit the *extra
//! layer* grids (Harding & Hegland's robust combination technique,
//! refs [15, 18] of the paper).
//!
//! The grid layout of the paper's Fig. 1 — diagonal sub-grids 0–3, lower
//! diagonal 4–6, duplicates 7–10 (for Resampling & Copying), extra-layer
//! grids 11–13 (for Alternate Combination) — is provided by
//! [`scheme::GridSystem`].

pub mod coeffs;
pub mod combine;
pub mod component;
pub mod grid2;
pub mod hier;
pub mod level;
pub mod ndcombine;
pub mod ndgrid;
pub mod ndim;
pub mod norms;
pub mod scheme;
pub mod scheme_nd;
pub mod scratch;

pub use coeffs::{gcp_coefficients, robust_coefficients, verify_covering, LevelSet};
pub use combine::{
    accumulate_onto, combine_binomial, combine_onto, combine_onto_into, CombinationTerm,
};
pub use component::ComponentGrid;
pub use grid2::Grid2;
pub use level::LevelPair;
pub use ndcombine::{
    combine_binomial_nd, combine_onto_into_nd, combine_onto_nd, CombinationTermN, FoldN,
};
pub use ndgrid::GridN;
pub use ndim::{
    gcp_coefficients_nd, robust_coefficients_nd, verify_covering_nd, IndexedDownset, LevelSetN,
    LevelVecN, RobustCoefficients, MAX_DIM,
};
pub use norms::{l1_error_vs, l1_grid_diff, l2_error_vs, linf_error_vs};
pub use scheme::{GridRole, GridSystem, Layout, SubGrid};
pub use scheme_nd::{GridRoleN, GridSystemN, RcSourceN, SubGridN};
pub use scratch::ensure_len;
