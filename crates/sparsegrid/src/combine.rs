//! Evaluating the combined sparse grid solution.
//!
//! The combination solution is `u^s(x) = Σ c_a · u_a(x)` where each
//! `u_a(x)` is the bilinear interpolant of component grid `a`. We
//! materialize it on a *target* grid; when every component level dominates
//! the target componentwise, evaluation is pure injection and introduces no
//! interpolation error (the solver samples onto the coarsest corner level
//! `(m, m)` for error measurement, and onto a lost grid's own level for
//! Alternate Combination data recovery).

use crate::grid2::Grid2;
use crate::level::LevelPair;

/// One term of a combination: a coefficient and the component grid.
#[derive(Debug, Clone, Copy)]
pub struct CombinationTerm<'a> {
    /// The combination coefficient `c_a`.
    pub coeff: f64,
    /// The component grid `u_a`.
    pub grid: &'a Grid2,
}

/// Evaluate `Σ coeff · grid(x)` on every node of a grid at `target` level.
pub fn combine_onto(target: LevelPair, terms: &[CombinationTerm<'_>]) -> Grid2 {
    let mut out = Grid2::zeros(target);
    combine_onto_into(&mut out, terms);
    out
}

/// [`combine_onto`] into reused storage: `out` (already at the target
/// level) is zeroed and accumulated in place, so a steady-state combine
/// round over preallocated partials performs no heap allocation. Bitwise
/// identical to [`combine_onto`] at `out.level()`.
pub fn combine_onto_into(out: &mut Grid2, terms: &[CombinationTerm<'_>]) {
    for v in out.values_mut() {
        *v = 0.0;
    }
    for term in terms {
        accumulate_onto(out, term);
    }
}

/// One step of [`combine_onto_into`]'s left fold: `out += coeff · grid`,
/// evaluated on `out`'s nodes. Folding a term list into a zero grid one
/// term at a time — as each term arrives, into as many targets as need
/// it — is therefore bit for bit [`combine_onto`] of the list.
pub fn accumulate_onto(out: &mut Grid2, term: &CombinationTerm<'_>) {
    let (g, c) = (term.grid, term.coeff);
    if c == 0.0 {
        return;
    }
    let target = out.level();
    let (hx, hy) = out.spacing();
    let (nx, ny) = (out.nx(), out.ny());
    if target.leq(&g.level()) {
        // Injection fast path: strides are exact powers of two.
        let sx = 1usize << (g.level().i - target.i);
        let sy = 1usize << (g.level().j - target.j);
        for m in 0..ny {
            for k in 0..nx {
                *out.at_mut(k, m) += c * g.at(k * sx, m * sy);
            }
        }
    } else {
        for m in 0..ny {
            let y = m as f64 * hy;
            for k in 0..nx {
                let x = k as f64 * hx;
                *out.at_mut(k, m) += c * g.eval(x, y);
            }
        }
    }
}

/// Evaluate the combination with **binomial-tree association**: each term
/// is materialized on the target level individually (exactly
/// [`combine_onto`] of a single term), then the partials are pairwise
/// summed with doubling stride — `parts[i] += parts[i + stride]` for
/// `stride = 1, 2, 4, …` — the association a log-depth reduction tree
/// over term owners produces. This is the *serial reference* for the
/// distributed tree combination: the distributed path must match it
/// bitwise, term list for term list.
///
/// For ≤ 2 terms the result is bitwise equal to the left-fold
/// [`combine_onto`]; beyond that the two differ only by floating-point
/// re-association (well inside the combination's discretization error).
pub fn combine_binomial(target: LevelPair, terms: &[CombinationTerm<'_>]) -> Grid2 {
    if terms.is_empty() {
        return Grid2::zeros(target);
    }
    let mut parts: Vec<Grid2> =
        terms.iter().map(|t| combine_onto(target, std::slice::from_ref(t))).collect();
    let mut stride = 1;
    while stride < parts.len() {
        let mut i = 0;
        while i + stride < parts.len() {
            let (head, tail) = parts.split_at_mut(i + stride);
            head[i].axpy(1.0, &tail[0]);
            i += 2 * stride;
        }
        stride *= 2;
    }
    parts.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::{gcp_coefficients, LevelSet};

    fn lv(i: u32, j: u32) -> LevelPair {
        LevelPair::new(i, j)
    }

    fn classical_terms(n: u32, l: u32, f: impl Fn(f64, f64) -> f64) -> Vec<(f64, Grid2)> {
        let m = n - l + 1;
        let tau = 2 * n - l + 1;
        let mut levels = Vec::new();
        for i in m..=n {
            for j in m..=n {
                if i + j <= tau {
                    levels.push(lv(i, j));
                }
            }
        }
        let set: LevelSet = levels.into_iter().collect();
        gcp_coefficients(&set).into_iter().map(|(l, c)| (c as f64, Grid2::from_fn(l, &f))).collect()
    }

    #[test]
    fn combination_of_bilinear_is_exact() {
        // x, y and xy are in every component grid's bilinear space, and the
        // coefficients sum to 1, so the combination must reproduce them.
        for f in [
            (|_x: f64, _y: f64| 1.0) as fn(f64, f64) -> f64,
            |x, _| x,
            |_, y| y,
            |x, y| 3.0 - 2.0 * x + y + 4.0 * x * y,
        ] {
            let terms = classical_terms(6, 3, f);
            let refs: Vec<CombinationTerm> =
                terms.iter().map(|(c, g)| CombinationTerm { coeff: *c, grid: g }).collect();
            let combined = combine_onto(lv(4, 4), &refs);
            for m in 0..combined.ny() {
                for k in 0..combined.nx() {
                    let (x, y) = combined.coords(k, m);
                    assert!((combined.at(k, m) - f(x, y)).abs() < 1e-12, "at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn injection_path_used_for_dominated_target() {
        // Sample onto the corner level (m, m): every component dominates
        // it, so the combined values equal the coefficient-weighted nodal
        // sums exactly.
        let f = |x: f64, y: f64| (6.3 * x).sin() + (6.3 * y).cos();
        let terms = classical_terms(6, 3, f);
        let refs: Vec<CombinationTerm> =
            terms.iter().map(|(c, g)| CombinationTerm { coeff: *c, grid: g }).collect();
        let target = lv(4, 4); // m = 6 - 3 + 1 = 4
        let combined = combine_onto(target, &refs);
        // Check one node by hand.
        let (x, y) = combined.coords(3, 7);
        let manual: f64 = terms.iter().map(|(c, g)| c * g.eval(x, y)).sum();
        assert!((combined.at(3, 7) - manual).abs() < 1e-12);
    }

    #[test]
    fn combination_error_decreases_with_level() {
        // Smooth-function convergence: the sparse grid combination error
        // at fixed l must shrink as n grows.
        let f =
            |x: f64, y: f64| (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin();
        let err = |n: u32| {
            let l = 3;
            let terms = classical_terms(n, l, f);
            let refs: Vec<CombinationTerm> =
                terms.iter().map(|(c, g)| CombinationTerm { coeff: *c, grid: g }).collect();
            // Evaluate on the *full* grid (n, n): its off-node points (with
            // respect to the anisotropic components) expose the sparse grid
            // interpolation error; nodes shared by all components would be
            // trivially exact because the grids are direct samples of f.
            let combined = combine_onto(lv(n, n), &refs);
            let mut e = 0.0f64;
            for mm in 0..combined.ny() {
                for k in 0..combined.nx() {
                    let (x, y) = combined.coords(k, mm);
                    e = e.max((combined.at(k, mm) - f(x, y)).abs());
                }
            }
            e
        };
        let e5 = err(5);
        let e7 = err(7);
        assert!(e7 < e5 / 2.0, "combination must converge: err(n=5)={e5}, err(n=7)={e7}");
    }

    #[test]
    fn binomial_association_matches_left_fold_up_to_reassociation() {
        let f = |x: f64, y: f64| (7.1 * x).sin() * (3.3 * y + 0.2).cos();
        let terms = classical_terms(6, 3, f);
        let refs: Vec<CombinationTerm> =
            terms.iter().map(|(c, g)| CombinationTerm { coeff: *c, grid: g }).collect();
        let target = lv(4, 4);
        let fold = combine_onto(target, &refs);
        let tree = combine_binomial(target, &refs);
        assert_eq!(fold.level(), tree.level());
        for m in 0..fold.ny() {
            for k in 0..fold.nx() {
                let d = (fold.at(k, m) - tree.at(k, m)).abs();
                assert!(d < 1e-12, "reassociation error {d} at ({k},{m})");
            }
        }
        // One and two terms: associations coincide, so equality is bitwise.
        for n in 1..=2 {
            let short = &refs[..n];
            assert_eq!(combine_onto(target, short), combine_binomial(target, short));
        }
    }

    #[test]
    fn binomial_of_empty_terms_is_zeros() {
        let g = combine_binomial(lv(3, 3), &[]);
        assert!(g.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_coefficient_terms_are_skipped() {
        let g = Grid2::from_fn(lv(3, 3), |x, y| x * y);
        let combined = combine_onto(
            lv(2, 2),
            &[CombinationTerm { coeff: 0.0, grid: &g }, CombinationTerm { coeff: 1.0, grid: &g }],
        );
        assert!((combined.eval(0.5, 0.5) - 0.25).abs() < 1e-12);
    }
}
