//! Evaluating the combined sparse grid solution in d dimensions.
//!
//! The d-dimensional sibling of [`crate::combine`]: the combination
//! solution `u^s(x) = Σ c_a · u_a(x)` is materialized on a *target* grid.
//! When every component level dominates the target componentwise,
//! evaluation is pure injection (exact powers-of-two strides per axis);
//! otherwise the component's d-linear interpolant is evaluated at every
//! target node. At d = 2 both paths are bitwise identical to the 2D
//! implementation — [`GridN`] shares `Grid2`'s memory layout.

use crate::ndgrid::{inject_rows, GridN, InterpWalk};

/// One term of a d-dimensional combination.
#[derive(Debug, Clone, Copy)]
pub struct CombinationTermN<'a> {
    /// The combination coefficient `c_a`.
    pub coeff: f64,
    /// The component grid `u_a`.
    pub grid: &'a GridN,
}

/// Evaluate `Σ coeff · grid(x)` on every node of a grid at `target` level.
pub fn combine_onto_nd(target: &[u32], terms: &[CombinationTermN<'_>]) -> GridN {
    let mut out = GridN::zeros(target);
    combine_onto_into_nd(&mut out, terms);
    out
}

/// [`combine_onto_nd`] into reused storage: `out` (already at the target
/// level) is zeroed and accumulated in place. Bitwise identical to
/// [`combine_onto_nd`] at `out.level()`.
///
/// Both branches walk contiguous rows of `out` (see the module docs of
/// [`crate::ndgrid`]): the interpolation tables are allocated once per
/// call and re-aimed per term, so the request count depends on the term
/// list only, never on the target's size.
pub fn combine_onto_into_nd(out: &mut GridN, terms: &[CombinationTermN<'_>]) {
    for v in out.values_mut() {
        *v = 0.0;
    }
    let mut walk = None;
    for term in terms {
        accumulate(out, term, &mut walk);
    }
}

/// [`combine_onto_nd`] one term at a time: a grid at the target level
/// that terms are added to as they arrive ([`add`](Self::add)), keeping
/// the interpolation tables its first interpolated term allocated for
/// the rest. Folding a term list in order is bit for bit
/// [`combine_onto_nd`] of the list, with the same allocator requests.
pub struct FoldN {
    out: GridN,
    walk: Option<InterpWalk>,
}

impl FoldN {
    /// An empty fold (a zero grid) at `target`.
    pub fn new(target: &[u32]) -> Self {
        FoldN { out: GridN::zeros(target), walk: None }
    }

    /// One step of the left fold: `out += coeff · grid` on every node.
    pub fn add(&mut self, term: &CombinationTermN<'_>) {
        accumulate(&mut self.out, term, &mut self.walk);
    }

    /// The folded grid, by value.
    pub fn into_grid(self) -> GridN {
        self.out
    }
}

/// `out += coeff · grid`: pure injection when `grid` dominates `out`,
/// otherwise through `walk`, created on first need for `out`'s shape.
fn accumulate(out: &mut GridN, term: &CombinationTermN<'_>, walk: &mut Option<InterpWalk>) {
    let (g, c) = (term.grid, term.coeff);
    assert_eq!(g.dim(), out.dim(), "combination term dimension mismatch");
    if c == 0.0 {
        return;
    }
    let dominated = out.level().iter().zip(g.level()).all(|(&t, &s)| t <= s);
    if dominated {
        // Injection fast path: strides are exact powers of two.
        inject_rows(g, out, |o, v| *o += c * v);
    } else {
        // Node coordinates as `GridN::spacing` gives them, computed in
        // place rather than in a vector per term.
        let shape = out.shape();
        let walk = walk.get_or_insert_with(|| InterpWalk::new(shape));
        walk.aim(g, |i, k| k as f64 * (1.0 / (shape[i] - 1) as f64));
        walk.run(g, out.values_mut(), |o, v| *o += c * v);
    }
}

/// Evaluate the combination with **binomial-tree association**: each term
/// is materialized on the target level individually, then the partials
/// are pairwise summed with doubling stride — the association a log-depth
/// reduction tree over term owners produces. This is the *serial
/// reference* for the distributed d-dimensional tree combination, which
/// must match it bitwise, term list for term list.
pub fn combine_binomial_nd(target: &[u32], terms: &[CombinationTermN<'_>]) -> GridN {
    if terms.is_empty() {
        return GridN::zeros(target);
    }
    let mut parts: Vec<GridN> =
        terms.iter().map(|t| combine_onto_nd(target, std::slice::from_ref(t))).collect();
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
    use crate::combine::{combine_binomial, combine_onto, CombinationTerm};
    use crate::grid2::Grid2;
    use crate::level::LevelPair;
    use crate::ndgrid::advance;
    use crate::ndim::{gcp_coefficients_nd, LevelSetN, LevelVecN};

    /// Classical truncated-simplex terms in d dimensions sampling `f`.
    fn classical_terms_nd(
        dim: usize,
        n: u32,
        l: u32,
        f: impl Fn(&[f64]) -> f64,
    ) -> Vec<(f64, GridN)> {
        let m = n - l + 1;
        let tau = n + (dim as u32 - 1) * m;
        let set = LevelSetN::try_truncated_simplex(dim, m, tau).unwrap();
        gcp_coefficients_nd(&set)
            .into_iter()
            .filter(|(_, c)| *c != 0)
            .map(|(lv, c)| (c as f64, GridN::from_fn(&lv, &f)))
            .collect()
    }

    #[test]
    fn d2_combination_matches_2d_path_bitwise() {
        let f2 = |x: f64, y: f64| (7.1 * x).sin() * (3.3 * y + 0.2).cos();
        let (n, l) = (6u32, 3u32);
        let m = n - l + 1;
        // Build the same term list in the same (BTreeMap) order for both.
        let terms_nd = classical_terms_nd(2, n, l, |x| f2(x[0], x[1]));
        let grids_2d: Vec<(f64, Grid2)> = terms_nd
            .iter()
            .map(|(c, g)| {
                let lv = LevelPair::new(g.level()[0], g.level()[1]);
                (*c, Grid2::from_fn(lv, f2))
            })
            .collect();
        let refs_nd: Vec<CombinationTermN> =
            terms_nd.iter().map(|(c, g)| CombinationTermN { coeff: *c, grid: g }).collect();
        let refs_2d: Vec<CombinationTerm> =
            grids_2d.iter().map(|(c, g)| CombinationTerm { coeff: *c, grid: g }).collect();
        let got = combine_onto_nd(&[m, m], &refs_nd);
        let want = combine_onto(LevelPair::new(m, m), &refs_2d);
        assert_eq!(got.values(), want.values(), "fold combine must be bitwise equal at d=2");
        let got_t = combine_binomial_nd(&[m, m], &refs_nd);
        let want_t = combine_binomial(LevelPair::new(m, m), &refs_2d);
        assert_eq!(got_t.values(), want_t.values(), "tree combine must be bitwise equal at d=2");
        // And on a non-dominated target (interpolation path).
        let got_i = combine_onto_nd(&[n, n], &refs_nd);
        let want_i = combine_onto(LevelPair::new(n, n), &refs_2d);
        assert_eq!(got_i.values(), want_i.values(), "interpolation path must match at d=2");
    }

    #[test]
    fn d3_combination_of_trilinear_is_exact() {
        // Multilinear functions are in every component's d-linear space and
        // the GCP coefficients sum to 1 on the downset, so the combination
        // reproduces them to rounding.
        for f in [
            (|_x: &[f64]| 1.0) as fn(&[f64]) -> f64,
            |x| x[0],
            |x| x[2],
            |x| 3.0 - 2.0 * x[0] + x[1] * x[2] + 4.0 * x[0] * x[1] * x[2],
        ] {
            let terms = classical_terms_nd(3, 4, 3, f);
            let refs: Vec<CombinationTermN> =
                terms.iter().map(|(c, g)| CombinationTermN { coeff: *c, grid: g }).collect();
            let combined = combine_onto_nd(&[2, 2, 2], &refs);
            let mut idx = vec![0usize; 3];
            loop {
                let x = combined.coords(&idx);
                assert!(
                    (combined.at(&idx) - f(&x)).abs() < 1e-12,
                    "at {x:?}: {} vs {}",
                    combined.at(&idx),
                    f(&x)
                );
                if !advance(&mut idx, combined.shape()) {
                    break;
                }
            }
        }
    }

    #[test]
    fn d3_combination_error_decreases_with_level() {
        let pi = std::f64::consts::PI;
        let f = move |x: &[f64]| (pi * x[0]).sin() * (pi * x[1]).sin() * (pi * x[2]).sin();
        let err = |n: u32| {
            let terms = classical_terms_nd(3, n, 3, f);
            let refs: Vec<CombinationTermN> =
                terms.iter().map(|(c, g)| CombinationTermN { coeff: *c, grid: g }).collect();
            let combined = combine_onto_nd(&[n, n, n], &refs);
            let mut e = 0.0f64;
            let mut idx = vec![0usize; 3];
            loop {
                let x = combined.coords(&idx);
                e = e.max((combined.at(&idx) - f(&x)).abs());
                if !advance(&mut idx, combined.shape()) {
                    break;
                }
            }
            e
        };
        let e4 = err(4);
        let e6 = err(6);
        assert!(e6 < e4 / 2.0, "3D combination must converge: err(n=4)={e4}, err(n=6)={e6}");
    }

    #[test]
    fn robust_coefficients_recover_after_3d_loss() {
        // Drop one combining grid, recompute coefficients over the
        // survivors, and check a trilinear function is still reproduced.
        let f = |x: &[f64]| 1.0 + x[0] - 0.5 * x[1] + 2.0 * x[2];
        let (dim, n, l) = (3usize, 4u32, 3u32);
        let m = n - l + 1;
        let tau = n + (dim as u32 - 1) * m;
        let set = LevelSetN::try_truncated_simplex(dim, m, tau).unwrap();
        let lost = LevelVecN::new(&[4, 2, 2]);
        let mut surviving = LevelSetN::new(dim);
        for lv in set.iter().filter(|lv| **lv != lost) {
            surviving.insert(*lv);
        }
        let coeffs =
            crate::ndim::robust_coefficients_nd(&set, std::slice::from_ref(&lost), &surviving);
        assert_eq!(coeffs.get(&lost).copied().unwrap_or(0), 0, "lost grid must not be used");
        let grids: Vec<(f64, GridN)> = coeffs
            .iter()
            .filter(|(_, c)| **c != 0)
            .map(|(lv, c)| (*c as f64, GridN::from_fn(lv, f)))
            .collect();
        let refs: Vec<CombinationTermN> =
            grids.iter().map(|(c, g)| CombinationTermN { coeff: *c, grid: g }).collect();
        let combined = combine_onto_nd(&[m, m, m], &refs);
        let mut idx = vec![0usize; 3];
        loop {
            let x = combined.coords(&idx);
            assert!((combined.at(&idx) - f(&x)).abs() < 1e-12, "at {x:?}");
            if !advance(&mut idx, combined.shape()) {
                break;
            }
        }
    }

    #[test]
    fn zero_coefficient_terms_are_skipped_and_empty_is_zeros() {
        let g = GridN::from_fn(&[3, 3, 3], |x| x[0] * x[1] + x[2]);
        let combined = combine_onto_nd(
            &[2, 2, 2],
            &[CombinationTermN { coeff: 0.0, grid: &g }, CombinationTermN { coeff: 1.0, grid: &g }],
        );
        assert!((combined.eval(&[0.5, 0.5, 0.5]) - 0.75).abs() < 1e-12);
        let z = combine_binomial_nd(&[2, 2], &[]);
        assert!(z.values().iter().all(|&v| v == 0.0));
    }
}
