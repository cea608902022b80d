//! Checks of the 2D first-order upwind scheme. It has no solver of its
//! own: it is [`SolverN`](crate::SolverN) at d = 2 with `κ = 0`, which
//! `tests/equivalence.rs` holds to the five-point upwind formula bit for
//! bit.

#[cfg(test)]
mod tests {
    use crate::ndsolve::tests::{constant_solver, error_after, upwind};
    use crate::{SolverN, UpwindDiffusionCoefN};

    #[test]
    fn constant_state_is_a_fixed_point() {
        let mut s = constant_solver(upwind([1.0, -0.5]), &[4, 4], 0.01, 2.0);
        s.run(30);
        for &v in s.grid().values() {
            assert_eq!(v, 2.0, "constant broken");
        }
    }

    #[test]
    fn first_order_convergence() {
        let p = upwind([1.0, 1.0]);
        let err_at = |lev: u32| {
            let dt = 0.2 / (1u64 << lev) as f64;
            error_after(&p, &[lev, lev], dt, (0.25 / dt).round() as u64)
        };
        let e4 = err_at(4);
        let e5 = err_at(5);
        // First order: halving h roughly halves the error.
        assert!(e5 < e4 / 1.6, "e4={e4}, e5={e5}");
        assert!(e5 > e4 / 3.0, "suspiciously fast convergence for upwind");
    }

    #[test]
    fn upwind_is_monotone_no_overshoot() {
        // Upwind never creates new extrema, for either velocity sign:
        // within the CFL bound each update is a convex combination of the
        // cell and its upwind neighbours.
        let range = |s: &SolverN| {
            let v = s.grid().values().iter();
            v.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
        };
        for a in [[1.0, 1.0], [-1.0, 0.5]] {
            let mut s = SolverN::new(upwind(a), &[5, 5], 0.2 / 32.0);
            let (lo0, hi0) = range(&s);
            s.run(64);
            let (lo1, hi1) = range(&s);
            assert!(
                lo1 >= lo0 - 1e-12 && hi1 <= hi0 + 1e-12,
                "overshoot at a = {a:?}: [{lo0}, {hi0}] -> [{lo1}, {hi1}]"
            );
        }
    }

    #[test]
    fn negative_velocity_upwinds_the_other_way() {
        let e = error_after(&upwind([-1.0, -1.0]), &[5, 5], 0.2 / 32.0, 32);
        assert!(e < 0.2, "negative-velocity transport broken: {e}");
    }

    #[test]
    fn cfl_reporting() {
        // Pure upwind: the stability number is the CFL number |c_x| + |c_y|.
        let c = UpwindDiffusionCoefN::new(&upwind([1.0, -1.0]), &[0.1, 0.1], 0.02);
        assert!((c.stability() - 0.4).abs() < 1e-12, "{}", c.stability());
    }
}
