//! Checks of the 2D FTCS heat equation `∂u/∂t = κΔu`. It has no solver of
//! its own: it is [`SolverN`](crate::SolverN) at d = 2 with `a = 0`, which
//! `tests/equivalence.rs` holds to the five-point FTCS formula bit for
//! bit. Its second-order convergence is checked in `ndsolve`.

#[cfg(test)]
mod tests {
    use crate::ndsolve::tests::{constant_solver, error_after, heat, stable_dt};

    #[test]
    fn amplitude_decays_at_the_analytic_rate() {
        let p = heat(0.05);
        let dt = stable_dt(&p, 5, 0.8);
        let err = error_after(&p, &[5, 5], dt, 120);
        // Analytic amplitude at the final time.
        let amp = p.exact(&[0.25, 0.25], 120.0 * dt);
        assert!(amp > 0.05, "don't let it decay to nothing: {amp}");
        assert!(err < 0.01 * amp.max(0.1), "decay rate wrong: err {err}, amp {amp}");
    }

    #[test]
    fn constant_zero_is_a_fixed_point() {
        let mut s = constant_solver(heat(0.1), &[4, 4], 1e-4, 0.0);
        s.step();
        for &v in s.grid().values() {
            assert_eq!(v, 0.0, "zero state moved");
        }
    }

    #[test]
    fn maximum_principle_holds_within_stability() {
        // Diffusion never amplifies extrema.
        let p = heat(0.05);
        let mut s = crate::SolverN::new(p.clone(), &[5, 5], stable_dt(&p, 5, 0.9));
        let max_abs = |v: &[f64]| v.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let max0 = max_abs(s.grid().values());
        s.run(100);
        let max1 = max_abs(s.grid().values());
        assert!(max1 <= max0 + 1e-12, "amplified: {max0} -> {max1}");
    }

    #[test]
    fn anisotropic_grid_still_converges() {
        // Stability set by the finer direction.
        let p = heat(0.05);
        let e = error_after(&p, &[6, 3], stable_dt(&p, 6, 0.5), 100);
        assert!(e < 0.05, "anisotropic diffusion error {e}");
    }
}
