//! Bitwise-equivalence regression tests for the allocation-free fast
//! paths.
//!
//! The fault-recovery machinery (checkpoint/restart, recompute-from-IC)
//! relies on the solvers being *deterministic to the bit*: a recovered
//! rank must recompute exactly the state the failed rank held. These
//! tests pin the double-buffered [`PaddedField`] stepping against the
//! rebuild-everything reference implementations — not approximately,
//! but with `f64` bit-pattern equality — across isotropic and
//! anisotropic levels.
//!
//! The d-dimensional [`SolverN`] at d = 2 is pinned the same way to the
//! 2D first-order upwind (`κ = 0`) and FTCS (`a = 0`) formulas, each
//! written out point by point below.

use advect2d::laxwendroff::{lax_wendroff_step, LwCoef};
use advect2d::{AdvectionProblem, KernelConfig, LocalSolver, ProblemN, SolverN, TimeGridN};
use sparsegrid::{Grid2, GridN, LevelPair};

/// Bit-pattern equality over whole grids, with a useful failure message.
fn assert_bits_equal(a: &Grid2, b: &Grid2, what: &str) {
    assert_eq!(a.level(), b.level());
    for m in 0..a.ny() {
        for k in 0..a.nx() {
            let (va, vb) = (a.at(k, m), b.at(k, m));
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: ({k},{m}) fast={va:e} naive={vb:e}");
        }
    }
}

fn assert_seam_bits(g: &Grid2, what: &str) {
    for m in 0..g.ny() {
        assert_eq!(g.at(0, m).to_bits(), g.at(g.nx() - 1, m).to_bits(), "{what}: x-seam row {m}");
    }
    for k in 0..g.nx() {
        assert_eq!(g.at(k, 0).to_bits(), g.at(k, g.ny() - 1).to_bits(), "{what}: y-seam col {k}");
    }
}

const LEVELS: &[(u32, u32)] = &[(4, 4), (6, 6), (6, 3), (3, 6), (7, 2), (2, 7)];

/// Every kernel configuration under test: the scalar reference and the
/// vectorized rows. Both must produce the same bits as the
/// rebuild-everything naive references.
fn kernel_configs() -> [(KernelConfig, &'static str); 2] {
    [(KernelConfig::scalar(), "scalar"), (KernelConfig::simd(), "simd")]
}

#[test]
fn lax_wendroff_fast_path_is_bitwise_identical() {
    let p = AdvectionProblem::standard();
    for &(i, j) in LEVELS {
        let lev = LevelPair::new(i, j);
        let dt = 0.2 / (1u64 << i.max(j)) as f64;
        let steps = 17;

        let mut naive = Grid2::from_fn(lev, p.initial());
        let (hx, hy) = naive.spacing();
        let coef = LwCoef::new(&p, hx, hy, dt);
        let (mut padded, mut out) = (Vec::new(), Vec::new());
        for _ in 0..steps {
            lax_wendroff_step(&mut naive, &coef, &mut padded, &mut out);
        }

        for (kcfg, label) in kernel_configs() {
            let mut fast = LocalSolver::new(p, lev, dt).with_kernel(kcfg);
            fast.run(steps);
            assert_bits_equal(fast.grid(), &naive, &format!("LW level ({i},{j}) {label}"));
            assert_seam_bits(fast.grid(), &format!("LW level ({i},{j}) {label}"));
        }
    }
}

#[test]
fn lax_wendroff_split_runs_equal_one_run() {
    // run(a) then run(b) must equal run(a+b): the load/store round trip
    // through the padded field is value-preserving.
    let p = AdvectionProblem::standard();
    let lev = LevelPair::new(5, 4);
    let dt = 0.2 / 32.0;
    let mut split = LocalSolver::new(p, lev, dt);
    split.run(3);
    split.run(1);
    split.run(9);
    let mut whole = LocalSolver::new(p, lev, dt);
    whole.run(13);
    assert_bits_equal(split.grid(), whole.grid(), "split vs whole run");
}

/// One periodic step of a five-point update on a d = 2 grid, cell by
/// cell with wrapped neighbours: `point(c, w, e, s, n)` is the new value
/// of a cell from its own and its west, east, south and north values.
fn naive_step_2d(grid: &mut GridN, point: impl Fn(f64, f64, f64, f64, f64) -> f64) {
    let (nx, ny) = (grid.shape()[0] - 1, grid.shape()[1] - 1);
    let old = grid.values().to_vec();
    let at = |k: usize, m: usize| old[(m % ny) * (nx + 1) + k % nx];
    for m in 0..ny {
        for k in 0..nx {
            let v =
                point(at(k, m), at(k + nx - 1, m), at(k + 1, m), at(k, m + ny - 1), at(k, m + 1));
            grid.values_mut()[m * (nx + 1) + k] = v;
        }
    }
    grid.apply_periodic_seams();
}

/// 17 steps of `p` at level `(i, j)` by [`SolverN`] and by the point
/// rule `point`, bit for bit, seams included.
fn assert_solver_n_matches(
    p: &ProblemN,
    (i, j): (u32, u32),
    dt: f64,
    point: impl Fn(f64, f64, f64, f64, f64) -> f64,
    what: &str,
) {
    let steps = 17;
    let mut fast = SolverN::new(p.clone(), &[i, j], dt);
    let mut naive = fast.grid().clone();
    for _ in 0..steps {
        naive_step_2d(&mut naive, &point);
    }
    fast.run(steps);
    let bits = |g: &GridN| g.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(fast.grid()), bits(&naive), "{what} level ({i},{j})");
}

/// Mesh widths of level `(i, j)`.
fn spacing((i, j): (u32, u32)) -> (f64, f64) {
    (1.0 / (1u64 << i) as f64, 1.0 / (1u64 << j) as f64)
}

#[test]
fn upwind_fast_path_is_bitwise_identical() {
    // Both velocity signs: each side of the upwind difference per axis.
    for a in [[-1.0, 0.5], [0.75, -1.0]] {
        let p = ProblemN::AdvectionDiffusion { a: a.to_vec(), kappa: 0.0, k: vec![1, 2] };
        for &(i, j) in LEVELS {
            let dt = 0.2 / (1u64 << i.max(j)) as f64;
            let (hx, hy) = spacing((i, j));
            let (cx, cy) = (a[0] * dt / hx, a[1] * dt / hy);
            let upwind = |c: f64, w: f64, e: f64, s: f64, n: f64| {
                let dx = if cx >= 0.0 { c - w } else { e - c };
                let dy = if cy >= 0.0 { c - s } else { n - c };
                c - cx * dx - cy * dy
            };
            assert_solver_n_matches(&p, (i, j), dt, upwind, &format!("upwind a={a:?}"));
        }
    }
}

#[test]
fn ftcs_fast_path_is_bitwise_identical() {
    let kappa = 0.05;
    let p = ProblemN::AdvectionDiffusion { a: vec![0.0, 0.0], kappa, k: vec![1, 1] };
    for &(i, j) in LEVELS {
        let dt = TimeGridN::for_system(&p, i.max(j), 0, 0.5).dt;
        let (hx, hy) = spacing((i, j));
        let (rx, ry) = (kappa * dt / (hx * hx), kappa * dt / (hy * hy));
        let ftcs = |c: f64, w: f64, e: f64, s: f64, n: f64| {
            c + rx * (e - 2.0 * c + w) + ry * (n - 2.0 * c + s)
        };
        assert_solver_n_matches(&p, (i, j), dt, ftcs, "FTCS");
    }
}
