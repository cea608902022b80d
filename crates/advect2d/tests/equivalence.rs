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

use advect2d::laxwendroff::{lax_wendroff_step, LwCoef};
use advect2d::upwind::{upwind_step_naive, UpwindCoef};
use advect2d::{
    ftcs_step, AdvectionProblem, DiffusionProblem, DiffusionSolver, InitialCondition, KernelConfig,
    LocalSolver, UpwindSolver,
};
use sparsegrid::{Grid2, LevelPair};

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

#[test]
fn upwind_fast_path_is_bitwise_identical() {
    // Negative velocity exercises the other upwind branch.
    let p = AdvectionProblem { ax: -1.0, ay: 0.5, ic: InitialCondition::CosHill };
    for &(i, j) in LEVELS {
        let lev = LevelPair::new(i, j);
        let dt = 0.2 / (1u64 << i.max(j)) as f64;
        let steps = 17;

        let mut naive = Grid2::from_fn(lev, p.initial());
        let (hx, hy) = naive.spacing();
        let coef = UpwindCoef::new(&p, hx, hy, dt);
        let (mut padded, mut out) = (Vec::new(), Vec::new());
        for _ in 0..steps {
            upwind_step_naive(&mut naive, &coef, &mut padded, &mut out);
        }

        for (kcfg, label) in kernel_configs() {
            let mut fast = UpwindSolver::new(p, lev, dt).with_kernel(kcfg);
            fast.run(steps);
            assert_bits_equal(fast.grid(), &naive, &format!("upwind level ({i},{j}) {label}"));
            assert_seam_bits(fast.grid(), &format!("upwind level ({i},{j}) {label}"));
        }
    }
}

#[test]
fn ftcs_fast_path_is_bitwise_identical() {
    let p = DiffusionProblem::standard();
    for &(i, j) in LEVELS {
        let lev = LevelPair::new(i, j);
        let dt = p.stable_dt(i.max(j), 0.5);
        let steps = 17;

        let mut naive = Grid2::from_fn(lev, p.initial());
        let mut scratch = Vec::new();
        for _ in 0..steps {
            ftcs_step(&p, &mut naive, dt, &mut scratch);
        }

        for (kcfg, label) in kernel_configs() {
            let mut fast = DiffusionSolver::new(p, lev, dt).with_kernel(kcfg);
            fast.run(steps);
            assert_bits_equal(fast.grid(), &naive, &format!("FTCS level ({i},{j}) {label}"));
            assert_seam_bits(fast.grid(), &format!("FTCS level ({i},{j}) {label}"));
        }
    }
}
