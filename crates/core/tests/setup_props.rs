//! Set-up fills a block from per-axis factor tables (`lnx + lny` calls
//! into the initial condition instead of one per cell). This pins the
//! table fill to the per-cell closure fill it replaced, **bit for bit**:
//! every initial condition, wavenumbers 1..4, ragged blocks down to one
//! cell, every block offset of a 3x2 process grid; d = 1..4 with slabs
//! that do not start at plane 0.

use advect2d::{AdvectionProblem, InitialCondition, ProblemN};
use ftsg_core::gather::BlockRowsMut;
use ftsg_core::psolve::DistributedSolver;
use ftsg_core::{DistributedSolverN, GroupInfo, GroupInfoN};
use proptest::prelude::*;
use sparsegrid::ndgrid::advance;
use sparsegrid::LevelPair;

fn initial_condition() -> impl Strategy<Value = InitialCondition> {
    prop_oneof![
        (1u32..=4, 1u32..=4).prop_map(|(kx, ky)| InitialCondition::SinProduct { kx, ky }),
        Just(InitialCondition::CosHill),
        (-3.0f64..3.0).prop_map(InitialCondition::Constant),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2D: every block of a 3x2 process grid, levels from 2 (so some
    /// blocks are a single cell wide) and unequal per axis (ragged).
    #[test]
    fn table_fill_equals_closure_fill_2d(
        ic in initial_condition(),
        (i, j) in (2u32..=6, 1u32..=6),
        (ax, ay) in (-2.0f64..2.0, -2.0f64..2.0),
    ) {
        let problem = AdvectionProblem { ax, ay, ic };
        let level = LevelPair::new(i, j);
        let info = GroupInfo { grid: 0, first: 0, size: 6, px: 3, py: 2 };
        let (nx, ny) = ((1usize << i) as f64, (1usize << j) as f64);
        let closure = problem.initial();
        let mut offsets = Vec::new();
        for local in 0..info.size {
            let mut solver = DistributedSolver::new(problem, level, 1e-3, &info, local);
            let (x0, y0, lnx, lny) = solver.block_geometry();
            offsets.push((x0, y0));
            let mut want = Vec::with_capacity(lnx * lny);
            for m in 0..lny {
                for k in 0..lnx {
                    want.push(closure((x0 + k) as f64 / nx, (y0 + m) as f64 / ny));
                }
            }
            prop_assert_eq!(bits(&solver.local_block()), bits(&want), "block {}", local);
            // Recovery resets a solver that has stepped (dirtied here in
            // place) through the same table fill.
            solver.for_each_row_mut(&mut |row| row.fill(7.0));
            solver.set_steps_done(3);
            solver.reset_to_initial();
            prop_assert_eq!(bits(&solver.local_block()), bits(&want));
            prop_assert_eq!(solver.steps_done(), 0);
        }
        offsets.dedup();
        prop_assert_eq!(offsets.len(), 6, "six distinct block offsets");
    }

    /// nd: d = 1..4, the advection class (amplitude, per-axis velocity
    /// and wavenumber) and the elliptic zero guess, every slab of a group
    /// of three — so two of them start past plane 0.
    #[test]
    fn table_fill_equals_closure_fill_nd(
        levels in proptest::collection::vec(2u32..=4, 1..=4),
        k in proptest::collection::vec(1u32..=4, 4),
        a in proptest::collection::vec(-2.0f64..2.0, 4),
        kappa in 0.0f64..0.1,
        elliptic in any::<bool>(),
    ) {
        let d = levels.len();
        let problem = if elliptic {
            ProblemN::Elliptic { k: k[..d].to_vec() }
        } else {
            ProblemN::AdvectionDiffusion { a: a[..d].to_vec(), kappa, k: k[..d].to_vec() }
        };
        let info = GroupInfoN { grid: 0, first: 0, size: 3 };
        let np: Vec<f64> = levels.iter().map(|&l| (1usize << l) as f64).collect();
        for slab in 0..info.size {
            let mut solver = DistributedSolverN::new(problem.clone(), &levels, 1e-3, &info, slab);
            let (z0, lnz) = solver.block_geometry();
            prop_assert!(slab == 0 || z0 > 0);
            let mut shape: Vec<usize> = levels.iter().map(|&l| 1usize << l).collect();
            shape[d - 1] = lnz;
            let mut want = Vec::with_capacity(shape.iter().product());
            let (mut idx, mut x) = (vec![0usize; d], vec![0.0f64; d]);
            loop {
                for i in 0..d {
                    let g = if i == d - 1 { idx[i] + z0 } else { idx[i] };
                    x[i] = g as f64 / np[i];
                }
                want.push(problem.initial(&x));
                if !advance(&mut idx, &shape) {
                    break;
                }
            }
            prop_assert_eq!(bits(&solver.local_block()), bits(&want), "slab {}", slab);
            solver.for_each_row_mut(&mut |row| row.fill(7.0));
            solver.set_steps_done(3);
            solver.reset_to_initial();
            prop_assert_eq!(bits(&solver.local_block()), bits(&want));
            prop_assert_eq!(solver.steps_done(), 0);
        }
    }
}

/// The factorisation itself, against the expressions it replaced — the
/// table fill is only as good as `eval == x_factor * y_factor`.
#[test]
fn factors_reproduce_the_closed_forms_bit_for_bit() {
    use std::f64::consts::{PI, TAU};
    let pts = [0.0, 0.125, 0.3, 0.5, 0.7317, 0.999];
    for &x in &pts {
        for &y in &pts {
            for (kx, ky) in [(1u32, 1u32), (2, 3), (4, 1)] {
                let got = InitialCondition::SinProduct { kx, ky }.eval(x, y);
                let want = (TAU * kx as f64 * x).sin() * (TAU * ky as f64 * y).sin();
                assert_eq!(got.to_bits(), want.to_bits());
            }
            let want = 0.25 * (1.0 - (TAU * x).cos()) * (1.0 - (TAU * y).cos());
            assert_eq!(InitialCondition::CosHill.eval(x, y).to_bits(), want.to_bits());
            assert_eq!(InitialCondition::Constant(-2.5).eval(x, y).to_bits(), (-2.5f64).to_bits());
            // nd, the parent's loop: u = exp(-lambda t); u *= sin(...) per axis.
            let (a, k, kappa, t) = ([1.0, -0.5, 0.25], [1u32, 2, 3], 0.02, 0.0);
            let p = ProblemN::AdvectionDiffusion { a: a.to_vec(), kappa, k: k.to_vec() };
            let z = [x, y, 0.4];
            let lambda: f64 =
                kappa * (2.0 * PI).powi(2) * k.iter().map(|&ki| (ki * ki) as f64).sum::<f64>();
            let mut u = (-lambda * t).exp();
            for i in 0..3 {
                u *= (2.0 * PI * k[i] as f64 * (z[i] - a[i] * t)).sin();
            }
            assert_eq!(p.initial(&z).to_bits(), u.to_bits());
            assert_eq!(p.exact(&z, 0.0).to_bits(), u.to_bits());
        }
    }
}
