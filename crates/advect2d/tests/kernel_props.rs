//! Property tests pinning the vectorized fast paths to the scalar
//! references with **bit-pattern equality**, across random grid sizes
//! (including ragged widths that exercise the scalar tails) and random
//! coefficients. This is the load-bearing guarantee behind
//! recompute-based fault recovery: either kernel formulation recomputes
//! the exact state a failed rank held.
//!
//! The 2D Lax–Wendroff row is checked against its scalar row. The
//! d-dimensional engine — which at d = 2 is also the first-order upwind
//! (`κ = 0`) and FTCS (`a = 0`) scheme — is pinned the same way: the
//! production row step (scalar loop, the process's SIMD rows, every SIMD
//! backend the CPU runs) against the point-closure reference, for
//! d = 1..4 and both signs of every Courant number.

use advect2d::{
    jacobi_kernel, lax_wendroff_row, lax_wendroff_row_simd, upwind_diffusion_kernel,
    upwind_diffusion_row_n_on, KernelKind, LwCoef, PaddedFieldN, SimdIsa, StencilN,
    UpwindDiffusionCoefN,
};
use proptest::prelude::*;

/// Deterministic pseudo-random fill (splitmix64 → uniform in [-1, 1]):
/// proptest drives the seed, sizes stay independent of the data strategy.
fn fill(seed: u64, buf: &mut [f64]) {
    let mut x = seed.wrapping_add(0x9e3779b97f4a7c15);
    for v in buf.iter_mut() {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        *v = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The SIMD Lax–Wendroff row matches the scalar row to the bit, on
    /// ragged widths from 1 (pure tail) past several vector widths.
    #[test]
    fn simd_rows_match_scalar_rows_bitwise(
        nx in 1usize..131,
        seed in any::<u64>(),
        cx in -0.9f64..0.9,
        cy in -0.9f64..0.9,
        cxx in 0.0f64..0.4,
        cyy in 0.0f64..0.4,
        cxy in -0.2f64..0.2,
    ) {
        let mut rows = vec![0.0; 3 * (nx + 2)];
        fill(seed, &mut rows);
        let (s, rest) = rows.split_at(nx + 2);
        let (c, n) = rest.split_at(nx + 2);
        let mut a = vec![0.0; nx];
        let mut b = vec![0.0; nx];

        let lw = LwCoef { cx, cy, cxx, cyy, cxy };
        lax_wendroff_row(s, c, n, &lw, &mut a);
        lax_wendroff_row_simd(s, c, n, &lw, &mut b);
        prop_assert_eq!(bits(&a), bits(&b), "LW nx={}", nx);
    }

    /// The d-dimensional row step — scalar row loop, the process's SIMD
    /// rows, and each SIMD backend this CPU runs — equals the
    /// point-closure reference bitwise: d = 1..4, ragged axis-0 lengths
    /// from 1 cell (shorter than any lane bundle) past several bundles,
    /// both signs of every `c_i`, both stencils, monolithic and split
    /// into two plane ranges at a random cut.
    #[test]
    fn nd_row_step_matches_point_closures_bitwise(
        shape in nd_shape(),
        seed in any::<u64>(),
        signs in 0usize..16,
        jacobi in any::<bool>(),
        cut in any::<usize>(),
    ) {
        let d = shape.len();
        let mut start = PaddedFieldN::new(&shape);
        fill(seed, start.padded_mut());
        let pstride = start.pstrides().to_vec();
        let mut raw = vec![0.0; 2 * d];
        fill(seed ^ 0x5eed, &mut raw);

        // The reference closure and the row form of the same stencil.
        type PointKernel = Box<dyn Fn(&[f64], usize) -> f64>;
        let (closure, stencil): (PointKernel, StencilN) = if jacobi {
            let inv_h2: Vec<f64> = raw[..d].iter().map(|v| 1.0 + 100.0 * v.abs()).collect();
            let mut rhs = vec![0.0; start.padded().len()];
            fill(seed ^ 0xface, &mut rhs);
            (
                Box::new(jacobi_kernel(inv_h2.clone(), pstride.clone(), rhs.clone())),
                StencilN::jacobi(&inv_h2, &pstride, rhs),
            )
        } else {
            let coef = UpwindDiffusionCoefN {
                c: (0..d)
                    .map(|i| 0.3 * raw[i].abs() * if (signs >> i) & 1 == 1 { -1.0 } else { 1.0 })
                    .collect(),
                r: raw[d..].iter().map(|v| 0.1 * v.abs()).collect(),
            };
            (
                Box::new(upwind_diffusion_kernel(coef.clone(), pstride.clone())),
                StencilN::upwind_diffusion(&coef, &pstride),
            )
        };

        // Three steps with a halo refresh between them.
        let run = |step: &dyn Fn(&mut PaddedFieldN)| {
            let mut f = start.clone();
            for _ in 0..3 {
                f.refresh_periodic_halo();
                step(&mut f);
            }
            bits(f.padded())
        };
        let want = run(&|f| f.step_with(&*closure));

        let planes = shape[d - 1];
        let cut = cut % (planes + 1);
        for kind in KernelKind::all() {
            let got = run(&|f| {
                f.step_rows(0, planes, |cur, off, out| stencil.row(kind, cur, off, out));
                f.commit_step();
            });
            prop_assert_eq!(&got, &want, "{:?} rows, shape {:?}, jacobi={}", kind, &shape, jacobi);
            let got = run(&|f| {
                f.step_rows(cut, planes, |cur, off, out| stencil.row(kind, cur, off, out));
                f.step_rows(0, cut, |cur, off, out| stencil.row(kind, cur, off, out));
                f.commit_step();
            });
            prop_assert_eq!(&got, &want, "{:?} rows cut at {}, shape {:?}", kind, cut, &shape);
        }
        if let StencilN::UpwindDiffusion(axes) = &stencil {
            for isa in SimdIsa::available() {
                let got = run(&|f| {
                    f.step_rows(0, planes, |cur, off, out| {
                        upwind_diffusion_row_n_on(isa, axes, cur, off, out)
                    });
                    f.commit_step();
                });
                prop_assert_eq!(&got, &want, "{} rows, shape {:?}", isa.label(), &shape);
            }
        }
    }

    /// The point-closure reference itself decomposes: `step_planes` over
    /// a split cover equals `step_with`.
    #[test]
    fn nd_plane_decomposed_reference_matches_monolithic(
        shape in nd_shape(),
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let d = shape.len();
        let mut whole = PaddedFieldN::new(&shape);
        fill(seed, whole.padded_mut());
        whole.refresh_periodic_halo();
        let mut parts = whole.clone();
        let coef = UpwindDiffusionCoefN { c: vec![0.2; d], r: vec![0.05; d] };
        let kernel = upwind_diffusion_kernel(coef, whole.pstrides().to_vec());
        let cut = cut % (shape[d - 1] + 1);
        whole.step_with(&kernel);
        parts.step_planes(0, cut, &kernel);
        parts.step_planes(cut, shape[d - 1], &kernel);
        parts.commit_step();
        prop_assert_eq!(bits(whole.padded()), bits(parts.padded()));
    }
}

/// Interior shapes for the d-dimensional properties: d = 1..4, a ragged
/// axis 0 (1..40 cells) and small transverse extents.
fn nd_shape() -> impl Strategy<Value = Vec<usize>> {
    (1usize..=4).prop_flat_map(|d| {
        (1usize..40, proptest::collection::vec(1usize..5, d - 1)).prop_map(|(n0, rest)| {
            let mut shape = vec![n0];
            shape.extend(rest);
            shape
        })
    })
}
