//! Folding a combination one term at a time — each term added, as it
//! arrives, to every target that needs it — is the left fold
//! `combine_onto` / `combine_onto_nd` computes, bit for bit. Pinned for one
//! to three targets at once, on a target every term dominates (pure
//! injection), one no interior term dominates (interpolation) and one in
//! between, at d = 2 (both grid types) and d = 3.

use sparsegrid::{
    accumulate_onto, combine_onto, combine_onto_nd, gcp_coefficients_nd, CombinationTerm,
    CombinationTermN, FoldN, Grid2, GridN, LevelPair, LevelSetN,
};

/// A grid at `level` holding pseudo-random values in [-1, 1]
/// (splitmix64), so no two terms can cancel by accident.
fn noise_grid(level: &[u32], seed: u64) -> GridN {
    let mut g = GridN::zeros(level);
    let mut x = seed.wrapping_add(0x9e3779b97f4a7c15);
    for v in g.values_mut() {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        *v = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
    g
}

/// The classical terms of the truncated simplex `(dim, n, l)` over noise
/// grids, in the coefficient map's order, plus one zero-coefficient term
/// (which every form skips).
fn terms(dim: usize, n: u32, l: u32) -> Vec<(f64, GridN)> {
    let m = n - l + 1;
    let set = LevelSetN::truncated_simplex(dim, m, n + (dim as u32 - 1) * m);
    let mut terms: Vec<(f64, GridN)> = gcp_coefficients_nd(&set)
        .into_iter()
        .filter(|(_, c)| *c != 0)
        .enumerate()
        .map(|(k, (level, c))| (c as f64, noise_grid(&level, k as u64)))
        .collect();
    let finest = terms[0].1.level().to_vec();
    terms.insert(1, (0.0, noise_grid(&finest, 99)));
    terms
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Injection (every term dominates the coarsest level), mixed (only
/// terms at least as fine along axis 0 dominate), interpolation (the full
/// level: none of the anisotropic terms dominates it).
fn targets(dim: usize, n: u32, l: u32) -> [Vec<u32>; 3] {
    let m = n - l + 1;
    let mut mixed = vec![m; dim];
    mixed[0] = n;
    [vec![m; dim], mixed, vec![n; dim]]
}

#[test]
fn folding_terms_into_2d_grids_as_they_arrive_is_combine_onto() {
    let (n, l) = (6, 3);
    let terms: Vec<(f64, Grid2)> = terms(2, n, l)
        .into_iter()
        .map(|(c, g)| {
            let level = LevelPair::new(g.level()[0], g.level()[1]);
            (c, Grid2::from_raw(level, g.values().to_vec()).unwrap())
        })
        .collect();
    let refs: Vec<CombinationTerm> =
        terms.iter().map(|(coeff, grid)| CombinationTerm { coeff: *coeff, grid }).collect();
    let targets = targets(2, n, l).map(|t| LevelPair::new(t[0], t[1]));
    for k in 1..=3 {
        let mut folds: Vec<Grid2> = targets[..k].iter().map(|&t| Grid2::zeros(t)).collect();
        for term in &refs {
            for fold in &mut folds {
                accumulate_onto(fold, term);
            }
        }
        for (fold, &target) in folds.iter().zip(&targets) {
            let want = combine_onto(target, &refs);
            assert_eq!(bits(fold.values()), bits(want.values()), "{k} folds, target {target}");
        }
    }
}

fn assert_fold_is_combine_onto_nd(dim: usize, n: u32, l: u32) {
    let terms = terms(dim, n, l);
    let refs: Vec<CombinationTermN> =
        terms.iter().map(|(coeff, grid)| CombinationTermN { coeff: *coeff, grid }).collect();
    let targets = targets(dim, n, l);
    for k in 1..=3 {
        let mut folds: Vec<FoldN> = targets[..k].iter().map(|t| FoldN::new(t)).collect();
        for term in &refs {
            for fold in &mut folds {
                fold.add(term);
            }
        }
        for (fold, target) in folds.into_iter().zip(&targets) {
            let want = combine_onto_nd(target, &refs);
            let got = fold.into_grid();
            assert_eq!(got.level(), want.level());
            assert_eq!(bits(got.values()), bits(want.values()), "d={dim}, {k} folds, {target:?}");
        }
    }
}

#[test]
fn folding_terms_as_they_arrive_is_combine_onto_nd_in_2d_and_3d() {
    assert_fold_is_combine_onto_nd(2, 6, 3);
    assert_fold_is_combine_onto_nd(3, 5, 3);
}

#[test]
fn the_targets_cover_injection_and_interpolation() {
    // Guard the choice of targets: the coarsest is dominated by every
    // term, the full level by none of the anisotropic ones.
    for (dim, n, l) in [(2, 6, 3), (3, 5, 3)] {
        let terms = terms(dim, n, l);
        let [coarse, _, full] = targets(dim, n, l);
        let dominates = |g: &GridN, t: &[u32]| g.level().iter().zip(t).all(|(&s, &t)| t <= s);
        assert!(terms.iter().all(|(_, g)| dominates(g, &coarse)));
        assert!(terms.iter().filter(|(_, g)| !dominates(g, &full)).count() >= terms.len() - 1);
    }
}
