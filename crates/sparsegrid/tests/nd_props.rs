//! Property tests pinning the d-dimensional combination machinery to its
//! 2D specialization, exercising the covering verifier against
//! fabricated non-coverings, and pinning the table-driven grid walks
//! (`combine_onto_nd`, `sample_to`, `restrict_to`) bitwise to a per-node
//! fold of the reference [`GridN::eval`].

use std::collections::BTreeMap;

use proptest::prelude::*;
use sparsegrid::ndgrid::advance;
use sparsegrid::{
    combine_onto_into_nd, combine_onto_nd, gcp_coefficients_nd, robust_coefficients,
    robust_coefficients_nd, verify_covering_nd, CombinationTermN, GridN, LevelPair, LevelSet,
    LevelSetN, LevelVecN,
};

/// A random truncated-simplex shape `(d, n, l)` plus a bitmask selecting
/// the lost levels out of the downset (in lexicographic order).
fn shape_2d() -> impl Strategy<Value = (u32, u32, u64)> {
    (2u32..=4, 4u32..=7, any::<u64>()).prop_map(|(l, n, mask)| (n.max(l), l, mask))
}

fn simplex(dim: usize, n: u32, l: u32) -> (LevelSetN, u32) {
    let floor = n - l + 1;
    let tau = n + (dim as u32 - 1) * floor;
    (LevelSetN::truncated_simplex(dim, floor, tau), floor)
}

/// Pick the levels whose index bit is set, never all of them (rank 0's
/// grid always survives in the application).
fn pick_lost(downset: &LevelSetN, mask: u64) -> Vec<LevelVecN> {
    downset
        .iter()
        .enumerate()
        .filter(|(i, _)| i + 1 < downset.len() && (mask >> (i % 64)) & 1 == 1)
        .map(|(_, lv)| *lv)
        .collect()
}

/// A grid at `level` holding pseudo-random values in [-1, 1]
/// (splitmix64), so no two corners or terms can cancel by accident.
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The combination as the per-node reference computes it: every target
/// node folds the terms in order, a dominated term by injection
/// (`at` of the coinciding node), any other by [`GridN::eval`] at the
/// node's coordinate `index · spacing`.
fn combine_by_eval_fold(target: &[u32], terms: &[CombinationTermN<'_>]) -> GridN {
    let mut out = GridN::zeros(target);
    let d = target.len();
    let spacing = out.spacing();
    let shape = out.shape().to_vec();
    let mut idx = vec![0usize; d];
    loop {
        let mut acc = 0.0;
        for term in terms.iter().filter(|t| t.coeff != 0.0) {
            let g = term.grid;
            let v = if target.iter().zip(g.level()).all(|(&t, &s)| t <= s) {
                let src: Vec<usize> =
                    (0..d).map(|i| idx[i] << (g.level()[i] - target[i])).collect();
                g.at(&src)
            } else {
                let x: Vec<f64> = (0..d).map(|i| idx[i] as f64 * spacing[i]).collect();
                g.eval(&x)
            };
            acc += term.coeff * v;
        }
        *out.at_mut(&idx) = acc;
        if !advance(&mut idx, &shape) {
            return out;
        }
    }
}

/// `sample_to` as the per-node reference computes it: `eval` at every
/// target node's `coords`.
fn sample_by_eval(src: &GridN, target: &[u32]) -> GridN {
    let mut out = GridN::zeros(target);
    let shape = out.shape().to_vec();
    let mut idx = vec![0usize; target.len()];
    loop {
        *out.at_mut(&idx) = src.eval(&out.coords(&idx));
        if !advance(&mut idx, &shape) {
            return out;
        }
    }
}

/// A dimension, a target level and up to five term levels with
/// coefficients (zero included). Levels start at 0 — two points, where
/// the base-corner clamp `min(⌊f⌋, n − 2)` always binds.
#[allow(clippy::type_complexity)]
fn walk_case() -> impl Strategy<Value = (Vec<u32>, Vec<(Vec<u32>, i32)>)> {
    (1usize..=3).prop_flat_map(|d| {
        (
            proptest::collection::vec(0u32..=4, d),
            proptest::collection::vec((proptest::collection::vec(0u32..=4, d), -2i32..=2), 1..6),
        )
    })
}

/// Combine `terms` (level, coefficient, data seed) onto `target` both
/// ways and compare bit patterns; also through a dirty reused `out`.
fn assert_combine_matches_fold(target: &[u32], terms: &[(Vec<u32>, f64)], seed: u64) {
    let grids: Vec<GridN> =
        terms.iter().enumerate().map(|(i, (lv, _))| noise_grid(lv, seed + i as u64)).collect();
    let refs: Vec<CombinationTermN> = terms
        .iter()
        .zip(&grids)
        .map(|((_, c), g)| CombinationTermN { coeff: *c, grid: g })
        .collect();
    let want = combine_by_eval_fold(target, &refs);
    let got = combine_onto_nd(target, &refs);
    assert_eq!(bits(got.values()), bits(want.values()), "target {target:?}, terms {terms:?}");
    let mut reused = noise_grid(target, seed ^ 0xd1);
    combine_onto_into_nd(&mut reused, &refs);
    assert_eq!(bits(reused.values()), bits(want.values()), "reused out, target {target:?}");
}

#[test]
fn table_walk_matches_eval_fold_on_each_term_class() {
    // All terms dominate the target: pure injection.
    assert_combine_matches_fold(
        &[2, 1, 2],
        &[(vec![3, 1, 2], 1.0), (vec![2, 2, 4], -1.0), (vec![2, 1, 2], 0.5)],
        1,
    );
    // No term dominates: the target is finer on one axis and coarser on
    // another than every term, so every node interpolates.
    assert_combine_matches_fold(
        &[4, 0, 2],
        &[(vec![1, 3, 2], 1.0), (vec![3, 2, 1], -2.0), (vec![0, 4, 3], 1.0)],
        2,
    );
    // Mixed list, a zero coefficient in the middle, a level-0 axis.
    assert_combine_matches_fold(
        &[2, 3, 1],
        &[
            (vec![3, 3, 2], 1.0),
            (vec![1, 4, 0], -1.0),
            (vec![4, 4, 4], 0.0),
            (vec![2, 3, 1], 1.0),
            (vec![2, 2, 2], -1.0),
        ],
        3,
    );
    // Other dimensions, 1 and 4.
    assert_combine_matches_fold(&[3], &[(vec![1], 1.0), (vec![4], -1.0)], 4);
    assert_combine_matches_fold(
        &[1, 2, 0, 2],
        &[(vec![2, 1, 1, 1], 1.0), (vec![1, 2, 0, 3], 2.0)],
        5,
    );
}

#[test]
fn table_walk_clamps_like_eval_at_the_upper_edge() {
    // The last node of every axis sits at x = 1.0 exactly, where
    // ⌊f⌋ = n − 1 lies outside the last cell: the base corner clamps to
    // n − 2 and the whole weight moves to frac = 1.
    let src = noise_grid(&[2, 3], 7);
    for target in [[3u32, 1], [0, 0], [2, 3], [4, 4]] {
        let got = src.sample_to(&target);
        let want = sample_by_eval(&src, &target);
        assert_eq!(bits(got.values()), bits(want.values()), "target {target:?}");
        let last: Vec<usize> = got.shape().iter().map(|&n| n - 1).collect();
        assert_eq!(got.at(&last), src.at(&[4, 8]), "the far corner is the source's far corner");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `combine_onto_nd` equals the per-node eval fold bitwise on random
    /// term lists — dominated, non-dominated and mixed as they come.
    #[test]
    fn combine_walk_matches_eval_fold((target, terms) in walk_case(), seed in any::<u64>()) {
        let terms: Vec<(Vec<u32>, f64)> =
            terms.into_iter().map(|(lv, c)| (lv, c as f64)).collect();
        assert_combine_matches_fold(&target, &terms, seed >> 8);
    }

    /// `sample_to` equals `eval` at every target node's coordinates, and
    /// `restrict_to` equals it wherever the source dominates.
    #[test]
    fn sample_and_restrict_match_eval((target, terms) in walk_case(), seed in any::<u64>()) {
        let src = noise_grid(&terms[0].0, seed);
        let want = sample_by_eval(&src, &target);
        prop_assert_eq!(bits(src.sample_to(&target).values()), bits(want.values()));
        if target.iter().zip(src.level()).all(|(&t, &s)| t <= s) {
            // Injection reads the coinciding node; eval there folds it
            // with zero-weight corners, which adds +0.0 only.
            let got = src.restrict_to(&target);
            prop_assert_eq!(got.values(), want.values());
        }
    }

    /// `robust_coefficients_nd` at d = 2 is the 2D robust path: identical
    /// coefficient maps for every random loss pattern over the downset.
    #[test]
    fn robust_nd_at_d2_matches_the_2d_path((n, l, mask) in shape_2d()) {
        let (downset, _floor) = simplex(2, n, l);
        let lost_nd = pick_lost(&downset, mask);
        let survivors_nd = {
            let mut s = LevelSetN::new(2);
            for lv in downset.iter().filter(|lv| !lost_nd.contains(lv)) {
                s.insert(*lv);
            }
            s
        };
        let c_nd = robust_coefficients_nd(&downset, &lost_nd, &survivors_nd);

        let to_pair = |v: &LevelVecN| LevelPair::new(v[0], v[1]);
        let set2d: LevelSet = downset.iter().map(to_pair).collect();
        let lost_2d: Vec<LevelPair> = lost_nd.iter().map(to_pair).collect();
        let survivors_2d: LevelSet = survivors_nd.iter().map(to_pair).collect();
        let c_2d = robust_coefficients(&set2d, &lost_2d, &survivors_2d);

        let c_2d_as_nd: BTreeMap<LevelVecN, i64> =
            c_2d.iter().map(|(p, &c)| (LevelVecN::new(&[p.i, p.j]), c as i64)).collect();
        prop_assert_eq!(c_nd, c_2d_as_nd);
    }

    /// Whatever the losses, a non-empty robust result never touches a
    /// lost grid and always covers every hierarchical subspace once.
    #[test]
    fn robust_nd_result_is_a_valid_covering(
        dim in 2usize..=4,
        l in 2u32..=3,
        extra in 0u32..=2,
        mask in any::<u64>(),
    ) {
        let n = l + extra;
        let (downset, floor) = simplex(dim, n, l);
        let lost = pick_lost(&downset, mask);
        let survivors = {
            let mut s = LevelSetN::new(dim);
            for lv in downset.iter().filter(|lv| !lost.contains(lv)) {
                s.insert(*lv);
            }
            s
        };
        let coeffs = robust_coefficients_nd(&downset, &lost, &survivors);
        prop_assert!(!coeffs.is_empty(), "at least the floor grid survives");
        for lv in &lost {
            prop_assert!(!coeffs.contains_key(lv), "lost level {lv:?} got a coefficient");
        }
        prop_assert_eq!(coeffs.values().sum::<i64>(), 1);
        prop_assert_eq!(verify_covering_nd(&coeffs, floor), None);
    }

    /// `verify_covering_nd` rejects fabricated non-coverings: perturbing
    /// any single coefficient of a valid combination breaks the covering
    /// property at a detectable level.
    #[test]
    fn verifier_rejects_perturbed_coverings(
        dim in 2usize..=4,
        l in 2u32..=3,
        extra in 0u32..=2,
        idx in any::<u64>(),
        bump in prop_oneof![Just(1i64), Just(-1), Just(2)],
    ) {
        let n = l + extra;
        let (downset, floor) = simplex(dim, n, l);
        let mut coeffs = gcp_coefficients_nd(&downset);
        prop_assert_eq!(verify_covering_nd(&coeffs, floor), None);
        let support: Vec<LevelVecN> = coeffs.keys().cloned().collect();
        let victim = support[(idx % support.len() as u64) as usize];
        *coeffs.get_mut(&victim).unwrap() += bump;
        coeffs.retain(|_, c| *c != 0);
        prop_assert!(
            verify_covering_nd(&coeffs, floor).is_some(),
            "perturbing {victim:?} by {bump} must break the covering"
        );
    }
}
