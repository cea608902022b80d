//! The robust coefficients pinned to the set-based search they replaced.
//!
//! The search now runs on index bitmasks
//! ([`sparsegrid::IndexedDownset::robust`]). Below is a transcription of
//! the earlier search over `BTreeSet` level sets, for 2D and for d
//! dimensions, with the application's call around it (the survivors' and
//! the lost grids' levels as sets). On every loss of one to three grids of
//! the application's shapes — 2D (9,4), (10,4), (13,4) and 3D (7,4) and
//! (4,4), each in the Plain, Duplicates and ExtraLayers layouts, with and
//! without duplicate cover — the new path must give the same coefficient
//! for every grid and the same downset size (which the recovery's virtual
//! cost charges), and the library adapters the same coefficient maps.

use std::collections::BTreeMap;

use ftsg_core::stack::{Nd, Stack, D2};
use ftsg_core::{ProcLayout, ProcLayoutN};
use sparsegrid::{
    gcp_coefficients, gcp_coefficients_nd, robust_coefficients, robust_coefficients_nd, GridSystem,
    GridSystemN, Layout, LevelPair, LevelSet, LevelSetN, LevelVecN,
};

const LAYOUTS: [Layout; 3] = [Layout::Plain, Layout::Duplicates, Layout::ExtraLayers];

/// The 2D search as it was: a set clone and a coefficient map per node.
fn search_2d(
    j: &LevelSet,
    usable: &impl Fn(&LevelPair) -> bool,
    best: &mut Option<(usize, BTreeMap<LevelPair, i32>)>,
) {
    let coeffs = gcp_coefficients(j);
    let bad = coeffs.keys().find(|l| !usable(l)).copied();
    match bad {
        None => {
            let retained = j.len();
            let better = match best {
                Some((n, _)) => retained > *n,
                None => true,
            };
            if better && !coeffs.is_empty() {
                *best = Some((retained, coeffs));
            }
        }
        Some(bad) => {
            if let Some((n, _)) = best {
                if j.len() <= *n {
                    return;
                }
            }
            for cand in [bad.plus(1, 0), bad.plus(0, 1), bad] {
                if !j.contains(&cand) {
                    continue;
                }
                let mut j2 = j.clone();
                j2.remove_upset(cand);
                if j2.len() < j.len() {
                    search_2d(&j2, usable, best);
                }
            }
        }
    }
}

fn oracle_2d(j: &LevelSet, lost: &[LevelPair], available: &LevelSet) -> BTreeMap<LevelPair, i32> {
    let usable = |l: &LevelPair| !lost.contains(l) && available.contains(l);
    let mut best = None;
    search_2d(j, &usable, &mut best);
    best.map(|(_, c)| c).unwrap_or_default()
}

/// The d-dimensional search as it was.
fn search_nd(
    j: &LevelSetN,
    usable: &impl Fn(&LevelVecN) -> bool,
    best: &mut Option<(usize, BTreeMap<LevelVecN, i64>)>,
) {
    let coeffs = gcp_coefficients_nd(j);
    let bad = coeffs.keys().find(|l| !usable(l)).cloned();
    match bad {
        None => {
            let retained = j.len();
            let better = best.as_ref().is_none_or(|(n, _)| retained > *n);
            if better && !coeffs.is_empty() {
                *best = Some((retained, coeffs));
            }
        }
        Some(bad) => {
            if let Some((n, _)) = best {
                if j.len() <= *n {
                    return;
                }
            }
            let mut candidates: Vec<LevelVecN> = (0..j.dim())
                .map(|axis| {
                    let mut v = bad;
                    v[axis] += 1;
                    v
                })
                .collect();
            candidates.push(bad);
            for cand in candidates {
                if !j.contains(&cand) {
                    continue;
                }
                let mut j2 = j.clone();
                j2.remove_upset(&cand);
                if j2.len() < j.len() {
                    search_nd(&j2, usable, best);
                }
            }
        }
    }
}

fn oracle_nd(j: &LevelSetN, lost: &[LevelVecN], available: &LevelSetN) -> BTreeMap<LevelVecN, i64> {
    let usable = |l: &LevelVecN| !lost.iter().any(|q| q == l) && available.contains(l);
    let mut best = None;
    search_nd(j, &usable, &mut best);
    best.map(|(_, c)| c).unwrap_or_default()
}

/// Every set of one to three grid ids out of `n`.
fn loss_sets(n: usize) -> Vec<Vec<usize>> {
    let mut sets = Vec::new();
    for a in 0..n {
        sets.push(vec![a]);
        for b in a + 1..n {
            sets.push(vec![a, b]);
            for c in b + 1..n {
                sets.push(vec![a, b, c]);
            }
        }
    }
    sets
}

/// The application's solve as it was on the 2D stack, and the arguments
/// it handed the library: (downset, lost levels, surviving levels).
fn levels_2d(
    sys: &GridSystem,
    lost: &[usize],
    covered: bool,
) -> (LevelSet, Vec<LevelPair>, LevelSet) {
    let level = |&b: &usize| sys.grid(b).level;
    let surviving: LevelSet =
        sys.grids().iter().filter(|g| !lost.contains(&g.id)).map(|g| g.level).collect();
    let lost: Vec<LevelPair> = if covered {
        lost.iter().map(level).filter(|lv| !surviving.contains(lv)).collect()
    } else {
        lost.iter().map(level).collect()
    };
    (sys.classical_downset(), lost, surviving)
}

fn levels_nd(
    sys: &GridSystemN,
    lost: &[usize],
    covered: bool,
) -> (LevelSetN, Vec<LevelVecN>, LevelSetN) {
    let level = |&b: &usize| sys.grid(b).level;
    let mut surviving = LevelSetN::new(sys.dim());
    for g in sys.grids().iter().filter(|g| !lost.contains(&g.id)) {
        surviving.insert(g.level);
    }
    let lost: Vec<LevelVecN> = if covered {
        lost.iter().map(level).filter(|lv| !surviving.contains(lv)).collect()
    } else {
        lost.iter().map(level).collect()
    };
    (sys.classical_downset(), lost, surviving)
}

#[test]
fn two_dimensional_solves_match_the_set_based_search() {
    let mut solves = 0;
    for (n, l) in [(9, 4), (10, 4), (13, 4)] {
        for layout in LAYOUTS {
            let lay = ProcLayout::new(n, l, layout, 1);
            let sys = lay.system();
            for lost in loss_sets(sys.n_grids()) {
                for covered in [false, true] {
                    let (downset, lost_levels, surviving) = levels_2d(sys, &lost, covered);
                    let want = oracle_2d(&downset, &lost_levels, &surviving);
                    let (got, len) = D2::robust_coefficients(&lay, &lost, covered);
                    let case = format!("({n},{l}) {layout:?} lost {lost:?} covered {covered}");
                    assert_eq!(len, downset.len(), "{case}");
                    for g in sys.grids() {
                        let c = want.get(&g.level).map_or(0, |&c| c as i64);
                        assert_eq!(got[g.id], c, "{case}: grid {}", g.id);
                    }
                    let map = robust_coefficients(&downset, &lost_levels, &surviving);
                    assert_eq!(map, want, "{case}");
                    solves += 1;
                }
            }
        }
    }
    // Per shape: 7, 11 and 10 grids, so 63 + 231 + 175 loss sets.
    assert_eq!(solves, 3 * (63 + 231 + 175) * 2);
}

/// The 3D comparison at one shape. The set-based search is slow
/// unoptimised, so each distinct (lost, surviving) pair is solved once:
/// outside the Duplicates layout the cover flag changes nothing, and the
/// layouts share levels.
fn three_dimensional_shape_matches(n: u32, l: u32) {
    let mut solved: BTreeMap<(Vec<LevelVecN>, Vec<LevelVecN>), BTreeMap<LevelVecN, i64>> =
        BTreeMap::new();
    for layout in LAYOUTS {
        let lay = ProcLayoutN::new(3, n, l, layout, 1);
        let sys = lay.system();
        for lost in loss_sets(sys.n_grids()) {
            for covered in [false, true] {
                let (downset, lost_levels, surviving) = levels_nd(sys, &lost, covered);
                let key = (lost_levels.clone(), surviving.iter().cloned().collect());
                let want = solved
                    .entry(key)
                    .or_insert_with(|| oracle_nd(&downset, &lost_levels, &surviving));
                let (got, len) = Nd::robust_coefficients(&lay, &lost, covered);
                let case = format!("({n},{l}) {layout:?} lost {lost:?} covered {covered}");
                assert_eq!(len, downset.len(), "{case}");
                for g in sys.grids() {
                    let c = want.get(&g.level).copied().unwrap_or(0);
                    assert_eq!(got[g.id], c, "{case}: grid {}", g.id);
                }
                let map = robust_coefficients_nd(&downset, &lost_levels, &surviving);
                assert_eq!(map, *want, "{case}");
            }
        }
    }
}

#[test]
fn three_dimensional_solves_match_the_set_based_search_at_the_solve3d_kill_shape() {
    three_dimensional_shape_matches(7, 4);
}

#[test]
fn three_dimensional_solves_match_the_set_based_search_at_the_small_nd_shape() {
    three_dimensional_shape_matches(4, 4);
}
