//! Combination coefficients: the classical formula and the general
//! coefficient problem (GCP) used by the Alternate Combination recovery.
//!
//! For any finite **downset** `J` of level pairs (a set closed under the
//! componentwise order: `b ≤ a ∈ J ⇒ b ∈ J`), the inclusion–exclusion
//! coefficients
//!
//! ```text
//! c(a) = Σ_{z ∈ {0,1}²} (−1)^{z₁+z₂} [a + z ∈ J]
//! ```
//!
//! satisfy `Σ_{a ≥ b, a ∈ J} c(a) = 1` for every `b ∈ J` — each
//! hierarchical subspace of `J` is covered exactly once, which is the
//! defining property of a valid combination (Griebel–Schneider–Zenger).
//! The classical Eq.-1 coefficients (+1 on the top diagonal, −1 on the one
//! below) fall out as the special case of a triangular downset.
//!
//! After grid losses, the surviving index set is `J \ upset(lost)` — still
//! a downset — and the same formula yields the *robust* (alternate)
//! combination of Harding & Hegland. Losses in the middle of a diagonal
//! recruit grids from the extra layers; that is precisely why the paper's
//! Alternate Combination technique carries two extra layers of sub-grids.
//!
//! ## The robust search
//!
//! A level may stay inside the downset as long as its coefficient is
//! zero — its data is never touched. Only a *nonzero* coefficient on a
//! lost or unavailable level (a *bad* level) forces index-set surgery,
//! and there is a choice of surgeries: removing the upset of the bad
//! level itself, or of one of its upper neighbours, which can zero the bad
//! level's coefficient while keeping far more of the downset (losing the
//! lower-diagonal `(i,i)` *and* the corner extra grid is only solvable by
//! trimming a neighbouring diagonal grid instead of the corner's whole
//! upset). The downsets are tiny (l(l+1)/2 levels), so
//! [`robust_coefficients`] runs a best-retention depth-first search: at
//! each node it takes the first bad level in lexicographic order, tries
//! the upper neighbours along `i`, then `j`, then the level itself,
//! prunes a branch that cannot beat the largest valid subset found so
//! far, and keeps the first one found on a tie.
//!
//! That search is written once, for every dimension:
//! [`IndexedDownset::robust`]. The [`crate::ndim`] module docs say how it
//! runs on index bitmasks and why it visits the same subsets in the same
//! order as the set-based search it replaced.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::level::LevelPair;
use crate::ndim::IndexedDownset;

/// A finite set of level pairs, maintained as a downset for coefficient
/// computations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LevelSet {
    levels: BTreeSet<LevelPair>,
}

impl LevelSet {
    /// Empty set.
    pub fn new() -> Self {
        LevelSet { levels: BTreeSet::new() }
    }

    /// The downset hull of the given levels: everything `≤` some element,
    /// truncated below at `floor` (componentwise minimum level, the
    /// paper's `m = n − l + 1` truncation).
    pub fn downset_hull(tops: &[LevelPair], floor: LevelPair) -> Self {
        let mut levels = BTreeSet::new();
        for top in tops {
            for i in floor.i..=top.i {
                for j in floor.j..=top.j {
                    levels.insert(LevelPair::new(i, j));
                }
            }
        }
        LevelSet { levels }
    }

    /// Membership.
    pub fn contains(&self, l: &LevelPair) -> bool {
        self.levels.contains(l)
    }

    /// Remove a level and its entire upset (everything `≥` it) — the
    /// index-set surgery performed when a grid's data is lost.
    pub fn remove_upset(&mut self, lost: LevelPair) {
        self.levels.retain(|l| !lost.leq(l));
    }

    /// Number of levels in the set.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Iterate in lexicographic order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &LevelPair> {
        self.levels.iter()
    }

    /// Is this set a downset above `floor`? (Diagnostic/property-test
    /// helper.)
    pub fn is_downset(&self, floor: LevelPair) -> bool {
        self.levels.iter().all(|l| {
            let below_i = l.i == floor.i || self.contains(&LevelPair::new(l.i - 1, l.j));
            let below_j = l.j == floor.j || self.contains(&LevelPair::new(l.i, l.j - 1));
            below_i && below_j
        })
    }
}

impl FromIterator<LevelPair> for LevelSet {
    fn from_iter<T: IntoIterator<Item = LevelPair>>(iter: T) -> Self {
        LevelSet { levels: iter.into_iter().collect() }
    }
}

/// Inclusion–exclusion combination coefficients over a downset `J`.
/// Levels with coefficient 0 are omitted from the result.
///
/// ```
/// use sparsegrid::{gcp_coefficients, GridSystem, Layout};
///
/// // The classical combination of (n = 9, l = 4): +1 on the diagonal,
/// // -1 on the lower diagonal.
/// let sys = GridSystem::new(9, 4, Layout::Plain);
/// let coeffs = gcp_coefficients(&sys.classical_downset());
/// assert_eq!(coeffs.len(), 7);
/// assert_eq!(coeffs.values().sum::<i32>(), 1);
/// ```
pub fn gcp_coefficients(j_set: &LevelSet) -> BTreeMap<LevelPair, i32> {
    let mut coeffs = BTreeMap::new();
    for &a in j_set.iter() {
        let mut c = 0i32;
        for (di, dj, sign) in [(0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, 1)] {
            if j_set.contains(&a.plus(di, dj)) {
                c += sign;
            }
        }
        if c != 0 {
            coeffs.insert(a, c);
        }
    }
    coeffs
}

/// Coefficients for a downset after removing the upsets of `lost` levels,
/// **restricted to grids that actually exist**: if the surgery would
/// assign a nonzero coefficient to a level outside `available`, that level
/// is treated as lost too and the surgery repeats. Always terminates (the
/// set shrinks); returns the final coefficients (possibly empty, if every
/// grid is gone). An adapter over [`IndexedDownset::robust`] (see the
/// module docs).
///
/// ```
/// use sparsegrid::{robust_coefficients, verify_covering, GridSystem, Layout, LevelSet};
///
/// let sys = GridSystem::new(9, 4, Layout::ExtraLayers);
/// // Lose a middle diagonal grid; the robust combination recruits the
/// // extra layers and still covers every hierarchical subspace once.
/// let lost = vec![sys.grid(1).level];
/// let surviving: LevelSet = sys
///     .grids()
///     .iter()
///     .filter(|g| g.id != 1)
///     .map(|g| g.level)
///     .collect();
/// let coeffs = robust_coefficients(&sys.classical_downset(), &lost, &surviving);
/// assert_eq!(coeffs.values().sum::<i32>(), 1);
/// assert!(verify_covering(&coeffs, sys.min_level()).is_none());
/// ```
pub fn robust_coefficients(
    j_set: &LevelSet,
    lost: &[LevelPair],
    available: &LevelSet,
) -> BTreeMap<LevelPair, i32> {
    let set = IndexedDownset::new(2, j_set.iter().map(|l| [l.i, l.j]));
    let pair = |i: usize| LevelPair::new(set.level(i)[0], set.level(i)[1]);
    let robust = set.robust(|i| !lost.contains(&pair(i)) && available.contains(&pair(i)));
    robust.iter().map(|(i, c)| (pair(i), c as i32)).collect()
}

/// Verify the defining GCP property of a coefficient set: every
/// hierarchical subspace of the downset hull of the coefficients' levels
/// is covered exactly once (`Σ_{a ≥ b} c(a) = 1`). Returns the first
/// violating level, or `None` if the combination is valid.
///
/// This is the invariant every recovery path must preserve; applications
/// can `debug_assert!(verify_covering(&coeffs, floor).is_none())` after
/// recomputing coefficients.
pub fn verify_covering(coeffs: &BTreeMap<LevelPair, i32>, floor: LevelPair) -> Option<LevelPair> {
    let tops: Vec<LevelPair> = coeffs.keys().copied().collect();
    if tops.is_empty() {
        return None;
    }
    let hull = LevelSet::downset_hull(&tops, floor);
    for &b in hull.iter() {
        let cover: i32 = coeffs.iter().filter(|(a, _)| b.leq(a)).map(|(_, &v)| v).sum();
        if cover != 1 {
            return Some(b);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(i: u32, j: u32) -> LevelPair {
        LevelPair::new(i, j)
    }

    #[test]
    fn verify_covering_accepts_classical_and_rejects_broken() {
        let j = classical(9, 4);
        let c = gcp_coefficients(&j);
        assert_eq!(verify_covering(&c, lv(6, 6)), None);

        // Drop one term: covering breaks somewhere.
        let mut broken = c.clone();
        let first = *broken.keys().next().unwrap();
        broken.remove(&first);
        assert!(verify_covering(&broken, lv(6, 6)).is_some());

        // Flip a sign: also invalid.
        let mut flipped = c.clone();
        if let Some(v) = flipped.values_mut().next() {
            *v = -*v;
        }
        assert!(verify_covering(&flipped, lv(6, 6)).is_some());

        // Empty set is vacuously fine.
        assert_eq!(verify_covering(&BTreeMap::new(), lv(1, 1)), None);
    }

    #[test]
    fn verify_covering_accepts_robust_after_losses() {
        let j = classical(8, 4);
        let avail: LevelSet = j.iter().copied().collect();
        for lost in [vec![lv(5, 8)], vec![lv(6, 7), lv(7, 6)], vec![lv(6, 6), lv(5, 5)]] {
            let c = robust_coefficients(&j, &lost, &avail);
            if !c.is_empty() {
                assert_eq!(verify_covering(&c, lv(5, 5)), None, "lost {lost:?}");
            }
        }
    }

    /// The classical triangular downset of the paper: `m ≤ i,j`,
    /// `i + j ≤ τ` with `τ = 2n − l + 1`.
    fn classical(n: u32, l: u32) -> LevelSet {
        let m = n - l + 1;
        let tau = 2 * n - l + 1;
        let mut s = LevelSet::new();
        for i in m..=n {
            for j in m..=n {
                if i + j <= tau {
                    s.levels.insert(lv(i, j));
                }
            }
        }
        s
    }

    #[test]
    fn classical_coefficients_match_eq1() {
        // n = 13, l = 4: +1 on i+j = 23 (4 grids), −1 on i+j = 22 (3 grids).
        let j = classical(13, 4);
        let c = gcp_coefficients(&j);
        assert_eq!(c.len(), 7);
        for (l, &v) in &c {
            if l.sum() == 23 {
                assert_eq!(v, 1, "diagonal {l}");
            } else if l.sum() == 22 {
                assert_eq!(v, -1, "lower diagonal {l}");
            } else {
                panic!("unexpected nonzero coefficient at {l}");
            }
        }
        assert_eq!(c.values().sum::<i32>(), 1);
    }

    #[test]
    fn coefficients_cover_every_subspace_once() {
        // The defining GCP property: Σ_{a ≥ b} c(a) = 1 for all b ∈ J.
        for (n, l) in [(9u32, 4u32), (13, 4), (8, 5), (6, 3)] {
            let j = classical(n, l);
            let c = gcp_coefficients(&j);
            for &b in j.iter() {
                let cover: i32 = c.iter().filter(|(a, _)| b.leq(a)).map(|(_, &v)| v).sum();
                assert_eq!(cover, 1, "subspace {b} of (n={n}, l={l})");
            }
        }
    }

    #[test]
    fn corner_loss_keeps_coefficients_on_survivors() {
        // Lose the corner diagonal grid (10,13) of (n=13, l=4).
        let j = classical(13, 4);
        let mut j2 = j.clone();
        j2.remove_upset(lv(10, 13));
        assert!(j2.is_downset(lv(10, 10)));
        let c = gcp_coefficients(&j2);
        assert_eq!(c.values().sum::<i32>(), 1);
        assert!(!c.contains_key(&lv(10, 13)));
        // Covering property still holds on the surviving downset.
        for &b in j2.iter() {
            let cover: i32 = c.iter().filter(|(a, _)| b.leq(a)).map(|(_, &v)| v).sum();
            assert_eq!(cover, 1);
        }
    }

    #[test]
    fn middle_loss_recruits_extra_layer() {
        // Losing (11,12) — a middle diagonal grid — must recruit the
        // extra-layer grid (10,11) with coefficient −1 (worked through in
        // the crate docs).
        let j = classical(13, 4);
        let mut j2 = j.clone();
        j2.remove_upset(lv(11, 12));
        let c = gcp_coefficients(&j2);
        assert_eq!(c.get(&lv(10, 11)), Some(&-1));
        assert_eq!(c.get(&lv(10, 13)), Some(&1));
        assert_eq!(c.values().sum::<i32>(), 1);
    }

    #[test]
    fn robust_coefficients_respect_availability() {
        // Availability: the paper's AC layout (two diagonals + 2 extra
        // layers), i.e. no interior grids below layer 2.
        let n = 13;
        let l = 4;
        let m = n - l + 1;
        let tau = 2 * n - l + 1;
        let mut avail = LevelSet::new();
        for i in m..=n {
            for j in m..=n {
                let s = i + j;
                if s <= tau && s >= tau - 3 {
                    avail.levels.insert(lv(i, j));
                }
            }
        }
        let j = classical(n, l);
        // Lose two middle grids at once.
        let c = robust_coefficients(&j, &[lv(11, 12), lv(12, 11)], &avail);
        assert!(!c.is_empty());
        assert_eq!(c.values().sum::<i32>(), 1);
        for lvl in c.keys() {
            assert!(avail.contains(lvl), "coefficient on unavailable grid {lvl}");
        }
    }

    #[test]
    fn remove_upset_removes_dependents() {
        let mut s = LevelSet::downset_hull(&[lv(3, 3)], lv(1, 1));
        assert_eq!(s.len(), 9);
        s.remove_upset(lv(2, 2));
        assert_eq!(s.len(), 5); // (1,1),(1,2),(1,3),(2,1),(3,1)
        assert!(s.is_downset(lv(1, 1)));
        assert!(!s.contains(&lv(2, 2)));
        assert!(!s.contains(&lv(3, 3)));
    }

    #[test]
    fn downset_hull_truncates_at_floor() {
        let s = LevelSet::downset_hull(&[lv(4, 2)], lv(2, 1));
        assert!(s.contains(&lv(2, 1)));
        assert!(s.contains(&lv(4, 2)));
        assert!(!s.contains(&lv(1, 1)));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn losing_bottom_grid_alone_keeps_classical_combination() {
        // The (m,m) extra-layer grid has coefficient 0; its loss must not
        // destroy the downset.
        let j = classical(7, 4);
        let avail: LevelSet = j.iter().copied().collect();
        let c = robust_coefficients(&j, &[lv(4, 4)], &avail);
        assert_eq!(c.values().sum::<i32>(), 1);
        assert_eq!(c.len(), 7, "classical coefficients are untouched");
        assert!(!c.contains_key(&lv(4, 4)));
    }

    #[test]
    fn lower_diag_plus_corner_loss_finds_partial_surgery() {
        // Losing (5,5) *and* (4,4) of (n=7, l=4) is unsolvable by naive
        // full-upset removal (it wipes the downset); the search must find
        // the partial surgery that trims one neighbouring diagonal grid
        // instead.
        let j = classical(7, 4);
        let avail: LevelSet = j.iter().copied().collect();
        let c = robust_coefficients(&j, &[lv(5, 5), lv(4, 4)], &avail);
        assert!(!c.is_empty(), "a valid combination exists");
        assert_eq!(c.values().sum::<i32>(), 1);
        assert!(!c.contains_key(&lv(5, 5)));
        assert!(!c.contains_key(&lv(4, 4)));
        // The covering property holds on the found downset's fringe: check
        // the retained-set size is large (9 of 10 levels).
        let retained: i32 = c.values().map(|v| v.abs()).sum();
        assert!(retained >= 3, "non-trivial combination, got {c:?}");
    }

    #[test]
    fn degenerate_total_loss_yields_empty() {
        let j = classical(6, 3);
        let avail = LevelSet::new();
        let c = robust_coefficients(&j, &[lv(4, 4)], &avail);
        assert!(c.is_empty());
    }
}
