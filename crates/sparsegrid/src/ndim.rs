//! The combination technique in arbitrary dimension.
//!
//! The paper instantiates the classical *d*-dimensional combination
//! technique (Griebel–Schneider–Zenger) at `d = 2`; this module carries
//! the coefficient theory in general dimension, so the library can serve
//! as a foundation for higher-dimensional solvers (the paper's §V points
//! at "more advanced sparse grid combination techniques").
//!
//! Everything is a direct generalization of [`crate::coeffs`]:
//!
//! * level vectors `l ∈ ℕ^d` ordered componentwise,
//! * downsets `J` of level vectors,
//! * inclusion–exclusion coefficients
//!   `c(a) = Σ_{z ∈ {0,1}^d} (−1)^{|z|₁} [a + z ∈ J]`,
//! * the covering property `Σ_{a ≥ b, a ∈ J} c(a) = 1` for all `b ∈ J`,
//! * robust coefficient recomputation after losses, with the same
//!   best-retention surgery search.
//!
//! For the classical truncated-simplex downset, the coefficients reduce
//! to the textbook formula `(−1)^q · C(d−1, q)` on the diagonal
//! `|l|₁ = τ − q` (away from the truncation corners), which the tests
//! verify.
//!
//! ## The robust search on bitmasks
//!
//! The search itself (best retention, first bad level, candidates, ties:
//! the [`crate::coeffs`] module docs) lives here once for every
//! dimension, in [`IndexedDownset::robust`]; [`robust_coefficients_nd`]
//! and [`crate::robust_coefficients`] are thin adapters over it, and so is
//! the application's per-rank solve.
//!
//! [`IndexedDownset`] numbers the levels in lexicographic order — the
//! order a `BTreeSet` of level vectors, or of level pairs, iterates in —
//! and builds one table per solve: each level's `2^d` corners `l + z`,
//! `z ∈ {0,1}^d`, as indices (the `d` corners one step up are its upper
//! neighbours). The classical downset comes straight from
//! [`TruncatedSimplex`], the one listing of the truncated simplex, which
//! is already in that order. Every subset the search visits is then a
//! bitmask over those indices. A coefficient counts the set bits among a
//! level's corners, removing an upset is `j & !upset` with every level's
//! upset precomputed, and a subset's size is a popcount. The masks of the
//! whole solve (one per search depth) share one buffer, where the
//! set-based search cloned a set and built a coefficient map at every
//! node.
//!
//! The bitmask search visits the same subsets in the same order as the
//! set-based one, because every choice it makes reads only the order of
//! the indices, which is the lexicographic order of the levels:
//!
//! * the first bad level is the lowest index whose coefficient is nonzero
//!   and whose level is unusable — the first such key of the coefficient
//!   map;
//! * the candidates are tried as before: the upper neighbour along axis
//!   0, 1, …, `d − 1`, then the level itself, each only if still present;
//! * a subset's size, and so the pruning and the best-retention test,
//!   is the set's length;
//! * on a tie the first subset found stays.
//!
//! So the coefficients, the tie-breaks and the downset's size are the
//! ones the set-based search gave; `ftsg-core`'s `robust_pins` test
//! checks that against a transcription of it on every loss of one to
//! three grids of the application's shapes.
//!
//! ## Inline levels
//!
//! A [`LevelVecN`] holds its axes inline, up to [`MAX_DIM`] of them: a
//! `Copy` value like the 2D [`crate::LevelPair`], so building, copying or
//! keying a set by one asks the allocator for nothing. It reads as the
//! slice of its `d` axes and compares, orders and prints as that slice,
//! so a [`LevelSetN`] iterates in the same lexicographic order and every
//! message shows a level as `[4, 2, 2]`. [`MAX_DIM`] is the one bound on
//! the dimension: the grid system, the configuration and the v3
//! checkpoint format all refuse more axes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// The most axes a [`LevelVecN`] holds, and so the largest dimension the
/// d-dimensional stack runs at.
pub const MAX_DIM: usize = 8;

/// A level vector of `d ≤ MAX_DIM` axes, held inline (see the module
/// docs): it derefs to the slice of its axes and compares, orders and
/// prints as that slice. The axes past `d` stay 0, the least `u32`, so
/// the derived order — the padded axes first, then `d` — is the slice's
/// lexicographic order, a proper prefix first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LevelVecN {
    axes: [u32; MAX_DIM],
    len: u8,
}

impl LevelVecN {
    /// The level with these axes. Panics beyond [`MAX_DIM`] axes.
    pub fn new(axes: &[u32]) -> Self {
        axes.iter().copied().collect()
    }

    /// `value` on each of `dim` axes. Panics beyond [`MAX_DIM`].
    pub fn splat(value: u32, dim: usize) -> Self {
        std::iter::repeat_n(value, dim).collect()
    }
}

impl Deref for LevelVecN {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.axes[..self.len as usize]
    }
}

impl DerefMut for LevelVecN {
    fn deref_mut(&mut self) -> &mut [u32] {
        &mut self.axes[..self.len as usize]
    }
}

impl fmt::Debug for LevelVecN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl FromIterator<u32> for LevelVecN {
    /// Panics beyond [`MAX_DIM`] axes.
    fn from_iter<I: IntoIterator<Item = u32>>(axes: I) -> Self {
        let mut level = LevelVecN { axes: [0; MAX_DIM], len: 0 };
        for l in axes {
            assert!(level.len() < MAX_DIM, "a level vector holds at most {MAX_DIM} axes");
            level.axes[level.len()] = l;
            level.len += 1;
        }
        level
    }
}

impl<'a> IntoIterator for &'a LevelVecN {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Componentwise `≤` (the lattice order).
pub fn leq(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// A finite set of level vectors of a fixed dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSetN {
    dim: usize,
    levels: BTreeSet<LevelVecN>,
}

impl LevelSetN {
    /// Empty set of the given dimension.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "dimension must be ≥ 1");
        LevelSetN { dim, levels: BTreeSet::new() }
    }

    /// The classical truncated simplex
    /// `{ l : floor ≤ l_i, |l|₁ ≤ tau }` — the *d*-dimensional analogue
    /// of the paper's Eq.-1 index set.
    ///
    /// Panicking wrapper around [`LevelSetN::try_truncated_simplex`] for
    /// call sites with statically valid parameters.
    pub fn truncated_simplex(dim: usize, floor: u32, tau: u32) -> Self {
        match Self::try_truncated_simplex(dim, floor, tau) {
            Ok(set) => set,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor for the truncated simplex: the errors of
    /// [`TruncatedSimplex::new`], and a dimension beyond [`MAX_DIM`], are
    /// returned rather than panicked on, so user-supplied config can be
    /// validated at the boundary.
    pub fn try_truncated_simplex(dim: usize, floor: u32, tau: u32) -> Result<Self, String> {
        let simplex = TruncatedSimplex::new(dim, floor, tau)?;
        if dim > MAX_DIM {
            return Err(format!("dimension {dim} exceeds MAX_DIM = {MAX_DIM}"));
        }
        Ok(LevelSetN { dim, levels: simplex.levels().collect() })
    }

    /// Dimension of the member vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Membership.
    pub fn contains(&self, l: &[u32]) -> bool {
        debug_assert_eq!(l.len(), self.dim);
        self.levels.contains(&LevelVecN::new(l))
    }

    /// Insert a level (must match the dimension).
    pub fn insert(&mut self, l: LevelVecN) {
        assert_eq!(l.len(), self.dim, "dimension mismatch");
        self.levels.insert(l);
    }

    /// Remove a level and its entire upset.
    pub fn remove_upset(&mut self, lost: &[u32]) {
        debug_assert_eq!(lost.len(), self.dim);
        self.levels.retain(|l| !leq(lost, l));
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Iterate in lexicographic order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &LevelVecN> {
        self.levels.iter()
    }
}

/// The truncated simplex `{ l : floor ≤ l_i, |l|₁ ≤ tau }`, listed in
/// lexicographic order: `len` levels, known up front, the first
/// `[floor; dim]`, each next one from `advance` on the one before, in
/// place, so listing it allocates nothing. [`LevelSetN::truncated_simplex`],
/// [`IndexedDownset::truncated_simplex`] and the 2D
/// [`crate::GridSystem::classical_downset`] are all listed this way.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedSimplex {
    dim: usize,
    floor: u32,
    tau: u32,
}

impl TruncatedSimplex {
    /// Rejects degenerate dimensions, simplices that cannot hold the floor
    /// corner, and parameter combinations whose corner sum `floor · d`
    /// overflows `u32`.
    pub fn new(dim: usize, floor: u32, tau: u32) -> Result<Self, String> {
        if dim < 1 {
            return Err("dimension must be ≥ 1".into());
        }
        let d32 = u32::try_from(dim).map_err(|_| format!("dimension {dim} exceeds u32 range"))?;
        let corner = floor
            .checked_mul(d32)
            .ok_or_else(|| format!("floor {floor} × dim {dim} overflows u32"))?;
        if tau < corner {
            return Err(format!("tau {tau} cannot hold the floor corner ({floor}^{dim})"));
        }
        Ok(TruncatedSimplex { dim, floor, tau })
    }

    /// The floor of every axis.
    pub(crate) fn floor(&self) -> u32 {
        self.floor
    }

    /// The bound on `|l|₁`.
    pub(crate) fn tau(&self) -> u32 {
        self.tau
    }

    /// Number of levels: the ways to spread at most `tau − floor · d` over
    /// `d` axes, `C(tau − floor · d + d, d)`.
    fn len(&self) -> usize {
        let slack = (self.tau - self.floor * self.dim as u32) as usize;
        (1..=self.dim).fold(1, |n, k| n * (slack + k) / k)
    }

    /// Step `level` to its lexicographic successor — an odometer whose last
    /// axis turns fastest, each axis reset to `floor` once the sum would
    /// exceed `tau`. False, with `level` back at the floor corner, if it
    /// was the last.
    fn advance(&self, level: &mut [u32]) -> bool {
        debug_assert_eq!(level.len(), self.dim);
        for axis in (0..self.dim).rev() {
            level[axis] += 1;
            if level.iter().sum::<u32>() <= self.tau {
                return true;
            }
            level[axis] = self.floor;
        }
        false
    }

    /// The levels, in lexicographic order. Panics beyond [`MAX_DIM`].
    pub fn levels(self) -> impl Iterator<Item = LevelVecN> {
        std::iter::successors(Some(LevelVecN::splat(self.floor, self.dim)), move |level| {
            let mut next = *level;
            self.advance(&mut next).then_some(next)
        })
    }
}

/// Inclusion–exclusion coefficients over a downset in any dimension.
/// Levels with coefficient 0 are omitted.
pub fn gcp_coefficients_nd(j: &LevelSetN) -> BTreeMap<LevelVecN, i64> {
    let d = j.dim();
    assert!(d < 63, "coefficient enumeration over 2^d corners needs d < 63");
    let mut out = BTreeMap::new();
    for a in j.iter() {
        let mut c: i64 = 0;
        for z in 0..(1u64 << d) {
            let ones = z.count_ones();
            let probe: LevelVecN =
                a.iter().enumerate().map(|(i, &v)| v + ((z >> i) & 1) as u32).collect();
            if j.contains(&probe) {
                c += if ones % 2 == 0 { 1 } else { -1 };
            }
        }
        if c != 0 {
            out.insert(*a, c);
        }
    }
    out
}

/// The covering property `Σ_{a ≥ b} c(a) = 1` for every `b` in the
/// downset hull of the coefficient support. Returns the first violator.
pub fn verify_covering_nd(coeffs: &BTreeMap<LevelVecN, i64>, floor: u32) -> Option<LevelVecN> {
    let first = coeffs.keys().next()?;
    let d = first.len();
    // Hull: componentwise ranges floor..=max over support; enumerate and
    // test every point dominated by some support level.
    let mut maxes = LevelVecN::splat(floor, d);
    for a in coeffs.keys() {
        for (m, &v) in maxes.iter_mut().zip(a) {
            *m = (*m).max(v);
        }
    }
    let mut cursor = LevelVecN::splat(floor, d);
    loop {
        let dominated = coeffs.keys().any(|a| leq(&cursor, a));
        if dominated {
            let cover: i64 = coeffs.iter().filter(|(a, _)| leq(&cursor, a)).map(|(_, &c)| c).sum();
            if cover != 1 {
                return Some(cursor);
            }
        }
        // Odometer over the bounding box.
        let mut i = 0;
        loop {
            if i == d {
                return None;
            }
            cursor[i] += 1;
            if cursor[i] <= maxes[i] {
                break;
            }
            cursor[i] = floor;
            i += 1;
        }
    }
}

/// Robust coefficients after losses, in any dimension: the
/// best-retention surgery search of the module docs over `j_set`, where a
/// level is usable unless it is `lost` or missing from `available`. An
/// adapter over [`IndexedDownset::robust`].
pub fn robust_coefficients_nd(
    j_set: &LevelSetN,
    lost: &[LevelVecN],
    available: &LevelSetN,
) -> BTreeMap<LevelVecN, i64> {
    let set = IndexedDownset::new(j_set.dim(), j_set.iter().map(|l| l.iter().copied()));
    let robust = set.robust(|i| {
        let l = set.level(i);
        !lost.iter().any(|q| q[..] == *l) && available.contains(l)
    });
    robust.iter().map(|(i, c)| (LevelVecN::new(set.level(i)), c)).collect()
}

/// Marks a corner outside the set in an [`IndexedDownset`] row.
const ABSENT: u32 = u32::MAX;

/// A finite set of level vectors — in practice a downset — numbered in
/// lexicographic order, with the table the robust search reads: row `i`
/// holds level `i`, then the index of each corner `l + z`, `z ∈ {0,1}^d`
/// (bit `a` of `z` steps axis `a`, so corner `1 << a` is the upper
/// neighbour `l + e_a`), or `ABSENT` where the set lacks it.
#[derive(Debug, Clone)]
pub struct IndexedDownset {
    dim: usize,
    len: usize,
    rows: Vec<u32>,
}

impl IndexedDownset {
    /// The set of `levels`, given in strictly ascending lexicographic
    /// order (as a [`LevelSetN`] or a [`crate::LevelSet`] iterates), each
    /// of `dim` components.
    pub fn new<L: IntoIterator<Item = u32>>(
        dim: usize,
        levels: impl ExactSizeIterator<Item = L>,
    ) -> Self {
        let mut set = Self::with_capacity(dim, levels.len());
        for level in levels {
            let start = set.rows.len();
            set.rows.extend(level);
            assert_eq!(set.rows.len() - start, dim, "dimension mismatch");
            set.rows.resize(start + Self::row_len(dim), ABSENT);
            set.len += 1;
        }
        debug_assert!((1..set.len).all(|i| set.level(i - 1) < set.level(i)), "ascending levels");
        set.link();
        set
    }

    /// The truncated simplex `{ l : floor ≤ l_i, |l|₁ ≤ tau }` (see
    /// [`TruncatedSimplex`]), which must hold the floor corner. One
    /// allocation: each level is written in place as its predecessor's
    /// successor.
    pub fn truncated_simplex(dim: usize, floor: u32, tau: u32) -> Self {
        let simplex = TruncatedSimplex::new(dim, floor, tau).unwrap_or_else(|e| panic!("{e}"));
        let (len, row) = (simplex.len(), Self::row_len(dim));
        let mut set = Self::with_capacity(dim, len);
        set.rows.extend(std::iter::repeat_n(floor, dim));
        for i in 1..len {
            set.rows.resize(i * row, ABSENT);
            set.rows.extend_from_within((i - 1) * row..(i - 1) * row + dim);
            let advanced = simplex.advance(&mut set.rows[i * row..i * row + dim]);
            debug_assert!(advanced, "the simplex has {len} levels");
        }
        set.rows.resize(len * row, ABSENT);
        set.len = len;
        set.link();
        set
    }

    fn row_len(dim: usize) -> usize {
        dim + (1 << dim)
    }

    fn with_capacity(dim: usize, len: usize) -> Self {
        assert!((1..32).contains(&dim), "a table of 2^d corners needs 1 ≤ d < 32");
        IndexedDownset { dim, len: 0, rows: Vec::with_capacity(len * Self::row_len(dim)) }
    }

    /// Fill every row's corner columns.
    fn link(&mut self) {
        let (d, row) = (self.dim, Self::row_len(self.dim));
        for i in 0..self.len {
            for z in 0..1usize << d {
                let corner = self.find(|a| self.rows[i * row + a] + ((z >> a) & 1) as u32);
                self.rows[i * row + d + z] = corner.map_or(ABSENT, |c| c as u32);
            }
        }
    }

    /// The index of the level whose component `a` is `key(a)`, if present.
    fn find(&self, key: impl Fn(usize) -> u32) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let level = self.level(mid);
            match (0..self.dim).map(|a| level[a].cmp(&key(a))).find(|o| o.is_ne()) {
                None => return Some(mid),
                Some(std::cmp::Ordering::Less) => lo = mid + 1,
                Some(_) => hi = mid,
            }
        }
        None
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Level `i`.
    pub fn level(&self, i: usize) -> &[u32] {
        let start = i * Self::row_len(self.dim);
        &self.rows[start..start + self.dim]
    }

    /// The index of `level`, if it is in the set.
    pub fn index_of(&self, level: &[u32]) -> Option<usize> {
        debug_assert_eq!(level.len(), self.dim);
        self.find(|a| level[a])
    }

    /// The corner indices of level `i`.
    fn corners(&self, i: usize) -> &[u32] {
        let start = i * Self::row_len(self.dim) + self.dim;
        &self.rows[start..start + (1 << self.dim)]
    }

    /// Inclusion–exclusion coefficient of level `i` over the subset `j`
    /// (0 if `i` is not in it).
    fn coefficient(&self, i: usize, j: &[u64]) -> i64 {
        if !has(j, i as u32) {
            return 0;
        }
        let corners = self.corners(i).iter().enumerate();
        let present = corners.filter(|&(_, &c)| has(j, c));
        present.map(|(z, _)| if z.count_ones() % 2 == 0 { 1 } else { -1 }).sum()
    }

    /// The best-retention surgery search of the module docs over this set,
    /// with level `i` usable iff `usable(i)`: the largest subset, reached by
    /// removing upsets, whose nonzero coefficients all sit on usable levels
    /// (the first found on a tie). All working sets are bitmasks over the
    /// indices, kept in one buffer.
    pub fn robust(&self, usable: impl Fn(usize) -> bool) -> RobustCoefficients<'_> {
        let (n, words) = (self.len, self.len.div_ceil(64));
        // [kept][usable][upset of each level][one frame per search depth].
        let mut bits = vec![0u64; (2 * n + 3) * words];
        let (kept, rest) = bits.split_at_mut(words);
        let (usable_bits, rest) = rest.split_at_mut(words);
        let (upsets, frames) = rest.split_at_mut(n * words);
        for i in 0..n {
            if usable(i) {
                set_bit(usable_bits, i);
            }
            let upset = &mut upsets[i * words..(i + 1) * words];
            for b in (i..n).filter(|&b| leq(self.level(i), self.level(b))) {
                set_bit(upset, b);
            }
            set_bit(&mut frames[..words], i);
        }
        let mut search = Search { set: self, usable: usable_bits, upsets, kept, kept_len: None };
        search.visit(frames);
        RobustCoefficients { set: self, words, bits }
    }
}

/// Is bit `i` of the mask set? ([`ABSENT`] never is.)
fn has(mask: &[u64], i: u32) -> bool {
    mask.get(i as usize / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

fn count(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// The search's state: the set, its usable levels and upsets, and the
/// best subset so far with its size.
struct Search<'a> {
    set: &'a IndexedDownset,
    usable: &'a [u64],
    upsets: &'a [u64],
    kept: &'a mut [u64],
    kept_len: Option<usize>,
}

impl Search<'_> {
    /// Visit the subset in `frames`' first mask; the rest of `frames` is
    /// scratch for the deeper visits (each removes at least one level, so
    /// one frame per level suffices).
    fn visit(&mut self, frames: &mut [u64]) {
        let (set, upsets, words) = (self.set, self.upsets, self.kept.len());
        let (j, deeper) = frames.split_at_mut(words);
        let len = count(j);
        let mut nonzero = false;
        let mut bad = None;
        for i in (0..set.len).filter(|&i| has(j, i as u32)) {
            if set.coefficient(i, j) != 0 {
                if !has(self.usable, i as u32) {
                    bad = Some(i);
                    break;
                }
                nonzero = true;
            }
        }
        let Some(bad) = bad else {
            if nonzero && self.kept_len.is_none_or(|n| len > n) {
                self.kept.copy_from_slice(j);
                self.kept_len = Some(len);
            }
            return;
        };
        // Prune: this branch can never beat the incumbent.
        if self.kept_len.is_some_and(|n| len <= n) {
            return;
        }
        let corners = set.corners(bad);
        let ups = (0..set.dim).map(|a| corners[1 << a]);
        for cand in ups.chain([bad as u32]).filter(|&c| has(j, c)) {
            let upset = &upsets[cand as usize * words..][..words];
            for ((child, &w), &u) in deeper.iter_mut().zip(j.iter()).zip(upset) {
                *child = w & !u;
            }
            if count(&deeper[..words]) < len {
                self.visit(deeper);
            }
        }
    }
}

/// What [`IndexedDownset::robust`] settled on: the retained subset, whose
/// inclusion–exclusion coefficients are the robust combination.
pub struct RobustCoefficients<'a> {
    set: &'a IndexedDownset,
    words: usize,
    bits: Vec<u64>,
}

impl RobustCoefficients<'_> {
    /// The robust coefficient of level `i` (0 if it has none, or if no
    /// subset qualified).
    pub fn coefficient(&self, i: usize) -> i64 {
        self.set.coefficient(i, &self.bits[..self.words])
    }

    /// `(index, coefficient)` of every nonzero coefficient, in index
    /// (= lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        (0..self.set.len).map(|i| (i, self.coefficient(i))).filter(|&(_, c)| c != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::{gcp_coefficients, LevelSet};
    use crate::level::LevelPair;

    /// Binomial coefficient.
    fn choose(n: u32, k: u32) -> i64 {
        if k > n {
            return 0;
        }
        let mut r = 1i64;
        for i in 0..k {
            r = r * (n - i) as i64 / (i + 1) as i64;
        }
        r
    }

    #[test]
    fn two_dim_matches_the_specialized_module() {
        let floor = 3;
        let tau = 11;
        let nd = LevelSetN::truncated_simplex(2, floor, tau);
        let c_nd = gcp_coefficients_nd(&nd);

        let set2d: LevelSet = nd.iter().map(|v| LevelPair::new(v[0], v[1])).collect();
        let c_2d = gcp_coefficients(&set2d);

        assert_eq!(c_nd.len(), c_2d.len());
        for (lv, c) in &c_2d {
            assert_eq!(
                c_nd.get(&LevelVecN::new(&[lv.i, lv.j])).copied(),
                Some(*c as i64),
                "mismatch at {lv}"
            );
        }
    }

    #[test]
    fn classical_3d_coefficients_are_binomial() {
        // The textbook d-dimensional combination: on the q-th diagonal
        // below the top, the coefficient is (−1)^q · C(d−1, q) — away
        // from truncation corners.
        let d = 3u32;
        let floor = 2;
        let tau = 14;
        let j = LevelSetN::truncated_simplex(d as usize, floor, tau);
        let c = gcp_coefficients_nd(&j);
        // Central (non-corner) representatives on each diagonal.
        for q in 0..d {
            let s = tau - q; // |l|1 on this diagonal
                             // Pick l = (a, a, s − 2a) with a in the middle.
            let a = (s / 3).max(floor + 1);
            let l = vec![a, a, s - 2 * a];
            assert!(l.iter().all(|&x| x > floor), "pick interior point");
            let expect = if q % 2 == 0 { choose(d - 1, q) } else { -choose(d - 1, q) };
            assert_eq!(
                c.get(&LevelVecN::new(&l)).copied().unwrap_or(0),
                expect,
                "diagonal q={q} at {l:?}"
            );
        }
        // Deeper diagonals vanish.
        let deep = [3, 3, tau - 6 - 3];
        assert_eq!(c.get(&LevelVecN::new(&deep)).copied().unwrap_or(0), 0);
    }

    #[test]
    fn covering_property_holds_in_3d_and_4d() {
        for (d, floor, tau) in [(3usize, 1u32, 8u32), (4, 1, 9)] {
            let j = LevelSetN::truncated_simplex(d, floor, tau);
            let c = gcp_coefficients_nd(&j);
            assert_eq!(c.values().sum::<i64>(), 1, "d={d}");
            assert_eq!(verify_covering_nd(&c, floor), None, "d={d}");
        }
    }

    #[test]
    fn robust_3d_losses_keep_covering() {
        let d = 3;
        let floor = 1;
        let tau = 8;
        let j = LevelSetN::truncated_simplex(d, floor, tau);
        let available = j.clone();
        // Lose two top-diagonal grids.
        let lost = [LevelVecN::new(&[2, 3, 3]), LevelVecN::new(&[3, 3, 2])];
        let c = robust_coefficients_nd(&j, &lost, &available);
        assert!(!c.is_empty());
        assert_eq!(c.values().sum::<i64>(), 1);
        for l in &lost {
            assert!(!c.contains_key(l), "coefficient on lost {l:?}");
        }
        assert_eq!(verify_covering_nd(&c, floor), None);
    }

    #[test]
    fn robust_2d_agrees_with_specialized_search() {
        // The tricky 2D case (lower-diagonal + corner loss) must solve the
        // same way through the n-dimensional path.
        let floor = 4;
        let tau = 11; // the (n=7, l=4) system
        let nd = LevelSetN::truncated_simplex(2, floor, tau);
        let lost = [LevelVecN::new(&[5, 5]), LevelVecN::new(&[4, 4])];
        let c = robust_coefficients_nd(&nd, &lost, &nd.clone());
        assert!(!c.is_empty(), "the partial surgery exists");
        assert_eq!(c.values().sum::<i64>(), 1);
        assert_eq!(verify_covering_nd(&c, floor), None);
    }

    #[test]
    fn indexed_simplex_numbers_the_set_lexicographically_with_its_corners() {
        for (d, floor, tau) in [(1usize, 2u32, 5u32), (2, 3, 11), (3, 1, 8), (4, 1, 9), (3, 2, 6)] {
            // The oracle: every point of the box floor..=tau in each axis,
            // filtered by the simplex test, in lexicographic order.
            let mut oracle: Vec<Vec<u32>> = vec![vec![]];
            for _ in 0..d {
                oracle = (oracle.into_iter())
                    .flat_map(|l| (floor..=tau).map(move |v| [&l[..], &[v]].concat()))
                    .collect();
            }
            oracle.retain(|l| l.iter().sum::<u32>() <= tau);
            let set = LevelSetN::truncated_simplex(d, floor, tau);
            assert!(set.iter().map(|l| &l[..]).eq(&oracle), "d={d}");
            let indexed = IndexedDownset::truncated_simplex(d, floor, tau);
            assert_eq!(indexed.len(), oracle.len(), "d={d}");
            for (i, l) in oracle.iter().enumerate() {
                assert_eq!(indexed.level(i), &l[..]);
                assert_eq!(indexed.index_of(l), Some(i));
                for z in 0..1usize << d {
                    let corner: Vec<u32> = (0..d).map(|a| l[a] + ((z >> a) & 1) as u32).collect();
                    let want =
                        oracle.iter().position(|o| *o == corner).map_or(ABSENT, |c| c as u32);
                    assert_eq!(indexed.corners(i)[z], want);
                }
            }
            assert_eq!(indexed.index_of(&vec![floor + tau; d]), None);
        }
    }

    #[test]
    fn robust_with_every_level_usable_is_the_gcp_and_with_none_is_empty() {
        for (d, floor, tau) in [(2usize, 3u32, 11u32), (3, 1, 8), (4, 1, 9)] {
            let set = LevelSetN::truncated_simplex(d, floor, tau);
            let indexed = IndexedDownset::truncated_simplex(d, floor, tau);
            let all: BTreeMap<LevelVecN, i64> = (indexed.robust(|_| true).iter())
                .map(|(i, c)| (LevelVecN::new(indexed.level(i)), c))
                .collect();
            assert_eq!(all, gcp_coefficients_nd(&set), "d={d}");
        }
        // With nothing usable no subset qualifies, and without an
        // incumbent nothing is pruned: keep this set small.
        let small = IndexedDownset::truncated_simplex(3, 1, 4);
        assert_eq!(small.robust(|_| false).iter().count(), 0);
        let empty = IndexedDownset::new(3, std::iter::empty::<[u32; 3]>());
        assert!(empty.is_empty());
        assert_eq!(empty.robust(|_| true).iter().count(), 0);
    }

    #[test]
    fn truncated_simplex_counts() {
        // d=2, floor=1, tau=4: {(1,1),(1,2),(1,3),(2,1),(2,2),(3,1)} = 6.
        let s = LevelSetN::truncated_simplex(2, 1, 4);
        assert_eq!(s.len(), 6);
        // d=3, floor=1, tau=4: only (1,1,1), (2,1,1) perms = 1 + 3 = 4.
        let s = LevelSetN::truncated_simplex(3, 1, 4);
        assert_eq!(s.len(), 4);
        // Corner-only.
        let s = LevelSetN::truncated_simplex(3, 2, 6);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_upset_nd() {
        let mut s = LevelSetN::truncated_simplex(3, 1, 6);
        let before = s.len();
        s.remove_upset(&[2, 2, 1]);
        assert!(s.len() < before);
        assert!(!s.contains(&[2, 2, 1]));
        assert!(!s.contains(&[2, 2, 2]));
        assert!(s.contains(&[1, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn rejects_impossible_simplex() {
        let _ = LevelSetN::truncated_simplex(3, 3, 8);
    }

    #[test]
    fn try_simplex_reports_errors_instead_of_panicking() {
        assert!(LevelSetN::try_truncated_simplex(3, 3, 8).is_err());
        assert!(LevelSetN::try_truncated_simplex(0, 1, 4).is_err());
        // floor · d would overflow u32 — must be an error, not a wrap.
        assert!(LevelSetN::try_truncated_simplex(1 << 20, u32::MAX / 2, u32::MAX).is_err());
        let ok = LevelSetN::try_truncated_simplex(3, 1, 6).unwrap();
        assert_eq!(ok.len(), LevelSetN::truncated_simplex(3, 1, 6).len());
    }
}
