//! The d-dimensional grid system — the generalization of the paper's
//! Fig. 1 layout ([`crate::scheme::GridSystem`]) to arbitrary dimension.
//!
//! For dimension `d`, full grid size `n` and level `l`, with
//! `m = n − l + 1` and `τ = n + (d−1)·m`:
//!
//! * **combining** grids: the top `d` layers of the truncated simplex
//!   `{ l : m ≤ l_i, |l|₁ ≤ τ }` — layer `q ∈ 0..d` holds every level
//!   with `|l|₁ = τ − q` and carries the classical coefficient
//!   `(−1)^q · C(d−1, q)` (for the truncated simplex, membership of
//!   `a + z` depends only on `|a|₁`, so this binomial formula is exact
//!   everywhere, truncation corners included);
//! * **duplicates** (RC layout): copies of the top layer (`q = 0`) —
//!   deeper layers recover by exact injection from a finer neighbour
//!   `l + e_0`, which always sits one layer up inside the simplex;
//! * **extra layers** (AC layout): layer `t ∈ {1, 2}` holds every level
//!   with `|l|₁ = τ − d − t + 1` above the floor — coefficient 0
//!   classically, recruited by the robust coefficients after losses.
//!
//! At `d = 2` the grid IDs, levels, roles and coefficients coincide with
//! [`crate::scheme::GridSystem`] exactly (a unit test pins this), so the
//! 2D fast path remains the reference instantiation.
//!
//! Every layer is read off the one listing of the simplex,
//! [`TruncatedSimplex`]'s lexicographic odometer, filtered by `|l|₁`, and
//! every level is an inline [`LevelVecN`] (`d ≤ MAX_DIM`), so building a
//! system makes one allocator request: its grid vector, sized up front.
//! [`GridSystemN::check`] runs the constructor's checks alone and builds
//! nothing, for validating a configuration.

use crate::ndim::{IndexedDownset, LevelSetN, LevelVecN, TruncatedSimplex, MAX_DIM};
use crate::scheme::Layout;

/// The role a sub-grid plays in the d-dimensional system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridRoleN {
    /// k-th grid of combining layer `q` (`|l|₁ = τ − q`), coefficient
    /// `(−1)^q · C(d−1, q)`.
    Combining {
        /// Layer depth below the top diagonal (0-based).
        q: usize,
        /// Position along the layer (lexicographic).
        k: usize,
    },
    /// Redundant copy of top-layer grid k (Resampling and Copying).
    Duplicate(usize),
    /// k-th grid of extra layer `t ∈ {1, 2}` (`|l|₁ = τ − d − t + 1`),
    /// coefficient 0 in the classical combination.
    ExtraLayer {
        /// Which extra layer (1 = directly below the last combining layer).
        t: usize,
        /// Position along the layer.
        k: usize,
    },
}

impl GridRoleN {
    /// The same role at position `k` of its layer.
    fn at(self, k: usize) -> Self {
        match self {
            GridRoleN::Combining { q, .. } => GridRoleN::Combining { q, k },
            GridRoleN::Duplicate(_) => GridRoleN::Duplicate(k),
            GridRoleN::ExtraLayer { t, .. } => GridRoleN::ExtraLayer { t, k },
        }
    }
}

/// One sub-grid of the d-dimensional system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubGridN {
    /// Stable ID (combining grids first, layer by layer, then redundancy).
    pub id: usize,
    /// Anisotropy level vector.
    pub level: LevelVecN,
    /// Role in the combination.
    pub role: GridRoleN,
}

/// How a lost grid is recovered under Resampling and Copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcSourceN {
    /// Exact copy from the grid with the same level (duplicate ↔ original).
    Copy(usize),
    /// Down-sample (exact injection) from a finer combining grid.
    Resample(usize),
}

/// The complete d-dimensional grid system of one run.
#[derive(Debug, Clone)]
pub struct GridSystemN {
    dim: usize,
    n: u32,
    l: u32,
    layout: Layout,
    grids: Vec<SubGridN>,
}

/// Binomial coefficient `C(n, k)` in i64 (small arguments only).
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

impl GridSystemN {
    /// Build the system for dimension `dim`, full grid size `n`, level `l`
    /// and a layout. Panicking wrapper around [`GridSystemN::try_new`].
    pub fn new(dim: usize, n: u32, l: u32, layout: Layout) -> Self {
        match Self::try_new(dim, n, l, layout) {
            Ok(sys) => sys,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor — the validation boundary for user-supplied
    /// configuration: the errors of [`GridSystemN::check`].
    pub fn try_new(dim: usize, n: u32, l: u32, layout: Layout) -> Result<Self, String> {
        let simplex = Self::check(dim, n, l)?;
        let (m, tau) = (simplex.floor(), simplex.tau());
        // Each layer as (|l|₁, the role of its grids), in id order.
        let combining =
            (0..dim.min(l as usize)).map(|q| (tau - q as u32, GridRoleN::Combining { q, k: 0 }));
        let duplicates = (layout == Layout::Duplicates).then_some((tau, GridRoleN::Duplicate(0)));
        let extra = (1..=2usize).filter(|_| layout == Layout::ExtraLayers).filter_map(|t| {
            let sum = tau.checked_sub(dim as u32 + t as u32 - 1)?;
            (sum >= m * dim as u32).then_some((sum, GridRoleN::ExtraLayer { t, k: 0 }))
        });
        let layers = combining.chain(duplicates).chain(extra);
        let layer =
            |sum: u32| simplex.levels().filter(move |level| level.iter().sum::<u32>() == sum);
        let len = layers.clone().map(|(sum, _)| layer(sum).count()).sum();
        let mut grids = Vec::with_capacity(len);
        for (sum, role) in layers {
            for (k, level) in layer(sum).enumerate() {
                grids.push(SubGridN { id: grids.len(), level, role: role.at(k) });
            }
        }
        Ok(GridSystemN { dim, n, l, layout, grids })
    }

    /// The checks of [`GridSystemN::try_new`] alone, building nothing: the
    /// classical simplex of the system, or why there is none. Rejects
    /// `dim < 1`, `dim > MAX_DIM`, `l < 2`, `n < l`, and parameter
    /// combinations whose `τ = n + (d−1)m` overflows `u32`.
    pub fn check(dim: usize, n: u32, l: u32) -> Result<TruncatedSimplex, String> {
        if dim < 1 {
            return Err(format!("dimension must be ≥ 1, got {dim}"));
        }
        if dim > MAX_DIM {
            return Err(format!("dimension {dim} exceeds MAX_DIM = {MAX_DIM}"));
        }
        if l < 2 {
            return Err(format!("combination level must be ≥ 2, got {l}"));
        }
        if n < l {
            return Err(format!("full grid size n={n} must be ≥ level l={l}"));
        }
        let m = n - l + 1;
        let tau = (dim as u32 - 1)
            .checked_mul(m)
            .and_then(|v| v.checked_add(n))
            .ok_or_else(|| format!("tau overflows u32 for dim={dim}, n={n}, l={l}"))?;
        // The simplex must be constructible too (floor · d ≤ tau etc.).
        TruncatedSimplex::new(dim, m, tau)
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Full grid size `n`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Combination level `l`.
    pub fn l(&self) -> u32 {
        self.l
    }

    /// The layout this system was built with.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Minimum (truncation) level `m = n − l + 1` on every axis.
    pub fn min_level(&self) -> LevelVecN {
        LevelVecN::splat(self.n - self.l + 1, self.dim)
    }

    /// The top-layer sum `τ = n + (d−1)·m`.
    pub fn tau(&self) -> u32 {
        let m = self.n - self.l + 1;
        self.n + (self.dim as u32 - 1) * m
    }

    /// All sub-grids, by ID.
    pub fn grids(&self) -> &[SubGridN] {
        &self.grids
    }

    /// Number of sub-grids.
    pub fn n_grids(&self) -> usize {
        self.grids.len()
    }

    /// One sub-grid by ID.
    pub fn grid(&self, id: usize) -> &SubGridN {
        &self.grids[id]
    }

    /// Classical combination coefficient of a grid:
    /// `(−1)^q · C(d−1, q)` on combining layer `q`, 0 for redundancy.
    pub fn classical_coefficient(&self, id: usize) -> i64 {
        match self.grids[id].role {
            GridRoleN::Combining { q, .. } => {
                let c = choose(self.dim as u32 - 1, q as u32);
                if q % 2 == 0 {
                    c
                } else {
                    -c
                }
            }
            GridRoleN::Duplicate(_) | GridRoleN::ExtraLayer { .. } => 0,
        }
    }

    /// The truncated simplex `J = { l : m ≤ l_i, |l|₁ ≤ τ }` behind the
    /// classical coefficients.
    pub fn classical_downset(&self) -> LevelSetN {
        let m = self.n - self.l + 1;
        LevelSetN::truncated_simplex(self.dim, m, self.tau())
    }

    /// The same downset, numbered for the robust search.
    pub fn indexed_downset(&self) -> IndexedDownset {
        IndexedDownset::truncated_simplex(self.dim, self.n - self.l + 1, self.tau())
    }

    /// Levels for which solution data exists (duplicates share their
    /// original's level).
    pub fn available_levels(&self) -> LevelSetN {
        let mut set = LevelSetN::new(self.dim);
        for g in &self.grids {
            set.insert(g.level);
        }
        set
    }

    /// IDs of grids that participate in the classical combination.
    pub fn combination_ids(&self) -> Vec<usize> {
        self.grids.iter().filter(|g| self.classical_coefficient(g.id) != 0).map(|g| g.id).collect()
    }

    /// The ID of a combining grid at a given level.
    pub fn combining_id_at(&self, level: &[u32]) -> Option<usize> {
        self.grids
            .iter()
            .find(|g| *g.level == *level && self.classical_coefficient(g.id) != 0)
            .map(|g| g.id)
    }

    /// Under Resampling and Copying: where grid `id`'s data is recovered
    /// from. Top-layer grids pair with their duplicate (exact copy);
    /// deeper combining grids down-sample from the combining grid at
    /// `level + e_0`, which sits one layer up inside the simplex. `None`
    /// for layouts without a source or for extra-layer grids.
    pub fn rc_source(&self, id: usize) -> Option<RcSourceN> {
        match self.grids[id].role {
            GridRoleN::Combining { q: 0, k } => self
                .grids
                .iter()
                .find(|g| g.role == GridRoleN::Duplicate(k))
                .map(|g| RcSourceN::Copy(g.id)),
            GridRoleN::Combining { .. } => {
                let mut finer = self.grids[id].level;
                finer[0] += 1;
                self.combining_id_at(&finer).map(RcSourceN::Resample)
            }
            GridRoleN::Duplicate(k) => self
                .grids
                .iter()
                .find(|g| g.role == GridRoleN::Combining { q: 0, k })
                .map(|g| RcSourceN::Copy(g.id)),
            GridRoleN::ExtraLayer { .. } => None,
        }
    }

    /// Pairs of grids that must not fail simultaneously under Resampling
    /// and Copying (grid ↔ its recovery source).
    pub fn rc_conflicts(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for g in &self.grids {
            if let Some(RcSourceN::Copy(src) | RcSourceN::Resample(src)) = self.rc_source(g.id) {
                let pair = (g.id.min(src), g.id.max(src));
                if !out.contains(&pair) {
                    out.push(pair);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Total number of solution unknowns across all sub-grids.
    pub fn total_unknowns(&self) -> usize {
        self.grids
            .iter()
            .map(|g| g.level.iter().map(|&l| (1usize << l) + 1).product::<usize>())
            .sum()
    }

    /// Unknowns of the equivalent full isotropic grid `(2^n+1)^d`.
    pub fn full_grid_unknowns(&self) -> usize {
        ((1usize << self.n) + 1).pow(self.dim as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndim::gcp_coefficients_nd;
    use crate::scheme::GridSystem;

    #[test]
    fn d2_reproduces_the_specialized_system_exactly() {
        for layout in [Layout::Plain, Layout::Duplicates, Layout::ExtraLayers] {
            let nd = GridSystemN::new(2, 9, 4, layout);
            let d2 = GridSystem::new(9, 4, layout);
            assert_eq!(nd.n_grids(), d2.n_grids(), "{layout:?}");
            assert_eq!(nd.tau(), d2.tau());
            for g in d2.grids() {
                let ng = nd.grid(g.id);
                assert_eq!(*ng.level, [g.level.i, g.level.j], "id {}", g.id);
                assert_eq!(
                    nd.classical_coefficient(g.id),
                    d2.classical_coefficient(g.id) as i64,
                    "id {}",
                    g.id
                );
            }
            // RC sources agree too.
            for g in d2.grids() {
                use crate::scheme::RcSource;
                let want = match d2.rc_source(g.id) {
                    None => None,
                    Some(RcSource::Copy(s)) => Some(RcSourceN::Copy(s)),
                    Some(RcSource::Resample(s)) => Some(RcSourceN::Resample(s)),
                };
                assert_eq!(nd.rc_source(g.id), want, "id {}", g.id);
            }
        }
    }

    #[test]
    fn chaos_shape_3d_counts() {
        // The 3D chaos shape: d=3, n=4, l=4 → m=1, τ=6.
        let plain = GridSystemN::new(3, 4, 4, Layout::Plain);
        assert_eq!(plain.tau(), 6);
        assert_eq!(plain.n_grids(), 10 + 6 + 3);
        let rc = GridSystemN::new(3, 4, 4, Layout::Duplicates);
        assert_eq!(rc.n_grids(), 19 + 10);
        let ac = GridSystemN::new(3, 4, 4, Layout::ExtraLayers);
        assert_eq!(ac.n_grids(), 19 + 1); // one extra grid: (1,1,1)
        assert_eq!(*ac.grids().last().unwrap().level, [1, 1, 1]);
    }

    #[test]
    fn classical_coefficients_match_gcp_of_the_downset() {
        for (dim, n, l) in [(2usize, 8u32, 4u32), (3, 5, 3), (3, 4, 4), (4, 5, 4)] {
            let sys = GridSystemN::new(dim, n, l, Layout::Plain);
            let coeffs = gcp_coefficients_nd(&sys.classical_downset());
            assert_eq!(coeffs.len(), sys.n_grids(), "d={dim} n={n} l={l}");
            for g in sys.grids() {
                assert_eq!(
                    coeffs.get(&g.level).copied().unwrap_or(0),
                    sys.classical_coefficient(g.id),
                    "d={dim} grid {} at {:?}",
                    g.id,
                    g.level
                );
            }
        }
    }

    #[test]
    fn rc_resample_source_dominates_target() {
        let sys = GridSystemN::new(3, 5, 3, Layout::Duplicates);
        let mut resampled = 0;
        for g in sys.grids() {
            if let Some(RcSourceN::Resample(src)) = sys.rc_source(g.id) {
                resampled += 1;
                let s = &sys.grid(src).level;
                assert!(
                    g.level.iter().zip(s).all(|(a, b)| a <= b),
                    "grid {} {:?} not ≤ source {} {:?}",
                    g.id,
                    g.level,
                    src,
                    s
                );
            }
        }
        // Every non-top combining grid has a resample source.
        let deeper = sys
            .grids()
            .iter()
            .filter(|g| matches!(g.role, GridRoleN::Combining { q, .. } if q > 0))
            .count();
        assert_eq!(resampled, deeper);
    }

    #[test]
    fn rc_conflicts_pair_every_redundant_grid() {
        let sys = GridSystemN::new(3, 4, 4, Layout::Duplicates);
        let conflicts = sys.rc_conflicts();
        // 10 copy pairs + 9 resample pairs (layers 1 and 2).
        assert_eq!(conflicts.len(), 10 + 6 + 3);
    }

    #[test]
    fn try_new_rejects_bad_parameters() {
        assert!(GridSystemN::try_new(0, 4, 4, Layout::Plain).is_err());
        assert!(GridSystemN::try_new(3, 4, 1, Layout::Plain).is_err());
        assert!(GridSystemN::try_new(3, 3, 4, Layout::Plain).is_err());
        assert!(GridSystemN::try_new(usize::MAX, 8, 4, Layout::Plain).is_err());
        assert!(GridSystemN::try_new(MAX_DIM + 1, 4, 4, Layout::Plain).is_err());
        assert!(GridSystemN::try_new(3, u32::MAX, 4, Layout::Plain).is_err());
        assert!(GridSystemN::try_new(3, 4, 4, Layout::Plain).is_ok());
        assert_eq!(GridSystemN::new(MAX_DIM, 3, 2, Layout::ExtraLayers).dim(), MAX_DIM);
    }

    #[test]
    fn check_reports_what_try_new_reports() {
        for (dim, n, l) in [
            (0, 4, 4),
            (MAX_DIM + 1, 4, 4),
            (usize::MAX, 8, 4),
            (3, 4, 1),
            (3, 3, 4),
            (3, u32::MAX, 4),
        ] {
            let built = GridSystemN::try_new(dim, n, l, Layout::ExtraLayers).map(|_| ());
            assert_eq!(GridSystemN::check(dim, n, l).map(|_| ()), built, "d={dim} n={n} l={l}");
            assert!(built.is_err());
        }
        assert!(GridSystemN::check(3, 7, 4).is_ok());
    }

    /// The recursive listing of a layer the constructor used before it read
    /// layers off the simplex's odometer, transcribed: every level with
    /// `l_i ≥ floor` and `|l|₁ = sum`, lexicographic.
    fn recursive_layer(dim: usize, floor: u32, sum: u32) -> Vec<Vec<u32>> {
        fn rec(
            cur: &mut Vec<u32>,
            axis: usize,
            floor: u32,
            remaining: u32,
            out: &mut Vec<Vec<u32>>,
        ) {
            if axis + 1 == cur.len() {
                if remaining >= floor {
                    cur[axis] = remaining;
                    out.push(cur.clone());
                }
                return;
            }
            let rest_min = floor * (cur.len() - axis - 1) as u32;
            let mut v = floor;
            while v + rest_min <= remaining {
                cur[axis] = v;
                rec(cur, axis + 1, floor, remaining - v, out);
                v += 1;
            }
        }
        let mut out = Vec::new();
        if sum >= floor * dim as u32 {
            rec(&mut vec![floor; dim], 0, floor, sum, &mut out);
        }
        out
    }

    /// `(id, level, role)` of every grid as the recursive constructor built
    /// them.
    fn recursive_system(
        dim: usize,
        n: u32,
        l: u32,
        layout: Layout,
    ) -> Vec<(usize, Vec<u32>, GridRoleN)> {
        let m = n - l + 1;
        let tau = n + (dim as u32 - 1) * m;
        let mut grids = Vec::new();
        let mut push = |levels: Vec<Vec<u32>>, role: &dyn Fn(usize) -> GridRoleN| {
            for (k, level) in levels.into_iter().enumerate() {
                grids.push((grids.len(), level, role(k)));
            }
        };
        for q in 0..dim.min(l as usize) {
            push(recursive_layer(dim, m, tau - q as u32), &|k| GridRoleN::Combining { q, k });
        }
        match layout {
            Layout::Plain => {}
            Layout::Duplicates => push(recursive_layer(dim, m, tau), &GridRoleN::Duplicate),
            Layout::ExtraLayers => {
                for t in 1..=2usize {
                    let sum = tau as i64 - dim as i64 - t as i64 + 1;
                    if sum >= (m as i64) * dim as i64 {
                        push(recursive_layer(dim, m, sum as u32), &|k| GridRoleN::ExtraLayer {
                            t,
                            k,
                        });
                    }
                }
            }
        }
        grids
    }

    #[test]
    fn odometer_layers_match_the_recursive_listing() {
        for dim in 1..=5 {
            for (n, l) in [(2, 2), (4, 2), (4, 4), (5, 3), (7, 4), (8, 6), (9, 9)] {
                for layout in [Layout::Plain, Layout::Duplicates, Layout::ExtraLayers] {
                    let sys = GridSystemN::new(dim, n, l, layout);
                    let got: Vec<(usize, Vec<u32>, GridRoleN)> =
                        sys.grids().iter().map(|g| (g.id, g.level.to_vec(), g.role)).collect();
                    let want = recursive_system(dim, n, l, layout);
                    assert_eq!(got, want, "d={dim} n={n} l={l} {layout:?}");
                }
            }
        }
    }

    #[test]
    fn sparse_grid_savings_in_3d() {
        let sys = GridSystemN::new(3, 8, 6, Layout::Plain);
        assert!(sys.full_grid_unknowns() > 10 * sys.total_unknowns());
    }
}
