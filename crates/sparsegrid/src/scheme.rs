//! The paper's grid system (its Fig. 1): diagonal and lower-diagonal
//! combination grids plus the per-technique redundancy — duplicates for
//! *Resampling and Copying*, two extra layers for *Alternate Combination*.
//!
//! For full grid size `n` and level `l` (the paper uses `n = 13`, `l = 4`),
//! with `m = n − l + 1` and `τ = 2n − l + 1`:
//!
//! * **diagonal** grids (IDs `0..l`): `(m+k, n−k)`, `i+j = τ` — the `+1`
//!   terms of Eq. 1;
//! * **lower diagonal** grids (IDs `l..2l−1`): `(m+k, n−1−k)`, `i+j = τ−1`
//!   — the `−1` terms;
//! * **duplicates** (RC layout, IDs `2l−1..3l−1`): copies of the diagonal
//!   grids (the paper's IDs 7–10);
//! * **extra layers** (AC layout): layer `t ∈ {1, 2}` holds grids
//!   `(m+k, n−1−t−k)` with `i+j = τ−1−t` (the paper's IDs 11–13).

use crate::coeffs::LevelSet;
use crate::level::LevelPair;
use crate::ndim::{IndexedDownset, TruncatedSimplex};

/// Which redundancy a grid system carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Combination grids only (IDs 0..2l−1) — the Checkpoint/Restart
    /// configuration (paper grids 0–6).
    Plain,
    /// Plus one duplicate of every diagonal grid — the Resampling and
    /// Copying configuration (paper grids 0–10).
    Duplicates,
    /// Plus two extra layers of coarser grids — the Alternate Combination
    /// configuration (paper grids 0–6 and 11–13).
    ExtraLayers,
}

/// The role a sub-grid plays in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridRole {
    /// k-th grid of the top diagonal (`i + j = τ`), coefficient +1.
    Diagonal(usize),
    /// k-th grid of the lower diagonal (`i + j = τ − 1`), coefficient −1.
    LowerDiagonal(usize),
    /// Redundant copy of diagonal grid k (Resampling and Copying).
    Duplicate(usize),
    /// k-th grid of extra layer `layer ∈ {1, 2}` (`i + j = τ − 1 − layer`),
    /// coefficient 0 in the classical combination.
    ExtraLayer {
        /// Which extra layer (1 = directly below the lower diagonal).
        layer: usize,
        /// Position along the layer.
        k: usize,
    },
}

/// One sub-grid of the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubGrid {
    /// Stable ID, numbered as in the paper's Fig. 1.
    pub id: usize,
    /// Anisotropy level.
    pub level: LevelPair,
    /// Role in the combination.
    pub role: GridRole,
}

/// How a lost grid is recovered under Resampling and Copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcSource {
    /// Exact copy from the grid with the same level (duplicate ↔ original).
    Copy(usize),
    /// Down-sample (exact injection) from a finer diagonal grid.
    Resample(usize),
}

/// The complete grid system of one run.
#[derive(Debug, Clone)]
pub struct GridSystem {
    n: u32,
    l: u32,
    layout: Layout,
    grids: Vec<SubGrid>,
}

impl GridSystem {
    /// Build the system for full grid size `n`, level `l` and a layout.
    ///
    /// Panics unless `2 ≤ l ≤ n` (the paper uses `l ≥ 4`, which guarantees
    /// both extra layers are non-empty).
    pub fn new(n: u32, l: u32, layout: Layout) -> Self {
        assert!(l >= 2, "combination level must be ≥ 2, got {l}");
        assert!(n >= l, "full grid size n={n} must be ≥ level l={l}");
        let m = n - l + 1;
        let redundant = match layout {
            Layout::Plain => 0,
            Layout::Duplicates => l,
            Layout::ExtraLayers => l - 2 + l.saturating_sub(3),
        };
        let mut grids = Vec::with_capacity((2 * l - 1 + redundant) as usize);
        for k in 0..l as usize {
            grids.push(SubGrid {
                id: grids.len(),
                level: LevelPair::new(m + k as u32, n - k as u32),
                role: GridRole::Diagonal(k),
            });
        }
        for k in 0..(l - 1) as usize {
            grids.push(SubGrid {
                id: grids.len(),
                level: LevelPair::new(m + k as u32, n - 1 - k as u32),
                role: GridRole::LowerDiagonal(k),
            });
        }
        match layout {
            Layout::Plain => {}
            Layout::Duplicates => {
                for k in 0..l as usize {
                    grids.push(SubGrid {
                        id: grids.len(),
                        level: LevelPair::new(m + k as u32, n - k as u32),
                        role: GridRole::Duplicate(k),
                    });
                }
            }
            Layout::ExtraLayers => {
                for layer in 1..=2usize {
                    let count = l as i64 - 1 - layer as i64;
                    for k in 0..count.max(0) as usize {
                        grids.push(SubGrid {
                            id: grids.len(),
                            level: LevelPair::new(m + k as u32, n - 1 - layer as u32 - k as u32),
                            role: GridRole::ExtraLayer { layer, k },
                        });
                    }
                }
            }
        }
        GridSystem { n, l, layout, grids }
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

    /// Minimum (truncation) level `m = n − l + 1`.
    pub fn min_level(&self) -> LevelPair {
        let m = self.n - self.l + 1;
        LevelPair::new(m, m)
    }

    /// The diagonal sum `τ = 2n − l + 1`.
    pub fn tau(&self) -> u32 {
        2 * self.n - self.l + 1
    }

    /// All sub-grids, by ID.
    pub fn grids(&self) -> &[SubGrid] {
        &self.grids
    }

    /// Number of sub-grids.
    pub fn n_grids(&self) -> usize {
        self.grids.len()
    }

    /// One sub-grid by ID.
    pub fn grid(&self, id: usize) -> &SubGrid {
        &self.grids[id]
    }

    /// Classical (Eq. 1) combination coefficient of a grid: +1 on the
    /// diagonal, −1 on the lower diagonal, 0 for redundancy grids.
    pub fn classical_coefficient(&self, id: usize) -> i32 {
        match self.grids[id].role {
            GridRole::Diagonal(_) => 1,
            GridRole::LowerDiagonal(_) => -1,
            GridRole::Duplicate(_) | GridRole::ExtraLayer { .. } => 0,
        }
    }

    /// The triangular downset `J = {(i,j) : m ≤ i,j ≤ n, i+j ≤ τ}` behind
    /// the classical coefficients, a truncated simplex: `i ≤ n` follows
    /// from `j ≥ m` and `i + j ≤ τ`.
    pub fn classical_downset(&self) -> LevelSet {
        let simplex = TruncatedSimplex::new(2, self.n - self.l + 1, self.tau()).expect("2m ≤ τ");
        simplex.levels().map(|l| LevelPair::new(l[0], l[1])).collect()
    }

    /// The same downset, numbered for the robust search.
    pub fn indexed_downset(&self) -> IndexedDownset {
        IndexedDownset::truncated_simplex(2, self.n - self.l + 1, self.tau())
    }

    /// Levels for which solution data exists (one entry per distinct level:
    /// duplicates share their original's level).
    pub fn available_levels(&self) -> LevelSet {
        self.grids.iter().map(|g| g.level).collect()
    }

    /// IDs of grids that participate in the classical combination
    /// (diagonal + lower diagonal).
    pub fn combination_ids(&self) -> Vec<usize> {
        self.grids.iter().filter(|g| self.classical_coefficient(g.id) != 0).map(|g| g.id).collect()
    }

    /// The ID of the grid holding a given role, if present.
    pub fn id_of_role(&self, role: GridRole) -> Option<usize> {
        self.grids.iter().find(|g| g.role == role).map(|g| g.id)
    }

    /// The ID of a combining grid at a given level (diagonal/lower only).
    pub fn combining_id_at(&self, level: LevelPair) -> Option<usize> {
        self.grids
            .iter()
            .find(|g| g.level == level && self.classical_coefficient(g.id) != 0)
            .map(|g| g.id)
    }

    /// Under Resampling and Copying: where grid `id`'s data is recovered
    /// from (paper: 0↔7, 1↔8, 2↔9, 3↔10 by copy; 4←1, 5←2, 6←3 by
    /// resampling). `None` if the layout has no source (e.g. lower
    /// diagonals in the Plain layout, or extra-layer grids).
    pub fn rc_source(&self, id: usize) -> Option<RcSource> {
        match self.grids[id].role {
            GridRole::Diagonal(k) => self.id_of_role(GridRole::Duplicate(k)).map(RcSource::Copy),
            GridRole::Duplicate(k) => self.id_of_role(GridRole::Diagonal(k)).map(RcSource::Copy),
            GridRole::LowerDiagonal(k) => {
                // (m+k, n−1−k) is a restriction of diagonal k+1 = (m+k+1, n−1−k)?
                // No: of the diagonal with the same j, i.e. Diagonal(k+1) has
                // level (m+k+1, n−k−1) — same j, finer i. Exact injection.
                self.id_of_role(GridRole::Diagonal(k + 1)).map(RcSource::Resample)
            }
            GridRole::ExtraLayer { .. } => None,
        }
    }

    /// Total number of solution unknowns across all sub-grids (counting
    /// each grid's full `(2^i+1)(2^j+1)` nodes — the memory footprint of
    /// the system; duplicates and extra layers included).
    pub fn total_unknowns(&self) -> usize {
        self.grids.iter().map(|g| g.level.points()).sum()
    }

    /// Unknowns of the equivalent *full* isotropic grid `(2^n+1)²` — the
    /// grid the combination technique avoids solving on.
    pub fn full_grid_unknowns(&self) -> usize {
        LevelPair::new(self.n, self.n).points()
    }

    /// Pairs of grids that must not fail simultaneously under Resampling
    /// and Copying (the paper's constraint list: 3&6, 2&5, 1&4, 0&7, 1&8,
    /// 2&9, 3&10).
    pub fn rc_conflicts(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for g in &self.grids {
            if let Some(RcSource::Copy(src) | RcSource::Resample(src)) = self.rc_source(g.id) {
                let pair = (g.id.min(src), g.id.max(src));
                if !out.contains(&pair) {
                    out.push(pair);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(i: u32, j: u32) -> LevelPair {
        LevelPair::new(i, j)
    }

    #[test]
    fn paper_fig1_layout_n13_l4() {
        let sys = GridSystem::new(13, 4, Layout::Duplicates);
        assert_eq!(sys.n_grids(), 11); // 0–10
        assert_eq!(sys.grid(0).level, lv(10, 13));
        assert_eq!(sys.grid(3).level, lv(13, 10));
        assert_eq!(sys.grid(4).level, lv(10, 12));
        assert_eq!(sys.grid(6).level, lv(12, 10));
        assert_eq!(sys.grid(7).level, lv(10, 13)); // duplicate of 0
        assert_eq!(sys.grid(10).level, lv(13, 10)); // duplicate of 3
        assert_eq!(sys.tau(), 23);
        assert_eq!(sys.min_level(), lv(10, 10));
    }

    #[test]
    fn paper_fig1_extra_layers() {
        let sys = GridSystem::new(13, 4, Layout::ExtraLayers);
        assert_eq!(sys.n_grids(), 10); // 0–6 plus 11–13 renumbered 7–9
        let extras: Vec<_> = sys
            .grids()
            .iter()
            .filter(|g| matches!(g.role, GridRole::ExtraLayer { .. }))
            .map(|g| g.level)
            .collect();
        assert_eq!(extras, vec![lv(10, 11), lv(11, 10), lv(10, 10)]);
    }

    #[test]
    fn plain_layout_is_the_checkpoint_configuration() {
        let sys = GridSystem::new(13, 4, Layout::Plain);
        assert_eq!(sys.n_grids(), 7); // 0–6
        assert_eq!(sys.combination_ids(), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn classical_coefficients_by_role() {
        let sys = GridSystem::new(9, 4, Layout::Duplicates);
        for g in sys.grids() {
            let c = sys.classical_coefficient(g.id);
            match g.role {
                GridRole::Diagonal(_) => assert_eq!(c, 1),
                GridRole::LowerDiagonal(_) => assert_eq!(c, -1),
                _ => assert_eq!(c, 0),
            }
        }
    }

    #[test]
    fn classical_downset_matches_gcp() {
        // The triangular downset's GCP coefficients are exactly the
        // classical per-grid coefficients.
        let sys = GridSystem::new(9, 4, Layout::Plain);
        let coeffs = crate::coeffs::gcp_coefficients(&sys.classical_downset());
        assert_eq!(coeffs.len(), 7);
        for g in sys.grids() {
            assert_eq!(
                coeffs.get(&g.level).copied().unwrap_or(0),
                sys.classical_coefficient(g.id),
                "grid {} at {}",
                g.id,
                g.level
            );
        }
    }

    #[test]
    fn rc_sources_match_paper_mapping() {
        let sys = GridSystem::new(13, 4, Layout::Duplicates);
        // 0 from 7, 7 from 0, ..., 4 from 1 (resample), ...
        assert_eq!(sys.rc_source(0), Some(RcSource::Copy(7)));
        assert_eq!(sys.rc_source(7), Some(RcSource::Copy(0)));
        assert_eq!(sys.rc_source(3), Some(RcSource::Copy(10)));
        assert_eq!(sys.rc_source(4), Some(RcSource::Resample(1)));
        assert_eq!(sys.rc_source(5), Some(RcSource::Resample(2)));
        assert_eq!(sys.rc_source(6), Some(RcSource::Resample(3)));
    }

    #[test]
    fn rc_resample_source_dominates_target() {
        // Resampling must be an exact injection: source level ≥ target.
        let sys = GridSystem::new(13, 4, Layout::Duplicates);
        for g in sys.grids() {
            if let Some(RcSource::Resample(src)) = sys.rc_source(g.id) {
                assert!(
                    g.level.leq(&sys.grid(src).level),
                    "grid {} {} not ≤ source {} {}",
                    g.id,
                    g.level,
                    src,
                    sys.grid(src).level
                );
            }
        }
    }

    #[test]
    fn rc_conflicts_match_paper_list() {
        let sys = GridSystem::new(13, 4, Layout::Duplicates);
        let conflicts = sys.rc_conflicts();
        // Paper: "process failures should not occur simultaneously on
        // sub-grids 3 and 6, or 2 and 5, or 1 and 4, or 0 and 7, or 1 and
        // 8, or 2 and 9, or 3 and 10".
        let expected = vec![(0, 7), (1, 4), (1, 8), (2, 5), (2, 9), (3, 6), (3, 10)];
        assert_eq!(conflicts, expected);
    }

    #[test]
    fn available_levels_include_extras_only_for_ac() {
        let plain = GridSystem::new(9, 4, Layout::Plain).available_levels();
        let ac = GridSystem::new(9, 4, Layout::ExtraLayers).available_levels();
        let m = 6;
        assert!(!plain.contains(&lv(m, m)));
        assert!(ac.contains(&lv(m, m)));
        assert_eq!(plain.len(), 7);
        assert_eq!(ac.len(), 10);
    }

    #[test]
    fn small_level_systems_degenerate_gracefully() {
        let sys = GridSystem::new(4, 2, Layout::ExtraLayers);
        // l = 2: 2 diagonal + 1 lower diagonal; layer 1 has l−2 = 0 grids.
        assert_eq!(sys.n_grids(), 3);
        let sys = GridSystem::new(5, 3, Layout::ExtraLayers);
        // l = 3: 3 + 2 + layer1 (1 grid) + layer2 (0 grids).
        assert_eq!(sys.n_grids(), 6);
    }

    #[test]
    fn unknown_counts_show_sparse_grid_savings() {
        // Savings grow with the level: the paper's shallow truncation
        // (l = 4) trims ~30 % off the full grid, while a deep combination
        // (l close to n) gives the classic orders-of-magnitude sparse-grid
        // reduction.
        let shallow = GridSystem::new(13, 4, Layout::Plain);
        assert!(shallow.full_grid_unknowns() > shallow.total_unknowns());
        let deep = GridSystem::new(13, 12, Layout::Plain);
        assert!(
            deep.full_grid_unknowns() > 100 * deep.total_unknowns(),
            "deep combination: {} vs {}",
            deep.total_unknowns(),
            deep.full_grid_unknowns()
        );
        let sys = GridSystem::new(13, 4, Layout::Plain);
        let sparse = sys.total_unknowns();
        // And redundancy costs what it should: RC roughly doubles the
        // diagonal storage.
        let rc = GridSystem::new(13, 4, Layout::Duplicates).total_unknowns();
        assert!(rc > sparse && rc < 2 * sparse + 1);
        // AC's extra layers are cheap.
        let ac = GridSystem::new(13, 4, Layout::ExtraLayers).total_unknowns();
        assert!(ac > sparse && (ac - sparse) < sparse / 2);
    }

    #[test]
    #[should_panic(expected = "must be ≥")]
    fn rejects_n_smaller_than_l() {
        let _ = GridSystem::new(3, 4, Layout::Plain);
    }
}
