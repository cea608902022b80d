//! Process layout: mapping world ranks to sub-grids and positions inside
//! each sub-grid's process grid.
//!
//! "The computation of solutions on different sub-grids is embarrassingly
//! parallel and each sub-grid is assigned to a different process group.
//! Each process group then uses a domain decomposition... The number of
//! unknowns on the lower diagonal sub-grids is half that of the other...
//! our load balancing strategy is to use half of the number of processes
//! on these grids" (§II-A). The scale `s` reproduces the paper's counts:
//! diagonal (and duplicate) grids get `2s` processes, lower diagonals `s`,
//! extra layers `⌈s/2⌉` and `⌈s/4⌉` — at `s = 4` that is the 8/4/2/1 of
//! the Fig. 9 caption, and the Resampling-and-Copying world size is the
//! `19s ∈ {19, 38, 76, 152, 304}` sweep of Table I.

use sparsegrid::{Grid2, GridRole, GridSystem, Layout, LevelPair};

use crate::gather::GroupBlocks;
use crate::psolve::block_range;

/// Per-sub-grid process group description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupInfo {
    /// Sub-grid ID this group solves.
    pub grid: usize,
    /// First world rank of the group.
    pub first: usize,
    /// Number of processes.
    pub size: usize,
    /// Process-grid extent along x.
    pub px: usize,
    /// Process-grid extent along y.
    pub py: usize,
}

impl GroupInfo {
    /// World rank of the group's root (local rank 0).
    pub fn root(&self) -> usize {
        self.first
    }

    /// Does this group contain the given world rank?
    pub fn contains(&self, world_rank: usize) -> bool {
        world_rank >= self.first && world_rank < self.first + self.size
    }
}

/// Member `local` (at `(local % px, local / px)` in the process grid) owns
/// a block of rows; each row of it is one run.
impl GroupBlocks for GroupInfo {
    type Grid = Grid2;
    type Shape = LevelPair;
    fn members(&self) -> usize {
        self.size
    }
    fn shape(grid: &Grid2) -> LevelPair {
        grid.level()
    }
    fn runs(&self, level: &LevelPair, local: usize, f: &mut impl FnMut(usize, usize)) {
        let (nx, ny) = (1usize << level.i, 1usize << level.j);
        let (x0, lnx) = block_range(nx, self.px, local % self.px);
        let (y0, lny) = block_range(ny, self.py, local / self.px);
        for m in y0..y0 + lny {
            f(m * (nx + 1) + x0, lnx);
        }
    }
}

/// One rank's place in the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Sub-grid ID.
    pub grid: usize,
    /// Rank within the group (0 = group root).
    pub local: usize,
    /// Position in the group's process grid, x index.
    pub pi: usize,
    /// Position in the group's process grid, y index.
    pub pj: usize,
}

/// The full world → sub-grid mapping of a run.
#[derive(Debug, Clone)]
pub struct ProcLayout {
    system: GridSystem,
    scale: usize,
    groups: Vec<GroupInfo>,
    total: usize,
}

/// Pick a process-grid factorization `px · py ≤ p` whose block aspect best
/// matches the domain aspect `nx : ny` (minimizing halo perimeter). When
/// `p` itself has no factorization fitting inside the domain (a tiny grid
/// asked to host a big group), the group shrinks to the largest process
/// count that does fit — every block must own at least one node.
fn process_grid_shape(p: usize, nx: usize, ny: usize) -> (usize, usize) {
    for q in (1..=p.min(nx * ny)).rev() {
        let mut best: Option<(usize, usize)> = None;
        let mut best_cost = f64::INFINITY;
        for px in 1..=q.min(nx) {
            if q % px != 0 {
                continue;
            }
            let py = q / px;
            if py > ny {
                continue;
            }
            // Per-block halo perimeter.
            let cost = nx as f64 / px as f64 + ny as f64 / py as f64;
            if cost < best_cost {
                best_cost = cost;
                best = Some((px, py));
            }
        }
        if let Some(shape) = best {
            return shape;
        }
    }
    (1, 1)
}

impl ProcLayout {
    /// Build the layout for a grid system at process scale `s ≥ 1`.
    pub fn new(n: u32, l: u32, layout: Layout, scale: usize) -> Self {
        assert!(scale >= 1, "scale must be ≥ 1");
        let system = GridSystem::new(n, l, layout);
        let mut groups = Vec::with_capacity(system.n_grids());
        let mut next = 0usize;
        for g in system.grids() {
            let size = match g.role {
                GridRole::Diagonal(_) | GridRole::Duplicate(_) => 2 * scale,
                GridRole::LowerDiagonal(_) => scale,
                GridRole::ExtraLayer { layer: 1, .. } => scale.div_ceil(2),
                GridRole::ExtraLayer { .. } => scale.div_ceil(4),
            };
            // Fundamental domain cells (periodic: node 2^i duplicates 0).
            let nx = 1usize << g.level.i;
            let ny = 1usize << g.level.j;
            let (px, py) = process_grid_shape(size, nx, ny);
            let size = px * py; // may shrink if the factorization was capped
            groups.push(GroupInfo { grid: g.id, first: next, size, px, py });
            next += size;
        }
        ProcLayout { system, scale, groups, total: next }
    }

    /// Total number of processes (the world size).
    pub fn world_size(&self) -> usize {
        self.total
    }

    /// The process scale `s`.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// The grid system being solved.
    pub fn system(&self) -> &GridSystem {
        &self.system
    }

    /// Group info for one sub-grid.
    pub fn group(&self, grid: usize) -> &GroupInfo {
        &self.groups[grid]
    }

    /// All groups, by grid ID.
    pub fn groups(&self) -> &[GroupInfo] {
        &self.groups
    }

    /// The assignment of a world rank.
    pub fn assignment(&self, world_rank: usize) -> Assignment {
        let g = self
            .groups
            .iter()
            .find(|g| g.contains(world_rank))
            .unwrap_or_else(|| panic!("rank {world_rank} beyond world size {}", self.total));
        let local = world_rank - g.first;
        Assignment { grid: g.grid, local, pi: local % g.px, pj: local / g.px }
    }

    /// The assignment of a world rank, or `None` beyond the layout —
    /// spare ranks under `SpareSubstitute` sit past `world_size()` and
    /// own no sub-grid.
    pub fn try_assignment(&self, world_rank: usize) -> Option<Assignment> {
        if world_rank < self.total {
            Some(self.assignment(world_rank))
        } else {
            None
        }
    }

    /// Which sub-grid a world rank works on.
    pub fn grid_of(&self, world_rank: usize) -> usize {
        self.assignment(world_rank).grid
    }

    /// World rank of a sub-grid's group root.
    pub fn root_of(&self, grid: usize) -> usize {
        self.groups[grid].root()
    }

    /// Map a set of failed world ranks to the set of broken sub-grids.
    pub fn broken_grids(&self, failed_ranks: &[usize]) -> Vec<usize> {
        let mut grids: Vec<usize> = failed_ranks.iter().map(|&r| self.grid_of(r)).collect();
        grids.sort_unstable();
        grids.dedup();
        grids
    }

    /// The shrink-and-redistribute re-layout: given the cumulative dead
    /// set (original numbering), the surviving world is the original
    /// ranks minus the dead, in ascending order — `members[i]` is the
    /// original rank of post-shrink world rank `i` (ULFM's
    /// `MPI_Comm_shrink` preserves relative rank order, so this *is* the
    /// compaction the runtime performs). A pure function of the dead set
    /// alone: the chaos O7 oracle and the determinism proptest both
    /// recompute it independently of the run.
    pub fn shrink_members(total: usize, dead: &[usize]) -> Vec<usize> {
        (0..total).filter(|r| !dead.contains(r)).collect()
    }

    /// The grids dropped by shrink-and-redistribute for a cumulative dead
    /// set: every grid that lost at least one member. Survivors of a
    /// dropped grid keep their ranks but sit out stepping and the final
    /// combination (their group communicator died with the grid).
    pub fn dropped_grids(&self, dead: &[usize]) -> Vec<usize> {
        self.broken_grids(dead)
    }

    /// World ranks whose failure would violate the Resampling-and-Copying
    /// constraint *given* ranks already chosen (used by experiment
    /// drivers to build admissible failure plans): no two conflicting
    /// grids may fail together.
    pub fn rc_forbidden_ranks(&self, already_failed: &[usize]) -> Vec<usize> {
        let broken = self.broken_grids(already_failed);
        let mut forbidden = Vec::new();
        for (a, b) in self.system.rc_conflicts() {
            for (hit, partner) in [(a, b), (b, a)] {
                if broken.contains(&hit) {
                    let g = self.group(partner);
                    forbidden.extend(g.first..g.first + g.size);
                }
            }
        }
        forbidden.sort_unstable();
        forbidden.dedup();
        forbidden
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::config::Technique;

    #[test]
    fn paper_world_sizes_for_rc_sweep() {
        // RC with l = 4: world = 19 s → the Table I core counts.
        for (s, expect) in [(1, 19), (2, 38), (4, 76), (8, 152), (16, 304)] {
            let lay = ProcLayout::new(13, 4, Technique::ResamplingCopying.layout(), s);
            assert_eq!(lay.world_size(), expect, "scale {s}");
        }
    }

    #[test]
    fn paper_world_sizes_at_scale_4() {
        // Fig. 9 caption: 8/4/2/1 procs per diagonal/lower/upper-extra/
        // lower-extra grid → P_c = 44, P_r = 76, P_a = 49.
        let pc = ProcLayout::new(13, 4, Technique::CheckpointRestart.layout(), 4);
        let pr = ProcLayout::new(13, 4, Technique::ResamplingCopying.layout(), 4);
        let pa = ProcLayout::new(13, 4, Technique::AlternateCombination.layout(), 4);
        assert_eq!(pc.world_size(), 44);
        assert_eq!(pr.world_size(), 76);
        assert_eq!(pa.world_size(), 49);
    }

    #[test]
    fn group_sizes_follow_load_balancing() {
        let lay = ProcLayout::new(13, 4, Technique::AlternateCombination.layout(), 4);
        for g in lay.system().grids() {
            let info = lay.group(g.id);
            let expect = match g.role {
                GridRole::Diagonal(_) | GridRole::Duplicate(_) => 8,
                GridRole::LowerDiagonal(_) => 4,
                GridRole::ExtraLayer { layer: 1, .. } => 2,
                GridRole::ExtraLayer { .. } => 1,
            };
            assert_eq!(info.size, expect, "grid {}", g.id);
        }
    }

    #[test]
    fn groups_partition_the_world() {
        let lay = ProcLayout::new(9, 4, Technique::ResamplingCopying.layout(), 2);
        let mut covered = vec![false; lay.world_size()];
        for g in lay.groups() {
            for r in g.first..g.first + g.size {
                assert!(!covered[r], "rank {r} in two groups");
                covered[r] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn assignment_roundtrip() {
        let lay = ProcLayout::new(9, 4, Technique::AlternateCombination.layout(), 4);
        for r in 0..lay.world_size() {
            let a = lay.assignment(r);
            let g = lay.group(a.grid);
            assert_eq!(g.first + a.local, r);
            assert_eq!(a.pj * g.px + a.pi, a.local);
            assert!(a.pi < g.px && a.pj < g.py);
        }
        assert_eq!(lay.root_of(0), 0);
    }

    #[test]
    fn process_grid_shapes_match_domain_aspect() {
        // 8 procs on a 2^10 × 2^13 domain → 1 × 8 or 2 × 4? Perimeter
        // cost: 1×8: 1024+1024=2048; 2×4: 512+2048=2560 → 1×8.
        assert_eq!(process_grid_shape(8, 1 << 10, 1 << 13), (1, 8));
        // Square domain prefers square-ish factorization.
        assert_eq!(process_grid_shape(4, 256, 256), (2, 2));
        assert_eq!(process_grid_shape(1, 8, 8), (1, 1));
        // Never exceeds the domain.
        let (px, py) = process_grid_shape(16, 4, 1024);
        assert!(px <= 4);
        assert_eq!(px * py, 16);
    }

    #[test]
    fn broken_grid_mapping() {
        let lay = ProcLayout::new(13, 4, Technique::ResamplingCopying.layout(), 1);
        // Groups: 0..2 (diag0), 2..4 (diag1), ..., lower diags of size 1...
        let g1 = lay.group(1);
        let g4 = lay.group(4);
        let broken = lay.broken_grids(&[g1.first, g1.first + 1, g4.first]);
        assert_eq!(broken, vec![1, 4]);
    }

    #[test]
    fn rc_forbidden_ranks_cover_partners() {
        let lay = ProcLayout::new(13, 4, Technique::ResamplingCopying.layout(), 1);
        // Grid 1 failed → its partners grid 4 (resample target) and grid 8
        // (duplicate) become forbidden.
        let g1 = lay.group(1);
        let forbidden = lay.rc_forbidden_ranks(&[g1.first]);
        let g4 = lay.group(4);
        let g8 = lay.group(8);
        for r in g4.first..g4.first + g4.size {
            assert!(forbidden.contains(&r));
        }
        for r in g8.first..g8.first + g8.size {
            assert!(forbidden.contains(&r));
        }
        // Unrelated grid 2's ranks are not forbidden.
        let g2 = lay.group(2);
        assert!(!forbidden.contains(&g2.first));
    }

    #[test]
    fn scale_one_extra_layers_get_one_proc() {
        let lay = ProcLayout::new(13, 4, Technique::AlternateCombination.layout(), 1);
        for g in lay.system().grids() {
            if matches!(g.role, GridRole::ExtraLayer { .. }) {
                assert_eq!(lay.group(g.id).size, 1);
            }
        }
    }
}
