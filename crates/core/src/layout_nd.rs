//! Process layout for d-dimensional grid systems.
//!
//! The d-dimensional sibling of [`crate::layout`]. Each sub-grid's group
//! uses a **slab decomposition along the last axis** instead of the 2D
//! process grid: slabs are contiguous runs of hyperplanes, so every halo
//! message is one contiguous plane of `∏_{i<d-1} 2^{l_i}` values and the
//! exchange protocol stays a two-neighbour ring regardless of dimension.
//!
//! Load balancing follows the paper's §II-A rule generalized by layer
//! depth: the top combining layer (the 2D "diagonal") gets `2s`
//! processes, each layer below it half as many (floor 1), duplicates
//! mirror the top layer, and the extra layers get `⌈s/2⌉` and `⌈s/4⌉` —
//! at d = 2 these are exactly the 2D sizes. A group can never have more
//! slabs than its grid has fundamental planes along the last axis, so
//! small grids shrink their groups rather than own empty slabs.

use sparsegrid::ndgrid::for_each_slab_row;
use sparsegrid::{GridN, GridRoleN, GridSystemN, Layout};

use crate::gather::GroupBlocks;
use crate::psolve::block_range;

/// Per-sub-grid process group description (slab decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupInfoN {
    /// Sub-grid ID this group solves.
    pub grid: usize,
    /// First world rank of the group.
    pub first: usize,
    /// Number of processes = number of slabs along the last axis.
    pub size: usize,
}

impl GroupInfoN {
    /// World rank of the group's root (local rank 0).
    pub fn root(&self) -> usize {
        self.first
    }

    /// Does this group contain the given world rank?
    pub fn contains(&self, world_rank: usize) -> bool {
        world_rank >= self.first && world_rank < self.first + self.size
    }
}

/// Member `local` owns a slab of last-axis planes; each axis-0 row of it
/// is one run.
impl GroupBlocks for GroupInfoN {
    type Grid = GridN;
    /// The fundamental domain's nodes per axis (`2^l`: seams dropped),
    /// then the grid's strides.
    type Shape = Vec<usize>;
    fn members(&self) -> usize {
        self.size
    }
    fn shape(grid: &GridN) -> Vec<usize> {
        grid.shape().iter().map(|&n| n - 1).chain(grid.strides().iter().copied()).collect()
    }
    fn runs(&self, shape: &Vec<usize>, local: usize, f: &mut impl FnMut(usize, usize)) {
        let (np, strides) = shape.split_at(shape.len() / 2);
        let (z0, lnz) = block_range(np[np.len() - 1], self.size, local);
        for_each_slab_row(np, strides, 0, z0, z0 + lnz, f);
    }
}

/// One rank's place in the layout: its sub-grid and slab index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentN {
    /// Sub-grid ID.
    pub grid: usize,
    /// Rank within the group = slab index along the last axis.
    pub local: usize,
}

/// The full world → sub-grid mapping of a d-dimensional run.
#[derive(Debug, Clone)]
pub struct ProcLayoutN {
    system: GridSystemN,
    scale: usize,
    groups: Vec<GroupInfoN>,
    total: usize,
}

impl ProcLayoutN {
    /// Build the layout for a d-dimensional grid system at scale `s ≥ 1`.
    pub fn new(dim: usize, n: u32, l: u32, layout: Layout, scale: usize) -> Self {
        assert!(scale >= 1, "scale must be ≥ 1");
        let system = GridSystemN::new(dim, n, l, layout);
        let mut groups = Vec::with_capacity(system.n_grids());
        let mut next = 0usize;
        for g in system.grids() {
            let size = match g.role {
                GridRoleN::Combining { q, .. } => ((2 * scale) >> q).max(1),
                GridRoleN::Duplicate(_) => 2 * scale,
                GridRoleN::ExtraLayer { t: 1, .. } => scale.div_ceil(2),
                GridRoleN::ExtraLayer { .. } => scale.div_ceil(4),
            };
            // Fundamental planes along the last axis (periodic: plane 2^l
            // duplicates 0); a slab must own at least one plane.
            let planes = 1usize << *g.level.last().expect("non-empty level vector");
            let size = size.min(planes);
            groups.push(GroupInfoN { grid: g.id, first: next, size });
            next += size;
        }
        ProcLayoutN { system, scale, groups, total: next }
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
    pub fn system(&self) -> &GridSystemN {
        &self.system
    }

    /// Group info for one sub-grid.
    pub fn group(&self, grid: usize) -> &GroupInfoN {
        &self.groups[grid]
    }

    /// All groups, by grid ID.
    pub fn groups(&self) -> &[GroupInfoN] {
        &self.groups
    }

    /// The assignment of a world rank.
    pub fn assignment(&self, world_rank: usize) -> AssignmentN {
        let g = self
            .groups
            .iter()
            .find(|g| g.contains(world_rank))
            .unwrap_or_else(|| panic!("rank {world_rank} beyond world size {}", self.total));
        AssignmentN { grid: g.grid, local: world_rank - g.first }
    }

    /// The assignment of a world rank, or `None` beyond the layout —
    /// spare ranks under `SpareSubstitute` sit past `world_size()` and
    /// own no sub-grid.
    pub fn try_assignment(&self, world_rank: usize) -> Option<AssignmentN> {
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

    /// The shrink-and-redistribute re-layout (identical semantics to the
    /// 2D [`crate::layout::ProcLayout::shrink_members`]).
    pub fn shrink_members(total: usize, dead: &[usize]) -> Vec<usize> {
        (0..total).filter(|r| !dead.contains(r)).collect()
    }

    /// The grids dropped by shrink-and-redistribute for a cumulative dead
    /// set: every grid that lost at least one member.
    pub fn dropped_grids(&self, dead: &[usize]) -> Vec<usize> {
        self.broken_grids(dead)
    }

    /// World ranks whose failure would violate the Resampling-and-Copying
    /// constraint *given* ranks already chosen: no two conflicting grids
    /// may fail together.
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
mod tests {
    use super::*;

    /// The 3D chaos shape: d=3, n=4, l=4 → m=1, τ=6; combining layers
    /// |l| ∈ {6,5,4} hold 10 + 6 + 3 = 19 grids.
    fn chaos_layout(layout: Layout, scale: usize) -> ProcLayoutN {
        ProcLayoutN::new(3, 4, 4, layout, scale)
    }

    #[test]
    fn group_sizes_follow_layered_balancing() {
        let lay = chaos_layout(Layout::Plain, 4);
        for g in lay.system().grids() {
            let planes = 1usize << *g.level.last().unwrap();
            let want = match g.role {
                GridRoleN::Combining { q, .. } => (8usize >> q).max(1),
                GridRoleN::Duplicate(_) => 8,
                GridRoleN::ExtraLayer { t: 1, .. } => 2,
                GridRoleN::ExtraLayer { .. } => 1,
            }
            .min(planes);
            assert_eq!(lay.group(g.id).size, want, "grid {} level {:?}", g.id, g.level);
        }
    }

    #[test]
    fn slabs_never_outnumber_planes() {
        for layout in [Layout::Plain, Layout::Duplicates, Layout::ExtraLayers] {
            for scale in [1, 4, 16] {
                let lay = chaos_layout(layout, scale);
                for g in lay.system().grids() {
                    let planes = 1usize << *g.level.last().unwrap();
                    assert!(lay.group(g.id).size <= planes, "grid {:?}", g.level);
                    assert!(lay.group(g.id).size >= 1);
                }
            }
        }
    }

    #[test]
    fn groups_partition_the_world() {
        let lay = chaos_layout(Layout::Duplicates, 2);
        let mut covered = vec![false; lay.world_size()];
        for g in lay.groups() {
            for (r, c) in covered.iter_mut().enumerate().skip(g.first).take(g.size) {
                assert!(!*c, "rank {r} in two groups");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn assignment_roundtrip() {
        let lay = chaos_layout(Layout::ExtraLayers, 2);
        for r in 0..lay.world_size() {
            let a = lay.assignment(r);
            let g = lay.group(a.grid);
            assert_eq!(g.first + a.local, r);
            assert!(a.local < g.size);
        }
        assert_eq!(lay.root_of(0), 0);
        assert!(lay.try_assignment(lay.world_size()).is_none());
    }

    #[test]
    fn chaos_shape_world_size_at_scale_one() {
        // Combining sizes at s=1: q=0 → 2 (capped by planes where the
        // last level is 1), q=1 → 1, q=2 → 1.
        let lay = chaos_layout(Layout::Plain, 1);
        let total: usize = lay.groups().iter().map(|g| g.size).sum();
        assert_eq!(lay.world_size(), total);
        assert_eq!(lay.system().n_grids(), 19);
        // Small enough for a simulator world, big enough to be a real run.
        assert!(lay.world_size() >= 19 && lay.world_size() <= 40, "{}", lay.world_size());
    }

    #[test]
    fn broken_grid_mapping_and_shrink_members() {
        let lay = chaos_layout(Layout::Plain, 1);
        let g1 = *lay.group(1);
        let g4 = *lay.group(4);
        let broken = lay.broken_grids(&[g1.first, g1.first + g1.size - 1, g4.first]);
        assert_eq!(broken, vec![1, 4]);
        let members = ProcLayoutN::shrink_members(6, &[2, 4]);
        assert_eq!(members, vec![0, 1, 3, 5]);
    }

    #[test]
    fn rc_forbidden_ranks_cover_partners() {
        let lay = chaos_layout(Layout::Duplicates, 1);
        let sys = lay.system();
        // Find a top-layer grid with a duplicate partner.
        let (a, b) = sys.rc_conflicts()[0];
        let forbidden = lay.rc_forbidden_ranks(&[lay.group(a).first]);
        let gb = lay.group(b);
        for r in gb.first..gb.first + gb.size {
            assert!(forbidden.contains(&r), "partner rank {r} must be forbidden");
        }
    }
}
