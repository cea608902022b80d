//! Disjoint message-tag regions for recovery and combination traffic.
//!
//! Every recovery technique and the combination step address per-grid
//! messages as `base + grid_id`. The bases used to be hard-coded
//! constants with ad-hoc gaps — `TAG_BUDDY` (8500) and `TAG_BUDDY_HDR`
//! (8700) left only 200 slots, so a level set with ≥ 200 combining grids
//! silently collided buddy payload and header traffic. [`TagSpace`]
//! derives one uniform stride from the layout's grid count instead, so
//! every region is exactly wide enough by construction.

/// First tag of the derived regions (everything below is free for
/// fixed app tags such as [`crate::reconstruct::MERGE_TAG`]).
pub const TAG_BASE: i32 = 7000;

/// Minimum per-region width: keeps the familiar legacy tag numbers for
/// small systems and leaves slack for sweeps over nearby sizes.
pub const MIN_STRIDE: i32 = 500;

/// Base tags of the per-grid message regions, each `stride` wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagSpace {
    /// Resampling-and-Copying grid transfers.
    pub rc: i32,
    /// Buddy-checkpoint grid payloads.
    pub buddy: i32,
    /// Buddy-checkpoint `[has, step]` headers.
    pub buddy_hdr: i32,
    /// Tree-combination partial-grid hops.
    pub tree: i32,
}

impl TagSpace {
    /// The largest grid count the four regions can hold without the
    /// last region's tags (`TAG_BASE + 3·stride + grid_id`) overflowing
    /// `i32`. Truncated 3D simplices grow grid counts far beyond the 2D
    /// sweeps this module was sized for, so the bound is enforced rather
    /// than assumed: a count above it used to wrap `n_grids as i32` and
    /// silently collide regions.
    pub const MAX_GRIDS: usize = ((i32::MAX - TAG_BASE) / 4) as usize;

    /// Tag regions wide enough for `n_grids` combining grids.
    ///
    /// Panics (loudly, instead of colliding silently) if `n_grids`
    /// exceeds [`TagSpace::MAX_GRIDS`].
    pub fn for_grids(n_grids: usize) -> Self {
        assert!(
            n_grids <= Self::MAX_GRIDS,
            "{n_grids} grids exceed the i32 tag space ({} max)",
            Self::MAX_GRIDS
        );
        let stride = (n_grids as i32).max(MIN_STRIDE);
        let base = |k: i32| TAG_BASE + k * stride;
        TagSpace { rc: base(0), buddy: base(1), buddy_hdr: base(2), tree: base(3) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions(t: &TagSpace) -> [i32; 4] {
        [t.rc, t.buddy, t.buddy_hdr, t.tree]
    }

    #[test]
    fn small_systems_keep_legacy_spacing() {
        let t = TagSpace::for_grids(12);
        assert_eq!(regions(&t), [7000, 7500, 8000, 8500]);
    }

    fn assert_disjoint(t: &TagSpace, n: usize) {
        let r = regions(t);
        for (a, &base_a) in r.iter().enumerate() {
            for &base_b in r.iter().skip(a + 1) {
                let (lo_a, hi_a) = (base_a, base_a.checked_add(n as i32).unwrap());
                let (lo_b, hi_b) = (base_b, base_b.checked_add(n as i32).unwrap());
                assert!(
                    hi_a <= lo_b || hi_b <= lo_a,
                    "regions [{lo_a},{hi_a}) and [{lo_b},{hi_b}) overlap at {n} grids"
                );
            }
        }
    }

    #[test]
    fn regions_stay_disjoint_at_realistic_3d_grid_counts() {
        // Actual truncated-3D-simplex systems, not synthetic counts: the
        // chaos shape, a paper-scale system, and a deep-combination sweep
        // whose RC layout roughly doubles the top layer.
        use sparsegrid::{GridSystemN, Layout};
        for (dim, n, l) in [(3usize, 4u32, 4u32), (3, 8, 6), (3, 13, 10), (4, 9, 7)] {
            for layout in [Layout::Plain, Layout::Duplicates, Layout::ExtraLayers] {
                let sys = GridSystemN::new(dim, n, l, layout);
                let count = sys.n_grids();
                let t = TagSpace::for_grids(count);
                assert_disjoint(&t, count);
            }
        }
    }

    #[test]
    fn grid_counts_beyond_the_tag_space_fail_loudly() {
        // `n_grids as i32` used to wrap for gigantic counts and produce
        // colliding (or negative) strides; now it must panic instead.
        assert!(TagSpace::for_grids(TagSpace::MAX_GRIDS).tree > 0);
        let huge = TagSpace::MAX_GRIDS + 1;
        assert!(std::panic::catch_unwind(|| TagSpace::for_grids(huge)).is_err());
    }

    #[test]
    fn regions_stay_disjoint_for_a_thousand_grids() {
        // The regression scenario: ≥ 200 combining grids used to make
        // buddy payload tags run into the buddy header region.
        let n = 1000;
        let t = TagSpace::for_grids(n);
        let r = regions(&t);
        for (a, &base_a) in r.iter().enumerate() {
            for &base_b in r.iter().skip(a + 1) {
                let (lo_a, hi_a) = (base_a, base_a + n as i32);
                let (lo_b, hi_b) = (base_b, base_b + n as i32);
                assert!(
                    hi_a <= lo_b || hi_b <= lo_a,
                    "regions [{lo_a},{hi_a}) and [{lo_b},{hi_b}) overlap"
                );
            }
        }
    }
}
