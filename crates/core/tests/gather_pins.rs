//! In-place gather and scatter pins. Assembling a sub-grid straight from
//! the gather's wire bytes into a caller-owned grid must equal, bit for
//! bit, the reference `assemble_grid(gather())` /
//! `assemble_grid_n(gather())` over decoded blocks — on uneven splits,
//! into a dirty buffer of another shape — and must refuse a wrong block
//! count or block length with the reference's own `InvalidArg` text. The
//! scatter that pushes each block's rows from the grid onto the wire and
//! lands them in the member's rows must deliver, bit for bit, what the
//! reference `scatter(split_grid())` / `scatter(split_grid_n())` does.

use ftsg_core::gather::{assemble_grid, gather_grid_into, scatter_grid_into, split_grid};
use ftsg_core::gather_nd::{
    assemble_grid_n, gather_grid_n_into, scatter_grid_n_into, split_grid_n,
};
use ftsg_core::layout::GroupInfo;
use ftsg_core::layout_nd::GroupInfoN;
use ftsg_core::psolve::block_range;
use sparsegrid::{Grid2, GridN, LevelPair};
use ulfm_sim::{run, RunConfig};

const WORLD: usize = 6;

/// A value with a busy mantissa, distinct per global node.
fn node_value(k: usize) -> f64 {
    f64::from_bits(0x3FF0_0000_0000_0000 | ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// nx = 2^7 over px = 3 (42/43/43 columns), ny = 2^5 over py = 2.
const LEVEL2: LevelPair = LevelPair { i: 7, j: 5 };
const INFO2: GroupInfo = GroupInfo { grid: 0, first: 0, size: WORLD, px: 3, py: 2 };

/// Group rank `local`'s block of the 2D test grid, row-major.
fn block2(local: usize) -> Vec<f64> {
    let (nxg, nyg) = (1usize << LEVEL2.i, 1usize << LEVEL2.j);
    let (x0, lnx) = block_range(nxg, INFO2.px, local % INFO2.px);
    let (y0, lny) = block_range(nyg, INFO2.py, local / INFO2.px);
    (0..lny).flat_map(|m| (0..lnx).map(move |k| node_value((y0 + m) * nxg + x0 + k))).collect()
}

/// nz = 2^3 over 3 slabs (2/3/3 planes) under a ragged 8 × 4 plane.
const LEVEL3: [u32; 3] = [3, 2, 3];
const INFO3: GroupInfoN = GroupInfoN { grid: 0, first: 0, size: 3 };

/// Group rank `local`'s slab of the 3D test grid, row-major.
fn block3(local: usize) -> Vec<f64> {
    let plane = (1usize << LEVEL3[0]) * (1usize << LEVEL3[1]);
    let (z0, lnz) = block_range(1usize << LEVEL3[2], INFO3.size, local);
    (z0 * plane..(z0 + lnz) * plane).map(node_value).collect()
}

#[test]
fn in_place_gather_equals_assemble_of_gather_2d() {
    let report = run(RunConfig::local(WORLD), |ctx| {
        let w = ctx.initial_world().unwrap();
        let root = w.rank() == 0;
        let block = block2(w.rank());
        let reference = w
            .gather(ctx, 0, &block)
            .unwrap()
            .map(|blocks| assemble_grid(LEVEL2, &INFO2, &blocks).unwrap());
        // A dirty target of another shape: every node must be overwritten
        // and nothing of the old grid may survive the re-shape.
        let mut target = root.then(|| Grid2::from_fn(LevelPair::new(8, 3), |_, _| f64::NAN));
        gather_grid_into(ctx, &w, &INFO2, LEVEL2, &block, target.as_mut()).unwrap();
        let first = target.as_ref().map(|g| (g.level(), bits(g.values())));
        // The steady state: the same buffer again, now without a re-shape.
        gather_grid_into(ctx, &w, &INFO2, LEVEL2, &block, target.as_mut()).unwrap();
        assert_eq!((reference.is_some(), target.is_some()), (root, root));
        if let (Some(reference), Some((level, first)), Some(again)) = (reference, first, target) {
            let want = bits(reference.values());
            assert_eq!(level, LEVEL2);
            assert_eq!(first, want, "into a re-shaped dirty buffer");
            assert_eq!(bits(again.values()), want, "into the same buffer again");
            assert_eq!(reference.at(128, 7).to_bits(), reference.at(0, 7).to_bits(), "seam");
            ctx.report_f64("checked", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("checked"), Some(1.0));
}

#[test]
fn in_place_gather_equals_assemble_of_gather_nd() {
    let report = run(RunConfig::local(INFO3.size), |ctx| {
        let w = ctx.initial_world().unwrap();
        let root = w.rank() == 0;
        let block = block3(w.rank());
        let reference = w
            .gather(ctx, 0, &block)
            .unwrap()
            .map(|blocks| assemble_grid_n(&LEVEL3, &INFO3, &blocks).unwrap());
        // A dirty target of another dimension.
        let mut target = root.then(|| GridN::from_fn(&[4, 4], |_| f64::NAN));
        gather_grid_n_into(ctx, &w, &INFO3, &LEVEL3, &block, target.as_mut()).unwrap();
        let first = target.as_ref().map(|g| (g.level().to_vec(), bits(g.values())));
        gather_grid_n_into(ctx, &w, &INFO3, &LEVEL3, &block, target.as_mut()).unwrap();
        assert_eq!((reference.is_some(), target.is_some()), (root, root));
        if let (Some(reference), Some((level, first)), Some(again)) = (reference, first, target) {
            let want = bits(reference.values());
            assert_eq!(level, LEVEL3);
            assert_eq!(first, want, "into a re-shaped dirty buffer");
            assert_eq!(bits(again.values()), want, "into the same buffer again");
            assert_eq!(again.shape(), reference.shape());
            ctx.report_f64("checked", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("checked"), Some(1.0));
}

#[test]
fn wrong_block_count_or_length_keeps_the_reference_error_text() {
    let report = run(RunConfig::local(WORLD), |ctx| {
        let w = ctx.initial_world().unwrap();
        let root = w.rank() == 0;
        let mut grid2 = root.then(|| Grid2::zeros(LEVEL2));
        let mut grid3 = root.then(|| GridN::zeros(&LEVEL3));
        // (what, 2D layout, the 2D block rank 4 sends, 3D layout, its 3D block)
        let short2 = {
            let mut b = block2(4);
            b.pop();
            b
        };
        let cases = [
            // Six contributions for a layout of four / of three.
            ("count", GroupInfo { size: 4, px: 2, py: 2, ..INFO2 }, block2(4), INFO3, vec![0.0; 7]),
            // Rank 4's block is one value short / rank 4's slab is ragged.
            ("length", INFO2, short2, GroupInfoN { size: WORLD, ..INFO3 }, vec![0.0; 31]),
        ];
        for (what, info2, mine2, info3, mine3) in cases {
            let block2 = if w.rank() == 4 { mine2 } else { block2(w.rank()) };
            let want = w
                .gather(ctx, 0, &block2)
                .unwrap()
                .map(|blocks| assemble_grid(LEVEL2, &info2, &blocks).unwrap_err().to_string());
            let got = gather_grid_into(ctx, &w, &info2, LEVEL2, &block2, grid2.as_mut());
            // 3D: every rank a 32-value plane pair but rank 4.
            let block3 = if w.rank() == 4 { mine3 } else { vec![1.0; 32] };
            let want3 = w
                .gather(ctx, 0, &block3)
                .unwrap()
                .map(|blocks| assemble_grid_n(&LEVEL3, &info3, &blocks).unwrap_err().to_string());
            let got3 = gather_grid_n_into(ctx, &w, &info3, &LEVEL3, &block3, grid3.as_mut());
            match (want, want3) {
                (Some(want), Some(want3)) => {
                    assert!(want.contains("assemble_grid: "), "{what}: {want}");
                    assert!(want3.contains("assemble_grid_n: "), "{what}: {want3}");
                    assert_eq!(got.unwrap_err().to_string(), want, "{what}");
                    assert_eq!(got3.unwrap_err().to_string(), want3, "{what}");
                    ctx.report_add("checked", 1.0);
                }
                // Members contributed and are done; only the root assembles.
                _ => assert!(got.is_ok() && got3.is_ok()),
            }
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("checked"), Some(2.0));
}

#[test]
fn in_place_scatter_equals_scatter_of_split() {
    // The test grids, whole: the 2D one with its seams, the 3D one too.
    let grid2 = Grid2::from_fn(LEVEL2, |x, y| node_value((y * 1e3 + x * 1e6) as usize));
    let grid3 = GridN::from_fn(&LEVEL3, |x| node_value((x[0] * 1e3 + x[1] * 1e6 + x[2]) as usize));
    let report = run(RunConfig::local(WORLD), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let root = w.rank() == 0;
        let parts2 = root.then(|| split_grid(&grid2, &INFO2));
        let want2 = w.scatter(ctx, 0, parts2.as_deref()).unwrap();
        // Into a dirty block of the right length.
        let mut got2 = vec![f64::NAN; want2.len()];
        scatter_grid_into(ctx, &w, &INFO2, root.then_some(&grid2), &mut got2[..]).unwrap();
        assert_eq!(bits(&got2), bits(&want2), "2D block of rank {}", w.rank());
        assert_eq!(got2.len(), block2(w.rank()).len());
        // 3D: the first three ranks hold the slabs.
        let slabs = w.split(ctx, Some((w.rank() < INFO3.size) as i64), w.rank() as i64).unwrap();
        let slabs = slabs.unwrap();
        if w.rank() < INFO3.size {
            let parts3 = root.then(|| split_grid_n(&grid3, &INFO3));
            let want3 = slabs.scatter(ctx, 0, parts3.as_deref()).unwrap();
            let mut got3 = vec![f64::NAN; want3.len()];
            scatter_grid_n_into(ctx, &slabs, &INFO3, root.then_some(&grid3), &mut got3[..])
                .unwrap();
            assert_eq!(bits(&got3), bits(&want3), "3D slab of rank {}", w.rank());
        }
        ctx.report_add("checked", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("checked"), Some(WORLD as f64));
}
