//! In-place gather and scatter pins. Assembling a sub-grid straight from
//! the gather's wire bytes into a caller-owned grid must equal, bit for
//! bit, the reference `assemble_grid(gather())` over decoded blocks — on
//! uneven splits, into a dirty buffer of another shape — and must refuse a
//! wrong block count or block length with the reference's own `InvalidArg`
//! text. The scatter that pushes each block's runs from the grid onto the
//! wire and lands them in the member's rows must deliver, bit for bit, what
//! the reference `scatter(split_grid())` does. And the one transport moves
//! a `Grid2` and a d = 2 `GridN` alike: the same values, the same messages,
//! the same bytes, the same virtual clock.

use ftsg_core::gather::{
    assemble_grid, binomial_combine, gather_grid_into, recv_grid_onto, scatter_grid_into,
    send_grid, split_grid, GroupBlocks, Level,
};
use ftsg_core::layout::GroupInfo;
use ftsg_core::layout_nd::GroupInfoN;
use ftsg_core::psolve::block_range;
use sparsegrid::{ComponentGrid, Grid2, GridN, LevelPair};
use ulfm_sim::{run, Report, RunConfig};

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

/// Gather every rank's `block(rank)` twice into the root's `dirty` grid —
/// once re-shaping it, once in steady state — and compare both with the
/// reference assembly of a plain gather.
fn in_place_gather_equals_reference<D>(
    world: usize,
    info: D,
    level: Level<D>,
    block: fn(usize) -> Vec<f64>,
    dirty: fn() -> D::Grid,
) where
    D: GroupBlocks + Copy + Send + Sync + 'static,
    D::Grid: PartialEq + std::fmt::Debug,
    Level<D>: Send + Sync + 'static,
{
    let report = run(RunConfig::local(world), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let root = w.rank() == 0;
        let block = block(w.rank());
        let reference = w
            .gather(ctx, 0, &block)
            .unwrap()
            .map(|blocks| assemble_grid(&level, &info, &blocks).unwrap());
        // A dirty target of another shape: every node must be overwritten
        // and nothing of the old grid may survive the re-shape.
        let mut target = root.then(dirty);
        gather_grid_into(ctx, &w, &info, &level, &block, target.as_mut()).unwrap();
        let first = target.as_ref().map(|g| bits(g.values()));
        // The steady state: the same buffer again, now without a re-shape.
        gather_grid_into(ctx, &w, &info, &level, &block, target.as_mut()).unwrap();
        assert_eq!((reference.is_some(), target.is_some()), (root, root));
        if let (Some(reference), Some(first), Some(again)) = (reference, first, target) {
            let want = bits(reference.values());
            assert_eq!(first, want, "into a re-shaped dirty buffer");
            assert_eq!(bits(again.values()), want, "into the same buffer again");
            assert_eq!(again, reference, "same level, same values");
            ctx.report_f64("checked", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("checked"), Some(1.0));
}

#[test]
fn in_place_gather_equals_assemble_of_gather_2d() {
    in_place_gather_equals_reference(WORLD, INFO2, LEVEL2, block2, || {
        Grid2::from_fn(LevelPair::new(8, 3), |_, _| f64::NAN)
    });
    let grid = assemble_grid(&LEVEL2, &INFO2, &(0..WORLD).map(block2).collect::<Vec<_>>());
    let grid = grid.unwrap();
    assert_eq!(grid.at(128, 7).to_bits(), grid.at(0, 7).to_bits(), "seam");
}

#[test]
fn in_place_gather_equals_assemble_of_gather_nd() {
    // A dirty target of another dimension.
    in_place_gather_equals_reference(INFO3.size, INFO3, LEVEL3.to_vec(), block3, || {
        GridN::from_fn(&[4, 4], |_| f64::NAN)
    });
}

#[test]
fn wrong_block_count_or_length_keeps_the_reference_error_text() {
    let report = run(RunConfig::local(WORLD), |ctx| {
        let w = ctx.initial_world().unwrap();
        let root = w.rank() == 0;
        let mut grid2 = root.then(|| Grid2::zeros(LEVEL2));
        let mut grid3 = root.then(|| GridN::zeros(&LEVEL3));
        let level3 = LEVEL3.to_vec();
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
                .map(|blocks| assemble_grid(&LEVEL2, &info2, &blocks).unwrap_err().to_string());
            let got = gather_grid_into(ctx, &w, &info2, &LEVEL2, &block2, grid2.as_mut());
            // 3D: every rank a 32-value plane pair but rank 4.
            let block3 = if w.rank() == 4 { mine3 } else { vec![1.0; 32] };
            let want3 = w
                .gather(ctx, 0, &block3)
                .unwrap()
                .map(|blocks| assemble_grid(&level3, &info3, &blocks).unwrap_err().to_string());
            let got3 = gather_grid_into(ctx, &w, &info3, &level3, &block3, grid3.as_mut());
            match (want, want3) {
                (Some(want), Some(want3)) => {
                    assert!(want.contains("assemble_grid: "), "{what}: {want}");
                    assert!(want3.contains("assemble_grid: "), "{what}: {want3}");
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
            let parts3 = root.then(|| split_grid(&grid3, &INFO3));
            let want3 = slabs.scatter(ctx, 0, parts3.as_deref()).unwrap();
            let mut got3 = vec![f64::NAN; want3.len()];
            scatter_grid_into(ctx, &slabs, &INFO3, root.then_some(&grid3), &mut got3[..]).unwrap();
            assert_eq!(bits(&got3), bits(&want3), "3D slab of rank {}", w.rank());
        }
        ctx.report_add("checked", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("checked"), Some(WORLD as f64));
}

/// Three ranks move one whole d = 2 grid of `level` through every
/// operation of the transport: rank 2's block and the others' gathered
/// into the root, the result sent to rank 2 (onto a grid at `other`),
/// scattered back, and reduced down the tree from a partial per rank.
/// Every value that lands is reported.
fn d2_transport<D>(info: D, level: Level<D>, other: Level<D>) -> Report
where
    D: GroupBlocks + Copy + Send + Sync + 'static,
    Level<D>: Send + Sync + 'static,
{
    run(RunConfig::local(3), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let (me, root) = (w.rank(), w.rank() == 0);
        let mut whole = D::Grid::zeros(&level);
        for (k, v) in whole.values_mut().iter_mut().enumerate() {
            *v = node_value(k);
        }
        whole.apply_periodic_seams();
        let block = split_grid(&whole, &info).swap_remove(me);
        let mut landed = root.then(|| D::Grid::zeros(&other));
        gather_grid_into(ctx, &w, &info, &level, &block, landed.as_mut()).unwrap();
        match (me, &landed) {
            (0, Some(grid)) => {
                ctx.report_list("gathered", grid.values());
                send_grid(ctx, &w, 2, 41, grid).unwrap();
            }
            (2, _) => {
                let mut got = D::Grid::zeros(&other);
                recv_grid_onto(ctx, &w, 0, 41, &mut got).unwrap();
                ctx.report_list("received", got.values());
            }
            _ => {}
        }
        let mut mine = vec![f64::NAN; block.len()];
        scatter_grid_into(ctx, &w, &info, landed.as_ref(), &mut mine[..]).unwrap();
        ctx.report_list(&format!("scattered{me}"), &mine);
        let scaled = whole.values().iter().map(|v| v * (me + 1) as f64).collect();
        let part = D::Grid::from_raw(&level, scaled).unwrap();
        let tree =
            binomial_combine(ctx, &w, &[0, 1, 2], 0, &level, Some(part), &mut Vec::new(), 42);
        if let Some(combined) = tree.unwrap() {
            ctx.report_list("combined", combined.values());
        }
    })
}

#[test]
fn one_transport_moves_grid2_and_gridn_alike_at_d2() {
    // Row bands of a 1 × 3 process grid are the slabs of the last axis:
    // ny = 2^3 over three ranks, 2/3/3 rows of 17 nodes.
    let blocks = GroupInfo { grid: 0, first: 0, size: 3, px: 1, py: 3 };
    let slabs = GroupInfoN { grid: 0, first: 0, size: 3 };
    let d2 = d2_transport(blocks, LevelPair::new(4, 3), LevelPair::new(1, 2));
    let nd = d2_transport(slabs, vec![4, 3], vec![1, 2]);
    d2.assert_no_app_errors();
    nd.assert_no_app_errors();
    for key in ["gathered", "received", "scattered0", "scattered1", "scattered2", "combined"] {
        let (a, b) = (d2.get_list(key).unwrap(), nd.get_list(key).unwrap());
        assert_eq!(bits(a), bits(b), "{key}");
    }
    assert_eq!(d2.get_list("gathered"), d2.get_list("received"));
    assert_eq!(d2.get_list("scattered1").unwrap().len(), 3 * 16);
    assert_eq!(d2.metrics.total_messages(), nd.metrics.total_messages());
    assert_eq!(d2.metrics.total_bytes(), nd.metrics.total_bytes());
    assert_eq!(d2.makespan.to_bits(), nd.makespan.to_bits());
}
