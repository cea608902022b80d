//! Gather–scatter between distributed slabs and whole d-dimensional
//! sub-grids — the nd sibling of [`crate::gather`], with the same one
//! in-place form per operation.
//!
//! Each group's root gathers the member slabs straight into a grid it
//! supplies ([`gather_grid_n_into`]), the roots exchange grids (for
//! combination or data recovery) as [`send_grid_n`] /
//! [`recv_grid_n_onto`], and recovered grids are scattered back with each
//! slab's rows pushed from the grid into the member's wire buffer and
//! copied from there straight into its padded field
//! ([`scatter_grid_n_into`]). [`assemble_grid_n`] and [`split_grid_n`]
//! over decoded slabs stay as the pinned references. The tree combination
//! mirrors [`crate::gather::binomial_combine`] hop for hop, including the
//! recoverable [`ulfm_sim::Error::Protocol`] surface at the final-ship
//! hop.

use sparsegrid::ndgrid::for_each_slab_row;
use sparsegrid::GridN;
use ulfm_sim::{Comm, Ctx, Error, Gathered, Result, ScatterParts};

use crate::gather::{gather_blocks, land_block, BlockRows, BlockRowsMut};
use crate::layout_nd::GroupInfoN;
use crate::psolve::block_range;

/// Assemble a full periodic grid (with its duplicated seam planes) from
/// per-member fundamental-domain slabs, ordered by group rank.
pub fn assemble_grid_n(level: &[u32], info: &GroupInfoN, blocks: &[Vec<f64>]) -> Result<GridN> {
    let d = level.len();
    let np: Vec<usize> = level.iter().map(|&l| 1usize << l).collect();
    if blocks.len() != info.size {
        return Err(Error::InvalidArg(format!(
            "assemble_grid_n: {} blocks for group of {}",
            blocks.len(),
            info.size
        )));
    }
    let plane: usize = np[..d - 1].iter().product();
    let mut grid = GridN::zeros(level);
    let stride = grid.strides().to_vec();
    for (local, block) in blocks.iter().enumerate() {
        let (z0, lnz) = block_range(np[d - 1], info.size, local);
        if block.len() != plane * lnz {
            return Err(Error::InvalidArg(format!(
                "assemble_grid_n: block {local} has {} values, expected {}",
                block.len(),
                plane * lnz
            )));
        }
        // Slab values are row-major over the fundamental domain; the grid
        // rows carry a seam node each, so the copy goes run by run.
        let values = grid.values_mut();
        let mut src = 0usize;
        for_each_slab_row(&np, &stride, 0, z0, z0 + lnz, &mut |off, n| {
            values[off..off + n].copy_from_slice(&block[src..src + n]);
            src += n;
        });
    }
    grid.apply_periodic_seams();
    Ok(grid)
}

/// [`assemble_grid_n`] from the wire bytes of a gather into a
/// caller-owned grid: `out` is re-shaped to `level` (keeping its value
/// allocation, no zero-fill) and every node is overwritten. Checks and
/// error texts are [`assemble_grid_n`]'s. On an error `out` holds a
/// partial assembly; the caller must not use it.
fn assemble_grid_n_into(
    level: &[u32],
    info: &GroupInfoN,
    blocks: &Gathered<f64>,
    out: &mut GridN,
) -> Result<()> {
    let d = level.len();
    let np: Vec<usize> = level.iter().map(|&l| 1usize << l).collect();
    if blocks.len() != info.size {
        return Err(Error::InvalidArg(format!(
            "assemble_grid_n: {} blocks for group of {}",
            blocks.len(),
            info.size
        )));
    }
    let plane: usize = np[..d - 1].iter().product();
    out.reshape(level);
    let stride = out.strides().to_vec();
    let values = out.values_mut();
    for local in 0..info.size {
        let block = blocks.part(local);
        let (z0, lnz) = block_range(np[d - 1], info.size, local);
        if block.len() != plane * lnz {
            return Err(Error::InvalidArg(format!(
                "assemble_grid_n: block {local} has {} values, expected {}",
                block.len(),
                plane * lnz
            )));
        }
        let mut src = 0usize;
        for_each_slab_row(&np, &stride, 0, z0, z0 + lnz, &mut |off, n| {
            block.copy_to(src, &mut values[off..off + n]);
            src += n;
        });
    }
    out.apply_periodic_seams();
    Ok(())
}

/// Cut a full grid into the per-member slabs of a group (inverse of
/// [`assemble_grid_n`]; the seams are dropped).
pub fn split_grid_n(grid: &GridN, info: &GroupInfoN) -> Vec<Vec<f64>> {
    let slabs = Slabs::new(grid, info);
    (0..info.size)
        .map(|local| {
            let mut block = Vec::with_capacity(slabs.part_len(local));
            slabs.put_part(local, &mut |row| block.extend_from_slice(row));
            block
        })
        .collect()
}

/// The member slabs of `grid` as the scatter root sends them: runs of the
/// grid where they lie, slab after slab in group-rank order.
struct Slabs<'a> {
    grid: &'a GridN,
    info: &'a GroupInfoN,
    /// Nodes per axis of the fundamental domain (`2^l`: the seams
    /// dropped).
    np: Vec<usize>,
}

impl<'a> Slabs<'a> {
    fn new(grid: &'a GridN, info: &'a GroupInfoN) -> Self {
        Slabs { grid, info, np: grid.level().iter().map(|&l| 1usize << l).collect() }
    }

    /// Member `local`'s planes along the last axis: `(z0, lnz)`.
    fn planes(&self, local: usize) -> (usize, usize) {
        block_range(self.np[self.np.len() - 1], self.info.size, local)
    }
}

impl ScatterParts<f64> for Slabs<'_> {
    fn parts(&self) -> usize {
        self.info.size
    }
    fn part_len(&self, local: usize) -> usize {
        let plane: usize = self.np[..self.np.len() - 1].iter().product();
        plane * self.planes(local).1
    }
    fn put_part(&self, local: usize, put: &mut dyn FnMut(&[f64])) {
        let (z0, lnz) = self.planes(local);
        let (strides, values) = (self.grid.strides(), self.grid.values());
        for_each_slab_row(&self.np, strides, 0, z0, z0 + lnz, &mut |off, n| {
            put(&values[off..off + n]);
        });
    }
}

/// Collective over the group: gather member slabs to the group root,
/// assembled in place into the root's own grid — the d-dimensional
/// [`crate::gather::gather_grid_into`], with the same contract: exactly
/// the root supplies `out`, which is re-shaped and fully overwritten.
pub fn gather_grid_n_into(
    ctx: &Ctx,
    group: &Comm,
    info: &GroupInfoN,
    level: &[u32],
    my_block: &(impl BlockRows + ?Sized),
    out: Option<&mut GridN>,
) -> Result<()> {
    if (group.rank() == 0) != out.is_some() {
        return Err(Error::InvalidArg(
            "gather_grid_n_into: exactly the group root must supply the grid".into(),
        ));
    }
    match (gather_blocks(ctx, group, my_block)?, out) {
        (Some(blocks), Some(out)) => assemble_grid_n_into(level, info, &blocks, out),
        _ => Ok(()),
    }
}

/// Collective over the group: the root scatters `grid`, which exactly it
/// supplies, and every member lands its slab straight in `my_block`'s
/// rows — the d-dimensional [`crate::gather::scatter_grid_into`], with
/// the same contract.
pub fn scatter_grid_n_into(
    ctx: &Ctx,
    group: &Comm,
    info: &GroupInfoN,
    grid: Option<&GridN>,
    my_block: &mut (impl BlockRowsMut + ?Sized),
) -> Result<()> {
    let slabs = grid.map(|grid| Slabs::new(grid, info));
    group.scatter_view_with(ctx, 0, slabs.as_ref(), |part| land_block(&part, my_block))
}

/// Send a whole grid over a communicator as two messages (level-vector
/// header + payload). The dimension travels as the header length, so the
/// pair works for any `d`. Pairs with [`recv_grid_n_onto`].
pub fn send_grid_n(ctx: &Ctx, comm: &Comm, dest: usize, tag: i32, grid: &GridN) -> Result<()> {
    let header: Vec<u64> = grid.level().iter().map(|&l| l as u64).collect();
    comm.send(ctx, dest, tag, &header)?;
    comm.send(ctx, dest, tag, grid.values())
}

/// Receive a whole grid sent by [`send_grid_n`] onto a caller-owned
/// grid, re-shaped to the sender's level with its value allocation kept
/// — the d-dimensional [`crate::gather::recv_grid_onto`], with the same
/// rule on errors: `out` is untouched but for a re-shape already done.
pub fn recv_grid_n_onto(
    ctx: &Ctx,
    comm: &Comm,
    src: usize,
    tag: i32,
    out: &mut GridN,
) -> Result<()> {
    out.reshape(&recv_grid_n_level(ctx, comm, src, tag)?);
    comm.recv_onto(ctx, src, tag, out.values_mut())
}

/// The header message of [`send_grid_n`]; its length is the dimension.
fn recv_grid_n_level(ctx: &Ctx, comm: &Comm, src: usize, tag: i32) -> Result<Vec<u32>> {
    let header: Vec<u64> = comm.recv(ctx, src, tag)?;
    if header.is_empty() {
        return Err(Error::InvalidArg("recv_grid_n: empty level header".into()));
    }
    Ok(header.iter().map(|&l| l as u32).collect())
}

/// Binomial-tree reduction of per-leader partial grids, ending at world
/// rank `root` — the d-dimensional twin of
/// [`crate::gather::binomial_combine`], with the identical pairing,
/// per-receiver addition order, and recoverable `Error::Protocol` at the
/// final-ship hop. The reduced grid is **bitwise equal** to
/// [`sparsegrid::combine_binomial_nd`] for the same ordered term list.
#[allow(clippy::too_many_arguments)]
pub fn binomial_combine_n(
    ctx: &Ctx,
    comm: &Comm,
    leaders: &[usize],
    root: usize,
    target: &[u32],
    mine: Option<GridN>,
    scratch: &mut Vec<f64>,
    tag: i32,
) -> Result<Option<GridN>> {
    let me = comm.rank();
    let my_idx = leaders.iter().position(|&r| r == me);
    debug_assert!(my_idx.is_some() || mine.is_none(), "partial only on a leader");
    let n = leaders.len();
    let mut part = mine;
    if let (Some(i), Some(grid)) = (my_idx, part.as_mut()) {
        let mut stride = 1;
        while stride < n {
            if i % (2 * stride) == stride {
                comm.isend(ctx, leaders[i - stride], tag, grid.values())?.wait(ctx)?;
                part = None;
                break;
            }
            if i % (2 * stride) == 0 && i + stride < n {
                comm.irecv_into(ctx, leaders[i + stride], tag, scratch)?.wait(ctx)?;
                let vals = grid.values_mut();
                if scratch.len() != vals.len() {
                    return Err(Error::InvalidArg(format!(
                        "tree combine: hop payload of {} values, expected {}",
                        scratch.len(),
                        vals.len()
                    )));
                }
                for (a, b) in vals.iter_mut().zip(scratch.iter()) {
                    *a += *b;
                }
                ctx.compute_cells(vals.len() as u64);
            }
            stride *= 2;
        }
    }
    if n == 0 {
        return Ok(None);
    }
    if leaders[0] == root {
        return Ok(if me == root { part } else { None });
    }
    if me == leaders[0] {
        let grid = part.take().ok_or_else(|| {
            Error::Protocol("reduction root's combined grid was consumed mid-round".into())
        })?;
        comm.isend(ctx, root, tag, grid.values())?.wait(ctx)?;
        Ok(None)
    } else if me == root {
        comm.irecv_into(ctx, leaders[0], tag, scratch)?.wait(ctx)?;
        GridN::from_raw(target, std::mem::take(scratch)).map(Some).map_err(Error::InvalidArg)
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegrid::{combine_binomial_nd, combine_onto_nd, CombinationTermN};

    fn info(size: usize) -> GroupInfoN {
        GroupInfoN { grid: 0, first: 0, size }
    }

    /// A periodic-consistent grid (seams equal node 0 of each axis).
    fn periodic_grid(level: &[u32]) -> GridN {
        let np: Vec<usize> = level.iter().map(|&l| 1usize << l).collect();
        GridN::from_fn(level, move |x| {
            let mut v = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                // Wrap the seam coordinate back to 0 so the sample is
                // exactly periodic on the nodal lattice.
                let w = if (xi - 1.0).abs() < 1e-12 { 0.0 } else { xi };
                v += (w * np[i] as f64) * (i + 1) as f64;
            }
            (v * 0.37).sin()
        })
    }

    #[test]
    fn assemble_split_roundtrip() {
        let level = [3u32, 2, 3];
        let grid = periodic_grid(&level);
        for size in [1, 2, 3, 5] {
            let g = info(size);
            let blocks = split_grid_n(&grid, &g);
            assert_eq!(blocks.len(), size);
            let back = assemble_grid_n(&level, &g, &blocks).unwrap();
            assert_eq!(back, grid, "roundtrip at {size} slabs");
        }
    }

    #[test]
    fn uneven_slabs_split_by_rows_and_roundtrip() {
        // nz = 8 over 3 ranks → 2/3/3 planes; d = 1..4 with a ragged
        // transverse shape. Every block is checked value for value
        // against a per-node read, so a misplaced row cannot hide behind
        // the symmetric round trip.
        for level in [vec![3u32], vec![2, 3], vec![3, 2, 3], vec![1, 2, 0, 3]] {
            let d = level.len();
            let grid = periodic_grid(&level);
            let g = info(3);
            let blocks = split_grid_n(&grid, &g);
            let plane: usize = level[..d - 1].iter().map(|&l| 1usize << l).product();
            assert_eq!(
                blocks.iter().map(Vec::len).collect::<Vec<_>>(),
                [2 * plane, 3 * plane, 3 * plane],
                "level {level:?}"
            );
            let np: Vec<usize> = level.iter().map(|&l| 1usize << l).collect();
            let mut idx = vec![0usize; d];
            for value in blocks.iter().flatten() {
                assert_eq!(*value, grid.at(&idx), "level {level:?} at {idx:?}");
                sparsegrid::ndgrid::advance(&mut idx, &np);
            }
            assert_eq!(assemble_grid_n(&level, &g, &blocks).unwrap(), grid, "level {level:?}");
        }
    }

    #[test]
    fn assemble_validates_shapes() {
        let level = [2u32, 2, 2];
        let g = info(2);
        assert!(assemble_grid_n(&level, &g, &[vec![0.0; 32]]).is_err()); // too few blocks
        let bad = vec![vec![0.0; 31], vec![0.0; 32]];
        assert!(assemble_grid_n(&level, &g, &bad).is_err()); // wrong block size
    }

    #[test]
    fn gather_scatter_over_runtime() {
        use ulfm_sim::{run, RunConfig};
        let level = [2u32, 2, 3];
        let grid = periodic_grid(&level);
        let report = run(RunConfig::local(4), move |ctx| {
            let w = ctx.initial_world().unwrap();
            let g = info(4);
            let block = split_grid_n(&grid, &g)[w.rank()].clone();
            let mut full = (w.rank() == 0).then(|| GridN::zeros(&[1, 1]));
            gather_grid_n_into(ctx, &w, &g, &level, &block, full.as_mut()).unwrap();
            if let Some(full) = &full {
                assert_eq!(full, &grid);
            }
            let mut mine = vec![f64::NAN; block.len()];
            scatter_grid_n_into(ctx, &w, &g, full.as_ref(), &mut mine[..]).unwrap();
            assert_eq!(mine, block);
            ctx.report_add("ok", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(4.0));
    }

    #[test]
    fn send_recv_grid_over_runtime() {
        use ulfm_sim::{run, RunConfig};
        let report = run(RunConfig::local(2), |ctx| {
            let w = ctx.initial_world().unwrap();
            if w.rank() == 0 {
                let g = GridN::from_fn(&[3, 2, 2], |x| x[0] - x[1] + 2.0 * x[2]);
                send_grid_n(ctx, &w, 1, 55, &g).unwrap();
            } else {
                // The receiver's grid takes the sender's level.
                let mut g = GridN::zeros(&[1, 1]);
                recv_grid_n_onto(ctx, &w, 0, 55, &mut g).unwrap();
                assert_eq!(g.level(), &[3, 2, 2]);
                assert!((g.eval(&[0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
                ctx.report_f64("ok", 1.0);
            }
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(1.0));
    }

    #[test]
    fn tree_combine_matches_serial_reference_bitwise() {
        use ulfm_sim::{run, RunConfig};
        const WORLD: usize = 5;
        let target = vec![2u32, 2, 2];
        let report = run(RunConfig::local(WORLD), move |ctx| {
            let w = ctx.initial_world().unwrap();
            let myval = (w.rank() + 1) as f64;
            let src = GridN::from_fn(&target, |x| myval * (1.0 + x[0] + 2.0 * x[1] - x[2]));
            let term = CombinationTermN { coeff: 1.0, grid: &src };
            let part = combine_onto_nd(&target, std::slice::from_ref(&term));
            let leaders: Vec<usize> = (0..WORLD).collect();
            let mut scratch = Vec::new();
            let combined =
                binomial_combine_n(ctx, &w, &leaders, 0, &target, Some(part), &mut scratch, 42)
                    .unwrap();
            if w.rank() == 0 {
                let srcs: Vec<GridN> = (0..WORLD)
                    .map(|r| {
                        let v = (r + 1) as f64;
                        GridN::from_fn(&target, move |x| v * (1.0 + x[0] + 2.0 * x[1] - x[2]))
                    })
                    .collect();
                let terms: Vec<CombinationTermN> =
                    srcs.iter().map(|g| CombinationTermN { coeff: 1.0, grid: g }).collect();
                let oracle = combine_binomial_nd(&target, &terms);
                assert_eq!(combined.unwrap(), oracle, "tree must match serial bitwise");
                ctx.report_add("verified", 1.0);
            } else {
                assert!(combined.is_none());
            }
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("verified"), Some(1.0));
    }
}
