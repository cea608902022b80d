//! Gather–scatter between distributed blocks and whole sub-grids.
//!
//! "The solutions are combined in parallel using a gather–scatter
//! approach" (§II-A): each group's root gathers the member blocks into a
//! full [`Grid2`], the roots exchange grids (for combination or data
//! recovery), and recovered grids are scattered back into member blocks.
//!
//! Every operation has one form, and it works in place:
//!
//! * the **gather** ([`gather_grid_into`]) reads each member's block from
//!   the collective's wire bytes ([`Comm::gather_view_with`]) and copies
//!   its rows straight into a grid the root supplies — in the application
//!   the rank's one landing grid ([`crate::landing`]) — so a gathered
//!   sub-grid exists once on the root, not also as a decoded `Vec` per
//!   member and a fresh grid per round;
//! * the **scatter** ([`scatter_grid_into`]) is its mirror: the root
//!   pushes the rows of each member's block from the grid straight into
//!   that member's wire buffer ([`Comm::scatter_view_with`]), and every
//!   member copies its wire rows straight into its block where it lies —
//!   a solver's padded field ([`BlockRowsMut`]);
//! * a whole grid travels as [`send_grid`] and lands on a grid the
//!   receiver already owns ([`recv_grid_onto`]).
//!
//! [`assemble_grid`] and [`split_grid`] over decoded blocks stay as the
//! references the in-place paths are pinned against.

use sparsegrid::{Grid2, LevelPair};
use ulfm_sim::{Comm, Ctx, Error, Gathered, Result, ScatterParts, WireSlice};

use crate::layout::GroupInfo;
use crate::psolve::block_range;

/// Assemble a full periodic grid (with its duplicated seam row/column)
/// from per-member fundamental-domain blocks, ordered by group rank.
pub fn assemble_grid(level: LevelPair, info: &GroupInfo, blocks: &[Vec<f64>]) -> Result<Grid2> {
    let nxg = 1usize << level.i;
    let nyg = 1usize << level.j;
    if blocks.len() != info.size {
        return Err(Error::InvalidArg(format!(
            "assemble_grid: {} blocks for group of {}",
            blocks.len(),
            info.size
        )));
    }
    let mut grid = Grid2::zeros(level);
    for (local, block) in blocks.iter().enumerate() {
        let pi = local % info.px;
        let pj = local / info.px;
        let (x0, lnx) = block_range(nxg, info.px, pi);
        let (y0, lny) = block_range(nyg, info.py, pj);
        if block.len() != lnx * lny {
            return Err(Error::InvalidArg(format!(
                "assemble_grid: block {local} has {} values, expected {}",
                block.len(),
                lnx * lny
            )));
        }
        for m in 0..lny {
            grid.row_mut(y0 + m)[x0..x0 + lnx].copy_from_slice(&block[m * lnx..(m + 1) * lnx]);
        }
    }
    // Periodic seam: node 2^i duplicates node 0.
    for m in 0..nyg {
        let row = grid.row_mut(m);
        row[nxg] = row[0];
    }
    let row_len = nxg + 1;
    grid.values_mut().copy_within(0..row_len, nyg * row_len);
    Ok(grid)
}

/// [`assemble_grid`] from the wire bytes of a gather into a caller-owned
/// grid: `out` is re-shaped to `level` (keeping its allocation, no
/// zero-fill) and every node is overwritten. The block-count, block-length
/// and seam rules — and the error texts — are [`assemble_grid`]'s. On an
/// error `out` holds a partial assembly; the caller must not use it.
fn assemble_grid_into(
    level: LevelPair,
    info: &GroupInfo,
    blocks: &Gathered<f64>,
    out: &mut Grid2,
) -> Result<()> {
    let nxg = 1usize << level.i;
    let nyg = 1usize << level.j;
    if blocks.len() != info.size {
        return Err(Error::InvalidArg(format!(
            "assemble_grid: {} blocks for group of {}",
            blocks.len(),
            info.size
        )));
    }
    out.reshape(level);
    for local in 0..info.size {
        let block = blocks.part(local);
        let pi = local % info.px;
        let pj = local / info.px;
        let (x0, lnx) = block_range(nxg, info.px, pi);
        let (y0, lny) = block_range(nyg, info.py, pj);
        if block.len() != lnx * lny {
            return Err(Error::InvalidArg(format!(
                "assemble_grid: block {local} has {} values, expected {}",
                block.len(),
                lnx * lny
            )));
        }
        for m in 0..lny {
            block.copy_to(m * lnx, &mut out.row_mut(y0 + m)[x0..x0 + lnx]);
        }
    }
    // Periodic seam: node 2^i duplicates node 0.
    for m in 0..nyg {
        let row = out.row_mut(m);
        row[nxg] = row[0];
    }
    let row_len = nxg + 1;
    out.values_mut().copy_within(0..row_len, nyg * row_len);
    Ok(())
}

/// Cut a full grid into the per-member blocks of a group (inverse of
/// [`assemble_grid`]; the seam is dropped).
pub fn split_grid(grid: &Grid2, info: &GroupInfo) -> Vec<Vec<f64>> {
    let blocks = Blocks { grid, info };
    (0..info.size)
        .map(|local| {
            let mut block = Vec::with_capacity(blocks.part_len(local));
            blocks.put_part(local, &mut |row| block.extend_from_slice(row));
            block
        })
        .collect()
}

/// The member blocks of `grid` as the scatter root sends them: rows of the
/// grid where they lie, block after block in group-rank order.
struct Blocks<'a> {
    grid: &'a Grid2,
    info: &'a GroupInfo,
}

impl Blocks<'_> {
    /// Member `local`'s block: `(x0, lnx, y0, lny)` in grid nodes.
    fn range(&self, local: usize) -> (usize, usize, usize, usize) {
        let level = self.grid.level();
        let (x0, lnx) = block_range(1 << level.i, self.info.px, local % self.info.px);
        let (y0, lny) = block_range(1 << level.j, self.info.py, local / self.info.px);
        (x0, lnx, y0, lny)
    }
}

impl ScatterParts<f64> for Blocks<'_> {
    fn parts(&self) -> usize {
        self.info.size
    }
    fn part_len(&self, local: usize) -> usize {
        let (_, lnx, _, lny) = self.range(local);
        lnx * lny
    }
    fn put_part(&self, local: usize, put: &mut dyn FnMut(&[f64])) {
        let (x0, lnx, y0, lny) = self.range(local);
        for m in y0..y0 + lny {
            put(&self.grid.row(m)[x0..x0 + lnx]);
        }
    }
}

/// A rank's block as it goes into a gather: [`block_len`] values in the
/// layout [`assemble_grid`] expects, delivered row by row. A slice is
/// its own single row; a solver hands over its interior rows where they
/// lie in the padded field, so they go straight onto the wire and the
/// block is never staged in a contiguous copy first.
///
/// [`block_len`]: BlockRows::block_len
pub trait BlockRows {
    /// Number of values in the block.
    fn block_len(&self) -> usize;
    /// Call `put` with every row, in order.
    fn for_each_row(&self, put: &mut dyn FnMut(&[f64]));
}

impl<S: AsRef<[f64]> + ?Sized> BlockRows for S {
    fn block_len(&self) -> usize {
        self.as_ref().len()
    }
    fn for_each_row(&self, put: &mut dyn FnMut(&[f64])) {
        put(self.as_ref());
    }
}

/// A rank's block as it comes out of a scatter: [`BlockRows`]' rows,
/// writable where they lie, so the received values go straight into the
/// solver's padded field.
pub trait BlockRowsMut: BlockRows {
    /// Call `put` with every row, writable, in [`BlockRows`] order.
    fn for_each_row_mut(&mut self, put: &mut dyn FnMut(&mut [f64]));
}

impl<S: AsRef<[f64]> + AsMut<[f64]> + ?Sized> BlockRowsMut for S {
    fn for_each_row_mut(&mut self, put: &mut dyn FnMut(&mut [f64])) {
        put(self.as_mut());
    }
}

/// The group's gather of `my_block` to rank 0 (see [`BlockRows`]).
pub(crate) fn gather_blocks(
    ctx: &Ctx,
    group: &Comm,
    my_block: &(impl BlockRows + ?Sized),
) -> Result<Option<Gathered<f64>>> {
    group.gather_view_with(ctx, 0, my_block.block_len(), |put| my_block.for_each_row(put))
}

/// Collective over the group: gather member blocks to the group root,
/// assembled in place into the root's own grid. Exactly the root (group
/// rank 0) supplies `out`; it is re-shaped to `level` and fully
/// overwritten, so a root that gathers every round (the periodic
/// checkpoint) hands in the same buffer each time and allocates nothing.
/// If the collective or the assembly fails, `out` is unspecified.
pub fn gather_grid_into(
    ctx: &Ctx,
    group: &Comm,
    info: &GroupInfo,
    level: LevelPair,
    my_block: &(impl BlockRows + ?Sized),
    out: Option<&mut Grid2>,
) -> Result<()> {
    if (group.rank() == 0) != out.is_some() {
        return Err(Error::InvalidArg(
            "gather_grid_into: exactly the group root must supply the grid".into(),
        ));
    }
    match (gather_blocks(ctx, group, my_block)?, out) {
        (Some(blocks), Some(out)) => assemble_grid_into(level, info, &blocks, out),
        _ => Ok(()),
    }
}

/// Collective over the group: the root (group rank 0) scatters `grid`,
/// which exactly it supplies, and every member lands its block straight
/// in `my_block`'s rows (see the module docs). A part of the wrong length
/// is an error and leaves `my_block` untouched.
pub fn scatter_grid_into(
    ctx: &Ctx,
    group: &Comm,
    info: &GroupInfo,
    grid: Option<&Grid2>,
    my_block: &mut (impl BlockRowsMut + ?Sized),
) -> Result<()> {
    let blocks = grid.map(|grid| Blocks { grid, info });
    group.scatter_view_with(ctx, 0, blocks.as_ref(), |part| land_block(&part, my_block))
}

/// Copy a received block, row by row, over `my_block`.
pub(crate) fn land_block(
    part: &WireSlice<'_, f64>,
    my_block: &mut (impl BlockRowsMut + ?Sized),
) -> Result<()> {
    if part.len() != my_block.block_len() {
        return Err(Error::InvalidArg(format!(
            "scatter: a part of {} values for a block of {}",
            part.len(),
            my_block.block_len()
        )));
    }
    let mut at = 0;
    my_block.for_each_row_mut(&mut |row| {
        part.copy_to(at, row);
        at += row.len();
    });
    Ok(())
}

/// Translate an *original* world rank into the current (possibly
/// shrunken) world. `members[i]` is the original rank of current rank `i`
/// (ascending — the shrink preserves relative order); `None` means the
/// world was never shrunk, so ranks are original. Returns `None` when the
/// original rank is dead under the current membership.
///
/// The combination under `ShrinkRedistribute` routes every grid exchange
/// through this: group leaders and the central root are recorded in the
/// layout by original rank, but live at their compacted rank.
pub fn current_rank_of(orig: usize, members: Option<&[usize]>) -> Option<usize> {
    match members {
        None => Some(orig),
        Some(m) => m.binary_search(&orig).ok(),
    }
}

/// Send a whole grid over a communicator as two messages (level header +
/// payload). Pairs with [`recv_grid_onto`].
pub fn send_grid(ctx: &Ctx, comm: &Comm, dest: usize, tag: i32, grid: &Grid2) -> Result<()> {
    comm.send(ctx, dest, tag, &[grid.level().i as u64, grid.level().j as u64])?;
    comm.send(ctx, dest, tag, grid.values())
}

/// Receive a whole grid sent by [`send_grid`] onto a caller-owned grid:
/// `out` is re-shaped to the sender's level (keeping its allocation) and
/// the values land straight in it, so repeated receives onto the same
/// grid (the periodic buddy copies) allocate nothing once it has grown
/// to the largest level flowing through. The values are written only
/// once they have arrived whole: on an error `out` is untouched, except
/// that a level change has already re-shaped it.
pub fn recv_grid_onto(ctx: &Ctx, comm: &Comm, src: usize, tag: i32, out: &mut Grid2) -> Result<()> {
    out.reshape(recv_grid_level(ctx, comm, src, tag)?);
    comm.recv_onto(ctx, src, tag, out.values_mut())
}

/// The header message of [`send_grid`].
fn recv_grid_level(ctx: &Ctx, comm: &Comm, src: usize, tag: i32) -> Result<LevelPair> {
    // A header of any other length is `recv_onto`'s `InvalidArg`; a dead
    // or revoked peer surfaces as itself, for the callers' retry loops.
    let mut header = [0u64; 2];
    comm.recv_onto(ctx, src, tag, &mut header)?;
    Ok(LevelPair::new(header[0] as u32, header[1] as u32))
}

/// Binomial-tree reduction of per-leader partial grids, ending at world
/// rank `root` (§II-A's combination, restructured from the centralized
/// master gather into a log-depth reduction over the group leaders).
///
/// `leaders[k]` is the world rank holding partial `k`; `mine` must be
/// `Some` exactly on those ranks (every partial lives on `target`).
/// Round `r` pairs index `i` with `i + 2^r`: the higher index ships its
/// partial (a whole, partially-combined grid) and drops out, the lower
/// one adds it in place. The pairing and the per-receiver addition order
/// are exactly those of [`sparsegrid::combine_binomial`], and each hop
/// merge is a plain elementwise `+=`, so the reduced grid is **bitwise
/// equal** to that serial reference for the same ordered term list.
///
/// All hops use the nonblocking `isend`/`irecv_into`/`wait` path: a peer
/// dying mid-tree surfaces `ProcFailed` (or `Revoked`) at the waiting
/// rank instead of wedging it, and every hop is a fault-injection site.
/// `scratch` is the reused hop-receive buffer. Returns the combined grid
/// on `root` (`None` if `leaders` is empty), `None` elsewhere.
#[allow(clippy::too_many_arguments)]
pub fn binomial_combine(
    ctx: &Ctx,
    comm: &Comm,
    leaders: &[usize],
    root: usize,
    target: LevelPair,
    mine: Option<Grid2>,
    scratch: &mut Vec<f64>,
    tag: i32,
) -> Result<Option<Grid2>> {
    let me = comm.rank();
    let my_idx = leaders.iter().position(|&r| r == me);
    // A non-leader never carries a partial. A leader normally does, but a
    // retried round can arrive with its partial already consumed — that
    // surfaces as `Error::Protocol` at the ship hop below, not an abort.
    debug_assert!(my_idx.is_some() || mine.is_none(), "partial only on a leader");
    let n = leaders.len();
    let mut part = mine;
    if let (Some(i), Some(grid)) = (my_idx, part.as_mut()) {
        let mut stride = 1;
        while stride < n {
            if i % (2 * stride) == stride {
                // Ship my partial down the tree and drop out.
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
    // The reduction ends at `leaders[0]`; ship to `root` if different.
    if n == 0 {
        return Ok(None);
    }
    if leaders[0] == root {
        return Ok(if me == root { part } else { None });
    }
    if me == leaders[0] {
        // The reduction root's partial can be missing if a failure landed
        // mid-hop and a retried round consumed it; surface that as a
        // recoverable protocol error so the caller's combine retry loop
        // re-runs the round instead of aborting the process.
        let grid = part.take().ok_or_else(|| {
            Error::Protocol("reduction root's combined grid was consumed mid-round".into())
        })?;
        comm.isend(ctx, root, tag, grid.values())?.wait(ctx)?;
        Ok(None)
    } else if me == root {
        comm.irecv_into(ctx, leaders[0], tag, scratch)?.wait(ctx)?;
        Grid2::from_raw(target, std::mem::take(scratch)).map(Some).map_err(Error::InvalidArg)
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(size: usize, px: usize, py: usize) -> GroupInfo {
        GroupInfo { grid: 0, first: 0, size, px, py }
    }

    #[test]
    fn assemble_split_roundtrip() {
        let level = LevelPair::new(4, 3);
        let original = Grid2::from_fn(level, |x, y| (x * 5.0).sin() + y);
        // Make the grid periodic-consistent (seam equals start).
        let mut periodic = original.clone();
        for m in 0..periodic.ny() {
            let v = periodic.at(0, m);
            *periodic.at_mut(periodic.nx() - 1, m) = v;
        }
        let (nx, ny) = (periodic.nx(), periodic.ny());
        for k in 0..nx {
            let v = periodic.at(k, 0);
            *periodic.at_mut(k, ny - 1) = v;
        }
        let g = info(4, 2, 2);
        let blocks = split_grid(&periodic, &g);
        assert_eq!(blocks.len(), 4);
        let back = assemble_grid(level, &g, &blocks).unwrap();
        assert_eq!(back, periodic);
    }

    #[test]
    fn assemble_validates_shapes() {
        let level = LevelPair::new(2, 2);
        let g = info(2, 2, 1);
        assert!(assemble_grid(level, &g, &[vec![0.0; 8]]).is_err()); // too few blocks
        let bad = vec![vec![0.0; 7], vec![0.0; 8]];
        assert!(assemble_grid(level, &g, &bad).is_err()); // wrong block size
    }

    #[test]
    fn single_member_split_is_whole_interior() {
        let level = LevelPair::new(2, 2);
        let grid = Grid2::from_fn(level, |x, y| x * 10.0 + y);
        let g = info(1, 1, 1);
        let blocks = split_grid(&grid, &g);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), 16); // 4 × 4 fundamental nodes
    }

    #[test]
    fn gather_scatter_over_runtime() {
        use ulfm_sim::{run, RunConfig};
        let level = LevelPair::new(3, 3);
        let report = run(RunConfig::local(4), move |ctx| {
            let w = ctx.initial_world().unwrap();
            let g = info(4, 2, 2);
            // Build a deterministic block per rank.
            let (x0, lnx) = block_range(8, 2, w.rank() % 2);
            let (y0, lny) = block_range(8, 2, w.rank() / 2);
            let mut block = Vec::new();
            for m in 0..lny {
                for k in 0..lnx {
                    block.push(((y0 + m) * 8 + (x0 + k)) as f64);
                }
            }
            let mut grid = (w.rank() == 0).then(|| Grid2::zeros(LevelPair::new(1, 1)));
            gather_grid_into(ctx, &w, &g, level, &block, grid.as_mut()).unwrap();
            if let Some(grid) = &grid {
                assert_eq!(grid.at(5, 2), (2 * 8 + 5) as f64);
                assert_eq!(grid.at(8, 3), grid.at(0, 3)); // seam
            }
            // Scatter it back, into a block of the right size.
            let mut mine = vec![f64::NAN; block.len()];
            scatter_grid_into(ctx, &w, &g, grid.as_ref(), &mut mine[..]).unwrap();
            assert_eq!(mine, block);
            // A block of the wrong size is refused and left alone.
            let mut short = vec![f64::NAN; block.len() - 1];
            let err = scatter_grid_into(ctx, &w, &g, grid.as_ref(), &mut short[..]).unwrap_err();
            assert!(err.to_string().contains("for a block of"), "{err}");
            assert!(short.iter().all(|v| v.is_nan()));
            ctx.report_add("ok", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(4.0));
    }

    #[test]
    fn recv_grid_onto_reuses_the_callers_grid_and_passes_failures_through() {
        use ulfm_sim::{run, RunConfig};
        let report = run(RunConfig::local(3), |ctx| {
            let w = ctx.initial_world().unwrap();
            match w.rank() {
                0 => {
                    for level in [LevelPair::new(3, 2), LevelPair::new(2, 2)] {
                        send_grid(ctx, &w, 1, 55, &Grid2::from_fn(level, |x, y| x - y)).unwrap();
                    }
                }
                1 => {
                    let mut grid = Grid2::from_fn(LevelPair::new(3, 2), |_, _| f64::NAN);
                    let ptr = grid.values().as_ptr();
                    for level in [LevelPair::new(3, 2), LevelPair::new(2, 2)] {
                        recv_grid_onto(ctx, &w, 0, 55, &mut grid).unwrap();
                        assert_eq!(grid, Grid2::from_fn(level, |x, y| x - y));
                        assert_eq!(grid.values().as_ptr(), ptr, "received in place");
                    }
                    // A sender that died before sending is `ProcFailed` —
                    // what the recovery retry loops match on — and the
                    // caller's grid is untouched.
                    let before = grid.clone();
                    let dead = recv_grid_onto(ctx, &w, 2, 56, &mut grid).unwrap_err();
                    assert!(matches!(dead, Error::ProcFailed { .. }), "got: {dead}");
                    assert_eq!(grid, before);
                    ctx.report_f64("ok", 1.0);
                }
                _ => ctx.die(),
            }
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(1.0));
    }

    #[test]
    fn send_recv_grid_over_runtime() {
        use ulfm_sim::{run, RunConfig};
        let report = run(RunConfig::local(2), |ctx| {
            let w = ctx.initial_world().unwrap();
            if w.rank() == 0 {
                let g = Grid2::from_fn(LevelPair::new(3, 2), |x, y| x - y);
                send_grid(ctx, &w, 1, 55, &g).unwrap();
            } else {
                // The receiver's grid takes the sender's level.
                let mut g = Grid2::zeros(LevelPair::new(1, 1));
                recv_grid_onto(ctx, &w, 0, 55, &mut g).unwrap();
                assert_eq!(g.level(), LevelPair::new(3, 2));
                assert!((g.eval(0.5, 0.5) - 0.0).abs() < 1e-12);
                ctx.report_f64("ok", 1.0);
            }
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(1.0));
    }
}
