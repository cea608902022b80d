//! Gather–scatter between distributed blocks and whole sub-grids, once for
//! every grid.
//!
//! "The solutions are combined in parallel using a gather–scatter
//! approach" (§II-A): each group's root gathers the member blocks into a
//! whole sub-grid, the roots exchange grids (for combination or data
//! recovery), and recovered grids are scattered back into member blocks.
//! None of it depends on the dimension. A grid says what travels
//! ([`ComponentGrid`]: its level as one header word per axis, its values,
//! its periodic seams) and a group description says where each member's
//! block lies in it ([`GroupBlocks`]: a `GroupInfo` cuts a 2D grid into
//! process-grid blocks, a `GroupInfoN` a d-dimensional one into slabs
//! along the last axis). Every operation below is written once over those
//! two traits and works in place:
//!
//! * the **gather** ([`gather_grid_into`]) reads each member's block from
//!   the collective's wire bytes ([`Comm::gather_view_with`]) and copies
//!   its runs straight into a grid the root supplies — in the application
//!   the rank's one landing grid ([`crate::landing`]) — so a gathered
//!   sub-grid exists once on the root, not also as a decoded `Vec` per
//!   member and a fresh grid per round;
//! * the **scatter** ([`scatter_grid_into`]) is its mirror: the root
//!   pushes the runs of each member's block from the grid straight into
//!   that member's wire buffer ([`Comm::scatter_view_with`]), and every
//!   member copies its wire rows straight into its block where it lies —
//!   a solver's padded field ([`BlockRowsMut`]);
//! * a whole grid travels as [`send_grid`] and lands on a grid the
//!   receiver already owns ([`recv_grid_onto`]);
//! * the combination reduces partial grids down a binomial tree
//!   ([`binomial_combine`]).
//!
//! [`assemble_grid`] and [`split_grid`] over decoded blocks stay as the
//! references the in-place paths are pinned against.

use sparsegrid::ComponentGrid;
use ulfm_sim::{Comm, Ctx, Error, Result, ScatterParts, WireSlice};

/// A group description: where each member's block lies in a whole grid.
pub trait GroupBlocks {
    /// The grid the group solves.
    type Grid: ComponentGrid;
    /// What [`runs`](Self::runs) needs to know of a grid, read once per
    /// operation.
    type Shape;
    /// Number of members.
    fn members(&self) -> usize;
    /// The shape of `grid`.
    fn shape(grid: &Self::Grid) -> Self::Shape;
    /// `f(offset, len)` for every run of grid values member `local`'s
    /// block holds, in block order, in a grid of `shape`. The runs cover
    /// the fundamental domain (seams dropped) once over all members.
    fn runs(&self, shape: &Self::Shape, local: usize, f: &mut impl FnMut(usize, usize));
}

/// The level of a group's grid.
pub type Level<D> = <<D as GroupBlocks>::Grid as ComponentGrid>::Level;

/// Values in member `local`'s block.
fn block_len<D: GroupBlocks>(info: &D, shape: &D::Shape, local: usize) -> usize {
    let mut len = 0;
    info.runs(shape, local, &mut |_, n| len += n);
    len
}

/// Fill `grid` (already at its level) from `count` member blocks, ordered
/// by group rank: check the count and every block's length (`len(local)`),
/// copy each block run by run (`copy(local, at, run)` fills `run` from the
/// block's values at `at` on), then re-assert the seams. On an error
/// `grid` holds a partial assembly.
fn assemble<D: GroupBlocks>(
    info: &D,
    count: usize,
    grid: &mut D::Grid,
    len: impl Fn(usize) -> usize,
    mut copy: impl FnMut(usize, usize, &mut [f64]),
) -> Result<()> {
    if count != info.members() {
        return Err(Error::InvalidArg(format!(
            "assemble_grid: {count} blocks for group of {}",
            info.members()
        )));
    }
    let shape = D::shape(grid);
    let values = grid.values_mut();
    for local in 0..count {
        let want = block_len(info, &shape, local);
        if len(local) != want {
            return Err(Error::InvalidArg(format!(
                "assemble_grid: block {local} has {} values, expected {want}",
                len(local)
            )));
        }
        let mut at = 0;
        info.runs(&shape, local, &mut |off, n| {
            copy(local, at, &mut values[off..off + n]);
            at += n;
        });
    }
    grid.apply_periodic_seams();
    Ok(())
}

/// Assemble a whole periodic grid (seams included) from per-member
/// fundamental-domain blocks, ordered by group rank.
pub fn assemble_grid<D: GroupBlocks>(
    level: &Level<D>,
    info: &D,
    blocks: &[Vec<f64>],
) -> Result<D::Grid> {
    let mut grid = D::Grid::zeros(level);
    let len = |local: usize| blocks[local].len();
    assemble(info, blocks.len(), &mut grid, len, |local, at, run| {
        run.copy_from_slice(&blocks[local][at..at + run.len()])
    })?;
    Ok(grid)
}

/// Cut a whole grid into the per-member blocks of a group (inverse of
/// [`assemble_grid`]; the seams are dropped).
pub fn split_grid<D: GroupBlocks>(grid: &D::Grid, info: &D) -> Vec<Vec<f64>> {
    let cut = Cut::new(info, grid);
    (0..info.members())
        .map(|local| {
            let mut block = Vec::with_capacity(cut.part_len(local));
            cut.put_part(local, &mut |run| block.extend_from_slice(run));
            block
        })
        .collect()
}

/// The member blocks of a grid as the scatter root sends them: runs of the
/// grid where they lie, block after block in group-rank order.
struct Cut<'a, D: GroupBlocks> {
    info: &'a D,
    shape: D::Shape,
    values: &'a [f64],
}

impl<'a, D: GroupBlocks> Cut<'a, D> {
    fn new(info: &'a D, grid: &'a D::Grid) -> Self {
        Cut { info, shape: D::shape(grid), values: grid.values() }
    }
}

impl<D: GroupBlocks> ScatterParts<f64> for Cut<'_, D> {
    fn parts(&self) -> usize {
        self.info.members()
    }
    fn part_len(&self, local: usize) -> usize {
        block_len(self.info, &self.shape, local)
    }
    fn put_part(&self, local: usize, put: &mut dyn FnMut(&[f64])) {
        self.info.runs(&self.shape, local, &mut |off, n| put(&self.values[off..off + n]));
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

/// Collective over the group: gather member blocks to the group root,
/// assembled in place into the root's own grid. Exactly the root (group
/// rank 0) supplies `out`; it is re-shaped to `level` and fully
/// overwritten, so a root that gathers every round (the periodic
/// checkpoint) hands in the same buffer each time and allocates nothing.
/// The block-count and block-length rules, and their error texts, are
/// [`assemble_grid`]'s. If the collective or the assembly fails, `out` is
/// unspecified.
pub fn gather_grid_into<D: GroupBlocks>(
    ctx: &Ctx,
    group: &Comm,
    info: &D,
    level: &Level<D>,
    my_block: &(impl BlockRows + ?Sized),
    out: Option<&mut D::Grid>,
) -> Result<()> {
    if (group.rank() == 0) != out.is_some() {
        return Err(Error::InvalidArg(
            "gather_grid_into: exactly the group root must supply the grid".into(),
        ));
    }
    let put = |put: &mut dyn FnMut(&[f64])| my_block.for_each_row(put);
    match (group.gather_view_with(ctx, 0, my_block.block_len(), put)?, out) {
        (Some(blocks), Some(out)) => {
            out.reshape(level);
            let len = |local: usize| blocks.part(local).len();
            assemble(info, blocks.len(), out, len, |local, at, run| {
                blocks.part(local).copy_to(at, run)
            })
        }
        _ => Ok(()),
    }
}

/// Collective over the group: the root (group rank 0) scatters `grid`,
/// which exactly it supplies, and every member lands its block straight
/// in `my_block`'s rows (see the module docs). A part of the wrong length
/// is an error and leaves `my_block` untouched.
pub fn scatter_grid_into<D: GroupBlocks>(
    ctx: &Ctx,
    group: &Comm,
    info: &D,
    grid: Option<&D::Grid>,
    my_block: &mut (impl BlockRowsMut + ?Sized),
) -> Result<()> {
    let cut = grid.map(|grid| Cut::new(info, grid));
    group.scatter_view_with(ctx, 0, cut.as_ref(), |part| land_block(&part, my_block))
}

/// Copy a received block, row by row, over `my_block`.
fn land_block(
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
/// through this: group leaders are recorded in the layout by original
/// rank, but live at their compacted rank.
pub fn current_rank_of(orig: usize, members: Option<&[usize]>) -> Option<usize> {
    match members {
        None => Some(orig),
        Some(m) => m.binary_search(&orig).ok(),
    }
}

/// More axes than a level header ever carries: a grid of 32 axes has at
/// least 2^32 nodes, and the robust coefficient tables stop below it too.
const MAX_AXES: usize = 32;

/// The first `axes` words of `buf`, for a level header.
fn header_words(buf: &mut [u64; MAX_AXES], axes: usize) -> Result<&mut [u64]> {
    buf.get_mut(..axes).ok_or_else(|| Error::InvalidArg(format!("a level header of {axes} axes")))
}

/// Send a whole grid over a communicator as two messages: the level, one
/// `u64` per axis, then the values. Pairs with [`recv_grid_onto`].
pub fn send_grid<G: ComponentGrid>(
    ctx: &Ctx,
    comm: &Comm,
    dest: usize,
    tag: i32,
    grid: &G,
) -> Result<()> {
    let mut buf = [0u64; MAX_AXES];
    let header = header_words(&mut buf, grid.axes())?;
    grid.header(header);
    comm.send(ctx, dest, tag, header)?;
    comm.send(ctx, dest, tag, grid.values())
}

/// Receive a whole grid sent by [`send_grid`] onto a caller-owned grid of
/// as many axes: `out` is re-shaped to the sender's level (keeping its
/// allocation) and the values land straight in it, so repeated receives
/// onto the same grid (the periodic buddy copies) allocate nothing once it
/// has grown to the largest level flowing through. The values are written
/// only once they have arrived whole: on an error `out` is untouched,
/// except that a level change has already re-shaped it.
pub fn recv_grid_onto<G: ComponentGrid>(
    ctx: &Ctx,
    comm: &Comm,
    src: usize,
    tag: i32,
    out: &mut G,
) -> Result<()> {
    // A header of any other length is `recv_onto`'s `InvalidArg`; a dead
    // or revoked peer surfaces as itself, for the callers' retry loops.
    let mut buf = [0u64; MAX_AXES];
    let header = header_words(&mut buf, out.axes())?;
    comm.recv_onto(ctx, src, tag, header)?;
    out.reshape_to_header(header);
    comm.recv_onto(ctx, src, tag, out.values_mut())
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
/// are exactly those of [`sparsegrid::combine_binomial`] and
/// [`sparsegrid::combine_binomial_nd`], and each hop merge is a plain
/// elementwise `+=`, so the reduced grid is **bitwise equal** to that
/// serial reference for the same ordered term list.
///
/// All hops use the nonblocking `isend`/`irecv`/`wait` path: a peer
/// dying mid-tree surfaces `ProcFailed` (or `Revoked`) at the waiting
/// rank instead of wedging it, and every hop is a fault-injection site.
/// A receiving leader adds each hop straight off the wire into its
/// partial ([`ulfm_sim::Request::wait_with`]), element by element in the
/// same order, so no hop is decoded into a grid-sized copy first; only
/// `root`'s final receive from `leaders[0]` builds a vector, the combined
/// grid's. Returns the combined grid on `root` (`None` if `leaders` is
/// empty), `None` elsewhere.
pub fn binomial_combine<G: ComponentGrid>(
    ctx: &Ctx,
    comm: &Comm,
    leaders: &[usize],
    root: usize,
    target: &G::Level,
    mine: Option<G>,
    tag: i32,
) -> Result<Option<G>> {
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
                let vals = grid.values_mut();
                comm.irecv::<f64>(ctx, leaders[i + stride], tag)?.wait_with(ctx, |wire| {
                    wire.expect_len(vals.len())?;
                    for (a, b) in vals.iter_mut().zip(wire.iter()) {
                        *a += b;
                    }
                    Ok(())
                })?;
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
        let mut values = Vec::new();
        comm.irecv(ctx, leaders[0], tag)?.wait_into(ctx, &mut values)?;
        G::from_raw(target, values).map(Some).map_err(Error::InvalidArg)
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::GroupInfo;
    use crate::layout_nd::GroupInfoN;
    use crate::psolve::block_range;
    use sparsegrid::{
        combine_binomial_nd, combine_onto_nd, CombinationTermN, Grid2, GridN, LevelPair, LevelVecN,
    };
    use ulfm_sim::{run, RunConfig};

    fn info(size: usize, px: usize, py: usize) -> GroupInfo {
        GroupInfo { grid: 0, first: 0, size, px, py }
    }

    fn info_n(size: usize) -> GroupInfoN {
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
        let back = assemble_grid(&level, &g, &blocks).unwrap();
        assert_eq!(back, periodic);
    }

    #[test]
    fn assemble_split_roundtrip_nd() {
        let level = LevelVecN::new(&[3, 2, 3]);
        let grid = periodic_grid(&level);
        for size in [1, 2, 3, 5] {
            let g = info_n(size);
            let blocks = split_grid(&grid, &g);
            assert_eq!(blocks.len(), size);
            let back = assemble_grid(&level, &g, &blocks).unwrap();
            assert_eq!(back, grid, "roundtrip at {size} slabs");
        }
    }

    #[test]
    fn uneven_slabs_split_by_rows_and_roundtrip() {
        // nz = 8 over 3 ranks → 2/3/3 planes; d = 1..4 with a ragged
        // transverse shape. Every block is checked value for value
        // against a per-node read, so a misplaced row cannot hide behind
        // the symmetric round trip.
        for level in [&[3u32][..], &[2, 3], &[3, 2, 3], &[1, 2, 0, 3]].map(LevelVecN::new) {
            let d = level.len();
            let grid = periodic_grid(&level);
            let g = info_n(3);
            let blocks = split_grid(&grid, &g);
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
            assert_eq!(assemble_grid(&level, &g, &blocks).unwrap(), grid, "level {level:?}");
        }
    }

    #[test]
    fn assemble_validates_shapes() {
        let level = LevelPair::new(2, 2);
        let g = info(2, 2, 1);
        assert!(assemble_grid(&level, &g, &[vec![0.0; 8]]).is_err()); // too few blocks
        let bad = vec![vec![0.0; 7], vec![0.0; 8]];
        assert!(assemble_grid(&level, &g, &bad).is_err()); // wrong block size
    }

    #[test]
    fn assemble_validates_shapes_nd() {
        let level = LevelVecN::new(&[2, 2, 2]);
        let g = info_n(2);
        assert!(assemble_grid(&level, &g, &[vec![0.0; 32]]).is_err()); // too few blocks
        let bad = vec![vec![0.0; 31], vec![0.0; 32]];
        assert!(assemble_grid(&level, &g, &bad).is_err()); // wrong block size
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
            gather_grid_into(ctx, &w, &g, &level, &block, grid.as_mut()).unwrap();
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
    fn gather_scatter_over_runtime_nd() {
        let level = LevelVecN::new(&[2, 2, 3]);
        let grid = periodic_grid(&level);
        let report = run(RunConfig::local(4), move |ctx| {
            let w = ctx.initial_world().unwrap();
            let g = info_n(4);
            let block = split_grid(&grid, &g)[w.rank()].clone();
            let mut full = (w.rank() == 0).then(|| GridN::zeros(&[1, 1]));
            gather_grid_into(ctx, &w, &g, &level, &block, full.as_mut()).unwrap();
            if let Some(full) = &full {
                assert_eq!(full, &grid);
            }
            let mut mine = vec![f64::NAN; block.len()];
            scatter_grid_into(ctx, &w, &g, full.as_ref(), &mut mine[..]).unwrap();
            assert_eq!(mine, block);
            ctx.report_add("ok", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(4.0));
    }

    #[test]
    fn recv_grid_onto_reuses_the_callers_grid_and_passes_failures_through() {
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

    #[test]
    fn send_recv_grid_over_runtime_nd() {
        let report = run(RunConfig::local(2), |ctx| {
            let w = ctx.initial_world().unwrap();
            if w.rank() == 0 {
                let g = GridN::from_fn(&[3, 2, 2], |x| x[0] - x[1] + 2.0 * x[2]);
                send_grid(ctx, &w, 1, 55, &g).unwrap();
                send_grid(ctx, &w, 1, 56, &g).unwrap();
            } else {
                // The receiver's grid takes the sender's level …
                let mut g = GridN::zeros(&[1, 1, 1]);
                recv_grid_onto(ctx, &w, 0, 55, &mut g).unwrap();
                assert_eq!(g.level(), &[3, 2, 2]);
                assert!((g.eval(&[0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
                // … but not its number of axes: that header is refused.
                let mut flat = GridN::zeros(&[1, 1]);
                let err = recv_grid_onto(ctx, &w, 0, 56, &mut flat).unwrap_err();
                assert!(matches!(err, Error::InvalidArg(_)), "got: {err}");
                ctx.report_f64("ok", 1.0);
            }
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(1.0));
    }

    #[test]
    fn tree_combine_matches_serial_reference_bitwise() {
        const WORLD: usize = 5;
        let target = LevelVecN::new(&[2, 2, 2]);
        let report = run(RunConfig::local(WORLD), move |ctx| {
            let w = ctx.initial_world().unwrap();
            let myval = (w.rank() + 1) as f64;
            let src = GridN::from_fn(&target, |x| myval * (1.0 + x[0] + 2.0 * x[1] - x[2]));
            let term = CombinationTermN { coeff: 1.0, grid: &src };
            let part = combine_onto_nd(&target, std::slice::from_ref(&term));
            let leaders: Vec<usize> = (0..WORLD).collect();
            let combined = binomial_combine(ctx, &w, &leaders, 0, &target, Some(part), 42).unwrap();
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
