//! The d-dimensional stepping engine — [`PaddedFieldN`] generalizes
//! [`crate::stepper::PaddedField`] to arbitrary dimension.
//!
//! Both buffers hold the interior `n_0 × … × n_{d-1}` block (the
//! fundamental periodic domain; the duplicated seam node is *not*
//! stored) surrounded by a 1-cell halo on every face, row-major with
//! axis 0 fastest. One timestep refreshes the halo (`O(surface)`
//! copies), evaluates a stencil over the interior into the other buffer,
//! and ping-pongs — the same allocation-free discipline as the tuned 2D
//! path, which remains the d=2 fast case (this engine never runs at d=2
//! in production; the 2D kernels do). As there, the second buffer (the
//! spare) exists from [`PaddedFieldN::new`] until
//! [`PaddedFieldN::release_spare`], which a solver calls when it commits
//! its solve's last step, and again from the next step, which re-creates
//! it.
//!
//! ## Production rows, reference points
//!
//! The solvers step with [`PaddedFieldN::step_rows`]: the interior is
//! visited as contiguous axis-0 rows and a *row kernel*
//! ([`crate::ndsolve::StencilN::row`]) updates each in one call, so a
//! step touches the allocator never and dispatches once per row. The halo
//! wrap moves whole contiguous runs the same way. The point-closure entry
//! points — [`PaddedFieldN::step_with`] and
//! [`PaddedFieldN::step_planes`] with
//! [`crate::ndsolve::upwind_diffusion_kernel`] /
//! [`crate::ndsolve::jacobi_kernel`] — are the pinned reference the rows
//! are tested bitwise against (`tests/kernel_props.rs`); nothing in
//! production calls them.
//!
//! The halo can be filled two ways: [`PaddedFieldN::refresh_periodic_halo`]
//! for single-owner periodic solves, or transverse wrap + external plane
//! exchange ([`PaddedFieldN::wrap_transverse_halo`] /
//! [`PaddedFieldN::set_plane`]) for the distributed slab decomposition —
//! slabs split the **last** axis, whose stride is largest, so every
//! exchanged halo plane is one contiguous slice.

use sparsegrid::ndgrid::{advance, for_each_offset, for_each_slab_row, GridN};

/// A double-buffered halo-padded d-dimensional field; after
/// [`release_spare`](Self::release_spare) only the current buffer exists
/// until the next step.
#[derive(Debug, Clone)]
pub struct PaddedFieldN {
    shape: Vec<usize>,
    pstride: Vec<usize>,
    cur: Vec<f64>,
    /// The spare: written by a step, then swapped in. Empty once released.
    next: Vec<f64>,
}

/// Two fields are equal when their shapes and current buffers are: the
/// spare holds nothing a reader can see.
impl PartialEq for PaddedFieldN {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.cur == other.cur
    }
}

impl PaddedFieldN {
    /// An all-zero field with the given interior shape.
    pub fn new(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "dimension must be ≥ 1");
        assert!(shape.iter().all(|&n| n >= 1), "interior must be non-empty: {shape:?}");
        let pshape: Vec<usize> = shape.iter().map(|&n| n + 2).collect();
        let mut pstride = vec![1usize; shape.len()];
        for i in 1..shape.len() {
            pstride[i] = pstride[i - 1] * pshape[i - 1];
        }
        let len = pstride.last().unwrap() * pshape.last().unwrap();
        PaddedFieldN { shape: shape.to_vec(), pstride, cur: vec![0.0; len], next: vec![0.0; len] }
    }

    /// A field sized for `grid`'s fundamental domain, loaded from it.
    pub fn from_grid(grid: &GridN) -> Self {
        let shape: Vec<usize> = grid.shape().iter().map(|&n| n - 1).collect();
        let mut f = PaddedFieldN::new(&shape);
        f.load(grid);
        f
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.shape.len()
    }

    /// Interior shape (fundamental domain, seam excluded).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Padded strides (axis 0 fastest).
    pub fn pstrides(&self) -> &[usize] {
        &self.pstride
    }

    /// Linear offset of a padded multi-index.
    #[inline]
    pub fn poffset(&self, idx: &[usize]) -> usize {
        idx.iter().zip(&self.pstride).map(|(&k, &s)| k * s).sum()
    }

    /// The current padded buffer (halo + interior).
    pub fn padded(&self) -> &[f64] {
        &self.cur
    }

    /// Mutable view of the current padded buffer.
    pub fn padded_mut(&mut self) -> &mut [f64] {
        &mut self.cur
    }

    /// Free the spare buffer: no step follows, or none soon. The current
    /// buffer, and so every value a reader sees, is untouched; the next
    /// step allocates the spare again. A step writes every interior cell
    /// of the spare before it is read, and the halo is wrapped or
    /// exchanged after the swap, so a fresh spare steps bit for bit as a
    /// kept one.
    pub fn release_spare(&mut self) {
        self.next = Vec::new();
    }

    /// Interior value at an interior multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f64 {
        let off: usize = idx.iter().zip(&self.pstride).map(|(&k, &s)| (k + 1) * s).sum();
        self.cur[off]
    }

    fn assert_matches(&self, grid: &GridN) {
        assert!(
            grid.shape().iter().zip(&self.shape).all(|(&g, &n)| g - 1 == n),
            "grid size mismatch: {:?} vs {:?}",
            grid.shape(),
            self.shape
        );
    }

    /// Copy `grid`'s fundamental domain into the interior. The halo is
    /// left stale; refresh or exchange before stepping.
    pub fn load(&mut self, grid: &GridN) {
        self.assert_matches(grid);
        let PaddedFieldN { shape, pstride, cur, .. } = self;
        let n0 = shape[0];
        for_each_grid_row(shape, pstride, |p, g| {
            cur[p..p + n0].copy_from_slice(&grid.values()[g..g + n0]);
        });
    }

    /// Copy the interior back into `grid`'s fundamental domain and
    /// re-assert the periodic seams (the last node of every axis
    /// duplicates node 0).
    pub fn store(&self, grid: &mut GridN) {
        self.assert_matches(grid);
        let n0 = self.shape[0];
        let values = grid.values_mut();
        for_each_grid_row(&self.shape, &self.pstride, |p, g| {
            values[g..g + n0].copy_from_slice(&self.cur[p..p + n0]);
        });
        grid.apply_periodic_seams();
    }

    /// Visit the interior (halo dropped) one contiguous axis-0 run at a
    /// time, in row-major order (axis 0 fastest).
    pub fn for_each_interior_row(&self, f: &mut dyn FnMut(&[f64])) {
        let origin: usize = self.pstride.iter().sum();
        let planes = self.shape[self.dim() - 1];
        for_each_slab_row(&self.shape, &self.pstride, origin, 0, planes, &mut |off, n| {
            f(&self.cur[off..off + n]);
        });
    }

    /// Append the interior (row-major, axis 0 fastest, halo dropped) to
    /// `out`, one contiguous axis-0 run at a time.
    pub fn extend_with_interior(&self, out: &mut Vec<f64>) {
        out.reserve(self.shape.iter().product());
        self.for_each_interior_row(&mut |row| out.extend_from_slice(row));
    }

    /// Overwrite the interior with a product of per-axis tables: `tables`
    /// holds one factor per interior node of axis 0, then of axis 1, …
    /// end to end, and node `(k₀, k₁, …)` becomes
    /// `((t₀[k₀]·t₁[k₁])·t₂[k₂])…` — that association exactly, so a
    /// separable function tabulated per axis lands bit for bit as its
    /// per-node evaluation would. The halo is left stale.
    pub fn fill_separable(&mut self, tables: &[f64]) {
        let PaddedFieldN { shape, pstride, cur, .. } = self;
        assert_eq!(tables.len(), shape.iter().sum::<usize>(), "one factor per axis node");
        let origin: usize = pstride.iter().sum();
        let (t0, higher) = tables.split_at(shape[0]);
        for_each_slab_row(shape, pstride, origin, 0, shape[shape.len() - 1], &mut |off, n| {
            let row = &mut cur[off..off + n];
            row.copy_from_slice(t0);
            // The row's index along each higher axis is a digit of its
            // padded offset; its factor scales the whole row.
            let mut table = higher;
            for (&extent, &stride) in shape.iter().zip(pstride.iter()).skip(1) {
                let f = table[(off / stride) % (extent + 2) - 1];
                row.iter_mut().for_each(|v| *v *= f);
                table = &table[extent..];
            }
        });
    }

    /// [`for_each_interior_row`](Self::for_each_interior_row), writable:
    /// the same runs in the same order. The halo is left stale.
    pub fn for_each_interior_row_mut(&mut self, f: &mut dyn FnMut(&mut [f64])) {
        let PaddedFieldN { shape, pstride, cur, .. } = self;
        let origin: usize = pstride.iter().sum();
        for_each_slab_row(shape, pstride, origin, 0, shape[shape.len() - 1], &mut |off, n| {
            f(&mut cur[off..off + n]);
        });
    }

    /// Wrap the halo of axes `from..upto` periodically from the interior.
    /// Axis `a`'s pass covers the full padded extent of axes `< a` and
    /// the interior extent of axes `> a`, so corners shared by wrapped
    /// axes come out consistent (same scheme as the 2D path: columns
    /// first, then whole padded rows). Axes `< a` spanning their full
    /// padded extent makes each copy one contiguous run of `pstride[a]`
    /// values — single cells for axis 0, whole padded rows for axis 1,
    /// whole padded planes for axis 2, ….
    fn wrap_axes_from(&mut self, from: usize, upto: usize) {
        let PaddedFieldN { shape, pstride, cur, .. } = self;
        for a in from..upto {
            let (n, run) = (shape[a], pstride[a]);
            // Later axes start at their first interior index.
            let base: usize = pstride[a + 1..].iter().sum();
            for_each_offset(&shape[a + 1..], &pstride[a + 1..], base, &mut |off| {
                if run == 1 {
                    cur[off] = cur[off + n];
                    cur[off + n + 1] = cur[off + 1];
                } else {
                    cur.copy_within(off + n * run..off + (n + 1) * run, off);
                    cur.copy_within(off + run..off + 2 * run, off + (n + 1) * run);
                }
            });
        }
    }

    /// Fill the whole halo by periodic wrap of the interior (single-owner
    /// solves).
    pub fn refresh_periodic_halo(&mut self) {
        let d = self.dim();
        self.wrap_axes_from(0, d);
    }

    /// Wrap only the transverse axes (all but the last): the distributed
    /// slab solver owns those directions entirely; the last-axis halo
    /// planes come from neighbour ranks *after* this call, so the
    /// exchanged planes already carry consistent transverse corners.
    pub fn wrap_transverse_halo(&mut self) {
        let d = self.dim();
        self.wrap_axes_from(0, d - 1);
    }

    /// Length of one padded hyperplane normal to the last axis — the
    /// contiguous unit of the distributed halo exchange.
    pub fn plane_len(&self) -> usize {
        *self.pstride.last().unwrap()
    }

    /// The contiguous padded plane at padded last-axis index `z`.
    pub fn plane(&self, z: usize) -> &[f64] {
        let s = self.plane_len();
        &self.cur[z * s..(z + 1) * s]
    }

    /// Overwrite the padded plane at padded last-axis index `z` (halo
    /// plane fill from a neighbour's boundary plane).
    pub fn set_plane(&mut self, z: usize, data: &[f64]) {
        let s = self.plane_len();
        self.cur[z * s..(z + 1) * s].copy_from_slice(data);
    }

    /// The production stepping primitive: update last-axis interior
    /// planes `z0..z1` row by row, without swapping. `row` receives the
    /// current padded buffer, the padded offset of a row's first cell and
    /// the row's slot in the other buffer, and must write every cell of
    /// it. A full timestep is a disjoint cover by `step_rows` calls
    /// followed by one [`commit_step`](Self::commit_step); rows never
    /// read the buffer they write, so any cover is bitwise equal to a
    /// monolithic step. Allocation-free.
    pub fn step_rows(&mut self, z0: usize, z1: usize, row: impl Fn(&[f64], usize, &mut [f64])) {
        if self.next.is_empty() {
            self.next = vec![0.0; self.cur.len()];
        }
        let PaddedFieldN { shape, pstride, cur, next, .. } = self;
        debug_assert!(z1 <= shape[shape.len() - 1]);
        let origin: usize = pstride.iter().sum();
        for_each_slab_row(shape, pstride, origin, z0, z1, &mut |off, n| {
            row(cur, off, &mut next[off..off + n]);
        });
    }

    /// One timestep by point closure — the reference formulation:
    /// `kernel` receives the current padded buffer and the center offset
    /// of each interior point and returns its new value; the buffers then
    /// swap. The halo of the new current buffer is stale until the next
    /// refresh/exchange.
    pub fn step_with(&mut self, kernel: impl Fn(&[f64], usize) -> f64) {
        self.step_planes(0, self.shape[self.dim() - 1], kernel);
        self.commit_step();
    }

    /// [`step_with`](Self::step_with) restricted to last-axis interior
    /// planes `z0..z1`, without swapping. A full timestep is a disjoint
    /// cover by `step_planes` calls followed by one
    /// [`commit_step`](Self::commit_step) — each point evaluates the same
    /// expression, so a decomposed step is bitwise equal to a monolithic
    /// one.
    pub fn step_planes(&mut self, z0: usize, z1: usize, kernel: impl Fn(&[f64], usize) -> f64) {
        self.step_rows(z0, z1, |cur, off, out| {
            for (k, v) in out.iter_mut().enumerate() {
                *v = kernel(cur, off + k);
            }
        });
    }

    /// Commit a timestep assembled from [`step_rows`](Self::step_rows) /
    /// [`step_planes`](Self::step_planes) calls: swap the buffers.
    pub fn commit_step(&mut self) {
        debug_assert!(!self.next.is_empty(), "a step commits a spare it has written");
        std::mem::swap(&mut self.cur, &mut self.next);
    }
}

/// Call `f(padded offset, grid offset)` for the first cell of every
/// axis-0 row of the fundamental domain a field of interior `shape`
/// shares with its grid (`shape[i] + 1` points per axis, seam included).
fn for_each_grid_row(shape: &[usize], pstride: &[usize], mut f: impl FnMut(usize, usize)) {
    let d = shape.len();
    let mut gstride = vec![1usize; d];
    for i in 1..d {
        gstride[i] = gstride[i - 1] * (shape[i - 1] + 1);
    }
    let origin: usize = pstride.iter().sum();
    let mut hi = vec![0usize; d - 1];
    loop {
        let row = |strides: &[usize]| -> usize {
            hi.iter().zip(&strides[1..]).map(|(&k, &s)| k * s).sum()
        };
        f(origin + row(pstride), row(&gstride));
        if !advance(&mut hi, &shape[1..]) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::PaddedField;

    #[test]
    fn halo_wrap_matches_2d_reference() {
        // The d=2 instantiation of the generic wrap must reproduce the
        // tuned 2D field's halo bit for bit.
        let (nx, ny) = (5, 3);
        let mut f2 = PaddedField::new(nx, ny);
        let mut fnd = PaddedFieldN::new(&[nx, ny]);
        for (i, v) in f2.padded_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.61).sin();
        }
        fnd.padded_mut().copy_from_slice(f2.padded());
        f2.refresh_periodic_halo();
        fnd.refresh_periodic_halo();
        assert_eq!(f2.padded(), fnd.padded());
    }

    #[test]
    fn halo_wrap_3d_faces_edges_corners() {
        let mut f = PaddedFieldN::new(&[3, 4, 2]);
        // Deterministic interior fill.
        let mut idx = [0usize; 3];
        let shape = [3usize, 4, 2];
        loop {
            let off: usize = idx.iter().zip(f.pstrides()).map(|(&k, &s)| (k + 1) * s).sum();
            f.padded_mut()[off] = (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64;
            if !advance(&mut idx, &shape) {
                break;
            }
        }
        f.refresh_periodic_halo();
        let p = f.padded().to_vec();
        let ps = f.pstrides().to_vec();
        let wrap = |k: isize, n: usize| -> usize { (k - 1).rem_euclid(n as isize) as usize };
        // Every padded point equals the periodic image of the interior —
        // faces, edges and corners alike.
        for z in 0..4usize {
            for y in 0..6usize {
                for x in 0..5usize {
                    let want_idx = [wrap(x as isize, 3), wrap(y as isize, 4), wrap(z as isize, 2)];
                    let want = (want_idx[0] * 100 + want_idx[1] * 10 + want_idx[2]) as f64;
                    let off = x * ps[0] + y * ps[1] + z * ps[2];
                    assert_eq!(p[off], want, "at padded ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn load_store_roundtrip_reasserts_seams() {
        let g0 = GridN::from_fn(&[2, 2, 2], |x| (x[0] * 5.0).sin() + x[1] - x[2] * x[0]);
        let mut f = PaddedFieldN::from_grid(&g0);
        let mut g1 = GridN::zeros(&[2, 2, 2]);
        f.load(&g0);
        f.store(&mut g1);
        // Interior matches; every seam duplicates node 0 of its axis.
        let mut idx = [0usize; 3];
        loop {
            let mut src = idx;
            for (v, &n) in src.iter_mut().zip(g1.shape()) {
                if *v == n - 1 {
                    *v = 0;
                }
            }
            assert_eq!(g1.at(&idx), g0.at(&src), "at {idx:?}");
            if !advance(&mut idx, g1.shape()) {
                break;
            }
        }
    }

    #[test]
    fn plane_decomposed_step_is_bitwise_equal() {
        let kernel = |cur: &[f64], off: usize| {
            // A 7-point-ish stencil via fixed strides captured below.
            cur[off] * 0.4 + cur[off - 1] * 0.3 + cur[off + 1] * 0.3
        };
        let mut whole = PaddedFieldN::new(&[4, 3, 3]);
        for (i, v) in whole.padded_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.17).cos();
        }
        let mut parts = whole.clone();
        whole.refresh_periodic_halo();
        parts.refresh_periodic_halo();
        whole.step_with(kernel);
        parts.step_planes(0, 1, kernel);
        parts.step_planes(1, 3, kernel);
        parts.commit_step();
        assert_eq!(whole.padded()[..], parts.padded()[..]);
    }

    /// Step, release the spare, step again: bit for bit what stepping
    /// with the spare kept gives, whether the next step is one
    /// `step_rows` sweep or a plane-decomposed cover (either one
    /// re-creates the spare), at the 2D stepper's shapes and at 3D ones.
    /// A released spare is not part of the state: the fields compare
    /// equal.
    #[test]
    fn a_released_spare_steps_bitwise_as_a_kept_one() {
        let kernel =
            |cur: &[f64], off: usize| cur[off] * 0.4 + cur[off - 1] * 0.35 + cur[off + 1] * 0.25;
        let shapes: [&[usize]; 8] =
            [&[8, 6], &[1, 5], &[5, 1], &[2, 2], &[1, 1], &[4, 3, 3], &[3, 1, 2], &[1, 1, 1]];
        for shape in shapes {
            let mut kept = PaddedFieldN::new(shape);
            for (i, v) in kept.padded_mut().iter_mut().enumerate() {
                *v = (i as f64 * 0.37).sin();
            }
            kept.refresh_periodic_halo();
            kept.step_with(kernel);
            let (mut whole, mut parts) = (kept.clone(), kept.clone());
            whole.release_spare();
            parts.release_spare();
            assert_eq!(whole, kept, "{shape:?}: only the spare differs");
            for f in [&mut kept, &mut whole, &mut parts] {
                f.refresh_periodic_halo();
            }
            kept.step_with(kernel);
            whole.step_with(kernel);
            let planes = shape[shape.len() - 1];
            parts.step_planes(0, 1, kernel);
            parts.step_planes(1, planes, kernel);
            parts.commit_step();
            for f in [&mut kept, &mut whole, &mut parts] {
                f.refresh_periodic_halo();
            }
            assert_eq!(whole.padded(), kept.padded(), "{shape:?}: one sweep");
            assert_eq!(parts.padded(), kept.padded(), "{shape:?}: planes");
        }
    }

    #[test]
    fn plane_exchange_roundtrip() {
        let mut f = PaddedFieldN::new(&[3, 3, 4]);
        f.refresh_periodic_halo();
        let len = f.plane_len();
        assert_eq!(len, 5 * 5);
        let data: Vec<f64> = (0..len).map(|i| i as f64).collect();
        f.set_plane(0, &data);
        assert_eq!(f.plane(0), &data[..]);
    }
}
