//! Anisotropic d-dimensional component grids on the unit cube.
//!
//! [`GridN`] is the d-dimensional sibling of [`crate::Grid2`]: nodal
//! values on the `(2^{l_0}+1) × … × (2^{l_{d-1}}+1)` lattice over
//! `[0,1]^d`, stored row-major with axis 0 fastest (the same x-fastest
//! convention as the 2D path, so a d=2 `GridN` and a `Grid2` share the
//! exact memory layout). Evaluation anywhere in the cube is d-linear per
//! cell — the interpolant the combination technique is defined over.
//!
//! ## Grid walks
//!
//! [`GridN::eval`] is the pinned per-point reference. Everything that
//! visits a whole lattice — [`GridN::sample_to`], [`GridN::restrict_to`],
//! [`GridN::fill_from`], [`GridN::l1_error_vs`] and both branches of
//! [`crate::combine_onto_into_nd`] — walks contiguous axis-0 rows with
//! scratch allocated once per call, never per node: interpolating walks
//! go through `InterpWalk`'s per-axis `(offset, weights)` tables,
//! injecting walks through `inject_rows`. Both evaluate, node for node,
//! the expression `eval` evaluates, so they are bitwise equal to a
//! per-node `eval` fold (`tests/nd_props.rs` pins it).

use crate::ndim::LevelVecN;

/// Nodal values of one d-dimensional component grid.
///
/// ```
/// use sparsegrid::GridN;
///
/// // A 5 × 3 × 3 grid sampling f(x) = x0 + 2 x1 + 4 x2.
/// let g = GridN::from_fn(&[2, 1, 1], |x| x[0] + 2.0 * x[1] + 4.0 * x[2]);
/// assert_eq!(g.shape(), &[5, 3, 3]);
/// // Trilinear evaluation reproduces trilinear functions exactly.
/// assert!((g.eval(&[0.3, 0.7, 0.5]) - (0.3 + 1.4 + 2.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridN {
    level: LevelVecN,
    shape: Vec<usize>,
    stride: Vec<usize>,
    data: Vec<f64>,
}

/// Points per axis for a level: `2^l + 1` (both boundaries included).
pub fn points_of(l: u32) -> usize {
    (1usize << l) + 1
}

/// Shape, row-major strides and node count of the lattice at `level`.
fn geometry(level: &[u32]) -> (Vec<usize>, Vec<usize>, usize) {
    assert!(!level.is_empty(), "level vector must be non-empty");
    let shape: Vec<usize> = level.iter().map(|&l| points_of(l)).collect();
    let mut stride = vec![1usize; shape.len()];
    for i in 1..shape.len() {
        stride[i] = stride[i - 1] * shape[i - 1];
    }
    let total = stride.last().unwrap() * shape.last().unwrap();
    (shape, stride, total)
}

impl GridN {
    /// Zero-initialized grid at the given level vector.
    pub fn zeros(level: &[u32]) -> Self {
        let (shape, stride, total) = geometry(level);
        GridN { level: level.to_vec(), shape, stride, data: vec![0.0; total] }
    }

    /// Grid sampled from a function of `x ∈ [0,1]^d`.
    pub fn from_fn(level: &[u32], f: impl Fn(&[f64]) -> f64) -> Self {
        let mut g = GridN::zeros(level);
        g.fill_from(f);
        g
    }

    /// Rebuild from raw parts (checkpoint restore, message reassembly).
    /// Errors if the buffer length does not match the level.
    pub fn from_raw(level: &[u32], data: Vec<f64>) -> Result<Self, String> {
        let (shape, stride, total) = geometry(level);
        if data.len() != total {
            return Err(format!("grid {level:?}: expected {total} values, got {}", data.len()));
        }
        Ok(GridN { level: level.to_vec(), shape, stride, data })
    }

    /// Reuse or re-shape: make this grid one at `level`, keeping its
    /// value allocation — the d-dimensional [`crate::Grid2::reshape`].
    /// At the same level nothing moves; otherwise shape, strides and the
    /// value count follow `level`, the values growing — if they must — to
    /// exactly that count. Node values are **unspecified** afterwards
    /// (stale contents, zeros where the buffer grew): for in-place
    /// assembly that overwrites every node.
    pub fn reshape(&mut self, level: &[u32]) {
        if level != self.level.as_slice() {
            let (shape, stride, total) = geometry(level);
            (self.shape, self.stride) = (shape, stride);
            self.level.clear();
            self.level.extend_from_slice(level);
            self.data.reserve_exact(total.saturating_sub(self.data.len()));
            self.data.resize(total, 0.0);
        }
    }

    /// The grid's level vector.
    pub fn level(&self) -> &[u32] {
        &self.level
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.level.len()
    }

    /// Points per axis.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Row-major strides (axis 0 fastest).
    pub fn strides(&self) -> &[usize] {
        &self.stride
    }

    /// Mesh width per axis.
    pub fn spacing(&self) -> Vec<f64> {
        self.shape.iter().map(|&n| 1.0 / (n - 1) as f64).collect()
    }

    /// Linear index of a multi-index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.dim());
        idx.iter().zip(&self.stride).map(|(&k, &s)| k * s).sum()
    }

    /// Nodal value at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[self.offset(idx)]
    }

    /// Mutable nodal value at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let o = self.offset(idx);
        &mut self.data[o]
    }

    /// Raw values, row-major with axis 0 fastest.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The coordinates of a node.
    pub fn coords(&self, idx: &[usize]) -> Vec<f64> {
        idx.iter().zip(&self.shape).map(|(&k, &n)| k as f64 / (n - 1) as f64).collect()
    }

    /// d-linear evaluation at an arbitrary point of `[0,1]^d` (clamped).
    ///
    /// The per-point reference: it allocates its corner scratch on every
    /// call, so whole-lattice walks go through `InterpWalk` instead,
    /// which is tested bitwise against a fold of this function.
    pub fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        let d = self.dim();
        // Base corner + fractional offset per axis.
        let mut base = vec![0usize; d];
        let mut frac = vec![0.0f64; d];
        for i in 0..d {
            let f = x[i].clamp(0.0, 1.0) * (self.shape[i] - 1) as f64;
            let k0 = (f.floor() as usize).min(self.shape[i] - 2);
            base[i] = k0;
            frac[i] = f - k0 as f64;
        }
        let base_off = self.offset(&base);
        let mut acc = 0.0;
        for corner in 0..(1usize << d) {
            let mut w = 1.0;
            let mut off = base_off;
            for (i, &fr) in frac.iter().enumerate() {
                if (corner >> i) & 1 == 1 {
                    w *= fr;
                    off += self.stride[i];
                } else {
                    w *= 1.0 - fr;
                }
            }
            acc += w * self.data[off];
        }
        acc
    }

    /// Exact restriction (injection) onto a coarser-or-equal level: every
    /// target node coincides with a source node. Panics if `target` is
    /// finer than this grid along any axis.
    pub fn restrict_to(&self, target: &[u32]) -> GridN {
        assert_eq!(target.len(), self.dim());
        assert!(
            target.iter().zip(&self.level).all(|(&t, &s)| t <= s),
            "restrict_to: target {target:?} is not ≤ source {:?}",
            self.level
        );
        let mut out = GridN::zeros(target);
        inject_rows(self, &mut out, |o, v| *o = v);
        out
    }

    /// Sample (d-linearly) onto an arbitrary level — exact where nodes
    /// coincide, interpolating otherwise. Used by the Alternate
    /// Combination technique to materialize a recovered grid from the
    /// combined solution.
    pub fn sample_to(&self, target: &[u32]) -> GridN {
        let mut out = GridN::zeros(target);
        let mut walk = InterpWalk::new(&out.shape);
        // Node coordinates exactly as `coords` computes them.
        let denom: Vec<f64> = out.shape.iter().map(|&n| (n - 1) as f64).collect();
        walk.aim(self, |i, k| k as f64 / denom[i]);
        walk.run(self, &mut out.data, |o, v| *o = v);
        out
    }

    /// `self += coeff * other`, requiring identical levels.
    pub fn axpy(&mut self, coeff: f64, other: &GridN) {
        assert_eq!(self.level, other.level, "axpy level mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += coeff * b;
        }
    }

    /// Fill from a function (reusing the allocation).
    pub fn fill_from(&mut self, f: impl Fn(&[f64]) -> f64) {
        let data = &mut self.data;
        walk_coords(&self.shape, |o, x| data[o] = f(x));
    }

    /// Mean absolute nodal difference against a reference function —
    /// the d-dimensional analogue of the 2D L1 error norm.
    pub fn l1_error_vs(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        let mut sum = 0.0;
        walk_coords(&self.shape, |o, x| sum += (self.data[o] - f(x)).abs());
        sum / self.data.len() as f64
    }

    /// Re-assert the periodic seams: the last node of every axis
    /// duplicates node 0. Axis by axis — axes already seamed (`< a`)
    /// range over their full extent, later axes stay below their seam
    /// (their own pass fills it) — so edges and corners come out
    /// consistent. Axes `< a` spanning their full extent makes every copy
    /// of axis `a`'s pass one contiguous run of `stride[a]` values.
    pub fn apply_periodic_seams(&mut self) {
        let below_seam: Vec<usize> = self.shape.iter().map(|&n| n - 1).collect();
        let GridN { stride, data, .. } = self;
        for a in 0..stride.len() {
            let (run, seam) = (stride[a], below_seam[a] * stride[a]);
            for_each_offset(&below_seam[a + 1..], &stride[a + 1..], 0, &mut |off| {
                data.copy_within(off..off + run, off + seam);
            });
        }
    }

    /// Byte size of the nodal data (checkpoint sizing).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

/// Odometer increment over a multi-index bounded by `shape`
/// (axis 0 fastest). Returns false once the index space is exhausted.
#[inline]
pub fn advance(idx: &mut [usize], shape: &[usize]) -> bool {
    for i in 0..idx.len() {
        idx[i] += 1;
        if idx[i] < shape[i] {
            return true;
        }
        idx[i] = 0;
    }
    false
}

/// Call `f` with the linear offset `base + Σ k_j · strides[j]` of every
/// index tuple `k_j < extents[j]`, first axis fastest (increasing memory
/// order for row-major strides). Allocation-free: the index lives on the
/// call stack, one frame per axis — the walk the per-step paths use,
/// where [`advance`] would need a heap odometer.
pub fn for_each_offset(
    extents: &[usize],
    strides: &[usize],
    base: usize,
    f: &mut impl FnMut(usize),
) {
    debug_assert_eq!(extents.len(), strides.len());
    match extents.split_last() {
        None => f(base),
        Some((&n, rest)) => {
            let s = strides[rest.len()];
            for k in 0..n {
                for_each_offset(rest, &strides[..rest.len()], base + k * s, f);
            }
        }
    }
}

/// Call `f(offset, len)` for every contiguous axis-0 row of the last-axis
/// planes `z0..z1` of a row-major block, in memory order. `shape` and
/// `strides` describe the block inside its buffer (`origin` is the offset
/// of its first node), so the same walk serves a grid's fundamental
/// domain and the interior of a halo-padded field. At d = 1 the last
/// axis *is* axis 0 and the slab is a single row of `z1 − z0` values.
pub fn for_each_slab_row(
    shape: &[usize],
    strides: &[usize],
    origin: usize,
    z0: usize,
    z1: usize,
    f: &mut impl FnMut(usize, usize),
) {
    let last = shape.len() - 1;
    if z0 >= z1 {
        return;
    }
    if last == 0 {
        return f(origin + z0 * strides[0], z1 - z0);
    }
    for z in z0..z1 {
        let plane = origin + z * strides[last];
        for_each_offset(&shape[1..last], &strides[1..last], plane, &mut |off| f(off, shape[0]));
    }
}

/// Visit every node of a lattice in memory order with its coordinates,
/// computed exactly as [`GridN::coords`] does; one coordinate buffer and
/// one odometer per call.
fn walk_coords(shape: &[usize], mut f: impl FnMut(usize, &[f64])) {
    let mut x = vec![0.0f64; shape.len()];
    let mut hi = vec![0usize; shape.len() - 1];
    let mut node = 0;
    loop {
        for (j, &k) in hi.iter().enumerate() {
            x[j + 1] = k as f64 / (shape[j + 1] - 1) as f64;
        }
        for k in 0..shape[0] {
            x[0] = k as f64 / (shape[0] - 1) as f64;
            f(node, &x);
            node += 1;
        }
        if !advance(&mut hi, &shape[1..]) {
            return;
        }
    }
}

/// Injection walk: `apply(&mut out[node], src[node · step])` for every
/// node of `out`, whose level `src` must dominate componentwise (every
/// target node coincides with the source node `2^{s_i − t_i}` apart per
/// axis). Rows of `out` are contiguous; the matching source row is a
/// strided run.
pub(crate) fn inject_rows(src: &GridN, out: &mut GridN, apply: impl Fn(&mut f64, f64)) {
    // Source stride of one target index step, per axis.
    let step: Vec<usize> = (out.level.iter().zip(&src.level).zip(&src.stride))
        .map(|((&t, &s), &stride)| stride << (s - t))
        .collect();
    let n0 = out.shape[0];
    let mut hi = vec![0usize; out.dim() - 1];
    for row in out.data.chunks_exact_mut(n0) {
        let base: usize = hi.iter().zip(&step[1..]).map(|(&k, &s)| k * s).sum();
        for (k, o) in row.iter_mut().enumerate() {
            apply(o, src.data[base + k * step[0]]);
        }
        advance(&mut hi, &out.shape[1..]);
    }
}

/// Table-driven d-linear interpolation from a source grid onto every
/// node of a target lattice.
///
/// [`aim`](Self::aim) tabulates, per axis and target index, what
/// [`GridN::eval`] derives per point: with `f = clamp(x)·(n−1)` and
/// `k0 = min(⌊f⌋, n−2)`, the base-corner offset `k0·stride` and the
/// weight pair `[1 − frac, frac]`, `frac = f − k0`. [`run`](Self::run)
/// then walks rows: the corners of the axes above 0 are resolved once per
/// row, and each node folds its `2^d` corners in `eval`'s corner order
/// with `eval`'s weight product `((w_0 · w_1) · w_2) …` — products start
/// at axis 0, so nothing but the operands can be hoisted out of the node
/// loop without changing bits. All storage is allocated in
/// [`new`](Self::new), once per walk.
pub(crate) struct InterpWalk {
    shape: Vec<usize>,
    /// Axis `i`'s tables occupy `start[i]..start[i] + shape[i]`.
    start: Vec<usize>,
    off: Vec<usize>,
    weight: Vec<[f64; 2]>,
    /// Per row: source offset of each corner of the axes above 0 …
    corner_off: Vec<usize>,
    /// … and its `d − 1` weights in axis order.
    corner_w: Vec<f64>,
    hi: Vec<usize>,
}

impl InterpWalk {
    /// Scratch for walks over a target lattice of the given shape.
    pub(crate) fn new(target_shape: &[usize]) -> Self {
        let d = target_shape.len();
        let mut start = vec![0usize; d];
        for i in 1..d {
            start[i] = start[i - 1] + target_shape[i - 1];
        }
        let entries = start[d - 1] + target_shape[d - 1];
        let corners = 1usize << (d - 1);
        InterpWalk {
            shape: target_shape.to_vec(),
            start,
            off: vec![0; entries],
            weight: vec![[0.0; 2]; entries],
            corner_off: vec![0; corners],
            corner_w: vec![0.0; corners * (d - 1)],
            hi: vec![0; d - 1],
        }
    }

    /// Fill the tables for source `src`, the target node `k` of axis `i`
    /// sitting at coordinate `x_of(i, k)`.
    pub(crate) fn aim(&mut self, src: &GridN, x_of: impl Fn(usize, usize) -> f64) {
        assert_eq!(src.dim(), self.shape.len(), "interpolation dimension mismatch");
        for (i, &n) in self.shape.iter().enumerate() {
            for k in 0..n {
                let f = x_of(i, k).clamp(0.0, 1.0) * (src.shape[i] - 1) as f64;
                let k0 = (f.floor() as usize).min(src.shape[i] - 2);
                let frac = f - k0 as f64;
                self.off[self.start[i] + k] = k0 * src.stride[i];
                self.weight[self.start[i] + k] = [1.0 - frac, frac];
            }
        }
    }

    /// `apply(&mut out[node], src(x_node))` for every target node, in
    /// memory order, using the tables of the last [`aim`](Self::aim).
    pub(crate) fn run(&mut self, src: &GridN, out: &mut [f64], apply: impl Fn(&mut f64, f64)) {
        let InterpWalk { shape, start, off, weight, corner_off, corner_w, hi } = self;
        let (n0, upper) = (shape[0], shape.len() - 1);
        assert_eq!(out.len(), shape.iter().product::<usize>(), "target size mismatch");
        for row in out.chunks_exact_mut(n0) {
            for (h, c_off) in corner_off.iter_mut().enumerate() {
                *c_off = 0;
                for j in 0..upper {
                    let (bit, t) = ((h >> j) & 1, start[j + 1] + hi[j]);
                    *c_off += off[t] + bit * src.stride[j + 1];
                    corner_w[h * upper + j] = weight[t][bit];
                }
            }
            for (o, (&base, w0)) in row.iter_mut().zip(off.iter().zip(weight.iter())) {
                let mut acc = 0.0;
                for (h, &c_off) in corner_off.iter().enumerate() {
                    // `eval` starts each product at 1.0; 1.0 · w is w.
                    for (bit, &w_axis0) in w0.iter().enumerate() {
                        let mut w = w_axis0;
                        for &wj in &corner_w[h * upper..(h + 1) * upper] {
                            w *= wj;
                        }
                        acc += w * src.data[c_off + base + bit];
                    }
                }
                apply(o, acc);
            }
            advance(hi, &shape[1..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid2::Grid2;
    use crate::level::LevelPair;

    #[test]
    fn construction_and_indexing() {
        let g = GridN::from_fn(&[2, 1, 3], |x| x[0] + 10.0 * x[1] + 100.0 * x[2]);
        assert_eq!(g.shape(), &[5, 3, 9]);
        assert_eq!(g.at(&[0, 0, 0]), 0.0);
        assert_eq!(g.at(&[4, 0, 0]), 1.0);
        assert!((g.at(&[2, 1, 4]) - (0.5 + 5.0 + 50.0)).abs() < 1e-12);
    }

    #[test]
    fn d2_layout_matches_grid2_bitwise() {
        // The d=2 instantiation must share Grid2's exact memory layout —
        // the nd path can hand its buffers to the tuned 2D kernels.
        let f = |x: f64, y: f64| (x * 7.0).sin() * (y * 3.0).cos();
        let g2 = Grid2::from_fn(LevelPair::new(3, 4), f);
        let gn = GridN::from_fn(&[3, 4], |x| f(x[0], x[1]));
        assert_eq!(g2.values(), gn.values());
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(GridN::from_raw(&[1, 1, 1], vec![0.0; 27]).is_ok());
        assert!(GridN::from_raw(&[1, 1, 1], vec![0.0; 26]).is_err());
    }

    #[test]
    fn reshape_keeps_the_allocation_and_follows_the_level() {
        let mut g = GridN::from_fn(&[2, 1, 2], |x| x[0] - x[1] + x[2]);
        let (ptr, before) = (g.values().as_ptr(), g.clone());
        g.reshape(&[2, 1, 2]);
        assert_eq!(g, before, "same level: nothing moves");
        // Another dimension, fewer nodes, then back up to the old count.
        g.reshape(&[3, 2]);
        let fresh = GridN::zeros(&[3, 2]);
        assert_eq!(
            (g.level(), g.shape(), g.strides()),
            (&[3u32, 2][..], fresh.shape(), fresh.strides())
        );
        assert_eq!(g.values().len(), 45);
        g.reshape(&[1, 2, 2]);
        assert_eq!((g.dim(), g.values().len()), (3, 75));
        assert_eq!(g.values().as_ptr(), ptr, "75 nodes fit the 75-node allocation");
        assert_eq!(g.offset(&[2, 4, 4]), 74);
        // Growing past the allocation asks for the new count, not double.
        g.reshape(&[2, 2, 2]);
        assert_eq!((g.values().len(), g.data.capacity()), (125, 125));
    }

    #[test]
    fn eval_reproduces_trilinear_exactly() {
        let f = |x: &[f64]| 2.0 + 3.0 * x[0] - x[1] + 5.0 * x[0] * x[1] * x[2];
        let g = GridN::from_fn(&[3, 2, 2], f);
        for p in [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.3, 0.7, 0.2], [0.99, 0.01, 0.5]] {
            assert!((g.eval(&p) - f(&p)).abs() < 1e-12, "at {p:?}");
        }
    }

    #[test]
    fn restriction_is_exact_injection() {
        let fine = GridN::from_fn(&[4, 3, 3], |x| x[0] * x[0] + x[1] - x[2]);
        let coarse = fine.restrict_to(&[2, 3, 1]);
        assert_eq!(coarse.shape(), &[5, 9, 3]);
        let mut idx = vec![0usize; 3];
        loop {
            let x = coarse.coords(&idx);
            assert_eq!(coarse.at(&idx), fine.eval(&x));
            if !advance(&mut idx, coarse.shape()) {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "restrict_to")]
    fn restriction_to_finer_panics() {
        let g = GridN::zeros(&[2, 2, 2]);
        let _ = g.restrict_to(&[3, 2, 2]);
    }

    #[test]
    fn sample_to_finer_is_exact_on_linear() {
        let coarse = GridN::from_fn(&[2, 2, 2], |x| x[0] + x[1] + x[2]);
        let fine = coarse.sample_to(&[4, 3, 4]);
        let mut idx = vec![0usize; 3];
        loop {
            let x = fine.coords(&idx);
            assert!((fine.at(&idx) - (x[0] + x[1] + x[2])).abs() < 1e-13);
            if !advance(&mut idx, fine.shape()) {
                break;
            }
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = GridN::from_fn(&[2, 2], |x| x[0]);
        let b = GridN::from_fn(&[2, 2], |x| x[1]);
        a.axpy(-2.0, &b);
        assert!((a.at(&[4, 4]) - (1.0 - 2.0)).abs() < 1e-14);
    }

    #[test]
    fn l1_error_is_zero_on_exact_samples() {
        let f = |x: &[f64]| x[0] * 2.0 - x[1];
        let g = GridN::from_fn(&[3, 3], f);
        assert_eq!(g.l1_error_vs(f), 0.0);
    }

    #[test]
    fn from_raw_reports_both_lengths() {
        let err = GridN::from_raw(&[2, 1], vec![0.0; 14]).unwrap_err();
        assert_eq!(err, "grid [2, 1]: expected 15 values, got 14");
    }

    #[test]
    fn periodic_seams_match_the_2d_seam_pass() {
        // The 2D seam pass as `PaddedField::store` writes it: the seam
        // column of every row below the top, then the whole top row from
        // row 0. `Grid2`'s own pass (the transport's) must agree too.
        let lv = LevelPair::new(3, 2);
        let mut g2 = Grid2::from_fn(lv, |x, y| (x * 5.0).sin() + (y * 3.0).cos() + x * y);
        let mut gn = GridN::from_raw(&[3, 2], g2.values().to_vec()).unwrap();
        let mut via_trait = g2.clone();
        let (nx, ny) = (g2.nx() - 1, g2.ny() - 1);
        for m in 0..ny {
            let v = g2.at(0, m);
            *g2.at_mut(nx, m) = v;
        }
        for k in 0..=nx {
            let v = g2.at(k, 0);
            *g2.at_mut(k, ny) = v;
        }
        gn.apply_periodic_seams();
        crate::ComponentGrid::apply_periodic_seams(&mut via_trait);
        assert_eq!(gn.values(), g2.values());
        assert_eq!(via_trait, g2);
    }

    #[test]
    fn periodic_seams_make_every_axis_periodic() {
        let mut g = GridN::from_fn(&[2, 1, 2, 1], |x| x[0] + 3.0 * x[1] - x[2] * x[3] + x[3]);
        let before = g.clone();
        g.apply_periodic_seams();
        let mut idx = vec![0usize; 4];
        loop {
            // Every node equals the fundamental-domain node it wraps to.
            let src: Vec<usize> =
                idx.iter().zip(g.shape()).map(|(&k, &n)| if k == n - 1 { 0 } else { k }).collect();
            assert_eq!(g.at(&idx), before.at(&src), "at {idx:?}");
            if !advance(&mut idx, g.shape()) {
                break;
            }
        }
    }

    #[test]
    fn offset_walks_visit_rows_in_memory_order() {
        let g = GridN::zeros(&[1, 2, 1]); // 3 × 5 × 3
        let mut seen = Vec::new();
        for_each_offset(&g.shape()[1..], &g.strides()[1..], 0, &mut |off| seen.push(off));
        assert_eq!(seen, (0..15).map(|r| r * 3).collect::<Vec<_>>());
        // Planes 1..3 of the 2 × 4 × 2 fundamental domain.
        let mut rows = Vec::new();
        for_each_slab_row(&[2, 4, 2], g.strides(), 0, 1, 2, &mut |off, n| rows.push((off, n)));
        assert_eq!(rows, vec![(15, 2), (18, 2), (21, 2), (24, 2)]);
        // d = 1: the slab is one run along axis 0.
        let mut rows = Vec::new();
        for_each_slab_row(&[8], &[1], 1, 2, 5, &mut |off, n| rows.push((off, n)));
        assert_eq!(rows, vec![(3, 3)]);
    }

    #[test]
    fn interp_walk_matches_eval_at_arbitrary_coordinates() {
        // Grid-to-grid walks only ever meet dyadic fractions, whose
        // weight products are exact in any order. Aim the tables at
        // irrational coordinates (some outside [0, 1], to be clamped) so
        // that reassociating one product or reordering one corner moves
        // a bit.
        let src = GridN::from_fn(&[2, 3, 1], |x| (7.0 * x[0]).sin() + (3.0 * x[1]).cos() * x[2]);
        let shape = [7usize, 3, 5];
        let x_of = |i: usize, k: usize| (k as f64 + 0.37) * 0.173 * (i + 1) as f64 - 0.05;
        let mut walk = InterpWalk::new(&shape);
        walk.aim(&src, x_of);
        let mut got = vec![0.0; 7 * 3 * 5];
        // Twice: the odometer must come back to the first row.
        for _ in 0..2 {
            walk.run(&src, &mut got, |o, v| *o = v);
        }
        let mut idx = vec![0usize; 3];
        for g in got {
            let x: Vec<f64> = idx.iter().enumerate().map(|(i, &k)| x_of(i, k)).collect();
            assert_eq!(g.to_bits(), src.eval(&x).to_bits(), "at {idx:?}");
            advance(&mut idx, &shape);
        }
    }
}
