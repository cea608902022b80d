//! Anisotropic 2D component grids on the unit square.
//!
//! A [`Grid2`] stores nodal values on the `(2^i+1) × (2^j+1)` lattice
//! `x_k = k / 2^i`, `y_m = m / 2^j` (both boundaries included), row-major
//! with x fastest — the layout the Lax–Wendroff stencil streams over.
//! Evaluation anywhere in `[0,1]²` is bilinear per cell, which is also the
//! interpolant the combination technique is defined over.

use crate::level::LevelPair;

/// Nodal values of one component grid.
///
/// ```
/// use sparsegrid::{Grid2, LevelPair};
///
/// // A 9 x 5 grid sampling f(x, y) = x + 2y on the unit square.
/// let g = Grid2::from_fn(LevelPair::new(3, 2), |x, y| x + 2.0 * y);
/// assert_eq!(g.nx(), 9);
/// assert_eq!(g.ny(), 5);
/// // Bilinear evaluation reproduces bilinear functions exactly.
/// assert!((g.eval(0.3, 0.7) - (0.3 + 1.4)).abs() < 1e-12);
/// // Exact restriction onto a coarser level.
/// let coarse = g.restrict_to(LevelPair::new(2, 2));
/// assert_eq!(coarse.nx(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2 {
    level: LevelPair,
    nx: usize,
    ny: usize,
    data: Vec<f64>,
}

impl Grid2 {
    /// Zero-initialized grid at the given level.
    pub fn zeros(level: LevelPair) -> Self {
        let (nx, ny) = (level.nx(), level.ny());
        Grid2 { level, nx, ny, data: vec![0.0; nx * ny] }
    }

    /// Grid sampled from a function of `(x, y) ∈ [0,1]²`.
    pub fn from_fn(level: LevelPair, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut g = Grid2::zeros(level);
        let (hx, hy) = g.spacing();
        for m in 0..g.ny {
            let y = m as f64 * hy;
            for k in 0..g.nx {
                let x = k as f64 * hx;
                g.data[m * g.nx + k] = f(x, y);
            }
        }
        g
    }

    /// Rebuild from raw parts (checkpoint restore, message reassembly).
    /// Errors if the buffer length does not match the level.
    pub fn from_raw(level: LevelPair, data: Vec<f64>) -> Result<Self, String> {
        let (nx, ny) = (level.nx(), level.ny());
        if data.len() != nx * ny {
            return Err(format!("grid {level}: expected {} values, got {}", nx * ny, data.len()));
        }
        Ok(Grid2 { level, nx, ny, data })
    }

    /// Reuse or re-shape: make this grid one at `level`, keeping its
    /// allocation. At the same level nothing moves; otherwise the value
    /// buffer is cut or extended to the new node count (the invariant
    /// `values().len() == nx * ny` holds either way), growing — if it must
    /// — to exactly that count, not by doubling. Node values are
    /// **unspecified** afterwards — whatever the buffer held, zeros where
    /// it grew — so this is for in-place assembly that overwrites every
    /// node, which must not pay a zero-fill first.
    pub fn reshape(&mut self, level: LevelPair) {
        if level != self.level {
            (self.level, self.nx, self.ny) = (level, level.nx(), level.ny());
            let n = self.nx * self.ny;
            self.data.reserve_exact(n.saturating_sub(self.data.len()));
            self.data.resize(n, 0.0);
        }
    }

    /// The grid's level pair.
    pub fn level(&self) -> LevelPair {
        self.level
    }

    /// Points along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Points along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Mesh widths `(hx, hy)`.
    pub fn spacing(&self) -> (f64, f64) {
        (1.0 / (self.nx - 1) as f64, 1.0 / (self.ny - 1) as f64)
    }

    /// Nodal value at index `(k, m)`.
    #[inline]
    pub fn at(&self, k: usize, m: usize) -> f64 {
        debug_assert!(k < self.nx && m < self.ny);
        self.data[m * self.nx + k]
    }

    /// Mutable nodal value at index `(k, m)`.
    #[inline]
    pub fn at_mut(&mut self, k: usize, m: usize) -> &mut f64 {
        debug_assert!(k < self.nx && m < self.ny);
        &mut self.data[m * self.nx + k]
    }

    /// Row `m` as a contiguous slice of `nx` values (x fastest).
    #[inline]
    pub fn row(&self, m: usize) -> &[f64] {
        debug_assert!(m < self.ny);
        &self.data[m * self.nx..(m + 1) * self.nx]
    }

    /// Row `m` as a mutable contiguous slice of `nx` values.
    #[inline]
    pub fn row_mut(&mut self, m: usize) -> &mut [f64] {
        debug_assert!(m < self.ny);
        &mut self.data[m * self.nx..(m + 1) * self.nx]
    }

    /// Raw values, row-major with x fastest.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The coordinates of node `(k, m)`.
    pub fn coords(&self, k: usize, m: usize) -> (f64, f64) {
        let (hx, hy) = self.spacing();
        (k as f64 * hx, m as f64 * hy)
    }

    /// Bilinear evaluation at an arbitrary point of `[0,1]²` (clamped).
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let fx = (x.clamp(0.0, 1.0)) * (self.nx - 1) as f64;
        let fy = (y.clamp(0.0, 1.0)) * (self.ny - 1) as f64;
        let k0 = (fx.floor() as usize).min(self.nx - 2);
        let m0 = (fy.floor() as usize).min(self.ny - 2);
        let tx = fx - k0 as f64;
        let ty = fy - m0 as f64;
        let v00 = self.at(k0, m0);
        let v10 = self.at(k0 + 1, m0);
        let v01 = self.at(k0, m0 + 1);
        let v11 = self.at(k0 + 1, m0 + 1);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }

    /// Exact restriction (injection) onto a coarser-or-equal level: every
    /// target node coincides with a source node, so no interpolation error
    /// is introduced. This is the paper's "resampling of the diagonal grid
    /// ... to recover the lost data of the lower diagonal sub-grid".
    ///
    /// Panics if `target` is finer than this grid in any direction.
    pub fn restrict_to(&self, target: LevelPair) -> Grid2 {
        assert!(
            target.leq(&self.level),
            "restrict_to: target {target} is not ≤ source {}",
            self.level
        );
        let sx = 1usize << (self.level.i - target.i);
        let sy = 1usize << (self.level.j - target.j);
        let mut out = Grid2::zeros(target);
        for m in 0..out.ny {
            for k in 0..out.nx {
                *out.at_mut(k, m) = self.at(k * sx, m * sy);
            }
        }
        out
    }

    /// Sample (bilinearly) onto an arbitrary level — exact where nodes
    /// coincide, interpolating otherwise. Used by the Alternate
    /// Combination technique to materialize a recovered grid from the
    /// combined solution.
    pub fn sample_to(&self, target: LevelPair) -> Grid2 {
        let mut out = Grid2::zeros(target);
        let (hx, hy) = out.spacing();
        for m in 0..out.ny {
            let y = m as f64 * hy;
            for k in 0..out.nx {
                let x = k as f64 * hx;
                *out.at_mut(k, m) = self.eval(x, y);
            }
        }
        out
    }

    /// `self += coeff * other`, requiring identical levels.
    pub fn axpy(&mut self, coeff: f64, other: &Grid2) {
        assert_eq!(self.level, other.level, "axpy level mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += coeff * b;
        }
    }

    /// Fill from a function (reusing the allocation).
    pub fn fill_from(&mut self, f: impl Fn(f64, f64) -> f64) {
        let (hx, hy) = self.spacing();
        for m in 0..self.ny {
            let y = m as f64 * hy;
            for k in 0..self.nx {
                let x = k as f64 * hx;
                self.data[m * self.nx + k] = f(x, y);
            }
        }
    }

    /// Byte size of the nodal data (checkpoint sizing).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(i: u32, j: u32) -> LevelPair {
        LevelPair::new(i, j)
    }

    #[test]
    fn construction_and_indexing() {
        let g = Grid2::from_fn(lv(2, 3), |x, y| x + 10.0 * y);
        assert_eq!(g.nx(), 5);
        assert_eq!(g.ny(), 9);
        assert_eq!(g.at(0, 0), 0.0);
        assert_eq!(g.at(4, 0), 1.0);
        assert!((g.at(2, 4) - (0.5 + 5.0)).abs() < 1e-15);
        let (x, y) = g.coords(4, 8);
        assert_eq!((x, y), (1.0, 1.0));
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(Grid2::from_raw(lv(1, 1), vec![0.0; 9]).is_ok());
        assert!(Grid2::from_raw(lv(1, 1), vec![0.0; 8]).is_err());
    }

    #[test]
    fn reshape_keeps_the_allocation_and_the_length_invariant() {
        let mut g = Grid2::from_fn(lv(3, 2), |x, y| 1.0 + x + y);
        let (ptr, before) = (g.values().as_ptr(), g.clone());
        g.reshape(lv(3, 2));
        assert_eq!(g, before, "same level: nothing moves");
        // Smaller, then back: the buffer is cut and re-extended in place.
        g.reshape(lv(1, 2));
        assert_eq!((g.nx(), g.ny(), g.values().len()), (3, 5, 15));
        assert_eq!(g.values().as_ptr(), ptr);
        g.reshape(lv(2, 3));
        assert_eq!((g.level(), g.values().len()), (lv(2, 3), 45));
        assert_eq!(g.values().as_ptr(), ptr, "45 nodes fit the 45-node allocation");
        assert_eq!(g.row(8).len(), 5);
        // Growing past the allocation asks for the new count, not double.
        g.reshape(lv(3, 3));
        assert_eq!((g.values().len(), g.data.capacity()), (81, 81));
    }

    #[test]
    fn eval_reproduces_bilinear_exactly() {
        let g = Grid2::from_fn(lv(3, 2), |x, y| 2.0 + 3.0 * x - y + 5.0 * x * y);
        for &(x, y) in &[(0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.125, 0.5), (0.99, 0.01)] {
            let exact = 2.0 + 3.0 * x - y + 5.0 * x * y;
            assert!(
                (g.eval(x, y) - exact).abs() < 1e-12,
                "bilinear must be reproduced exactly at ({x},{y})"
            );
        }
    }

    #[test]
    fn eval_at_nodes_is_injection() {
        let g = Grid2::from_fn(lv(4, 4), |x, y| (x * 7.0).sin() * (y * 3.0).cos());
        for m in 0..g.ny() {
            for k in 0..g.nx() {
                let (x, y) = g.coords(k, m);
                assert!((g.eval(x, y) - g.at(k, m)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn restriction_is_exact_injection() {
        let fine = Grid2::from_fn(lv(5, 4), |x, y| x * x + y);
        let coarse = fine.restrict_to(lv(3, 4));
        assert_eq!(coarse.nx(), 9);
        assert_eq!(coarse.ny(), 17);
        for m in 0..coarse.ny() {
            for k in 0..coarse.nx() {
                let (x, y) = coarse.coords(k, m);
                assert_eq!(coarse.at(k, m), fine.eval(x, y));
            }
        }
    }

    #[test]
    #[should_panic(expected = "restrict_to")]
    fn restriction_to_finer_panics() {
        let g = Grid2::zeros(lv(2, 2));
        let _ = g.restrict_to(lv(3, 2));
    }

    #[test]
    fn sample_to_finer_interpolates() {
        let coarse = Grid2::from_fn(lv(2, 2), |x, y| x + y);
        let fine = coarse.sample_to(lv(4, 4));
        // x + y is linear → interpolation is exact everywhere.
        for m in 0..fine.ny() {
            for k in 0..fine.nx() {
                let (x, y) = fine.coords(k, m);
                assert!((fine.at(k, m) - (x + y)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Grid2::from_fn(lv(2, 2), |x, _| x);
        let b = Grid2::from_fn(lv(2, 2), |_, y| y);
        a.axpy(-2.0, &b);
        assert!((a.eval(0.5, 0.25) - (0.5 - 0.5)).abs() < 1e-14);
        assert!((a.at(4, 4) - (1.0 - 2.0)).abs() < 1e-14);
    }

    #[test]
    fn byte_size_counts_f64s() {
        assert_eq!(Grid2::zeros(lv(1, 1)).byte_size(), 9 * 8);
    }
}
