//! Timestep selection and the shared stepping machinery.
//!
//! "As we use a fixed simulation timestep (Δt) across all grids for
//! stability purposes" — the timestep is set once, from the *finest*
//! resolution in the whole grid system (`h = 2⁻ⁿ`), and every component
//! grid advances with it.
//!
//! [`PaddedField`] is the allocation-free stepping engine of the
//! Lax–Wendroff solvers: a persistent double-buffered
//! halo-padded block where one timestep only refreshes the halo ring
//! (`O(perimeter)` copies) and ping-pongs the two buffers, instead of
//! rebuilding a padded copy of the whole field and copying the result
//! back (`O(area)` traffic plus two `Vec` reallocations per step).

use sparsegrid::Grid2;

use crate::problem::AdvectionProblem;

/// A persistent double-buffered halo-padded field.
///
/// Both buffers hold `(nx + 2) × (ny + 2)` values, row-major with x
/// fastest; the interior `nx × ny` block is the fundamental periodic
/// domain (node `N` of the grid duplicates node `0` and is *not*
/// stored). A timestep reads stencil rows from the current buffer and
/// writes each output row directly into the interior of the other
/// buffer, then the buffers swap; nothing is allocated and nothing is
/// copied except the halo ring.
///
/// The halo can be filled two ways: [`refresh_periodic_halo`] for the
/// single-owner periodic solvers, or externally (distributed halo
/// exchange) through [`padded_mut`].
///
/// [`refresh_periodic_halo`]: PaddedField::refresh_periodic_halo
/// [`padded_mut`]: PaddedField::padded_mut
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedField {
    nx: usize,
    ny: usize,
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl PaddedField {
    /// An all-zero field with an `nx × ny` interior.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx >= 1 && ny >= 1, "interior must be non-empty: {nx}x{ny}");
        let len = (nx + 2) * (ny + 2);
        PaddedField { nx, ny, cur: vec![0.0; len], next: vec![0.0; len] }
    }

    /// A field sized for `grid`'s fundamental domain, loaded from it.
    pub fn from_grid(grid: &Grid2) -> Self {
        let mut f = PaddedField::new(grid.nx() - 1, grid.ny() - 1);
        f.load(grid);
        f
    }

    /// Interior width (fundamental domain, seam excluded).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Interior height (fundamental domain, seam excluded).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Padded row stride.
    #[inline]
    pub fn pnx(&self) -> usize {
        self.nx + 2
    }

    /// Copy `grid`'s fundamental domain into the interior. The halo is
    /// left stale; refresh or exchange before stepping.
    pub fn load(&mut self, grid: &Grid2) {
        assert_eq!((grid.nx() - 1, grid.ny() - 1), (self.nx, self.ny), "grid size mismatch");
        let pnx = self.pnx();
        for m in 0..self.ny {
            let dst = &mut self.cur[(m + 1) * pnx + 1..][..self.nx];
            dst.copy_from_slice(&grid.row(m)[..self.nx]);
        }
    }

    /// Copy the interior back into `grid`'s fundamental domain and
    /// re-assert the periodic seam (node `N` duplicates node `0`).
    pub fn store(&self, grid: &mut Grid2) {
        assert_eq!((grid.nx() - 1, grid.ny() - 1), (self.nx, self.ny), "grid size mismatch");
        let pnx = self.pnx();
        for m in 0..self.ny {
            let src = &self.cur[(m + 1) * pnx + 1..][..self.nx];
            grid.row_mut(m)[..self.nx].copy_from_slice(src);
        }
        let (nx, ny) = (self.nx, self.ny);
        for m in 0..ny {
            let v = grid.at(0, m);
            *grid.at_mut(nx, m) = v;
        }
        for k in 0..grid.nx() {
            let v = grid.at(k, 0);
            *grid.at_mut(k, ny) = v;
        }
    }

    /// Fill the halo ring of the current buffer by periodic wrap of the
    /// interior: `O(nx + ny)` copies, the only per-step data motion
    /// besides the stencil itself.
    pub fn refresh_periodic_halo(&mut self) {
        let pnx = self.pnx();
        let (nx, ny) = (self.nx, self.ny);
        // Wrap columns first: west halo ← east interior column and vice
        // versa, for every interior row.
        for r in 1..=ny {
            let row = &mut self.cur[r * pnx..(r + 1) * pnx];
            row[0] = row[nx];
            row[nx + 1] = row[1];
        }
        // Then whole padded rows (including the just-wrapped corners):
        // south halo row ← top interior row, north halo row ← bottom
        // interior row.
        self.cur.copy_within(ny * pnx..(ny + 1) * pnx, 0);
        self.cur.copy_within(pnx..2 * pnx, (ny + 1) * pnx);
    }

    /// The current padded buffer (halo + interior).
    pub fn padded(&self) -> &[f64] {
        &self.cur
    }

    /// Mutable view of the current padded buffer, for external halo
    /// fills (distributed exchange) or direct interior edits.
    pub fn padded_mut(&mut self) -> &mut [f64] {
        &mut self.cur
    }

    /// Interior row `m` (of `ny`) as a slice of `nx` values.
    #[inline]
    pub fn interior_row(&self, m: usize) -> &[f64] {
        debug_assert!(m < self.ny);
        &self.cur[(m + 1) * self.pnx() + 1..][..self.nx]
    }

    /// One timestep: for each interior row `m`, `row_kernel` receives
    /// the three padded stencil rows (south, center, north — each
    /// `nx + 2` wide) from the current buffer and the `nx`-wide output
    /// row in the other buffer; the buffers then swap. The halo of the
    /// *new* current buffer is stale until the next refresh/exchange.
    pub fn step(&mut self, mut row_kernel: impl FnMut(&[f64], &[f64], &[f64], &mut [f64])) {
        let pnx = self.pnx();
        for m in 0..self.ny {
            let south = &self.cur[m * pnx..][..pnx];
            let center = &self.cur[(m + 1) * pnx..][..pnx];
            let north = &self.cur[(m + 2) * pnx..][..pnx];
            let out = &mut self.next[(m + 1) * pnx + 1..][..self.nx];
            row_kernel(south, center, north, out);
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Apply `row_kernel` to the sub-rectangle of interior rows
    /// `m0..m1` restricted to interior columns `k0..k1`, writing into the
    /// inactive buffer *without* swapping. A full timestep is any disjoint
    /// cover of the interior by `step_region` calls followed by one
    /// [`commit_step`] — each cell sees exactly the expression [`step`]
    /// would evaluate, so a region-decomposed step is bitwise equal to a
    /// monolithic one. This is what lets a distributed stepper compute the
    /// halo-independent interior while halo messages are still in flight.
    ///
    /// Empty ranges (`m0 >= m1` or `k0 >= k1`) are a no-op.
    ///
    /// [`commit_step`]: PaddedField::commit_step
    /// [`step`]: PaddedField::step
    pub fn step_region(
        &mut self,
        m0: usize,
        m1: usize,
        k0: usize,
        k1: usize,
        mut row_kernel: impl FnMut(&[f64], &[f64], &[f64], &mut [f64]),
    ) {
        debug_assert!(m1 <= self.ny && k1 <= self.nx, "region out of bounds");
        if m0 >= m1 || k0 >= k1 {
            return;
        }
        let pnx = self.pnx();
        let w = k1 - k0;
        for m in m0..m1 {
            let south = &self.cur[m * pnx + k0..][..w + 2];
            let center = &self.cur[(m + 1) * pnx + k0..][..w + 2];
            let north = &self.cur[(m + 2) * pnx + k0..][..w + 2];
            let out = &mut self.next[(m + 1) * pnx + 1 + k0..][..w];
            row_kernel(south, center, north, out);
        }
    }

    /// Commit a timestep assembled from [`step_region`] calls: swap the
    /// buffers. The halo of the new current buffer is stale until the next
    /// refresh/exchange, exactly as after [`step`].
    ///
    /// [`step_region`]: PaddedField::step_region
    /// [`step`]: PaddedField::step
    pub fn commit_step(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }
}

/// The shared time discretization of a combination solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGrid {
    /// Fixed timestep used by every component grid.
    pub dt: f64,
    /// Number of timesteps to run (the paper runs `2^13`).
    pub steps: u64,
}

impl TimeGrid {
    /// Choose `Δt` from the CFL condition on the finest mesh width of a
    /// system with full grid size `n`: `Δt = cfl / ((|aₓ| + |a_y|) · 2ⁿ)`.
    pub fn for_system(problem: &AdvectionProblem, n: u32, steps: u64, cfl: f64) -> Self {
        assert!(cfl > 0.0 && cfl <= 1.0, "CFL must be in (0, 1], got {cfl}");
        let h_min = 1.0 / (1u64 << n) as f64;
        let speed = problem.ax.abs() + problem.ay.abs();
        assert!(speed > 0.0, "advection velocity must be nonzero");
        let dt = cfl * h_min / speed;
        TimeGrid { dt, steps }
    }

    /// The paper's configuration: CFL 0.4 and `2^13` steps (scaled down to
    /// `2^k` for smaller reproductions).
    pub fn paper_like(problem: &AdvectionProblem, n: u32, log2_steps: u32) -> Self {
        Self::for_system(problem, n, 1u64 << log2_steps, 0.4)
    }

    /// Total simulated time.
    pub fn total_time(&self) -> f64 {
        self.dt * self.steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::AdvectionProblem;

    #[test]
    fn region_decomposed_step_is_bitwise_equal() {
        // A stencil with every dependency direction exercised.
        let kernel = |s: &[f64], c: &[f64], n: &[f64], out: &mut [f64]| {
            for k in 0..out.len() {
                out[k] = 0.5 * c[k + 1]
                    + 0.1 * (c[k] + c[k + 2])
                    + 0.2 * (s[k + 1] - n[k + 1])
                    + 0.05 * (s[k] * n[k + 2]);
            }
        };
        for (nx, ny) in [(8, 6), (1, 5), (5, 1), (2, 2), (1, 1)] {
            let mut whole = PaddedField::new(nx, ny);
            for (i, v) in whole.padded_mut().iter_mut().enumerate() {
                *v = (i as f64 * 0.37).sin();
            }
            let mut parts = whole.clone();
            whole.step(kernel);
            // The overlapped stepper's cover: deep interior, edge rows,
            // edge columns — disjoint and complete for every shape.
            parts.step_region(1, ny.saturating_sub(1), 1, nx.saturating_sub(1), kernel);
            parts.step_region(0, 1, 1, nx.saturating_sub(1), kernel);
            if ny > 1 {
                parts.step_region(ny - 1, ny, 1, nx.saturating_sub(1), kernel);
            }
            parts.step_region(0, ny, 0, 1, kernel);
            if nx > 1 {
                parts.step_region(0, ny, nx - 1, nx, kernel);
            }
            parts.commit_step();
            for m in 0..ny {
                assert_eq!(whole.interior_row(m), parts.interior_row(m), "{nx}x{ny} row {m}");
            }
        }
    }

    #[test]
    fn dt_respects_cfl_on_finest_grid() {
        let p = AdvectionProblem::standard(); // speed 2
        let tg = TimeGrid::for_system(&p, 10, 100, 0.5);
        // dt = 0.5 * 2^-10 / 2
        assert!((tg.dt - 0.5 / 2048.0).abs() < 1e-18);
        // CFL on the finest grid: (|ax|/h + |ay|/h) dt = 0.5.
        let h = 1.0 / 1024.0;
        let cfl = (p.ax.abs() + p.ay.abs()) * tg.dt / h;
        assert!((cfl - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_like_runs_pow2_steps() {
        let p = AdvectionProblem::standard();
        let tg = TimeGrid::paper_like(&p, 13, 13);
        assert_eq!(tg.steps, 8192);
        assert!(tg.total_time() > 0.0);
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn rejects_silly_cfl() {
        let p = AdvectionProblem::standard();
        let _ = TimeGrid::for_system(&p, 5, 10, 1.5);
    }
}
