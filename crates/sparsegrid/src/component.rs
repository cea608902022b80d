//! What moving a whole component grid between ranks needs of it, stated
//! once for [`Grid2`] and [`GridN`].
//!
//! The gather–scatter of the combination (and of every data recovery) does
//! not depend on the dimension: a grid's level travels as one `u64` header
//! word per axis, its nodal values as one contiguous buffer, and a grid
//! assembled from member blocks gets its periodic seams re-asserted.
//! [`ComponentGrid`] is exactly that much of a grid.

use crate::grid2::Grid2;
use crate::level::LevelPair;
use crate::ndgrid::GridN;
use crate::ndim::LevelVecN;

/// A whole component grid as the transport sees it.
pub trait ComponentGrid: Sized {
    /// The level: a [`LevelPair`] or a [`LevelVecN`].
    type Level: Clone + PartialEq;

    /// A zero grid at `level`.
    fn zeros(level: &Self::Level) -> Self;
    /// Rebuild from raw values; an error if their count does not match
    /// `level`.
    fn from_raw(level: &Self::Level, data: Vec<f64>) -> Result<Self, String>;
    /// Re-shape to `level`, keeping the allocation; node values are
    /// unspecified afterwards.
    fn reshape(&mut self, level: &Self::Level);
    /// Raw values, axis 0 fastest.
    fn values(&self) -> &[f64];
    /// Mutable raw values.
    fn values_mut(&mut self) -> &mut [f64];
    /// Number of axes: the length of the level header.
    fn axes(&self) -> usize;
    /// The level as header words, one per axis, into `words`
    /// ([`axes`](Self::axes) long).
    fn header(&self, words: &mut [u64]);
    /// [`reshape`](Self::reshape) to the level header `words` spell.
    fn reshape_to_header(&mut self, words: &[u64]);
    /// Copy node 0 of every axis onto the axis' last node, the periodic
    /// seam, edges and corners included.
    fn apply_periodic_seams(&mut self);
}

impl ComponentGrid for Grid2 {
    type Level = LevelPair;

    fn zeros(level: &LevelPair) -> Self {
        Grid2::zeros(*level)
    }
    fn from_raw(level: &LevelPair, data: Vec<f64>) -> Result<Self, String> {
        Grid2::from_raw(*level, data)
    }
    fn reshape(&mut self, level: &LevelPair) {
        Grid2::reshape(self, *level)
    }
    fn values(&self) -> &[f64] {
        Grid2::values(self)
    }
    fn values_mut(&mut self) -> &mut [f64] {
        Grid2::values_mut(self)
    }
    fn axes(&self) -> usize {
        2
    }
    fn header(&self, words: &mut [u64]) {
        let level = self.level();
        words.copy_from_slice(&[level.i as u64, level.j as u64]);
    }
    fn reshape_to_header(&mut self, words: &[u64]) {
        Grid2::reshape(self, LevelPair::new(words[0] as u32, words[1] as u32))
    }
    /// The seam column of every row below the top, then the whole top row
    /// from row 0.
    fn apply_periodic_seams(&mut self) {
        let (nx, ny) = (self.nx(), self.ny());
        for m in 0..ny - 1 {
            let row = self.row_mut(m);
            row[nx - 1] = row[0];
        }
        Grid2::values_mut(self).copy_within(0..nx, (ny - 1) * nx);
    }
}

impl ComponentGrid for GridN {
    type Level = LevelVecN;

    fn zeros(level: &LevelVecN) -> Self {
        GridN::zeros(level)
    }
    fn from_raw(level: &LevelVecN, data: Vec<f64>) -> Result<Self, String> {
        GridN::from_raw(level, data)
    }
    fn reshape(&mut self, level: &LevelVecN) {
        GridN::reshape(self, level)
    }
    fn values(&self) -> &[f64] {
        GridN::values(self)
    }
    fn values_mut(&mut self) -> &mut [f64] {
        GridN::values_mut(self)
    }
    fn axes(&self) -> usize {
        self.dim()
    }
    fn header(&self, words: &mut [u64]) {
        for (word, &l) in words.iter_mut().zip(self.level()) {
            *word = l as u64;
        }
    }
    fn reshape_to_header(&mut self, words: &[u64]) {
        GridN::reshape(self, &words.iter().map(|&w| w as u32).collect::<LevelVecN>())
    }
    fn apply_periodic_seams(&mut self) {
        GridN::apply_periodic_seams(self)
    }
}
