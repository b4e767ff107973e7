//! Step-and-repeat reticle geometry of the Si-IF substrate.
//!
//! The wafer is far larger than one lithography reticle, so the substrate is
//! fabricated by stitching identical reticles, each covering a 12×6 block of
//! tiles (Sec. VIII). Wires that cross a reticle boundary are widened (2 µm
//! → 3 µm at constant pitch) to tolerate stitching misalignment; the
//! substrate router consumes this module to know where that rule applies.

use std::fmt;

use crate::{TileArray, TileCoord};

/// Position of a reticle within the step-and-repeat grid.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReticleCoord {
    /// Reticle column.
    pub x: u16,
    /// Reticle row.
    pub y: u16,
}

impl fmt::Display for ReticleCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reticle ({}, {})", self.x, self.y)
    }
}

/// The tiling of a [`TileArray`] by identical step-and-repeat reticles.
///
/// The paper's substrate uses 12×6-tile reticles
/// ([`ReticleGrid::PAPER_TILES_PER_RETICLE`]); partial reticles at the wafer
/// boundary carry the edge-connector fan-out instead of chiplets.
///
/// # Examples
///
/// ```
/// use wsp_topo::{ReticleGrid, TileArray, TileCoord};
///
/// let grid = ReticleGrid::paper_grid(TileArray::new(32, 32));
/// let r = grid.reticle_of(TileCoord::new(13, 3));
/// assert_eq!((r.x, r.y), (1, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReticleGrid {
    array: TileArray,
    tiles_x: u16,
    tiles_y: u16,
}

impl ReticleGrid {
    /// Tiles covered by one reticle in the prototype: 12 columns × 6 rows
    /// (72 tiles, Sec. VIII).
    pub const PAPER_TILES_PER_RETICLE: (u16, u16) = (12, 6);

    /// Creates a reticle grid with `tiles_x × tiles_y` tiles per reticle.
    ///
    /// # Panics
    ///
    /// Panics if either reticle dimension is zero.
    pub fn new(array: TileArray, tiles_x: u16, tiles_y: u16) -> Self {
        assert!(
            tiles_x > 0 && tiles_y > 0,
            "reticle dimensions must be non-zero"
        );
        ReticleGrid {
            array,
            tiles_x,
            tiles_y,
        }
    }

    /// Creates the paper's 12×6-tile reticle grid over `array`.
    pub fn paper_grid(array: TileArray) -> Self {
        let (tx, ty) = Self::PAPER_TILES_PER_RETICLE;
        ReticleGrid::new(array, tx, ty)
    }

    /// The underlying tile array.
    #[inline]
    pub fn array(self) -> TileArray {
        self.array
    }

    /// Number of reticle columns needed to cover the array (including
    /// partial reticles at the boundary).
    #[inline]
    pub fn reticle_cols(self) -> u16 {
        self.array.cols().div_ceil(self.tiles_x)
    }

    /// Number of reticle rows needed to cover the array.
    #[inline]
    pub fn reticle_rows(self) -> u16 {
        self.array.rows().div_ceil(self.tiles_y)
    }

    /// The reticle containing `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the array.
    #[inline]
    pub fn reticle_of(self, tile: TileCoord) -> ReticleCoord {
        assert!(self.array.contains(tile), "tile {tile} outside array");
        ReticleCoord {
            x: tile.x / self.tiles_x,
            y: tile.y / self.tiles_y,
        }
    }

    /// Returns `true` when `a` and `b` fall in different reticles, i.e. a
    /// wire between them must cross at least one stitching boundary and is
    /// subject to the fat-wire rule.
    pub fn crosses_boundary(self, a: TileCoord, b: TileCoord) -> bool {
        self.reticle_of(a) != self.reticle_of(b)
    }
}

impl fmt::Display for ReticleGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} reticles of {}x{} tiles",
            self.reticle_cols(),
            self.reticle_rows(),
            self.tiles_x,
            self.tiles_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_covers_wafer() {
        let grid = ReticleGrid::paper_grid(TileArray::new(32, 32));
        // 32/12 → 3 columns, 32/6 → 6 rows.
        assert_eq!(grid.reticle_cols(), 3);
        assert_eq!(grid.reticle_rows(), 6);
    }

    #[test]
    fn reticle_of_maps_block_wise() {
        let grid = ReticleGrid::paper_grid(TileArray::new(32, 32));
        assert_eq!(
            grid.reticle_of(TileCoord::new(0, 0)),
            ReticleCoord { x: 0, y: 0 }
        );
        assert_eq!(
            grid.reticle_of(TileCoord::new(11, 5)),
            ReticleCoord { x: 0, y: 0 }
        );
        assert_eq!(
            grid.reticle_of(TileCoord::new(12, 6)),
            ReticleCoord { x: 1, y: 1 }
        );
        assert_eq!(
            grid.reticle_of(TileCoord::new(31, 31)),
            ReticleCoord { x: 2, y: 5 }
        );
    }

    #[test]
    fn boundary_crossing() {
        let grid = ReticleGrid::paper_grid(TileArray::new(32, 32));
        assert!(!grid.crosses_boundary(TileCoord::new(0, 0), TileCoord::new(11, 5)));
        assert!(grid.crosses_boundary(TileCoord::new(11, 0), TileCoord::new(12, 0)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_reticle_dimension_rejected() {
        let _ = ReticleGrid::new(TileArray::new(4, 4), 0, 6);
    }

    #[test]
    fn display_summarises_grid() {
        let grid = ReticleGrid::paper_grid(TileArray::new(32, 32));
        assert_eq!(grid.to_string(), "3x6 reticles of 12x6 tiles");
    }
}
