//! The rectangular tile grid and coordinate arithmetic.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A position in the tile array: `x` is the column (grows east), `y` is the
/// row (grows south). The origin `(0, 0)` is the north-west corner, matching
/// the wafer micrographs in the paper.
///
/// # Examples
///
/// ```
/// use wsp_topo::TileCoord;
///
/// let t = TileCoord::new(3, 5);
/// assert_eq!(t.x, 3);
/// assert_eq!(t.y, 5);
/// assert_eq!(t.manhattan_distance(TileCoord::new(0, 0)), 8);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TileCoord {
    /// Column index, increasing eastwards.
    pub x: u16,
    /// Row index, increasing southwards.
    pub y: u16,
}

impl TileCoord {
    /// Creates a coordinate from column `x` and row `y`.
    #[inline]
    pub fn new(x: u16, y: u16) -> Self {
        TileCoord { x, y }
    }

    /// Manhattan (L1) distance between two tiles, in hops.
    #[inline]
    pub fn manhattan_distance(self, other: TileCoord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx + dy
    }

    /// Returns `true` when the two tiles share a row or a column.
    ///
    /// Pairs in the same row/column have only a single dimension-ordered
    /// path, which is why they dominate the residual disconnections in the
    /// paper's dual-network scheme (Sec. VI).
    #[inline]
    pub fn is_colinear_with(self, other: TileCoord) -> bool {
        self.x == other.x || self.y == other.y
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(u16, u16)> for TileCoord {
    fn from((x, y): (u16, u16)) -> Self {
        TileCoord::new(x, y)
    }
}

/// One of the four mesh directions.
///
/// The compute chiplet forwards its clock and escapes its network links on
/// all four sides, so almost every per-tile structure in the workspace is
/// indexed by `Direction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards decreasing `y`.
    North,
    /// Towards increasing `y`.
    South,
    /// Towards increasing `x`.
    East,
    /// Towards decreasing `x`.
    West,
}

/// All four directions in a fixed order (N, S, E, W), convenient for
/// iteration and for indexing per-side arrays.
pub const DIRECTIONS: [Direction; 4] = [
    Direction::North,
    Direction::South,
    Direction::East,
    Direction::West,
];

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// The `(dx, dy)` step this direction takes in grid coordinates.
    #[inline]
    pub fn offset(self) -> (i32, i32) {
        match self {
            Direction::North => (0, -1),
            Direction::South => (0, 1),
            Direction::East => (1, 0),
            Direction::West => (-1, 0),
        }
    }

    /// Index of this direction in [`DIRECTIONS`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
        }
    }

    /// Returns `true` for East/West, i.e. movement along the X dimension.
    #[inline]
    pub fn is_horizontal(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Direction::North => "north",
            Direction::South => "south",
            Direction::East => "east",
            Direction::West => "west",
        };
        f.write_str(name)
    }
}

/// A rectangular array of tiles — the waferscale grid itself.
///
/// The paper's prototype is `TileArray::new(32, 32)`; the FPGA validation
/// platform and several figures use smaller arrays (e.g. 8×8 for Fig. 4),
/// so the dimensions are parameters everywhere.
///
/// # Examples
///
/// ```
/// use wsp_topo::TileArray;
///
/// let array = TileArray::new(32, 32);
/// assert_eq!(array.tile_count(), 1024);
/// assert_eq!(array.edge_tiles().count(), 124);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileArray {
    cols: u16,
    rows: u16,
}

impl TileArray {
    /// Creates a `cols × rows` tile array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(
            cols > 0 && rows > 0,
            "tile array dimensions must be non-zero"
        );
        TileArray { cols, rows }
    }

    /// Number of columns (the X extent).
    #[inline]
    pub fn cols(self) -> u16 {
        self.cols
    }

    /// Number of rows (the Y extent).
    #[inline]
    pub fn rows(self) -> u16 {
        self.rows
    }

    /// Total number of tile sites.
    #[inline]
    pub fn tile_count(self) -> usize {
        usize::from(self.cols) * usize::from(self.rows)
    }

    /// Returns `true` when `tile` lies inside the array.
    #[inline]
    pub fn contains(self, tile: TileCoord) -> bool {
        tile.x < self.cols && tile.y < self.rows
    }

    /// Row-major linear index of `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is outside the array.
    #[inline]
    pub fn index_of(self, tile: TileCoord) -> usize {
        assert!(self.contains(tile), "tile {tile} outside {self}");
        usize::from(tile.y) * usize::from(self.cols) + usize::from(tile.x)
    }

    /// Inverse of [`TileArray::index_of`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.tile_count()`.
    #[inline]
    pub fn coord_of(self, index: usize) -> TileCoord {
        assert!(index < self.tile_count(), "index {index} outside {self}");
        TileCoord::new(
            (index % usize::from(self.cols)) as u16,
            (index / usize::from(self.cols)) as u16,
        )
    }

    /// Returns `true` when `tile` lies inside the array on its boundary;
    /// a tile outside the array is never an edge tile.
    ///
    /// Edge tiles are special throughout the design: they receive the 2.5 V
    /// supply, can host the clock generator, and connect to the external
    /// JTAG controllers.
    #[inline]
    pub fn is_edge(self, tile: TileCoord) -> bool {
        self.contains(tile)
            && (tile.x == 0 || tile.y == 0 || tile.x == self.cols - 1 || tile.y == self.rows - 1)
    }

    /// The neighbouring tile in `dir`, or `None` at the array boundary.
    #[inline]
    pub fn neighbor(self, tile: TileCoord, dir: Direction) -> Option<TileCoord> {
        let (dx, dy) = dir.offset();
        let nx = i32::from(tile.x) + dx;
        let ny = i32::from(tile.y) + dy;
        if nx < 0 || ny < 0 || nx >= i32::from(self.cols) || ny >= i32::from(self.rows) {
            None
        } else {
            Some(TileCoord::new(nx as u16, ny as u16))
        }
    }

    /// Iterates over the (up to four) in-bounds neighbours of `tile`.
    pub fn neighbors(self, tile: TileCoord) -> impl Iterator<Item = TileCoord> {
        DIRECTIONS
            .into_iter()
            .filter_map(move |d| self.neighbor(tile, d))
    }

    /// Iterates over every tile in row-major order.
    pub fn tiles(self) -> Tiles {
        Tiles {
            array: self,
            next: 0,
        }
    }

    /// Iterates over the boundary tiles in row-major order.
    pub fn edge_tiles(self) -> impl Iterator<Item = TileCoord> {
        self.tiles().filter(move |&t| self.is_edge(t))
    }

    /// Minimum number of hops from `tile` to the nearest array edge.
    ///
    /// Used by the PDN model: supply voltage droops with distance from the
    /// edge ring (Fig. 2), and by the clock model: only edge tiles generate
    /// the fast clock (Sec. IV).
    #[inline]
    pub fn distance_to_edge(self, tile: TileCoord) -> u16 {
        let dx = tile.x.min(self.cols - 1 - tile.x);
        let dy = tile.y.min(self.rows - 1 - tile.y);
        dx.min(dy)
    }
}

impl fmt::Display for TileArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} tile array", self.cols, self.rows)
    }
}

/// Row-major iterator over all tiles of a [`TileArray`], produced by
/// [`TileArray::tiles`].
#[derive(Debug, Clone)]
pub struct Tiles {
    array: TileArray,
    next: usize,
}

impl Iterator for Tiles {
    type Item = TileCoord;

    fn next(&mut self) -> Option<TileCoord> {
        if self.next >= self.array.tile_count() {
            None
        } else {
            let coord = self.array.coord_of(self.next);
            self.next += 1;
            Some(coord)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.array.tile_count() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Tiles {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let array = TileArray::new(7, 5);
        for (i, tile) in array.tiles().enumerate() {
            assert_eq!(array.index_of(tile), i);
            assert_eq!(array.coord_of(i), tile);
        }
    }

    #[test]
    fn tile_count_and_iteration_agree() {
        let array = TileArray::new(32, 32);
        assert_eq!(array.tiles().count(), array.tile_count());
        assert_eq!(array.tiles().len(), 1024);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = TileArray::new(0, 4);
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let array = TileArray::new(3, 3);
        let corner = TileCoord::new(0, 0);
        assert_eq!(array.neighbor(corner, Direction::North), None);
        assert_eq!(array.neighbor(corner, Direction::West), None);
        assert_eq!(
            array.neighbor(corner, Direction::South),
            Some(TileCoord::new(0, 1))
        );
        assert_eq!(
            array.neighbor(corner, Direction::East),
            Some(TileCoord::new(1, 0))
        );
        assert_eq!(array.neighbors(corner).count(), 2);
        assert_eq!(array.neighbors(TileCoord::new(1, 1)).count(), 4);
    }

    #[test]
    fn direction_opposites_and_offsets() {
        for d in DIRECTIONS {
            assert_eq!(d.opposite().opposite(), d);
            let (dx, dy) = d.offset();
            let (ox, oy) = d.opposite().offset();
            assert_eq!((dx + ox, dy + oy), (0, 0));
            assert_eq!(DIRECTIONS[d.index()], d);
        }
        assert!(Direction::East.is_horizontal());
        assert!(!Direction::North.is_horizontal());
    }

    #[test]
    fn edge_classification() {
        let array = TileArray::new(4, 4);
        assert_eq!(array.edge_tiles().count(), 12);
        assert!(array.is_edge(TileCoord::new(0, 2)));
        assert!(!array.is_edge(TileCoord::new(1, 1)));
        assert!(array.tiles().all(|t| array.contains(t)));
    }

    #[test]
    fn tiles_outside_the_array_are_not_edge_tiles() {
        let array = TileArray::new(32, 32);
        for outside in [
            TileCoord::new(0, 500),
            TileCoord::new(31, 40),
            TileCoord::new(40, 31),
            TileCoord::new(32, 0),
        ] {
            assert!(!array.is_edge(outside), "{outside}");
        }
        assert!(array.is_edge(TileCoord::new(0, 31)));
        assert!(array.is_edge(TileCoord::new(31, 5)));
        assert_eq!(array.edge_tiles().count(), 124);
    }

    #[test]
    fn distance_to_edge_is_zero_on_boundary() {
        let array = TileArray::new(32, 32);
        for t in array.edge_tiles() {
            assert_eq!(array.distance_to_edge(t), 0);
        }
        // Centre of a 32×32 array is 15 hops from the nearest edge.
        assert_eq!(array.distance_to_edge(TileCoord::new(16, 16)), 15);
        assert_eq!(array.distance_to_edge(TileCoord::new(15, 15)), 15);
    }

    #[test]
    fn manhattan_distance_and_colinearity() {
        let a = TileCoord::new(2, 3);
        let b = TileCoord::new(5, 1);
        assert_eq!(a.manhattan_distance(b), 5);
        assert_eq!(b.manhattan_distance(a), 5);
        assert!(!a.is_colinear_with(b));
        assert!(a.is_colinear_with(TileCoord::new(2, 9)));
        assert!(a.is_colinear_with(TileCoord::new(7, 3)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TileCoord::new(1, 2).to_string(), "(1, 2)");
        assert_eq!(TileArray::new(8, 8).to_string(), "8x8 tile array");
        assert_eq!(Direction::North.to_string(), "north");
    }

    #[test]
    fn coord_from_tuple() {
        assert_eq!(TileCoord::from((4, 7)), TileCoord::new(4, 7));
    }
}
