//! Rectangular wafer slices and the wafer↔slice coordinate mapping.
//!
//! A slice is a `width × height` rectangle of tile sites carved out of
//! the wafer array. Each slice runs its jobs on a machine or system
//! built over the slice's **own** [`TileArray`], with the wafer fault
//! map restricted and translated into slice-local coordinates — so a
//! job's packets physically cannot leave the slice: there is no larger
//! fabric for them to escape into. Confinement holds by construction,
//! not by a runtime filter (and the workspace proptests pin it anyway).

use std::fmt;

use wsp_noc::healthy_region_connected;
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// A rectangle of wafer tile sites: the footprint of one slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SliceRect {
    /// Leftmost wafer column covered.
    pub x0: u16,
    /// Topmost wafer row covered.
    pub y0: u16,
    /// Extent in columns.
    pub width: u16,
    /// Extent in rows.
    pub height: u16,
}

impl SliceRect {
    /// Creates a rectangle with origin `(x0, y0)`.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(x0: u16, y0: u16, width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "slice extents must be non-zero");
        SliceRect {
            x0,
            y0,
            width,
            height,
        }
    }

    /// The slice-local tile array (`width × height`).
    pub fn array(&self) -> TileArray {
        TileArray::new(self.width, self.height)
    }

    /// Whether the wafer coordinate `tile` lies inside this rectangle.
    pub fn contains(&self, tile: TileCoord) -> bool {
        tile.x >= self.x0
            && tile.x < self.x0 + self.width
            && tile.y >= self.y0
            && tile.y < self.y0 + self.height
    }

    /// Translates a slice-local coordinate back onto the wafer.
    ///
    /// # Panics
    ///
    /// Panics if `local` is outside the `width × height` local array.
    pub fn to_wafer(&self, local: TileCoord) -> TileCoord {
        assert!(
            local.x < self.width && local.y < self.height,
            "local coordinate {local} outside {self}"
        );
        TileCoord::new(self.x0 + local.x, self.y0 + local.y)
    }
}

impl fmt::Display for SliceRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}@({},{})",
            self.width, self.height, self.x0, self.y0
        )
    }
}

/// Restricts a wafer fault map to `rect`, translated into slice-local
/// coordinates: local tile `(x, y)` is faulty exactly when wafer tile
/// `(x0+x, y0+y)` is.
///
/// # Panics
///
/// Panics if `rect` does not fit inside the wafer array.
pub fn restrict_faults(wafer: &FaultMap, rect: SliceRect) -> FaultMap {
    let array = wafer.array();
    assert!(
        rect.x0 + rect.width <= array.cols() && rect.y0 + rect.height <= array.rows(),
        "slice {rect} does not fit a {}x{} wafer",
        array.cols(),
        array.rows()
    );
    let local = rect.array();
    FaultMap::from_faulty(
        local,
        local.tiles().filter(|&t| wafer.is_faulty(rect.to_wafer(t))),
    )
}

/// One schedulable slice of the wafer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Stable slice index (row-major over the slice grid).
    pub id: usize,
    /// The wafer rectangle this slice owns.
    pub rect: SliceRect,
}

/// Whether a slice can currently accept jobs under `wafer` faults: it
/// needs at least one healthy tile and a *connected* healthy region.
/// Connectivity is exactly the condition under which the graph kernels
/// can route (store-and-forward reachability over healthy mesh
/// neighbours), so an admitted job never fails with `OwnerUnreachable`.
pub fn slice_usable(wafer: &FaultMap, rect: SliceRect) -> bool {
    healthy_region_connected(&restrict_faults(wafer, rect))
}

/// Partitions `array` into non-overlapping `slice_w × slice_h` rectangles
/// on a row-major grid. Only full rectangles are produced; a ragged
/// remainder (when the wafer extent is not a multiple of the slice
/// extent) is left unscheduled, mirroring how reticle-limited dies waste
/// wafer edge.
///
/// # Panics
///
/// Panics when even one slice does not fit (`slice_w > cols` or
/// `slice_h > rows`), or when either extent is zero.
///
/// # Examples
///
/// ```
/// use wsp_sched::partition;
/// use wsp_topo::TileArray;
///
/// let slices = partition(TileArray::new(12, 12), 4, 4);
/// assert_eq!(slices.len(), 9);
/// assert_eq!(slices[4].rect.x0, 4);
/// assert_eq!(slices[4].rect.y0, 4);
/// ```
pub fn partition(array: TileArray, slice_w: u16, slice_h: u16) -> Vec<Slice> {
    assert!(slice_w > 0 && slice_h > 0, "slice extents must be non-zero");
    assert!(
        slice_w <= array.cols() && slice_h <= array.rows(),
        "a {slice_w}x{slice_h} slice does not fit a {}x{} wafer",
        array.cols(),
        array.rows()
    );
    let mut slices = Vec::new();
    let mut y0 = 0;
    while y0 + slice_h <= array.rows() {
        let mut x0 = 0;
        while x0 + slice_w <= array.cols() {
            slices.push(Slice {
                id: slices.len(),
                rect: SliceRect::new(x0, y0, slice_w, slice_h),
            });
            x0 += slice_w;
        }
        y0 += slice_h;
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_mapping_round_trips() {
        let rect = SliceRect::new(4, 8, 4, 2);
        assert!(rect.contains(TileCoord::new(4, 8)));
        assert!(rect.contains(TileCoord::new(7, 9)));
        assert!(!rect.contains(TileCoord::new(8, 8)));
        assert!(!rect.contains(TileCoord::new(4, 10)));
        for t in rect.array().tiles() {
            assert!(rect.contains(rect.to_wafer(t)));
        }
        assert_eq!(rect.to_wafer(TileCoord::new(3, 1)), TileCoord::new(7, 9));
    }

    #[test]
    fn restriction_mirrors_the_wafer_window() {
        let wafer = TileArray::new(8, 8);
        let mut faults = FaultMap::none(wafer);
        faults.mark_faulty(TileCoord::new(5, 1)); // inside the rect
        faults.mark_faulty(TileCoord::new(0, 0)); // outside
        let rect = SliceRect::new(4, 0, 4, 4);
        let local = restrict_faults(&faults, rect);
        assert_eq!(local.array(), TileArray::new(4, 4));
        assert_eq!(local.fault_count(), 1);
        assert!(local.is_faulty(TileCoord::new(1, 1)));
    }

    #[test]
    fn usability_follows_local_connectivity() {
        let wafer = TileArray::new(8, 4);
        let rect = SliceRect::new(0, 0, 4, 4);
        let clean = FaultMap::none(wafer);
        assert!(slice_usable(&clean, rect));
        // A wall down local column 1 splits the slice...
        let wall = FaultMap::from_faulty(wafer, (0..4).map(|y| TileCoord::new(1, y)));
        assert!(!slice_usable(&wall, rect));
        // ...but does not affect its neighbour slice.
        assert!(slice_usable(&wall, SliceRect::new(4, 0, 4, 4)));
    }

    #[test]
    fn partition_covers_full_rectangles_only() {
        let slices = partition(TileArray::new(10, 8), 4, 4);
        assert_eq!(slices.len(), 4); // 2 columns fit, the 2-wide remainder is waste
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.id, i);
            assert_eq!((s.rect.width, s.rect.height), (4, 4));
            assert!(s.rect.x0 + s.rect.width <= 10);
        }
        // Non-overlap: every wafer tile is claimed at most once.
        let mut claimed = [false; 80];
        let wafer = TileArray::new(10, 8);
        for s in &slices {
            for t in s.rect.array().tiles() {
                let idx = wafer.index_of(s.rect.to_wafer(t));
                assert!(!claimed[idx], "tile claimed twice");
                claimed[idx] = true;
            }
        }
    }
}
