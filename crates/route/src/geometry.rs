//! Physical geometry of the wafer: tile placement, chiplet outlines, pad
//! coordinates, and the metal segments a routed net occupies.
//!
//! The track router works on abstract boundaries; this module pins those
//! boundaries to millimetres so that wirelength, escape extents, and
//! numeric spacing can be checked against the actual chiplet dimensions
//! (compute 3.15×2.4 mm above memory 3.15×1.1 mm, 100 µm gaps, 3.25 ×
//! 3.7 mm tile pitch — the same constants `SystemConfig` derives Table I
//! from).

use wsp_topo::{TileArray, TileCoord};

use crate::router::{BoundaryKey, RoutedNet};

/// An axis-aligned rectangle in wafer coordinates (mm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Top edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Bottom edge.
    pub y1: f64,
}

impl Rect {
    /// Width in mm.
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height in mm.
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Whether two rectangles overlap (open intervals — touching edges
    /// do not count).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && self.y0 <= other.y0 && self.x1 >= other.x1 && self.y1 >= other.y1
    }
}

/// A straight metal segment of one routed bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSegment {
    /// Start point (mm).
    pub from: (f64, f64),
    /// End point (mm).
    pub to: (f64, f64),
    /// Number of parallel wires in the bundle.
    pub wires: u32,
    /// Drawn wire width in µm (2 normally, 3 under the fat rule).
    pub wire_width_um: f64,
}

impl WireSegment {
    /// Geometric length of the segment in mm.
    pub fn length_mm(&self) -> f64 {
        let dx = self.to.0 - self.from.0;
        let dy = self.to.1 - self.from.1;
        (dx * dx + dy * dy).sqrt()
    }
}

/// The wafer floorplan.
///
/// # Examples
///
/// ```
/// use wsp_route::{WaferGeometry};
/// use wsp_topo::{TileArray, TileCoord};
///
/// let geo = WaferGeometry::paper_geometry(TileArray::new(32, 32));
/// let tile = geo.tile_rect(TileCoord::new(0, 0));
/// assert!((tile.width() - 3.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferGeometry {
    array: TileArray,
    pitch_x: f64,
    pitch_y: f64,
    margin: f64,
    compute_w: f64,
    compute_h: f64,
    memory_w: f64,
    memory_h: f64,
    gap: f64,
}

impl WaferGeometry {
    /// The prototype floorplan: 3.25 × 3.7 mm tile pitch, 6 mm fan-out
    /// margin, 100 µm inter-chiplet gap, chiplet sizes from Table I.
    pub fn paper_geometry(array: TileArray) -> Self {
        WaferGeometry {
            array,
            pitch_x: 3.25,
            pitch_y: 3.7,
            margin: 6.0,
            compute_w: 3.15,
            compute_h: 2.4,
            memory_w: 3.15,
            memory_h: 1.1,
            gap: 0.1,
        }
    }

    /// The tile array this floorplan hosts.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// The full wafer outline including the fan-out margin.
    pub fn wafer_rect(&self) -> Rect {
        Rect {
            x0: 0.0,
            y0: 0.0,
            x1: 2.0 * self.margin + self.pitch_x * f64::from(self.array.cols()),
            y1: 2.0 * self.margin + self.pitch_y * f64::from(self.array.rows()),
        }
    }

    /// The cell allotted to a tile (one pitch).
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the array.
    pub fn tile_rect(&self, tile: TileCoord) -> Rect {
        assert!(self.array.contains(tile), "tile {tile} outside array");
        let x0 = self.margin + self.pitch_x * f64::from(tile.x);
        let y0 = self.margin + self.pitch_y * f64::from(tile.y);
        Rect {
            x0,
            y0,
            x1: x0 + self.pitch_x,
            y1: y0 + self.pitch_y,
        }
    }

    /// The compute chiplet's outline within a tile (upper die).
    pub fn compute_rect(&self, tile: TileCoord) -> Rect {
        let cell = self.tile_rect(tile);
        Rect {
            x0: cell.x0,
            y0: cell.y0,
            x1: cell.x0 + self.compute_w,
            y1: cell.y0 + self.compute_h,
        }
    }

    /// The memory chiplet's outline within a tile (lower die, separated
    /// by the 100 µm bond gap).
    pub fn memory_rect(&self, tile: TileCoord) -> Rect {
        let cell = self.tile_rect(tile);
        let y0 = cell.y0 + self.compute_h + self.gap;
        Rect {
            x0: cell.x0,
            y0,
            x1: cell.x0 + self.memory_w,
            y1: y0 + self.memory_h,
        }
    }

    /// Millimetre coordinates of `count` pad positions at 10 µm pitch
    /// along the given side of the compute chiplet, centred on the edge.
    ///
    /// # Panics
    ///
    /// Panics if the pads do not fit along the edge.
    pub fn pad_positions(
        &self,
        tile: TileCoord,
        side: wsp_topo::Direction,
        count: u32,
    ) -> Vec<(f64, f64)> {
        const PAD_PITCH_MM: f64 = 0.010;
        let rect = self.compute_rect(tile);
        let (edge_len, horizontal) = match side {
            wsp_topo::Direction::North | wsp_topo::Direction::South => (rect.width(), true),
            wsp_topo::Direction::East | wsp_topo::Direction::West => (rect.height(), false),
        };
        let span = f64::from(count) * PAD_PITCH_MM;
        assert!(
            span <= edge_len + 1e-9,
            "{count} pads at 10 um do not fit a {edge_len:.2} mm edge"
        );
        let start = (edge_len - span) / 2.0;
        (0..count)
            .map(|i| {
                let along = start + (f64::from(i) + 0.5) * PAD_PITCH_MM;
                match (side, horizontal) {
                    (wsp_topo::Direction::North, _) => (rect.x0 + along, rect.y0),
                    (wsp_topo::Direction::South, _) => (rect.x0 + along, rect.y1),
                    (wsp_topo::Direction::East, _) => (rect.x1, rect.y0 + along),
                    (wsp_topo::Direction::West, _) => (rect.x0, rect.y0 + along),
                }
            })
            .collect()
    }

    /// The physical metal segment of a routed net.
    ///
    /// Adjacent-tile bundles run straight across the facing gap;
    /// intra-tile bundles cross the compute↔memory gap; fan-out bundles
    /// run from the boundary tile to the wafer edge.
    pub fn segment_of(&self, routed: &RoutedNet) -> WireSegment {
        let width = if routed.fat { 3.0 } else { 2.0 };
        let (from, to) = match routed.boundaries.first() {
            Some(BoundaryKey::Vertical { west }) => {
                let w = self.compute_rect(*west);
                let e = self.compute_rect(TileCoord::new(west.x + 1, west.y));
                let y = w.y0 + w.height() / 2.0;
                ((w.x1, y), (e.x0, y))
            }
            Some(BoundaryKey::Horizontal { north }) => {
                let n = self.memory_rect(*north);
                let s = self.compute_rect(TileCoord::new(north.x, north.y + 1));
                let x = n.x0 + n.width() / 2.0;
                ((x, n.y1), (x, s.y0))
            }
            Some(BoundaryKey::IntraTile { tile }) => {
                let c = self.compute_rect(*tile);
                let m = self.memory_rect(*tile);
                let x = c.x0 + c.width() / 2.0;
                ((x, c.y1), (x, m.y0))
            }
            Some(BoundaryKey::WaferSide { side }) => {
                let tile = match routed.net.from {
                    crate::netlist::NetEndpoint::Tile(t) => t,
                    crate::netlist::NetEndpoint::WaferEdge(t) => t,
                };
                let c = self.compute_rect(tile);
                let wafer = self.wafer_rect();
                let cx = c.x0 + c.width() / 2.0;
                let cy = c.y0 + c.height() / 2.0;
                match side {
                    0 => ((cx, c.y0), (cx, wafer.y0)),
                    1 => ((cx, c.y1), (cx, wafer.y1)),
                    2 => ((c.x1, cy), (wafer.x1, cy)),
                    _ => ((c.x0, cy), (wafer.x0, cy)),
                }
            }
            None => ((0.0, 0.0), (0.0, 0.0)),
        };
        WireSegment {
            from,
            to,
            wires: routed.net.width,
            wire_width_um: width,
        }
    }

    /// Geometric total metal length of a route (Σ wires × segment
    /// length), in metres.
    pub fn total_metal_m(&self, report: &crate::router::RouteReport) -> f64 {
        report
            .routed()
            .iter()
            .map(|r| f64::from(r.net.width) * self.segment_of(r).length_mm() * 1e-3)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::WaferNetlist;
    use crate::router::{LayerMode, RouterConfig};
    use wsp_topo::Direction;

    fn geo() -> WaferGeometry {
        WaferGeometry::paper_geometry(TileArray::new(32, 32))
    }

    #[test]
    fn wafer_outline_matches_table1_area() {
        let rect = geo().wafer_rect();
        let area = rect.width() * rect.height();
        assert!((14_500.0..15_700.0).contains(&area), "area {area}");
    }

    #[test]
    fn chiplets_stay_inside_their_tile_cells() {
        let geo = geo();
        for tile in geo.array().tiles() {
            let cell = geo.tile_rect(tile);
            let c = geo.compute_rect(tile);
            let m = geo.memory_rect(tile);
            assert!(cell.contains(&c), "compute outside cell at {tile}");
            assert!(cell.contains(&m), "memory outside cell at {tile}");
            assert!(!c.overlaps(&m), "chiplets overlap at {tile}");
            // 100 µm vertical gap between the two dies.
            assert!((m.y0 - c.y1 - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn adjacent_tiles_never_overlap() {
        let geo = geo();
        let a = geo.compute_rect(TileCoord::new(3, 3));
        for nb in geo.array().neighbors(TileCoord::new(3, 3)) {
            let b = geo.compute_rect(nb);
            assert!(!a.overlaps(&b));
            let bm = geo.memory_rect(nb);
            assert!(!a.overlaps(&bm));
        }
    }

    #[test]
    fn pad_rows_fit_and_sit_on_the_edge() {
        let geo = geo();
        let tile = TileCoord::new(5, 5);
        let pads = geo.pad_positions(tile, Direction::West, 200);
        let rect = geo.compute_rect(tile);
        assert_eq!(pads.len(), 200);
        for (x, y) in &pads {
            assert!((*x - rect.x0).abs() < 1e-12, "pad off the west edge");
            assert!(*y >= rect.y0 && *y <= rect.y1);
        }
        // 10 µm pitch between consecutive pads.
        assert!((pads[1].1 - pads[0].1 - 0.010).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn too_many_pads_rejected() {
        // 2.4 mm edge holds at most 240 pads at 10 µm.
        let _ = geo().pad_positions(TileCoord::new(0, 0), Direction::East, 300);
    }

    #[test]
    fn segments_are_short_for_adjacent_nets_and_inside_the_wafer() {
        let array = TileArray::new(8, 8);
        let geo = WaferGeometry::paper_geometry(array);
        let report = RouterConfig::paper_config(array, LayerMode::DualLayer)
            .route(&WaferNetlist::generate(array))
            .expect("routes");
        let wafer = geo.wafer_rect();
        for r in report.routed() {
            let seg = geo.segment_of(r);
            for (x, y) in [seg.from, seg.to] {
                assert!(x >= wafer.x0 - 1e-9 && x <= wafer.x1 + 1e-9, "x={x}");
                assert!(y >= wafer.y0 - 1e-9 && y <= wafer.y1 + 1e-9, "y={y}");
            }
            match r.boundaries.first() {
                Some(BoundaryKey::Vertical { .. }) => {
                    // 3.25 pitch − 3.15 die = 0.1 mm gap.
                    assert!((seg.length_mm() - 0.1).abs() < 1e-9);
                }
                Some(BoundaryKey::IntraTile { .. }) => {
                    assert!((seg.length_mm() - 0.1).abs() < 1e-9);
                }
                Some(BoundaryKey::Horizontal { .. }) => {
                    // memory bottom to next tile's compute top:
                    // 3.7 − 2.4 − 0.1 − 1.1 = 0.1 mm.
                    assert!((seg.length_mm() - 0.1).abs() < 1e-9);
                }
                _ => assert!(seg.length_mm() >= 1.0), // fan-out runs to the edge
            }
            assert!(seg.wire_width_um == 2.0 || seg.wire_width_um == 3.0);
            assert_eq!(seg.wires, r.net.width);
        }
    }

    #[test]
    fn geometric_wirelength_is_close_to_report_estimate() {
        let array = TileArray::new(16, 16);
        let geo = WaferGeometry::paper_geometry(array);
        let report = RouterConfig::paper_config(array, LayerMode::DualLayer)
            .route(&WaferNetlist::generate(array))
            .expect("routes");
        let geometric = geo.total_metal_m(&report);
        let estimate = report.total_wirelength_m();
        // The report uses coarse per-class lengths; geometry refines them
        // but stays the same order of magnitude.
        let ratio = geometric / estimate;
        assert!((0.2..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rect_relations() {
        let a = Rect {
            x0: 0.0,
            y0: 0.0,
            x1: 2.0,
            y1: 2.0,
        };
        let b = Rect {
            x0: 1.0,
            y0: 1.0,
            x1: 3.0,
            y1: 3.0,
        };
        let c = Rect {
            x0: 2.0,
            y0: 0.0,
            x1: 3.0,
            y1: 1.0,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // touching edges don't overlap
        assert!(a.contains(&Rect {
            x0: 0.5,
            y0: 0.5,
            x1: 1.5,
            y1: 1.5
        }));
        assert!(!a.contains(&b));
        assert_eq!(a.width(), 2.0);
        assert_eq!(a.height(), 2.0);
    }
}
