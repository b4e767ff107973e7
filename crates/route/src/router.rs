//! The jog-free track router.
//!
//! Routing resources are modelled at the granularity the substrate
//! actually offers: every facing edge between adjacent chiplets (and the
//! compute↔memory edge inside a tile) is a *boundary* carrying a fixed
//! number of wiring tracks per layer (edge length × 200 wires/mm/layer at
//! the 5 µm pitch). A net is a straight bundle that occupies a contiguous
//! track interval on every boundary it crosses — the same interval on all
//! of them, which is precisely the jog-free restriction. Nets that cannot
//! get a common interval fail and are reported, not silently dropped.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use wsp_topo::{ReticleGrid, TileArray, TileCoord};

use crate::netlist::{Net, NetClass, NetEndpoint, WaferNetlist};

/// A signal routing layer of the substrate (layers 3 and 4 of the metal
/// stack; 1 and 2 are the power planes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// First signal layer — carries the essential I/O column set.
    L1,
    /// Second signal layer — carries the second column set.
    L2,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::L1 => f.write_str("layer 1"),
            Layer::L2 => f.write_str("layer 2"),
        }
    }
}

/// How many signal layers the fabricated substrate offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerMode {
    /// Both signal layers yielded: full system.
    DualLayer,
    /// Only layer 1 yielded: the degraded-but-working configuration the
    /// chiplet I/O plan was designed around (Sec. VIII).
    SingleLayer,
}

/// A track-capacity region: one facing edge between two chiplets, or a
/// wafer-side connector region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKey {
    /// Between `west` and its east neighbour (crossed by E-W bundles).
    Vertical {
        /// The western tile of the pair.
        west: TileCoord,
    },
    /// Between `north` and its south neighbour (crossed by N-S bundles).
    Horizontal {
        /// The northern tile of the pair.
        north: TileCoord,
    },
    /// The compute↔memory edge inside one tile.
    IntraTile {
        /// The tile.
        tile: TileCoord,
    },
    /// The connector fan-out region on one wafer side (0 = N, 1 = S,
    /// 2 = E, 3 = W).
    WaferSide {
        /// Side index.
        side: u8,
    },
}

/// One successfully routed net.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedNet {
    /// The net.
    pub net: Net,
    /// The layer it was assigned.
    pub layer: Layer,
    /// Boundaries crossed, in order from `net.from`.
    pub boundaries: Vec<BoundaryKey>,
    /// The track interval `[start, start+width)` occupied on *every*
    /// crossed boundary (jog-free).
    pub track_start: u32,
    /// Geometric bundle length in millimetres.
    pub length_mm: f64,
    /// Whether the bundle crosses a reticle-stitching boundary and is
    /// therefore drawn with the fat-wire rule (3 µm instead of 2 µm).
    pub fat: bool,
}

/// Router configuration: capacities derived from the chiplet geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    array: TileArray,
    mode: LayerMode,
    /// Tracks per layer on a vertical boundary (facing edge = compute
    /// chiplet height, 2.4 mm × 200/mm = 480).
    vertical_tracks: u32,
    /// Tracks per layer on a horizontal boundary (facing edge = chiplet
    /// width, 3.15 mm × 200/mm = 630).
    horizontal_tracks: u32,
    /// Tracks per layer on the intra-tile compute↔memory edge.
    intra_tracks: u32,
    /// Tracks per layer on each wafer-side connector region.
    side_tracks: u32,
}

impl RouterConfig {
    /// The paper's geometry: 5 µm wiring pitch (200 wires/mm/layer),
    /// 2.4 mm / 3.15 mm facing edges, generous edge-connector regions.
    pub fn paper_config(array: TileArray, mode: LayerMode) -> Self {
        RouterConfig {
            array,
            mode,
            vertical_tracks: (2.4 * 200.0) as u32,
            horizontal_tracks: (3.15 * 200.0) as u32,
            intra_tracks: (3.15 * 200.0) as u32,
            // A wafer side spans the full array (32 × 3.25 mm ≈ 104 mm).
            side_tracks: (f64::from(array.cols().max(array.rows())) * 3.25 * 200.0) as u32,
        }
    }

    /// Overrides the vertical-boundary capacity (for ablations).
    pub fn with_vertical_tracks(mut self, tracks: u32) -> Self {
        self.vertical_tracks = tracks;
        self
    }

    /// The layer mode.
    #[inline]
    pub fn mode(&self) -> LayerMode {
        self.mode
    }

    /// The tile array.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// Capacity (tracks per layer) of a boundary.
    pub fn capacity(&self, boundary: BoundaryKey) -> u32 {
        match boundary {
            BoundaryKey::Vertical { .. } => self.vertical_tracks,
            BoundaryKey::Horizontal { .. } => self.horizontal_tracks,
            BoundaryKey::IntraTile { .. } => self.intra_tracks,
            BoundaryKey::WaferSide { .. } => self.side_tracks,
        }
    }

    /// Routes a netlist.
    ///
    /// Essential-class nets go to [`Layer::L1`]; second-set nets go to
    /// [`Layer::L2`], or are *dropped* (reported, never routed) in
    /// single-layer mode. Within a layer, nets are processed in netlist
    /// order and allocated the lowest common free track interval on all
    /// their boundaries; a net that does not fit is recorded as failed.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::ArrayMismatch`] when the netlist was
    /// generated for a different array.
    pub fn route(&self, netlist: &WaferNetlist) -> Result<RouteReport, RouteError> {
        if netlist.array() != self.array {
            return Err(RouteError::ArrayMismatch {
                netlist: netlist.array(),
                router: self.array,
            });
        }
        let grid = ReticleGrid::paper_grid(self.array);
        // Per (boundary, layer) next-free-track counters. Contiguous
        // allocation, never freed: the whole netlist is routed in one
        // deterministic pass, like the paper's one-shot router.
        let mut cursors: HashMap<(BoundaryKey, Layer), u32> = HashMap::new();

        let mut routed = Vec::new();
        let mut failed = Vec::new();
        let mut dropped = Vec::new();

        for net in netlist.nets() {
            let layer = if net.class.is_essential() {
                Layer::L1
            } else {
                match self.mode {
                    LayerMode::DualLayer => Layer::L2,
                    LayerMode::SingleLayer => {
                        dropped.push(*net);
                        continue;
                    }
                }
            };
            let boundaries = self.boundaries_of(net);
            // Jog-free: reserve the SAME interval on every boundary.
            let start = boundaries
                .iter()
                .map(|b| cursors.get(&(*b, layer)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let fits = boundaries
                .iter()
                .all(|b| start + net.width <= self.capacity(*b));
            if !fits {
                failed.push(*net);
                continue;
            }
            for b in &boundaries {
                cursors.insert((*b, layer), start + net.width);
            }
            let fat = self.is_fat(net, &grid);
            routed.push(RoutedNet {
                net: *net,
                layer,
                boundaries,
                track_start: start,
                length_mm: self.length_mm(net),
                fat,
            });
        }

        Ok(RouteReport {
            routed,
            failed,
            dropped,
            mode: self.mode,
        })
    }

    /// The boundaries a net crosses.
    fn boundaries_of(&self, net: &Net) -> Vec<BoundaryKey> {
        match (net.from, net.to) {
            (NetEndpoint::Tile(a), NetEndpoint::Tile(b)) if a == b => {
                vec![BoundaryKey::IntraTile { tile: a }]
            }
            (NetEndpoint::Tile(a), NetEndpoint::Tile(b)) => {
                if a.y == b.y {
                    let west = if a.x < b.x { a } else { b };
                    vec![BoundaryKey::Vertical { west }]
                } else {
                    let north = if a.y < b.y { a } else { b };
                    vec![BoundaryKey::Horizontal { north }]
                }
            }
            (NetEndpoint::Tile(t), NetEndpoint::WaferEdge(_))
            | (NetEndpoint::WaferEdge(_), NetEndpoint::Tile(t)) => {
                vec![BoundaryKey::WaferSide {
                    side: self.nearest_side(t),
                }]
            }
            (NetEndpoint::WaferEdge(_), NetEndpoint::WaferEdge(_)) => Vec::new(),
        }
    }

    /// The wafer side nearest a boundary tile (ties resolved N, S, E, W).
    fn nearest_side(&self, t: TileCoord) -> u8 {
        let a = self.array;
        let dists = [
            t.y,                // north
            a.rows() - 1 - t.y, // south
            a.cols() - 1 - t.x, // east
            t.x,                // west
        ];
        let (side, _) = dists
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| **d)
            .expect("four sides");
        side as u8
    }

    /// Approximate bundle length: adjacent-chiplet hops are dominated by
    /// the 100 µm gap plus pad escape; fan-out bundles traverse the
    /// ~6 mm edge-reticle margin.
    fn length_mm(&self, net: &Net) -> f64 {
        match (net.from, net.to) {
            (NetEndpoint::Tile(a), NetEndpoint::Tile(b)) if a == b => 0.2,
            (NetEndpoint::Tile(_), NetEndpoint::Tile(_)) => 0.3,
            _ => 6.0,
        }
    }

    /// Whether a net crosses a reticle-stitching boundary.
    fn is_fat(&self, net: &Net, grid: &ReticleGrid) -> bool {
        match (net.from, net.to) {
            (NetEndpoint::Tile(a), NetEndpoint::Tile(b)) => grid.crosses_boundary(a, b),
            // Fan-out always leaves the chiplet-array reticles for the
            // edge reticles.
            _ => true,
        }
    }
}

/// Failure modes of [`RouterConfig::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The netlist was generated for a different tile array.
    ArrayMismatch {
        /// Array of the netlist.
        netlist: TileArray,
        /// Array of the router.
        router: TileArray,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::ArrayMismatch { netlist, router } => {
                write!(
                    f,
                    "netlist spans {netlist} but router configured for {router}"
                )
            }
        }
    }
}

impl Error for RouteError {}

/// The routing result.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    routed: Vec<RoutedNet>,
    failed: Vec<Net>,
    dropped: Vec<Net>,
    mode: LayerMode,
}

impl RouteReport {
    /// Successfully routed nets.
    pub fn routed(&self) -> &[RoutedNet] {
        &self.routed
    }

    /// Nets that did not fit their boundaries.
    pub fn failed(&self) -> &[Net] {
        &self.failed
    }

    /// Number of failed nets.
    pub fn failed_nets(&self) -> usize {
        self.failed.len()
    }

    /// Second-set nets dropped because the substrate has one layer.
    pub fn dropped(&self) -> &[Net] {
        &self.dropped
    }

    /// The layer mode the route was performed under.
    #[inline]
    pub fn mode(&self) -> LayerMode {
        self.mode
    }

    /// Total routed wirelength (Σ bundle width × length), in metres.
    pub fn total_wirelength_m(&self) -> f64 {
        self.routed
            .iter()
            .map(|r| f64::from(r.net.width) * r.length_mm * 1e-3)
            .sum()
    }

    /// Number of wires drawn with the reticle-stitching fat rule.
    pub fn fat_wires(&self) -> u64 {
        self.routed
            .iter()
            .filter(|r| r.fat)
            .map(|r| u64::from(r.net.width))
            .sum()
    }

    /// Fraction of memory-bank wiring lost (0.0 in dual-layer mode,
    /// 0.6 when the second layer is unavailable — the paper's "reduction
    /// of shared memory capacity by 60%").
    pub fn memory_capacity_loss(&self) -> f64 {
        let dropped_mem: u64 = self
            .dropped
            .iter()
            .filter(|n| {
                matches!(
                    n.class,
                    NetClass::MemoryEssential | NetClass::MemorySecondLayer
                )
            })
            .map(|n| u64::from(n.width))
            .sum();
        let routed_mem: u64 = self
            .routed
            .iter()
            .filter(|r| {
                matches!(
                    r.net.class,
                    NetClass::MemoryEssential | NetClass::MemorySecondLayer
                )
            })
            .map(|r| u64::from(r.net.width))
            .sum();
        let total = dropped_mem + routed_mem;
        if total == 0 {
            0.0
        } else {
            dropped_mem as f64 / total as f64
        }
    }

    /// Peak track utilisation per layer: `(layer, used, capacity)` for
    /// the boundary with the highest used/capacity ratio.
    pub fn peak_utilization(&self, config: &RouterConfig) -> Vec<(Layer, u32, u32)> {
        let mut peak: HashMap<Layer, (u32, u32)> = HashMap::new();
        let mut usage: HashMap<(BoundaryKey, Layer), u32> = HashMap::new();
        for r in &self.routed {
            for b in &r.boundaries {
                let end = r.track_start + r.net.width;
                let e = usage.entry((*b, r.layer)).or_insert(0);
                *e = (*e).max(end);
            }
        }
        for ((b, layer), used) in usage {
            let cap = config.capacity(b);
            let entry = peak.entry(layer).or_insert((0, cap));
            let better = u64::from(used) * u64::from(entry.1) > u64::from(entry.0) * u64::from(cap);
            if entry.0 == 0 || better {
                *entry = (used, cap);
            }
        }
        let mut out: Vec<(Layer, u32, u32)> =
            peak.into_iter().map(|(l, (u, c))| (l, u, c)).collect();
        out.sort_by_key(|(l, _, _)| matches!(l, Layer::L2));
        out
    }
}

impl fmt::Display for RouteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nets routed, {} failed, {} dropped, {:.1} m of wire",
            self.routed.len(),
            self.failed.len(),
            self.dropped.len(),
            self.total_wirelength_m()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(array: TileArray, mode: LayerMode) -> (RouterConfig, RouteReport) {
        let netlist = WaferNetlist::generate(array);
        let config = RouterConfig::paper_config(array, mode);
        let report = config.route(&netlist).expect("same array");
        (config, report)
    }

    #[test]
    fn full_wafer_routes_cleanly_on_two_layers() {
        let (_, report) = route(TileArray::new(32, 32), LayerMode::DualLayer);
        assert_eq!(
            report.failed_nets(),
            0,
            "failed: {:?}",
            report.failed().first()
        );
        assert!(report.dropped().is_empty());
        assert_eq!(report.memory_capacity_loss(), 0.0);
        assert!(report.total_wirelength_m() > 100.0);
    }

    #[test]
    fn single_layer_mode_keeps_the_system_alive() {
        let (_, report) = route(TileArray::new(32, 32), LayerMode::SingleLayer);
        // All essential nets still route...
        assert_eq!(report.failed_nets(), 0);
        // ...the second-set memory banks are dropped...
        assert_eq!(report.dropped().len(), 1024);
        // ...costing exactly 60 % of the memory wiring (Sec. VIII).
        let loss = report.memory_capacity_loss();
        assert!((loss - 0.6).abs() < 1e-9, "memory loss {loss}");
    }

    #[test]
    fn capacity_overflow_is_reported_not_hidden() {
        // Shrink vertical boundaries below the network bundle width.
        let array = TileArray::new(8, 8);
        let netlist = WaferNetlist::generate(array);
        let config =
            RouterConfig::paper_config(array, LayerMode::DualLayer).with_vertical_tracks(300);
        let report = config.route(&netlist).expect("same array");
        assert!(report.failed_nets() > 0);
        // Every failure is a horizontal (E-W) net.
        for net in report.failed() {
            match (net.from, net.to) {
                (NetEndpoint::Tile(a), NetEndpoint::Tile(b)) => assert_eq!(a.y, b.y),
                other => panic!("unexpected failed net {other:?}"),
            }
        }
    }

    #[test]
    fn track_intervals_never_overlap() {
        let (_, report) = route(TileArray::new(16, 16), LayerMode::DualLayer);
        let mut by_boundary: HashMap<(BoundaryKey, Layer), Vec<(u32, u32)>> = HashMap::new();
        for r in report.routed() {
            for b in &r.boundaries {
                by_boundary
                    .entry((*b, r.layer))
                    .or_default()
                    .push((r.track_start, r.track_start + r.net.width));
            }
        }
        for ((b, layer), mut intervals) in by_boundary {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "overlap on {b:?} {layer}: {:?} vs {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn essential_nets_always_on_layer_1() {
        let (_, report) = route(TileArray::new(8, 8), LayerMode::DualLayer);
        for r in report.routed() {
            if r.net.class.is_essential() {
                assert_eq!(r.layer, Layer::L1);
            } else {
                assert_eq!(r.layer, Layer::L2);
            }
        }
    }

    #[test]
    fn reticle_crossings_marked_fat() {
        // On the 32×32 wafer with 12×6 reticles, nets between columns 11
        // and 12 (and rows 5/6 etc.) cross stitching boundaries.
        let (_, report) = route(TileArray::new(32, 32), LayerMode::DualLayer);
        let fat = report.fat_wires();
        assert!(fat > 0);
        for r in report.routed() {
            if let (NetEndpoint::Tile(a), NetEndpoint::Tile(b)) = (r.net.from, r.net.to) {
                let grid = ReticleGrid::paper_grid(TileArray::new(32, 32));
                assert_eq!(r.fat, grid.crosses_boundary(a, b), "net {}", r.net.id);
            }
        }
    }

    #[test]
    fn peak_utilization_is_under_capacity() {
        let (config, report) = route(TileArray::new(32, 32), LayerMode::DualLayer);
        for (layer, used, cap) in report.peak_utilization(&config) {
            assert!(used <= cap, "{layer} over capacity: {used}/{cap}");
            assert!(used > 0);
        }
        // L1 carries the 410-wire vertical bundles: expect high use.
        let l1 = report
            .peak_utilization(&config)
            .into_iter()
            .find(|(l, _, _)| *l == Layer::L1)
            .expect("L1 used");
        assert!(l1.1 >= 410);
    }

    #[test]
    fn array_mismatch_is_an_error() {
        let netlist = WaferNetlist::generate(TileArray::new(8, 8));
        let config = RouterConfig::paper_config(TileArray::new(16, 16), LayerMode::DualLayer);
        assert!(matches!(
            config.route(&netlist),
            Err(RouteError::ArrayMismatch { .. })
        ));
    }

    #[test]
    fn fanout_nets_charge_the_nearest_side() {
        let array = TileArray::new(8, 8);
        let config = RouterConfig::paper_config(array, LayerMode::DualLayer);
        assert_eq!(config.nearest_side(TileCoord::new(3, 0)), 0); // north
        assert_eq!(config.nearest_side(TileCoord::new(3, 7)), 1); // south
        assert_eq!(config.nearest_side(TileCoord::new(7, 3)), 2); // east
        assert_eq!(config.nearest_side(TileCoord::new(0, 3)), 3); // west
    }

    #[test]
    fn route_is_deterministic() {
        let (_, a) = route(TileArray::new(8, 8), LayerMode::DualLayer);
        let (_, b) = route(TileArray::new(8, 8), LayerMode::DualLayer);
        assert_eq!(a, b);
    }

    #[test]
    fn report_display() {
        let (_, report) = route(TileArray::new(4, 4), LayerMode::DualLayer);
        let s = report.to_string();
        assert!(s.contains("nets routed"));
        assert!(s.contains("0 failed"));
    }
}
