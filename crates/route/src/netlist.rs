//! Netlist generation for the waferscale substrate.
//!
//! The substrate's connectivity is completely regular, so the netlist is
//! generated from the tile array rather than read from a file: network
//! bundles between adjacent tiles, the compute↔memory bundle inside each
//! tile, clock-forwarding wires, the row JTAG chains, and the edge
//! fan-out of boundary tiles to the wafer-edge connectors.

use std::fmt;

use wsp_topo::{Direction, TileArray, TileCoord};

/// What a net carries; decides its I/O column set and hence its layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetClass {
    /// A 400-bit inter-tile network bundle (essential).
    Network,
    /// The essential part of the compute↔memory bundle (banks 0–1).
    MemoryEssential,
    /// The second-layer part of the compute↔memory bundle (banks 2–4).
    MemorySecondLayer,
    /// Clock forwarding wires between adjacent tiles (essential).
    Clock,
    /// Row JTAG daisy-chain wires (essential).
    Jtag,
    /// Boundary-tile fan-out to the wafer-edge connectors (essential).
    EdgeFanout,
}

impl NetClass {
    /// Whether this class belongs to the essential I/O column set
    /// (routes on layer 1 and survives a single-layer substrate).
    pub fn is_essential(self) -> bool {
        !matches!(self, NetClass::MemorySecondLayer)
    }
}

impl fmt::Display for NetClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetClass::Network => "network",
            NetClass::MemoryEssential => "memory (essential banks)",
            NetClass::MemorySecondLayer => "memory (second-layer banks)",
            NetClass::Clock => "clock",
            NetClass::Jtag => "jtag",
            NetClass::EdgeFanout => "edge fan-out",
        };
        f.write_str(s)
    }
}

/// One end of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetEndpoint {
    /// A chiplet pin field on a tile.
    Tile(TileCoord),
    /// The wafer-edge connector region nearest the given boundary tile.
    WaferEdge(TileCoord),
}

/// A routable net: a bundle of `width` parallel wires between two
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net {
    /// Unique id within the netlist.
    pub id: u32,
    /// Signal class.
    pub class: NetClass,
    /// Source endpoint.
    pub from: NetEndpoint,
    /// Destination endpoint.
    pub to: NetEndpoint,
    /// Number of parallel wires in the bundle.
    pub width: u32,
}

/// The generated netlist of a wafer.
///
/// # Examples
///
/// ```
/// use wsp_route::WaferNetlist;
/// use wsp_topo::TileArray;
///
/// let netlist = WaferNetlist::generate(TileArray::new(32, 32));
/// assert!(netlist.nets().len() > 5000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaferNetlist {
    array: TileArray,
    nets: Vec<Net>,
}

impl WaferNetlist {
    /// Wires per inter-tile network bundle (Sec. VI: 400-bit links per
    /// tile side, two buses per DoR network).
    pub const NETWORK_BUNDLE: u32 = 400;

    /// Essential compute↔memory wires (banks 0–1 + control).
    pub const MEMORY_ESSENTIAL_BUNDLE: u32 = 120;

    /// Second-layer compute↔memory wires (banks 2–4).
    pub const MEMORY_SECOND_BUNDLE: u32 = 180;

    /// Clock forwarding wires per adjacent pair (clock out + enable).
    pub const CLOCK_BUNDLE: u32 = 2;

    /// Row JTAG chain wires between horizontally adjacent tiles
    /// (TDI/TDO/TMS/TCK + loop-back pair).
    pub const JTAG_BUNDLE: u32 = 8;

    /// External wires per boundary tile (JTAG master, clock reference,
    /// monitoring).
    pub const FANOUT_BUNDLE: u32 = 40;

    /// Generates the full netlist for `array`.
    pub fn generate(array: TileArray) -> Self {
        let mut nets = Vec::new();
        let mut id = 0u32;
        let mut push = |nets: &mut Vec<Net>, class, from, to, width| {
            nets.push(Net {
                id,
                class,
                from,
                to,
                width,
            });
            id += 1;
        };

        for tile in array.tiles() {
            // Eastward and southward neighbours (each adjacency once).
            for dir in [Direction::East, Direction::South] {
                if let Some(nb) = array.neighbor(tile, dir) {
                    push(
                        &mut nets,
                        NetClass::Network,
                        NetEndpoint::Tile(tile),
                        NetEndpoint::Tile(nb),
                        Self::NETWORK_BUNDLE,
                    );
                    push(
                        &mut nets,
                        NetClass::Clock,
                        NetEndpoint::Tile(tile),
                        NetEndpoint::Tile(nb),
                        Self::CLOCK_BUNDLE,
                    );
                }
            }
            // Row JTAG chain: horizontal links only.
            if let Some(nb) = array.neighbor(tile, Direction::East) {
                push(
                    &mut nets,
                    NetClass::Jtag,
                    NetEndpoint::Tile(tile),
                    NetEndpoint::Tile(nb),
                    Self::JTAG_BUNDLE,
                );
            }
            // Intra-tile compute↔memory bundles (zero-crossing nets, but
            // they still consume escape tracks on the shared edge).
            push(
                &mut nets,
                NetClass::MemoryEssential,
                NetEndpoint::Tile(tile),
                NetEndpoint::Tile(tile),
                Self::MEMORY_ESSENTIAL_BUNDLE,
            );
            push(
                &mut nets,
                NetClass::MemorySecondLayer,
                NetEndpoint::Tile(tile),
                NetEndpoint::Tile(tile),
                Self::MEMORY_SECOND_BUNDLE,
            );
            // Edge fan-out for boundary tiles.
            if array.is_edge(tile) {
                push(
                    &mut nets,
                    NetClass::EdgeFanout,
                    NetEndpoint::Tile(tile),
                    NetEndpoint::WaferEdge(tile),
                    Self::FANOUT_BUNDLE,
                );
            }
        }

        WaferNetlist { array, nets }
    }

    /// The tile array the netlist spans.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Nets of one class.
    pub fn nets_of_class(&self, class: NetClass) -> impl Iterator<Item = &Net> {
        self.nets.iter().filter(move |n| n.class == class)
    }

    /// Total wire count (Σ bundle widths).
    pub fn total_wires(&self) -> u64 {
        self.nets.iter().map(|n| u64::from(n.width)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_for_the_paper_wafer() {
        let netlist = WaferNetlist::generate(TileArray::new(32, 32));
        // 2 × 31 × 32 = 1984 adjacencies.
        assert_eq!(netlist.nets_of_class(NetClass::Network).count(), 1984);
        assert_eq!(netlist.nets_of_class(NetClass::Clock).count(), 1984);
        // Horizontal-only JTAG: 31 × 32 = 992.
        assert_eq!(netlist.nets_of_class(NetClass::Jtag).count(), 992);
        // One essential + one second-layer memory bundle per tile.
        assert_eq!(
            netlist.nets_of_class(NetClass::MemoryEssential).count(),
            1024
        );
        assert_eq!(
            netlist.nets_of_class(NetClass::MemorySecondLayer).count(),
            1024
        );
        // 124 boundary tiles fan out.
        assert_eq!(netlist.nets_of_class(NetClass::EdgeFanout).count(), 124);
    }

    #[test]
    fn total_wires_is_plausible() {
        let netlist = WaferNetlist::generate(TileArray::new(32, 32));
        // Each wire terminates on two pads; the paper counts 3.7 M+
        // inter-chip I/Os wafer-wide, so wire count is ~half that scale
        // plus intra-tile bundles.
        let wires = netlist.total_wires();
        assert!(
            (1_000_000..2_500_000).contains(&wires),
            "total wires {wires}"
        );
    }

    #[test]
    fn essential_classification() {
        assert!(NetClass::Network.is_essential());
        assert!(NetClass::MemoryEssential.is_essential());
        assert!(NetClass::Clock.is_essential());
        assert!(NetClass::Jtag.is_essential());
        assert!(NetClass::EdgeFanout.is_essential());
        assert!(!NetClass::MemorySecondLayer.is_essential());
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let netlist = WaferNetlist::generate(TileArray::new(4, 4));
        let mut ids: Vec<u32> = netlist.nets().iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), netlist.nets().len());
        assert_eq!(ids.last().copied(), Some(netlist.nets().len() as u32 - 1));
    }

    #[test]
    fn small_array_has_edge_fanout_everywhere() {
        // Every tile of a 2×2 array is a boundary tile.
        let netlist = WaferNetlist::generate(TileArray::new(2, 2));
        assert_eq!(netlist.nets_of_class(NetClass::EdgeFanout).count(), 4);
    }

    #[test]
    fn display_of_classes() {
        assert_eq!(NetClass::Network.to_string(), "network");
        assert_eq!(
            NetClass::MemorySecondLayer.to_string(),
            "memory (second-layer banks)"
        );
    }
}
