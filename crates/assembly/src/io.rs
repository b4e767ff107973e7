//! Fine-pitch I/O cell and pad-frame architecture (Sec. V, Figs. 5 and 8).
//!
//! Si-IF links are 200–500 µm long, so the paper drives them with tiny
//! cascaded-inverter transmitters and minimum-size receivers, squeezing the
//! whole transceiver (plus relaxed 100 V-HBM ESD) under the pad itself.
//! The pad frame places two I/O column *sets* on each chiplet side — the
//! set nearest the die edge carries everything essential and routes on
//! substrate layer 1, the second set routes on layer 2 — so a wafer whose
//! second routing layer fails still yields a working (smaller-memory)
//! system (Sec. VIII).

use std::fmt;

use wsp_common::units::{Hertz, Joules, Micrometers, Millimeters, SquareMillimeters, Volts};

/// Which of the two I/O column sets a pad group belongs to.
///
/// Set membership decides the substrate routing layer and therefore which
/// signals survive a single-layer (degraded) substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoColumnSet {
    /// The two columns closest to the die edge; routed on signal layer 1.
    /// Carries all absolutely essential I/Os.
    Essential,
    /// The outer columns; routed on signal layer 2. Carries non-essential
    /// I/Os and the remaining memory banks.
    SecondLayer,
}

impl fmt::Display for IoColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoColumnSet::Essential => f.write_str("essential (layer 1)"),
            IoColumnSet::SecondLayer => f.write_str("second-layer"),
        }
    }
}

/// The two chiplet types of a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipletKind {
    /// 14 Cortex-M3-class cores, network routers, power regulation.
    Compute,
    /// Five 128 KB SRAM banks, buffered feedthroughs, decap banks.
    Memory,
}

impl fmt::Display for ChipletKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipletKind::Compute => f.write_str("compute chiplet"),
            ChipletKind::Memory => f.write_str("memory chiplet"),
        }
    }
}

/// Electrical and geometric model of one fine-pitch I/O transceiver cell.
///
/// # Examples
///
/// ```
/// use wsp_common::units::Hertz;
/// use wsp_assembly::IoCell;
///
/// let cell = IoCell::paper_cell();
/// let energy = cell.energy_for_bits(1_000_000);
/// assert!(energy.as_picojoules() > 60_000.0); // 0.063 pJ/bit × 1 Mb
/// assert!(cell.supports_frequency(Hertz::from_megahertz(1000.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoCell {
    area_um2: f64,
    energy_per_bit: Joules,
    max_frequency: Hertz,
    max_link_length: Micrometers,
    esd_rating: Volts,
}

impl IoCell {
    /// The paper's I/O cell: ~150 µm² with stripped-down ESD, 1 GHz drive
    /// over links up to 500 µm, 0.063 pJ/bit, 100 V HBM.
    pub fn paper_cell() -> Self {
        IoCell {
            area_um2: 150.0,
            energy_per_bit: Joules::from_picojoules(0.063),
            max_frequency: Hertz::from_megahertz(1000.0),
            max_link_length: Micrometers(500.0),
            esd_rating: Volts(100.0),
        }
    }

    /// Creates a custom I/O cell model.
    ///
    /// # Panics
    ///
    /// Panics if any magnitude is non-positive.
    pub fn new(
        area_um2: f64,
        energy_per_bit: Joules,
        max_frequency: Hertz,
        max_link_length: Micrometers,
        esd_rating: Volts,
    ) -> Self {
        assert!(area_um2 > 0.0, "I/O cell area must be positive");
        assert!(
            energy_per_bit.value() > 0.0,
            "energy per bit must be positive"
        );
        assert!(
            max_frequency.value() > 0.0,
            "max frequency must be positive"
        );
        assert!(
            max_link_length.value() > 0.0,
            "max link length must be positive"
        );
        IoCell {
            area_um2,
            energy_per_bit,
            max_frequency,
            max_link_length,
            esd_rating,
        }
    }

    /// Cell area in µm², transceiver plus ESD.
    #[inline]
    pub fn area_um2(&self) -> f64 {
        self.area_um2
    }

    /// Switching energy per transferred bit.
    #[inline]
    pub fn energy_per_bit(&self) -> Joules {
        self.energy_per_bit
    }

    /// Maximum signalling frequency.
    #[inline]
    pub fn max_frequency(&self) -> Hertz {
        self.max_frequency
    }

    /// Longest Si-IF link this driver can close at full speed.
    #[inline]
    pub fn max_link_length(&self) -> Micrometers {
        self.max_link_length
    }

    /// ESD tolerance (human-body model). Bare-die bonding only needs 100 V
    /// HBM rather than the 2 kV of packaged parts, which is what makes the
    /// under-pad cell possible.
    #[inline]
    pub fn esd_rating(&self) -> Volts {
        self.esd_rating
    }

    /// Whether the cell fits entirely under an I/O pad of the given
    /// dimensions. The paper's 150 µm² cell does *not* fit under a single
    /// 10 µm-pitch pillar footprint — hence the double-width pad that then
    /// doubles as pillar redundancy.
    pub fn fits_under_pad(&self, pad_width: Micrometers, pad_height: Micrometers) -> bool {
        self.area_um2 <= pad_width.value() * pad_height.value()
    }

    /// Whether the cell can signal at `freq`.
    pub fn supports_frequency(&self, freq: Hertz) -> bool {
        freq.value() <= self.max_frequency.value()
    }

    /// Whether the cell can drive a link of the given length at full speed.
    pub fn supports_link_length(&self, length: Micrometers) -> bool {
        length.value() <= self.max_link_length.value()
    }

    /// Total switching energy to move `bits` bits.
    pub fn energy_for_bits(&self, bits: u64) -> Joules {
        self.energy_per_bit * bits as f64
    }
}

/// One named group of pads with a shared function and column set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PadGroup {
    /// Human-readable signal-group name (e.g. `"network north"`).
    pub name: String,
    /// Number of pads in the group.
    pub count: u32,
    /// Which column set (and hence routing layer) the group occupies.
    pub set: IoColumnSet,
}

/// The full pad frame of one chiplet: fine-pitch bonding pads partitioned
/// into essential/second-layer column sets, plus the large duplicate probe
/// pads used only for pre-bond testing (Fig. 8).
///
/// # Examples
///
/// ```
/// use wsp_assembly::{ChipletKind, IoColumnSet, PadFrame};
///
/// let frame = PadFrame::paper(ChipletKind::Compute);
/// assert_eq!(frame.total_pads(), 2020);
/// assert!(frame.pads_in_set(IoColumnSet::Essential) > 1600);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PadFrame {
    kind: ChipletKind,
    width: Millimeters,
    height: Millimeters,
    fine_pitch: Micrometers,
    groups: Vec<PadGroup>,
    probe_pads: u32,
    probe_pitch: Micrometers,
}

impl PadFrame {
    /// Fine-pitch copper-pillar pitch offered by the Si-IF: 10 µm.
    pub const PAPER_PILLAR_PITCH: Micrometers = Micrometers(10.0);

    /// Substrate wiring pitch used by the prototype: 5 µm (minimum 4 µm).
    pub const PAPER_WIRING_PITCH: Micrometers = Micrometers(5.0);

    /// Number of signal routing layers on the substrate.
    pub const PAPER_SIGNAL_LAYERS: u32 = 2;

    /// Builds the paper's pad frame for the given chiplet kind.
    ///
    /// The group partition reconstructs Sec. V / Sec. VIII: the essential
    /// set holds all network links (400 bits per side on the compute
    /// chiplet), the clock/test signals, and the I/Os of two of the five
    /// memory banks; the second-layer set holds the remaining three banks
    /// and spares. Totals match Table I (2020 compute / 1250 memory).
    pub fn paper(kind: ChipletKind) -> Self {
        match kind {
            ChipletKind::Compute => PadFrame {
                kind,
                width: Millimeters(3.15),
                height: Millimeters(2.4),
                fine_pitch: Self::PAPER_PILLAR_PITCH,
                groups: vec![
                    PadGroup {
                        name: "network north".into(),
                        count: 400,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "network south".into(),
                        count: 400,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "network east".into(),
                        count: 400,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "network west".into(),
                        count: 400,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "memory banks 0-1 (essential)".into(),
                        count: 120,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "memory banks 2-4".into(),
                        count: 180,
                        set: IoColumnSet::SecondLayer,
                    },
                    PadGroup {
                        name: "clock forward + master + JTAG".into(),
                        count: 20,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "aux / spare".into(),
                        count: 100,
                        set: IoColumnSet::SecondLayer,
                    },
                ],
                probe_pads: 16,
                probe_pitch: Micrometers(60.0),
            },
            ChipletKind::Memory => PadFrame {
                kind,
                width: Millimeters(3.15),
                height: Millimeters(1.1),
                fine_pitch: Self::PAPER_PILLAR_PITCH,
                groups: vec![
                    PadGroup {
                        name: "banks 0-1 (essential)".into(),
                        count: 400,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "banks 2-4".into(),
                        count: 600,
                        set: IoColumnSet::SecondLayer,
                    },
                    PadGroup {
                        name: "north-south feedthrough".into(),
                        count: 200,
                        set: IoColumnSet::Essential,
                    },
                    PadGroup {
                        name: "control / decap sense".into(),
                        count: 50,
                        set: IoColumnSet::Essential,
                    },
                ],
                probe_pads: 12,
                probe_pitch: Micrometers(60.0),
            },
        }
    }

    /// The chiplet kind this frame belongs to.
    #[inline]
    pub fn kind(&self) -> ChipletKind {
        self.kind
    }

    /// Die width (the edge parallel to the wafer rows).
    #[inline]
    pub fn width(&self) -> Millimeters {
        self.width
    }

    /// Die height.
    #[inline]
    pub fn height(&self) -> Millimeters {
        self.height
    }

    /// Die area.
    pub fn die_area(&self) -> SquareMillimeters {
        self.width * self.height
    }

    /// The pad groups making up the frame.
    pub fn groups(&self) -> &[PadGroup] {
        &self.groups
    }

    /// Total number of fine-pitch bonding pads.
    pub fn total_pads(&self) -> u32 {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Number of pads in the given column set.
    pub fn pads_in_set(&self, set: IoColumnSet) -> u32 {
        self.groups
            .iter()
            .filter(|g| g.set == set)
            .map(|g| g.count)
            .sum()
    }

    /// Number of large duplicate probe pads (pre-bond test only; never
    /// bonded, so probe damage cannot compromise the metal-to-metal bond).
    #[inline]
    pub fn probe_pad_count(&self) -> u32 {
        self.probe_pads
    }

    /// Probe-pad pitch; must exceed the ~50 µm probe-card minimum.
    #[inline]
    pub fn probe_pitch(&self) -> Micrometers {
        self.probe_pitch
    }

    /// Whether the probe pads can actually be touched by a standard probe
    /// card (pitch ≥ 50 µm).
    pub fn is_probeable(&self) -> bool {
        self.probe_pitch.value() >= 50.0
    }

    /// Total silicon area consumed by the I/O cells of this frame.
    pub fn total_io_area(&self, cell: &IoCell) -> SquareMillimeters {
        SquareMillimeters(f64::from(self.total_pads()) * cell.area_um2() * 1e-6)
    }

    /// Escape (edge interconnect) density in wires per millimetre of die
    /// edge for a given wiring pitch and signal layer count.
    ///
    /// With the paper's 5 µm pitch and two layers this is 400 wires/mm.
    pub fn edge_wire_density(wiring_pitch: Micrometers, layers: u32) -> f64 {
        assert!(wiring_pitch.value() > 0.0, "wiring pitch must be positive");
        f64::from(layers) * 1000.0 / wiring_pitch.value()
    }

    /// Maximum number of wires that can escape one full die edge.
    pub fn max_escape_wires(&self, wiring_pitch: Micrometers, layers: u32) -> u32 {
        (Self::edge_wire_density(wiring_pitch, layers) * self.width.value()).floor() as u32
    }
}

impl fmt::Display for PadFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pad frame: {} fine-pitch pads (+{} probe pads), {:.2} x {:.2}",
            self.kind,
            self.total_pads(),
            self.probe_pads,
            self.width,
            self.height
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cell_parameters() {
        let cell = IoCell::paper_cell();
        assert_eq!(cell.area_um2(), 150.0);
        assert!((cell.energy_per_bit().as_picojoules() - 0.063).abs() < 1e-9);
        assert!(cell.supports_frequency(Hertz::from_megahertz(1000.0)));
        assert!(!cell.supports_frequency(Hertz::from_megahertz(1200.0)));
        assert!(cell.supports_link_length(Micrometers(500.0)));
        assert!(!cell.supports_link_length(Micrometers(501.0)));
        assert_eq!(cell.esd_rating(), Volts(100.0));
    }

    #[test]
    fn cell_needs_double_pad() {
        let cell = IoCell::paper_cell();
        // One 10 µm-pitch pillar footprint (~10×10 µm) is too small...
        assert!(!cell.fits_under_pad(Micrometers(10.0), Micrometers(10.0)));
        // ...but the double pad (two pillars, ~10×20 µm) accommodates it.
        assert!(cell.fits_under_pad(Micrometers(10.0), Micrometers(20.0)));
    }

    #[test]
    fn energy_scales_linearly() {
        let cell = IoCell::paper_cell();
        let one = cell.energy_for_bits(1);
        let kilo = cell.energy_for_bits(1000);
        assert!((kilo.value() - 1000.0 * one.value()).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "area must be positive")]
    fn zero_area_cell_rejected() {
        let _ = IoCell::new(
            0.0,
            Joules::from_picojoules(0.1),
            Hertz::from_megahertz(1000.0),
            Micrometers(500.0),
            Volts(100.0),
        );
    }

    #[test]
    fn paper_pad_totals_match_table1() {
        assert_eq!(PadFrame::paper(ChipletKind::Compute).total_pads(), 2020);
        assert_eq!(PadFrame::paper(ChipletKind::Memory).total_pads(), 1250);
    }

    #[test]
    fn essential_set_carries_all_network_links() {
        let frame = PadFrame::paper(ChipletKind::Compute);
        let essential = frame.pads_in_set(IoColumnSet::Essential);
        // 4 × 400-bit network links must be in the essential set.
        assert!(essential >= 1600);
        assert_eq!(
            essential + frame.pads_in_set(IoColumnSet::SecondLayer),
            frame.total_pads()
        );
    }

    #[test]
    fn memory_frame_keeps_two_of_five_banks_essential() {
        let frame = PadFrame::paper(ChipletKind::Memory);
        // Bank I/Os: 400 essential (2 banks) vs 600 second-layer (3 banks):
        // losing layer 2 keeps 2/5 of capacity = 60 % reduction (Sec. VIII).
        let bank_essential: u32 = frame
            .groups()
            .iter()
            .filter(|g| g.name.starts_with("banks") && g.set == IoColumnSet::Essential)
            .map(|g| g.count)
            .sum();
        let bank_second: u32 = frame
            .groups()
            .iter()
            .filter(|g| g.name.starts_with("banks") && g.set == IoColumnSet::SecondLayer)
            .map(|g| g.count)
            .sum();
        assert_eq!(bank_essential, 400);
        assert_eq!(bank_second, 600);
    }

    #[test]
    fn io_area_matches_paper() {
        let frame = PadFrame::paper(ChipletKind::Compute);
        let cell = IoCell::paper_cell();
        // Paper: "total I/O area is only 0.4 mm²" for ~2000+ cells.
        let area = frame.total_io_area(&cell);
        assert!((0.28..0.45).contains(&area.value()), "I/O area {area}");
    }

    #[test]
    fn edge_density_is_400_wires_per_mm() {
        let d = PadFrame::edge_wire_density(PadFrame::PAPER_WIRING_PITCH, 2);
        assert!((d - 400.0).abs() < 1e-9);
        // One layer halves it.
        let d1 = PadFrame::edge_wire_density(PadFrame::PAPER_WIRING_PITCH, 1);
        assert!((d1 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn escape_capacity_covers_network_link() {
        let frame = PadFrame::paper(ChipletKind::Compute);
        // A 3.15 mm edge at 400 wires/mm carries 1260 wires — more than the
        // 400-bit per-side link plus overheads even on one layer.
        let max2 = frame.max_escape_wires(PadFrame::PAPER_WIRING_PITCH, 2);
        assert_eq!(max2, 1260);
        assert!(max2 >= 400);
    }

    #[test]
    fn probe_pads_are_probeable() {
        for kind in [ChipletKind::Compute, ChipletKind::Memory] {
            let frame = PadFrame::paper(kind);
            assert!(frame.is_probeable());
            assert!(frame.probe_pad_count() > 0);
            assert!(frame.probe_pitch().value() >= 50.0);
        }
    }

    #[test]
    fn die_areas_match_table1() {
        let c = PadFrame::paper(ChipletKind::Compute);
        let m = PadFrame::paper(ChipletKind::Memory);
        assert!((c.die_area().value() - 7.56).abs() < 1e-9);
        assert!((m.die_area().value() - 3.465).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_kind_and_counts() {
        let s = PadFrame::paper(ChipletKind::Compute).to_string();
        assert!(s.contains("compute chiplet"));
        assert!(s.contains("2020"));
    }
}
