//! System configuration and the Table I derivations.
//!
//! Every "salient feature" of the paper's Table I is a *derived* quantity:
//! given the tile array dimensions, the chiplet geometry, the bank counts,
//! and the clock, the totals follow. Deriving them (instead of hard-coding
//! the table) keeps the model honest and lets the same code describe the
//! reduced-size FPGA-scale systems used for validation.

use std::fmt;

use wsp_assembly::{BondingModel, ChipletKind, PadFrame, RedundancyScheme};
use wsp_common::units::{Hertz, Millimeters, SquareMillimeters, Volts, Watts};
use wsp_tile::{MemoryModelKind, CORES_PER_TILE, PRIVATE_SRAM_BYTES};
use wsp_topo::TileArray;

/// How the machine prices remote shared-memory accesses.
///
/// There is one model: every remote load/store/AMO rides the cycle-level
/// [`wsp_noc::Fabric`]'s dual-DoR mesh as a real packet and the core
/// stalls until the response is delivered, so congestion, hot-spot
/// queueing, and relay forwarding cost what they cost. Nothing stores or
/// branches on it: the type remains only for the benchmark's
/// `with_latency_model(LatencyModel::Fabric)` call in
/// `wsp-benchmark/src/workloads/machine.rs`, and goes with that call in
/// the next change to the benchmark.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Cycle-level simulation on the shared NoC fabric.
    #[default]
    Fabric,
}

/// Full-system configuration.
///
/// # Examples
///
/// ```
/// use waferscale::SystemConfig;
/// use wsp_topo::TileArray;
///
/// // The FPGA-validation-scale system: same architecture, fewer tiles.
/// let small = SystemConfig::with_array(TileArray::new(4, 4));
/// assert_eq!(small.total_cores(), 224);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    array: TileArray,
    frequency: Hertz,
    core_voltage: Volts,
    supply_voltage: Volts,
    memory_model: MemoryModelKind,
}

impl SystemConfig {
    /// Nominal logic frequency/voltage (Table I: 300 MHz / 1.1 V).
    pub const NOMINAL_FREQUENCY: Hertz = Hertz(300.0e6);

    /// Nominal core voltage.
    pub const NOMINAL_VOLTAGE: Volts = Volts(1.1);

    /// Tile pitch along X: compute-chiplet width + 100 µm spacing.
    pub const TILE_PITCH_X: Millimeters = Millimeters(3.25);

    /// Tile pitch along Y: compute height + memory height + 2 spacings.
    pub const TILE_PITCH_Y: Millimeters = Millimeters(3.7);

    /// Fan-out/edge-connector margin around the array (edge reticles).
    pub const EDGE_MARGIN: Millimeters = Millimeters(6.0);

    /// Data payload bits carried per network link per cycle (the 100-bit
    /// packet carries a 64-bit data word beside address/control).
    pub const LINK_PAYLOAD_BITS: u32 = 64;

    /// The paper's 32×32-tile prototype.
    pub fn paper_prototype() -> Self {
        SystemConfig::with_array(TileArray::new(32, 32))
    }

    /// Same architecture over an arbitrary array (e.g. the reduced-size
    /// FPGA-emulation systems).
    pub fn with_array(array: TileArray) -> Self {
        SystemConfig {
            array,
            frequency: Self::NOMINAL_FREQUENCY,
            core_voltage: Self::NOMINAL_VOLTAGE,
            supply_voltage: Volts(2.5),
            memory_model: MemoryModelKind::default(),
        }
    }

    /// The same configuration: [`LatencyModel`] has one variant, so
    /// there is nothing to select. Kept only for the benchmark's
    /// explicit selection, which the next change to the benchmark deletes
    /// together with this function and the type.
    #[must_use]
    pub fn with_latency_model(self, _model: LatencyModel) -> Self {
        self
    }

    /// The same configuration with a different memory-timing backend
    /// for every tile's shared banks (the memory-fidelity axis).
    #[must_use]
    pub fn with_memory_model(mut self, model: MemoryModelKind) -> Self {
        self.memory_model = model;
        self
    }

    /// Which memory-timing backend the tiles' shared banks use.
    #[inline]
    pub fn memory_model(&self) -> MemoryModelKind {
        self.memory_model
    }

    /// The tile array.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// Nominal clock frequency.
    #[inline]
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// Nominal core voltage.
    #[inline]
    pub fn core_voltage(&self) -> Volts {
        self.core_voltage
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.array.tile_count()
    }

    /// Number of compute chiplets (one per tile).
    pub fn compute_chiplets(&self) -> usize {
        self.tile_count()
    }

    /// Number of memory chiplets (one per tile).
    pub fn memory_chiplets(&self) -> usize {
        self.tile_count()
    }

    /// Total chiplets assembled on the wafer.
    pub fn total_chiplets(&self) -> usize {
        self.compute_chiplets() + self.memory_chiplets()
    }

    /// Cores per tile (Table I: 14).
    pub fn cores_per_tile(&self) -> usize {
        CORES_PER_TILE
    }

    /// Total cores.
    pub fn total_cores(&self) -> usize {
        self.tile_count() * CORES_PER_TILE
    }

    /// Private memory per core in bytes (Table I: 64 KB).
    pub fn private_memory_per_core(&self) -> usize {
        PRIVATE_SRAM_BYTES
    }

    /// Globally shared memory in bytes (4 × 128 KB per tile; Table I:
    /// 512 MB for the full wafer).
    pub fn total_shared_memory(&self) -> u64 {
        self.tile_count() as u64 * wsp_tile::memory::GLOBAL_REGION_BYTES as u64
    }

    /// Aggregate inter-tile network bandwidth in bytes per second
    /// (Table I: 9.83 TB/s): every tile moves a 64-bit payload on each of
    /// its four links every cycle.
    pub fn network_bandwidth(&self) -> f64 {
        self.tile_count() as f64 * 4.0 * f64::from(Self::LINK_PAYLOAD_BITS) / 8.0
            * self.frequency.value()
    }

    /// Aggregate shared-memory bandwidth in bytes per second (Table I:
    /// 6.144 TB/s): five 32-bit banks per tile, one word each per cycle.
    pub fn shared_memory_bandwidth(&self) -> f64 {
        self.tile_count() as f64 * 5.0 * 4.0 * self.frequency.value()
    }

    /// Peak compute throughput in TOPS (Table I: 4.3): one op per core
    /// per cycle.
    pub fn compute_throughput_tops(&self) -> f64 {
        self.total_cores() as f64 * self.frequency.value() / 1e12
    }

    /// I/O pads per chiplet (Table I: 2020 compute / 1250 memory).
    pub fn ios_per_chiplet(&self, kind: ChipletKind) -> u32 {
        PadFrame::paper(kind).total_pads()
    }

    /// Total inter-chiplet I/O pads on the wafer (Sec. VII-B: 3.7 M+).
    pub fn total_ios(&self) -> u64 {
        self.compute_chiplets() as u64 * u64::from(self.ios_per_chiplet(ChipletKind::Compute))
            + self.memory_chiplets() as u64 * u64::from(self.ios_per_chiplet(ChipletKind::Memory))
    }

    /// Total wafer area including the edge-I/O margin (Table I:
    /// ~15,100 mm²).
    pub fn total_area(&self) -> SquareMillimeters {
        let w = Self::TILE_PITCH_X * f64::from(self.array.cols()) + Self::EDGE_MARGIN * 2.0;
        let h = Self::TILE_PITCH_Y * f64::from(self.array.rows()) + Self::EDGE_MARGIN * 2.0;
        w * h
    }

    /// Total peak power drawn from the external 2.5 V supply (Table I:
    /// 725 W): per-tile peak current at the fast-fast corner times the
    /// supply voltage.
    pub fn total_peak_power(&self) -> Watts {
        let current = wsp_pdn::PdnConfig::PAPER_TILE_CURRENT * self.tile_count() as f64;
        self.supply_voltage * current
    }

    /// The bonding model of one full tile (compute + memory chiplet) with
    /// the production dual-pillar scheme.
    pub fn tile_bonding_model(&self) -> BondingModel {
        BondingModel::combined_tile_model(
            &BondingModel::paper_compute_chiplet(RedundancyScheme::DualPillar),
            &BondingModel::paper_memory_chiplet(RedundancyScheme::DualPillar),
        )
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} chiplets, {} cores at {:.0} MHz",
            self.array,
            self.total_chiplets(),
            self.total_cores(),
            self.frequency.as_megahertz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts() {
        let cfg = SystemConfig::paper_prototype();
        assert_eq!(cfg.compute_chiplets(), 1024);
        assert_eq!(cfg.memory_chiplets(), 1024);
        assert_eq!(cfg.total_chiplets(), 2048);
        assert_eq!(cfg.cores_per_tile(), 14);
        assert_eq!(cfg.total_cores(), 14_336);
    }

    #[test]
    fn table1_memory() {
        let cfg = SystemConfig::paper_prototype();
        assert_eq!(cfg.private_memory_per_core(), 64 * 1024);
        assert_eq!(cfg.total_shared_memory(), 512 * 1024 * 1024);
    }

    #[test]
    fn table1_bandwidths() {
        let cfg = SystemConfig::paper_prototype();
        // Network B/W 9.83 TB/s.
        let net = cfg.network_bandwidth() / 1e12;
        assert!((net - 9.83).abs() < 0.01, "network bandwidth {net} TB/s");
        // Shared memory B/W 6.144 TB/s.
        let mem = cfg.shared_memory_bandwidth() / 1e12;
        assert!((mem - 6.144).abs() < 0.001, "memory bandwidth {mem} TB/s");
    }

    #[test]
    fn table1_compute_throughput() {
        let cfg = SystemConfig::paper_prototype();
        let tops = cfg.compute_throughput_tops();
        assert!((tops - 4.3).abs() < 0.01, "throughput {tops} TOPS");
    }

    #[test]
    fn table1_ios() {
        let cfg = SystemConfig::paper_prototype();
        assert_eq!(cfg.ios_per_chiplet(ChipletKind::Compute), 2020);
        assert_eq!(cfg.ios_per_chiplet(ChipletKind::Memory), 1250);
        // Sec. VII-B: "the total number of inter-chip I/Os is 3.7M+".
        assert!(
            cfg.total_ios() > 3_300_000,
            "total I/Os {}",
            cfg.total_ios()
        );
    }

    #[test]
    fn table1_area() {
        let cfg = SystemConfig::paper_prototype();
        let area = cfg.total_area().value();
        // Table I: 15,100 mm² including edge I/Os.
        assert!((14_500.0..15_700.0).contains(&area), "area {area} mm²");
    }

    #[test]
    fn table1_peak_power() {
        let cfg = SystemConfig::paper_prototype();
        let p = cfg.total_peak_power().value();
        // Table I: 725 W (we derive 741 W from the unrounded current).
        assert!((700.0..760.0).contains(&p), "peak power {p} W");
    }

    #[test]
    fn reduced_size_systems_scale_down() {
        let small = SystemConfig::with_array(TileArray::new(4, 4));
        assert_eq!(small.total_cores(), 224);
        assert_eq!(small.total_shared_memory(), 16 * 512 * 1024);
        assert!(small.network_bandwidth() < SystemConfig::paper_prototype().network_bandwidth());
    }

    #[test]
    fn tile_bonding_model_is_high_yield() {
        let cfg = SystemConfig::paper_prototype();
        assert!(cfg.tile_bonding_model().chiplet_yield() > 0.9999);
    }

    #[test]
    fn latency_model_defaults_to_fabric() {
        let cfg = SystemConfig::paper_prototype();
        assert_eq!(LatencyModel::default(), LatencyModel::Fabric);
        assert_eq!(cfg.with_latency_model(LatencyModel::Fabric), cfg);
    }

    #[test]
    fn memory_model_defaults_to_fixed() {
        let cfg = SystemConfig::paper_prototype();
        assert_eq!(cfg.memory_model(), MemoryModelKind::Fixed);
        let banked = cfg.with_memory_model(MemoryModelKind::Banked);
        assert_eq!(banked.memory_model(), MemoryModelKind::Banked);
        // Only the memory model changes.
        assert_eq!(banked.with_memory_model(MemoryModelKind::Fixed), cfg);
        assert_eq!(banked.total_cores(), cfg.total_cores());
    }

    #[test]
    fn display_summarises() {
        let s = SystemConfig::paper_prototype().to_string();
        assert!(s.contains("2048 chiplets"));
        assert!(s.contains("14336 cores"));
    }
}
