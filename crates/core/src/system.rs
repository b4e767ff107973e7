//! Full-system lifecycle: assembly → power → clock → test → network.
//!
//! [`WaferscaleSystem`] strings the substrate models together in the
//! order the physical wafer experiences them:
//!
//! 1. **Assembly** — the KGD flow bonds chiplets; bonding failures become
//!    the initial fault map ([`wsp_assembly`]).
//! 2. **Power-on** — the PDN solve confirms every healthy tile receives a
//!    voltage its LDO can regulate ([`wsp_pdn`]).
//! 3. **Clock setup** — edge generators flood the fast clock; healthy
//!    tiles that cannot be reached are retired into the fault map
//!    ([`wsp_clock`]).
//! 4. **Fault localisation & load** — 32 row JTAG chains progressively
//!    unroll to find the faulty chiplets, then load programs/data
//!    ([`wsp_dft`]).
//! 5. **Network bring-up** — the kernel builds its dual-DoR routing plan
//!    over the final fault map ([`wsp_noc`]).

use std::error::Error;
use std::fmt;

use rand::Rng;
use wsp_clock::{ClockSetupError, ForwardingSim};
use wsp_common::units::{Seconds, Volts};
use wsp_dft::{ProgressiveUnroll, TestSchedule};
use wsp_noc::RoutePlanner;
use wsp_pdn::{Ldo, PdnConfig, SolvePdnError};
use wsp_topo::{FaultMap, TileCoord};

use crate::config::SystemConfig;

/// An assembled (possibly faulty) waferscale system.
///
/// # Examples
///
/// ```
/// use waferscale::{SystemConfig, WaferscaleSystem};
/// use wsp_topo::TileArray;
///
/// let cfg = SystemConfig::with_array(TileArray::new(8, 8));
/// let mut rng = wsp_common::seeded_rng(7);
/// let mut system = WaferscaleSystem::assemble(cfg, &mut rng);
/// let report = system.boot(&mut rng)?;
/// assert!(report.usable_tiles > 0);
/// # Ok::<(), waferscale::BootError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WaferscaleSystem {
    config: SystemConfig,
    faults: FaultMap,
}

impl WaferscaleSystem {
    /// Assembles a wafer: every tile site receives a compute + memory
    /// chiplet pair; tile-level bonding failures (per the production
    /// dual-pillar model) become faulty tiles.
    pub fn assemble<R: Rng + ?Sized>(config: SystemConfig, rng: &mut R) -> Self {
        let outcome = config
            .tile_bonding_model()
            .assemble_wafer(config.array(), rng);
        WaferscaleSystem {
            config,
            faults: outcome.into_faults(),
        }
    }

    /// Creates a system with a known fault map (e.g. for reproducing a
    /// specific scenario).
    ///
    /// # Panics
    ///
    /// Panics if the fault map covers a different array.
    pub fn with_faults(config: SystemConfig, faults: FaultMap) -> Self {
        assert_eq!(
            faults.array(),
            config.array(),
            "fault map array must match the configuration"
        );
        WaferscaleSystem { config, faults }
    }

    /// The system configuration.
    #[inline]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The current fault map (assembly faults, plus clock-unreachable
    /// tiles after boot).
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Builds the kernel's network planner over the current fault map.
    pub fn route_planner(&self) -> RoutePlanner {
        RoutePlanner::new(self.faults.clone())
    }

    /// Runs the boot sequence.
    ///
    /// # Errors
    ///
    /// Returns [`BootError`] when the PDN solve fails, a tile receives an
    /// unregulatable supply, or no healthy edge tile exists to generate
    /// the clock.
    pub fn boot<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<BootReport, BootError> {
        let array = self.config.array();
        let _ = rng; // reserved for stochastic boot-time effects

        // Phase 1: power. Solve the droop map and check the LDO input
        // window at every healthy tile.
        let pdn = PdnConfig::paper_prototype_scaled(array);
        let solution = pdn.solve().map_err(BootError::Power)?;
        let ldo = Ldo::paper_ldo();
        let mut min_v = Volts(f64::INFINITY);
        for tile in self.faults.healthy_tiles() {
            let vin = solution.voltage_at(tile);
            min_v = min_v.min(vin);
            let clamped = Volts(vin.value().clamp(1.4, 2.5));
            if ldo.regulate(clamped).is_err() {
                return Err(BootError::SupplyOutOfRange { tile, vin });
            }
            if vin.value() < 1.35 {
                return Err(BootError::SupplyOutOfRange { tile, vin });
            }
        }

        // Phase 2: clock. Generate at the first healthy edge tile (any
        // would do — no single point of failure) and flood the array.
        let generator = array
            .edge_tiles()
            .find(|&t| self.faults.is_healthy(t))
            .ok_or(BootError::NoHealthyEdgeTile)?;
        let plan = ForwardingSim::new(self.faults.clone())
            .run([generator])
            .map_err(BootError::Clock)?;
        let unclocked: Vec<TileCoord> = plan.unclocked_tiles().collect();
        // Healthy-but-unclocked tiles are unusable: retire them.
        for &tile in &unclocked {
            self.faults.mark_faulty(tile);
        }

        // Phase 3: test. 32 row chains localise the faulty chiplets.
        let rows = array.rows();
        let mut localized = 0usize;
        for y in 0..rows {
            let unroll = ProgressiveUnroll::new(usize::from(array.cols()), 32);
            let faults = &self.faults;
            let outcome = unroll.run(|pos| faults.is_healthy(TileCoord::new(pos as u16, y)));
            if outcome.first_faulty().is_some() {
                localized += 1;
            }
        }

        // Phase 4: program/data load time for the whole wafer.
        let schedule = TestSchedule::new(u32::from(rows), TestSchedule::PAPER_TCK, true);
        let bytes_per_tile = (wsp_tile::memory::GLOBAL_REGION_BYTES
            + wsp_tile::CORES_PER_TILE * wsp_tile::PRIVATE_SRAM_BYTES)
            as u64;
        let load_time = schedule.memory_load_time(bytes_per_tile * array.tile_count() as u64);

        Ok(BootReport {
            clock_generator: generator,
            clock_setup_cycles: plan.setup_cycles(),
            min_tile_voltage: min_v,
            assembly_faults: self.faults.fault_count() - unclocked.len(),
            unclocked_tiles: unclocked.len(),
            usable_tiles: self.faults.healthy_count(),
            rows_with_faults: localized,
            memory_load_time: load_time,
        })
    }
}

/// Extension to build a PDN config for an arbitrary array size with the
/// paper's electrical parameters.
trait PdnScale {
    fn paper_prototype_scaled(array: wsp_topo::TileArray) -> PdnConfig;
}

impl PdnScale for PdnConfig {
    fn paper_prototype_scaled(array: wsp_topo::TileArray) -> PdnConfig {
        PdnConfig::new(
            array,
            PdnConfig::PAPER_SUPPLY,
            PdnConfig::PAPER_LOOP_SHEET_RESISTANCE,
            wsp_common::units::Ohms::from_milliohms(1.0),
            wsp_pdn::LoadModel::ConstantCurrent(PdnConfig::PAPER_TILE_CURRENT),
            [true; 4],
        )
    }
}

/// Summary of a completed boot sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootReport {
    /// The edge tile that generated the fast clock.
    pub clock_generator: TileCoord,
    /// Cycles until the last tile locked its clock.
    pub clock_setup_cycles: u64,
    /// Lowest supply voltage seen by any healthy tile.
    pub min_tile_voltage: Volts,
    /// Tiles lost to assembly (bonding) failures.
    pub assembly_faults: usize,
    /// Healthy tiles retired because the clock could not reach them.
    pub unclocked_tiles: usize,
    /// Tiles available to software after boot.
    pub usable_tiles: usize,
    /// Row chains that contained at least one faulty chiplet.
    pub rows_with_faults: usize,
    /// Wall-clock time to load all programs and data over JTAG.
    pub memory_load_time: Seconds,
}

impl fmt::Display for BootReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "booted: {} usable tiles (clock from {}, {} assembly faults, {} unclocked), load {:.1} min",
            self.usable_tiles,
            self.clock_generator,
            self.assembly_faults,
            self.unclocked_tiles,
            self.memory_load_time.as_minutes()
        )
    }
}

/// Failure modes of the boot sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BootError {
    /// The PDN analysis failed.
    Power(SolvePdnError),
    /// A healthy tile receives a voltage outside the LDO input range.
    SupplyOutOfRange {
        /// The affected tile.
        tile: TileCoord,
        /// The voltage it receives.
        vin: Volts,
    },
    /// No healthy edge tile is available to generate the clock.
    NoHealthyEdgeTile,
    /// The clock setup phase failed.
    Clock(ClockSetupError),
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::Power(e) => write!(f, "power-on failed: {e}"),
            BootError::SupplyOutOfRange { tile, vin } => {
                write!(f, "tile {tile} receives {vin:.2}, outside the LDO range")
            }
            BootError::NoHealthyEdgeTile => {
                f.write_str("no healthy edge tile available for clock generation")
            }
            BootError::Clock(e) => write!(f, "clock setup failed: {e}"),
        }
    }
}

impl Error for BootError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BootError::Power(e) => Some(e),
            BootError::Clock(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::seeded_rng;
    use wsp_topo::TileArray;

    #[test]
    fn clean_system_boots_fully_usable() {
        let cfg = SystemConfig::with_array(TileArray::new(8, 8));
        let mut system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
        let mut rng = seeded_rng(1);
        let report = system.boot(&mut rng).expect("boots");
        assert_eq!(report.usable_tiles, 64);
        assert_eq!(report.assembly_faults, 0);
        assert_eq!(report.unclocked_tiles, 0);
        assert_eq!(report.rows_with_faults, 0);
    }

    #[test]
    fn assembled_paper_wafer_boots_with_near_full_yield() {
        let cfg = SystemConfig::paper_prototype();
        let mut rng = seeded_rng(2);
        let mut system = WaferscaleSystem::assemble(cfg, &mut rng);
        let report = system.boot(&mut rng).expect("boots");
        // Dual-pillar bonding: expect ~0–2 faulty tiles out of 1024.
        assert!(
            report.usable_tiles >= 1020,
            "usable {}",
            report.usable_tiles
        );
        // The centre of the wafer droops towards ~1.4 V but stays usable.
        assert!(report.min_tile_voltage.value() > 1.35);
        assert!(report.min_tile_voltage.value() < 1.6);
        // Whole-wafer load finishes in minutes (32 chains).
        assert!(report.memory_load_time.as_minutes() < 6.0);
    }

    #[test]
    fn isolated_tile_is_retired_at_boot() {
        let cfg = SystemConfig::with_array(TileArray::new(8, 8));
        let array = cfg.array();
        let walled = TileCoord::new(4, 4);
        let ring: Vec<TileCoord> = array.neighbors(walled).collect();
        let ring_len = ring.len();
        let mut system = WaferscaleSystem::with_faults(cfg, FaultMap::from_faulty(array, ring));
        let mut rng = seeded_rng(3);
        let report = system.boot(&mut rng).expect("boots");
        assert_eq!(report.unclocked_tiles, 1);
        assert!(system.faults().is_faulty(walled));
        assert_eq!(report.usable_tiles, 64 - ring_len - 1);
        // The kernel now refuses to route to the retired tile.
        let planner = system.route_planner();
        assert_eq!(
            planner.choose(TileCoord::new(0, 0), walled),
            wsp_noc::NetworkChoice::Disconnected
        );
    }

    #[test]
    fn fault_rows_are_localised() {
        let cfg = SystemConfig::with_array(TileArray::new(8, 8));
        let faults =
            FaultMap::from_faulty(cfg.array(), [TileCoord::new(3, 2), TileCoord::new(6, 5)]);
        let mut system = WaferscaleSystem::with_faults(cfg, faults);
        let mut rng = seeded_rng(4);
        let report = system.boot(&mut rng).expect("boots");
        assert_eq!(report.rows_with_faults, 2);
    }

    #[test]
    fn fully_dead_edge_fails_boot() {
        // Kill the entire boundary: no clock generator remains.
        let cfg = SystemConfig::with_array(TileArray::new(4, 4));
        let faults = FaultMap::from_faulty(cfg.array(), cfg.array().edge_tiles());
        let mut system = WaferscaleSystem::with_faults(cfg, faults);
        let mut rng = seeded_rng(5);
        assert_eq!(
            system.boot(&mut rng).expect_err("fails"),
            BootError::NoHealthyEdgeTile
        );
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_fault_map_rejected() {
        let cfg = SystemConfig::with_array(TileArray::new(4, 4));
        let _ = WaferscaleSystem::with_faults(cfg, FaultMap::none(TileArray::new(8, 8)));
    }

    #[test]
    fn boot_report_display() {
        let cfg = SystemConfig::with_array(TileArray::new(4, 4));
        let mut system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
        let mut rng = seeded_rng(6);
        let report = system.boot(&mut rng).expect("boots");
        let s = report.to_string();
        assert!(s.contains("usable tiles"));
    }
}
