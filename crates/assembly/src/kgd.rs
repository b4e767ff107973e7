//! Known-good-die (KGD) flow: pre-bond probe testing followed by
//! die-to-wafer assembly (Secs. V and VII-A).
//!
//! Chiplet-based waferscale integration only beats the monolithic approach
//! if faulty dies are weeded out *before* bonding. The flow modelled here:
//!
//! 1. a lot of fabricated chiplets is probe-tested on the large duplicate
//!    probe pads (fine-pitch pads are never touched — probing would ruin
//!    their planarity for the later metal-to-metal bond);
//! 2. dies that fail are discarded; known-good dies go to assembly;
//! 3. each bond succeeds per the [`BondingModel`]; bonding failures become
//!    faulty tiles in the system fault map.

use rand::{Rng, RngExt as _};
use wsp_topo::{FaultMap, TileArray};

use crate::bonding::BondingModel;

/// A fabrication lot of chiplets awaiting pre-bond test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletLot {
    size: u32,
    die_yield: f64,
}

impl ChipletLot {
    /// Creates a lot of `size` dies with the given fabrication yield.
    ///
    /// # Panics
    ///
    /// Panics if `die_yield` is outside `[0, 1]` or the lot is empty.
    pub fn new(size: u32, die_yield: f64) -> Self {
        assert!(size > 0, "lot must contain at least one die");
        assert!(
            (0.0..=1.0).contains(&die_yield),
            "die yield {die_yield} outside [0, 1]"
        );
        ChipletLot { size, die_yield }
    }

    /// Number of dies in the lot.
    #[inline]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Fabrication (pre-test) die yield.
    #[inline]
    pub fn die_yield(&self) -> f64 {
        self.die_yield
    }
}

/// The pre-bond-test + assembly flow.
///
/// # Examples
///
/// ```
/// use wsp_assembly::{BondingModel, ChipletLot, KgdFlow, RedundancyScheme};
/// use wsp_topo::TileArray;
///
/// let flow = KgdFlow::new(
///     ChipletLot::new(1500, 0.95),
///     BondingModel::paper_compute_chiplet(RedundancyScheme::DualPillar),
/// );
/// let mut rng = wsp_common::seeded_rng(1);
/// let report = flow.run(TileArray::new(32, 32), &mut rng).expect("enough dies");
/// assert_eq!(report.assembled(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KgdFlow {
    lot: ChipletLot,
    bonding: BondingModel,
}

impl KgdFlow {
    /// Creates a flow from a chiplet lot and a bonding model.
    pub fn new(lot: ChipletLot, bonding: BondingModel) -> Self {
        KgdFlow { lot, bonding }
    }

    /// The input lot.
    #[inline]
    pub fn lot(&self) -> ChipletLot {
        self.lot
    }

    /// The bonding model used during assembly.
    #[inline]
    pub fn bonding(&self) -> &BondingModel {
        &self.bonding
    }

    /// Runs the flow: probe-test the lot, then populate every tile of
    /// `array` with a known-good die and sample bonding success.
    ///
    /// Returns `None` when the lot did not contain enough known-good dies
    /// to populate the wafer — the caller should fabricate a larger lot.
    pub fn run<R: Rng + ?Sized>(&self, array: TileArray, rng: &mut R) -> Option<KgdReport> {
        // Phase 1: pre-bond probe test on the duplicate probe pads.
        let mut known_good = 0u32;
        for _ in 0..self.lot.size {
            if rng.random_bool(self.lot.die_yield) {
                known_good += 1;
            }
        }
        let discarded = self.lot.size - known_good;

        let sites = array.tile_count() as u32;
        if known_good < sites {
            return None;
        }

        // Phase 2: die-to-wafer bonding of KGD parts.
        let mut faults = FaultMap::none(array);
        let mut bonding_failures = 0u32;
        for tile in array.tiles() {
            if !self.bonding.sample_chiplet(rng) {
                faults.mark_faulty(tile);
                bonding_failures += 1;
            }
        }

        Some(KgdReport {
            tested: self.lot.size,
            known_good,
            discarded,
            assembled: sites,
            bonding_failures,
            faults,
        })
    }
}

/// Outcome of one KGD-flow run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KgdReport {
    tested: u32,
    known_good: u32,
    discarded: u32,
    assembled: u32,
    bonding_failures: u32,
    faults: FaultMap,
}

impl KgdReport {
    /// Dies probed during pre-bond test.
    #[inline]
    pub fn tested(&self) -> u32 {
        self.tested
    }

    /// Dies that passed pre-bond test.
    #[inline]
    pub fn known_good(&self) -> u32 {
        self.known_good
    }

    /// Dies discarded at pre-bond test (never bonded — the whole point of
    /// the KGD flow).
    #[inline]
    pub fn discarded(&self) -> u32 {
        self.discarded
    }

    /// Dies actually bonded to the wafer.
    #[inline]
    pub fn assembled(&self) -> u32 {
        self.assembled
    }

    /// Bonds that failed during assembly.
    #[inline]
    pub fn bonding_failures(&self) -> u32 {
        self.bonding_failures
    }

    /// The post-assembly fault map (bonding failures only; pre-bond
    /// failures never reach the wafer).
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Consumes the report, returning the fault map.
    pub fn into_faults(self) -> FaultMap {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RedundancyScheme;
    use wsp_common::seeded_rng;

    fn dual_flow(lot: u32, die_yield: f64) -> KgdFlow {
        KgdFlow::new(
            ChipletLot::new(lot, die_yield),
            BondingModel::paper_compute_chiplet(RedundancyScheme::DualPillar),
        )
    }

    #[test]
    fn flow_populates_wafer_when_lot_suffices() {
        let flow = dual_flow(1500, 0.95);
        let mut rng = seeded_rng(9);
        let report = flow.run(TileArray::new(32, 32), &mut rng).expect("ok");
        assert_eq!(report.assembled(), 1024);
        assert_eq!(report.tested(), 1500);
        assert_eq!(report.known_good() + report.discarded(), 1500);
        assert_eq!(
            report.faults().fault_count() as u32,
            report.bonding_failures()
        );
    }

    #[test]
    fn flow_fails_when_lot_too_small() {
        let flow = dual_flow(1025, 0.5);
        let mut rng = seeded_rng(9);
        assert!(flow.run(TileArray::new(32, 32), &mut rng).is_none());
    }

    #[test]
    fn dual_pillar_assembly_yield_is_high() {
        let flow = dual_flow(2000, 0.99);
        let mut rng = seeded_rng(4);
        let report = flow.run(TileArray::new(32, 32), &mut rng).expect("ok");
        // 99.998 % per-chiplet yield → almost always 0 or 1 failures.
        assert!(report.bonding_failures() <= 2);
        assert_eq!(flow.lot().size(), 2000);
        assert!((flow.lot().die_yield() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn single_pillar_assembly_fails_many() {
        let flow = KgdFlow::new(
            ChipletLot::new(2000, 1.0),
            BondingModel::paper_compute_chiplet(RedundancyScheme::SinglePillar),
        );
        let mut rng = seeded_rng(4);
        let report = flow.run(TileArray::new(32, 32), &mut rng).expect("ok");
        // ~18 % per-chiplet failure → on the order of 150–250 failures.
        assert!(report.bonding_failures() > 100);
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let flow = dual_flow(1200, 0.95);
        let a = flow.run(TileArray::new(16, 16), &mut seeded_rng(7));
        let b = flow.run(TileArray::new(16, 16), &mut seeded_rng(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn empty_lot_rejected() {
        let _ = ChipletLot::new(0, 0.9);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_die_yield_rejected() {
        let _ = ChipletLot::new(10, -0.1);
    }
}
