//! On-chip decoupling capacitance (Sec. III).
//!
//! Off-chip decoupling capacitors can only sit at the wafer edge, up to
//! 70 mm from a centre tile — far too much inductance/resistance away to
//! help with nanosecond-scale load steps. The prototype therefore spends
//! ~35 % of every tile's area on a custom on-chip decap bank (~20 nF per
//! tile) that supplies charge during the worst-case 200 mA load transient
//! until the LDO loop catches up.

use std::fmt;

use wsp_common::units::{Amps, Farads, Seconds, Volts};

/// The per-tile decoupling-capacitor bank.
///
/// # Examples
///
/// ```
/// use wsp_common::units::{Amps, Seconds};
/// use wsp_pdn::DecapBank;
///
/// let bank = DecapBank::paper_bank();
/// let droop = bank.transient_droop(
///     Amps::from_milliamps(200.0),
///     Seconds::from_nanoseconds(10.0),
/// );
/// assert!(droop.value() < 0.2); // stays inside the 1.0–1.2 V window
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecapBank {
    capacitance: Farads,
    tile_area_fraction: f64,
}

impl DecapBank {
    /// The paper's bank: ~20 nF per tile occupying ~35 % of tile area.
    pub fn paper_bank() -> Self {
        DecapBank {
            capacitance: Farads::from_nanofarads(20.0),
            tile_area_fraction: 0.35,
        }
    }

    /// The future deep-trench option the paper's footnote 2 points at
    /// (Kannan & Iyer, ECTC 2020): capacitors etched *into the Si-IF
    /// substrate itself*, so the chiplet spends almost no silicon on
    /// decap while gaining several times the capacitance.
    pub fn future_deep_trench_bank() -> Self {
        DecapBank {
            capacitance: Farads::from_nanofarads(100.0),
            tile_area_fraction: 0.02,
        }
    }

    /// Creates a custom decap bank.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is non-positive or the area fraction is
    /// outside `(0, 1]`.
    pub fn new(capacitance: Farads, tile_area_fraction: f64) -> Self {
        assert!(capacitance.value() > 0.0, "capacitance must be positive");
        assert!(
            tile_area_fraction > 0.0 && tile_area_fraction <= 1.0,
            "area fraction {tile_area_fraction} outside (0, 1]"
        );
        DecapBank {
            capacitance,
            tile_area_fraction,
        }
    }

    /// Bank capacitance.
    #[inline]
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Fraction of the tile's silicon spent on decap.
    #[inline]
    pub fn tile_area_fraction(&self) -> f64 {
        self.tile_area_fraction
    }

    /// Voltage droop when the bank alone supplies a current step for a
    /// duration (before the LDO loop responds): `ΔV = I·t / C`.
    pub fn transient_droop(&self, step: Amps, duration: Seconds) -> Volts {
        (step * duration) / self.capacitance
    }

    /// Longest load-step duration the bank can absorb while keeping the
    /// droop within `budget`.
    pub fn ride_through_time(&self, step: Amps, budget: Volts) -> Seconds {
        Seconds(self.capacitance.value() * budget.value() / step.value())
    }

    /// Whether the bank keeps the regulated rail inside the window for the
    /// paper's worst case: a 200 mA step sustained for `response` time.
    pub fn survives_worst_case(&self, response: Seconds) -> bool {
        // Budget: from 1.1 V nominal down to the 1.0 V window floor.
        self.transient_droop(Amps::from_milliamps(200.0), response)
            .value()
            <= 0.1
    }
}

impl fmt::Display for DecapBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decap bank: {:.1} nF, {:.0}% of tile area",
            self.capacitance.as_nanofarads(),
            self.tile_area_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bank_parameters() {
        let bank = DecapBank::paper_bank();
        assert!((bank.capacitance().as_nanofarads() - 20.0).abs() < 1e-9);
        assert!((bank.tile_area_fraction() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn droop_formula() {
        let bank = DecapBank::paper_bank();
        // 200 mA for 10 ns out of 20 nF → ΔV = 0.2 · 10e-9 / 20e-9 = 0.1 V.
        let droop =
            bank.transient_droop(Amps::from_milliamps(200.0), Seconds::from_nanoseconds(10.0));
        assert!((droop.value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn survives_worst_case_step_within_few_cycles() {
        let bank = DecapBank::paper_bank();
        // A "few cycles" at 300 MHz ≈ 10 ns: exactly at the budget edge.
        assert!(bank.survives_worst_case(Seconds::from_nanoseconds(10.0)));
        assert!(!bank.survives_worst_case(Seconds::from_nanoseconds(20.0)));
    }

    #[test]
    fn ride_through_inverts_droop() {
        let bank = DecapBank::paper_bank();
        let step = Amps::from_milliamps(200.0);
        let t = bank.ride_through_time(step, Volts(0.1));
        let droop = bank.transient_droop(step, t);
        assert!((droop.value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn deep_trench_bank_frees_the_tile() {
        let on_chip = DecapBank::paper_bank();
        let trench = DecapBank::future_deep_trench_bank();
        // More capacitance, far less chiplet area.
        assert!(trench.capacitance().value() > on_chip.capacitance().value());
        assert!(trench.tile_area_fraction() < 0.1 * on_chip.tile_area_fraction());
        // Rides through a 5x longer transient at the same budget.
        let step = Amps::from_milliamps(200.0);
        let budget = Volts(0.1);
        assert!(
            trench.ride_through_time(step, budget).value()
                >= 5.0 * on_chip.ride_through_time(step, budget).value()
        );
    }

    #[test]
    fn bigger_bank_droops_less() {
        let small = DecapBank::new(Farads::from_nanofarads(10.0), 0.2);
        let big = DecapBank::new(Farads::from_nanofarads(40.0), 0.5);
        let step = Amps::from_milliamps(200.0);
        let t = Seconds::from_nanoseconds(10.0);
        assert!(big.transient_droop(step, t).value() < small.transient_droop(step, t).value());
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn invalid_area_fraction_rejected() {
        let _ = DecapBank::new(Farads::from_nanofarads(20.0), 1.5);
    }

    #[test]
    fn display_mentions_capacitance() {
        assert!(DecapBank::paper_bank().to_string().contains("20.0 nF"));
    }
}
