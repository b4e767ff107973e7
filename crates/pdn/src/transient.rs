//! Time-domain regulation transient: LDO loop + decap vs a load step.
//!
//! Sec. III's hardest regulation requirement is dynamic: the LDO must
//! absorb a 200 mA load-current step "within a few cycles" while the rail
//! stays inside the 1.0–1.2 V window. Until the LDO's error loop slews,
//! the on-chip decap bank alone supplies the step — which is exactly why
//! ~35 % of the tile is capacitance. This module integrates that
//! behaviour: a first-order LDO loop (time constant + proportional error
//! correction) charging the decap node against an arbitrary load step.

use wsp_common::units::{Amps, Seconds, Volts};

use crate::decap::DecapBank;

/// Configuration of a regulation-transient simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// The decoupling bank on the regulated node.
    pub decap: DecapBank,
    /// First-order time constant of the LDO's current loop.
    pub loop_time_constant: Seconds,
    /// Proportional error-amplifier transconductance (A per V of error).
    pub error_gain_a_per_v: f64,
    /// Regulation target.
    pub v_ref: Volts,
}

impl TransientConfig {
    /// The paper-calibrated configuration: 20 nF decap, ~5 ns loop (a
    /// "few cycles" at 300 MHz), 1.1 V target.
    pub fn paper_config() -> Self {
        TransientConfig {
            decap: DecapBank::paper_bank(),
            loop_time_constant: Seconds::from_nanoseconds(5.0),
            error_gain_a_per_v: 2.0,
            v_ref: Volts(1.1),
        }
    }

    /// Returns a copy with a different decap bank (for sizing sweeps).
    pub fn with_decap(mut self, decap: DecapBank) -> Self {
        self.decap = decap;
        self
    }
}

/// Result of one transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Lowest rail voltage observed.
    pub min_voltage: Volts,
    /// Highest rail voltage observed.
    pub max_voltage: Volts,
    /// Rail voltage at the end of the run.
    pub final_voltage: Volts,
    /// `(time, voltage)` samples (decimated).
    pub samples: Vec<(Seconds, Volts)>,
}

impl TransientResult {
    /// Whether the rail stayed inside `[lo, hi]` for the whole run.
    pub fn stays_in_window(&self, lo: Volts, hi: Volts) -> bool {
        self.min_voltage.value() >= lo.value() && self.max_voltage.value() <= hi.value()
    }

    /// Peak deviation from a reference voltage.
    pub fn peak_deviation(&self, v_ref: Volts) -> Volts {
        let below = (v_ref - self.min_voltage).value();
        let above = (self.max_voltage - v_ref).value();
        Volts(below.max(above).max(0.0))
    }
}

/// Simulates the regulated rail's response to a load-current step from
/// `i_before` to `i_after` at `t = 0`, over `duration`.
///
/// Explicit-Euler integration at 0.05 ns; the LDO's output current tracks
/// `load + gain · (v_ref − v)` through a first-order lag, and the decap
/// absorbs the difference. The rail starts settled at `v_ref` with the
/// LDO sourcing `i_before`.
///
/// # Panics
///
/// Panics if `duration` is non-positive.
///
/// # Examples
///
/// ```
/// use wsp_common::units::{Amps, Seconds, Volts};
/// use wsp_pdn::transient::{simulate_load_step, TransientConfig};
///
/// let result = simulate_load_step(
///     TransientConfig::paper_config(),
///     Amps::from_milliamps(100.0),
///     Amps::from_milliamps(300.0), // the worst-case 200 mA step
///     Seconds::from_nanoseconds(100.0),
/// );
/// assert!(result.stays_in_window(Volts(1.0), Volts(1.2)));
/// ```
pub fn simulate_load_step(
    config: TransientConfig,
    i_before: Amps,
    i_after: Amps,
    duration: Seconds,
) -> TransientResult {
    assert!(duration.value() > 0.0, "duration must be positive");
    let dt = 0.05e-9;
    let steps = (duration.value() / dt).ceil() as usize;
    let c = config.decap.capacitance().value();
    let tau = config.loop_time_constant.value();

    let mut v = config.v_ref.value();
    let mut i_ldo = i_before.value();
    let mut min_v = v;
    let mut max_v = v;
    let mut samples = Vec::new();
    let decimate = (steps / 200).max(1);

    for step in 0..steps {
        let t = step as f64 * dt;
        let i_load = i_after.value();
        // LDO loop: first-order lag towards load + proportional error.
        let target = i_load + config.error_gain_a_per_v * (config.v_ref.value() - v);
        i_ldo += (target - i_ldo) / tau * dt;
        i_ldo = i_ldo.max(0.0);
        // Decap node: dV/dt = (I_ldo − I_load) / C.
        v += (i_ldo - i_load) / c * dt;
        min_v = min_v.min(v);
        max_v = max_v.max(v);
        if step % decimate == 0 {
            samples.push((Seconds(t), Volts(v)));
        }
    }

    TransientResult {
        min_voltage: Volts(min_v),
        max_voltage: Volts(max_v),
        final_voltage: Volts(v),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::units::Farads;

    fn worst_case_step(config: TransientConfig) -> TransientResult {
        simulate_load_step(
            config,
            Amps::from_milliamps(100.0),
            Amps::from_milliamps(300.0),
            Seconds::from_nanoseconds(200.0),
        )
    }

    #[test]
    fn paper_decap_survives_the_200ma_step() {
        let result = worst_case_step(TransientConfig::paper_config());
        assert!(
            result.stays_in_window(Volts(1.0), Volts(1.2)),
            "min {} max {}",
            result.min_voltage,
            result.max_voltage
        );
        // And the dip is real — the decap is doing work.
        assert!(result.peak_deviation(Volts(1.1)).value() > 0.005);
    }

    #[test]
    fn undersized_decap_violates_the_window() {
        let small = TransientConfig::paper_config()
            .with_decap(DecapBank::new(Farads::from_nanofarads(2.0), 0.05));
        let result = worst_case_step(small);
        assert!(
            !result.stays_in_window(Volts(1.0), Volts(1.2)),
            "2 nF should not survive: min {}",
            result.min_voltage
        );
    }

    #[test]
    fn droop_shrinks_with_capacitance() {
        let mut last_droop = f64::INFINITY;
        for nf in [5.0, 10.0, 20.0, 40.0] {
            let cfg = TransientConfig::paper_config()
                .with_decap(DecapBank::new(Farads::from_nanofarads(nf), 0.3));
            let droop = worst_case_step(cfg).peak_deviation(Volts(1.1)).value();
            assert!(droop < last_droop, "droop not monotone at {nf} nF");
            last_droop = droop;
        }
    }

    #[test]
    fn rail_settles_back_to_reference() {
        let result = worst_case_step(TransientConfig::paper_config());
        assert!(
            (result.final_voltage.value() - 1.1).abs() < 0.01,
            "final {}",
            result.final_voltage
        );
    }

    #[test]
    fn slower_loop_needs_more_decap() {
        let slow = TransientConfig {
            loop_time_constant: Seconds::from_nanoseconds(20.0),
            ..TransientConfig::paper_config()
        };
        let fast = TransientConfig::paper_config();
        let slow_droop = worst_case_step(slow).peak_deviation(Volts(1.1));
        let fast_droop = worst_case_step(fast).peak_deviation(Volts(1.1));
        assert!(slow_droop.value() > fast_droop.value());
    }

    #[test]
    fn no_step_means_no_deviation() {
        let result = simulate_load_step(
            TransientConfig::paper_config(),
            Amps::from_milliamps(100.0),
            Amps::from_milliamps(100.0),
            Seconds::from_nanoseconds(50.0),
        );
        assert!(result.peak_deviation(Volts(1.1)).value() < 1e-6);
    }

    #[test]
    fn samples_are_recorded_in_time_order() {
        let result = worst_case_step(TransientConfig::paper_config());
        assert!(result.samples.len() >= 100);
        for w in result.samples.windows(2) {
            assert!(w[0].0.value() < w[1].0.value());
        }
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let _ = simulate_load_step(
            TransientConfig::paper_config(),
            Amps(0.1),
            Amps(0.3),
            Seconds(0.0),
        );
    }
}
