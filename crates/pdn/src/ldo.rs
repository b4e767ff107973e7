//! The wide-input-range low-dropout regulator inside every compute chiplet.
//!
//! Because the edge-delivery scheme hands different tiles anywhere from
//! ~1.4 V (wafer centre, peak draw) to 2.5 V (edge), the paper built a
//! custom LDO that produces a stable ~1.1 V logic supply across that whole
//! input range while sustaining 350 mW peak loads and 200 mA load steps.
//! The behavioural model here captures dropout, the regulation window
//! (1.0–1.2 V across PVT corners), pass-through current, and linear-
//! regulator efficiency.

use std::error::Error;
use std::fmt;

use wsp_common::units::{Amps, Volts};

/// Behavioural model of the chiplet LDO.
///
/// # Examples
///
/// ```
/// use wsp_common::units::Volts;
/// use wsp_pdn::Ldo;
///
/// let ldo = Ldo::paper_ldo();
/// let out = ldo.regulate(Volts(1.8))?;
/// assert!((1.0..=1.2).contains(&out.value()));
/// # Ok::<(), wsp_pdn::RegulateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ldo {
    nominal_output: Volts,
    min_output: Volts,
    max_output: Volts,
    min_input: Volts,
    max_input: Volts,
    dropout: Volts,
    max_load: Amps,
}

impl Ldo {
    /// The paper's LDO: 1.1 V nominal output regulated within 1.0–1.2 V
    /// over a 1.4–2.5 V input range, ≈300 mV dropout, 350 mW peak
    /// (≈320 mA at 1.1 V).
    pub fn paper_ldo() -> Self {
        Ldo {
            nominal_output: Volts(1.1),
            min_output: Volts(1.0),
            max_output: Volts(1.2),
            min_input: Volts(1.4),
            max_input: Volts(2.5),
            dropout: Volts(0.3),
            max_load: Amps(0.35 / 1.1),
        }
    }

    /// Creates a custom LDO model.
    ///
    /// # Panics
    ///
    /// Panics unless `min_output ≤ nominal_output ≤ max_output`, the input
    /// range is non-empty, and the dropout and load limits are positive.
    pub fn new(
        nominal_output: Volts,
        min_output: Volts,
        max_output: Volts,
        min_input: Volts,
        max_input: Volts,
        dropout: Volts,
        max_load: Amps,
    ) -> Self {
        assert!(
            min_output.value() <= nominal_output.value()
                && nominal_output.value() <= max_output.value(),
            "output window must bracket the nominal output"
        );
        assert!(
            min_input.value() < max_input.value(),
            "input range must be non-empty"
        );
        assert!(dropout.value() > 0.0, "dropout must be positive");
        assert!(max_load.value() > 0.0, "load limit must be positive");
        Ldo {
            nominal_output,
            min_output,
            max_output,
            min_input,
            max_input,
            dropout,
            max_load,
        }
    }

    /// Nominal regulated output (1.1 V in the prototype).
    #[inline]
    pub fn nominal_output(&self) -> Volts {
        self.nominal_output
    }

    /// Supported input range.
    #[inline]
    pub fn input_range(&self) -> (Volts, Volts) {
        (self.min_input, self.max_input)
    }

    /// Maximum sustained load current.
    #[inline]
    pub fn max_load(&self) -> Amps {
        self.max_load
    }

    /// Whether the LDO can regulate from the given input.
    pub fn accepts_input(&self, vin: Volts) -> bool {
        const EPS: f64 = 1e-9;
        vin.value() + EPS >= self.min_input.value()
            && vin.value() <= self.max_input.value() + EPS
            && vin.value() + EPS >= self.nominal_output.value() + self.dropout.value()
    }

    /// Regulated output voltage for a given input.
    ///
    /// The model is first-order: inside the valid input range the output
    /// sits at nominal with a small line-regulation slope that stays within
    /// the guaranteed window.
    ///
    /// # Errors
    ///
    /// Returns [`RegulateError`] when the input is below dropout/range or
    /// above the device rating.
    pub fn regulate(&self, vin: Volts) -> Result<Volts, RegulateError> {
        const EPS: f64 = 1e-9;
        if vin.value() + EPS < self.min_input.value()
            || vin.value() + EPS < self.nominal_output.value() + self.dropout.value()
        {
            return Err(RegulateError::InputTooLow {
                vin,
                required: Volts(
                    self.min_input
                        .value()
                        .max(self.nominal_output.value() + self.dropout.value()),
                ),
            });
        }
        if vin.value() > self.max_input.value() + EPS {
            return Err(RegulateError::InputTooHigh {
                vin,
                limit: self.max_input,
            });
        }
        // Line regulation: drift linearly from -50 mV at min input to
        // +50 mV at max input — comfortably inside the 1.0–1.2 V window.
        let span = self.max_input.value() - self.min_input.value();
        let frac = (vin.value() - self.min_input.value()) / span;
        let out = self.nominal_output.value() + (frac - 0.5) * 0.1;
        Ok(Volts(
            out.clamp(self.min_output.value(), self.max_output.value()),
        ))
    }

    /// Linear-regulator efficiency at the given input: `η = Vout / Vin`
    /// (the pass element burns the headroom at the full load current).
    ///
    /// # Errors
    ///
    /// Propagates [`RegulateError`] when the input is out of range.
    pub fn efficiency(&self, vin: Volts) -> Result<f64, RegulateError> {
        let vout = self.regulate(vin)?;
        Ok(vout.value() / vin.value())
    }
}

impl fmt::Display for Ldo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LDO: {:.2}-{:.2} in, {:.1} out ({:.1}-{:.1} window)",
            self.min_input, self.max_input, self.nominal_output, self.min_output, self.max_output
        )
    }
}

/// Failure modes of LDO regulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegulateError {
    /// Input below the supported range or dropout headroom.
    InputTooLow {
        /// The offending input.
        vin: Volts,
        /// Minimum acceptable input.
        required: Volts,
    },
    /// Input above the device rating.
    InputTooHigh {
        /// The offending input.
        vin: Volts,
        /// Maximum acceptable input.
        limit: Volts,
    },
}

impl fmt::Display for RegulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegulateError::InputTooLow { vin, required } => {
                write!(f, "input {vin:.3} below minimum {required:.3}")
            }
            RegulateError::InputTooHigh { vin, limit } => {
                write!(f, "input {vin:.3} above maximum {limit:.3}")
            }
        }
    }
}

impl Error for RegulateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regulates_across_full_input_range() {
        let ldo = Ldo::paper_ldo();
        for mv in (1400..=2500).step_by(50) {
            let vin = Volts::from_millivolts(f64::from(mv));
            let out = ldo.regulate(vin).expect("in range");
            assert!(
                (1.0..=1.2).contains(&out.value()),
                "output {out} out of window at vin {vin}"
            );
        }
    }

    #[test]
    fn rejects_inputs_outside_range() {
        let ldo = Ldo::paper_ldo();
        assert!(matches!(
            ldo.regulate(Volts(1.3)),
            Err(RegulateError::InputTooLow { .. })
        ));
        assert!(matches!(
            ldo.regulate(Volts(2.6)),
            Err(RegulateError::InputTooHigh { .. })
        ));
        assert!(!ldo.accepts_input(Volts(1.3)));
        assert!(ldo.accepts_input(Volts(1.4)));
        assert!(ldo.accepts_input(Volts(2.5)));
    }

    #[test]
    fn efficiency_is_vout_over_vin() {
        let ldo = Ldo::paper_ldo();
        // At the wafer centre (1.4 V in) the LDO is ~75 % efficient...
        let centre = ldo.efficiency(Volts(1.4)).expect("ok");
        assert!((0.70..0.80).contains(&centre), "centre efficiency {centre}");
        // ...but at the edge (2.5 V in) it burns more than half the power.
        let edge = ldo.efficiency(Volts(2.5)).expect("ok");
        assert!((0.40..0.50).contains(&edge), "edge efficiency {edge}");
        assert!(centre > edge);
    }

    #[test]
    fn supports_peak_load_of_350mw() {
        let ldo = Ldo::paper_ldo();
        // 350 mW at 1.1 V ≈ 318 mA must be within rating.
        let peak = Amps(0.35 / 1.1);
        assert!(peak.value() <= ldo.max_load().value());
        assert!(ldo.regulate(Volts(1.4)).is_ok());
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let ldo = Ldo::paper_ldo();
        let err = ldo.regulate(Volts(1.0)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("input"));
        assert!(msg.contains("below"));
    }

    #[test]
    #[should_panic(expected = "bracket the nominal")]
    fn inverted_output_window_rejected() {
        let _ = Ldo::new(
            Volts(1.1),
            Volts(1.2),
            Volts(1.0),
            Volts(1.4),
            Volts(2.5),
            Volts(0.3),
            Amps(0.3),
        );
    }

    #[test]
    fn display_summarises_device() {
        let s = Ldo::paper_ldo().to_string();
        assert!(s.contains("LDO"));
        assert!(s.contains("1.1"));
    }
}
