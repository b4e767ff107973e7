//! The on-chiplet PLL and its operating constraints.
//!
//! Each compute chiplet carries a PLL that multiplies a slow reference
//! (10–133 MHz) up to 400 MHz. The catch (Sec. IV): the PLL IP demands a
//! stable reference voltage, and only tiles near the wafer edge — close to
//! the off-wafer decoupling capacitors — regulate tightly enough. So in
//! practice the fast clock is synthesised in an *edge* tile and forwarded.

use std::error::Error;
use std::fmt;

use wsp_common::units::{Hertz, Volts};

/// Behavioural model of the chiplet PLL.
///
/// # Examples
///
/// ```
/// use wsp_common::units::Hertz;
/// use wsp_clock::Pll;
///
/// let pll = Pll::paper_pll();
/// let out = pll.synthesize(Hertz::from_megahertz(50.0), 7)?;
/// assert_eq!(out.as_megahertz(), 350.0);
/// # Ok::<(), wsp_clock::SynthesizeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pll {
    min_reference: Hertz,
    max_reference: Hertz,
    max_output: Hertz,
    /// Peak-to-peak supply ripple the PLL tolerates while keeping lock.
    supply_ripple_tolerance: Volts,
}

impl Pll {
    /// The paper's PLL IP: reference 10–133 MHz, output up to 400 MHz.
    ///
    /// The ripple tolerance of 50 mV (peak-to-peak) encodes "requires a
    /// stable reference voltage": the ±100 mV regulation window of interior
    /// tiles exceeds it, the near-edge tiles with off-wafer decap stay
    /// within it.
    pub fn paper_pll() -> Self {
        Pll {
            min_reference: Hertz::from_megahertz(10.0),
            max_reference: Hertz::from_megahertz(133.0),
            max_output: Hertz::from_megahertz(400.0),
            supply_ripple_tolerance: Volts::from_millivolts(50.0),
        }
    }

    /// Creates a custom PLL model.
    ///
    /// # Panics
    ///
    /// Panics if the reference range is empty or any limit non-positive.
    pub fn new(
        min_reference: Hertz,
        max_reference: Hertz,
        max_output: Hertz,
        supply_ripple_tolerance: Volts,
    ) -> Self {
        assert!(
            min_reference.value() > 0.0 && min_reference.value() < max_reference.value(),
            "reference range must be non-empty and positive"
        );
        assert!(max_output.value() > 0.0, "output limit must be positive");
        assert!(
            supply_ripple_tolerance.value() > 0.0,
            "ripple tolerance must be positive"
        );
        Pll {
            min_reference,
            max_reference,
            max_output,
            supply_ripple_tolerance,
        }
    }

    /// Maximum synthesised output frequency.
    #[inline]
    pub fn max_output(&self) -> Hertz {
        self.max_output
    }

    /// Multiplies `reference` by the integer factor `multiplier`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesizeError`] when the reference is outside the
    /// supported range, the multiplier is zero, or the product exceeds the
    /// output limit.
    pub fn synthesize(&self, reference: Hertz, multiplier: u32) -> Result<Hertz, SynthesizeError> {
        if reference.value() < self.min_reference.value()
            || reference.value() > self.max_reference.value()
        {
            return Err(SynthesizeError::ReferenceOutOfRange {
                reference,
                min: self.min_reference,
                max: self.max_reference,
            });
        }
        if multiplier == 0 {
            return Err(SynthesizeError::ZeroMultiplier);
        }
        let out = Hertz(reference.value() * f64::from(multiplier));
        if out.value() > self.max_output.value() {
            return Err(SynthesizeError::OutputTooFast {
                requested: out,
                limit: self.max_output,
            });
        }
        Ok(out)
    }

    /// Whether the PLL can hold lock given the supply ripple at its tile.
    ///
    /// Interior tiles regulate within ±100 mV (200 mV ripple) — too dirty;
    /// edge tiles with nearby off-wafer decap stay within the tolerance.
    pub fn holds_lock(&self, supply_ripple: Volts) -> bool {
        supply_ripple.value() <= self.supply_ripple_tolerance.value()
    }
}

impl fmt::Display for Pll {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PLL: ref {:.0}-{:.0} MHz, out ≤{:.0} MHz",
            self.min_reference.as_megahertz(),
            self.max_reference.as_megahertz(),
            self.max_output.as_megahertz()
        )
    }
}

/// Failure modes of [`Pll::synthesize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynthesizeError {
    /// Reference frequency outside the supported range.
    ReferenceOutOfRange {
        /// Offending reference.
        reference: Hertz,
        /// Lower bound.
        min: Hertz,
        /// Upper bound.
        max: Hertz,
    },
    /// The multiplier must be at least 1.
    ZeroMultiplier,
    /// Requested output above the device limit.
    OutputTooFast {
        /// Requested output frequency.
        requested: Hertz,
        /// Device limit.
        limit: Hertz,
    },
}

impl fmt::Display for SynthesizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesizeError::ReferenceOutOfRange {
                reference,
                min,
                max,
            } => write!(
                f,
                "reference {:.1} MHz outside {:.0}-{:.0} MHz",
                reference.as_megahertz(),
                min.as_megahertz(),
                max.as_megahertz()
            ),
            SynthesizeError::ZeroMultiplier => f.write_str("multiplier must be at least 1"),
            SynthesizeError::OutputTooFast { requested, limit } => write!(
                f,
                "requested {:.1} MHz exceeds {:.0} MHz limit",
                requested.as_megahertz(),
                limit.as_megahertz()
            ),
        }
    }
}

impl Error for SynthesizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesizes_paper_system_clock() {
        let pll = Pll::paper_pll();
        // 350 MHz forwarded clock from a 50 MHz crystal.
        let out = pll.synthesize(Hertz::from_megahertz(50.0), 7).expect("ok");
        assert_eq!(out.as_megahertz(), 350.0);
        // 300 MHz nominal from a 100 MHz crystal.
        let out = pll.synthesize(Hertz::from_megahertz(100.0), 3).expect("ok");
        assert_eq!(out.as_megahertz(), 300.0);
    }

    #[test]
    fn rejects_out_of_range_reference() {
        let pll = Pll::paper_pll();
        assert!(matches!(
            pll.synthesize(Hertz::from_megahertz(5.0), 10),
            Err(SynthesizeError::ReferenceOutOfRange { .. })
        ));
        assert!(matches!(
            pll.synthesize(Hertz::from_megahertz(150.0), 2),
            Err(SynthesizeError::ReferenceOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_overfast_output() {
        let pll = Pll::paper_pll();
        assert!(matches!(
            pll.synthesize(Hertz::from_megahertz(133.0), 4),
            Err(SynthesizeError::OutputTooFast { .. })
        ));
    }

    #[test]
    fn rejects_zero_multiplier() {
        let pll = Pll::paper_pll();
        assert_eq!(
            pll.synthesize(Hertz::from_megahertz(50.0), 0),
            Err(SynthesizeError::ZeroMultiplier)
        );
    }

    #[test]
    fn lock_depends_on_supply_cleanliness() {
        let pll = Pll::paper_pll();
        // Interior tile: regulated 1.0–1.2 V → 200 mV ripple: no lock.
        assert!(!pll.holds_lock(Volts::from_millivolts(200.0)));
        // Edge tile with off-wafer decap: ~30 mV ripple: locks.
        assert!(pll.holds_lock(Volts::from_millivolts(30.0)));
    }

    #[test]
    fn error_display_is_informative() {
        let pll = Pll::paper_pll();
        let err = pll.synthesize(Hertz::from_megahertz(5.0), 10).unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_reference_range_rejected() {
        let _ = Pll::new(
            Hertz::from_megahertz(100.0),
            Hertz::from_megahertz(10.0),
            Hertz::from_megahertz(400.0),
            Volts(0.05),
        );
    }

    #[test]
    fn display_mentions_limits() {
        let s = Pll::paper_pll().to_string();
        assert!(s.contains("10-133 MHz"));
        assert!(s.contains("400 MHz"));
    }
}
