//! Physical-unit newtypes used across the waferscale design flow.
//!
//! Each quantity wraps an `f64` in its SI base unit (volts, amps, watts,
//! ohms, farads, hertz, seconds, joules) or the unit the paper reasons in
//! (micrometers and millimeters for layout geometry). Only physically
//! meaningful operator combinations are provided; anything else is a
//! compile error.
//!
//! # Examples
//!
//! ```
//! use wsp_common::units::{Farads, Seconds, Volts, Watts};
//!
//! // Energy held by a 20 nF decap bank charged to 1.1 V.
//! let decap = Farads::from_nanofarads(20.0);
//! let energy = 0.5 * decap.energy_at(Volts(1.1));
//! assert!(energy.as_joules() > 0.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for a unit newtype: constructors,
/// accessors, comparison helpers, linear arithmetic with itself and with
/// dimensionless scalars, and `Display` with the unit suffix.
macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw `f64` magnitude in the base unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` when the magnitude is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// The ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);
unit!(
    /// Electric current in amperes.
    Amps,
    "A"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);
unit!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Electric charge in coulombs.
    Coulombs,
    "C"
);
unit!(
    /// Layout length in micrometers.
    Micrometers,
    "µm"
);
unit!(
    /// Layout length in millimeters.
    Millimeters,
    "mm"
);
unit!(
    /// Layout area in square millimeters.
    SquareMillimeters,
    "mm²"
);

// --- Cross-unit physics -------------------------------------------------

impl Mul<Amps> for Volts {
    type Output = Watts;
    /// Electrical power: `P = V · I`.
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

impl Div<Amps> for Volts {
    type Output = Ohms;
    /// Ohm's law: `R = V / I`.
    #[inline]
    fn div(self, rhs: Amps) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

impl Div<Ohms> for Volts {
    type Output = Amps;
    /// Ohm's law: `I = V / R`.
    #[inline]
    fn div(self, rhs: Ohms) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

impl Mul<Ohms> for Amps {
    type Output = Volts;
    /// Ohm's law: `V = I · R`.
    #[inline]
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

impl Mul<Amps> for Ohms {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Amps) -> Volts {
        rhs * self
    }
}

impl Div<Volts> for Watts {
    type Output = Amps;
    /// Current drawn at a given supply: `I = P / V`.
    #[inline]
    fn div(self, rhs: Volts) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

impl Div<Amps> for Watts {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Amps) -> Volts {
        Volts(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy: `E = P · t`.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for Amps {
    type Output = Coulombs;
    /// Charge: `Q = I · t`.
    #[inline]
    fn mul(self, rhs: Seconds) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Farads {
    type Output = Coulombs;
    /// Stored charge: `Q = C · V`.
    #[inline]
    fn mul(self, rhs: Volts) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Div<Farads> for Coulombs {
    type Output = Volts;
    /// Voltage across a capacitor: `V = Q / C`.
    #[inline]
    fn div(self, rhs: Farads) -> Volts {
        Volts(self.0 / rhs.0)
    }
}

impl Volts {
    /// Constructs a potential from millivolts.
    #[inline]
    pub fn from_millivolts(mv: f64) -> Self {
        Volts(mv * 1e-3)
    }

    /// Returns the potential in millivolts.
    #[inline]
    pub fn as_millivolts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Amps {
    /// Constructs a current from milliamps.
    #[inline]
    pub fn from_milliamps(ma: f64) -> Self {
        Amps(ma * 1e-3)
    }
}

impl Watts {
    /// Constructs a power from milliwatts.
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        Watts(mw * 1e-3)
    }
}

impl Ohms {
    /// Constructs a resistance from milliohms.
    #[inline]
    pub fn from_milliohms(mohm: f64) -> Self {
        Ohms(mohm * 1e-3)
    }

    /// Returns the resistance in milliohms.
    #[inline]
    pub fn as_milliohms(self) -> f64 {
        self.0 * 1e3
    }
}

impl Farads {
    /// Constructs a capacitance from nanofarads.
    #[inline]
    pub fn from_nanofarads(nf: f64) -> Self {
        Farads(nf * 1e-9)
    }

    /// Returns the capacitance in nanofarads.
    #[inline]
    pub fn as_nanofarads(self) -> f64 {
        self.0 * 1e9
    }

    /// Energy stored at a given voltage without the ½ factor, i.e. `C·V²`.
    ///
    /// Callers wanting the physical stored energy multiply by `0.5`; keeping
    /// the factor explicit at the call site mirrors how droop budgets are
    /// written in PDN analysis.
    #[inline]
    pub fn energy_at(self, v: Volts) -> Joules {
        Joules(self.0 * v.0 * v.0)
    }
}

impl Hertz {
    /// Constructs a frequency from megahertz.
    #[inline]
    pub fn from_megahertz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Returns the frequency in megahertz.
    #[inline]
    pub fn as_megahertz(self) -> f64 {
        self.0 * 1e-6
    }

    /// The period of one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period(self) -> Seconds {
        assert!(self.0 != 0.0, "period of a zero frequency is undefined");
        Seconds(1.0 / self.0)
    }
}

impl Seconds {
    /// Constructs a time from nanoseconds.
    #[inline]
    pub fn from_nanoseconds(ns: f64) -> Self {
        Seconds(ns * 1e-9)
    }

    /// Returns the time in minutes.
    #[inline]
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns the time in hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl Joules {
    /// Constructs an energy from picojoules.
    #[inline]
    pub fn from_picojoules(pj: f64) -> Self {
        Joules(pj * 1e-12)
    }

    /// Returns the energy in picojoules.
    #[inline]
    pub fn as_picojoules(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the energy in joules.
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0
    }
}

impl Mul<Millimeters> for Millimeters {
    type Output = SquareMillimeters;
    /// Area of a rectangle with the two lengths as sides.
    #[inline]
    fn mul(self, rhs: Millimeters) -> SquareMillimeters {
        SquareMillimeters(self.0 * rhs.0)
    }
}

impl Div<Millimeters> for SquareMillimeters {
    type Output = Millimeters;
    #[inline]
    fn div(self, rhs: Millimeters) -> Millimeters {
        Millimeters(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_round_trips() {
        let v = Volts(1.1);
        let r = Ohms(0.55);
        let i = v / r;
        assert!((i.value() - 2.0).abs() < 1e-12);
        assert!(((i * r).value() - v.value()).abs() < 1e-12);
        assert!(((v / i).value() - r.value()).abs() < 1e-12);
    }

    #[test]
    fn power_products() {
        let p = Volts(2.5) * Amps(290.0);
        assert_eq!(p, Watts(725.0));
        assert_eq!(p / Volts(2.5), Amps(290.0));
        assert_eq!(p / Amps(290.0), Volts(2.5));
    }

    #[test]
    fn energy_and_charge() {
        let e = Watts(725.0) * Seconds(2.0);
        assert_eq!(e, Joules(1450.0));
        assert_eq!(e / Seconds(2.0), Watts(725.0));
        let q = Farads::from_nanofarads(20.0) * Volts(1.1);
        assert!((q.value() - 22e-9).abs() < 1e-18);
        let v = q / Farads::from_nanofarads(20.0);
        assert!((v.value() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn scalar_and_linear_arithmetic() {
        let v = Volts(1.0) + Volts(0.2) - Volts(0.1);
        assert!((v.value() - 1.1).abs() < 1e-12);
        assert_eq!(v * 2.0, 2.0 * v);
        assert_eq!((-v).value(), -v.value());
        assert_eq!(Volts(2.0) / Volts(4.0), 0.5);
        let total: Volts = [Volts(0.5), Volts(0.25)].into_iter().sum();
        assert_eq!(total, Volts(0.75));
    }

    #[test]
    fn metric_prefix_round_trips() {
        assert_eq!(Volts::from_millivolts(1100.0), Volts(1.1));
        assert!((Amps::from_milliamps(200.0).value() - 0.2).abs() < 1e-12);
        assert!((Watts::from_milliwatts(350.0).value() - 0.35).abs() < 1e-12);
        assert!((Farads(450e-12).as_nanofarads() - 0.45).abs() < 1e-12);
        assert!((Hertz::from_megahertz(300.0).as_megahertz() - 300.0).abs() < 1e-9);
        assert!((Seconds::from_nanoseconds(3.33).value() - 3.33e-9).abs() < 1e-18);
        assert!((Joules::from_picojoules(0.063).as_picojoules() - 0.063).abs() < 1e-12);
    }

    #[test]
    fn time_conversions() {
        assert!((Seconds(9000.0).as_hours() - 2.5).abs() < 1e-12);
        assert!((Seconds(300.0).as_minutes() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn period_of_clock() {
        let t = Hertz::from_megahertz(300.0).period();
        assert!((t.value() - 3.3333333e-9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn period_of_zero_frequency_panics() {
        let _ = Hertz(0.0).period();
    }

    #[test]
    fn geometry() {
        let a = Millimeters(3.15) * Millimeters(2.4);
        assert!((a.value() - 7.56).abs() < 1e-12);
        assert!((a / Millimeters(2.4) - Millimeters(3.15)).value().abs() < 1e-12);
    }

    #[test]
    fn comparison_helpers() {
        assert_eq!(Volts(1.0).max(Volts(2.0)), Volts(2.0));
        assert_eq!(Volts(1.0).min(Volts(2.0)), Volts(1.0));
        assert_eq!(Volts(-1.5).abs(), Volts(1.5));
        assert!(Volts(1.0).is_finite());
        assert!(!Volts(f64::NAN).is_finite());
    }

    #[test]
    fn display_includes_unit_suffix() {
        assert_eq!(format!("{:.2}", Volts(1.2345)), "1.23 V");
        assert_eq!(format!("{}", Ohms(2.0)), "2 Ω");
        assert_eq!(format!("{:.1}", Micrometers(10.0)), "10.0 µm");
    }
}
