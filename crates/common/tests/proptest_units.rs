//! Property tests for the unit arithmetic.

use proptest::prelude::*;
use wsp_common::units::{Amps, Farads, Ohms, Seconds, Volts, Watts};

proptest! {
    /// Ohm's-law triangle: the three derivations agree.
    #[test]
    fn ohms_law_triangle(v in 0.1f64..100.0, r in 0.001f64..1000.0) {
        let v = Volts(v);
        let r = Ohms(r);
        let i = v / r;
        prop_assert!(((i * r) - v).value().abs() < 1e-9 * v.value().abs());
        prop_assert!(((v / i) - r).value().abs() < 1e-9 * r.value().abs());
    }

    /// Power relations: P = VI = I²R = V²/R.
    #[test]
    fn power_relations(v in 0.1f64..100.0, r in 0.001f64..1000.0) {
        let v = Volts(v);
        let r = Ohms(r);
        let i = v / r;
        let p1 = v * i;
        let p2 = (i * r) * i;
        prop_assert!((p1 - p2).value().abs() < 1e-9 * p1.value().max(1.0));
    }

    /// Linear newtype arithmetic is commutative/associative like f64.
    #[test]
    fn linear_ops_match_f64(a in -1e6f64..1e6, b in -1e6f64..1e6, k in -100.0f64..100.0) {
        prop_assert_eq!((Volts(a) + Volts(b)).value(), a + b);
        prop_assert_eq!((Volts(a) - Volts(b)).value(), a - b);
        prop_assert_eq!((Volts(a) * k).value(), a * k);
        prop_assert_eq!((k * Volts(a)).value(), k * a);
        prop_assert_eq!((-Volts(a)).value(), -a);
    }

    /// Charge/capacitance round trip: V = (C·V)/C.
    #[test]
    fn capacitor_round_trip(c_nf in 0.1f64..1000.0, v in 0.1f64..10.0) {
        let c = Farads::from_nanofarads(c_nf);
        let q = c * Volts(v);
        let back = q / c;
        prop_assert!((back.value() - v).abs() < 1e-9 * v);
    }

    /// Energy: (P·t)/t = P.
    #[test]
    fn energy_round_trip(p in 0.1f64..1e4, t in 1e-9f64..1e3) {
        let e = Watts(p) * Seconds(t);
        let back = e / Seconds(t);
        prop_assert!((back.value() - p).abs() < 1e-9 * p);
    }

    /// Metric-prefix conversions invert exactly enough.
    #[test]
    fn prefix_round_trips(x in 0.001f64..1e5) {
        prop_assert!((Volts::from_millivolts(x).as_millivolts() - x).abs() < 1e-9 * x);
        prop_assert!((Amps::from_milliamps(x).value() * 1e3 - x).abs() < 1e-9 * x);
        prop_assert!((Farads::from_nanofarads(x).as_nanofarads() - x).abs() < 1e-9 * x);
        prop_assert!((Seconds::from_nanoseconds(x).value() * 1e9 - x).abs() < 1e-9 * x);
    }
}
