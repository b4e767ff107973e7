//! Shared foundation types for the waferscale chiplet processor reproduction.
//!
//! Every analysis crate in this workspace (power delivery, clocking, yield,
//! network, test, routing) traffics in physical quantities. Mixing up volts
//! with amps — or millimeters with micrometers — is exactly the class of bug
//! a design-flow tool cannot afford, so this crate provides thin `f64`
//! newtypes with only the physically meaningful arithmetic defined between
//! them (Ohm's law, power products, charge/capacitance relations, …).
//!
//! # Examples
//!
//! ```
//! use wsp_common::units::{Amps, Ohms, Volts};
//!
//! let droop = Amps(290.0) * Ohms(0.003);
//! assert_eq!(droop, Volts(0.87));
//! ```

pub mod parallel;
pub mod rng;
pub mod units;

pub use rng::seeded_rng;
