//! Chiplet assembly: I/O architecture, bonding yield, and known-good-die
//! flow (Secs. V and VII-A of the DAC 2021 paper, Figs. 5 and 8).
//!
//! The Si-IF integration technology bonds bare-die chiplets face-down onto
//! copper pillars at 10 µm pitch. Three design decisions from the paper are
//! modelled here:
//!
//! 1. **Area-efficient I/O cells** that fit entirely under the pad
//!    ([`IoCell`]): ~150 µm² including stripped-down 100 V-HBM ESD, 1 GHz
//!    over ≤500 µm links, 0.063 pJ/bit.
//! 2. **Two pillars per pad** ([`RedundancyScheme`]): a pad only fails if
//!    *both* pillars fail, lifting per-chiplet assembly yield from ~81 % to
//!    99.998 % and cutting expected faulty chiplets per wafer from ~380 to
//!    ~1 ([`BondingModel`]).
//! 3. **Duplicate probe pads** for pre-bond testing ([`PadFrame`],
//!    [`KgdFlow`]): fine-pitch pads cannot be probed (and probing ruins
//!    their planarity), so JTAG and auxiliary signals get large probe-able
//!    duplicates that are *not* bonded afterwards.
//!
//! # Examples
//!
//! ```
//! use wsp_assembly::{BondingModel, RedundancyScheme};
//!
//! let single = BondingModel::new(0.9999, RedundancyScheme::SinglePillar, 2020);
//! let dual = BondingModel::new(0.9999, RedundancyScheme::DualPillar, 2020);
//! assert!(single.chiplet_yield() < 0.82);
//! assert!(dual.chiplet_yield() > 0.9999);
//! ```

#![forbid(unsafe_code)]

mod bonding;
mod cost;
mod io;
mod kgd;

pub use bonding::{BondingModel, RedundancyScheme, WaferAssemblyOutcome};
pub use cost::{compare_approaches, ApproachComparison, DefectModel};
pub use io::{ChipletKind, IoCell, IoColumnSet, PadFrame};
pub use kgd::{ChipletLot, KgdFlow, KgdReport};
