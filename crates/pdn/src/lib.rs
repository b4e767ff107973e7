//! Waferscale power delivery and regulation (Sec. III, Fig. 2).
//!
//! The prototype delivers power at the wafer edge: external connectors feed
//! a 2.5 V supply ring, two dense slotted metal planes distribute it across
//! the ~15,000 mm² substrate, and every compute chiplet regulates its own
//! logic supply with a wide-input-range LDO. Because the planes are at most
//! 2 µm thick, the ~290 A of wafer current produces more than a volt of IR
//! droop from edge to centre — chiplets at the edge see ~2.5 V while those
//! at the centre see ~1.4 V at peak draw.
//!
//! This crate reproduces that analysis:
//!
//! * [`PdnConfig`] / [`PdnSolution`] — a resistive-grid model of the two
//!   power planes with the supply ring as boundary condition, solved by
//!   successive over-relaxation; regenerates the Fig. 2 droop map.
//! * [`Ldo`] — the custom wide-input LDO: 1.0–1.2 V regulated output over
//!   a 1.4–2.5 V input range, with dropout and efficiency accounting.
//! * [`DecapBank`] — the on-chip decoupling capacitance (≈20 nF and ~35 %
//!   of tile area) that rides out 200 mA load steps until the LDO responds.
//! * [`DeliveryStrategy`] — the edge-LDO vs on-wafer down-conversion
//!   trade-off the paper weighs before choosing edge delivery.
//!
//! # Examples
//!
//! ```
//! use wsp_pdn::PdnConfig;
//! use wsp_topo::TileCoord;
//!
//! let solution = PdnConfig::paper_prototype().solve()?;
//! let centre = solution.voltage_at(TileCoord::new(16, 16));
//! assert!(centre.value() < 1.6); // large droop at the wafer centre
//! # Ok::<(), wsp_pdn::SolvePdnError>(())
//! ```

#![forbid(unsafe_code)]

mod decap;
mod grid;
mod ldo;
mod strategy;
pub mod transient;

pub use decap::DecapBank;
pub use grid::{LoadModel, PdnConfig, PdnSolution, SolvePdnError};
pub use ldo::{Ldo, RegulateError};
pub use strategy::{DeliveryStrategy, StrategyAssessment};
pub use transient::{simulate_load_step, TransientConfig, TransientResult};
