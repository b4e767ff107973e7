//! Waferscale clock generation and distribution (Sec. IV, Figs. 3 and 4).
//!
//! A passive clock tree spanning >15,000 mm² is hopeless (hundreds of pF
//! and of nH of parasitics limit it to sub-MHz), and the PLL needs the
//! clean supply only edge tiles enjoy. The paper's answer: generate a fast
//! clock (≤350 MHz) in one or more *edge* tiles and forward it tile-to-tile
//! through selection circuitry in every compute chiplet.
//!
//! This crate models each piece of that scheme:
//!
//! * [`Pll`] — the on-chiplet PLL (10–133 MHz reference in, up to 400 MHz
//!   out) and its supply-stability requirement;
//! * [`ClockSelector`] — the per-tile selection FSM of Fig. 3 (JTAG clock
//!   at boot, auto-selection of the first forwarded clock to reach the
//!   toggle count, optional PLL multiplication, forwarding to all four
//!   neighbours);
//! * [`ForwardingSim`] — the wafer-wide clock-setup wavefront over an
//!   arbitrary fault map, reproducing Fig. 4's reachability result (every
//!   healthy tile with at least one healthy neighbour path to a generator
//!   receives the clock);
//! * [`DutyCycleModel`] — accumulation of per-tile duty-cycle distortion
//!   along the forwarding chain, the inverting-forward fix, and the
//!   residual digital DCC correction.
//!
//! # Examples
//!
//! ```
//! use wsp_clock::ForwardingSim;
//! use wsp_topo::{FaultMap, TileArray, TileCoord};
//!
//! let array = TileArray::new(8, 8);
//! let sim = ForwardingSim::new(FaultMap::none(array));
//! let plan = sim.run([TileCoord::new(0, 0)])?;
//! assert_eq!(plan.clocked_count(), 64);
//! # Ok::<(), wsp_clock::ClockSetupError>(())
//! ```

#![forbid(unsafe_code)]

mod duty;
pub mod forwarding;
mod jitter;
mod pll;
mod selector;

pub use duty::{DccUnit, DutyCycleModel};
pub use forwarding::{fig4_scenario, ClockSetupError, ForwardingPlan, ForwardingSim, TileClock};
pub use jitter::JitterModel;
pub use pll::{Pll, SynthesizeError};
pub use selector::{ClockSelector, ClockSource, SelectorPhase};
