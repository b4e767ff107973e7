//! Tile-array topology for the waferscale chiplet processor.
//!
//! The DAC 2021 prototype arranges 1024 tiles in a 32×32 grid, each tile one
//! compute chiplet plus one memory chiplet, stitched out of 12×6-tile
//! reticles on the Si-IF substrate. Every analysis in the workspace — PDN
//! IR-drop, clock forwarding, NoC connectivity, JTAG chaining, substrate
//! routing — is an algorithm over this grid, so the grid lives in one crate.
//!
//! The main types are:
//!
//! * [`TileArray`] — the rectangular grid, coordinate/index mapping, edge
//!   and neighbour queries;
//! * [`TileCoord`] and [`Direction`] — positions and the four mesh
//!   directions;
//! * [`FaultMap`] — which tiles are faulty, plus Monte-Carlo sampling of
//!   random fault maps (used by Figs. 4 and 6 of the paper);
//! * [`ReticleGrid`] — the step-and-repeat reticle tiling of the wafer
//!   (Sec. VIII), used by the substrate router for its fat-wire stitching
//!   rule.
//!
//! # Examples
//!
//! ```
//! use wsp_topo::{Direction, TileArray, TileCoord};
//!
//! let array = TileArray::new(32, 32);
//! let centre = TileCoord::new(16, 16);
//! assert!(!array.is_edge(centre));
//! assert_eq!(
//!     array.neighbor(centre, Direction::North),
//!     Some(TileCoord::new(16, 15)),
//! );
//! ```

#![forbid(unsafe_code)]

mod array;
mod fault;
mod reticle;

pub use array::{Direction, TileArray, TileCoord, Tiles, DIRECTIONS};
pub use fault::FaultMap;
pub use reticle::{ReticleCoord, ReticleGrid};
