//! The lightweight waferscale substrate router (Sec. VIII).
//!
//! Commercial place-and-route tools explode on a four-layer, >15,000 mm²
//! substrate — the paper's team wrote their own minimal router instead,
//! and this crate rebuilds it. The substrate dedicates two layers to
//! power, so signal routing happens on two layers with these rules:
//!
//! * **jog-free routing**: every net is a straight bundle; a wire keeps
//!   its track across every boundary it crosses (no lateral jogs), which
//!   is sufficient because the netlist is mesh-structured;
//! * **layer = I/O column set**: essential I/Os (network links, clock,
//!   JTAG, two memory banks) route on layer 1, the rest on layer 2, so a
//!   wafer whose second layer fails still yields a working system with
//!   40 % of the memory capacity (Sec. VIII);
//! * **reticle stitching**: wires crossing a step-and-repeat reticle
//!   boundary are widened from 2 µm to 3 µm at constant pitch to tolerate
//!   stitching misalignment — the router marks every such crossing;
//! * **edge fan-out**: boundary tiles' external signals route straight to
//!   the wafer edge through otherwise-unpopulated edge reticles.
//!
//! # Examples
//!
//! ```
//! use wsp_route::{LayerMode, RouterConfig, WaferNetlist};
//! use wsp_topo::TileArray;
//!
//! let array = TileArray::new(8, 8);
//! let netlist = WaferNetlist::generate(array);
//! let report = RouterConfig::paper_config(array, LayerMode::DualLayer).route(&netlist)?;
//! assert_eq!(report.failed_nets(), 0);
//! # Ok::<(), wsp_route::RouteError>(())
//! ```

#![forbid(unsafe_code)]

mod drc;
mod export;
mod geometry;
mod netlist;
mod router;

pub use drc::{check_route, DrcViolation};
pub use export::{export_route_dump, parse_route_dump, DumpEntry};
pub use geometry::{Rect, WaferGeometry, WireSegment};
pub use netlist::{Net, NetClass, NetEndpoint, WaferNetlist};
pub use router::{Layer, LayerMode, RouteError, RouteReport, RoutedNet, RouterConfig};
