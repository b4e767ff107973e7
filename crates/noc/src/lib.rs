//! The fault-tolerant waferscale mesh network (Sec. VI, Figs. 6 and 7).
//!
//! The 32×32 tile array is connected by *two independent* dimension-ordered
//! mesh networks: one routing X-then-Y, the other Y-then-X. Requests travel
//! on one network and their responses return on the complementary one, so
//! the pair uses the same physical path in both directions — two-way
//! communication works whenever a single healthy path exists, and
//! request/response cycles cannot deadlock. With a handful of faulty
//! chiplets a single DoR network disconnects >12 % of tile pairs; the dual
//! network cuts that to <2 % (Fig. 6), with the residue concentrated on
//! same-row/same-column pairs that have only one path.
//!
//! Crate layout:
//!
//! * [`routing`] — DoR path computation and health checks;
//! * [`connectivity`] — the Monte-Carlo disconnection analysis behind
//!   Fig. 6, counting disconnected pairs a row word at a time;
//! * [`kernel`] — the kernel-software policy: per-pair network selection,
//!   load balancing across the two networks, and relaying through an
//!   intermediate tile when both direct paths are broken;
//! * [`fabric`] — the reusable cycle-level engine: per-tile router FIFOs,
//!   round-robin link arbitration with backpressure, relay re-injection,
//!   and per-link contention statistics. Both the synthetic-traffic
//!   simulator and the ISA-level machine in `waferscale` run on it;
//! * [`traffic`] — synthetic [`TrafficPattern`] generation and the
//!   [`NocSim`] latency/throughput studies on top of the fabric, also
//!   validating deadlock freedom.
//!
//! # Examples
//!
//! ```
//! use wsp_noc::connectivity::{disconnected_fraction, RoutingScheme};
//! use wsp_topo::{FaultMap, TileArray};
//!
//! let array = TileArray::new(32, 32);
//! let mut rng = wsp_common::seeded_rng(7);
//! let faults = FaultMap::sample_uniform(array, 5, &mut rng);
//! let single = disconnected_fraction(&faults, RoutingScheme::SingleXy);
//! let dual = disconnected_fraction(&faults, RoutingScheme::DualXyYx);
//! assert!(dual <= single);
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod connectivity;
pub mod fabric;
pub mod fifo;
pub mod kernel;
pub mod oddeven;
pub mod routing;
pub mod traffic;

pub use arena::PacketArena;
pub use connectivity::{
    disconnected_fraction, healthy_region_connected, sample_connected_fault_map, ConnectivityPoint,
    ConnectivitySweep, RoutingScheme, SampleConnectedError,
};
pub use fabric::{Fabric, FabricPacket, LinkStats, PacketKind};
pub use fifo::AsyncFifo;
pub use kernel::{NetworkChoice, RoutePlanner, RoutingTable};
pub use oddeven::{
    odd_even_disconnected_fraction, odd_even_reachable, route_odd_even, turn_allowed,
};
pub use routing::{dor_path, path_is_healthy, NetworkKind};
pub use traffic::{NocSim, SimConfig, SimReport, TrafficPattern};
