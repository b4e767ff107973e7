//! The waferscale processor system: configuration, integration, boot
//! flow, and workloads.
//!
//! This is the top of the reproduction stack. The substrate crates model
//! the individual design problems the DAC 2021 paper solves — power
//! ([`wsp_pdn`]), clock ([`wsp_clock`]), assembly yield
//! ([`wsp_assembly`]), network ([`wsp_noc`]), test ([`wsp_dft`]),
//! substrate routing ([`wsp_route`]), and the tile microarchitecture
//! ([`wsp_tile`]) — and this crate composes them:
//!
//! * [`SystemConfig`] derives every entry of the paper's Table I from
//!   first principles (chiplet geometry, bank counts, clock frequency);
//! * [`WaferscaleSystem`] walks a wafer through the whole lifecycle:
//!   Monte-Carlo assembly → power-on analysis → clock setup → JTAG fault
//!   localisation → program load → network bring-up;
//! * [`MultiTileMachine`] executes ISA programs over one global address
//!   space, routing every remote load/store/AMO as a request packet
//!   through the shared [`wsp_noc::Fabric`] — the same cycle-level
//!   engine behind the Fig. 7 traffic studies — so congestion, hot-spot
//!   queueing, and relay forwarding are visible in run time;
//! * [`workload`] runs level-synchronous BFS and SSSP over the unified
//!   shared memory, with remote accesses priced by the network model —
//!   the reduced-size system validation the paper performed on FPGA.
//!
//! # Examples
//!
//! ```
//! use waferscale::SystemConfig;
//!
//! let cfg = SystemConfig::paper_prototype();
//! assert_eq!(cfg.total_cores(), 14_336);
//! assert_eq!(cfg.total_chiplets(), 2048);
//! // Table I: 4.3 TOPS, 6.144 TB/s shared-memory bandwidth.
//! assert!((cfg.compute_throughput_tops() - 4.3).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]

mod config;
mod machine;
mod system;
pub mod workload;

pub use config::{LatencyModel, SystemConfig};
pub use machine::{
    LoadMachineError, MachineStats, MemoryProfile, MultiTileMachine, RunMachineError,
};
pub use system::{BootError, BootReport, WaferscaleSystem};
