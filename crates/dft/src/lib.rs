//! Design-for-test infrastructure (Sec. VII, Figs. 9 and 10).
//!
//! Every core exposes an IEEE-1149.1-style Debug Access Port (DAP). With
//! 14,336 cores on the wafer, the test architecture is all about chaining:
//!
//! * inside a tile, the fourteen DAPs are **daisy-chained** so one JTAG
//!   interface serves them all, with a **broadcast mode** that feeds TDI to
//!   every DAP in parallel (most workloads are SPMD, so the same program
//!   goes to every core) for a 14× shift-time reduction ([`dap`]);
//! * across tiles, the chain can **loop back** at any tile, so a partially
//!   bonded or faulty system is tested by *progressively unrolling* the
//!   chain one chiplet at a time — the first failing step pinpoints the
//!   faulty chiplet ([`unroll`]);
//! * the 1024-tile array is split into **32 row chains** tested and loaded
//!   in parallel, with per-row TMS/TCK so the broadcast nets stay light
//!   enough for 10 MHz operation — turning a 2.5 h whole-wafer memory load
//!   into under five minutes ([`schedule`]).
//!
//! # Examples
//!
//! ```
//! use wsp_dft::{TestSchedule};
//! use wsp_common::units::Hertz;
//!
//! let single = TestSchedule::single_chain();
//! let multi = TestSchedule::paper_multichain();
//! let bytes = TestSchedule::PAPER_TOTAL_LOAD_BYTES;
//! assert!(single.memory_load_time(bytes).as_hours() > 2.0);
//! assert!(multi.memory_load_time(bytes).as_minutes() < 5.0);
//! ```

#![forbid(unsafe_code)]

pub mod dap;
pub mod schedule;
pub mod tap;
pub mod unroll;

pub use dap::{DapChain, ShiftMode};
pub use schedule::TestSchedule;
pub use tap::{TapChainOfDevices, TapController, TapInstruction, TapState};
pub use unroll::{ChainStep, ProgressiveUnroll, UnrollOutcome};
