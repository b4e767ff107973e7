//! Umbrella crate for the waferscale chiplet processor reproduction.
//!
//! This crate re-exports the public APIs of every workspace member so the
//! examples under `examples/` and the cross-crate integration tests under
//! `tests/` can address the whole system through one import. Library users
//! should depend on the individual crates ([`waferscale`], [`wsp_noc`], …)
//! directly.
//!
//! # Examples
//!
//! ```
//! use wsp::waferscale::SystemConfig;
//!
//! let cfg = SystemConfig::paper_prototype();
//! assert_eq!(cfg.total_cores(), 14_336);
//! ```

#![forbid(unsafe_code)]

pub use waferscale;
pub use wsp_assembly;
pub use wsp_clock;
pub use wsp_common;
pub use wsp_dft;
pub use wsp_noc;
pub use wsp_pdn;
pub use wsp_route;
pub use wsp_tile;
pub use wsp_topo;
