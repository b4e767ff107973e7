//! Functional model of one tile: the compute chiplet and its memory
//! chiplet (Sec. II, Fig. 1).
//!
//! A tile pairs a *compute chiplet* — 14 independently programmable
//! Cortex-M3-class cores with 64 KB of private SRAM each, memory
//! controllers, and the network routers — with a *memory chiplet* holding
//! five 128 KB SRAM banks (four globally addressable, one tile-local), all
//! joined by an intra-tile crossbar (the ARM BusMatrix IP in the silicon).
//!
//! The model is executable: [`CoreSim`] interprets a small load/store ISA
//! ([`isa`]) cycle by cycle, private loads hit the core's own SRAM, and
//! accesses to the shared address space arbitrate through the
//! [`Crossbar`] onto the [`MemoryChiplet`] banks — one access per bank per
//! cycle, which is exactly where the paper's 6.144 TB/s aggregate
//! shared-memory bandwidth figure comes from (1024 tiles × 5 banks ×
//! 32 bit × 300 MHz).
//!
//! # Examples
//!
//! ```
//! use wsp_tile::isa::{Program, Reg};
//! use wsp_tile::Tile;
//!
//! // Store 7 × 6 into shared memory from core 0.
//! let program = Program::builder()
//!     .ldi(Reg::R1, 7)
//!     .ldi(Reg::R2, 6)
//!     .mul(Reg::R3, Reg::R1, Reg::R2)
//!     .ldi(Reg::R4, wsp_tile::GLOBAL_BASE)
//!     .st(Reg::R3, Reg::R4, 0)
//!     .halt()
//!     .build()?;
//! let mut tile = Tile::new();
//! tile.load_program(0, &program)?;
//! tile.run_until_halt(10_000)?;
//! assert_eq!(tile.read_shared_word(0)?, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod core;
pub mod crossbar;
pub mod isa;
pub mod memory;
pub mod memory_model;
mod tile;

pub use crate::core::{BusAccess, BusGrant, CoreSim, CoreState, PendingAccess, StepError};
pub use crate::crossbar::Crossbar;
pub use crate::memory::{AccessMemoryError, MemoryChiplet};
pub use crate::memory_model::{
    BankedRowBuffer, FixedLatency, MemTiming, MemoryModel, MemoryModelKind, PAddr, Tlb, VAddr,
};
pub use crate::tile::{LoadProgramError, RunTileError, Tile, TileStats};

/// Base of the globally shared address space as seen by a core. Addresses
/// below this go to the core's private SRAM; at or above, to the shared
/// banks via the crossbar.
pub const GLOBAL_BASE: u32 = 0x8000_0000;

/// Number of cores on the compute chiplet (Table I: 14 per tile).
pub const CORES_PER_TILE: usize = 14;

/// Private SRAM per core, in bytes (Table I: 64 KB).
pub const PRIVATE_SRAM_BYTES: usize = 64 * 1024;
