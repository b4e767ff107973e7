//! The assembled tile: 14 cores + crossbar + memory chiplet.

use std::error::Error;
use std::fmt;

use crate::core::{BusGrant, CoreSim, CoreState, StepError};
use crate::isa::Program;
use crate::memory::{AccessMemoryError, MemoryChiplet, TOTAL_BYTES};
use crate::memory_model::{MemoryModel, MemoryModelKind};
use crate::{CORES_PER_TILE, GLOBAL_BASE};

/// Aggregate execution statistics of a tile.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TileStats {
    /// Cycles stepped.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub retired: u64,
    /// Shared-memory accesses granted.
    pub shared_accesses: u64,
    /// Denied bank requests (crossbar conflicts and busy windows).
    pub bank_conflicts: u64,
}

/// One tile of the waferscale array, executable in isolation.
///
/// The 14 cores step in a rotating order each cycle so crossbar
/// arbitration is fair over time. Shared-memory addresses
/// (`GLOBAL_BASE + offset`) resolve to this tile's own memory chiplet; in
/// the full system model, remote offsets are handled by the network layer
/// of the `waferscale` crate before they reach the tile.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Tile {
    cores: Vec<CoreSim>,
    memory: MemoryChiplet,
    memory_model: Box<dyn MemoryModel>,
    cycles: u64,
    rotate: usize,
}

impl Tile {
    /// Creates a tile with 14 idle cores, zeroed memory, and the
    /// fixed-latency (paper) memory model.
    pub fn new() -> Self {
        Tile::with_memory_model(MemoryModelKind::Fixed)
    }

    /// Creates a tile with the given memory-timing backend.
    pub fn with_memory_model(kind: MemoryModelKind) -> Self {
        Tile {
            cores: (0..CORES_PER_TILE).map(|_| CoreSim::new()).collect(),
            memory: MemoryChiplet::new(),
            memory_model: kind.build(),
            cycles: 0,
            rotate: 0,
        }
    }

    /// The memory-timing backend (counters: grants, conflicts, row
    /// hits/misses).
    pub fn memory_model(&self) -> &dyn MemoryModel {
        self.memory_model.as_ref()
    }

    /// Access to a core (for register setup / inspection).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &CoreSim {
        &self.cores[core]
    }

    /// Mutable access to a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_mut(&mut self, core: usize) -> &mut CoreSim {
        &mut self.cores[core]
    }

    /// Loads a program into one core.
    ///
    /// # Errors
    ///
    /// Returns an error if `core` is out of range.
    pub fn load_program(&mut self, core: usize, program: &Program) -> Result<(), LoadProgramError> {
        let slot = self
            .cores
            .get_mut(core)
            .ok_or(LoadProgramError::NoSuchCore { core })?;
        slot.load_program(program);
        Ok(())
    }

    /// Loads the same program into every core — the broadcast mode the
    /// JTAG infrastructure provides for the common SPMD case (Sec. VII).
    pub fn broadcast_program(&mut self, program: &Program) {
        for core in &mut self.cores {
            core.load_program(program);
        }
    }

    /// Reads a word of this tile's shared memory (test/host access).
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range offsets.
    pub fn read_shared_word(&self, offset: u32) -> Result<u32, AccessMemoryError> {
        self.memory.read_word(offset)
    }

    /// Whether any core is still running.
    pub fn any_running(&self) -> bool {
        self.cores.iter().any(|c| c.state() == CoreState::Running)
    }

    /// Advances the whole tile one cycle.
    ///
    /// # Errors
    ///
    /// Propagates the first core fault encountered (the faulting core is
    /// identified in the error).
    pub fn step(&mut self) -> Result<(), RunTileError> {
        self.cycles += 1;
        let now = self.cycles;
        let n = self.cores.len();
        for i in 0..n {
            let idx = (i + self.rotate) % n;
            // Split borrows: the closure needs the memory and its timing
            // model but not the core vector.
            let memory = &mut self.memory;
            let model = self.memory_model.as_mut();
            let core = &mut self.cores[idx];
            let mut stall = 0u64;
            core.step(|access| {
                let addr = access.addr();
                let offset = addr - GLOBAL_BASE;
                if offset as usize >= TOTAL_BYTES {
                    return Err(AccessMemoryError::OutOfRange { addr });
                }
                Ok(match memory.serve(model, offset, now, access)? {
                    Some((value, extra)) => {
                        stall = extra;
                        BusGrant::Granted(value)
                    }
                    None => BusGrant::Stalled,
                })
            })
            .map_err(|source| RunTileError::CoreFault { core: idx, source })?;
            core.apply_stall_cycles(stall);
        }
        self.rotate = (self.rotate + 1) % n;
        Ok(())
    }

    /// Steps until every core halts.
    ///
    /// # Errors
    ///
    /// Returns [`RunTileError::CycleLimit`] if cores are still running
    /// after `max_cycles`, or the first core fault.
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Result<TileStats, RunTileError> {
        let start = self.cycles;
        while self.any_running() {
            if self.cycles - start >= max_cycles {
                return Err(RunTileError::CycleLimit { max_cycles });
            }
            self.step()?;
        }
        Ok(self.stats())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TileStats {
        TileStats {
            cycles: self.cycles,
            retired: self.cores.iter().map(|c| c.stats().retired).sum(),
            shared_accesses: self.cores.iter().map(|c| c.stats().shared_accesses).sum(),
            bank_conflicts: self.memory_model.conflicts(),
        }
    }
}

impl Default for Tile {
    fn default() -> Self {
        Tile::new()
    }
}

/// Error loading a program into a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadProgramError {
    /// The core index does not exist.
    NoSuchCore {
        /// The requested index.
        core: usize,
    },
}

impl fmt::Display for LoadProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadProgramError::NoSuchCore { core } => {
                write!(f, "tile has no core {core} (14 per tile)")
            }
        }
    }
}

impl Error for LoadProgramError {}

/// Error advancing a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunTileError {
    /// A core trapped.
    CoreFault {
        /// The faulting core.
        core: usize,
        /// The architectural fault.
        source: StepError,
    },
    /// `run_until_halt` exceeded its budget.
    CycleLimit {
        /// The configured budget.
        max_cycles: u64,
    },
}

impl fmt::Display for RunTileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunTileError::CoreFault { core, source } => write!(f, "core {core} faulted: {source}"),
            RunTileError::CycleLimit { max_cycles } => {
                write!(f, "tile did not halt within {max_cycles} cycles")
            }
        }
    }
}

impl Error for RunTileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunTileError::CoreFault { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    /// Program: shared[R10] += core-specific value, then halt.
    fn accumulate_program(offset: u32, value: u32) -> Program {
        Program::builder()
            .ldi(Reg::R1, GLOBAL_BASE + offset)
            .ldi(Reg::R2, value)
            .ld(Reg::R3, Reg::R1, 0)
            .add(Reg::R3, Reg::R3, Reg::R2)
            .st(Reg::R3, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds")
    }

    #[test]
    fn single_core_writes_shared_memory() {
        let mut tile = Tile::new();
        tile.load_program(0, &accumulate_program(64, 5))
            .expect("ok");
        let stats = tile.run_until_halt(1000).expect("halts");
        assert_eq!(tile.read_shared_word(64).expect("ok"), 5);
        assert!(stats.retired >= 6);
        assert_eq!(stats.shared_accesses, 2);
    }

    #[test]
    fn fourteen_cores_contend_for_one_bank() {
        // All cores hammer DIFFERENT words of the SAME bank (stride 16 so
        // every word maps to bank 0): serialization must appear as
        // conflicts, and all writes must land.
        let mut tile = Tile::new();
        for core in 0..CORES_PER_TILE {
            let offset = (core as u32) * 16; // word-interleave: bank 0
            tile.load_program(core, &accumulate_program(offset, core as u32 + 1))
                .expect("ok");
        }
        let stats = tile.run_until_halt(10_000).expect("halts");
        for core in 0..CORES_PER_TILE {
            assert_eq!(
                tile.read_shared_word((core as u32) * 16).expect("ok"),
                core as u32 + 1
            );
        }
        assert!(stats.bank_conflicts > 0, "expected bank contention");
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        // Cores 0–3 target banks 0–3: no conflicts expected.
        let mut tile = Tile::new();
        for core in 0..4 {
            tile.load_program(core, &accumulate_program(core as u32 * 4, 7))
                .expect("ok");
        }
        let stats = tile.run_until_halt(1000).expect("halts");
        assert_eq!(stats.bank_conflicts, 0);
    }

    #[test]
    fn broadcast_program_runs_same_kernel_everywhere() {
        // The SPMD idiom: every core runs the same program, parameterised
        // by a register set before launch (like the JTAG flow would).
        let program = Program::builder()
            .ldi(Reg::R1, GLOBAL_BASE)
            .shl(Reg::R3, Reg::R2, 2) // offset = id * 4
            .add(Reg::R1, Reg::R1, Reg::R3)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("ok");
        let mut tile = Tile::new();
        tile.broadcast_program(&program);
        for core in 0..CORES_PER_TILE {
            tile.core_mut(core).set_reg(Reg::R2, core as u32);
        }
        tile.run_until_halt(1000).expect("halts");
        for core in 0..CORES_PER_TILE {
            assert_eq!(
                tile.read_shared_word(core as u32 * 4).expect("ok"),
                core as u32
            );
        }
    }

    #[test]
    fn atomic_add_serialises_across_all_cores() {
        // Every core adds its (id+1) to one shared counter 10 times with
        // AMO — no lost updates despite full contention on one bank.
        let program = Program::builder()
            .ldi(Reg::R1, GLOBAL_BASE)
            .ldi(Reg::R3, 10) // iterations
            .ldi(Reg::R0, 0)
            .label("loop")
            .amo_add(Reg::R4, Reg::R1, Reg::R2)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("builds");
        let mut tile = Tile::new();
        tile.broadcast_program(&program);
        for core in 0..CORES_PER_TILE {
            tile.core_mut(core).set_reg(Reg::R2, core as u32 + 1);
        }
        tile.run_until_halt(100_000).expect("halts");
        let expected: u32 = (1..=CORES_PER_TILE as u32).map(|v| v * 10).sum();
        assert_eq!(tile.read_shared_word(0).expect("ok"), expected);
    }

    #[test]
    fn amo_on_private_address_faults() {
        let program = Program::builder()
            .ldi(Reg::R1, 64) // private address
            .amo_add(Reg::R2, Reg::R1, Reg::R2)
            .halt()
            .build()
            .expect("builds");
        let mut tile = Tile::new();
        tile.load_program(0, &program).expect("ok");
        let err = tile.run_until_halt(100).expect_err("faults");
        assert!(matches!(err, RunTileError::CoreFault { core: 0, .. }));
    }

    #[test]
    fn local_bank_is_reachable() {
        let mut tile = Tile::new();
        // Local bank offset: 512 KiB.
        let program = Program::builder()
            .ldi(Reg::R1, GLOBAL_BASE + 512 * 1024)
            .ldi(Reg::R2, 99)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("ok");
        tile.load_program(0, &program).expect("ok");
        tile.run_until_halt(100).expect("halts");
        assert_eq!(tile.read_shared_word(512 * 1024).expect("ok"), 99);
    }

    #[test]
    fn out_of_range_shared_access_faults_the_core() {
        let mut tile = Tile::new();
        let program = Program::builder()
            .ldi(Reg::R1, GLOBAL_BASE + 640 * 1024)
            .ld(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("ok");
        tile.load_program(0, &program).expect("ok");
        let err = tile.run_until_halt(100).expect_err("faults");
        assert!(matches!(err, RunTileError::CoreFault { core: 0, .. }));
        assert!(err.to_string().contains("core 0"));
    }

    #[test]
    fn misaligned_shared_access_names_the_issued_address() {
        let mut tile = Tile::new();
        let program = Program::builder()
            .ldi(Reg::R1, GLOBAL_BASE + 2)
            .ld(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("ok");
        tile.load_program(0, &program).expect("ok");
        let err = tile.run_until_halt(100).expect_err("faults");
        assert_eq!(
            err,
            RunTileError::CoreFault {
                core: 0,
                source: StepError::Memory(AccessMemoryError::Misaligned {
                    addr: GLOBAL_BASE + 2
                }),
            }
        );
    }

    #[test]
    fn cycle_limit_reported() {
        let mut tile = Tile::new();
        let spin = Program::builder()
            .label("forever")
            .jmp("forever")
            .build()
            .expect("ok");
        tile.load_program(0, &spin).expect("ok");
        assert_eq!(
            tile.run_until_halt(50).expect_err("limit"),
            RunTileError::CycleLimit { max_cycles: 50 }
        );
    }

    #[test]
    fn load_program_rejects_bad_core() {
        let mut tile = Tile::new();
        let p = Program::builder().halt().build().expect("ok");
        assert_eq!(
            tile.load_program(14, &p).expect_err("bad core"),
            LoadProgramError::NoSuchCore { core: 14 }
        );
    }

    #[test]
    fn banked_model_is_slower_but_architecturally_identical() {
        use crate::memory_model::MemoryModelKind;

        let mut fixed = Tile::new();
        let mut banked = Tile::with_memory_model(MemoryModelKind::Banked);
        for tile in [&mut fixed, &mut banked] {
            for core in 0..CORES_PER_TILE {
                let offset = (core as u32) * 16; // all bank 0
                tile.load_program(core, &accumulate_program(offset, core as u32 + 1))
                    .expect("ok");
            }
        }
        let fixed_stats = fixed.run_until_halt(100_000).expect("halts");
        let banked_stats = banked.run_until_halt(100_000).expect("halts");
        // Same architectural result…
        for core in 0..CORES_PER_TILE {
            assert_eq!(
                banked.read_shared_word((core as u32) * 16).expect("ok"),
                fixed.read_shared_word((core as u32) * 16).expect("ok"),
            );
        }
        assert_eq!(banked_stats.retired, fixed_stats.retired);
        // …but row misses make the banked run strictly slower.
        assert!(banked_stats.cycles > fixed_stats.cycles);
        let model = banked.memory_model();
        assert!(model.row_misses() > 0);
        assert_eq!(
            model.row_hits() + model.row_misses(),
            banked_stats.shared_accesses
        );
    }

    #[test]
    fn idle_tile_reports_no_activity() {
        let tile = Tile::new();
        assert!(!tile.any_running());
        let stats = tile.stats();
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.retired, 0);
    }
}
