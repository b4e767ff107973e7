//! The multi-tile machine: ISA-level execution over the unified shared
//! memory (Sec. II: "any core on any tile can directly access the
//! globally shared memory across the entire waferscale system").
//!
//! Each tile contributes its four global banks to one flat address space:
//! `GLOBAL_BASE + tile_index × 512 KiB + offset`. A core load/store that
//! decodes to its own tile goes through that tile's bank port
//! ([`MemoryChiplet::serve`]) as usual; one
//! that decodes to a *remote* tile becomes a request packet on the shared
//! [`wsp_noc::Fabric`] — riding whichever network the kernel's
//! [`RoutePlanner`] picked, with the response returning on the
//! complementary network — and the core stalls until the response packet
//! is actually delivered. The access itself (including atomic
//! fetch-and-add) is performed at the owner when the request arrives,
//! serialised by the owner's bank port exactly like a local AMO, so
//! congestion, hot-spot queueing, and relay-tile forwarding cycles are
//! all visible in the run time.
//!
//! This is the model the FPGA emulation validated: programs written
//! against one shared address space, running unchanged while the fault
//! map, the distance, and now the *traffic* decide the latency of each
//! access.

use std::collections::HashMap;
use std::fmt;
use wsp_common::stepping::Stepping;
use wsp_noc::{Fabric, FabricPacket, NetworkChoice, PacketKind, RoutePlanner};
use wsp_telemetry::{
    DigestJournal, Fnv1a, Histogram, LaneId, NoopSink, PhaseProfiler, Sink, TimeSeries,
};
use wsp_tile::{
    isa::Reg,
    memory::{bank_of_offset, GLOBAL_REGION_BYTES},
    AccessMemoryError, BusAccess, BusGrant, CoreSim, CoreState, MemoryChiplet, MemoryModel,
    MemoryModelKind, PendingAccess, StepError, GLOBAL_BASE,
};
use wsp_topo::{FaultMap, TileArray, TileCoord};

use crate::config::SystemConfig;

/// Router FIFO depth of the machine's fabric (matches the synthetic
/// traffic simulator's default).
const FABRIC_QUEUE_CAPACITY: usize = 4;

// A tile's cores fit one `u16` mask.
const _: () = assert!(wsp_tile::CORES_PER_TILE <= 16);

/// A remote access in flight on the fabric, keyed by its request packet
/// id. The owner fills `result` when it services the request; the value
/// travels back with the response packet's id.
#[derive(Debug, Clone, Copy)]
struct RemoteOp {
    tile_idx: usize,
    core_idx: usize,
    access: BusAccess,
    result: Option<u32>,
}

/// Execution statistics of a machine run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MachineStats {
    /// Cycles stepped.
    pub cycles: u64,
    /// Instructions retired across every core.
    pub retired: u64,
    /// Shared-memory accesses that resolved to the issuing tile.
    pub local_accesses: u64,
    /// Shared-memory accesses that crossed the network.
    pub remote_accesses: u64,
    /// Core-cycles spent stalled on remote accesses (issue to grant).
    pub network_stall_cycles: u64,
    /// Sum of end-to-end remote-access latencies, in cycles; divide by
    /// [`MachineStats::remote_accesses`] (or use
    /// [`MachineStats::mean_remote_latency`]) for the average round trip.
    pub remote_latency_total: u64,
    /// Packets re-injected at an intermediate tile because both direct
    /// DoR paths were broken.
    pub relay_forwards: u64,
    /// Cycles any fabric link spent blocked on a full downstream FIFO.
    pub link_stall_cycles: u64,
    /// Deepest router FIFO observed anywhere in the fabric.
    pub peak_link_occupancy: usize,
    /// Bank-port arbitration denials: cycles an access (local, or a
    /// remote request arriving at its owner) lost the crossbar and had to
    /// retry.
    pub bank_conflicts: u64,
}

impl MachineStats {
    /// Mean end-to-end remote-access latency in cycles (0 when no remote
    /// access completed).
    pub fn mean_remote_latency(&self) -> f64 {
        if self.remote_accesses == 0 {
            0.0
        } else {
            self.remote_latency_total as f64 / self.remote_accesses as f64
        }
    }
}

/// A machine of many tiles executing ISA programs over one global
/// address space.
///
/// # Examples
///
/// ```
/// use waferscale::{MultiTileMachine, SystemConfig};
/// use wsp_tile::isa::{Program, Reg};
/// use wsp_topo::{FaultMap, TileArray};
///
/// let cfg = SystemConfig::with_array(TileArray::new(2, 2));
/// let mut machine = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
/// // Core 0 of tile (0,0) stores 99 into tile (1,1)'s memory.
/// let target = machine.global_address(wsp_topo::TileCoord::new(1, 1), 0)?;
/// let program = Program::builder()
///     .ldi(Reg::R1, target)
///     .ldi(Reg::R2, 99)
///     .st(Reg::R2, Reg::R1, 0)
///     .halt()
///     .build()?;
/// machine.load_program(wsp_topo::TileCoord::new(0, 0), 0, &program)?;
/// machine.run_until_halt(10_000)?;
/// assert_eq!(machine.read_word(target)?, 99);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MultiTileMachine {
    config: SystemConfig,
    faults: FaultMap,
    planner: RoutePlanner,
    cores: Vec<Vec<CoreSim>>,
    memories: Vec<MemoryChiplet>,
    /// Per-tile memory-timing backend (the `--memory` fidelity axis).
    /// Built from [`SystemConfig::memory_model`]; every shared access —
    /// local or owner-side remote service — arbitrates through it under
    /// the execute-then-stall contract.
    mem_models: Vec<Box<dyn MemoryModel>>,
    pending: Vec<Vec<Option<PendingAccess>>>,
    fabric: Fabric,
    in_flight: HashMap<u64, RemoteOp>,
    /// Request packets delivered at their owner but still waiting for a
    /// bank port (the owner's cores compete through the same crossbar),
    /// each with its op, looked up once on delivery.
    deferred: Vec<(FabricPacket, RemoteOp)>,
    /// Reusable per-cycle fabric delivery buffer
    /// ([`Fabric::tick_into`] clears it each call).
    delivered_buf: Vec<FabricPacket>,
    cycles: u64,
    local_accesses: u64,
    remote_accesses: u64,
    network_stall_cycles: u64,
    remote_latency_total: u64,
    bank_conflicts: u64,
    /// How the tile-step phase visits tiles: the wheel's active-set walk
    /// (default) or the dense reference sweep. Bit-identical either way.
    stepping: Stepping,
    /// Per-tile mask of the cores in [`CoreState::Running`] (bit `c` is
    /// core `c`).
    running: Vec<u16>,
    /// Per-tile mask of the running cores parked on an in-flight remote
    /// op, a subset of `running`. Only the `running & !parked` cores can
    /// retire, issue, or touch memory this cycle, so the wheel visits
    /// exactly those and skips tiles where none is left.
    parked: Vec<u16>,
    /// Cycle each core (`[tile][core]`) was last visited by the tile
    /// walk; a core the wheel skipped while parked on a remote op replays
    /// `now - last - 1` stall cycles when next stepped.
    last_stepped: Vec<Vec<u64>>,
    /// Core steps executed (see [`MultiTileMachine::core_steps`]).
    core_steps: u64,
    /// Running cores across the machine — the O(1) `run_until_halt` test.
    running_cores: usize,
    /// Set when [`MultiTileMachine::core_mut`] hands out direct core
    /// access; the core masks are recomputed on the next step.
    liveness_dirty: bool,
    /// Per-cycle runnable-tile counts, sampled in both stepping modes so
    /// the exported telemetry is independent of the mode.
    runnable_tiles: Histogram,
    /// Telemetry sink; [`NoopSink`] by default. Remote completions record
    /// a latency histogram sample, bank denials bump a counter, and
    /// [`MultiTileMachine::run_until_halt`] emits a `machine` run span.
    sink: Box<dyn Sink>,
    /// Sampling cadence for the machine's gauge series (0 = off).
    sample_every: u64,
    /// Per-cycle gauge series `(name, series)`: runnable tiles, in-flight
    /// remote ops, and (stateful memory backends only) the cumulative
    /// row-hit rate. Pure functions of architectural state, so the series
    /// are bit-identical across stepping modes.
    samples: [(&'static str, TimeSeries); 3],
    /// Wall-clock phase attribution: `machine.tiles`, `machine.fabric`,
    /// and `machine.fabric.memory`. The fabric's own `fused` phase lives
    /// in its profiler and is re-rooted on export.
    profiler: PhaseProfiler,
}

impl MultiTileMachine {
    /// Builds a machine over the healthy tiles of `faults` (faulty tiles
    /// have no cores and serve no memory).
    ///
    /// # Panics
    ///
    /// Panics if the fault map covers a different array than `config`.
    pub fn new(config: SystemConfig, faults: FaultMap) -> Self {
        assert_eq!(
            faults.array(),
            config.array(),
            "fault map must match the configuration"
        );
        let tiles = config.array().tile_count();
        let cores_per_tile = config.cores_per_tile();
        MultiTileMachine {
            config,
            planner: RoutePlanner::new(faults.clone()),
            fabric: Fabric::new(faults.array(), FABRIC_QUEUE_CAPACITY),
            faults,
            cores: (0..tiles)
                .map(|_| (0..cores_per_tile).map(|_| CoreSim::new()).collect())
                .collect(),
            memories: (0..tiles).map(|_| MemoryChiplet::new()).collect(),
            mem_models: (0..tiles).map(|_| config.memory_model().build()).collect(),
            pending: (0..tiles).map(|_| vec![None; cores_per_tile]).collect(),
            in_flight: HashMap::new(),
            deferred: Vec::new(),
            delivered_buf: Vec::new(),
            cycles: 0,
            local_accesses: 0,
            remote_accesses: 0,
            network_stall_cycles: 0,
            remote_latency_total: 0,
            bank_conflicts: 0,
            stepping: Stepping::default(),
            running: vec![0; tiles],
            parked: vec![0; tiles],
            last_stepped: vec![vec![0; cores_per_tile]; tiles],
            core_steps: 0,
            running_cores: 0,
            liveness_dirty: false,
            runnable_tiles: Histogram::new(),
            sink: Box::new(NoopSink),
            sample_every: 0,
            samples: Self::make_samples(0),
            profiler: PhaseProfiler::new(false),
        }
    }

    /// The machine's sampled gauge series at cadence `every`.
    fn make_samples(every: u64) -> [(&'static str, TimeSeries); 3] {
        [
            ("machine.runnable_tiles", TimeSeries::new(every)),
            ("machine.in_flight", TimeSeries::new(every)),
            ("machine.memory.row_hit_rate", TimeSeries::new(every)),
        ]
    }

    /// Selects how the machine (and its fabric) visit tiles each cycle
    /// (default: [`Stepping::Wheel`]). Results are bit-identical in
    /// either mode.
    pub fn set_stepping(&mut self, stepping: Stepping) {
        self.stepping = stepping;
        self.fabric.set_stepping(stepping);
    }

    /// The current stepping mode.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// Per-cycle runnable-tile counts sampled so far — a pure function of
    /// core/pending state, identical in either stepping mode.
    pub fn runnable_tiles(&self) -> &Histogram {
        &self.runnable_tiles
    }

    /// Core steps executed so far: one per [`CoreSim::step`] of a running
    /// core. This is a work counter, not a statistic: dense stepping steps
    /// every running core every cycle, while the wheel skips cores parked
    /// on an in-flight remote op and jumps frozen windows. It therefore
    /// depends on the stepping mode and stays out of [`MachineStats`].
    pub fn core_steps(&self) -> u64 {
        self.core_steps
    }

    /// Installs a telemetry sink for machine-level events (remote-latency
    /// histogram, bank-conflict counter, run spans). Fabric-level link
    /// telemetry is installed separately via
    /// [`MultiTileMachine::fabric_mut`].
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = sink;
    }

    /// Enables per-cycle gauge sampling every `every` cycles for both the
    /// machine and its fabric (0 = off, the default). Resets previously
    /// collected series. Sampled values are pure functions of
    /// architectural state and land in the deterministic bench report.
    pub fn set_sampling(&mut self, every: u64) {
        self.sample_every = every;
        self.samples = Self::make_samples(every);
        self.fabric.set_sampling(every);
    }

    /// Sampling cadence in cycles (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The machine's collected gauge series as `(name, series)` pairs.
    pub fn timeseries(&self) -> impl Iterator<Item = (&'static str, &TimeSeries)> {
        self.samples.iter().map(|(name, s)| (*name, s))
    }

    /// Enables determinism digests every `every` cycles (0 = off). The
    /// journal lives in the fabric (machine and fabric share one cycle
    /// domain); every window fingerprints each router's queue state and
    /// each tile's architectural state (cores, pending slots, memory-model
    /// timing).
    pub fn set_digests(&mut self, every: u64) {
        self.fabric.set_digests(every);
    }

    /// The determinism-digest journal recorded so far, if digests are on.
    pub fn journal(&self) -> Option<&DigestJournal> {
        self.fabric.journal()
    }

    /// Turns wall-clock phase profiling on or off, for the machine's own
    /// phases and the fabric's `fused` pass.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler.set_enabled(on);
        self.fabric.set_profiling(on);
    }

    /// The machine's accumulated phase timings (excluding the fabric's;
    /// see [`MultiTileMachine::export_profile`] for the merged export).
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Exports every phase timing as `wall.profile.*` gauges: the
    /// machine's own phases plus the fabric's, re-rooted under
    /// `machine.fabric.` so the rollup sees one tree.
    pub fn export_profile(&self, sink: &mut dyn Sink) {
        self.profiler.export(sink, "");
        self.fabric.export_profile(sink, "machine.fabric.");
    }

    /// Mutable access to the shared fabric, e.g. to install its sink.
    #[inline]
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The shared network fabric.
    #[inline]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The global byte address of `offset` within `tile`'s shared region.
    ///
    /// # Errors
    ///
    /// Returns an error when the tile is faulty or the offset leaves the
    /// 512 KiB global region (misalignment is caught at access time).
    pub fn global_address(&self, tile: TileCoord, offset: u32) -> Result<u32, AccessMemoryError> {
        if self.faults.is_faulty(tile) || offset as usize >= GLOBAL_REGION_BYTES {
            return Err(AccessMemoryError::OutOfRange { addr: offset });
        }
        let index = self.faults.array().index_of(tile) as u32;
        Ok(GLOBAL_BASE + index * GLOBAL_REGION_BYTES as u32 + offset)
    }

    /// Loads a program into one core of one tile.
    ///
    /// # Errors
    ///
    /// Returns an error for faulty tiles or core indices out of range.
    pub fn load_program(
        &mut self,
        tile: TileCoord,
        core: usize,
        program: &wsp_tile::isa::Program,
    ) -> Result<(), LoadMachineError> {
        if self.faults.is_faulty(tile) {
            return Err(LoadMachineError::FaultyTile { tile });
        }
        let idx = self.faults.array().index_of(tile);
        let slot = self.cores[idx]
            .get_mut(core)
            .ok_or(LoadMachineError::NoSuchCore { tile, core })?;
        let was_running = slot.state() == CoreState::Running;
        slot.load_program(program);
        if !was_running && slot.state() == CoreState::Running {
            self.running[idx] |= 1 << core;
            self.running_cores += 1;
        }
        Ok(())
    }

    /// Access to one core for argument setup / result readout.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range tiles or cores.
    pub fn core_mut(&mut self, tile: TileCoord, core: usize) -> &mut CoreSim {
        let idx = self.faults.array().index_of(tile);
        // The caller may flip core state directly; rebuild the core masks
        // before the next step so the wheel never skips a woken core.
        self.liveness_dirty = true;
        &mut self.cores[idx][core]
    }

    /// Host read of a global word.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn read_word(&self, addr: u32) -> Result<u32, AccessMemoryError> {
        let (tile_idx, offset) = self.decode(addr)?;
        self.memories[tile_idx].read_word(offset)
    }

    /// Host write of a global word.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), AccessMemoryError> {
        let (tile_idx, offset) = self.decode(addr)?;
        self.memories[tile_idx].write_word(offset, value)
    }

    /// Decodes a global address to `(tile index, bank offset)`.
    fn decode(&self, addr: u32) -> Result<(usize, u32), AccessMemoryError> {
        if addr < GLOBAL_BASE {
            return Err(AccessMemoryError::OutOfRange { addr });
        }
        let off = addr - GLOBAL_BASE;
        let tile_idx = (off as usize) / GLOBAL_REGION_BYTES;
        if tile_idx >= self.faults.array().tile_count() {
            return Err(AccessMemoryError::OutOfRange { addr });
        }
        let tile = self.faults.array().coord_of(tile_idx);
        if self.faults.is_faulty(tile) {
            return Err(AccessMemoryError::OutOfRange { addr });
        }
        Ok((tile_idx, off % GLOBAL_REGION_BYTES as u32))
    }

    /// Whether any core is still running.
    pub fn any_running(&self) -> bool {
        self.cores
            .iter()
            .flatten()
            .any(|c| c.state() == CoreState::Running)
    }

    /// Rebuilds the core masks from scratch after a caller mutated cores
    /// through [`MultiTileMachine::core_mut`].
    fn refresh_liveness(&mut self) {
        self.running_cores = 0;
        for (t, (tile_cores, pending)) in self.cores.iter().zip(&self.pending).enumerate() {
            (self.running[t], self.parked[t]) = scan_masks(tile_cores, pending);
            self.running_cores += self.running[t].count_ones() as usize;
        }
        self.liveness_dirty = false;
    }

    /// Tiles with at least one running core that is not parked.
    fn runnable_tile_count(&self) -> usize {
        self.running
            .iter()
            .zip(&self.parked)
            .filter(|&(&running, &parked)| running & !parked != 0)
            .count()
    }

    /// Checks the machine's incremental bookkeeping against a rescan of
    /// its cores and pending slots. Between steps:
    ///
    /// * each tile's `running` mask is the set of cores in
    ///   [`CoreState::Running`], and its `parked` mask the running cores
    ///   whose pending slot is [`PendingAccess::InFlight`];
    /// * the running-core count is the sum of the `running` popcounts;
    /// * every parked core owns exactly one in-flight remote op, and
    ///   every request deferred at its owner is one of them.
    ///
    /// The masks only steer which cores the wheel visits, so a stale bit
    /// skips or wastes a visit without always changing any output; this
    /// check sees it directly. After [`MultiTileMachine::core_mut`] the
    /// masks are rebuilt on the next step, so they are not checked until
    /// then.
    ///
    /// # Errors
    ///
    /// Describes the first broken invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut running_total = 0;
        let mut parked_total = 0;
        for (t, (tile_cores, pending)) in self.cores.iter().zip(&self.pending).enumerate() {
            let (running, parked) = scan_masks(tile_cores, pending);
            running_total += running.count_ones() as usize;
            parked_total += parked.count_ones() as usize;
            if self.liveness_dirty {
                continue;
            }
            if self.running[t] != running {
                return Err(format!(
                    "tile {t}: running mask {:#06x}, cores say {running:#06x}",
                    self.running[t]
                ));
            }
            if self.parked[t] != parked {
                return Err(format!(
                    "tile {t}: parked mask {:#06x}, pending slots say {parked:#06x}",
                    self.parked[t]
                ));
            }
        }
        if !self.liveness_dirty && self.running_cores != running_total {
            return Err(format!(
                "{} running cores counted, {running_total} running",
                self.running_cores
            ));
        }
        if self.in_flight.len() != parked_total {
            return Err(format!(
                "{} remote ops in flight, {parked_total} cores parked",
                self.in_flight.len()
            ));
        }
        if let Some((packet, _)) = self
            .deferred
            .iter()
            .find(|(packet, _)| !self.in_flight.contains_key(&packet.id))
        {
            return Err(format!("deferred request {} is not in flight", packet.id));
        }
        Ok(())
    }

    /// Advances every tile one cycle.
    ///
    /// # Errors
    ///
    /// Propagates the first core fault in canonical tile/core order; no
    /// core after it steps this cycle.
    pub fn step(&mut self) -> Result<(), RunMachineError> {
        if self.liveness_dirty {
            self.refresh_liveness();
        }
        if self.stepping == Stepping::Wheel {
            let window = self.wheel_skip_window();
            if window > 0 {
                self.skip_stall_window(window);
                return Ok(());
            }
        }
        self.cycles += 1;
        let tiles_timer = self.profiler.start();
        let result = self.step_tiles();
        self.profiler.stop("machine.tiles", tiles_timer);
        // A core fault stops the walk mid-sweep, but every mask update
        // up to the fault (the faulting core's included) has landed.
        if result.is_ok() {
            self.advance_fabric();
            self.sample_cycle();
            self.record_digest_lanes();
        }
        result
    }

    /// How many whole cycles the event wheel may jump right now, or 0
    /// when the next cycle must execute normally.
    ///
    /// A window opens only when the machine is *fully stalled*: nothing
    /// is in flight anywhere (`in_flight`, `deferred`, and the fabric are
    /// all empty — which forces every `parked` mask to zero) and every
    /// running core is frozen behind a positive `stall_pending`. During
    /// such a window the dense sweep provably does nothing but decrement
    /// each frozen core's `stall_pending` by one per cycle: a frozen
    /// [`CoreSim::step`] touches no other state, no packets move, and
    /// the lazily-stamped memory models are never consulted. The window
    /// therefore ends at the smallest `stall_pending` — the next cycle
    /// at which some core thaws and issues — clamped to the next sample
    /// and digest boundaries so every observation cycle is stepped-or-
    /// skipped-to exactly, never jumped over.
    ///
    /// Cores holding a delivered [`PendingAccess::Ready`] value have
    /// `stall_pending == 0` (remote blocks never arm the freeze), so the
    /// minimum scan rejects those windows automatically; under the Fixed
    /// memory model no core ever freezes and the scan exits on the first
    /// running core.
    fn wheel_skip_window(&mut self) -> u64 {
        if self.running_cores == 0
            || !self.in_flight.is_empty()
            || !self.deferred.is_empty()
            || self.fabric.in_flight() != 0
        {
            return 0;
        }
        let mut window = u64::MAX;
        for (tile_cores, &running) in self.cores.iter().zip(&self.running) {
            for c in core_bits(running, 0, tile_cores.len()) {
                let pending = tile_cores[c].stall_pending();
                if pending == 0 {
                    return 0;
                }
                window = window.min(pending);
            }
        }
        if window == u64::MAX {
            return 0;
        }
        if let Some(periods) = self.cycles.checked_div(self.sample_every) {
            window = window.min((periods + 1) * self.sample_every - self.cycles);
        }
        if let Some(every) = self.fabric.journal_mut().map(|j| j.every()) {
            if let Some(periods) = self.cycles.checked_div(every) {
                window = window.min((periods + 1) * every - self.cycles);
            }
        }
        window
    }

    /// Jumps the machine `window` cycles through a fully stalled span,
    /// replaying the dense sweep's bookkeeping in bulk: the runnable-tile
    /// histogram gets `window` identical observations, every frozen core
    /// drains `window` freeze cycles in one subtraction, the fabric skips
    /// its own gauges/digests, and the endpoint cycle is offered to the
    /// machine's sample series and digest lanes exactly as a stepped
    /// cycle would be. `wheel_skip_window` guarantees no observation
    /// boundary lies strictly inside the span. No core holds a remote op
    /// during a window, so no core owes a gap replay across it.
    fn skip_stall_window(&mut self, window: u64) {
        debug_assert_eq!(self.check_invariants(), Ok(()));
        let runnable = self.runnable_tile_count();
        self.cycles += window;
        self.runnable_tiles.record_n(runnable as u64, window);
        for (tile_cores, &running) in self.cores.iter_mut().zip(&self.running) {
            let n = tile_cores.len();
            for c in core_bits(running, 0, n) {
                tile_cores[c].drain_stall_cycles(window);
            }
        }
        self.fabric.skip_cycles(window);
        self.sample_cycle();
        self.record_digest_lanes();
    }

    /// Offers this cycle's gauge samples to the machine's series (the
    /// fabric samples its own inside [`Fabric::tick`]). Gated on the
    /// shared cadence so the state walks run only on sample cycles.
    fn sample_cycle(&mut self) {
        if self.sample_every == 0 || !self.samples[0].1.wants(self.cycles) {
            return;
        }
        let cycle = self.cycles;
        let runnable = self.runnable_tile_count();
        self.samples[0].1.record(cycle, runnable as f64);
        self.samples[1].1.record(cycle, self.in_flight.len() as f64);
        // The row-hit-rate series only exists on stateful backends,
        // matching the gating of the end-of-run memory counters.
        if self.config.memory_model() != MemoryModelKind::Fixed {
            self.samples[2]
                .1
                .record(cycle, self.memory_profile().row_hit_rate());
        }
    }

    /// Fingerprints each tile's architectural state into the fabric's
    /// digest journal at window boundaries: per-core state/pc/registers/
    /// stats, pending-access slots, running/parked core counts, and the memory
    /// model's timing fingerprint. Shared-memory *contents* are not
    /// hashed (too large at this cadence); a data-only divergence
    /// surfaces as soon as a core loads it into a register.
    fn record_digest_lanes(&mut self) {
        let MultiTileMachine {
            cores,
            mem_models,
            pending,
            running,
            parked,
            fabric,
            cycles,
            ..
        } = self;
        let Some(journal) = fabric.journal_mut() else {
            return;
        };
        let cycle = *cycles;
        if !journal.wants(cycle) {
            return;
        }
        for (t, tile_cores) in cores.iter().enumerate() {
            let mut h = Fnv1a::new();
            for core in tile_cores {
                h.write_u8(match core.state() {
                    CoreState::Running => 0,
                    CoreState::Halted => 1,
                    CoreState::Faulted => 2,
                });
                h.write_u64(core.pc() as u64);
                h.write_u64(core.stall_pending());
                // Retired instructions are stepping-invariant; the cycle
                // and stall counters are NOT hashed because the active-set
                // walk replays a blocked core's bookkeeping in bulk on
                // wake, so they lag the dense sweep mid-run.
                h.write_u64(core.stats().retired);
                for r in Reg::ALL {
                    h.write_u32(core.reg(r));
                }
            }
            for slot in &pending[t] {
                match *slot {
                    None => h.write_u8(0),
                    Some(PendingAccess::InFlight { addr, issued_at }) => {
                        h.write_u8(1);
                        h.write_u32(addr);
                        h.write_u64(issued_at);
                    }
                    Some(PendingAccess::Ready {
                        addr,
                        issued_at,
                        value,
                    }) => {
                        // Tag 2 is retired; keeping 3 keeps every
                        // committed digest journal valid.
                        h.write_u8(3);
                        h.write_u32(addr);
                        h.write_u64(issued_at);
                        h.write_u32(value);
                    }
                }
            }
            h.write_u64(mem_models[t].state_fingerprint());
            h.write_u32(running[t].count_ones());
            h.write_u32(parked[t].count_ones());
            journal.record(cycle, LaneId::Machine { tile: t as u32 }, h.finish());
        }
    }

    /// One cycle of the tile phase: walks the tiles in
    /// row-major order and steps each tile's cores in the cycle's rotated
    /// order, stopping at the first core fault.
    ///
    /// Wheel stepping visits only the `running & !parked` cores of each
    /// tile and skips tiles where none is left. Skipping is unobservable:
    /// a halted core's step is a no-op, and a parked core's dense step
    /// does exactly `cycles += 1`, `stall_cycles += 1`,
    /// `network_stall_cycles += 1` and touches nothing else. Each core
    /// replays that in bulk for the gap since its own `last_stepped` when
    /// it is next stepped, or when a fault or the cycle limit ends the run
    /// early. The dense sweep visits every core slot, so its replay is a
    /// no-op; the masks are kept up to date either way.
    fn step_tiles(&mut self) -> Result<(), RunMachineError> {
        let array = self.faults.array();
        let n = self.config.cores_per_tile();
        let rotate = (self.cycles % n as u64) as usize;
        let cycles = self.cycles;
        // Runnable-tile count, in both stepping modes: a pure function of
        // the core masks.
        self.runnable_tiles
            .record(self.runnable_tile_count() as u64);
        for tile_idx in 0..array.tile_count() {
            let visit = match self.stepping {
                Stepping::Wheel => self.running[tile_idx] & !self.parked[tile_idx],
                Stepping::Dense => all_cores(n),
            };
            if visit == 0 {
                continue;
            }
            let tile = array.coord_of(tile_idx);
            // A faulty tile's memory model is never arbitrated: its cores
            // never run and it owns no servable memory.
            if self.faults.is_faulty(tile) {
                continue;
            }
            for core_idx in core_bits(visit, rotate, n) {
                let core = &mut self.cores[tile_idx][core_idx];
                let last = &mut self.last_stepped[tile_idx][core_idx];
                let slot = self.pending[tile_idx][core_idx];
                self.network_stall_cycles += replay_parked(core, slot, last, cycles - 1);
                *last = cycles;
                // Stepping a non-running core is a no-op in `CoreSim::step`,
                // so the dense sweep elides the call.
                if core.state() != CoreState::Running {
                    continue;
                }
                self.core_steps += 1;
                let outcome = self.step_core(tile_idx, core_idx);
                // A fault leaves the core `Faulted`: it stops running too.
                if outcome != Ok(CoreState::Running) {
                    self.running[tile_idx] &= !(1 << core_idx);
                    self.running_cores -= 1;
                }
                if let Err(source) = outcome {
                    self.settle_after_fault((tile_idx, (core_idx + n - rotate) % n), rotate);
                    return Err(RunMachineError::CoreFault {
                        tile,
                        core: core_idx,
                        source,
                    });
                }
            }
        }
        Ok(())
    }

    /// Settles every parked core's skipped stall steps after a core fault
    /// at walk position `stop` — `(tile, place in the rotated core order)`
    /// — aborted this cycle, so the run's counters read as the dense sweep
    /// would leave them: cores the walk had reached owe steps through this
    /// cycle, the rest through the previous one.
    fn settle_after_fault(&mut self, stop: (usize, usize), rotate: usize) {
        let cycles = self.cycles;
        self.settle_parked(rotate, |t, position| {
            if (t, position) < stop {
                cycles
            } else {
                cycles - 1
            }
        });
    }

    /// Credits every core parked on a remote op the stall steps the wheel
    /// skipped, through the cycle `through(tile, position)` returns for
    /// it, where `position` is the core's place in the order rotated by
    /// `rotate`.
    fn settle_parked(&mut self, rotate: usize, through: impl Fn(usize, usize) -> u64) {
        let n = self.config.cores_per_tile();
        for t in 0..self.cores.len() {
            for position in 0..n {
                let c = (position + rotate) % n;
                self.network_stall_cycles += replay_parked(
                    &mut self.cores[t][c],
                    self.pending[t][c],
                    &mut self.last_stepped[t][c],
                    through(t, position),
                );
            }
        }
    }

    /// Moves the fabric one cycle and services what it delivered:
    /// requests perform their access at the owner (arbitrating the
    /// owner's crossbar against its own cores) and send the result back;
    /// responses wake the issuing core.
    fn advance_fabric(&mut self) {
        let fabric_timer = self.profiler.start();
        let mut delivered = std::mem::take(&mut self.delivered_buf);
        self.fabric.tick_into(&mut delivered);
        for &packet in &delivered {
            match packet.kind {
                PacketKind::Request => {
                    let op = self.in_flight[&packet.id];
                    self.deferred.push((packet, op));
                }
                PacketKind::Response => self.complete_response(&packet),
            }
        }
        self.delivered_buf = delivered;
        let memory_timer = self.profiler.start();
        // Each deferred request gets one service attempt; refused ones
        // keep their relative order.
        let mut deferred = std::mem::take(&mut self.deferred);
        deferred.retain(|(packet, op)| !self.try_service_request(packet, op));
        self.deferred = deferred;
        self.profiler.stop("machine.fabric.memory", memory_timer);
        self.profiler.stop("machine.fabric", fabric_timer);
    }

    /// Performs a delivered request at its owner tile if a bank port is
    /// free this cycle, injecting the response. Returns `false` when the
    /// memory model denied the port (retry next cycle).
    fn try_service_request(&mut self, packet: &FabricPacket, op: &RemoteOp) -> bool {
        let owner_idx = self.faults.array().index_of(packet.dst);
        let offset = (op.access.addr() - GLOBAL_BASE) % GLOBAL_REGION_BYTES as u32;
        // The issuing closure validated range and alignment before the
        // packet was injected. Models stamp with the absolute cycle, so
        // no lazy per-cycle reset is needed even under wheel stepping.
        // The response is injected immediately on grant; a banked model
        // prices the access by keeping the bank busy, which delays
        // *subsequent* requests rather than this reply.
        let served = self.memories[owner_idx]
            .serve(
                self.mem_models[owner_idx].as_mut(),
                offset,
                self.cycles,
                op.access,
            )
            .expect("offset validated at issue");
        let Some((value, _stall)) = served else {
            self.bank_conflicts += 1;
            if self.sink.enabled() {
                self.sink.counter_add("machine.bank_conflicts", 1);
            }
            return false;
        };
        self.in_flight
            .get_mut(&packet.id)
            .expect("op present until response completes")
            .result = Some(value);
        // Responses ride the complementary network and are never dropped
        // (the owner's reply queue is not finite in this model).
        self.fabric.inject_unbounded(FabricPacket::response(packet));
        true
    }

    /// Delivers a response to the core that issued the request: its
    /// pending slot becomes `Ready` and the next bus attempt is granted.
    fn complete_response(&mut self, packet: &FabricPacket) {
        let Some(op) = self.in_flight.remove(&packet.id) else {
            return;
        };
        let slot = &mut self.pending[op.tile_idx][op.core_idx];
        if let Some(PendingAccess::InFlight { addr, issued_at }) = *slot {
            debug_assert_eq!(
                addr,
                op.access.addr(),
                "response matches the stalled access"
            );
            *slot = Some(PendingAccess::Ready {
                addr,
                issued_at,
                value: op.result.unwrap_or(0),
            });
            // The core can make progress again: the wheel visits it from
            // the next cycle on.
            self.parked[op.tile_idx] &= !(1 << op.core_idx);
        }
    }

    /// Steps one core. Local accesses arbitrate this tile's
    /// memory model; a remote access consumes a delivered response, keeps
    /// stalling on one in flight, or injects its request packet. Nothing
    /// later in the tile walk reads the fabric, `in_flight` or another
    /// core's pending slot, and only this tile's own earlier injections
    /// can fill its local FIFO, so injecting here issues the same packets
    /// with the same ids as injecting them all after the walk.
    fn step_core(&mut self, tile_idx: usize, core_idx: usize) -> Result<CoreState, StepError> {
        let array = self.faults.array();
        let my_tile = array.coord_of(tile_idx);
        let cycles = self.cycles;
        let Self {
            faults,
            planner,
            cores,
            memories,
            mem_models,
            pending,
            parked,
            fabric,
            in_flight,
            local_accesses,
            remote_accesses,
            network_stall_cycles,
            remote_latency_total,
            bank_conflicts,
            sink,
            ..
        } = self;
        let telemetry_on = sink.enabled();
        let pending_slot = &mut pending[tile_idx][core_idx];
        let memory = &mut memories[tile_idx];
        let model = mem_models[tile_idx].as_mut();
        let mut stall = 0u64;
        let core = &mut cores[tile_idx][core_idx];
        let outcome = core.step(|access| {
            let addr = access.addr();
            let (owner_idx, offset) = decode_global(array, faults, addr)?;

            if owner_idx != tile_idx {
                match *pending_slot {
                    Some(PendingAccess::Ready {
                        addr: a,
                        issued_at,
                        value,
                    }) if a == addr => {
                        *pending_slot = None;
                        *remote_accesses += 1;
                        let latency = cycles.saturating_sub(issued_at);
                        *remote_latency_total += latency;
                        if telemetry_on {
                            sink.histogram_record("machine.remote_latency_cycles", latency);
                        }
                        return Ok(BusGrant::Granted(value));
                    }
                    Some(PendingAccess::InFlight { addr: a, .. }) if a == addr => {
                        *network_stall_cycles += 1;
                        return Ok(BusGrant::Stalled);
                    }
                    _ => {
                        let owner = array.coord_of(owner_idx);
                        let choice = planner.choose(my_tile, owner);
                        if choice == NetworkChoice::Disconnected {
                            return Err(AccessMemoryError::OutOfRange { addr });
                        }
                        // Validate the owner-side access now so the fault
                        // surfaces on the issuing core; the service path
                        // can then assume success.
                        bank_of_offset(offset)?;
                        let id = fabric.allocate_id();
                        let packet =
                            FabricPacket::request(id, my_tile, owner, choice, fabric.cycle());
                        if fabric.inject(packet) {
                            in_flight.insert(
                                id,
                                RemoteOp {
                                    tile_idx,
                                    core_idx,
                                    access,
                                    result: None,
                                },
                            );
                            *pending_slot = Some(PendingAccess::InFlight {
                                addr,
                                issued_at: cycles,
                            });
                            parked[tile_idx] |= 1 << core_idx;
                        }
                        // On injection backpressure the id is burned (ids
                        // count attempts, as in the traffic layer) and the
                        // core retries next cycle.
                        *network_stall_cycles += 1;
                        return Ok(BusGrant::Stalled);
                    }
                }
            }

            // Arbitrate this tile's own bank port for a local access.
            let Some((value, extra)) = memory.serve(model, offset, cycles, access)? else {
                *bank_conflicts += 1;
                if telemetry_on {
                    sink.counter_add("machine.bank_conflicts", 1);
                }
                return Ok(BusGrant::Stalled);
            };
            stall = extra;
            *local_accesses += 1;
            Ok(BusGrant::Granted(value))
        });
        core.apply_stall_cycles(stall);
        outcome
    }

    /// Steps until every core halts.
    ///
    /// # Errors
    ///
    /// Returns [`RunMachineError::CycleLimit`] past the budget, or the
    /// first core fault.
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Result<MachineStats, RunMachineError> {
        let start = self.cycles;
        if self.liveness_dirty {
            self.refresh_liveness();
        }
        while self.running_cores > 0 {
            if self.cycles - start >= max_cycles {
                let cycles = self.cycles;
                self.settle_parked(0, |_, _| cycles);
                return Err(RunMachineError::CycleLimit { max_cycles });
            }
            self.step()?;
        }
        if self.sink.enabled() {
            self.sink
                .span("machine", "run_until_halt", 0, start, self.cycles);
        }
        Ok(self.stats())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cycles: self.cycles,
            retired: self.cores.iter().flatten().map(|c| c.stats().retired).sum(),
            local_accesses: self.local_accesses,
            remote_accesses: self.remote_accesses,
            network_stall_cycles: self.network_stall_cycles,
            remote_latency_total: self.remote_latency_total,
            relay_forwards: self.fabric.relay_forwards(),
            link_stall_cycles: self.fabric.total_stall_cycles(),
            peak_link_occupancy: self.fabric.peak_link_occupancy(),
            bank_conflicts: self.bank_conflicts,
        }
    }

    /// Per-tile `(instructions retired, core stall cycles)`, summed over
    /// each tile's cores, in row-major tile order.
    pub fn per_tile_activity(&self) -> Vec<(u64, u64)> {
        self.cores
            .iter()
            .map(|tile_cores| {
                tile_cores.iter().fold((0, 0), |(r, s), c| {
                    let st = c.stats();
                    (r + st.retired, s + st.stall_cycles)
                })
            })
            .collect()
    }

    /// Emits the machine's aggregate metrics into `sink`: access and
    /// conflict counters, cycle gauges, per-tile retired/stall activity
    /// (as histograms over tiles plus series heat maps), and the fabric's
    /// own link metrics when the fabric latency model ran.
    pub fn export_metrics(&self, sink: &mut dyn Sink) {
        sink.counter_add("machine.retired", self.stats().retired);
        sink.counter_add("machine.local_accesses", self.local_accesses);
        sink.counter_add("machine.remote_accesses", self.remote_accesses);
        sink.counter_add("machine.network_stall_cycles", self.network_stall_cycles);
        sink.counter_add("machine.bank_conflicts", self.bank_conflicts);
        sink.gauge_set("machine.cycles", self.cycles as f64);
        sink.gauge_set(
            "machine.mean_remote_latency_cycles",
            self.stats().mean_remote_latency(),
        );
        let activity = self.per_tile_activity();
        for &(retired, stalls) in &activity {
            sink.histogram_record("machine.tile.retired", retired);
            sink.histogram_record("machine.tile.stall_cycles", stalls);
        }
        let retired: Vec<f64> = activity.iter().map(|&(r, _)| r as f64).collect();
        let stalls: Vec<f64> = activity.iter().map(|&(_, s)| s as f64).collect();
        sink.series_set("machine.tile_retired", &retired);
        sink.series_set("machine.tile_stall_cycles", &stalls);
        if self.runnable_tiles.count() > 0 {
            sink.gauge_set("machine.runnable_tiles_mean", self.runnable_tiles.mean());
            sink.gauge_set(
                "machine.runnable_tiles_peak",
                self.runnable_tiles.max() as f64,
            );
            sink.histogram_merge("machine.runnable_tiles", &self.runnable_tiles);
        }
        for (name, series) in &self.samples {
            if !series.is_empty() {
                sink.timeseries_merge(name, series);
            }
        }
        self.fabric.export_metrics(sink);
        // Row-buffer and TLB fidelity counters only exist on stateful
        // backends; gating keeps fixed-latency output byte-identical to
        // the pre-trait model.
        if self.config.memory_model() != MemoryModelKind::Fixed {
            let profile = self.memory_profile();
            sink.counter_add("machine.memory.row_hits", profile.row_hits);
            sink.counter_add("machine.memory.row_misses", profile.row_misses);
            sink.counter_add("machine.memory.tlb_hits", profile.tlb_hits);
            sink.counter_add("machine.memory.tlb_misses", profile.tlb_misses);
            sink.gauge_set("machine.memory.row_hit_rate", profile.row_hit_rate());
            for model in &self.mem_models {
                for &busy in &model.bank_busy_cycles() {
                    sink.histogram_record("machine.memory.bank_busy_cycles", busy);
                }
            }
        }
    }

    /// Aggregate memory-model counters summed over every tile's backend.
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut profile = MemoryProfile::default();
        for model in &self.mem_models {
            profile.grants += model.grants();
            profile.conflicts += model.conflicts();
            profile.row_hits += model.row_hits();
            profile.row_misses += model.row_misses();
            profile.tlb_hits += model.tlb_hits();
            profile.tlb_misses += model.tlb_misses();
        }
        profile
    }
}

/// Machine-wide memory-model counters (see
/// [`wsp_tile::MemoryModel`]); all zeros except `grants`/`conflicts`
/// under the fixed-latency backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryProfile {
    /// Accesses granted a bank port.
    pub grants: u64,
    /// Accesses denied and retried.
    pub conflicts: u64,
    /// Granted accesses that hit an open row.
    pub row_hits: u64,
    /// Granted accesses that had to open their row.
    pub row_misses: u64,
    /// Granted accesses whose page translation was cached.
    pub tlb_hits: u64,
    /// Granted accesses that paid a TLB fill.
    pub tlb_misses: u64,
}

impl MemoryProfile {
    /// Fraction of row-buffer lookups that hit, or 0.0 before any.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Decodes a global address to `(tile index, bank offset)` from the
/// array and fault map alone, so the core-step closures can call it while
/// the per-tile state is borrowed.
fn decode_global(
    array: TileArray,
    faults: &FaultMap,
    addr: u32,
) -> Result<(usize, u32), AccessMemoryError> {
    if addr < GLOBAL_BASE {
        return Err(AccessMemoryError::OutOfRange { addr });
    }
    let off = addr - GLOBAL_BASE;
    let t = (off as usize) / GLOBAL_REGION_BYTES;
    if t >= array.tile_count() || faults.is_faulty(array.coord_of(t)) {
        return Err(AccessMemoryError::OutOfRange { addr });
    }
    Ok((t, off % GLOBAL_REGION_BYTES as u32))
}

/// Every core of a tile of `n` cores, as a mask.
fn all_cores(n: usize) -> u16 {
    ((1u32 << n) - 1) as u16
}

/// A tile's `(running, parked)` core masks rescanned from its cores and
/// pending slots.
fn scan_masks(cores: &[CoreSim], pending: &[Option<PendingAccess>]) -> (u16, u16) {
    let mut running = 0;
    let mut parked = 0;
    for (c, (core, slot)) in cores.iter().zip(pending).enumerate() {
        if core.state() == CoreState::Running {
            running |= 1 << c;
            if matches!(slot, Some(PendingAccess::InFlight { .. })) {
                parked |= 1 << c;
            }
        }
    }
    (running, parked)
}

/// The cores set in `mask` (over a tile of `n` cores) in the tile walk's
/// order: core `rotate` first, then upwards, wrapping at `n`, i.e. the
/// set cores among `(i + rotate) % n` for `i` in `0..n`.
fn core_bits(mask: u16, rotate: usize, n: usize) -> impl Iterator<Item = usize> {
    let mask = u32::from(mask);
    let mut bits = ((mask >> rotate) | (mask << (n - rotate))) & ((1 << n) - 1);
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            (i + rotate) % n
        })
    })
}

/// Credits a core parked on a remote op (in flight, or delivered but not
/// yet consumed) the dense sweep's stall steps for the cycles after
/// `*last_stepped` through `through`, and returns how many it credited.
fn replay_parked(
    core: &mut CoreSim,
    slot: Option<PendingAccess>,
    last_stepped: &mut u64,
    through: u64,
) -> u64 {
    let parked = matches!(
        slot,
        Some(PendingAccess::InFlight { .. } | PendingAccess::Ready { .. })
    );
    if !parked || through <= *last_stepped {
        return 0;
    }
    let gap = through - *last_stepped;
    core.absorb_stall_cycles(gap);
    *last_stepped = through;
    gap
}

impl fmt::Debug for MultiTileMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiTileMachine")
            .field("array", &self.config.array())
            .field("cycles", &self.cycles)
            .field("remote_accesses", &self.remote_accesses)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

/// Errors loading programs into the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMachineError {
    /// The target tile failed assembly.
    FaultyTile {
        /// The tile.
        tile: TileCoord,
    },
    /// The core index does not exist.
    NoSuchCore {
        /// The tile.
        tile: TileCoord,
        /// The requested core.
        core: usize,
    },
}

impl fmt::Display for LoadMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadMachineError::FaultyTile { tile } => write!(f, "tile {tile} is faulty"),
            LoadMachineError::NoSuchCore { tile, core } => {
                write!(f, "tile {tile} has no core {core}")
            }
        }
    }
}

impl std::error::Error for LoadMachineError {}

/// Errors advancing the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMachineError {
    /// A core trapped.
    CoreFault {
        /// The tile holding the core.
        tile: TileCoord,
        /// The core index.
        core: usize,
        /// The architectural fault.
        source: StepError,
    },
    /// The cycle budget was exhausted.
    CycleLimit {
        /// The budget.
        max_cycles: u64,
    },
}

impl fmt::Display for RunMachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunMachineError::CoreFault { tile, core, source } => {
                write!(f, "core {core} of tile {tile} faulted: {source}")
            }
            RunMachineError::CycleLimit { max_cycles } => {
                write!(f, "machine did not halt within {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for RunMachineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_tile::isa::{Program, Reg};
    use wsp_topo::TileArray;

    fn machine(n: u16) -> MultiTileMachine {
        let cfg = SystemConfig::with_array(TileArray::new(n, n));
        MultiTileMachine::new(cfg, FaultMap::none(cfg.array()))
    }

    #[test]
    fn remote_store_lands_in_the_owner_memory() {
        let mut m = machine(2);
        let target = m.global_address(TileCoord::new(1, 1), 64).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ldi(Reg::R2, 0xCAFE)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(10_000).expect("halts");
        assert_eq!(m.read_word(target).expect("ok"), 0xCAFE);
        assert_eq!(stats.remote_accesses, 1);
        assert_eq!(stats.local_accesses, 0);
        assert!(stats.network_stall_cycles > 0);
        assert!(stats.remote_latency_total > 0);
    }

    #[test]
    fn remote_access_pays_network_latency() {
        // The same single-store program, run against a near and a far
        // owner: the far run must take longer.
        let run = |owner: TileCoord| -> u64 {
            let mut m = machine(8);
            let target = m.global_address(owner, 0).expect("ok");
            let program = Program::builder()
                .ldi(Reg::R1, target)
                .ldi(Reg::R2, 1)
                .st(Reg::R2, Reg::R1, 0)
                .halt()
                .build()
                .expect("builds");
            m.load_program(TileCoord::new(0, 0), 0, &program)
                .expect("ok");
            m.run_until_halt(100_000).expect("halts").cycles
        };
        let near = run(TileCoord::new(1, 0));
        let far = run(TileCoord::new(7, 7));
        assert!(
            far > near + 10,
            "far {far} should exceed near {near} by the hop latency"
        );
    }

    #[test]
    fn flag_based_message_passing_across_tiles() {
        // Producer on tile (0,0) writes data then sets a flag; consumer
        // on tile (1,1) spins on the flag, then reads the data — the
        // classic unified-shared-memory handshake.
        let mut m = machine(2);
        let data = m.global_address(TileCoord::new(1, 0), 0).expect("ok");
        let flag = m.global_address(TileCoord::new(1, 0), 4).expect("ok");

        let producer = Program::builder()
            .ldi(Reg::R1, data)
            .ldi(Reg::R2, 777)
            .st(Reg::R2, Reg::R1, 0)
            .ldi(Reg::R3, flag)
            .ldi(Reg::R4, 1)
            .st(Reg::R4, Reg::R3, 0)
            .halt()
            .build()
            .expect("builds");
        let consumer = Program::builder()
            .ldi(Reg::R3, flag)
            .ldi(Reg::R0, 0)
            .label("spin")
            .ld(Reg::R4, Reg::R3, 0)
            .beq(Reg::R4, Reg::R0, "spin")
            .ldi(Reg::R1, data)
            .ld(Reg::R5, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");

        m.load_program(TileCoord::new(0, 0), 0, &producer)
            .expect("ok");
        m.load_program(TileCoord::new(1, 1), 0, &consumer)
            .expect("ok");
        m.run_until_halt(100_000).expect("halts");
        assert_eq!(m.core_mut(TileCoord::new(1, 1), 0).reg(Reg::R5), 777);
    }

    #[test]
    fn global_amo_counter_across_all_tiles_and_cores() {
        // Every core of every tile on a 2x2 machine atomically increments
        // one counter on tile (0,0): 4 tiles × 14 cores × 5 increments.
        let mut m = machine(2);
        let counter = m.global_address(TileCoord::new(0, 0), 128).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, counter)
            .ldi(Reg::R2, 1)
            .ldi(Reg::R3, 5)
            .ldi(Reg::R0, 0)
            .label("loop")
            .amo_add(Reg::R4, Reg::R1, Reg::R2)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("builds");
        for tile in TileArray::new(2, 2).tiles() {
            for core in 0..14 {
                m.load_program(tile, core, &program).expect("ok");
            }
        }
        m.run_until_halt(1_000_000).expect("halts");
        assert_eq!(m.read_word(counter).expect("ok"), 4 * 14 * 5);
    }

    #[test]
    fn faulty_owner_faults_the_accessing_core() {
        let cfg = SystemConfig::with_array(TileArray::new(2, 2));
        let dead = TileCoord::new(1, 1);
        let faults = FaultMap::from_faulty(cfg.array(), [dead]);
        let mut m = MultiTileMachine::new(cfg, faults);
        assert!(m.global_address(dead, 0).is_err());
        // Hand-construct the address the dead tile would have owned.
        let addr = GLOBAL_BASE + 3 * GLOBAL_REGION_BYTES as u32;
        let program = Program::builder()
            .ldi(Reg::R1, addr)
            .ld(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let err = m.run_until_halt(1000).expect_err("faults");
        assert!(matches!(err, RunMachineError::CoreFault { .. }));
    }

    #[test]
    fn local_accesses_do_not_pay_remote_latency() {
        let mut m = machine(2);
        let local = m.global_address(TileCoord::new(0, 0), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, local)
            .ldi(Reg::R2, 5)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(1000).expect("halts");
        assert_eq!(stats.local_accesses, 1);
        assert_eq!(stats.remote_accesses, 0);
        // 4 instructions + a couple of cycles of slack.
        assert!(stats.cycles < 20, "cycles {}", stats.cycles);
    }

    #[test]
    fn load_errors_are_reported() {
        let cfg = SystemConfig::with_array(TileArray::new(2, 2));
        let dead = TileCoord::new(0, 1);
        let faults = FaultMap::from_faulty(cfg.array(), [dead]);
        let mut m = MultiTileMachine::new(cfg, faults);
        let p = Program::builder().halt().build().expect("ok");
        assert_eq!(
            m.load_program(dead, 0, &p).expect_err("faulty"),
            LoadMachineError::FaultyTile { tile: dead }
        );
        assert_eq!(
            m.load_program(TileCoord::new(0, 0), 99, &p)
                .expect_err("bad core"),
            LoadMachineError::NoSuchCore {
                tile: TileCoord::new(0, 0),
                core: 99
            }
        );
    }

    /// Loads a one-shot remote-load program into every core of every
    /// tile except the hot one: the machine-level `HotSpot` pattern.
    fn load_hotspot(m: &mut MultiTileMachine, n: u16, hot: TileCoord) {
        let mut word = 0u32;
        for tile in TileArray::new(n, n).tiles() {
            if tile == hot {
                continue;
            }
            for core in 0..14 {
                // Spread the reads over the owner's banks so the bank
                // port is not the bottleneck — the links are.
                let target = m.global_address(hot, (word % 1024) * 4).expect("ok");
                word += 1;
                let program = Program::builder()
                    .ldi(Reg::R1, target)
                    .ld(Reg::R2, Reg::R1, 0)
                    .halt()
                    .build()
                    .expect("builds");
                m.load_program(tile, core, &program).expect("ok");
            }
        }
    }

    /// Loads every core of `tile` with a loop alternating two same-bank
    /// addresses one row apart: under the banked backend every load is a
    /// row miss, so the program is maximally sensitive to the memory
    /// model while computing nothing that depends on it.
    fn load_row_ping_pong(m: &mut MultiTileMachine, tile: TileCoord) {
        let near = m.global_address(tile, 0).expect("ok");
        let far = m.global_address(tile, 8192).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, near)
            .ldi(Reg::R2, far)
            .ldi(Reg::R3, 8)
            .ldi(Reg::R0, 0)
            .label("loop")
            .ld(Reg::R4, Reg::R1, 0)
            .ld(Reg::R5, Reg::R2, 0)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("builds");
        for core in 0..14 {
            m.load_program(tile, core, &program).expect("ok");
        }
    }

    #[test]
    fn hotspot_contention_costs_more_than_the_analytic_model() {
        // 15 tiles × 14 cores all load from tile (0,0) at once. The
        // zero-load closed form prices each access by distance alone,
        // `2 · hops · 2 + 6` cycles (two cycles per hop each way plus
        // injection and ejection); the fabric funnels 210 requests
        // through the hot tile's two ingress links, so queueing must
        // push the mean round trip strictly higher.
        let hot = TileCoord::new(0, 0);
        let n = 4;
        let closed_form: Vec<u64> = TileArray::new(n, n)
            .tiles()
            .filter(|&t| t != hot)
            .map(|t| 2 * u64::from(t.manhattan_distance(hot)) * 2 + 6)
            .collect();
        // Every tile issues 14 requests, so the per-tile mean is the mean.
        let zero_load = closed_form.iter().sum::<u64>() as f64 / closed_form.len() as f64;
        assert!((zero_load - 18.8).abs() < 1e-9, "{zero_load}");

        let mut fabric = machine(n);
        load_hotspot(&mut fabric, n, hot);
        let fabric_stats = fabric.run_until_halt(1_000_000).expect("halts");
        assert_eq!(fabric_stats.remote_accesses, 15 * 14);
        assert!(
            fabric_stats.mean_remote_latency() > zero_load,
            "fabric {:.1} cycles should exceed the zero-load {zero_load:.1} under contention",
            fabric_stats.mean_remote_latency(),
        );
        // The contention is observable in the link counters.
        assert!(fabric_stats.link_stall_cycles > 0, "links saw backpressure");
        assert!(fabric_stats.peak_link_occupancy > 1, "queues built up");
    }

    #[test]
    fn idle_machine_stats_have_no_nan_ratios() {
        // A machine that never ran: every derived ratio must be a finite
        // zero, not NaN from a zero denominator.
        let m = machine(2);
        let stats = m.stats();
        assert_eq!(stats.remote_accesses, 0);
        assert_eq!(stats.mean_remote_latency(), 0.0);
        assert!(stats.mean_remote_latency().is_finite());
        let default_stats = MachineStats::default();
        assert_eq!(default_stats.mean_remote_latency(), 0.0);
    }

    #[test]
    fn telemetry_sink_records_latency_histogram_and_run_span() {
        use wsp_telemetry::SharedRecorder;

        let recorder = SharedRecorder::new();
        let mut m = machine(2);
        m.set_sink(recorder.boxed());
        m.fabric_mut().set_sink(recorder.boxed());
        let target = m.global_address(TileCoord::new(1, 1), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ld(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(10_000).expect("halts");

        let mut shared = recorder.clone();
        m.export_metrics(&mut shared);
        recorder.with(|r| {
            let hist = r
                .registry
                .histogram("machine.remote_latency_cycles")
                .expect("remote access recorded");
            assert_eq!(hist.count(), stats.remote_accesses);
            assert_eq!(r.tracer.span_count("machine"), 1);
            // The fabric delivered one request and one response.
            assert_eq!(r.tracer.span_count("fabric"), 2);
            assert_eq!(
                r.registry.counter("machine.remote_accesses"),
                stats.remote_accesses
            );
            assert_eq!(
                r.registry.series("machine.tile_retired").map(<[f64]>::len),
                Some(4)
            );
        });
    }

    #[test]
    fn bank_conflicts_are_counted_under_amo_pressure() {
        // 14 cores of one tile hammer one word in their own tile: the
        // four bank ports cannot grant everyone, so denials must appear.
        let mut m = machine(2);
        let counter = m.global_address(TileCoord::new(0, 0), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, counter)
            .ldi(Reg::R2, 1)
            .ldi(Reg::R3, 8)
            .ldi(Reg::R0, 0)
            .label("loop")
            .amo_add(Reg::R4, Reg::R1, Reg::R2)
            .addi(Reg::R3, Reg::R3, -1)
            .bne(Reg::R3, Reg::R0, "loop")
            .halt()
            .build()
            .expect("builds");
        for core in 0..14 {
            m.load_program(TileCoord::new(0, 0), core, &program)
                .expect("ok");
        }
        let stats = m.run_until_halt(1_000_000).expect("halts");
        assert_eq!(m.read_word(counter).expect("ok"), 14 * 8);
        assert!(stats.bank_conflicts > 0, "no crossbar denials recorded");
    }

    #[test]
    fn banked_memory_is_slower_but_architecturally_identical() {
        // Swapping the timing backend must never change what the
        // programs compute — only how many cycles they take. The banked
        // model pays row misses, so the hotspot gets strictly slower;
        // adding the TLB layer can only slow it further.
        let hot = TileCoord::new(0, 0);
        let run = |kind: MemoryModelKind| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4)).with_memory_model(kind);
            let mut m = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
            load_hotspot(&mut m, 4, hot);
            load_row_ping_pong(&mut m, hot);
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let probe = m.global_address(hot, 0).expect("ok");
            (stats, m.read_word(probe).expect("ok"), m.memory_profile())
        };
        let (fixed, fixed_sum, fixed_profile) = run(MemoryModelKind::Fixed);
        let (banked, banked_sum, profile) = run(MemoryModelKind::Banked);
        assert_eq!(banked_sum, fixed_sum, "same architectural result");
        assert_eq!(banked.retired, fixed.retired, "same instruction stream");
        assert!(
            banked.cycles > fixed.cycles,
            "row misses must cost cycles: banked {} vs fixed {}",
            banked.cycles,
            fixed.cycles
        );
        assert!(profile.row_misses > 0, "cold rows were opened");
        assert_eq!(profile.row_hits + profile.row_misses, profile.grants);
        assert_eq!(
            fixed_profile.row_hits + fixed_profile.row_misses,
            0,
            "the fixed backend models no rows"
        );
        let (tlb, tlb_sum, tlb_profile) = run(MemoryModelKind::BankedTlb);
        assert_eq!(tlb_sum, fixed_sum, "same architectural result");
        assert!(tlb.cycles >= banked.cycles, "TLB fills only add latency");
        assert!(tlb_profile.tlb_misses > 0, "cold pages were filled");
    }

    #[test]
    fn banked_memory_is_bit_identical_across_stepping() {
        // The determinism claim must survive a stateful backend: busy
        // windows are stamped with absolute cycles, so the active-set
        // walk observes the same grant sequence as the dense sweep.
        let hot = TileCoord::new(0, 0);
        let run = |stepping: Stepping| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4))
                .with_memory_model(MemoryModelKind::Banked);
            let mut m = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
            m.set_stepping(stepping);
            load_hotspot(&mut m, 4, hot);
            load_row_ping_pong(&mut m, hot);
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let probe = m.global_address(hot, 0).expect("ok");
            (
                stats,
                m.read_word(probe).expect("ok"),
                m.per_tile_activity(),
                m.memory_profile(),
            )
        };
        assert_eq!(run(Stepping::Wheel), run(Stepping::Dense));
    }

    #[test]
    fn wheel_stepping_jumps_frozen_stall_windows() {
        // Event-wheel acceptance at machine level: a lone core ping-
        // ponging rows of its own banked memory freezes behind a row-miss
        // stall after every load, with nothing in flight anywhere — so
        // the wheel must jump each frozen window whole. The fabric tick
        // counter is the wall-clock-free gauge: dense executes one tick
        // per cycle; the wheel's ticks stay in the order of the retired
        // instruction count, far below the cycle count.
        let hot = TileCoord::new(0, 0);
        let run = |stepping: Stepping| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4))
                .with_memory_model(MemoryModelKind::Banked);
            let mut m = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
            m.set_stepping(stepping);
            let near = m.global_address(hot, 0).expect("ok");
            let far = m.global_address(hot, 8192).expect("ok");
            let program = Program::builder()
                .ldi(Reg::R1, near)
                .ldi(Reg::R2, far)
                .ldi(Reg::R3, 64)
                .ldi(Reg::R0, 0)
                .label("loop")
                .ld(Reg::R4, Reg::R1, 0)
                .ld(Reg::R5, Reg::R2, 0)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "loop")
                .halt()
                .build()
                .expect("builds");
            m.load_program(hot, 0, &program).expect("ok");
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let ticks = m.fabric().ticks_executed();
            (
                stats,
                m.per_tile_activity(),
                m.runnable_tiles().clone(),
                m.memory_profile(),
                ticks,
            )
        };
        let (stats, activity, runnable, profile, dense_ticks) = run(Stepping::Dense);
        let (w_stats, w_activity, w_runnable, w_profile, wheel_ticks) = run(Stepping::Wheel);
        assert_eq!(w_stats, stats);
        assert_eq!(w_activity, activity);
        assert_eq!(w_runnable, runnable);
        assert_eq!(w_profile, profile);
        assert_eq!(dense_ticks, stats.cycles, "dense ticks every cycle");
        assert!(
            wheel_ticks < stats.cycles / 2,
            "the wheel must skip most frozen cycles: {wheel_ticks} ticks over {} cycles",
            stats.cycles
        );
    }

    #[test]
    fn relay_forwards_are_counted_through_the_fabric() {
        // A same-row pair with the tile between them dead: both DoR
        // networks use the same row path, so the kernel must pick a
        // two-leg relay route through a neighbouring row.
        let cfg = SystemConfig::with_array(TileArray::new(4, 4));
        let faults = FaultMap::from_faulty(cfg.array(), [TileCoord::new(2, 1)]);
        let src = TileCoord::new(0, 1);
        let dst = TileCoord::new(3, 1);
        assert!(matches!(
            RoutePlanner::new(faults.clone()).choose(src, dst),
            NetworkChoice::Relay { .. }
        ));

        let mut m = MultiTileMachine::new(cfg, faults);
        let target = m.global_address(dst, 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ldi(Reg::R2, 9)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(src, 0, &program).expect("ok");
        let stats = m.run_until_halt(100_000).expect("halts");
        assert_eq!(m.read_word(target).expect("ok"), 9);
        assert!(
            stats.relay_forwards >= 1,
            "request or response re-injected at the via tile"
        );
    }

    #[test]
    fn sparse_stepping_is_bit_identical_to_dense() {
        // The active-set walk (plus the wheel's skips) must match the
        // dense sweep bit for bit — stats, memory, the per-core activity
        // counters (which the gap replay reconstructs), and the
        // runnable-tiles sample.
        let hot = TileCoord::new(0, 0);
        let run = |stepping: Stepping| {
            let mut m = machine(4);
            m.set_stepping(stepping);
            load_hotspot(&mut m, 4, hot);
            let stats = m.run_until_halt(1_000_000).expect("halts");
            let probe = m.global_address(hot, 0).expect("ok");
            (
                stats,
                m.read_word(probe).expect("ok"),
                m.per_tile_activity(),
                m.runnable_tiles().clone(),
            )
        };
        assert_eq!(run(Stepping::Wheel), run(Stepping::Dense));
    }

    /// Loads every core of every tile of a 4×4 machine with a loop that
    /// sums `loads` words of its own block on the tile east of it (wrapping)
    /// and stores the sum in its own tile. Returns the result addresses.
    fn load_partner_sums(m: &mut MultiTileMachine, loads: u32) -> Vec<u32> {
        let mut results = Vec::new();
        for tile in TileArray::new(4, 4).tiles() {
            let partner = TileCoord::new((tile.x + 1) % 4, tile.y);
            for core in 0..14u32 {
                let block = m.global_address(partner, core * loads * 4).expect("ok");
                let result = m.global_address(tile, 0x1_0000 + core * 4).expect("ok");
                for i in 0..loads {
                    m.write_word(block + i * 4, core * 100 + i).expect("ok");
                }
                let program = Program::builder()
                    .ldi(Reg::R1, block)
                    .ldi(Reg::R3, loads)
                    .ldi(Reg::R5, 0)
                    .ldi(Reg::R0, 0)
                    .label("next")
                    .ld(Reg::R2, Reg::R1, 0)
                    .add(Reg::R5, Reg::R5, Reg::R2)
                    .addi(Reg::R1, Reg::R1, 4)
                    .addi(Reg::R3, Reg::R3, -1)
                    .bne(Reg::R3, Reg::R0, "next")
                    .ldi(Reg::R6, result)
                    .st(Reg::R5, Reg::R6, 0)
                    .halt()
                    .build()
                    .expect("builds");
                m.load_program(tile, core as usize, &program).expect("ok");
                results.push(result);
            }
        }
        results
    }

    #[test]
    fn wheel_never_steps_a_parked_core() {
        // All 14 cores of every tile stream remote loads, so most cores of
        // a runnable tile sit parked on an in-flight load. The wheel skips
        // exactly those steps: each remote access parks its core from the
        // cycle after issue through the cycle its response lands, which is
        // `latency - 1` dense steps, and nothing else may be skipped
        // (fixed memory never freezes a core).
        let run = |stepping: Stepping| {
            let mut m = machine(4);
            m.set_stepping(stepping);
            let results = load_partner_sums(&mut m, 6);
            let stats = m.run_until_halt(100_000).expect("halts");
            let words: Vec<u32> = results
                .iter()
                .map(|&a| m.read_word(a).expect("ok"))
                .collect();
            ((stats, words, m.per_tile_activity()), m.core_steps())
        };
        let (dense, dense_steps) = run(Stepping::Dense);
        let (wheel, wheel_steps) = run(Stepping::Wheel);
        assert_eq!(wheel, dense);
        let stats = dense.0;
        assert_eq!(stats.remote_accesses, 16 * 14 * 6);
        assert_eq!(stats.local_accesses, 16 * 14);
        assert_eq!(dense.1[0], 6 * 5 / 2, "core 0 sums 0..6");
        let parked_steps = stats.remote_latency_total - stats.remote_accesses;
        assert!(parked_steps > wheel_steps, "parking dominates this program");
        assert_eq!(dense_steps - wheel_steps, parked_steps);
    }

    #[test]
    fn early_exits_settle_parked_cores_like_dense() {
        // A fault (or the cycle limit) can end a run while cores are
        // parked on in-flight loads; their skipped stall steps must be
        // settled so the counters read as the dense sweep leaves them,
        // and the bookkeeping must still agree with a rescan.
        let dead = TileCoord::new(3, 3);
        let run = |stepping: Stepping, faulting: bool, max_cycles: u64| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4));
            let mut m = MultiTileMachine::new(cfg, FaultMap::from_faulty(cfg.array(), [dead]));
            m.set_stepping(stepping);
            let target = m.global_address(TileCoord::new(2, 0), 0).expect("ok");
            let streaming = Program::builder()
                .ldi(Reg::R1, target)
                .ldi(Reg::R3, 50)
                .ldi(Reg::R0, 0)
                .label("next")
                .ld(Reg::R2, Reg::R1, 0)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "next")
                .halt()
                .build()
                .expect("builds");
            for core in 0..14 {
                m.load_program(TileCoord::new(0, 0), core, &streaming)
                    .expect("ok");
            }
            if faulting {
                // Idles for a while, then loads from the dead tile's
                // address range.
                let mut program = Program::builder();
                for _ in 0..40 {
                    program = program.addi(Reg::R5, Reg::R5, 1);
                }
                let program = program
                    .ldi(Reg::R1, GLOBAL_BASE + 15 * GLOBAL_REGION_BYTES as u32)
                    .ld(Reg::R2, Reg::R1, 0)
                    .halt()
                    .build()
                    .expect("builds");
                m.load_program(TileCoord::new(1, 1), 3, &program)
                    .expect("ok");
            }
            let err = m.run_until_halt(max_cycles).expect_err("stops early");
            assert_eq!(
                m.check_invariants(),
                Ok(()),
                "{stepping:?}, faulting = {faulting}"
            );
            (err, m.stats(), m.per_tile_activity())
        };
        for (faulting, max_cycles) in [(true, 100_000), (false, 45)] {
            let dense = run(Stepping::Dense, faulting, max_cycles);
            let wheel = run(Stepping::Wheel, faulting, max_cycles);
            assert_eq!(wheel, dense, "faulting = {faulting}");
            assert!(
                dense.1.remote_accesses > 0,
                "loads completed before the stop"
            );
        }
    }

    #[test]
    fn sparse_stepping_matches_dense_under_the_analytic_model() {
        // Remote AMOs on one counter from programs that finish at
        // staggered times: the wheel's halted-core elision and the
        // parked-core replay must end identically to the dense sweep.
        let run = |stepping: Stepping| {
            let mut m = machine(4);
            m.set_stepping(stepping);
            let counter = m.global_address(TileCoord::new(0, 0), 128).expect("ok");
            for (i, tile) in TileArray::new(4, 4).tiles().enumerate() {
                let reps = 1 + (i as u32 % 5);
                let program = Program::builder()
                    .ldi(Reg::R1, counter)
                    .ldi(Reg::R2, 1)
                    .ldi(Reg::R3, reps)
                    .ldi(Reg::R0, 0)
                    .label("loop")
                    .amo_add(Reg::R4, Reg::R1, Reg::R2)
                    .addi(Reg::R3, Reg::R3, -1)
                    .bne(Reg::R3, Reg::R0, "loop")
                    .halt()
                    .build()
                    .expect("builds");
                m.load_program(tile, 0, &program).expect("ok");
            }
            let stats = m.run_until_halt(1_000_000).expect("halts");
            (
                stats,
                m.read_word(counter).expect("ok"),
                m.per_tile_activity(),
                m.runnable_tiles().clone(),
            )
        };
        assert_eq!(run(Stepping::Wheel), run(Stepping::Dense));
    }

    #[test]
    fn blocked_tiles_leave_the_runnable_set() {
        // One issuing tile on a 8x8 machine: while its single remote op
        // is in flight the whole machine has zero runnable tiles, so the
        // sampled runnable peak stays at 1 under the default wheel
        // stepping.
        let mut m = machine(8);
        assert_eq!(m.stepping(), Stepping::Wheel);
        let target = m.global_address(TileCoord::new(7, 7), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, target)
            .ldi(Reg::R2, 1)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        let stats = m.run_until_halt(100_000).expect("halts");
        assert!(stats.network_stall_cycles > 0);
        let hist = m.runnable_tiles();
        assert_eq!(hist.max(), 1, "only one tile ever runnable");
        assert_eq!(hist.min(), 0, "tile blocked while the op is in flight");
        assert_eq!(hist.count(), stats.cycles, "one sample per cycle");
    }

    #[test]
    fn core_mut_wakes_a_sparse_machine() {
        // Direct core mutation must invalidate the cached liveness so a
        // manually reset machine does not spin forever (or exit early).
        let mut m = machine(2);
        let local = m.global_address(TileCoord::new(0, 0), 0).expect("ok");
        let program = Program::builder()
            .ldi(Reg::R1, local)
            .ldi(Reg::R2, 41)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program)
            .expect("ok");
        m.run_until_halt(1_000).expect("halts");
        assert_eq!(m.read_word(local).expect("ok"), 41);
        // Reload the same core through load_program and run again.
        let program2 = Program::builder()
            .ldi(Reg::R1, local)
            .ldi(Reg::R2, 42)
            .st(Reg::R2, Reg::R1, 0)
            .halt()
            .build()
            .expect("builds");
        m.load_program(TileCoord::new(0, 0), 0, &program2)
            .expect("ok");
        m.run_until_halt(1_000).expect("halts");
        assert_eq!(m.read_word(local).expect("ok"), 42);
    }

    #[test]
    fn core_bits_walks_the_rotated_order() {
        let n = wsp_tile::CORES_PER_TILE;
        for mask in [0u16, 1, 0b11, 0b10_0000_0000_0001, all_cores(n), 0x2a5a] {
            for rotate in 0..n {
                let want: Vec<usize> = (0..n)
                    .map(|i| (i + rotate) % n)
                    .filter(|&c| mask >> c & 1 == 1)
                    .collect();
                let got: Vec<usize> = core_bits(mask, rotate, n).collect();
                assert_eq!(got, want, "mask {mask:#06x}, rotate {rotate}");
            }
        }
    }

    #[test]
    fn invariant_checker_sees_stale_core_masks() {
        let faults = FaultMap::none(TileArray::new(4, 4));
        let mut m = crate::workload::build_halo_machine(&faults, MemoryModelKind::Fixed);
        let mut parked_seen = false;
        while m.any_running() {
            m.step().expect("halo machine runs");
            assert_eq!(m.check_invariants(), Ok(()));
            parked_seen |= m.parked.iter().any(|&p| p != 0);
        }
        assert!(parked_seen, "the halo loads park cores");
        // A running bit left on a halted core: no output changes (the
        // wheel just wastes a visit), but the checker must see it.
        m.running[5] |= 1;
        let err = m.check_invariants().expect_err("stale running bit");
        assert!(err.contains("tile 5: running mask"), "{err}");
        m.running[5] = 0;
        m.parked[5] = 1;
        let err = m.check_invariants().expect_err("stale parked bit");
        assert!(err.contains("tile 5: parked mask"), "{err}");
    }
}
