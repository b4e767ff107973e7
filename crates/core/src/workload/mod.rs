//! Graph workloads on the unified shared memory (Sec. II).
//!
//! The paper validated the architecture by running graph applications —
//! breadth-first search and single-source shortest path — on a
//! reduced-size FPGA emulation of the multi-tile system. This module
//! reproduces that validation in simulation: vertices are partitioned
//! round-robin across the healthy tiles' shared memory, kernels execute
//! level-synchronously on the 14 cores of each owning tile, and every
//! cross-tile edge relaxation becomes a request/response pair priced by
//! the dual-DoR network model.
//!
//! Results are *checked*: each distributed run is compared against a
//! sequential reference on the same graph.

mod bfs;
mod graph;
mod halo;
mod pagerank;
mod sssp;
mod stencil;

pub use bfs::run_bfs;
pub use graph::{Graph, GraphKind};
pub use halo::{build_halo_machine, HALO_WORDS};
pub use pagerank::{reference_pagerank, run_pagerank};
pub use sssp::run_sssp;
pub use stencil::{run_stencil, StencilGrid};

use std::error::Error;
use std::fmt;

use wsp_common::units::Seconds;

use wsp_common::units::Amps;
use wsp_noc::{NetworkChoice, RoutePlanner};
use wsp_tile::memory::GLOBAL_REGION_BYTES;
use wsp_tile::{MemTiming, MemoryModel, MemoryModelKind};
use wsp_topo::{FaultMap, TileCoord};

use crate::config::SystemConfig;
use crate::machine::MemoryProfile;
use crate::system::WaferscaleSystem;

/// Cycles a core spends per edge relaxation (load, compare, store).
pub(crate) const CYCLES_PER_EDGE: u64 = 4;

/// Cycles per network hop for a remote message.
pub(crate) const CYCLES_PER_HOP: u64 = 2;

/// Fixed per-message injection/ejection overhead, in cycles.
pub(crate) const CYCLES_PER_MESSAGE: u64 = 6;

/// Hop count of the shortest healthy-tile path between two tiles — the
/// kernel's last-resort store-and-forward route when no one- or two-leg
/// DoR path survives (Sec. VI: packets "divert to an intermediate tile",
/// generalised to as many intermediates as the fault maze requires).
fn store_and_forward_hops(faults: &FaultMap, from: TileCoord, to: TileCoord) -> Option<u64> {
    if faults.is_faulty(from) || faults.is_faulty(to) {
        return None;
    }
    let array = faults.array();
    let mut dist = vec![u64::MAX; array.tile_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[array.index_of(from)] = 0;
    queue.push_back(from);
    while let Some(t) = queue.pop_front() {
        if t == to {
            return Some(dist[array.index_of(t)]);
        }
        let d = dist[array.index_of(t)];
        for nb in array.neighbors(t) {
            let idx = array.index_of(nb);
            if faults.is_healthy(nb) && dist[idx] == u64::MAX {
                dist[idx] = d + 1;
                queue.push_back(nb);
            }
        }
    }
    None
}

/// Fault-stable vertex placement shared by the graph kernels: the owner
/// tile index (row-major) of every vertex `0..vertices`.
///
/// Vertex `v`'s *home* is tile `v % tile_count` of the full array —
/// fixed at load time, independent of the fault map — and vertices homed
/// on a faulty tile are remapped round-robin across the healthy tiles.
/// Faults therefore only ever *add* vertices to the survivors; the
/// placement of every vertex on a healthy tile is untouched.
///
/// The previous scheme (`healthy[v % healthy.len()]`) reshuffled **every**
/// vertex whenever the healthy count changed, so kernel cost versus fault
/// count was dominated by the modulus, not the faults — a 4-fault wafer
/// could measure *faster* than a pristine one. With a clean fault map the
/// two schemes are identical.
///
/// # Errors
///
/// Returns [`RunWorkloadError::NoUsableTiles`] when every tile is faulty.
fn vertex_owners(system: &WaferscaleSystem, vertices: usize) -> Result<Vec<u32>, RunWorkloadError> {
    let array = system.config().array();
    let faults = system.faults();
    let healthy: Vec<u32> = faults
        .healthy_tiles()
        .map(|t| array.index_of(t) as u32)
        .collect();
    if healthy.is_empty() {
        return Err(RunWorkloadError::NoUsableTiles);
    }
    let faulty: Vec<bool> = array.tiles().map(|t| faults.is_faulty(t)).collect();
    Ok((0..vertices)
        .map(|v| {
            let home = v % faulty.len();
            if faulty[home] {
                healthy[v % healthy.len()]
            } else {
                home as u32
            }
        })
        .collect())
}

/// One-way message latencies between tiles: the kernel's planner picks
/// a direct or relayed DoR path ([`CYCLES_PER_HOP`] per hop), and a pair
/// with neither falls back to store-and-forward through intermediate
/// tiles, re-injecting at every hop ([`CYCLES_PER_HOP`] +
/// [`CYCLES_PER_MESSAGE`] per hop).
pub(crate) struct MessageLatency<'a> {
    faults: &'a FaultMap,
    planner: RoutePlanner,
}

impl<'a> MessageLatency<'a> {
    pub(crate) fn new(system: &'a WaferscaleSystem) -> Self {
        MessageLatency {
            faults: system.faults(),
            planner: system.route_planner(),
        }
    }

    /// Latency of one message from tile `src` to tile `dst` (row-major
    /// indices, `src != dst`), or `None` when no healthy path joins them.
    pub(crate) fn between(&self, src: usize, dst: usize) -> Option<u64> {
        let array = self.faults.array();
        let (from, to) = (array.coord_of(src), array.coord_of(dst));
        Some(match self.planner.choose(from, to) {
            NetworkChoice::Direct(_) => u64::from(from.manhattan_distance(to)) * CYCLES_PER_HOP,
            NetworkChoice::Relay { via, .. } => {
                u64::from(from.manhattan_distance(via) + via.manhattan_distance(to))
                    * CYCLES_PER_HOP
            }
            NetworkChoice::Disconnected => {
                store_and_forward_hops(self.faults, from, to)?
                    * (CYCLES_PER_HOP + CYCLES_PER_MESSAGE)
            }
        })
    }
}

/// The cost path BFS, SSSP and PageRank share: vertex owners computed
/// once per run, per-superstep edge and message counts indexed by tile,
/// message latencies, and the per-tile memory timing.
///
/// A superstep costs its slowest tile's compute (edges spread over the
/// tile's cores, [`CYCLES_PER_EDGE`] each), plus the busiest tile's
/// message injection ([`CYCLES_PER_MESSAGE`] each), plus the worst
/// message latency (the level-synchronous barrier waits for it), plus
/// the slowest tile's memory stall.
pub(crate) struct SuperstepCost<'a> {
    owners: Vec<u32>,
    latency: MessageLatency<'a>,
    cores: u64,
    edges: Vec<u64>,
    messages: Vec<u64>,
    max_latency: u64,
    mem: MemorySim,
    /// Cross-tile messages over the whole run.
    pub(crate) remote_messages: u64,
    /// Memory stall cycles over the whole run, already in the cycles
    /// [`SuperstepCost::finish`] returns.
    pub(crate) mem_stall_cycles: u64,
}

impl<'a> SuperstepCost<'a> {
    /// The cost path for a graph of `vertices` vertices on `system`.
    ///
    /// # Errors
    ///
    /// Returns [`RunWorkloadError::NoUsableTiles`] when every tile is
    /// faulty.
    pub(crate) fn new(
        system: &'a WaferscaleSystem,
        vertices: usize,
    ) -> Result<Self, RunWorkloadError> {
        let tiles = system.config().array().tile_count();
        Ok(SuperstepCost {
            owners: vertex_owners(system, vertices)?,
            latency: MessageLatency::new(system),
            cores: system.config().cores_per_tile() as u64,
            edges: vec![0; tiles],
            messages: vec![0; tiles],
            max_latency: 0,
            mem: MemorySim::new(system.config().memory_model(), tiles),
            remote_messages: 0,
            mem_stall_cycles: 0,
        })
    }

    /// The tile index owning vertex `v`.
    #[inline]
    pub(crate) fn owner(&self, v: usize) -> usize {
        self.owners[v] as usize
    }

    /// Charges `edges` edge relaxations to `tile` this superstep.
    #[inline]
    pub(crate) fn relax(&mut self, tile: usize, edges: usize) {
        self.edges[tile] += edges as u64;
    }

    /// One shared-memory touch by `tile` on the word holding vertex
    /// state `word`.
    #[inline]
    pub(crate) fn access(&mut self, tile: usize, word: u64) {
        self.mem.access(tile, word);
    }

    /// Ships an update from tile `src` to the owner of `vertex`: free
    /// when `src` owns it, otherwise one remote message priced on the
    /// network.
    ///
    /// # Errors
    ///
    /// Returns [`RunWorkloadError::OwnerUnreachable`] naming `vertex`
    /// when no healthy path reaches its owner.
    #[inline]
    pub(crate) fn message(&mut self, src: usize, vertex: usize) -> Result<(), RunWorkloadError> {
        let dst = self.owner(vertex);
        if dst == src {
            return Ok(());
        }
        self.remote_messages += 1;
        self.messages[src] += 1;
        let latency = self
            .latency
            .between(src, dst)
            .ok_or(RunWorkloadError::OwnerUnreachable { vertex })?;
        self.max_latency = self.max_latency.max(latency);
        Ok(())
    }

    /// Closes the superstep: returns its cycles and clears the per-tile
    /// counts for the next one.
    pub(crate) fn finish(&mut self) -> u64 {
        let mut compute = 0;
        for e in &mut self.edges {
            compute = compute.max(e.div_ceil(self.cores) * CYCLES_PER_EDGE);
            *e = 0;
        }
        let mut inject = 0;
        for m in &mut self.messages {
            inject = inject.max(*m * CYCLES_PER_MESSAGE);
            *m = 0;
        }
        let mem_stall = self.mem.superstep_stall();
        self.mem_stall_cycles += mem_stall;
        let cycles = compute + inject + self.max_latency + mem_stall;
        self.max_latency = 0;
        cycles
    }

    /// Aggregate memory-model counters over the run so far.
    pub(crate) fn memory_profile(&self) -> MemoryProfile {
        self.mem.profile()
    }
}

/// Derives a per-tile current map from a graph workload's data placement,
/// for feeding into [`wsp_pdn::PdnConfig::solve_with_tile_currents`]:
/// tiles draw current in proportion to the edge work of the vertices they
/// own, scaled between an idle floor and the peak tile current.
///
/// Faulty tiles draw nothing (their LDOs never power up).
///
/// # Examples
///
/// ```
/// use waferscale::workload::{activity_power_map, Graph, GraphKind};
/// use waferscale::{SystemConfig, WaferscaleSystem};
/// use wsp_pdn::PdnConfig;
/// use wsp_topo::{FaultMap, TileArray};
///
/// let cfg = SystemConfig::paper_prototype();
/// let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
/// let mut rng = wsp_common::seeded_rng(3);
/// let graph = Graph::generate(GraphKind::PowerLaw { avg_degree: 8 }, 50_000, &mut rng);
/// let currents = activity_power_map(&system, &graph);
/// let sol = PdnConfig::paper_prototype().solve_with_tile_currents(&currents)?;
/// assert!(sol.min_voltage().value() > 1.3);
/// # Ok::<(), wsp_pdn::SolvePdnError>(())
/// ```
pub fn activity_power_map(system: &WaferscaleSystem, graph: &Graph) -> Vec<Amps> {
    let array = system.config().array();
    let peak = wsp_pdn::PdnConfig::PAPER_TILE_CURRENT;
    let idle = Amps(peak.value() * 0.05);
    let Ok(owners) = vertex_owners(system, graph.vertex_count()) else {
        return vec![Amps::ZERO; array.tile_count()];
    };
    // Edge work per owning tile.
    let mut work = vec![0u64; array.tile_count()];
    for (v, &owner) in owners.iter().enumerate() {
        work[owner as usize] += graph.degree(v) as u64;
    }
    let max_work = work.iter().copied().max().unwrap_or(0).max(1);
    array
        .tiles()
        .map(|t| {
            if system.faults().is_faulty(t) {
                Amps::ZERO
            } else {
                let frac = work[array.index_of(t)] as f64 / max_work as f64;
                Amps(idle.value() + frac * (peak.value() - idle.value()))
            }
        })
        .collect()
}

/// Per-tile memory timing for the analytic graph kernels.
///
/// Each tile runs its superstep's edge-scan access stream *serially*
/// through one instance of the configured [`MemoryModel`], following the
/// execute-then-stall contract: every access presents once, and only the
/// granted stall joins the superstep's critical path. Under
/// [`MemoryModelKind::Fixed`] the stream is skipped outright — the fixed
/// backend charges nothing beyond the port the analytic model already
/// prices, so the kernels' cycle counts are bit-identical to the
/// pre-trait model by construction.
pub(crate) struct MemorySim {
    kind: MemoryModelKind,
    /// Per-tile timing state by tile index, built on a tile's first
    /// access; empty under [`MemoryModelKind::Fixed`].
    tiles: Vec<Option<TileMem>>,
}

struct TileMem {
    model: Box<dyn MemoryModel>,
    /// The tile's private access clock; advances one port slot per
    /// grant plus whatever the model stalled.
    clock: u64,
    /// Stall cycles charged since the last superstep barrier.
    step_stalls: u64,
}

impl MemorySim {
    pub(crate) fn new(kind: MemoryModelKind, tiles: usize) -> Self {
        let mut sim = MemorySim {
            kind,
            tiles: Vec::new(),
        };
        if kind != MemoryModelKind::Fixed {
            sim.tiles.resize_with(tiles, || None);
        }
        sim
    }

    /// One shared-memory touch by tile `tile` on the word holding vertex
    /// state `word` (vertex ids map onto the owner's global region
    /// word-interleaved, like every other shared structure).
    #[inline]
    pub(crate) fn access(&mut self, tile: usize, word: u64) {
        if self.kind == MemoryModelKind::Fixed {
            return;
        }
        let kind = self.kind;
        let mem = self.tiles[tile].get_or_insert_with(|| TileMem {
            model: kind.build(),
            clock: 0,
            step_stalls: 0,
        });
        let offset = ((word * 4) % GLOBAL_REGION_BYTES as u64) as u32;
        loop {
            match mem.model.request(offset, mem.clock) {
                MemTiming::Granted { stall } => {
                    mem.clock += 1 + stall;
                    mem.step_stalls += stall;
                    return;
                }
                // Unreachable on a serial stream (the clock never
                // revisits a busy window), but harmless: retry next slot.
                MemTiming::Denied => mem.clock += 1,
            }
        }
    }

    /// Ends a superstep: the slowest tile's accumulated stall (the
    /// level-synchronous barrier waits for it), resetting the per-step
    /// accumulators.
    pub(crate) fn superstep_stall(&mut self) -> u64 {
        let mut worst = 0;
        for mem in self.tiles.iter_mut().flatten() {
            worst = worst.max(mem.step_stalls);
            mem.step_stalls = 0;
        }
        worst
    }

    /// Aggregate model counters over every tile touched so far.
    pub(crate) fn profile(&self) -> MemoryProfile {
        let mut profile = MemoryProfile::default();
        for mem in self.tiles.iter().flatten() {
            profile.grants += mem.model.grants();
            profile.conflicts += mem.model.conflicts();
            profile.row_hits += mem.model.row_hits();
            profile.row_misses += mem.model.row_misses();
            profile.tlb_hits += mem.model.tlb_hits();
            profile.tlb_misses += mem.model.tlb_misses();
        }
        profile
    }
}

/// Execution report of one distributed kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadReport {
    /// Superstep (level/iteration) count.
    pub supersteps: u32,
    /// Total simulated cycles (max over tiles per superstep, summed).
    pub cycles: u64,
    /// Edge relaxations performed.
    pub edges_relaxed: u64,
    /// Cross-tile messages exchanged.
    pub remote_messages: u64,
    /// Vertices the kernel reached.
    pub vertices_reached: usize,
    /// Cycles the memory backend charged beyond the fixed-latency
    /// baseline — already included in `cycles`; zero under
    /// [`MemoryModelKind::Fixed`].
    pub mem_stall_cycles: u64,
    /// Row-buffer hits observed by a banked backend (zero under fixed).
    pub row_hits: u64,
    /// Row-buffer misses observed by a banked backend (zero under fixed).
    pub row_misses: u64,
}

impl WorkloadReport {
    /// Fraction of row-buffer lookups that hit, or 0.0 when the backend
    /// models no rows.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Wall-clock time at the nominal frequency of `config`.
    pub fn wall_time(&self, config: &SystemConfig) -> Seconds {
        Seconds(self.cycles as f64 / config.frequency().value())
    }

    /// Millions of traversed edges per second at the nominal frequency —
    /// the standard graph-processing throughput metric.
    pub fn mteps(&self, config: &SystemConfig) -> f64 {
        let t = self.wall_time(config).value();
        if t == 0.0 {
            0.0
        } else {
            self.edges_relaxed as f64 / t / 1e6
        }
    }
}

impl fmt::Display for WorkloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} supersteps, {} cycles, {} edges, {} remote msgs, {} vertices reached",
            self.supersteps,
            self.cycles,
            self.edges_relaxed,
            self.remote_messages,
            self.vertices_reached
        )
    }
}

/// Failure modes of the distributed kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunWorkloadError {
    /// The source vertex does not exist.
    SourceOutOfRange {
        /// The requested source.
        source: usize,
        /// Number of vertices in the graph.
        vertices: usize,
    },
    /// The system has no usable tiles.
    NoUsableTiles,
    /// A vertex is owned by a tile that cannot be reached from the tile
    /// that discovered it (disconnected fault pattern).
    OwnerUnreachable {
        /// The unreachable vertex.
        vertex: usize,
    },
}

impl fmt::Display for RunWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunWorkloadError::SourceOutOfRange { source, vertices } => {
                write!(
                    f,
                    "source vertex {source} outside graph of {vertices} vertices"
                )
            }
            RunWorkloadError::NoUsableTiles => f.write_str("system has no usable tiles"),
            RunWorkloadError::OwnerUnreachable { vertex } => {
                write!(f, "owner tile of vertex {vertex} is network-unreachable")
            }
        }
    }
}

impl Error for RunWorkloadError {}
