//! The reusable cycle-level NoC fabric engine.
//!
//! [`Fabric`] owns everything that happens *between* endpoints on the dual
//! dimension-ordered mesh: per-tile router FIFOs (one input queue per side
//! plus a local injection queue, per network), round-robin link arbitration
//! with backpressure, and relay re-injection at intermediate tiles when a
//! pair rides a two-leg [`NetworkChoice::Relay`] route. Endpoint policy —
//! who injects what, when responses are generated, what statistics a
//! traffic study keeps — lives with the caller: the synthetic-traffic
//! simulator ([`crate::traffic::NocSim`]) and the ISA-level machine in
//! `waferscale::machine` both drive this same engine.
//!
//! The API is deliberately small: [`Fabric::inject`] enqueues a packet at
//! its source tile, [`Fabric::tick`] advances one cycle and returns the
//! packets that reached their *final* destination this cycle (relay legs
//! are handled internally), and [`Fabric::drain`] ticks until the network
//! is empty. Per-link statistics (forwarded packets, stall cycles, peak
//! queue occupancy) expose where contention concentrates.
//!
//! # Deterministic threading
//!
//! Each tick is split into a *plan* phase and an *apply* phase. Planning
//! reads only the pre-cycle router state (queue heads, round-robin
//! pointers, downstream occupancy), so every tile's arbitration decision
//! is a pure function of the previous cycle and the tile rows can be
//! partitioned into bands planned by independent worker threads
//! ([`Fabric::set_threads`]). The apply phase then commits the planned
//! moves sequentially in canonical `(network, tile, output port)` order.
//! Because the plan does not depend on the order bands are computed in,
//! the fabric is **bit-identical at any thread count** — the parallel
//! backend is an implementation detail, not a different simulator.
//!
//! # Data layout and the fused fast path
//!
//! In-flight packets live in one struct-of-arrays
//! [`PacketArena`](crate::arena::PacketArena); router FIFOs are
//! [`PacketRing`](crate::fifo::PacketRing)s of `u32` arena indices, so a
//! hop moves 4 bytes instead of a ~48-byte packet, and all per-tick
//! scratch (planned moves, staged arrivals, ejected indices) is owned by
//! the fabric and cleared, not reallocated — the steady-state tick
//! performs **zero heap allocations** (pinned by a counting-allocator
//! regression test).
//!
//! The two-pass plan/apply split exists only to keep plan shards
//! race-free; whenever planning would run on a single shard anyway
//! (`threads == 1`, or the active set is below the banding threshold),
//! [`Fabric::tick_into`] takes a *fused* single pass that plans each tile
//! and applies its grants immediately. Fusion is bit-identical to the
//! split by construction:
//!
//! - grants read a pre-pop snapshot of the tile's own head routes and
//!   round-robin pointers, so a tile's own pops cannot disturb its later
//!   output ports;
//! - pushes (link arrivals) are staged and committed only at the end of
//!   each network's pass, exactly as the apply phase does;
//! - the downstream-occupancy backpressure check reconstructs the
//!   pre-cycle queue length: each FIFO pops at most once per cycle, and
//!   pops are stamped with the tick that performed them, so
//!   `len + (popped this tick)` is the length the plan phase would have
//!   read;
//! - the two networks share no queue state, so walking net 0 fully
//!   before net 1 matches the canonical commit order, and relay
//!   re-injection/delivery is deferred until both passes complete.
//!
//! # Active-set scheduling
//!
//! A tile whose five input FIFOs are all empty on a network cannot plan a
//! move, a stall, or a round-robin update on that network, so visiting it
//! is pure overhead. Each [`Network`] therefore keeps a per-tile occupancy
//! count `occ` and one *occupancy bitset* over row-major tile indices
//! (bit `t` set iff `occ[t] > 0`, any array width), both maintained at
//! the single push/pop choke points. Under the default
//! [`Stepping::Wheel`] mode a tick walks the set bits word by word with
//! `trailing_zeros`, which yields the occupied tiles in ascending index
//! order — the order the dense sweep commits in — with nothing to sort,
//! dedup or prune; a banded tick clips each band's first and last words.
//! [`Stepping::Dense`] is the reference: it scans the `occ` counts of
//! every network holding packets and never reads the bitset, so every
//! dense-vs-wheel byte-compare also checks the bitset's upkeep
//! ([`Fabric::check_invariants`] checks it directly). When the fabric is empty, wheel drivers skip whole cycles
//! instead ([`Fabric::skip_cycles`]).
//!
//! # Examples
//!
//! ```
//! use wsp_noc::{Fabric, FabricPacket, NetworkChoice, NetworkKind, PacketKind};
//! use wsp_topo::{TileArray, TileCoord};
//!
//! let array = TileArray::new(4, 4);
//! let mut fabric = Fabric::new(array, 4);
//! let id = fabric.allocate_id();
//! let packet = FabricPacket::request(
//!     id,
//!     TileCoord::new(0, 0),
//!     TileCoord::new(3, 3),
//!     NetworkChoice::Direct(NetworkKind::Xy),
//!     fabric.cycle(),
//! );
//! assert!(fabric.inject(packet));
//! let delivered = fabric.drain();
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].dst, TileCoord::new(3, 3));
//! assert_eq!(delivered[0].kind, PacketKind::Request);
//! ```

use std::ops::Range;
use std::sync::Arc;

use wsp_common::parallel::{band_ranges_into, AdaptiveExecutor, Stepping, WorkerPool};
use wsp_telemetry::{
    DigestJournal, Fnv1a, Histogram, LaneId, NoopSink, PhaseProfiler, Sink, TimeSeries,
};
use wsp_topo::{Direction, TileArray, TileCoord, DIRECTIONS};

use crate::arena::PacketArena;
use crate::fifo::PacketRing;
use crate::kernel::NetworkChoice;
use crate::routing::{next_hop, NetworkKind};

/// Index of the local injection/ejection port in each router's queue array.
const LOCAL: usize = 4;

/// Sentinel in [`Network::head_out`] for an empty input FIFO.
const EMPTY_HEAD: u8 = u8::MAX;

/// `DIRECTIONS[i].opposite().index()` as a table: N↔S, E↔W.
const OPPOSITE: [usize; 4] = [1, 0, 3, 2];

/// Sentinel in the precomputed neighbour-index table for "off the array".
const NO_NEIGHBOR: u32 = u32::MAX;

/// The local injection FIFO is deeper than a link FIFO by this factor —
/// it models the tile's outbound staging buffer in local SRAM.
const LOCAL_QUEUE_FACTOR: usize = 4;

/// One router-FIFO entry: the arena slot plus everything the steady-state
/// loop needs about the packet's current leg — the cached output port *at
/// this tile*, the current-leg target and network, and the hop count —
/// packed into one `u128`. A forward therefore moves a packet hop-to-hop
/// without ever touching the (randomly-indexed) arena: the arena is read
/// only at injection, relay re-injection, and delivery.
///
/// Layout: bits 0–31 slot, 32–39 output port, 40–55 target x, 56–71
/// target y, 72–79 network, 80–111 hops.
#[derive(Clone, Copy, Default)]
struct RingEntry(u128);

impl RingEntry {
    fn new(slot: u32, out: u8, target: TileCoord, net: NetworkKind, hops: u32) -> Self {
        RingEntry(
            u128::from(slot)
                | u128::from(out) << 32
                | u128::from(target.x) << 40
                | u128::from(target.y) << 56
                | u128::from(net as u8) << 72
                | u128::from(hops) << 80,
        )
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The cached output port at the tile whose FIFO holds this entry.
    fn out(self) -> u8 {
        (self.0 >> 32) as u8
    }

    fn target(self) -> TileCoord {
        TileCoord::new((self.0 >> 40) as u16, (self.0 >> 56) as u16)
    }

    fn net(self) -> NetworkKind {
        if (self.0 >> 72) as u8 == 0 {
            NetworkKind::Xy
        } else {
            NetworkKind::Yx
        }
    }

    fn hops(self) -> u32 {
        (self.0 >> 80) as u32
    }

    /// The same entry with one more link traversal recorded.
    fn bumped(self) -> Self {
        RingEntry(self.0 + (1u128 << 80))
    }
}

/// The output port a packet heading for `target` on `net` takes at
/// `tile`: the local ejection port at its endpoint, otherwise the
/// dimension-ordered next-hop direction.
#[inline]
fn out_port_for(tile: TileCoord, target: TileCoord, net: NetworkKind) -> u8 {
    match next_hop(tile, target, net) {
        None => LOCAL as u8,
        Some(nb) => direction_between(tile, nb) as u8,
    }
}

/// What a packet is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Travelling src→dst on the leg networks the kernel chose.
    Request,
    /// Travelling dst→src on the complementary networks, retracing the
    /// request's physical path in reverse.
    Response,
}

/// A single-flit packet in flight on the fabric (the 100-bit packet of
/// Sec. VI — payload narrow enough that every message is one flit).
#[derive(Debug, Clone, Copy)]
pub struct FabricPacket {
    /// Caller-allocated identifier (see [`Fabric::allocate_id`]); the
    /// fabric never interprets it, endpoints use it to match traffic.
    pub id: u64,
    /// Tile where this packet entered the fabric.
    pub src: TileCoord,
    /// Final destination tile.
    pub dst: TileCoord,
    /// The kernel's routing decision for the pair.
    pub choice: NetworkChoice,
    /// Request or response.
    pub kind: PacketKind,
    /// Which leg of a relayed route this packet is on (always 0 for
    /// direct routes). Crate-visible so the packet arena can mirror it
    /// into its packed metadata column.
    pub(crate) leg: u8,
    /// Fabric cycle at which the *request* was injected; responses inherit
    /// it so the delivery cycle minus this is the round-trip time.
    pub injected_at: u64,
    /// Link traversals so far, across both legs and both packets of the
    /// request/response pair.
    pub hops: u32,
}

impl FabricPacket {
    /// A fresh request packet on leg 0.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is [`NetworkChoice::Disconnected`]: unreachable
    /// pairs must be rejected before touching the fabric.
    pub fn request(
        id: u64,
        src: TileCoord,
        dst: TileCoord,
        choice: NetworkChoice,
        now: u64,
    ) -> Self {
        assert!(
            choice != NetworkChoice::Disconnected,
            "disconnected packets are never injected"
        );
        FabricPacket {
            id,
            src,
            dst,
            choice,
            kind: PacketKind::Request,
            leg: 0,
            injected_at: now,
            hops: 0,
        }
    }

    /// The response to a delivered request: same id and route choice,
    /// endpoints swapped, travelling on the complementary networks.
    /// `injected_at` and `hops` carry over so the delivery cycle yields
    /// the round-trip latency.
    pub fn response(request: &FabricPacket) -> Self {
        debug_assert_eq!(request.kind, PacketKind::Request);
        FabricPacket {
            id: request.id,
            src: request.dst,
            dst: request.src,
            choice: request.choice,
            kind: PacketKind::Response,
            leg: 0,
            injected_at: request.injected_at,
            hops: request.hops,
        }
    }

    /// The network carrying the present leg.
    fn network(&self) -> NetworkKind {
        self.choice
            .leg_network(self.kind == PacketKind::Response, self.leg)
    }
}

/// Per-tile router hot state, packed into exactly one cache line so a
/// plan or fused visit touches one line for its own arbitration state and
/// one line per downstream backpressure probe. The tick loop is
/// memory-bound on random tile access; this layout is the perf lever.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Router {
    /// Mirror of each *link-side* input FIFO's length (ports 0..4; the
    /// local FIFO is never a forward destination). Exact, because
    /// [`Fabric::new`] bounds `queue_capacity` to `u16::MAX`; co-located
    /// with `popped_at` so the backpressure probe is one line.
    link_len: [u16; 4],
    /// Routing decision at each FIFO head (`EMPTY_HEAD` when empty), so
    /// the plan reads a flat `[u8; 5]` instead of chasing five queue
    /// heads through the routing kernel. Valid because a queued packet's
    /// route is fixed while it waits: the only `leg` mutation happens
    /// between an eject pop and a fresh relay [`push`](Network::push).
    head_out: [u8; 5],
    /// Round-robin pointers, one per output port; values 0..5.
    rr: [u8; 5],
    /// Tick stamp of the most recent pop from each link-side FIFO. The
    /// fused fast path reconstructs a downstream FIFO's pre-cycle length
    /// as `len + (popped_at == current tick)` — valid because each FIFO
    /// pops at most once per cycle and pushes are deferred to the end of
    /// the network pass.
    popped_at: [u64; 4],
}

impl Router {
    fn new() -> Self {
        Router {
            link_len: [0; 4],
            head_out: [EMPTY_HEAD; 5],
            rr: [0; 5],
            popped_at: [0; 4],
        }
    }
}

/// One mesh network's router state: five input FIFOs per tile
/// (N, S, E, W, local injection), plus the active-set tracker.
///
/// FIFOs hold [`PacketArena`] indices; packet fields live in the shared
/// arena owned by [`Fabric`].
struct Network {
    /// Entries carry the packet's whole per-hop hot state (see
    /// [`RingEntry`]), so the head-route refresh after a pop reads the
    /// next entry off the ring line just touched instead of chasing the
    /// next packet's (cold) arena line — and a forward re-derives the
    /// downstream output port from the entry alone.
    queues: Vec<[PacketRing<RingEntry>; 5]>,
    /// One-cache-line hot state per tile; see [`Router`].
    routers: Vec<Router>,
    /// Packets queued at each tile across all five FIFOs. The invariant
    /// `occ[t] > 0 ⟺ t can plan a move/stall/rr-update` is what makes
    /// the active-set walk bit-identical to the dense sweep.
    occ: Vec<u32>,
    /// Packets queued on this network: the sum of `occ`, kept at every
    /// push and pop so in-flight queries never walk the tiles.
    packets: usize,
    /// Occupancy bitset over row-major tile indices: bit `t % 64` of
    /// word `t / 64` is set iff `occ[t] > 0`. The wheel walks its set
    /// bits; the dense sweep never reads it.
    occupied: Vec<u64>,
    /// Tiles with `occ > 0` (the popcount of `occupied`), kept in O(1).
    live: usize,
}

/// Tile indices of the set bits of occupancy word `word`, ascending.
#[inline]
fn set_bits(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let tile_idx = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            tile_idx
        })
    })
}

impl Network {
    fn new(array: TileArray, queue_capacity: usize) -> Self {
        let tiles = array.tile_count();
        // Link FIFOs never outgrow the plan phase's backpressure cap; the
        // local injection FIFO starts at its bounded-inject depth and
        // grows only under `inject_unbounded` response buffering.
        let fresh_queues = || {
            [
                PacketRing::with_capacity(queue_capacity),
                PacketRing::with_capacity(queue_capacity),
                PacketRing::with_capacity(queue_capacity),
                PacketRing::with_capacity(queue_capacity),
                PacketRing::with_capacity(queue_capacity * LOCAL_QUEUE_FACTOR),
            ]
        };
        Network {
            queues: (0..tiles).map(|_| fresh_queues()).collect(),
            routers: vec![Router::new(); tiles],
            occ: vec![0; tiles],
            packets: 0,
            occupied: vec![0; tiles.div_ceil(64)],
            live: 0,
        }
    }

    /// Enqueues arena slot `slot` (heading for `target` on `net`, with
    /// `hops` traversals so far) into FIFO `port` of `tile_idx`,
    /// maintaining the occupancy count and bitset and the cached head
    /// routing decision. All fabric pushes go through here. The slot's
    /// output port *at this tile* is computed once here and packed into
    /// the ring entry, so later head refreshes and forwards never go back
    /// to the arena.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        tile: TileCoord,
        tile_idx: usize,
        port: usize,
        slot: u32,
        target: TileCoord,
        net: NetworkKind,
        hops: u32,
    ) {
        let out = out_port_for(tile, target, net);
        let queue = &mut self.queues[tile_idx][port];
        queue.push(RingEntry::new(slot, out, target, net, hops));
        let router = &mut self.routers[tile_idx];
        if queue.len() == 1 {
            router.head_out[port] = out;
        }
        if port < LOCAL {
            router.link_len[port] += 1;
        }
        self.note_push(tile_idx);
    }

    /// Dequeues the head of FIFO `port` at `tile_idx`, refreshing the
    /// cached routing decision for the new head (off the ring entry, not
    /// the arena) and stamping the pop with `tick` (the fused path's
    /// pre-cycle-length witness). All fabric pops go through here.
    #[inline]
    fn pop(&mut self, tile_idx: usize, port: usize, tick: u64) -> RingEntry {
        let queue = &mut self.queues[tile_idx][port];
        let entry = queue.pop().expect("planned head");
        let head_out = match queue.front() {
            Some(next) => next.out(),
            None => EMPTY_HEAD,
        };
        let router = &mut self.routers[tile_idx];
        router.head_out[port] = head_out;
        if port < LOCAL {
            router.popped_at[port] = tick;
            router.link_len[port] -= 1;
        }
        self.note_pop(tile_idx);
        entry
    }

    /// Registers one packet pushed into any FIFO of `tile_idx`.
    #[inline]
    fn note_push(&mut self, tile_idx: usize) {
        self.packets += 1;
        self.occ[tile_idx] += 1;
        if self.occ[tile_idx] == 1 {
            self.live += 1;
            self.occupied[tile_idx / 64] |= 1u64 << (tile_idx % 64);
        }
    }

    /// Registers one packet popped from any FIFO of `tile_idx`.
    #[inline]
    fn note_pop(&mut self, tile_idx: usize) {
        self.packets -= 1;
        self.occ[tile_idx] -= 1;
        if self.occ[tile_idx] == 0 {
            self.live -= 1;
            self.occupied[tile_idx / 64] &= !(1u64 << (tile_idx % 64));
        }
    }

    /// Checks this network's mirrors against its rings; see
    /// [`Fabric::check_invariants`].
    fn check_invariants(&self, net: usize) -> Result<(), String> {
        let mut packets = 0usize;
        for (tile, (queues, router)) in self.queues.iter().zip(&self.routers).enumerate() {
            let occ = self.occ[tile] as usize;
            let queued: usize = queues.iter().map(PacketRing::len).sum();
            if occ != queued {
                return Err(format!("net {net} tile {tile}: occ {occ}, {queued} queued"));
            }
            if (self.occupied[tile / 64] >> (tile % 64) & 1 == 1) != (occ > 0) {
                return Err(format!(
                    "net {net} tile {tile}: occupancy bit wrong for occ {occ}"
                ));
            }
            for (port, queue) in queues.iter().enumerate() {
                let head = queue.front().map_or(EMPTY_HEAD, |entry| entry.out());
                if router.head_out[port] != head {
                    return Err(format!(
                        "net {net} tile {tile} port {port}: head_out {} but head routes to {head}",
                        router.head_out[port]
                    ));
                }
                if port < LOCAL && usize::from(router.link_len[port]) != queue.len() {
                    return Err(format!(
                        "net {net} tile {tile} port {port}: link_len {} but ring holds {}",
                        router.link_len[port],
                        queue.len()
                    ));
                }
            }
            packets += occ;
        }
        let popcount: usize = self.occupied.iter().map(|w| w.count_ones() as usize).sum();
        if self.live != popcount {
            return Err(format!(
                "net {net}: live {} but {popcount} bits set",
                self.live
            ));
        }
        if self.packets != packets {
            return Err(format!(
                "net {net}: packets {} but Σ occ {packets}",
                self.packets
            ));
        }
        Ok(())
    }
}

/// Per-link counters kept by the fabric. A "link" is the connection
/// leaving a tile in one of the four directions on one network.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets that traversed this link.
    pub forwarded: u64,
    /// Cycles an arbitration winner could not traverse this link because
    /// the downstream input FIFO was full — the contention signal.
    pub stall_cycles: u64,
    /// Highest occupancy the downstream input FIFO ever reached.
    pub peak_occupancy: usize,
}

/// One move decided by the plan phase of a tick, to be committed in
/// canonical order by the apply phase.
enum PlannedMove {
    /// The granted head of `(tile, in_port)` ejects at its endpoint.
    Eject { tile_idx: usize, in_port: usize },
    /// The granted head of `(tile, in_port)` traverses the `out_port` link
    /// into `(nb_idx, in_side)`.
    Forward {
        tile_idx: usize,
        in_port: usize,
        out_port: usize,
        nb_idx: usize,
        in_side: usize,
    },
    /// An arbitration winner could not traverse `out_port`: the downstream
    /// FIFO was full at the start of the cycle.
    Stall { tile_idx: usize, out_port: usize },
}

/// The immutable pre-cycle state a plan worker reads. Deliberately *not*
/// `&Fabric`: the telemetry sink is `Send` but not `Sync`, and planning
/// must never touch it anyway.
struct PlanCtx<'a> {
    queue_capacity: usize,
    /// Precomputed neighbour tile indices per `(tile, direction)`
    /// ([`NO_NEIGHBOR`] off the edge) — no coordinate math in the loop.
    neighbors: &'a [[u32; 4]],
    networks: &'a [Network; 2],
}

impl PlanCtx<'_> {
    /// Plans one tile on one network: for every output port, pick the
    /// round-robin arbitration winner among the input FIFO heads routed
    /// to it, against pre-cycle queue state only. A tile with all five
    /// FIFOs empty plans nothing — the fact the active-set walk leans on.
    fn plan_tile(&self, network: &Network, tile_idx: usize, moves: &mut Vec<PlannedMove>) {
        // The cached routing decision per queue head; a head contends for
        // exactly one output port, so grants never overlap. Fold the five
        // heads into per-output-port contender bitmasks.
        let router = &network.routers[tile_idx];
        let mut want = [0u8; 5];
        for (in_port, &out) in router.head_out.iter().enumerate() {
            if out != EMPTY_HEAD {
                want[out as usize] |= 1 << in_port;
            }
        }
        // `out_port` indexes `rr`/`links` too, not just DIRECTIONS.
        #[allow(clippy::needless_range_loop)]
        for out_port in 0..5 {
            let contenders = u32::from(want[out_port]);
            if contenders == 0 {
                continue;
            }
            // Branchless round-robin grant: rotate the 5-bit contender
            // mask so the pointer sits at bit 0; the winner is then the
            // lowest set bit — exactly the first hit of the old
            // `(start + o) % 5` scan.
            let start = usize::from(router.rr[out_port]);
            let rotated = ((contenders >> start) | (contenders << (5 - start))) & 0x1f;
            let in_port = (start + rotated.trailing_zeros() as usize) % 5;
            if out_port == LOCAL {
                moves.push(PlannedMove::Eject { tile_idx, in_port });
                continue;
            }
            let nb_idx = self.neighbors[tile_idx][out_port];
            debug_assert_ne!(nb_idx, NO_NEIGHBOR, "DoR never routes off the array");
            let nb_idx = nb_idx as usize;
            let in_side = OPPOSITE[out_port];
            // Pre-cycle occupancy: each input FIFO is fed by one
            // physical upstream link, so at most one push lands
            // per cycle and the check cannot oversubscribe.
            if usize::from(network.routers[nb_idx].link_len[in_side]) < self.queue_capacity {
                moves.push(PlannedMove::Forward {
                    tile_idx,
                    in_port,
                    out_port,
                    nb_idx,
                    in_side,
                });
            } else {
                moves.push(PlannedMove::Stall { tile_idx, out_port });
            }
        }
    }

    /// Plans the occupied tiles of one band (a tile-index range) into the
    /// caller's (pre-cleared) per-network move buffers, in ascending tile
    /// order. Dense scans the `occ` counts; the wheel walks the bitset,
    /// clipping the band's first and last words. Skipping an empty tile
    /// (or an empty network) changes nothing, because a tile with all
    /// five FIFOs empty plans nothing, so concatenating consecutive bands
    /// replays the full sweep.
    fn plan_band_into(
        &self,
        band: Range<usize>,
        stepping: Stepping,
        out: &mut [Vec<PlannedMove>; 2],
    ) {
        if band.is_empty() {
            return;
        }
        for (network, moves) in self.networks.iter().zip(out.iter_mut()) {
            match stepping {
                _ if network.packets == 0 => {}
                Stepping::Dense => {
                    for tile_idx in band.clone() {
                        if network.occ[tile_idx] > 0 {
                            self.plan_tile(network, tile_idx, moves);
                        }
                    }
                }
                Stepping::Wheel => {
                    let (first, last) = (band.start / 64, (band.end - 1) / 64);
                    for word in first..=last {
                        let mut bits = network.occupied[word];
                        if word == first {
                            bits &= !0u64 << (band.start % 64);
                        }
                        if word == last {
                            bits &= !0u64 >> (63 - (band.end - 1) % 64);
                        }
                        for tile_idx in set_bits(word, bits) {
                            self.plan_tile(network, tile_idx, moves);
                        }
                    }
                }
            }
        }
    }
}

/// Reusable per-tick scratch owned by [`Fabric`] — cleared every tick,
/// reallocated never. Holding these across ticks is what makes the
/// steady-state tick allocation-free.
#[derive(Default)]
struct TickScratch {
    /// One `[moves; 2]` pair per plan shard. Never shrunk: wheel
    /// stepping alternates between 1 and `threads()` shards as the
    /// active set crosses the banding threshold, and shrinking would
    /// free the idle shards' capacity.
    shard_plans: Vec<[Vec<PlannedMove>; 2]>,
    /// Shard band ranges over the tile indices.
    bands: Vec<Range<usize>>,
    /// Staged link arrivals `(net, dest tile, in side, entry)` — the
    /// entry's hop count already bumped — committed in order after the
    /// moves that produced them.
    arrivals: Vec<(u8, u32, u8, RingEntry)>,
    /// Entries ejected at their endpoint this tick, in canonical
    /// `(network, tile, output port)` order.
    ejected: Vec<RingEntry>,
}

impl TickScratch {
    /// Grows `shard_plans` to at least `shards` pairs and clears the
    /// first `shards` of them for this tick's planning.
    fn reset_shards(&mut self, shards: usize) {
        if self.shard_plans.len() < shards {
            self.shard_plans
                .resize_with(shards, || [Vec::new(), Vec::new()]);
        }
        for pair in &mut self.shard_plans[..shards] {
            pair[0].clear();
            pair[1].clear();
        }
    }
}

/// The reusable dual-network fabric engine. See the module docs for the
/// contract; construction is per fault-free [`TileArray`] geometry — the
/// caller is responsible for only injecting packets whose
/// [`NetworkChoice`] avoids faulty tiles (the kernel's job).
pub struct Fabric {
    array: TileArray,
    queue_capacity: usize,
    /// Row-major tile coordinates, so the hot loop never divides.
    coords: Vec<TileCoord>,
    /// Neighbour tile index per `(tile, direction)`, [`NO_NEIGHBOR`] off
    /// the edge — the hot loop's replacement for coordinate arithmetic.
    neighbors: Vec<[u32; 4]>,
    networks: [Network; 2],
    /// Struct-of-arrays store of every in-flight packet; router FIFOs
    /// hold indices into it. Freed slots recycle, so steady-state
    /// traffic reaches a fixed footprint.
    arena: PacketArena,
    /// Per-tick scratch buffers, cleared not reallocated.
    scratch: TickScratch,
    /// Per-link stats: `[network][tile][direction]`.
    links: [Vec<[LinkStats; 4]>; 2],
    cycle: u64,
    /// Ticks actually executed (excludes cycles jumped by
    /// [`Fabric::skip_cycles`]) — the wall-clock-free gauge the
    /// O(events)-termination tests assert on.
    ticks: u64,
    next_id: u64,
    relay_forwards: u64,
    link_traversals: u64,
    /// How ticks visit tiles: the wheel's active-set walk (default) or
    /// the dense reference sweep. Results are bit-identical either way.
    stepping: Stepping,
    /// Adaptive executor for the plan phase: bands across a worker pool
    /// when the active set is large enough, inline otherwise.
    exec: AdaptiveExecutor,
    /// Per-tick active-set sizes (occupied tiles summed over both networks),
    /// sampled in *both* stepping modes so the exported telemetry is
    /// independent of the mode and thread count.
    active_tiles: Histogram,
    /// Telemetry sink; [`NoopSink`] by default so the hot path pays one
    /// `enabled()` virtual call per tick when tracing is off.
    sink: Box<dyn Sink>,
    /// Sampling cadence for the bounded time series below (0 = off).
    sample_every: u64,
    /// Per-tick gauge series `(name, series)`: active tiles, per-network
    /// queue occupancy, packets in flight. Sampled from pre-cycle queue
    /// state, so the series are pure functions of architectural state —
    /// bit-identical across stepping modes and thread counts.
    samples: [(&'static str, TimeSeries); 4],
    /// Determinism-digest journal; `None` when digests are off. Lanes are
    /// recorded from post-cycle router state every `journal.every()`
    /// cycles. The machine also records its per-tile lanes here (same
    /// cycle domain — it ticks this fabric once per machine step).
    journal: Option<DigestJournal>,
    /// Wall-clock attribution of each tick's `plan` and `apply` phases.
    /// Disabled by default; never feeds deterministic output.
    profiler: PhaseProfiler,
}

impl Fabric {
    /// A fabric over `array` with the given per-link input FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` exceeds `u16::MAX`: link FIFO lengths
    /// are mirrored as `u16` in the one-cache-line [`Router`] hot state.
    pub fn new(array: TileArray, queue_capacity: usize) -> Self {
        assert!(
            queue_capacity <= u16::MAX as usize,
            "link FIFO depth must fit in u16"
        );
        let tiles = array.tile_count();
        let coords: Vec<TileCoord> = (0..tiles).map(|i| array.coord_of(i)).collect();
        let neighbors: Vec<[u32; 4]> = coords
            .iter()
            .map(|&tile| {
                let mut nb = [NO_NEIGHBOR; 4];
                for (d, dir) in DIRECTIONS.into_iter().enumerate() {
                    if let Some(n) = array.neighbor(tile, dir) {
                        nb[d] = array.index_of(n) as u32;
                    }
                }
                nb
            })
            .collect();
        Fabric {
            array,
            queue_capacity,
            coords,
            neighbors,
            networks: [
                Network::new(array, queue_capacity),
                Network::new(array, queue_capacity),
            ],
            arena: PacketArena::default(),
            scratch: TickScratch::default(),
            links: [
                vec![[LinkStats::default(); 4]; tiles],
                vec![[LinkStats::default(); 4]; tiles],
            ],
            cycle: 0,
            ticks: 0,
            next_id: 0,
            relay_forwards: 0,
            link_traversals: 0,
            stepping: Stepping::default(),
            exec: AdaptiveExecutor::default(),
            active_tiles: Histogram::new(),
            sink: Box::new(NoopSink),
            sample_every: 0,
            samples: Self::make_samples(0),
            journal: None,
            profiler: PhaseProfiler::new(false),
        }
    }

    /// The fabric's four sampled gauge series at cadence `every`.
    fn make_samples(every: u64) -> [(&'static str, TimeSeries); 4] {
        [
            ("fabric.active_tiles", TimeSeries::new(every)),
            ("fabric.net0.occupancy", TimeSeries::new(every)),
            ("fabric.net1.occupancy", TimeSeries::new(every)),
            ("fabric.in_flight", TimeSeries::new(every)),
        ]
    }

    /// Plans ticks with `threads` worker shards (row bands). Results are
    /// bit-identical at any thread count, including 1; `threads <= 1`
    /// drops back to inline planning with no pool at all.
    pub fn set_threads(&mut self, threads: usize) {
        self.exec = AdaptiveExecutor::new(threads);
    }

    /// Shares an existing worker pool (e.g. the machine's) for planning.
    pub fn set_pool(&mut self, pool: Option<Arc<WorkerPool>>) {
        self.exec = AdaptiveExecutor::from_pool(pool);
    }

    /// Shards used by the plan phase of each tick.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Selects how ticks visit tiles (default: [`Stepping::Wheel`]).
    pub fn set_stepping(&mut self, stepping: Stepping) {
        self.stepping = stepping;
    }

    /// The current stepping mode.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// The execution path ticks currently take, for bench reporting:
    /// `"wheel"`, `"banded"`, or `"sequential"`.
    pub fn executor(&self) -> &'static str {
        match (self.stepping, self.threads()) {
            (Stepping::Wheel, _) => "wheel",
            (Stepping::Dense, t) if t > 1 => "banded",
            (Stepping::Dense, _) => "sequential",
        }
    }

    /// Installs a telemetry sink. Each endpoint delivery then emits a
    /// `fabric` span from injection to delivery (track = destination tile
    /// index), so request/response life-times appear on the trace timeline.
    pub fn set_sink(&mut self, sink: Box<dyn Sink>) {
        self.sink = sink;
    }

    /// Enables per-tick gauge sampling every `every` cycles (0 = off, the
    /// default). Resets any previously collected series. The sampled
    /// values are pure functions of queue state, so the series land in
    /// the deterministic bench report.
    pub fn set_sampling(&mut self, every: u64) {
        self.sample_every = every;
        self.samples = Self::make_samples(every);
    }

    /// Sampling cadence in cycles (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The collected gauge series as `(name, series)` pairs.
    pub fn timeseries(&self) -> impl Iterator<Item = (&'static str, &TimeSeries)> {
        self.samples.iter().map(|(name, s)| (*name, s))
    }

    /// Enables determinism digests every `every` cycles (0 = off, the
    /// default). Resets any previously recorded journal.
    pub fn set_digests(&mut self, every: u64) {
        self.journal =
            (every != 0).then(|| DigestJournal::new(every, self.array.cols(), self.array.rows()));
    }

    /// The determinism-digest journal recorded so far, if digests are on.
    pub fn journal(&self) -> Option<&DigestJournal> {
        self.journal.as_ref()
    }

    /// Mutable journal access, for an owning machine recording its own
    /// per-tile lanes into the shared cycle domain.
    pub fn journal_mut(&mut self) -> Option<&mut DigestJournal> {
        self.journal.as_mut()
    }

    /// Turns wall-clock phase profiling of `plan`/`apply` on or off.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler.set_enabled(on);
    }

    /// The accumulated phase timings.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Exports phase timings as `wall.profile.<prefix><phase>.*` gauges
    /// (`prefix` is `"fabric."` standalone, `"machine.fabric."` when the
    /// machine re-roots them under its own tree).
    pub fn export_profile(&self, sink: &mut dyn Sink, prefix: &str) {
        self.profiler.export(sink, prefix);
    }

    /// The geometry this fabric spans.
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// Cycles ticked so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Allocates the next packet id. Ids are consumed even if the
    /// subsequent [`inject`](Fabric::inject) is refused, so id sequences
    /// are stable under backpressure.
    pub fn allocate_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Enqueues `packet` in the local injection FIFO of its `src` tile.
    /// Returns `false` (dropping the packet) when that FIFO is full —
    /// injection backpressure the endpoint must handle by retrying later.
    pub fn inject(&mut self, packet: FabricPacket) -> bool {
        let net = packet.network() as usize;
        let idx = self.array.index_of(packet.src);
        if self.networks[net].queues[idx][LOCAL].len() < self.queue_capacity * LOCAL_QUEUE_FACTOR {
            let slot = self.arena.alloc(&packet);
            let Fabric {
                coords,
                networks,
                arena,
                ..
            } = self;
            networks[net].push(
                coords[idx],
                idx,
                LOCAL,
                slot,
                arena.leg_target(slot),
                arena.network_of(slot),
                packet.hops,
            );
            true
        } else {
            false
        }
    }

    /// Enqueues `packet` at its `src` tile without a capacity check:
    /// response traffic regenerated at a destination is buffered in that
    /// tile's local memory rather than refused.
    pub fn inject_unbounded(&mut self, packet: FabricPacket) {
        let net = packet.network() as usize;
        let idx = self.array.index_of(packet.src);
        let slot = self.arena.alloc(&packet);
        let Fabric {
            coords,
            networks,
            arena,
            ..
        } = self;
        networks[net].push(
            coords[idx],
            idx,
            LOCAL,
            slot,
            arena.leg_target(slot),
            arena.network_of(slot),
            packet.hops,
        );
    }

    /// Packets currently queued anywhere in the fabric, in O(1).
    pub fn in_flight(&self) -> usize {
        self.networks[0].packets + self.networks[1].packets
    }

    /// Packets currently resident in the arena. Always equals
    /// [`Fabric::in_flight`] between ticks — the leak invariant the
    /// proptest harness asserts after every drain.
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Total arena slots ever allocated — the high-water in-flight
    /// footprint (slots recycle; this never shrinks).
    pub fn arena_slots(&self) -> usize {
        self.arena.slots()
    }

    /// Checks the redundant bookkeeping the tick loop keeps beside the
    /// rings, and returns the first violation found. Per network: the
    /// occupancy bit of tile `t` is set iff `occ[t] > 0` (and `occ[t]`
    /// is the tile's queued count), `live` is the bitset's popcount, the
    /// packet count is `Σ occ`, each link port's `link_len` is its ring
    /// length, and each `head_out` is the ring front's output port
    /// (`EMPTY_HEAD` iff the ring is empty). Across the fabric, the
    /// arena holds exactly the queued packets. O(tiles); call it between
    /// ticks (tests do after every tick, `skip_cycles` in debug builds).
    /// A stale occupancy bit costs only a wasted visit, so no
    /// bit-identity comparison can catch one — this check can.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (net, network) in self.networks.iter().enumerate() {
            network.check_invariants(net)?;
        }
        if self.arena_live() != self.in_flight() {
            return Err(format!(
                "arena holds {} packets but {} are queued",
                self.arena_live(),
                self.in_flight()
            ));
        }
        Ok(())
    }

    /// Advances one cycle: every router grants each output port to one
    /// input FIFO head round-robin, winners move one hop (or stall on a
    /// full downstream FIFO), relay packets reaching their intermediate
    /// tile are re-injected on their second leg, and packets reaching
    /// their final endpoint are returned in arbitration order.
    ///
    /// The grant decisions are planned against the *pre-cycle* state (so
    /// each input FIFO pops at most once per cycle — one read port per
    /// FIFO — and a full downstream FIFO stalls the link even if it also
    /// drains this cycle), then committed sequentially in `(network,
    /// tile, output port)` order. Planning shards across the worker pool
    /// when one is installed; see the module docs for why the result is
    /// bit-identical at any thread count.
    pub fn tick(&mut self) -> Vec<FabricPacket> {
        let mut delivered = Vec::new();
        self.tick_into(&mut delivered);
        delivered
    }

    /// [`Fabric::tick`] into a caller-owned delivery buffer, which is
    /// cleared first — the allocation-free form hot drivers loop on.
    pub fn tick_into(&mut self, delivered: &mut Vec<FabricPacket>) {
        delivered.clear();
        self.cycle += 1;
        self.ticks += 1;

        // Sample the active set in both stepping modes: the sample is a
        // pure function of queue state, so the exported histogram is
        // identical across modes and threads.
        let active = self.networks[0].live + self.networks[1].live;
        self.active_tiles.record(active as u64);

        // Gauge sampling reads the same pre-cycle queue state the sample
        // above does; all four series share a cadence, so gating all
        // four on the first one's acceptance test is exact.
        if self.sample_every != 0 && self.samples[0].1.wants(self.cycle) {
            let cycle = self.cycle;
            let occ0 = self.networks[0].packets;
            let occ1 = self.networks[1].packets;
            self.samples[0].1.record(cycle, active as f64);
            self.samples[1].1.record(cycle, occ0 as f64);
            self.samples[2].1.record(cycle, occ1 as f64);
            self.samples[3].1.record(cycle, (occ0 + occ1) as f64);
        }

        // Whenever planning would run on a single shard anyway, the
        // plan/apply split buys no parallelism — take the fused single
        // pass instead (bit-identical; see the module docs).
        let shards = match self.stepping {
            Stepping::Dense => self.exec.threads(),
            Stepping::Wheel => self.exec.shards_for(active),
        };
        if shards == 1 {
            let fused_timer = self.profiler.start();
            self.fused_walk(0);
            self.fused_walk(1);
            self.resolve_ejected(delivered);
            self.profiler.stop("fused", fused_timer);
        } else {
            let plan_timer = self.profiler.start();
            self.plan_into_scratch(shards);
            self.profiler.stop("plan", plan_timer);
            let apply_timer = self.profiler.start();
            self.apply_scratch(shards);
            self.resolve_ejected(delivered);
            self.profiler.stop("apply", apply_timer);
        }

        // Digest window boundary: fingerprint every router's post-cycle
        // state (queue contents and round-robin pointers) into per-lane
        // journal entries. Per-lane dedup means idle routers cost no
        // journal space; the walk itself runs only every K cycles.
        if self.journal.as_ref().is_some_and(|j| j.wants(self.cycle)) {
            self.record_net_lanes(self.cycle);
        }

        if self.sink.enabled() {
            for p in delivered.iter() {
                let name = match p.kind {
                    PacketKind::Request => "request",
                    PacketKind::Response => "response",
                };
                let track = self.array.index_of(p.dst) as u64;
                self.sink
                    .span("fabric", name, track, p.injected_at, self.cycle);
            }
        }
    }

    /// The two-pass plan phase: bands the tile indices into `shards`
    /// ranges and plans them across the executor into the reusable
    /// scratch buffers. Concatenating shard outputs per network restores
    /// the ascending tile order of the sequential walk.
    fn plan_into_scratch(&mut self, shards: usize) {
        let tiles = self.array.tile_count();
        let Fabric {
            queue_capacity,
            neighbors,
            networks,
            stepping,
            exec,
            scratch,
            ..
        } = self;
        let ctx = PlanCtx {
            queue_capacity: *queue_capacity,
            neighbors,
            networks,
        };
        let stepping = *stepping;
        scratch.reset_shards(shards);
        band_ranges_into(tiles, shards, &mut scratch.bands);
        let bands = &scratch.bands;
        exec.run_mut(&mut scratch.shard_plans[..shards], |shard, out| {
            ctx.plan_band_into(bands[shard].clone(), stepping, out)
        });
    }

    /// The two-pass apply phase: commits the planned moves of the first
    /// `shards` scratch buffers sequentially. Bands are concatenated in
    /// tile order, so this replays the canonical sequential
    /// `(network, tile, out_port)` walk.
    fn apply_scratch(&mut self, shards: usize) {
        let tick = self.ticks;
        let shard_plans = std::mem::take(&mut self.scratch.shard_plans);
        for net_idx in 0..2 {
            for band_plan in &shard_plans[..shards] {
                for mv in &band_plan[net_idx] {
                    match *mv {
                        PlannedMove::Eject { tile_idx, in_port } => {
                            let network = &mut self.networks[net_idx];
                            let entry = network.pop(tile_idx, in_port, tick);
                            network.routers[tile_idx].rr[LOCAL] = ((in_port + 1) % 5) as u8;
                            self.scratch.ejected.push(entry);
                        }
                        PlannedMove::Forward {
                            tile_idx,
                            in_port,
                            out_port,
                            nb_idx,
                            in_side,
                        } => {
                            let network = &mut self.networks[net_idx];
                            let entry = network.pop(tile_idx, in_port, tick);
                            network.routers[tile_idx].rr[out_port] = ((in_port + 1) % 5) as u8;
                            // Link stats land in `commit_arrivals`, which
                            // touches the same cache lines anyway.
                            self.scratch.arrivals.push((
                                net_idx as u8,
                                nb_idx as u32,
                                in_side as u8,
                                entry.bumped(),
                            ));
                        }
                        PlannedMove::Stall { tile_idx, out_port } => {
                            self.links[net_idx][tile_idx][out_port].stall_cycles += 1;
                        }
                    }
                }
            }
        }
        self.scratch.shard_plans = shard_plans;
        self.commit_arrivals();
    }

    /// The fused single-pass walk of one network: plans each occupied
    /// tile against reconstructed pre-cycle state and applies its grants
    /// immediately, staging arrivals until the pass completes. See the
    /// module docs for the bit-identity argument.
    fn fused_walk(&mut self, net_idx: usize) {
        // Pops change only the occupancy of the tile being visited and
        // pushes are staged, so every tile still unvisited shows its
        // pre-cycle occupancy — what the two-pass plan would read.
        match self.stepping {
            // An empty network plans nothing, which spares the scan on
            // the idle cycles that dominate bursty traffic.
            Stepping::Dense if self.networks[net_idx].packets == 0 => {}
            Stepping::Dense => {
                for tile_idx in 0..self.array.tile_count() {
                    if self.networks[net_idx].occ[tile_idx] > 0 {
                        self.fuse_tile(net_idx, tile_idx);
                    }
                }
            }
            Stepping::Wheel => {
                // `set_bits` walks a copy of each word, so the visited
                // tile's own pops cannot disturb it.
                for word in 0..self.networks[net_idx].occupied.len() {
                    for tile_idx in set_bits(word, self.networks[net_idx].occupied[word]) {
                        self.fuse_tile(net_idx, tile_idx);
                    }
                }
            }
        }
        self.commit_arrivals();
    }

    /// Plans and applies one tile on one network inside a fused pass.
    fn fuse_tile(&mut self, net_idx: usize, tile_idx: usize) {
        let tick = self.ticks;
        let Fabric {
            queue_capacity,
            neighbors,
            networks,
            links,
            scratch,
            ..
        } = self;
        let network = &mut networks[net_idx];
        // Snapshot the head routes before any of this tile's own pops
        // refresh them — the pre-cycle state the plan phase reads.
        let head_out = network.routers[tile_idx].head_out;
        let mut want = [0u8; 5];
        for (in_port, &out) in head_out.iter().enumerate() {
            if out != EMPTY_HEAD {
                want[out as usize] |= 1 << in_port;
            }
        }
        // `out_port` indexes `rr`/`links` too, not just DIRECTIONS.
        #[allow(clippy::needless_range_loop)]
        for out_port in 0..5 {
            let contenders = u32::from(want[out_port]);
            if contenders == 0 {
                continue;
            }
            let start = usize::from(network.routers[tile_idx].rr[out_port]);
            let rotated = ((contenders >> start) | (contenders << (5 - start))) & 0x1f;
            let in_port = (start + rotated.trailing_zeros() as usize) % 5;
            if out_port == LOCAL {
                let entry = network.pop(tile_idx, in_port, tick);
                network.routers[tile_idx].rr[LOCAL] = ((in_port + 1) % 5) as u8;
                scratch.ejected.push(entry);
                continue;
            }
            let nb_idx = neighbors[tile_idx][out_port];
            debug_assert_ne!(nb_idx, NO_NEIGHBOR, "DoR never routes off the array");
            let nb_idx = nb_idx as usize;
            let in_side = OPPOSITE[out_port];
            // Pre-cycle occupancy of the downstream FIFO: it pops at
            // most once per cycle (stamped), and its arrivals are still
            // staged, so adding the pop back reconstructs the length
            // the plan phase would have read. One cache line: the
            // neighbour's length mirror and pop stamp share a `Router`.
            let nb_router = &network.routers[nb_idx];
            let pre_len = usize::from(nb_router.link_len[in_side])
                + usize::from(nb_router.popped_at[in_side] == tick);
            if pre_len < *queue_capacity {
                let entry = network.pop(tile_idx, in_port, tick);
                network.routers[tile_idx].rr[out_port] = ((in_port + 1) % 5) as u8;
                // Link stats land in `commit_arrivals`, which touches
                // the same cache lines anyway.
                scratch.arrivals.push((
                    net_idx as u8,
                    nb_idx as u32,
                    in_side as u8,
                    entry.bumped(),
                ));
            } else {
                links[net_idx][tile_idx][out_port].stall_cycles += 1;
            }
        }
    }

    /// Pushes the staged arrivals into their destination FIFOs in order,
    /// attributing peak occupancy to the upstream link that fed each.
    fn commit_arrivals(&mut self) {
        let Fabric {
            coords,
            neighbors,
            networks,
            links,
            scratch,
            link_traversals,
            ..
        } = self;
        *link_traversals += scratch.arrivals.len() as u64;
        for &(net, nb_idx, in_side, entry) in &scratch.arrivals {
            let (net, tile, port) = (net as usize, nb_idx as usize, in_side as usize);
            let network = &mut networks[net];
            network.push(
                coords[tile],
                tile,
                port,
                entry.slot(),
                entry.target(),
                entry.net(),
                entry.hops(),
            );
            // `port` is the receiving side, which faces back toward the
            // sender; attribute the traversal and the peak to the
            // upstream link feeding it.
            let occupancy = network.queues[tile][port].len();
            let upstream = neighbors[tile][port];
            debug_assert_ne!(upstream, NO_NEIGHBOR, "arrival came from a neighbour");
            let stats = &mut links[net][upstream as usize][OPPOSITE[port]];
            stats.forwarded += 1;
            stats.peak_occupancy = stats.peak_occupancy.max(occupancy);
        }
        scratch.arrivals.clear();
    }

    /// Resolves this tick's ejected slots in order: relay packets
    /// reaching their intermediate tile start their second leg (the via
    /// tile re-injects them locally, spending its own cycles — the
    /// paper's software relay workaround); everything else is delivered.
    fn resolve_ejected(&mut self, delivered: &mut Vec<FabricPacket>) {
        let mut ejected = std::mem::take(&mut self.scratch.ejected);
        for &entry in &ejected {
            let slot = entry.slot();
            if matches!(self.arena.choice(slot), NetworkChoice::Relay { .. })
                && self.arena.leg(slot) == 0
            {
                self.arena.set_leg(slot, 1);
                self.relay_forwards += 1;
                let NetworkChoice::Relay { via, .. } = self.arena.choice(slot) else {
                    unreachable!()
                };
                let net = self.arena.network_of(slot) as usize;
                let idx = self.array.index_of(via);
                let Fabric {
                    coords,
                    networks,
                    arena,
                    ..
                } = &mut *self;
                networks[net].push(
                    coords[idx],
                    idx,
                    LOCAL,
                    slot,
                    arena.leg_target(slot),
                    arena.network_of(slot),
                    entry.hops(),
                );
            } else {
                // The fabric tracks hop counts in its ring entries (the
                // arena column holds the count as of injection), so the
                // delivered packet takes the entry's value.
                let mut packet = self.arena.take(slot);
                packet.hops = entry.hops();
                delivered.push(packet);
            }
        }
        ejected.clear();
        self.scratch.ejected = ejected;
    }

    /// Fingerprints every router's current state into the journal's net
    /// lanes at window boundary `cycle` (no-op when digests are off).
    fn record_net_lanes(&mut self, cycle: u64) {
        let tiles = self.array.tile_count();
        let Fabric {
            networks,
            journal,
            arena,
            ..
        } = self;
        let Some(journal) = journal.as_mut() else {
            return;
        };
        for (net_idx, network) in networks.iter().enumerate() {
            for tile in 0..tiles {
                let mut h = Fnv1a::new();
                for port in 0..5 {
                    h.write_u32(network.queues[tile][port].len() as u32);
                    for entry in network.queues[tile][port].iter() {
                        let slot = entry.slot();
                        h.write_u64(arena.id(slot));
                        h.write_u8(arena.leg(slot));
                        h.write_u32(entry.hops());
                    }
                    h.write_u8(network.routers[tile].rr[port]);
                }
                journal.record(
                    cycle,
                    LaneId::Net {
                        net: net_idx as u8,
                        tile: tile as u32,
                    },
                    h.finish(),
                );
            }
        }
    }

    /// Jumps the clock forward `cycles` cycles across a window in which
    /// the fabric is provably inert (nothing queued anywhere), replaying
    /// the per-cycle bookkeeping in bulk so every artefact stays
    /// byte-identical to having ticked the window densely:
    ///
    /// - each skipped tick would have sampled an empty active set, so
    ///   the histogram takes `cycles` zeros in O(1);
    /// - each gauge-sample boundary inside the window records the same
    ///   four zeros the dense tick would read off empty queues;
    /// - every digest boundary inside the window hashes the same empty
    ///   routers, so recording the *first* one reproduces the dense
    ///   journal — later boundaries dedup to nothing.
    ///
    /// Ticks are not executed, so [`Fabric::ticks_executed`] does not
    /// advance — the counter the O(events)-termination tests watch.
    ///
    /// Callers (the wheel-stepping drivers) must only skip windows with
    /// no in-flight packets; this is debug-asserted.
    pub fn skip_cycles(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert_eq!(self.in_flight(), 0, "only an empty fabric may skip");
        debug_assert_eq!(self.check_invariants(), Ok(()));
        let start = self.cycle;
        self.cycle += cycles;
        self.active_tiles.record_n(0, cycles);
        if self.sample_every != 0 {
            let every = self.sample_every;
            let mut boundary = (start / every + 1) * every;
            while boundary <= self.cycle {
                if self.samples[0].1.wants(boundary) {
                    for (_, series) in &mut self.samples {
                        series.record(boundary, 0.0);
                    }
                }
                boundary += every;
            }
        }
        if let Some(every) = self.journal.as_ref().map(|j| j.every()) {
            if let Some(periods) = start.checked_div(every) {
                let first = (periods + 1) * every;
                if first <= self.cycle {
                    self.record_net_lanes(first);
                }
            }
        }
    }

    /// Ticks actually executed so far — unlike [`Fabric::cycle`], cycles
    /// jumped by [`Fabric::skip_cycles`] do not count. The ratio
    /// `cycle / ticks_executed` is the event-wheel skip leverage.
    pub fn ticks_executed(&self) -> u64 {
        self.ticks
    }

    /// Ticks until the fabric is empty, returning every endpoint delivery.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to drain (a deadlock), which the
    /// dual-DoR design guarantees cannot happen — the panic is the
    /// regression alarm for that property.
    pub fn drain(&mut self) -> Vec<FabricPacket> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        let mut idle_cycles = 0u64;
        while self.in_flight() > 0 {
            let before = self.in_flight();
            self.tick_into(&mut batch);
            out.extend_from_slice(&batch);
            if self.in_flight() == before {
                idle_cycles += 1;
                assert!(
                    idle_cycles < 10_000,
                    "network failed to drain: deadlock with {} packets in flight",
                    self.in_flight()
                );
            } else {
                idle_cycles = 0;
            }
        }
        out
    }

    /// Counters for the link leaving `tile` in `dir` on `network`.
    pub fn link_stats(&self, network: NetworkKind, tile: TileCoord, dir: Direction) -> LinkStats {
        self.links[network as usize][self.array.index_of(tile)][dir.index()]
    }

    /// Traversal count of the link leaving `tile` in direction `dir` on
    /// the given network — the congestion heat map.
    pub fn link_utilization(&self, network: NetworkKind, tile: TileCoord, dir: Direction) -> u64 {
        self.link_stats(network, tile, dir).forwarded
    }

    /// The most-used link: `(network, tile, direction, traversals)`.
    ///
    /// Ties break deterministically: lowest tile index first, then lowest
    /// direction index (N, S, E, W order), then the Xy network — so equal
    /// heat maps always report the same link regardless of iteration order.
    pub fn hottest_link(&self) -> Option<(NetworkKind, TileCoord, Direction, u64)> {
        // Key: forwarded count descending, then (tile, direction, network)
        // ascending.
        let mut best: Option<(u64, usize, usize, usize)> = None;
        for (n, per_net) in self.links.iter().enumerate() {
            for (idx, dirs) in per_net.iter().enumerate() {
                for (d, stats) in dirs.iter().enumerate() {
                    if stats.forwarded == 0 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((count, tile, dir, net)) => {
                            stats.forwarded > count
                                || (stats.forwarded == count && (idx, d, n) < (tile, dir, net))
                        }
                    };
                    if better {
                        best = Some((stats.forwarded, idx, d, n));
                    }
                }
            }
        }
        best.map(|(count, idx, d, n)| {
            let network = if n == 0 {
                NetworkKind::Xy
            } else {
                NetworkKind::Yx
            };
            (network, self.array.coord_of(idx), DIRECTIONS[d], count)
        })
    }

    /// Row-major per-tile heat map: total packets forwarded out of each
    /// tile, summed over both networks and all four directions.
    pub fn utilization_heatmap(&self) -> Vec<f64> {
        let tiles = self.array.tile_count();
        let mut map = vec![0.0; tiles];
        for per_net in &self.links {
            for (idx, dirs) in per_net.iter().enumerate() {
                map[idx] += dirs.iter().map(|s| s.forwarded as f64).sum::<f64>();
            }
        }
        map
    }

    /// Emits the fabric's aggregate metrics into `sink`: traversal and
    /// relay counters, per-link forwarded/stall histograms, peak FIFO
    /// occupancy, and the per-tile utilization heat map as a series.
    pub fn export_metrics(&self, sink: &mut dyn Sink) {
        sink.counter_add("fabric.link_traversals", self.link_traversals);
        sink.counter_add("fabric.relay_forwards", self.relay_forwards);
        sink.counter_add("fabric.stall_cycles", self.total_stall_cycles());
        sink.gauge_set(
            "fabric.peak_link_occupancy",
            self.peak_link_occupancy() as f64,
        );
        sink.gauge_set("fabric.cycles", self.cycle as f64);
        // Active-set occupancy: sampled per tick in both stepping modes
        // from queue state alone, so these values are identical across
        // modes and thread counts (the CI smoke gate byte-compares them).
        sink.gauge_set("fabric.active_tiles_mean", self.active_tiles.mean());
        sink.gauge_set("fabric.active_tiles_peak", self.active_tiles.max() as f64);
        sink.histogram_merge("fabric.active_tiles", &self.active_tiles);
        for per_net in &self.links {
            for dirs in per_net {
                for stats in dirs {
                    sink.histogram_record("fabric.link.forwarded", stats.forwarded);
                    sink.histogram_record("fabric.link.stall_cycles", stats.stall_cycles);
                }
            }
        }
        sink.series_set("fabric.tile_heatmap", &self.utilization_heatmap());
        for (name, series) in &self.samples {
            if !series.is_empty() {
                sink.timeseries_merge(name, series);
            }
        }
    }

    /// Total link traversals (one per packet per hop).
    pub fn link_traversals(&self) -> u64 {
        self.link_traversals
    }

    /// Relay re-injections performed by intermediate tiles.
    pub fn relay_forwards(&self) -> u64 {
        self.relay_forwards
    }

    /// Total cycles any link spent stalled on a full downstream FIFO.
    pub fn total_stall_cycles(&self) -> u64 {
        self.links
            .iter()
            .flat_map(|per_net| per_net.iter())
            .flat_map(|dirs| dirs.iter())
            .map(|s| s.stall_cycles)
            .sum()
    }

    /// Per-tick active-set sizes sampled so far (occupied tiles summed
    /// over both networks) — a pure function of queue state, identical in
    /// either stepping mode.
    pub fn active_tiles(&self) -> &Histogram {
        &self.active_tiles
    }

    /// The highest occupancy any link input FIFO ever reached.
    pub fn peak_link_occupancy(&self) -> usize {
        self.links
            .iter()
            .flat_map(|per_net| per_net.iter())
            .flat_map(|dirs| dirs.iter())
            .map(|s| s.peak_occupancy)
            .max()
            .unwrap_or(0)
    }
}

/// [`DIRECTIONS`] index of adjacent `nb` relative to `tile` — the inverse
/// of `Direction::offset`, branch-direct so the FIFO head refresh does
/// not scan the direction table.
#[inline]
fn direction_between(tile: TileCoord, nb: TileCoord) -> usize {
    if nb.y < tile.y {
        0 // North
    } else if nb.y > tile.y {
        1 // South
    } else if nb.x > tile.x {
        2 // East
    } else {
        3 // West
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_req(fabric: &mut Fabric, src: (u16, u16), dst: (u16, u16)) -> FabricPacket {
        let id = fabric.allocate_id();
        FabricPacket::request(
            id,
            TileCoord::new(src.0, src.1),
            TileCoord::new(dst.0, dst.1),
            NetworkChoice::Direct(NetworkKind::Xy),
            fabric.cycle(),
        )
    }

    #[test]
    fn single_packet_takes_manhattan_plus_queueing_cycles() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 4);
        let packet = direct_req(&mut fabric, (0, 0), (5, 3));
        assert!(fabric.inject(packet));
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 1);
        let p = delivered[0];
        assert_eq!(p.hops, 8);
        // 1 cycle out of the local queue per hop, plus local ejection.
        assert!(
            fabric.cycle() >= 9 && fabric.cycle() <= 12,
            "{}",
            fabric.cycle()
        );
        assert_eq!(fabric.link_traversals(), 8);
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn ids_advance_even_under_backpressure() {
        let mut fabric = Fabric::new(TileArray::new(4, 4), 1);
        // Local queue cap is queue_capacity * 4 = 4.
        let mut accepted = 0;
        for _ in 0..10 {
            let p = direct_req(&mut fabric, (0, 0), (3, 0));
            if fabric.inject(p) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(fabric.allocate_id(), 10);
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 4);
    }

    #[test]
    fn relay_packets_reinject_at_the_via_tile() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 4);
        let id = fabric.allocate_id();
        let choice = NetworkChoice::Relay {
            via: TileCoord::new(3, 5),
            first: NetworkKind::Xy,
            second: NetworkKind::Yx,
        };
        let packet = FabricPacket::request(
            id,
            TileCoord::new(0, 3),
            TileCoord::new(7, 3),
            choice,
            fabric.cycle(),
        );
        assert!(fabric.inject(packet));
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].dst, TileCoord::new(7, 3));
        assert_eq!(fabric.relay_forwards(), 1);
    }

    #[test]
    fn stall_cycles_appear_under_hotspot_pressure() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
        // Everyone floods tile (4,4) at once.
        for _ in 0..3 {
            for x in 0..8u16 {
                for y in 0..8u16 {
                    if (x, y) == (4, 4) {
                        continue;
                    }
                    let p = direct_req(&mut fabric, (x, y), (4, 4));
                    fabric.inject(p);
                }
            }
        }
        let delivered = fabric.drain();
        assert!(!delivered.is_empty());
        assert!(fabric.total_stall_cycles() > 0, "no contention recorded");
        assert!(fabric.peak_link_occupancy() >= 2);
    }

    #[test]
    fn hottest_link_breaks_ties_toward_lowest_tile_then_direction() {
        let mut fabric = Fabric::new(TileArray::new(4, 4), 4);
        // Two disjoint single-hop flows with identical traversal counts:
        // (2,0)→(3,0) and (0,1)→(1,1). Equal heat, so the tie must break
        // to the lower row-major tile index, (2,0), regardless of network
        // scan order.
        for _ in 0..3 {
            let a = direct_req(&mut fabric, (2, 0), (3, 0));
            let b = direct_req(&mut fabric, (0, 1), (1, 1));
            assert!(fabric.inject(a));
            assert!(fabric.inject(b));
            fabric.drain();
        }
        let (net, tile, dir, count) = fabric.hottest_link().expect("traffic ran");
        assert_eq!(count, 3);
        assert_eq!(tile, TileCoord::new(2, 0));
        assert_eq!(dir, Direction::East);
        assert_eq!(net, NetworkKind::Xy);
    }

    #[test]
    fn ticks_are_bit_identical_across_thread_counts() {
        // Flood an 8x8 fabric with a hotspot plus background flows, then
        // compare every delivery, the cycle count, and the per-link
        // counters against the single-threaded run.
        let run = |threads: usize| {
            let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
            fabric.set_threads(threads);
            assert_eq!(fabric.threads(), threads.max(1));
            for _ in 0..3 {
                for x in 0..8u16 {
                    for y in 0..8u16 {
                        if (x, y) == (4, 4) {
                            continue;
                        }
                        let p = direct_req(&mut fabric, (x, y), (4, 4));
                        fabric.inject(p);
                        let q = direct_req(&mut fabric, (x, y), (y, x));
                        fabric.inject(q);
                    }
                }
            }
            let delivered: Vec<(u64, u32, u64)> = fabric
                .drain()
                .into_iter()
                .map(|p| (p.id, p.hops, p.injected_at))
                .collect();
            (
                delivered,
                fabric.cycle(),
                fabric.link_traversals(),
                fabric.total_stall_cycles(),
                fabric.peak_link_occupancy(),
                fabric.utilization_heatmap(),
            )
        };
        let baseline = run(1);
        for threads in [2, 3, 5, 8] {
            assert_eq!(run(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn wheel_stepping_is_bit_identical_to_dense() {
        // Same hotspot-plus-background flood as the thread-count test,
        // compared across the dense/wheel × thread-count matrix. The
        // active-set histogram must match too: it is sampled from queue
        // state, not from the scheduler's own work list.
        let run = |stepping: Stepping, threads: usize| {
            let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
            fabric.set_threads(threads);
            fabric.set_stepping(stepping);
            for _ in 0..3 {
                for x in 0..8u16 {
                    for y in 0..8u16 {
                        if (x, y) == (4, 4) {
                            continue;
                        }
                        let p = direct_req(&mut fabric, (x, y), (4, 4));
                        fabric.inject(p);
                        let q = direct_req(&mut fabric, (x, y), (y, x));
                        fabric.inject(q);
                    }
                }
            }
            let delivered: Vec<(u64, u32, u64)> = fabric
                .drain()
                .into_iter()
                .map(|p| (p.id, p.hops, p.injected_at))
                .collect();
            (
                delivered,
                fabric.cycle(),
                fabric.link_traversals(),
                fabric.total_stall_cycles(),
                fabric.peak_link_occupancy(),
                fabric.utilization_heatmap(),
                fabric.active_tiles().clone(),
            )
        };
        let baseline = run(Stepping::Dense, 1);
        assert!(baseline.6.count() > 0, "active-set samples recorded");
        for threads in [1, 2, 8] {
            assert_eq!(
                run(Stepping::Wheel, threads),
                baseline,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn fused_dense_matches_the_pooled_two_pass_sweep() {
        // threads == 1 takes the fused single pass; a pool forces the
        // two-pass plan/apply split. Same flood, byte-identical results.
        let run = |threads: usize| {
            let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
            fabric.set_stepping(Stepping::Dense);
            fabric.set_threads(threads);
            for _ in 0..3 {
                for x in 0..8u16 {
                    for y in 0..8u16 {
                        if (x, y) == (4, 4) {
                            continue;
                        }
                        let p = direct_req(&mut fabric, (x, y), (4, 4));
                        fabric.inject(p);
                        let q = direct_req(&mut fabric, (x, y), (y, x));
                        fabric.inject(q);
                    }
                }
            }
            let delivered: Vec<(u64, u32, u64)> = fabric
                .drain()
                .into_iter()
                .map(|p| (p.id, p.hops, p.injected_at))
                .collect();
            (
                delivered,
                fabric.cycle(),
                fabric.link_traversals(),
                fabric.total_stall_cycles(),
                fabric.peak_link_occupancy(),
                fabric.utilization_heatmap(),
            )
        };
        let fused = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), fused, "threads = {threads}");
        }
    }

    #[test]
    fn fused_wheel_matches_the_banded_two_pass_walk() {
        // A 32x32 all-tiles flood keeps the active set above the banding
        // threshold (64 x threads), so the threaded run genuinely bands
        // its occupancy bitsets while threads == 1 takes the fused pass.
        let run = |threads: usize| {
            let mut fabric = Fabric::new(TileArray::new(32, 32), 2);
            fabric.set_threads(threads);
            for x in 0..32u16 {
                for y in 0..32u16 {
                    let p = direct_req(&mut fabric, (x, y), (31 - x, 31 - y));
                    fabric.inject(p);
                    let q = direct_req(&mut fabric, (x, y), (y, x));
                    fabric.inject(q);
                }
            }
            let delivered: Vec<(u64, u32, u64)> = fabric
                .drain()
                .into_iter()
                .map(|p| (p.id, p.hops, p.injected_at))
                .collect();
            (
                delivered,
                fabric.cycle(),
                fabric.link_traversals(),
                fabric.total_stall_cycles(),
                fabric.peak_link_occupancy(),
                fabric.utilization_heatmap(),
            )
        };
        let fused = run(1);
        assert_eq!(run(8), fused);
    }

    #[test]
    fn drained_fabric_releases_every_arena_slot() {
        let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
        for round in 0..4 {
            for x in 0..8u16 {
                for y in 0..8u16 {
                    let p = direct_req(&mut fabric, (x, y), (7 - x, 7 - y));
                    fabric.inject(p);
                }
            }
            assert!(fabric.arena_live() > 0);
            fabric.drain();
            assert_eq!(fabric.arena_live(), 0, "round {round} leaked slots");
        }
        // Recycling bounds the footprint at one round's peak in flight.
        let footprint = fabric.arena_slots();
        for _ in 0..4 {
            for x in 0..8u16 {
                for y in 0..8u16 {
                    let p = direct_req(&mut fabric, (x, y), (7 - x, 7 - y));
                    fabric.inject(p);
                }
            }
            fabric.drain();
        }
        assert_eq!(
            fabric.arena_slots(),
            footprint,
            "steady churn grew the arena"
        );
    }

    #[test]
    fn idle_tiles_cost_nothing_under_wheel_stepping() {
        // One packet on a big array: only the tile holding it has its
        // occupancy bit set, so one tile per tick is visited.
        let mut fabric = Fabric::new(TileArray::new(16, 16), 4);
        assert_eq!(fabric.executor(), "wheel");
        let p = direct_req(&mut fabric, (0, 0), (3, 0));
        assert!(fabric.inject(p));
        let delivered = fabric.drain();
        assert_eq!(delivered.len(), 1);
        let active = fabric.active_tiles();
        assert_eq!(active.max(), 1, "a single flit occupies one tile per tick");
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn invariant_checker_flags_a_stale_occupancy_bit() {
        // 70 columns: the bitset's words straddle rows.
        let mut fabric = Fabric::new(TileArray::new(70, 2), 2);
        for x in 0..70u16 {
            let p = direct_req(&mut fabric, (x, 0), (69 - x, 1));
            fabric.inject(p);
        }
        while fabric.in_flight() > 0 {
            assert_eq!(fabric.check_invariants(), Ok(()));
            fabric.tick();
        }
        assert_eq!(fabric.check_invariants(), Ok(()));
        // A stray bit on an idle tile would only cost the wheel a wasted
        // visit; the checker must still see it.
        fabric.networks[1].occupied[2] |= 1 << 5;
        let err = fabric.check_invariants().expect_err("stale bit");
        assert!(err.contains("net 1 tile 133"), "{err}");
    }

    #[test]
    fn hottest_link_is_none_on_an_idle_fabric() {
        let fabric = Fabric::new(TileArray::new(4, 4), 4);
        assert!(fabric.hottest_link().is_none());
    }

    #[test]
    fn export_metrics_and_delivery_spans_reach_the_sink() {
        use wsp_telemetry::SharedRecorder;

        let recorder = SharedRecorder::new();
        let mut fabric = Fabric::new(TileArray::new(4, 4), 4);
        fabric.set_sink(recorder.boxed());
        let p = direct_req(&mut fabric, (0, 0), (3, 3));
        assert!(fabric.inject(p));
        fabric.drain();

        let mut shared = recorder.clone();
        fabric.export_metrics(&mut shared);
        recorder.with(|r| {
            assert_eq!(r.tracer.span_count("fabric"), 1);
            assert_eq!(r.registry.counter("fabric.link_traversals"), 6);
            let heat = r.registry.series("fabric.tile_heatmap").expect("heatmap");
            assert_eq!(heat.len(), 16);
            assert_eq!(heat.iter().sum::<f64>(), 6.0);
        });
    }

    #[test]
    #[should_panic(expected = "disconnected packets are never injected")]
    fn disconnected_requests_are_rejected_at_construction() {
        let _ = FabricPacket::request(
            0,
            TileCoord::new(0, 0),
            TileCoord::new(1, 1),
            NetworkChoice::Disconnected,
            0,
        );
    }
}
