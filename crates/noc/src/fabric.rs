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
//! # Arbitration contract
//!
//! A tick behaves as if it had two phases. A *plan* reads only the
//! pre-cycle router state (queue heads, round-robin pointers,
//! downstream occupancy) and grants each output port of each tile to one
//! input FIFO head, round-robin; an *apply* commits the grants in
//! canonical `(network, tile, output port)` order, with link arrivals
//! landing after the plan and relay re-injection after both networks.
//! The naive test-only `SpecFabric` model (`tests/spec/mod.rs`) encodes
//! exactly this, and the property tests hold every tick of both
//! steppings to it.
//!
//! # Data layout
//!
//! In-flight packets live in one struct-of-arrays [`PacketArena`]. A
//! router FIFO holds packed 16-byte entries — arena slot, the output port
//! the packet takes *at this tile*, its current-leg target and its hop
//! count — so a hop moves one entry and never touches the arena, which is
//! read only at injection, relay re-injection and delivery. Per network:
//!
//! - the four link FIFOs of every tile live inline in one flat slice,
//!   `4 × queue_capacity` entries per tile, FIFO `(t, p)` starting at
//!   entry `(4t + p) × queue_capacity`;
//! - each tile's 64-byte `Router` line holds the head index and length of
//!   its four link FIFOs, the cached output port at each of its five FIFO
//!   heads, its round-robin pointers and its link pop stamps, so a link
//!   pop or push touches that line and the entry, and a backpressure
//!   probe reads one neighbour line;
//! - only the local injection FIFO is a growable `VecDeque`, reserved at
//!   its bounded-inject depth: [`Fabric::inject_unbounded`] buffers
//!   responses there without a cap.
//!
//! All per-tick scratch (staged arrivals, ejected entries) is owned by
//! the fabric and cleared, not reallocated — the steady-state tick
//! performs **zero heap allocations** (pinned by a counting-allocator
//! regression test).
//!
//! # Branch-free bookkeeping
//!
//! A hop costs a fixed handful of loads and stores:
//!
//! - the output port at a tile comes from a 9-entry table per network,
//!   indexed by the sign of `target − tile` on each axis (ejection at the
//!   target, otherwise the dimension-ordered direction); it is looked up
//!   once when an entry lands in a FIFO and cached in the entry;
//! - a link pop or push wraps its head index with a select, and refreshes
//!   the cached head port with a select on the new length;
//! - a push sets the tile's occupancy bit unconditionally; a pop clears
//!   it with a mask computed from `occ == 0`;
//! - arbitration builds the 5×5 want matrix in one `u32` (5 bits per
//!   output) and walks only the wanted outputs with `trailing_zeros`; a
//!   neighbour's index is the tile's plus one of four per-direction
//!   deltas `(−cols, +cols, +1, −1)`.
//!
//! # The fused pass
//!
//! [`Fabric::tick_into`] runs the two phases *fused*: one pass per
//! network plans each tile and applies its grants immediately. Because
//! grants are committed while later tiles are still to be planned, the
//! pass reconstructs the pre-cycle state those tiles must see:
//!
//! - grants read a pre-pop snapshot of the tile's own head routes and
//!   round-robin pointers, so a tile's own pops cannot disturb its later
//!   output ports;
//! - pushes (link arrivals) are staged and committed only at the end of
//!   each network's pass;
//! - the downstream-occupancy backpressure check reconstructs the
//!   pre-cycle queue length: each FIFO pops at most once per cycle, and
//!   pops are stamped with the tick that performed them, so
//!   `len + (popped this tick)` is the length the plan would have read;
//! - the two networks share no queue state, so walking net 0 fully
//!   before net 1 matches the canonical commit order, and relay
//!   re-injection/delivery is deferred until both passes complete.
//!
//! # Active-set scheduling
//!
//! A tile whose five input FIFOs are all empty on a network cannot plan a
//! move, a stall, or a round-robin update on that network, so visiting it
//! is pure overhead. Each network therefore keeps a per-tile occupancy
//! count `occ` and one *occupancy bitset* over row-major tile indices
//! (bit `t` set iff `occ[t] > 0`, any array width), both maintained at
//! the single push/pop choke points. Under the default
//! [`Stepping::Wheel`] mode a tick walks the set bits word by word with
//! `trailing_zeros`, which yields the occupied tiles in ascending index
//! order — the order the dense sweep commits in — with nothing to sort,
//! dedup or prune. [`Stepping::Dense`] is the reference: it scans the
//! `occ` counts of every network holding packets and never reads the
//! bitset for its walk, so every dense-vs-wheel byte-compare also checks
//! the bitset's upkeep ([`Fabric::check_invariants`] checks it directly).
//! The per-tick active-set sample is the bitset's popcount in both modes.
//! When the fabric is empty, the synthetic-traffic driver
//! ([`crate::NocSim`]) skips whole cycles instead
//! ([`Fabric::skip_cycles`]): the simulator's one time jump.
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

use std::collections::VecDeque;

use wsp_common::stepping::Stepping;
use wsp_telemetry::{
    DigestJournal, Fnv1a, Histogram, LaneId, NoopSink, PhaseProfiler, Sink, TimeSeries,
};
use wsp_topo::{Direction, TileArray, TileCoord, DIRECTIONS};

use crate::arena::PacketArena;
use crate::kernel::NetworkChoice;
use crate::routing::NetworkKind;

/// Index of the local injection/ejection port in each router's queue array.
const LOCAL: usize = 4;

/// [`Router::head_out`] of an empty input FIFO. It is one past the last
/// port, so arbitration can shift by it without a test: its want bits
/// land above the 5×5 matrix and are masked off.
const EMPTY_HEAD: u8 = 5;

/// `DIRECTIONS[i].opposite().index()` as a table: N↔S, E↔W.
const OPPOSITE: [usize; 4] = [1, 0, 3, 2];

/// The local injection FIFO is deeper than a link FIFO by this factor —
/// it models the tile's outbound staging buffer in local SRAM.
const LOCAL_QUEUE_FACTOR: usize = 4;

/// Output port by network and by the sign of `target − tile` on each
/// axis, at index `3·sx + sy` with sign code 0 (equal), 1 (target
/// greater) or 2 (target smaller); ports are [`DIRECTIONS`] indices
/// (N, S, E, W) and `LOCAL`. X-Y leaves on the x axis while `x` differs,
/// Y-X on the y axis while `y` differs; equal coordinates eject.
/// `routing::next_hop` is the reference a test holds this table to.
const OUT_PORT: [[u8; 9]; 2] = [
    // X-Y: sx = 0 → by sy (local, S, N); sx = 1 → E; sx = 2 → W.
    [4, 1, 0, 2, 2, 2, 3, 3, 3],
    // Y-X: sy = 1 → S; sy = 2 → N; sy = 0 → by sx (local, E, W).
    [4, 1, 0, 2, 1, 0, 3, 1, 0],
];

/// The output port a packet heading for `target` on network `net` takes
/// at `tile`: the local ejection port at its target, otherwise the
/// dimension-ordered next-hop direction.
#[inline]
fn out_port_for(tile: TileCoord, target: TileCoord, net: usize) -> u8 {
    let sign = |to: u16, at: u16| usize::from(to > at) | usize::from(to < at) << 1;
    OUT_PORT[net][3 * sign(target.x, tile.x) + sign(target.y, tile.y)]
}

/// One router-FIFO entry: the arena slot plus everything a hop needs
/// about the packet's current leg — the cached output port *at this
/// tile*, the current-leg target, and the hop count — packed into one
/// `u128`. The network is implicit: an entry only ever moves within the
/// network whose FIFO holds it.
///
/// Layout: bits 0–31 slot, 32–39 output port, 40–55 target x, 56–71
/// target y, 72–103 hops.
#[derive(Clone, Copy, Default)]
struct RingEntry(u128);

impl RingEntry {
    fn new(slot: u32, out: u8, target: TileCoord, hops: u32) -> Self {
        RingEntry(
            u128::from(slot)
                | u128::from(out) << 32
                | u128::from(target.x) << 40
                | u128::from(target.y) << 56
                | u128::from(hops) << 72,
        )
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The cached output port at the tile whose FIFO holds this entry.
    fn out(self) -> u8 {
        (self.0 >> 32) as u8
    }

    /// The same entry with its cached output port replaced by `out`.
    fn with_out(self, out: u8) -> Self {
        RingEntry(self.0 & !(0xff << 32) | u128::from(out) << 32)
    }

    fn target(self) -> TileCoord {
        TileCoord::new((self.0 >> 40) as u16, (self.0 >> 56) as u16)
    }

    fn hops(self) -> u32 {
        (self.0 >> 72) as u32
    }

    /// The same entry with one more link traversal recorded.
    fn bumped(self) -> Self {
        RingEntry(self.0 + (1u128 << 72))
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

/// Per-tile router hot state, packed into exactly one cache line: a
/// fused visit reads its own line for arbitration and one neighbour line
/// per backpressure probe, and a link pop or push touches this line plus
/// the entry it moves. The tick loop is memory-bound on random tile
/// access; this layout is the perf lever.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Router {
    /// Head index of each link-side input FIFO (ports 0..4) within its
    /// `queue_capacity` entries of [`Network::links`].
    link_head: [u16; 4],
    /// Length of each link-side input FIFO. Exact as `u16`, because
    /// [`Fabric::new`] bounds `queue_capacity` to `u16::MAX`.
    link_len: [u16; 4],
    /// Output port of each input FIFO's head entry (`EMPTY_HEAD` when
    /// empty), so arbitration reads a flat `[u8; 5]` instead of five
    /// queue heads.
    head_out: [u8; 5],
    /// Round-robin pointers, one per output port; values 0..5.
    rr: [u8; 5],
    /// Tick stamp of the most recent pop from each link-side FIFO. The
    /// fused pass reconstructs a downstream FIFO's pre-cycle length as
    /// `len + (popped_at == current tick)` — valid because each FIFO
    /// pops at most once per cycle and pushes are deferred to the end of
    /// the network pass.
    popped_at: [u64; 4],
}

const _: () = assert!(std::mem::size_of::<Router>() == 64);

impl Router {
    fn new() -> Self {
        Router {
            link_head: [0; 4],
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
/// FIFO entries name [`PacketArena`] slots; packet fields live in the
/// shared arena owned by [`Fabric`].
struct Network {
    /// Depth of every link FIFO.
    cap: usize,
    /// The link FIFOs of every tile, inline: FIFO `(t, p)` is the ring
    /// `links[(4t + p) * cap..][..cap]`, whose head index and length sit
    /// in `routers[t]`.
    links: Vec<RingEntry>,
    /// Each tile's local injection FIFO, the only one without a bound.
    local: Vec<VecDeque<RingEntry>>,
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
    /// bits and the active-set sample is its popcount.
    occupied: Vec<u64>,
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
    fn new(tiles: usize, cap: usize) -> Self {
        Network {
            cap,
            links: vec![RingEntry::default(); tiles * 4 * cap],
            // The local FIFO starts at its bounded-inject depth and grows
            // only under `inject_unbounded` response buffering.
            local: (0..tiles)
                .map(|_| VecDeque::with_capacity(cap * LOCAL_QUEUE_FACTOR))
                .collect(),
            routers: vec![Router::new(); tiles],
            occ: vec![0; tiles],
            packets: 0,
            occupied: vec![0; tiles.div_ceil(64)],
        }
    }

    /// Index in `links` of the first entry of link FIFO `port` of `tile`.
    #[inline]
    fn base(&self, tile: usize, port: usize) -> usize {
        (4 * tile + port) * self.cap
    }

    /// Appends `entry` to link FIFO `port` of `tile` and returns the
    /// FIFO's new length. The caller has checked that it has room.
    #[inline]
    fn push_link(&mut self, tile: usize, port: usize, entry: RingEntry) -> u16 {
        let base = self.base(tile, port);
        let router = &mut self.routers[tile];
        let len = router.link_len[port];
        let tail = usize::from(router.link_head[port]) + usize::from(len);
        let tail = if tail >= self.cap {
            tail - self.cap
        } else {
            tail
        };
        self.links[base + tail] = entry;
        router.head_out[port] = if len == 0 {
            entry.out()
        } else {
            router.head_out[port]
        };
        router.link_len[port] = len + 1;
        self.note_push(tile);
        len + 1
    }

    /// Appends `entry` to the local injection FIFO of `tile`.
    #[inline]
    fn push_local(&mut self, tile: usize, entry: RingEntry) {
        let ring = &mut self.local[tile];
        ring.push_back(entry);
        let router = &mut self.routers[tile];
        router.head_out[LOCAL] = if ring.len() == 1 {
            entry.out()
        } else {
            router.head_out[LOCAL]
        };
        self.note_push(tile);
    }

    /// Removes the head of FIFO `port` of `tile`, refreshing the cached
    /// head port and, for a link FIFO, stamping the pop with `tick` (the
    /// fused pass's pre-cycle-length witness). All fabric pops go through
    /// here.
    #[inline]
    fn pop(&mut self, tile: usize, port: usize, tick: u64) -> RingEntry {
        if port == LOCAL {
            let ring = &mut self.local[tile];
            let entry = ring.pop_front().expect("planned head");
            self.routers[tile].head_out[LOCAL] = ring.front().map_or(EMPTY_HEAD, |e| e.out());
            self.note_pop(tile);
            return entry;
        }
        let base = self.base(tile, port);
        let router = &mut self.routers[tile];
        debug_assert!(router.link_len[port] > 0, "planned head");
        let head = usize::from(router.link_head[port]);
        let entry = self.links[base + head];
        let next = if head + 1 == self.cap { 0 } else { head + 1 };
        let next_out = self.links[base + next].out();
        let len = router.link_len[port] - 1;
        router.link_head[port] = next as u16;
        router.link_len[port] = len;
        router.head_out[port] = if len == 0 { EMPTY_HEAD } else { next_out };
        router.popped_at[port] = tick;
        self.note_pop(tile);
        entry
    }

    /// Registers one packet pushed into any FIFO of `tile`.
    #[inline]
    fn note_push(&mut self, tile: usize) {
        self.packets += 1;
        self.occ[tile] += 1;
        self.occupied[tile / 64] |= 1 << (tile % 64);
    }

    /// Registers one packet popped from any FIFO of `tile`.
    #[inline]
    fn note_pop(&mut self, tile: usize) {
        self.packets -= 1;
        self.occ[tile] -= 1;
        let emptied = u64::from(self.occ[tile] == 0);
        self.occupied[tile / 64] &= !(emptied << (tile % 64));
    }

    /// Tiles with a packet queued: the occupancy bitset's popcount.
    fn occupied_tiles(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Entries queued in FIFO `port` of `tile`.
    fn queue_len(&self, tile: usize, port: usize) -> usize {
        if port == LOCAL {
            self.local[tile].len()
        } else {
            usize::from(self.routers[tile].link_len[port])
        }
    }

    /// The entries queued in FIFO `port` of `tile`, head to tail.
    fn queued(&self, tile: usize, port: usize) -> impl Iterator<Item = RingEntry> + '_ {
        let (base, head, len) = if port == LOCAL {
            (0, 0, 0)
        } else {
            let router = &self.routers[tile];
            (
                self.base(tile, port),
                usize::from(router.link_head[port]),
                usize::from(router.link_len[port]),
            )
        };
        let link = (head..head + len).map(move |i| self.links[base + i % self.cap]);
        let local = (port == LOCAL)
            .then(|| self.local[tile].iter().copied())
            .into_iter()
            .flatten();
        link.chain(local)
    }

    /// Plans and applies `tile` inside a fused pass: grants each wanted
    /// output round-robin against the pre-cycle state, pops the winners,
    /// stages link moves in `scratch.arrivals` and ejections in
    /// `scratch.ejected`, and counts stalls in `stats`, the tile's
    /// outgoing links. `delta` maps a direction to the neighbour's index
    /// offset.
    #[inline]
    fn fuse_tile(
        &mut self,
        tile: usize,
        tick: u64,
        delta: &[usize; 4],
        stats: &mut [LinkStats; 4],
        scratch: &mut TickScratch,
    ) {
        // Snapshot the head routes and round-robin pointers before any
        // of this tile's own pops refresh them — the pre-cycle state the
        // plan phase reads.
        let Router { head_out, rr, .. } = self.routers[tile];
        // Bit `5 * out + in` is set iff input `in` wants output `out`.
        // An empty head (`EMPTY_HEAD` = 5) sets a bit above the matrix
        // and in `outs` above the five ports.
        let (mut want, mut outs) = (0u32, 0u32);
        for (in_port, &out) in head_out.iter().enumerate() {
            want |= 1 << (5 * u32::from(out) + in_port as u32);
            outs |= 1 << out;
        }
        outs &= 0x1f;
        while outs != 0 {
            let out_port = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let contenders = want >> (5 * out_port) & 0x1f;
            let start = u32::from(rr[out_port]);
            let rotated = ((contenders >> start) | (contenders << (5 - start))) & 0x1f;
            let in_port = (start + rotated.trailing_zeros()) as usize;
            let in_port = if in_port >= 5 { in_port - 5 } else { in_port };
            let next_rr = if in_port == 4 { 0 } else { in_port as u8 + 1 };
            if out_port == LOCAL {
                let entry = self.pop(tile, in_port, tick);
                self.routers[tile].rr[LOCAL] = next_rr;
                scratch.ejected.push(entry);
                continue;
            }
            let nb = tile.wrapping_add(delta[out_port]);
            let in_side = OPPOSITE[out_port];
            // Pre-cycle occupancy of the downstream FIFO: it pops at
            // most once per cycle (stamped), and its arrivals are still
            // staged, so adding the pop back reconstructs the length
            // the plan phase would have read. One cache line: the
            // neighbour's length and pop stamp share a `Router`.
            let nb_router = &self.routers[nb];
            let pre_len = usize::from(nb_router.link_len[in_side])
                + usize::from(nb_router.popped_at[in_side] == tick);
            if pre_len < self.cap {
                let entry = self.pop(tile, in_port, tick);
                self.routers[tile].rr[out_port] = next_rr;
                // Link stats land in `commit_arrivals`, which touches
                // the same cache lines anyway.
                scratch.arrivals.push((4 * nb + in_side, entry.bumped()));
            } else {
                stats[out_port].stall_cycles += 1;
            }
        }
    }

    /// Checks this network's bookkeeping against its FIFOs; see
    /// [`Fabric::check_invariants`].
    fn check_invariants(&self, net: usize) -> Result<(), String> {
        let mut packets = 0usize;
        for (tile, router) in self.routers.iter().enumerate() {
            for port in 0..LOCAL {
                let (head, len) = (router.link_head[port], router.link_len[port]);
                if usize::from(head) >= self.cap || usize::from(len) > self.cap {
                    return Err(format!(
                        "net {net} tile {tile} port {port}: head {head}, length {len} \
                         outside depth {}",
                        self.cap
                    ));
                }
            }
            let occ = self.occ[tile] as usize;
            let queued: usize = (0..5).map(|port| self.queue_len(tile, port)).sum();
            if occ != queued {
                return Err(format!("net {net} tile {tile}: occ {occ}, {queued} queued"));
            }
            if (self.occupied[tile / 64] >> (tile % 64) & 1 == 1) != (occ > 0) {
                return Err(format!(
                    "net {net} tile {tile}: occupancy bit wrong for occ {occ}"
                ));
            }
            for port in 0..5 {
                let head = self
                    .queued(tile, port)
                    .next()
                    .map_or(EMPTY_HEAD, RingEntry::out);
                if router.head_out[port] != head {
                    return Err(format!(
                        "net {net} tile {tile} port {port}: head_out {} but head routes to {head}",
                        router.head_out[port]
                    ));
                }
            }
            packets += occ;
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

/// Reusable per-tick scratch owned by [`Fabric`] — cleared every tick,
/// reallocated never. Holding these across ticks is what makes the
/// steady-state tick allocation-free.
#[derive(Default)]
struct TickScratch {
    /// Link arrivals staged by one network's pass, as `(4 × dest tile +
    /// in side, entry)` with the entry's hop count already bumped,
    /// committed in order after the moves that produced them.
    arrivals: Vec<(usize, RingEntry)>,
    /// Entries ejected at their endpoint this tick, in canonical
    /// `(network, tile, output port)` order.
    ejected: Vec<RingEntry>,
}

/// The reusable dual-network fabric engine. See the module docs for the
/// contract; construction is per fault-free [`TileArray`] geometry — the
/// caller is responsible for only injecting packets whose
/// [`NetworkChoice`] avoids faulty tiles (the kernel's job).
pub struct Fabric {
    array: TileArray,
    /// Row-major tile coordinates, so the hot loop never divides.
    coords: Vec<TileCoord>,
    /// Tile-index offset of the neighbour in each of [`DIRECTIONS`]
    /// (`−cols, +cols, +1, −1`, wrapping): dimension-ordered routes never
    /// leave the array, so `tile + delta[dir]` is always a tile.
    delta: [usize; 4],
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
    /// Per-tick active-set sizes (occupied tiles summed over both networks),
    /// sampled in *both* stepping modes so the exported telemetry is
    /// independent of the mode.
    active_tiles: Histogram,
    /// Telemetry sink; [`NoopSink`] by default so the hot path pays one
    /// `enabled()` virtual call per tick when tracing is off.
    sink: Box<dyn Sink>,
    /// Per-tick gauge series `(name, series)`: active tiles, per-network
    /// queue occupancy, packets in flight. Sampled from pre-cycle queue
    /// state, so the series are pure functions of architectural state —
    /// bit-identical across stepping modes.
    samples: [(&'static str, TimeSeries); 4],
    /// Determinism-digest journal; `None` when digests are off. Lanes are
    /// recorded from post-cycle router state every `journal.every()`
    /// cycles. The machine also records its per-tile lanes here (same
    /// cycle domain — it ticks this fabric once per machine step).
    journal: Option<DigestJournal>,
    /// Wall-clock attribution of each tick's `fused` pass.
    /// Disabled by default; never feeds deterministic output.
    profiler: PhaseProfiler,
}

impl Fabric {
    /// A fabric over `array` with the given per-link input FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics unless `queue_capacity` is in `1..=u16::MAX`: a link that
    /// can hold no packet could never forward one, and link FIFO head
    /// indices and lengths are `u16` in the one-cache-line router state.
    pub fn new(array: TileArray, queue_capacity: usize) -> Self {
        assert!(
            (1..=usize::from(u16::MAX)).contains(&queue_capacity),
            "link FIFO depth must be in 1..=65535, got {queue_capacity}"
        );
        let tiles = array.tile_count();
        let cols = usize::from(array.cols());
        Fabric {
            array,
            coords: (0..tiles).map(|i| array.coord_of(i)).collect(),
            delta: [cols.wrapping_neg(), cols, 1, usize::MAX],
            networks: [
                Network::new(tiles, queue_capacity),
                Network::new(tiles, queue_capacity),
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
            active_tiles: Histogram::new(),
            sink: Box::new(NoopSink),
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

    /// Selects how ticks visit tiles (default: [`Stepping::Wheel`]).
    pub fn set_stepping(&mut self, stepping: Stepping) {
        self.stepping = stepping;
    }

    /// The current stepping mode.
    pub fn stepping(&self) -> Stepping {
        self.stepping
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
        self.samples = Self::make_samples(every);
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

    /// Turns wall-clock profiling of each tick's `fused` phase on or off.
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
        let idx = self.array.index_of(packet.src);
        let network = &self.networks[packet.network() as usize];
        let room = network.local[idx].len() < network.cap * LOCAL_QUEUE_FACTOR;
        if room {
            let slot = self.arena.alloc(&packet);
            self.enqueue_local(idx, slot, packet.hops);
        }
        room
    }

    /// Enqueues `packet` at its `src` tile without a capacity check:
    /// response traffic regenerated at a destination is buffered in that
    /// tile's local memory rather than refused.
    pub fn inject_unbounded(&mut self, packet: FabricPacket) {
        let idx = self.array.index_of(packet.src);
        let slot = self.arena.alloc(&packet);
        self.enqueue_local(idx, slot, packet.hops);
    }

    /// Queues arena slot `slot`, with `hops` traversals so far, in the
    /// local injection FIFO of tile `idx` on the network of its current
    /// leg, caching its output port there.
    fn enqueue_local(&mut self, idx: usize, slot: u32, hops: u32) {
        let net = self.arena.network_of(slot) as usize;
        let target = self.arena.leg_target(slot);
        let out = out_port_for(self.coords[idx], target, net);
        self.networks[net].push_local(idx, RingEntry::new(slot, out, target, hops));
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

    /// Checks the bookkeeping the tick loop keeps beside the FIFO
    /// contents, and returns the first violation found. Per network and
    /// tile: each link FIFO's head index is below its depth and its
    /// length at most its depth, `occ` is the tile's queued count, the
    /// occupancy bit is set iff `occ > 0`, and each `head_out` is the
    /// FIFO front's output port (`EMPTY_HEAD` iff the FIFO is empty);
    /// per network, the packet count is `Σ occ`. Across the fabric, the
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
    /// tile, output port)` order; see the module docs for how one fused
    /// pass does both.
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
        // identical across modes.
        let active = self.networks[0].occupied_tiles() + self.networks[1].occupied_tiles();
        self.active_tiles.record(active as u64);

        // Gauge sampling reads the same pre-cycle queue state the sample
        // above does; all four series share a cadence, so gating all
        // four on the first one's acceptance test is exact.
        if self.samples[0].1.wants(self.cycle) {
            let cycle = self.cycle;
            let occ0 = self.networks[0].packets;
            let occ1 = self.networks[1].packets;
            self.samples[0].1.record(cycle, active as f64);
            self.samples[1].1.record(cycle, occ0 as f64);
            self.samples[2].1.record(cycle, occ1 as f64);
            self.samples[3].1.record(cycle, (occ0 + occ1) as f64);
        }

        let fused_timer = self.profiler.start();
        self.fused_walk(0);
        self.fused_walk(1);
        self.resolve_ejected(delivered);
        self.profiler.stop("fused", fused_timer);

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

    /// The fused single-pass walk of network `net`: plans each occupied
    /// tile against reconstructed pre-cycle state and applies its grants
    /// immediately, staging arrivals until the pass completes. See the
    /// module docs for the bit-identity argument.
    fn fused_walk(&mut self, net: usize) {
        let tick = self.ticks;
        let Fabric {
            delta,
            networks,
            links,
            scratch,
            stepping,
            ..
        } = self;
        let network = &mut networks[net];
        let stats = &mut links[net];
        // Pops change only the occupancy of the tile being visited and
        // pushes are staged, so every tile still unvisited shows its
        // pre-cycle occupancy — what the plan phase reads.
        match stepping {
            // An empty network plans nothing, which spares the scan on
            // the idle cycles that dominate bursty traffic.
            Stepping::Dense if network.packets == 0 => {}
            Stepping::Dense => {
                for (tile, tile_stats) in stats.iter_mut().enumerate() {
                    if network.occ[tile] > 0 {
                        network.fuse_tile(tile, tick, delta, tile_stats, scratch);
                    }
                }
            }
            Stepping::Wheel => {
                // `set_bits` walks a copy of each word, so the visited
                // tile's own pops cannot disturb it.
                for word in 0..network.occupied.len() {
                    for tile in set_bits(word, network.occupied[word]) {
                        network.fuse_tile(tile, tick, delta, &mut stats[tile], scratch);
                    }
                }
            }
        }
        self.commit_arrivals(net);
    }

    /// Pushes network `net`'s staged arrivals into their destination
    /// FIFOs in order, caching each entry's output port at its new tile
    /// and attributing peak occupancy to the upstream link that fed it.
    fn commit_arrivals(&mut self, net: usize) {
        let Fabric {
            coords,
            delta,
            networks,
            links,
            scratch,
            link_traversals,
            ..
        } = self;
        let network = &mut networks[net];
        let stats = &mut links[net];
        *link_traversals += scratch.arrivals.len() as u64;
        for &(fifo, entry) in &scratch.arrivals {
            let (tile, port) = (fifo / 4, fifo % 4);
            let entry = entry.with_out(out_port_for(coords[tile], entry.target(), net));
            let occupancy = network.push_link(tile, port, entry);
            // `port` is the receiving side, which faces back toward the
            // sender; attribute the traversal and the peak to the
            // upstream link feeding it.
            let link = &mut stats[tile.wrapping_add(delta[port])][OPPOSITE[port]];
            link.forwarded += 1;
            link.peak_occupancy = link.peak_occupancy.max(usize::from(occupancy));
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
            match self.arena.choice(slot) {
                NetworkChoice::Relay { via, .. } if self.arena.leg(slot) == 0 => {
                    self.arena.set_leg(slot, 1);
                    self.relay_forwards += 1;
                    self.enqueue_local(self.array.index_of(via), slot, entry.hops());
                }
                // Hop counts travel in the FIFO entries, not the arena.
                _ => delivered.push(self.arena.take(slot, entry.hops())),
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
                    h.write_u32(network.queue_len(tile, port) as u32);
                    for entry in network.queued(tile, port) {
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
    /// Callers must only skip windows with no in-flight packets; this is
    /// debug-asserted. The one caller is [`crate::NocSim`]'s idle jump
    /// under wheel stepping; the machine ticks its fabric every cycle.
    pub fn skip_cycles(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        debug_assert_eq!(self.in_flight(), 0, "only an empty fabric may skip");
        debug_assert_eq!(self.check_invariants(), Ok(()));
        let start = self.cycle;
        self.cycle += cycles;
        self.active_tiles.record_n(0, cycles);
        let every = self.samples[0].1.every();
        if let Some(periods) = start.checked_div(every) {
            let mut boundary = (periods + 1) * every;
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
        // modes (the CI smoke gate byte-compares them).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::next_hop;

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
    fn wheel_stepping_is_bit_identical_to_dense() {
        // Flood an 8x8 fabric with a hotspot plus background flows, then
        // compare every delivery, the cycle count, the per-link counters
        // and the active-set histogram: it is sampled from queue state,
        // not from the scheduler's own work list.
        let run = |stepping: Stepping| {
            let mut fabric = Fabric::new(TileArray::new(8, 8), 2);
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
        let baseline = run(Stepping::Dense);
        assert!(baseline.6.count() > 0, "active-set samples recorded");
        assert_eq!(run(Stepping::Wheel), baseline);
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
        assert_eq!(fabric.stepping(), Stepping::Wheel);
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

    #[test]
    fn out_port_table_matches_next_hop() {
        for array in [
            TileArray::new(5, 5),
            TileArray::new(1, 7),
            TileArray::new(7, 1),
        ] {
            for tile in array.tiles() {
                for target in array.tiles() {
                    for net in [NetworkKind::Xy, NetworkKind::Yx] {
                        let expected = next_hop(tile, target, net).map_or(LOCAL, |nb| {
                            DIRECTIONS
                                .iter()
                                .position(|&dir| array.neighbor(tile, dir) == Some(nb))
                                .expect("the next hop is a neighbour")
                        });
                        assert_eq!(
                            usize::from(out_port_for(tile, target, net as usize)),
                            expected,
                            "{net}: {tile} -> {target} on {array}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invariant_checker_flags_a_corrupted_link_fifo() {
        let mut fabric = Fabric::new(TileArray::new(4, 4), 2);
        for _ in 0..3 {
            let p = direct_req(&mut fabric, (0, 0), (3, 0));
            assert!(fabric.inject(p));
        }
        fabric.tick();
        fabric.tick();
        assert_eq!(fabric.check_invariants(), Ok(()));
        // Tile (1, 0)'s west input has popped its first packet and holds
        // the second, in the FIFO's second slot.
        let (tile, port) = (1, 3);
        let clean = fabric.networks[0].routers[tile];
        assert_eq!((clean.link_head[port], clean.link_len[port]), (1, 1));
        let corrupt = |fabric: &mut Fabric, edit: fn(&mut Router)| {
            edit(&mut fabric.networks[0].routers[tile]);
            let err = fabric.check_invariants().expect_err("corruption caught");
            fabric.networks[0].routers[tile] = clean;
            err
        };
        let err = corrupt(&mut fabric, |r| r.link_head[3] = 2);
        assert!(err.contains("net 0 tile 1 port 3: head 2"), "{err}");
        let err = corrupt(&mut fabric, |r| r.link_len[3] = 3);
        assert!(
            err.contains("net 0 tile 1 port 3: head 1, length 3"),
            "{err}"
        );
        let err = corrupt(&mut fabric, |r| r.link_len[3] = 2);
        assert!(err.contains("net 0 tile 1: occ 1, 2 queued"), "{err}");
        assert_eq!(fabric.check_invariants(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "link FIFO depth must be in 1..=65535, got 0")]
    fn zero_depth_fabric_is_rejected() {
        let _ = Fabric::new(TileArray::new(4, 4), 0);
    }

    #[test]
    #[should_panic(expected = "link FIFO depth must be in 1..=65535, got 65536")]
    fn over_deep_fabric_is_rejected() {
        let _ = Fabric::new(TileArray::new(4, 4), 65_536);
    }
}
