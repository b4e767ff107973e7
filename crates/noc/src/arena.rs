//! The struct-of-arrays packet arena behind the fabric hot loop.
//!
//! A [`FabricPacket`] is ~48 bytes; the original fabric stored whole
//! packets in `VecDeque`s, so every hop copied the full struct and every
//! queue was its own heap allocation. [`PacketArena`] instead keeps each
//! field in its own parallel column (`id`, `src`, `dst`, `choice`, packed
//! kind/leg metadata, `injected_at`, and the current-leg route) and hands
//! out `u32` slot indices. The fabric's router FIFOs queue 16-byte
//! entries that carry the slot together with everything a hop needs (the
//! cached output port, the current-leg target and the hop count), so a
//! forward moves one entry and never touches the arena: the fabric reads
//! it only at injection, relay re-injection and delivery, where the hop
//! count comes back from the delivering entry
//! ([`PacketArena::take`]), and the per-field columns stay cache-linear
//! for the digest walk that scans whole queues.
//!
//! Freed slots go on a free list and are recycled by later allocations,
//! so a steady-state traffic mix reaches a fixed arena footprint and
//! never touches the allocator again — the property the zero-allocation
//! regression test pins.
//!
//! Indices are `u32`, not the `u16` a 2048-chiplet wafer's *link* FIFOs
//! would strictly need: `Fabric::inject_unbounded` places no cap on
//! response traffic buffered at a tile, so a saturated hot-spot run can
//! legitimately hold >64 Ki packets in flight.

use wsp_topo::TileCoord;

use crate::fabric::{FabricPacket, PacketKind};
use crate::kernel::NetworkChoice;
use crate::routing::NetworkKind;

/// Bit 0 of `meta`: set for a response, clear for a request.
const META_RESPONSE: u8 = 1;
/// Bit 1 of `meta`: the relay leg (0 or 1).
const META_LEG: u8 = 2;

/// The current-leg route of a packet, packed into one column element:
/// what the fabric reads to build a FIFO entry when the packet is
/// injected or starts its relay leg.
#[derive(Debug, Clone, Copy)]
struct HotRoute {
    /// The tile the packet is heading for on its *current* leg —
    /// `choice.leg_target(leg, dst)` materialised, so building an entry
    /// is a column load instead of an enum match.
    target: TileCoord,
    /// The network carrying the current leg, materialised likewise.
    net: NetworkKind,
}

/// A free-listed struct-of-arrays store of in-flight packets.
///
/// # Examples
///
/// ```
/// use wsp_noc::{FabricPacket, NetworkChoice, NetworkKind, PacketArena};
/// use wsp_topo::TileCoord;
///
/// let mut arena = PacketArena::default();
/// let packet = FabricPacket::request(
///     7,
///     TileCoord::new(0, 0),
///     TileCoord::new(3, 1),
///     NetworkChoice::Direct(NetworkKind::Xy),
///     0,
/// );
/// let slot = arena.alloc(&packet);
/// assert_eq!(arena.id(slot), 7);
/// assert_eq!(arena.leg_target(slot), TileCoord::new(3, 1));
/// assert_eq!(arena.network_of(slot), NetworkKind::Xy);
/// let out = arena.take(slot, 4);
/// assert_eq!(out.dst, TileCoord::new(3, 1));
/// assert_eq!(out.hops, 4);
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PacketArena {
    id: Vec<u64>,
    src: Vec<TileCoord>,
    dst: Vec<TileCoord>,
    choice: Vec<NetworkChoice>,
    /// Packed kind/leg bits; see [`META_RESPONSE`] and [`META_LEG`].
    meta: Vec<u8>,
    injected_at: Vec<u64>,
    /// Per-leg hot fields (current-leg target and network); see
    /// [`HotRoute`].
    route: Vec<HotRoute>,
    /// Slot indices available for reuse.
    free: Vec<u32>,
}

impl PacketArena {
    /// An arena with column capacity for `capacity` packets pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        PacketArena {
            id: Vec::with_capacity(capacity),
            src: Vec::with_capacity(capacity),
            dst: Vec::with_capacity(capacity),
            choice: Vec::with_capacity(capacity),
            meta: Vec::with_capacity(capacity),
            injected_at: Vec::with_capacity(capacity),
            route: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        }
    }

    /// Stores `packet`, returning its slot index. Recycles a freed slot
    /// when one is available; otherwise the columns grow by one.
    #[inline]
    pub fn alloc(&mut self, packet: &FabricPacket) -> u32 {
        let response = matches!(packet.kind, PacketKind::Response);
        let meta = ((response as u8) * META_RESPONSE) | ((packet.leg & 1) * META_LEG);
        let route = HotRoute {
            target: packet.choice.leg_target(packet.leg, packet.dst),
            net: packet.choice.leg_network(response, packet.leg),
        };
        match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.id[i] = packet.id;
                self.src[i] = packet.src;
                self.dst[i] = packet.dst;
                self.choice[i] = packet.choice;
                self.meta[i] = meta;
                self.injected_at[i] = packet.injected_at;
                self.route[i] = route;
                slot
            }
            None => {
                let slot = u32::try_from(self.id.len()).expect("arena slots fit in u32");
                self.id.push(packet.id);
                self.src.push(packet.src);
                self.dst.push(packet.dst);
                self.choice.push(packet.choice);
                self.meta.push(meta);
                self.injected_at.push(packet.injected_at);
                self.route.push(route);
                slot
            }
        }
    }

    /// Reconstructs the packet in `slot`, which has made `hops` link
    /// traversals (the fabric counts them in its FIFO entries), and
    /// returns the slot to the free list for reuse.
    #[inline]
    pub fn take(&mut self, slot: u32, hops: u32) -> FabricPacket {
        self.free.push(slot);
        let i = slot as usize;
        FabricPacket {
            id: self.id[i],
            src: self.src[i],
            dst: self.dst[i],
            choice: self.choice[i],
            kind: if self.meta[i] & META_RESPONSE != 0 {
                PacketKind::Response
            } else {
                PacketKind::Request
            },
            leg: (self.meta[i] & META_LEG) >> 1,
            injected_at: self.injected_at[i],
            hops,
        }
    }

    /// Caller-assigned packet id of `slot`.
    #[inline]
    pub fn id(&self, slot: u32) -> u64 {
        self.id[slot as usize]
    }

    /// Relay leg (0 or 1) of `slot`.
    #[inline]
    pub fn leg(&self, slot: u32) -> u8 {
        (self.meta[slot as usize] & META_LEG) >> 1
    }

    /// Routing decision of `slot`.
    #[inline]
    pub fn choice(&self, slot: u32) -> NetworkChoice {
        self.choice[slot as usize]
    }

    /// Moves `slot` onto relay leg `leg` (its route stays fixed),
    /// refreshing the materialised current-leg target and network.
    #[inline]
    pub fn set_leg(&mut self, slot: u32, leg: u8) {
        let i = slot as usize;
        let meta = &mut self.meta[i];
        *meta = (*meta & !META_LEG) | ((leg & 1) * META_LEG);
        let response = *meta & META_RESPONSE != 0;
        self.route[i].target = self.choice[i].leg_target(leg & 1, self.dst[i]);
        self.route[i].net = self.choice[i].leg_network(response, leg & 1);
    }

    /// The tile `slot` is currently heading for on its present leg.
    #[inline]
    pub fn leg_target(&self, slot: u32) -> TileCoord {
        self.route[slot as usize].target
    }

    /// The network carrying `slot`'s present leg.
    #[inline]
    pub fn network_of(&self, slot: u32) -> NetworkKind {
        self.route[slot as usize].net
    }

    /// Packets currently stored (allocated slots minus freed ones).
    pub fn live(&self) -> usize {
        self.id.len() - self.free.len()
    }

    /// Total slots ever allocated — the arena's high-water footprint.
    pub fn slots(&self) -> usize {
        self.id.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64) -> FabricPacket {
        FabricPacket::request(
            id,
            TileCoord::new(1, 2),
            TileCoord::new(5, 6),
            NetworkChoice::Direct(NetworkKind::Yx),
            42,
        )
    }

    #[test]
    fn round_trips_every_field() {
        let mut arena = PacketArena::default();
        let relay = FabricPacket::request(
            9,
            TileCoord::new(0, 0),
            TileCoord::new(7, 7),
            NetworkChoice::Relay {
                via: TileCoord::new(3, 3),
                first: NetworkKind::Xy,
                second: NetworkKind::Yx,
            },
            11,
        );
        let slot = arena.alloc(&relay);
        // Leg 0 of a relay heads for the via tile on its first network.
        assert_eq!(arena.leg_target(slot), TileCoord::new(3, 3));
        assert_eq!(arena.network_of(slot), NetworkKind::Xy);
        arena.set_leg(slot, 1);
        assert_eq!(arena.leg(slot), 1);
        assert_eq!(arena.leg_target(slot), TileCoord::new(7, 7));
        assert_eq!(arena.network_of(slot), NetworkKind::Yx);
        let got = arena.take(slot, 14);
        assert_eq!(got.id, 9);
        assert_eq!(got.src, TileCoord::new(0, 0));
        assert_eq!(got.dst, TileCoord::new(7, 7));
        assert_eq!(got.choice, relay.choice);
        assert_eq!(got.kind, PacketKind::Request);
        assert_eq!(got.leg, 1);
        assert_eq!(got.injected_at, 11);
        assert_eq!(got.hops, 14);
    }

    #[test]
    fn freed_slots_are_recycled_before_growth() {
        let mut arena = PacketArena::default();
        let a = arena.alloc(&packet(0));
        let b = arena.alloc(&packet(1));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(a, 0).id, 0);
        assert_eq!(arena.live(), 1);
        let c = arena.alloc(&packet(2));
        assert_eq!(c, a, "freed slot reused");
        assert_eq!(arena.slots(), 2, "no growth while a slot is free");
        assert_eq!(arena.id(b), 1);
        assert_eq!(arena.id(c), 2);
    }

    #[test]
    fn steady_churn_reaches_a_fixed_footprint() {
        let mut arena = PacketArena::with_capacity(8);
        let mut slots = Vec::new();
        for round in 0..100u64 {
            for k in 0..8 {
                slots.push(arena.alloc(&packet(round * 8 + k)));
            }
            for slot in slots.drain(..) {
                arena.take(slot, 0);
            }
        }
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.slots(), 8, "footprint pinned at the peak in-flight");
    }

    #[test]
    fn responses_keep_their_kind_through_the_arena() {
        let mut arena = PacketArena::default();
        let req = packet(3);
        let resp = FabricPacket::response(&req);
        let slot = arena.alloc(&resp);
        // A direct response rides the complementary network.
        assert_eq!(arena.network_of(slot), NetworkKind::Xy);
        let got = arena.take(slot, 0);
        assert_eq!(got.kind, PacketKind::Response);
        assert_eq!(got.src, req.dst);
        assert_eq!(got.dst, req.src);
    }
}
