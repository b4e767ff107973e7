//! `SpecFabric`: a deliberately naive reference model of the dual-network
//! fabric, the oracle the differential tests hold [`wsp_noc::Fabric`] to.
//!
//! It encodes the arbitration contract (DESIGN.md § Simulator internals)
//! directly, with none of the engine's machinery — no packet arena, ring
//! entries, cached head routes, FIFO-length mirrors, pop stamps or
//! occupancy bitsets. Each (network, tile, port) is a `VecDeque` of
//! packets, and every tick runs over the full array in two phases:
//!
//! - *Plan*: each output port of each tile grants one input FIFO head
//!   routed to it, round-robin from the port's pointer. Planning reads
//!   only pre-cycle queue heads, queue lengths and pointers. A grant to a
//!   link whose downstream FIFO is full at the start of the cycle is a
//!   stall, even if that FIFO drains in the same cycle.
//! - *Apply*: moves commit in `(network, tile, output port)` order. A
//!   pointer moves to `winner + 1` only on a grant. Link arrivals land
//!   after the whole plan has been applied.
//! - *Eject*: packets that reached the end of their leg resolve after
//!   both networks. A relay's first leg re-enters the via tile's local
//!   queue with no capacity check; everything else is delivered.
//!
//! Injection is refused once the source's local queue holds `4 ×
//! capacity` packets; `inject_unbounded` never refuses. Routing is
//! dimension-ordered, computed here from coordinates.

use std::collections::VecDeque;

use wsp_noc::{FabricPacket, LinkStats, NetworkChoice, NetworkKind, PacketKind};
use wsp_topo::{TileArray, TileCoord};

/// Port indices: the four link sides in `wsp_topo::DIRECTIONS` order,
/// then the local injection/ejection port.
const NORTH: usize = 0;
const SOUTH: usize = 1;
const EAST: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;

/// The input side a packet leaving through `out` arrives on.
fn opposite(out: usize) -> usize {
    [SOUTH, NORTH, WEST, EAST][out]
}

fn net_index(net: NetworkKind) -> usize {
    match net {
        NetworkKind::Xy => 0,
        NetworkKind::Yx => 1,
    }
}

fn other(net: NetworkKind) -> NetworkKind {
    match net {
        NetworkKind::Xy => NetworkKind::Yx,
        NetworkKind::Yx => NetworkKind::Xy,
    }
}

/// The output port a packet at `here` heading for `target` on `net`
/// takes: the dimension `net` routes first while it differs, then the
/// other, then the local port.
fn out_port(here: TileCoord, target: TileCoord, net: NetworkKind) -> usize {
    let along_x = match target.x.cmp(&here.x) {
        std::cmp::Ordering::Greater => Some(EAST),
        std::cmp::Ordering::Less => Some(WEST),
        std::cmp::Ordering::Equal => None,
    };
    let along_y = match target.y.cmp(&here.y) {
        std::cmp::Ordering::Greater => Some(SOUTH),
        std::cmp::Ordering::Less => Some(NORTH),
        std::cmp::Ordering::Equal => None,
    };
    let (first, second) = match net {
        NetworkKind::Xy => (along_x, along_y),
        NetworkKind::Yx => (along_y, along_x),
    };
    first.or(second).unwrap_or(LOCAL)
}

/// The tile one hop from `here` through link port `out`.
fn neighbour(here: TileCoord, out: usize) -> TileCoord {
    match out {
        NORTH => TileCoord::new(here.x, here.y - 1),
        SOUTH => TileCoord::new(here.x, here.y + 1),
        EAST => TileCoord::new(here.x + 1, here.y),
        _ => TileCoord::new(here.x - 1, here.y),
    }
}

/// A queued packet and the leg of its route it is on.
#[derive(Clone, Copy)]
struct Flit {
    packet: FabricPacket,
    leg: u8,
}

impl Flit {
    /// The network carrying the present leg. Responses retrace their
    /// request's legs in reverse on the complementary networks.
    fn network(&self) -> NetworkKind {
        let response = self.packet.kind == PacketKind::Response;
        match (self.packet.choice, response, self.leg) {
            (NetworkChoice::Direct(net), false, _) => net,
            (NetworkChoice::Direct(net), true, _) => other(net),
            (NetworkChoice::Relay { first, .. }, false, 0) => first,
            (NetworkChoice::Relay { second, .. }, false, _) => second,
            (NetworkChoice::Relay { second, .. }, true, 0) => other(second),
            (NetworkChoice::Relay { first, .. }, true, _) => other(first),
            (NetworkChoice::Disconnected, ..) => unreachable!("never injected"),
        }
    }

    /// Where the present leg ends.
    fn target(&self) -> TileCoord {
        match self.packet.choice {
            NetworkChoice::Relay { via, .. } if self.leg == 0 => via,
            _ => self.packet.dst,
        }
    }
}

/// One planned decision for one output port.
enum Move {
    Eject {
        tile: usize,
        port: usize,
    },
    Forward {
        tile: usize,
        port: usize,
        out: usize,
        to: usize,
    },
    Stall {
        tile: usize,
        out: usize,
    },
}

/// The reference fabric; see the module docs for its contract.
pub struct SpecFabric {
    array: TileArray,
    capacity: usize,
    /// `queues[net][tile][port]`.
    queues: [Vec<[VecDeque<Flit>; 5]>; 2],
    /// `rr[net][tile][output port]`: the input port scanned first.
    rr: [Vec<[usize; 5]>; 2],
    /// `links[net][tile][direction]`, for the link leaving `tile`.
    links: [Vec<[LinkStats; 4]>; 2],
    cycle: u64,
    link_traversals: u64,
    relay_forwards: u64,
}

impl SpecFabric {
    /// An empty fabric over `array` with link FIFOs of depth `capacity`.
    pub fn new(array: TileArray, capacity: usize) -> Self {
        let tiles = array.tile_count();
        let queues = || (0..tiles).map(|_| Default::default()).collect();
        SpecFabric {
            array,
            capacity,
            queues: [queues(), queues()],
            rr: [vec![[0; 5]; tiles], vec![[0; 5]; tiles]],
            links: [
                vec![[LinkStats::default(); 4]; tiles],
                vec![[LinkStats::default(); 4]; tiles],
            ],
            cycle: 0,
            link_traversals: 0,
            relay_forwards: 0,
        }
    }

    fn local_queue(&mut self, flit: &Flit, at: TileCoord) -> &mut VecDeque<Flit> {
        let tile = self.array.index_of(at);
        &mut self.queues[net_index(flit.network())][tile][LOCAL]
    }

    /// Queues `packet` at its source unless the local queue holds
    /// `4 × capacity` packets already.
    pub fn inject(&mut self, packet: FabricPacket) -> bool {
        let flit = Flit { packet, leg: 0 };
        let limit = 4 * self.capacity;
        let queue = self.local_queue(&flit, packet.src);
        let accepted = queue.len() < limit;
        if accepted {
            queue.push_back(flit);
        }
        accepted
    }

    /// Queues `packet` at its source with no capacity check.
    pub fn inject_unbounded(&mut self, packet: FabricPacket) {
        let flit = Flit { packet, leg: 0 };
        self.local_queue(&flit, packet.src).push_back(flit);
    }

    /// Packets queued anywhere.
    pub fn in_flight(&self) -> usize {
        self.queues
            .iter()
            .flatten()
            .flatten()
            .map(VecDeque::len)
            .sum()
    }

    /// Plans one network against the pre-cycle state.
    fn plan(&self, net: usize) -> Vec<Move> {
        let mut moves = Vec::new();
        for tile in 0..self.array.tile_count() {
            let here = self.array.coord_of(tile);
            let wants: Vec<Option<usize>> = self.queues[net][tile]
                .iter()
                .map(|queue| {
                    queue
                        .front()
                        .map(|flit| out_port(here, flit.target(), flit.network()))
                })
                .collect();
            for out in 0..5 {
                let start = self.rr[net][tile][out];
                let Some(port) = (0..5)
                    .map(|k| (start + k) % 5)
                    .find(|&port| wants[port] == Some(out))
                else {
                    continue;
                };
                if out == LOCAL {
                    moves.push(Move::Eject { tile, port });
                    continue;
                }
                let to = self.array.index_of(neighbour(here, out));
                if self.queues[net][to][opposite(out)].len() < self.capacity {
                    moves.push(Move::Forward {
                        tile,
                        port,
                        out,
                        to,
                    });
                } else {
                    moves.push(Move::Stall { tile, out });
                }
            }
        }
        moves
    }

    /// Advances one cycle and returns the packets delivered at their
    /// final destination, in `(network, tile)` order.
    pub fn tick(&mut self) -> Vec<FabricPacket> {
        self.cycle += 1;
        let plans = [self.plan(0), self.plan(1)];
        let mut arrivals = Vec::new();
        let mut ejected = Vec::new();
        for (net, moves) in plans.into_iter().enumerate() {
            for mv in moves {
                match mv {
                    Move::Eject { tile, port } => {
                        let flit = self.queues[net][tile][port].pop_front().expect("head");
                        self.rr[net][tile][LOCAL] = (port + 1) % 5;
                        ejected.push(flit);
                    }
                    Move::Forward {
                        tile,
                        port,
                        out,
                        to,
                    } => {
                        let mut flit = self.queues[net][tile][port].pop_front().expect("head");
                        flit.packet.hops += 1;
                        self.rr[net][tile][out] = (port + 1) % 5;
                        arrivals.push((net, tile, out, to, flit));
                    }
                    Move::Stall { tile, out } => self.links[net][tile][out].stall_cycles += 1,
                }
            }
        }
        for (net, tile, out, to, flit) in arrivals {
            let queue = &mut self.queues[net][to][opposite(out)];
            queue.push_back(flit);
            let link = &mut self.links[net][tile][out];
            link.forwarded += 1;
            link.peak_occupancy = link.peak_occupancy.max(queue.len());
            self.link_traversals += 1;
        }
        let mut delivered = Vec::new();
        for mut flit in ejected {
            match flit.packet.choice {
                NetworkChoice::Relay { via, .. } if flit.leg == 0 => {
                    flit.leg = 1;
                    self.relay_forwards += 1;
                    self.local_queue(&flit, via).push_back(flit);
                }
                _ => delivered.push(flit.packet),
            }
        }
        delivered
    }

    /// Cycles ticked.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Link traversals so far.
    pub fn link_traversals(&self) -> u64 {
        self.link_traversals
    }

    /// Relay re-entries so far.
    pub fn relay_forwards(&self) -> u64 {
        self.relay_forwards
    }

    /// Stall cycles summed over every link.
    pub fn total_stall_cycles(&self) -> u64 {
        self.links
            .iter()
            .flatten()
            .flatten()
            .map(|link| link.stall_cycles)
            .sum()
    }

    /// Counters of the link leaving `tile` through side `dir` (an index
    /// into `wsp_topo::DIRECTIONS`) on `net`.
    pub fn link_stats(&self, net: NetworkKind, tile: TileCoord, dir: usize) -> LinkStats {
        self.links[net_index(net)][self.array.index_of(tile)][dir]
    }
}

#[cfg(test)]
mod tests {
    //! Hand-computed cases that pin the model itself.

    use super::*;

    fn request(id: u64, src: (u16, u16), dst: (u16, u16), choice: NetworkChoice) -> FabricPacket {
        FabricPacket::request(
            id,
            TileCoord::new(src.0, src.1),
            TileCoord::new(dst.0, dst.1),
            choice,
            0,
        )
    }

    const XY: NetworkChoice = NetworkChoice::Direct(NetworkKind::Xy);

    /// Ticks until empty, returning `(cycle, id, hops)` per delivery.
    fn drain(spec: &mut SpecFabric) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while spec.in_flight() > 0 {
            for p in spec.tick() {
                out.push((spec.cycle(), p.id, p.hops));
            }
        }
        out
    }

    #[test]
    fn single_packet_arrives_one_cycle_after_its_last_hop() {
        // Three hops east, two south, then one cycle to eject.
        let mut spec = SpecFabric::new(TileArray::new(4, 4), 4);
        assert!(spec.inject(request(7, (0, 0), (3, 2), XY)));
        assert_eq!(drain(&mut spec), vec![(6, 7, 5)]);
        assert_eq!(spec.link_traversals(), 5);
        let east = spec.link_stats(NetworkKind::Xy, TileCoord::new(2, 0), EAST);
        assert_eq!((east.forwarded, east.peak_occupancy), (1, 1));
        let south = spec.link_stats(NetworkKind::Xy, TileCoord::new(3, 0), SOUTH);
        assert_eq!(south.forwarded, 1);
    }

    #[test]
    fn two_heads_alternate_on_one_port_under_round_robin() {
        // Tile (1,0)'s east port is wanted by its west input (A from
        // (0,0)) and its local queue (B). Its pointer starts at 0 and
        // moves past each winner, so from cycle 2 on the grants
        // alternate W (3), local (4), W, local.
        let mut spec = SpecFabric::new(TileArray::new(3, 1), 4);
        for id in 0..3 {
            assert!(spec.inject(request(id, (0, 0), (2, 0), XY)));
        }
        for id in 10..13 {
            assert!(spec.inject(request(id, (1, 0), (2, 0), XY)));
        }
        assert_eq!(
            drain(&mut spec),
            vec![
                (2, 10, 1),
                (3, 0, 2),
                (4, 11, 1),
                (5, 1, 2),
                (6, 12, 1),
                (7, 2, 2),
            ]
        );
        assert_eq!(spec.total_stall_cycles(), 0);
    }

    #[test]
    fn a_full_fifo_stalls_its_link_even_while_it_drains() {
        // Depth 1, heading west. In cycle 2 tile (1,0) forwards P0 out of
        // its east FIFO, but (2,0) judged that FIFO on its pre-cycle
        // length (full), so P1 stalls one cycle.
        let mut spec = SpecFabric::new(TileArray::new(3, 1), 1);
        assert!(spec.inject(request(0, (2, 0), (0, 0), XY)));
        assert!(spec.inject(request(1, (2, 0), (0, 0), XY)));
        assert_eq!(drain(&mut spec), vec![(3, 0, 2), (5, 1, 2)]);
        let stalled = spec.link_stats(NetworkKind::Xy, TileCoord::new(2, 0), WEST);
        assert_eq!((stalled.forwarded, stalled.stall_cycles), (2, 1));
        assert_eq!(stalled.peak_occupancy, 1);
        assert_eq!(spec.total_stall_cycles(), 1);
        // Injection refuses at four times the link depth.
        for id in 0..4 {
            assert!(spec.inject(request(id, (0, 0), (2, 0), XY)));
        }
        assert!(!spec.inject(request(4, (0, 0), (2, 0), XY)));
        spec.inject_unbounded(request(5, (0, 0), (2, 0), XY));
        assert_eq!(spec.in_flight(), 5);
    }

    #[test]
    fn a_relay_re_enters_at_its_via_tile() {
        // Leg 0 on X-Y to (2,0) ejects in cycle 3 and re-enters (2,0)'s
        // Y-X local queue, then leg 1 runs south for two hops.
        let choice = NetworkChoice::Relay {
            via: TileCoord::new(2, 0),
            first: NetworkKind::Xy,
            second: NetworkKind::Yx,
        };
        let mut spec = SpecFabric::new(TileArray::new(4, 4), 4);
        assert!(spec.inject(request(3, (0, 0), (2, 2), choice)));
        for _ in 0..3 {
            assert!(spec.tick().is_empty());
        }
        assert_eq!(spec.relay_forwards(), 1);
        assert_eq!(spec.queues[1][2][LOCAL].len(), 1, "re-entered on Y-X");
        assert_eq!(drain(&mut spec), vec![(6, 3, 4)]);
        let leg0 = spec.link_stats(NetworkKind::Xy, TileCoord::new(1, 0), EAST);
        let leg1 = spec.link_stats(NetworkKind::Yx, TileCoord::new(2, 1), SOUTH);
        assert_eq!((leg0.forwarded, leg1.forwarded), (1, 1));
    }
}
