//! Kernel-software routing policy (Sec. VI).
//!
//! The hardware gives every tile two deterministic networks; *software*
//! decides which one each source-destination pair uses. After assembly the
//! fault map is known, and the kernel:
//!
//! 1. picks the only healthy network when just one direct path survives;
//! 2. balances pairs across both networks when both paths are healthy
//!    (deterministically, so every packet of a pair rides the same network
//!    and packet order is preserved);
//! 3. relays through an intermediate tile when both direct paths are
//!    broken — the intermediate tile's cores spend cycles forwarding, so
//!    this is a last resort the dual-network design makes rare.

use std::collections::HashMap;
use std::fmt;
use std::sync::RwLock;

use serde::{Deserialize, Serialize};
use wsp_topo::{FaultMap, TileArray, TileCoord};

use crate::connectivity::SegmentOracle;
use crate::routing::NetworkKind;

/// The kernel's routing decision for one source-destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkChoice {
    /// Send directly on the given network (response returns on its
    /// complement along the same tiles).
    Direct(NetworkKind),
    /// Relay via an intermediate tile: `first` carries source→via,
    /// `second` carries via→destination. The response retraces the same
    /// two legs on the complementary networks.
    Relay {
        /// The forwarding tile.
        via: TileCoord,
        /// Network for the source→via leg.
        first: NetworkKind,
        /// Network for the via→destination leg.
        second: NetworkKind,
    },
    /// No healthy one- or two-leg path exists.
    Disconnected,
}

impl NetworkChoice {
    /// The tile a packet on leg `leg` of this choice heads for, given its
    /// final destination `dst`: relay routes aim at the `via` tile on leg
    /// 0, every other case aims at `dst`. Requests and responses agree —
    /// a response retraces the same two legs in reverse order, so its
    /// leg-0 target is the same intermediate tile.
    ///
    /// This lives on the choice (not the packet) so the fabric's
    /// struct-of-arrays packet arena can answer route queries from its
    /// parallel columns without materialising a packet.
    #[inline]
    pub fn leg_target(self, leg: u8, dst: TileCoord) -> TileCoord {
        match (self, leg) {
            (NetworkChoice::Relay { via, .. }, 0) => via,
            _ => dst,
        }
    }

    /// The network carrying leg `leg`. A `response` retraces the
    /// request's physical path in reverse on the complementary networks.
    ///
    /// # Panics
    ///
    /// Panics on [`NetworkChoice::Disconnected`]: unreachable pairs are
    /// rejected before any routing question is asked.
    #[inline]
    pub fn leg_network(self, response: bool, leg: u8) -> NetworkKind {
        match (self, response, leg) {
            (NetworkChoice::Direct(n), false, _) => n,
            (NetworkChoice::Direct(n), true, _) => n.complement(),
            (NetworkChoice::Relay { first, .. }, false, 0) => first,
            (NetworkChoice::Relay { second, .. }, false, _) => second,
            // Response retraces: leg 0 is dst→via on second's complement,
            // leg 1 is via→src on first's complement.
            (NetworkChoice::Relay { second, .. }, true, 0) => second.complement(),
            (NetworkChoice::Relay { first, .. }, true, _) => first.complement(),
            (NetworkChoice::Disconnected, _, _) => {
                unreachable!("disconnected packets are never routed")
            }
        }
    }
}

impl fmt::Display for NetworkChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkChoice::Direct(n) => write!(f, "direct on {n}"),
            NetworkChoice::Relay { via, .. } => write!(f, "relay via {via}"),
            NetworkChoice::Disconnected => f.write_str("disconnected"),
        }
    }
}

/// Plans per-pair network assignments over a known fault map.
///
/// A pair with no healthy direct path is relayed through the tile that
/// adds the fewest hops, ties broken by the lowest row-major index. The
/// search walks rings of tiles outward from the pair's bounding box,
/// nearest first, so its cost grows with the detour, not with the wafer.
///
/// Relay decisions are also memoised per ordered pair on first query:
/// they are a pure function of the fault map, and a machine asks the
/// same few relayed pairs on every remote access between them (a
/// full-wafer machine run asks tens of thousands of relay queries of a
/// few hundred pairs), while a pair with no relay at all still probes
/// every tile. Pairs with a direct path never touch the memo. The memo
/// sits behind a lock so one planner can be shared across threads.
///
/// # Examples
///
/// ```
/// use wsp_noc::{NetworkChoice, RoutePlanner};
/// use wsp_topo::{FaultMap, TileArray, TileCoord};
///
/// let planner = RoutePlanner::new(FaultMap::none(TileArray::new(8, 8)));
/// let choice = planner.choose(TileCoord::new(0, 0), TileCoord::new(5, 5));
/// assert!(matches!(choice, NetworkChoice::Direct(_)));
/// ```
#[derive(Debug)]
pub struct RoutePlanner {
    faults: FaultMap,
    oracle: SegmentOracle,
    /// [`RoutePlanner::find_relay`]'s answer for every pair asked so far
    /// that has no healthy direct path.
    relays: RwLock<HashMap<(TileCoord, TileCoord), NetworkChoice>>,
}

impl Clone for RoutePlanner {
    fn clone(&self) -> Self {
        RoutePlanner {
            faults: self.faults.clone(),
            oracle: self.oracle.clone(),
            relays: RwLock::new(
                self.relays
                    .read()
                    .expect("relay memo lock poisoned")
                    .clone(),
            ),
        }
    }
}

impl RoutePlanner {
    /// Creates a planner for the given post-assembly fault map.
    pub fn new(faults: FaultMap) -> Self {
        let oracle = SegmentOracle::new(&faults);
        RoutePlanner {
            faults,
            oracle,
            relays: RwLock::new(HashMap::new()),
        }
    }

    /// The fault map the planner consults.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// The kernel's decision for the pair `(src, dst)`.
    ///
    /// Both endpoints must be healthy for any communication; a faulty
    /// endpoint yields [`NetworkChoice::Disconnected`].
    ///
    /// # Panics
    ///
    /// Panics if either tile lies outside the array.
    pub fn choose(&self, src: TileCoord, dst: TileCoord) -> NetworkChoice {
        if src == dst || self.faults.is_faulty(src) || self.faults.is_faulty(dst) {
            return NetworkChoice::Disconnected;
        }
        let xy = self.oracle.xy_connected(src, dst);
        let yx = self.oracle.yx_connected(src, dst);
        match (xy, yx) {
            (true, true) => NetworkChoice::Direct(self.balance(src, dst)),
            (true, false) => NetworkChoice::Direct(NetworkKind::Xy),
            (false, true) => NetworkChoice::Direct(NetworkKind::Yx),
            (false, false) => self.memoised_relay(src, dst),
        }
    }

    /// [`RoutePlanner::find_relay`] through the per-pair memo. Two threads
    /// missing on the same pair both search and store the same answer.
    /// Kept out of line: relays are the rare last resort, and the direct
    /// arms of [`RoutePlanner::choose`] stay compact.
    #[cold]
    #[inline(never)]
    fn memoised_relay(&self, src: TileCoord, dst: TileCoord) -> NetworkChoice {
        let memoised = self
            .relays
            .read()
            .expect("relay memo lock poisoned")
            .get(&(src, dst))
            .copied();
        if let Some(choice) = memoised {
            return choice;
        }
        let choice = self.find_relay(src, dst);
        self.relays
            .write()
            .expect("relay memo lock poisoned")
            .insert((src, dst), choice);
        choice
    }

    /// Deterministic load balancing: pairs hash onto the two networks so
    /// aggregate utilisation is even while any one pair always uses the
    /// same network (preserving packet order).
    fn balance(&self, src: TileCoord, dst: TileCoord) -> NetworkKind {
        let h = (u64::from(src.x) ^ u64::from(dst.y).rotate_left(16))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(src.y) ^ u64::from(dst.x).rotate_left(32))
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        if h & 1 == 0 {
            NetworkKind::Xy
        } else {
            NetworkKind::Yx
        }
    }

    /// Searches for a relay tile with healthy legs to both endpoints: the
    /// one adding the fewest extra hops, ties broken by the lowest
    /// row-major index. Each leg rides X-Y when that path is healthy,
    /// else Y-X. Candidates are probed ring by ring outward from the
    /// pair's bounding box ([`ring_order`]), so the search stops in the
    /// first ring that holds a relay instead of scanning the wafer.
    fn find_relay(&self, src: TileCoord, dst: TileCoord) -> NetworkChoice {
        self.relay_search(src, dst).0
    }

    /// [`RoutePlanner::find_relay`]'s answer and the number of tiles
    /// probed to find it.
    ///
    /// Probes follow [`ring_order`], so the first tile that is neither
    /// endpoint, is healthy and has a healthy leg each way is the
    /// fewest-hop relay with the lowest row-major index. The cost grows
    /// with the detour: a pair relayed one row over probes its bounding
    /// box and the ring around it, and only a pair with no relay at all
    /// probes the whole array.
    fn relay_search(&self, src: TileCoord, dst: TileCoord) -> (NetworkChoice, usize) {
        let mut probes = 0;
        for via in ring_order(self.faults.array(), src, dst) {
            probes += 1;
            if via == src || via == dst || self.faults.is_faulty(via) {
                continue;
            }
            if let Some(first) = self.leg(src, via) {
                if let Some(second) = self.leg(via, dst) {
                    return (NetworkChoice::Relay { via, first, second }, probes);
                }
            }
        }
        (NetworkChoice::Disconnected, probes)
    }

    /// The network of a healthy direct path `from → to`, X-Y first.
    fn leg(&self, from: TileCoord, to: TileCoord) -> Option<NetworkKind> {
        if self.oracle.xy_connected(from, to) {
            Some(NetworkKind::Xy)
        } else if self.oracle.yx_connected(from, to) {
            Some(NetworkKind::Yx)
        } else {
            None
        }
    }

    /// Builds the full routing table for every ordered healthy pair.
    pub fn build_table(&self) -> RoutingTable {
        let mut entries = HashMap::new();
        let healthy: Vec<TileCoord> = self.faults.healthy_tiles().collect();
        for &s in &healthy {
            for &d in &healthy {
                if s != d {
                    entries.insert((s, d), self.choose(s, d));
                }
            }
        }
        RoutingTable { entries }
    }
}

/// Every tile of `array` in order of the hops a relay through it costs
/// the pair `(src, dst)`, ties in row-major order.
///
/// A relay at L1 distance `k` from the pair's bounding box costs
/// `manhattan(src, dst) + 2k` hops, so ring `k` holds the tiles of one
/// cost. Rings run from 0 (the box itself) out to the array edge, each
/// in row-major order, and every tile sits in exactly one of them. In a
/// row at distance `dy` from the box, ring `k` holds the box's columns
/// when `dy == k`, else the columns `k - dy` west and east of the box
/// that lie inside the array.
fn ring_order(array: TileArray, src: TileCoord, dst: TileCoord) -> impl Iterator<Item = TileCoord> {
    let (cols, rows) = (i64::from(array.cols()), i64::from(array.rows()));
    let (x0, x1) = (i64::from(src.x.min(dst.x)), i64::from(src.x.max(dst.x)));
    let (y0, y1) = (i64::from(src.y.min(dst.y)), i64::from(src.y.max(dst.y)));
    let last_ring = x0.max(cols - 1 - x1) + y0.max(rows - 1 - y1);
    (0..=last_ring).flat_map(move |k| {
        ((y0 - k).max(0)..=(y1 + k).min(rows - 1)).flat_map(move |y| {
            let dx = k - (y0 - y).max(y - y1).max(0);
            let (west, east) = (x0 - dx, x1 + dx);
            // The whole span when dx == 0, else only its two ends.
            let step = if dx == 0 { 1 } else { east - west };
            (west..=east)
                .step_by(step as usize)
                .filter(move |x| (0..cols).contains(x))
                .map(move |x| TileCoord::new(x as u16, y as u16))
        })
    })
}

/// The kernel's materialised per-pair routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    entries: HashMap<(TileCoord, TileCoord), NetworkChoice>,
}

impl RoutingTable {
    /// The decision for a pair, if the pair is in the table.
    pub fn get(&self, src: TileCoord, dst: TileCoord) -> Option<NetworkChoice> {
        self.entries.get(&(src, dst)).copied()
    }

    /// Number of pairs in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counts of `(direct XY, direct YX, relayed, disconnected)` pairs —
    /// the balance statistic the kernel aims to keep even.
    pub fn utilization(&self) -> (usize, usize, usize, usize) {
        let mut xy = 0;
        let mut yx = 0;
        let mut relay = 0;
        let mut dead = 0;
        for choice in self.entries.values() {
            match choice {
                NetworkChoice::Direct(NetworkKind::Xy) => xy += 1,
                NetworkChoice::Direct(NetworkKind::Yx) => yx += 1,
                NetworkChoice::Relay { .. } => relay += 1,
                NetworkChoice::Disconnected => dead += 1,
            }
        }
        (xy, yx, relay, dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::seeded_rng;

    #[test]
    fn clean_wafer_all_direct_and_balanced() {
        let planner = RoutePlanner::new(FaultMap::none(TileArray::new(16, 16)));
        let table = planner.build_table();
        let (xy, yx, relay, dead) = table.utilization();
        assert_eq!(relay, 0);
        assert_eq!(dead, 0);
        let total = (xy + yx) as f64;
        let balance = xy as f64 / total;
        // Hash balancing should be near 50/50 (Sec. VI: "both the networks
        // are equally utilized").
        assert!(
            (0.45..0.55).contains(&balance),
            "XY share {balance:.3} not balanced"
        );
    }

    #[test]
    fn single_surviving_path_is_used() {
        let array = TileArray::new(8, 8);
        // Fault at (4,0) kills the XY path (row 0 first) from (0,0)→(7,7).
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [TileCoord::new(4, 0)]));
        let choice = planner.choose(TileCoord::new(0, 0), TileCoord::new(7, 7));
        assert_eq!(choice, NetworkChoice::Direct(NetworkKind::Yx));
        // The reverse direction's XY path also avoids row 0 → both healthy.
        let reverse = planner.choose(TileCoord::new(7, 7), TileCoord::new(0, 0));
        assert!(matches!(reverse, NetworkChoice::Direct(_)));
    }

    #[test]
    fn pair_choice_is_stable() {
        // Packet consistency demands one network per pair: repeated calls
        // must return the same choice.
        let planner = RoutePlanner::new(FaultMap::none(TileArray::new(8, 8)));
        let s = TileCoord::new(1, 2);
        let d = TileCoord::new(6, 5);
        let first = planner.choose(s, d);
        for _ in 0..10 {
            assert_eq!(planner.choose(s, d), first);
        }
    }

    #[test]
    fn colinear_pair_with_blocked_row_gets_relayed() {
        let array = TileArray::new(8, 8);
        // (0,3)→(7,3) same row; block the row in between: both DoR paths
        // (identical for colinear pairs) die, but a relay through another
        // row reconnects them.
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [TileCoord::new(4, 3)]));
        let choice = planner.choose(TileCoord::new(0, 3), TileCoord::new(7, 3));
        match choice {
            NetworkChoice::Relay { via, .. } => assert!(via.y != 3 || via.x > 4 || via.x < 4),
            other => panic!("expected relay, got {other:?}"),
        }
    }

    #[test]
    fn relay_prefers_minimal_detour() {
        let array = TileArray::new(8, 8);
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [TileCoord::new(4, 3)]));
        let s = TileCoord::new(0, 3);
        let d = TileCoord::new(7, 3);
        // Every tile one row over adds the minimal 2 hops; the lowest
        // row-major index among them is the row above's first tile, and
        // both its legs are healthy on X-Y.
        assert_eq!(
            planner.choose(s, d),
            NetworkChoice::Relay {
                via: TileCoord::new(0, 2),
                first: NetworkKind::Xy,
                second: NetworkKind::Xy,
            }
        );
    }

    /// The relay search as a scan of every healthy tile that keeps the
    /// first fewest-hop relay in row-major order: the oracle for
    /// [`RoutePlanner::relay_search`]. Every ordered tile pair's leg is
    /// tabulated up front, so a debug build scans all the row and column
    /// pairs of a 32×32 wafer in seconds.
    struct RelayScan {
        array: TileArray,
        /// Row-major index and coordinate of every healthy tile.
        healthy: Vec<(usize, TileCoord)>,
        /// `from[a * tiles + b]`: the network of a healthy direct path
        /// from tile `a` to tile `b`, X-Y first.
        from: Vec<Option<NetworkKind>>,
        /// `into[b * tiles + a]`: the same leg, indexed by its end.
        into: Vec<Option<NetworkKind>>,
    }

    impl RelayScan {
        fn new(planner: &RoutePlanner) -> Self {
            let (array, oracle) = (planner.faults.array(), &planner.oracle);
            let tiles = array.tile_count();
            let from: Vec<Option<NetworkKind>> = array
                .tiles()
                .flat_map(|a| array.tiles().map(move |b| (a, b)))
                .map(|(a, b)| {
                    if oracle.xy_connected(a, b) {
                        Some(NetworkKind::Xy)
                    } else if oracle.yx_connected(a, b) {
                        Some(NetworkKind::Yx)
                    } else {
                        None
                    }
                })
                .collect();
            let into = (0..tiles * tiles)
                .map(|i| from[(i % tiles) * tiles + i / tiles])
                .collect();
            let healthy = planner
                .faults
                .healthy_tiles()
                .map(|t| (array.index_of(t), t))
                .collect();
            RelayScan {
                array,
                healthy,
                from,
                into,
            }
        }

        /// The scan's relay for `(src, dst)` and the number of tiles it
        /// scanned.
        fn relay(&self, src: TileCoord, dst: TileCoord) -> (NetworkChoice, usize) {
            let tiles = self.array.tile_count();
            let (s, d) = (self.array.index_of(src), self.array.index_of(dst));
            let (from, into) = (
                &self.from[s * tiles..][..tiles],
                &self.into[d * tiles..][..tiles],
            );
            let mut best: Option<(u32, NetworkChoice)> = None;
            for &(v, via) in &self.healthy {
                if v == s || v == d {
                    continue;
                }
                if let (Some(first), Some(second)) = (from[v], into[v]) {
                    let hops = src.manhattan_distance(via) + via.manhattan_distance(dst);
                    match &best {
                        Some((best_hops, _)) if *best_hops <= hops => {}
                        _ => best = Some((hops, NetworkChoice::Relay { via, first, second })),
                    }
                }
            }
            let choice = best.map_or(NetworkChoice::Disconnected, |(_, c)| c);
            (choice, self.healthy.len())
        }
    }

    /// Asserts the ring search and the scan agree on every pair, and
    /// returns how many of their answers were relays and how many
    /// disconnected.
    fn assert_search_matches_scan(
        planner: &RoutePlanner,
        pairs: impl IntoIterator<Item = (TileCoord, TileCoord)>,
    ) -> (usize, usize) {
        let scan = RelayScan::new(planner);
        let tiles = planner.faults.array().tile_count();
        let (mut relayed, mut dead) = (0, 0);
        for (s, d) in pairs {
            let (got, probes) = planner.relay_search(s, d);
            assert_eq!(got, scan.relay(s, d).0, "{s}->{d} on {}", scan.array);
            match got {
                NetworkChoice::Relay { .. } => relayed += 1,
                _ => {
                    assert_eq!(probes, tiles, "{s}->{d}: a failed search probes every tile");
                    dead += 1;
                }
            }
        }
        (relayed, dead)
    }

    #[test]
    fn ring_search_matches_the_scan() {
        let (mut relayed, mut dead) = (0, 0);
        for (seed, (cols, rows)) in (1u64..).zip([(1, 9), (9, 1), (2, 2), (5, 7), (12, 12)]) {
            let array = TileArray::new(cols, rows);
            let n = array.tile_count();
            for count in [0, 1, 3, n / 4, n / 2, n - 2] {
                let mut rng = seeded_rng(seed * 1000 + count as u64);
                let planner = RoutePlanner::new(FaultMap::sample_uniform(array, count, &mut rng));
                let healthy: Vec<TileCoord> = planner.faults.healthy_tiles().collect();
                let pairs = healthy
                    .iter()
                    .flat_map(|&s| healthy.iter().map(move |&d| (s, d)))
                    .filter(|(s, d)| s != d);
                let (r, d) = assert_search_matches_scan(&planner, pairs);
                relayed += r;
                dead += d;
            }
        }
        // Every same-row and same-column pair of a benchmark-sized wafer,
        // the pairs a relay serves when a fault sits between them.
        let array = TileArray::new(32, 32);
        let planner = RoutePlanner::new(FaultMap::sample_uniform(array, 20, &mut seeded_rng(9)));
        let healthy: Vec<TileCoord> = planner.faults.healthy_tiles().collect();
        let pairs = healthy
            .iter()
            .flat_map(|&s| healthy.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d && (s.x == d.x || s.y == d.y));
        let (r, d) = assert_search_matches_scan(&planner, pairs);
        assert!(r > 1000, "only {r} relayed pairs on the 32x32 wafer");
        relayed += r;
        dead += d;
        assert!(
            relayed > 0 && dead > 0,
            "{relayed} relayed, {dead} disconnected"
        );
    }

    #[test]
    fn ring_order_lists_tiles_by_relay_hops_then_row_major() {
        for (cols, rows) in [(1, 1), (1, 9), (9, 1), (5, 7), (32, 32)] {
            let array = TileArray::new(cols, rows);
            let tiles: Vec<TileCoord> = array.tiles().collect();
            let last = tiles[tiles.len() - 1];
            let mid = array.coord_of(tiles.len() / 2);
            for (s, d) in [
                (tiles[0], last),
                (last, tiles[0]),
                (mid, mid),
                (mid, last),
                (tiles[1 % tiles.len()], mid),
            ] {
                let mut want = tiles.clone();
                // A stable sort keeps row-major order among equal hops.
                want.sort_by_key(|&v| s.manhattan_distance(v) + v.manhattan_distance(d));
                let got: Vec<TileCoord> = ring_order(array, s, d).collect();
                assert_eq!(got, want, "{s}->{d} on {array}");
            }
        }
    }

    #[test]
    fn relay_search_cost_grows_with_the_detour() {
        let array = TileArray::new(32, 32);
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [TileCoord::new(16, 5)]));
        let (s, d) = (TileCoord::new(10, 5), TileCoord::new(20, 5));
        let (choice, probes) = planner.relay_search(s, d);
        let (want, scanned) = RelayScan::new(&planner).relay(s, d);
        assert_eq!(choice, want);
        assert!(matches!(choice, NetworkChoice::Relay { .. }), "{choice:?}");
        // Ring 0 is the pair's 11 tiles of row 5; ring 1 adds the 11
        // above, the 11 below and one at each end of row 5.
        assert!(probes <= 11 + 24, "{probes} probes");
        assert_eq!(scanned, 1023);

        // A walled-off destination has no relay: every tile is probed.
        let dst = TileCoord::new(20, 20);
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, array.neighbors(dst)));
        let (choice, probes) = planner.relay_search(TileCoord::new(3, 4), dst);
        assert_eq!(choice, NetworkChoice::Disconnected);
        assert_eq!(probes, array.tile_count());
    }

    #[test]
    fn faulty_endpoints_are_disconnected() {
        let array = TileArray::new(8, 8);
        let dead = TileCoord::new(2, 2);
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, [dead]));
        assert_eq!(
            planner.choose(dead, TileCoord::new(5, 5)),
            NetworkChoice::Disconnected
        );
        assert_eq!(
            planner.choose(TileCoord::new(5, 5), dead),
            NetworkChoice::Disconnected
        );
        assert_eq!(
            planner.choose(TileCoord::new(5, 5), TileCoord::new(5, 5)),
            NetworkChoice::Disconnected
        );
    }

    #[test]
    fn fully_walled_tile_is_disconnected() {
        let array = TileArray::new(8, 8);
        let centre = TileCoord::new(3, 3);
        let ring: Vec<TileCoord> = array.neighbors(centre).collect();
        let planner = RoutePlanner::new(FaultMap::from_faulty(array, ring));
        assert_eq!(
            planner.choose(centre, TileCoord::new(0, 0)),
            NetworkChoice::Disconnected
        );
    }

    #[test]
    fn table_covers_all_healthy_ordered_pairs() {
        let array = TileArray::new(6, 6);
        let mut rng = seeded_rng(3);
        let faults = FaultMap::sample_uniform(array, 4, &mut rng);
        let planner = RoutePlanner::new(faults.clone());
        let table = planner.build_table();
        let h = faults.healthy_count();
        assert_eq!(table.len(), h * (h - 1));
        assert!(!table.is_empty());
        let s = faults.healthy_tiles().next().expect("healthy tile");
        let d = faults.healthy_tiles().last().expect("healthy tile");
        assert_eq!(table.get(s, d), Some(planner.choose(s, d)));
        assert_eq!(table.get(s, s), None);
    }

    #[test]
    fn relay_rate_is_small_with_few_faults() {
        // The point of the dual network: relays (which steal core cycles)
        // should be rare at realistic fault counts.
        let planner = {
            let mut rng = seeded_rng(77);
            RoutePlanner::new(FaultMap::sample_uniform(
                TileArray::new(16, 16),
                3,
                &mut rng,
            ))
        };
        let table = planner.build_table();
        let (_, _, relay, dead) = table.utilization();
        let frac = (relay + dead) as f64 / table.len() as f64;
        assert!(frac < 0.03, "relay+dead fraction {frac}");
    }

    /// A seeded faulty 16×16 planner, with every ordered healthy pair.
    fn faulty_planner(seed: u64) -> (RoutePlanner, Vec<(TileCoord, TileCoord)>) {
        let mut rng = seeded_rng(seed);
        let faults = FaultMap::sample_uniform(TileArray::new(16, 16), 12, &mut rng);
        let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
        let pairs = healthy
            .iter()
            .flat_map(|&s| healthy.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d)
            .collect();
        (RoutePlanner::new(faults), pairs)
    }

    #[test]
    fn memoised_answers_equal_a_fresh_planners() {
        for seed in [5, 11] {
            let (planner, pairs) = faulty_planner(seed);
            let first: Vec<NetworkChoice> =
                pairs.iter().map(|&(s, d)| planner.choose(s, d)).collect();
            let relayed = first
                .iter()
                .filter(|c| matches!(c, NetworkChoice::Relay { .. }))
                .count();
            assert!(relayed > 0, "the map must exercise the relay memo");
            let again: Vec<NetworkChoice> =
                pairs.iter().map(|&(s, d)| planner.choose(s, d)).collect();
            assert_eq!(again, first);
            let fresh = RoutePlanner::new(planner.faults().clone());
            for (&(s, d), &want) in pairs.iter().zip(&first) {
                assert_eq!(fresh.choose(s, d), want, "{s}->{d}");
            }
            let clone = planner.clone();
            for (&(s, d), &want) in pairs.iter().zip(&first) {
                assert_eq!(clone.choose(s, d), want, "clone {s}->{d}");
            }
        }
    }

    #[test]
    fn relay_search_runs_once_per_pair() {
        let (planner, pairs) = faulty_planner(5);
        let &(s, d) = pairs
            .iter()
            .find(|&&(s, d)| matches!(planner.choose(s, d), NetworkChoice::Relay { .. }))
            .expect("some pair needs a relay");
        let memo_len = planner.relays.read().expect("unpoisoned").len();
        // Overwrite the stored answer: a second query that searched again
        // would return the real relay, one served from the memo the stub.
        planner
            .relays
            .write()
            .expect("unpoisoned")
            .insert((s, d), NetworkChoice::Disconnected);
        assert_eq!(planner.choose(s, d), NetworkChoice::Disconnected);
        assert_eq!(planner.relays.read().expect("unpoisoned").len(), memo_len);
        // Direct pairs never enter the memo.
        let direct = RoutePlanner::new(FaultMap::none(TileArray::new(16, 16)));
        direct.build_table();
        assert!(direct.relays.read().expect("unpoisoned").is_empty());
    }

    #[test]
    fn threads_sharing_one_planner_agree() {
        let (planner, pairs) = faulty_planner(11);
        let reference: Vec<NetworkChoice> = {
            let fresh = RoutePlanner::new(planner.faults().clone());
            pairs.iter().map(|&(s, d)| fresh.choose(s, d)).collect()
        };
        let barrier = std::sync::Barrier::new(4);
        let answers: Vec<Vec<NetworkChoice>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (planner, pairs, barrier) = (&planner, &pairs, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        // Each thread walks the pairs from its own offset so
                        // memo misses and hits interleave across threads.
                        let offset = t * pairs.len() / 4;
                        let mut out = vec![NetworkChoice::Disconnected; pairs.len()];
                        for k in 0..pairs.len() {
                            let i = (k + offset) % pairs.len();
                            let (s, d) = pairs[i];
                            out[i] = planner.choose(s, d);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread panicked"))
                .collect()
        });
        for answer in answers {
            assert_eq!(answer, reference);
        }
    }

    #[test]
    fn display_summarises_choice() {
        assert_eq!(
            NetworkChoice::Direct(NetworkKind::Xy).to_string(),
            "direct on X-Y network"
        );
        assert!(NetworkChoice::Relay {
            via: TileCoord::new(1, 1),
            first: NetworkKind::Xy,
            second: NetworkKind::Yx,
        }
        .to_string()
        .contains("relay via"));
        assert_eq!(NetworkChoice::Disconnected.to_string(), "disconnected");
    }
}
