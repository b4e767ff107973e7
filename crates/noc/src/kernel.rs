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
use wsp_topo::{FaultMap, TileCoord};

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
/// Relay decisions are memoised per ordered pair on first query: they are
/// a pure function of the fault map, and the relay search scans every
/// healthy tile, so a pair that needs a relay pays for it once. Pairs with
/// a direct path never touch the memo. The memo sits behind a lock so one
/// planner can be shared across worker threads.
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

    /// Searches for a relay tile with healthy legs to both endpoints,
    /// preferring the one adding the fewest extra hops.
    fn find_relay(&self, src: TileCoord, dst: TileCoord) -> NetworkChoice {
        let mut best: Option<(u32, NetworkChoice)> = None;
        for via in self.faults.healthy_tiles() {
            if via == src || via == dst {
                continue;
            }
            let first = if self.oracle.xy_connected(src, via) {
                Some(NetworkKind::Xy)
            } else if self.oracle.yx_connected(src, via) {
                Some(NetworkKind::Yx)
            } else {
                None
            };
            let second = if self.oracle.xy_connected(via, dst) {
                Some(NetworkKind::Xy)
            } else if self.oracle.yx_connected(via, dst) {
                Some(NetworkKind::Yx)
            } else {
                None
            };
            if let (Some(first), Some(second)) = (first, second) {
                let hops = src.manhattan_distance(via) + via.manhattan_distance(dst);
                let candidate = (hops, NetworkChoice::Relay { via, first, second });
                match &best {
                    Some((best_hops, _)) if *best_hops <= hops => {}
                    _ => best = Some(candidate),
                }
            }
        }
        best.map(|(_, c)| c).unwrap_or(NetworkChoice::Disconnected)
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
    use wsp_topo::TileArray;

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
        if let NetworkChoice::Relay { via, .. } = planner.choose(s, d) {
            // Minimal detour for a blocked row is one row over: 2 extra hops.
            let hops = s.manhattan_distance(via) + via.manhattan_distance(d);
            assert_eq!(hops, s.manhattan_distance(d) + 2);
        } else {
            panic!("expected relay");
        }
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
