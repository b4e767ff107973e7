//! Odd-even turn-model adaptive routing — the paper's named future-work
//! upgrade (Sec. VI: "In the future, we will incorporate sophisticated
//! routing schemes [18, 19] for improved waferscale fault tolerance").
//!
//! Paper reference 18 is Wu's fault-tolerant, deadlock-free routing for 2-D
//! meshes built on the odd-even turn model (after Chiu): instead of fixing
//! the dimension order, routing stays *adaptive* but prohibits two turn
//! types per column parity, which provably breaks all cycles:
//!
//! * **Rule 1** — no east→north (EN) and no east→south (ES) turns at
//!   tiles in *even* columns;
//! * **Rule 2** — no north→west (NW) and no south→west (SW) turns at
//!   tiles in *odd* columns.
//!
//! Any path whose every turn obeys the rules is deadlock-free, so a
//! fault-tolerant router may search among *all* rule-abiding paths —
//! including non-minimal ones — and reconnects many of the pairs the
//! dual-DoR scheme loses.

use std::collections::VecDeque;

use wsp_topo::{Direction, FaultMap, TileCoord, DIRECTIONS};

/// Whether a turn from travelling `from` to travelling `to` is permitted
/// at tile `at` under the odd-even rules.
///
/// Straight-through and U-turn-free movement is always allowed (U-turns
/// are categorically forbidden in turn models).
///
/// # Examples
///
/// ```
/// use wsp_noc::oddeven::turn_allowed;
/// use wsp_topo::{Direction, TileCoord};
///
/// // EN turn at an even column: forbidden.
/// assert!(!turn_allowed(TileCoord::new(2, 5), Direction::East, Direction::North));
/// // Same turn at an odd column: fine.
/// assert!(turn_allowed(TileCoord::new(3, 5), Direction::East, Direction::North));
/// ```
pub fn turn_allowed(at: TileCoord, from: Direction, to: Direction) -> bool {
    use Direction::*;
    if to == from.opposite() {
        return false; // no U-turns
    }
    if to == from {
        return true; // straight through
    }
    let even_column = at.x.is_multiple_of(2);
    match (from, to) {
        // Rule 1: EN and ES forbidden in even columns.
        (East, North) | (East, South) => !even_column,
        // Rule 2: NW and SW forbidden in odd columns.
        (North, West) | (South, West) => even_column,
        // All other turns (WN, WS, NE, SE) are always allowed.
        _ => true,
    }
}

/// Finds a deadlock-free path from `from` to `to` over healthy tiles,
/// obeying the odd-even turn rules, allowing non-minimal detours up to
/// `max_hops` total hops. Returns the tile sequence (endpoints included),
/// or `None` when no rule-abiding path exists within the bound.
///
/// The search is a BFS over `(tile, incoming direction)` states, so the
/// returned path is hop-minimal *among rule-abiding paths*.
///
/// # Panics
///
/// Panics if either endpoint lies outside the fault map's array.
pub fn route_odd_even(
    faults: &FaultMap,
    from: TileCoord,
    to: TileCoord,
    max_hops: u32,
) -> Option<Vec<TileCoord>> {
    if faults.is_faulty(from) || faults.is_faulty(to) {
        return None;
    }
    if from == to {
        return Some(vec![from]);
    }
    let array = faults.array();
    // State: (tile index, incoming direction index). Direction 4 is the
    // virtual "injected here" state with no incoming direction.
    let states = array.tile_count() * 5;
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; states];
    let mut dist: Vec<u32> = vec![u32::MAX; states];
    let start = array.index_of(from) * 5 + 4;
    dist[start] = 0;
    let mut queue = VecDeque::from([start]);

    while let Some(state) = queue.pop_front() {
        let tile_idx = state / 5;
        let in_dir = state % 5;
        let tile = array.coord_of(tile_idx);
        let hops = dist[state];
        if hops >= max_hops {
            continue;
        }
        for out in DIRECTIONS {
            // Injection can leave in any direction; in-flight packets
            // must obey the turn rules.
            if in_dir < 4 && !turn_allowed(tile, DIRECTIONS[in_dir], out) {
                continue;
            }
            let Some(nb) = array.neighbor(tile, out) else {
                continue;
            };
            if faults.is_faulty(nb) {
                continue;
            }
            let nb_state = array.index_of(nb) * 5 + out.index();
            if dist[nb_state] != u32::MAX {
                continue;
            }
            dist[nb_state] = hops + 1;
            prev[nb_state] = Some((state, out.index()));
            if nb == to {
                // Reconstruct.
                let mut path = vec![nb];
                let mut cur = nb_state;
                while let Some((p, _)) = prev[cur] {
                    path.push(array.coord_of(p / 5));
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(nb_state);
        }
    }
    None
}

/// All healthy tiles reachable from `from` under the odd-even rules
/// within `max_hops`, as a row-major boolean mask (the source itself is
/// always marked when healthy).
///
/// Runs one `FrontierSearch` over the same `(tile, travel-direction)`
/// state space [`route_odd_even`] searches, with no early exit, so one
/// search answers reachability for *every* destination at once. A
/// destination counts as reached when any of its four travel-direction
/// states is reached within the hop budget, exactly the condition under
/// which the per-pair search would have returned a path.
pub fn odd_even_reachable(faults: &FaultMap, from: TileCoord, max_hops: u32) -> Vec<bool> {
    let array = faults.array();
    if faults.is_faulty(from) {
        return vec![false; array.tile_count()];
    }
    let mut search = FrontierSearch::new(faults);
    search.run(array.index_of(from), max_hops);
    (0..array.tile_count())
        .map(|idx| search.reached_word(idx / 64) >> (idx % 64) & 1 != 0)
        .collect()
}

/// Fraction of healthy-tile ordered pairs with no rule-abiding path under
/// the odd-even adaptive router (the fault-tolerance upgrade's residual
/// disconnection, comparable to [`crate::connectivity`]'s dual-DoR
/// numbers).
///
/// One `FrontierSearch` per healthy source, over scratch allocated once
/// per map. A hop level costs a few dozen word operations per 64 tiles,
/// so a map costs `O(H · L · T / 64)` for `H` healthy sources, `L`
/// levels (at most `max_hops`; the frontier empties after ~25 on the
/// 16×16 arrays `fig6_disconnect` resamples) and `T` tiles — four words
/// per level there.
pub fn odd_even_disconnected_fraction(faults: &FaultMap, max_hops: u32) -> f64 {
    let mut search = FrontierSearch::new(faults);
    let healthy = search.healthy;
    if healthy < 2 {
        return 0.0;
    }
    let mut disconnected = 0u64;
    for (idx, tile) in faults.array().tiles().enumerate() {
        if faults.is_healthy(tile) {
            search.run(idx, max_hops);
            let reached: u64 = (0..search.seen.len())
                .map(|w| u64::from(search.reached_word(w).count_ones()))
                .sum();
            disconnected += healthy - reached;
        }
    }
    disconnected as f64 / (healthy * (healthy - 1)) as f64
}

/// Travel directions in [`DIRECTIONS`] order, as indices into the
/// per-word `[u64; 4]` state sets of [`FrontierSearch`].
const N: usize = 0;
const S: usize = 1;
const E: usize = 2;
const W: usize = 3;

/// Level-synchronous, bit-parallel odd-even reachability over one fault
/// map.
///
/// Tile `(x, y)` is bit `y · cols + x` of a row-major bitset, so a hop
/// east or west shifts the bitset by one bit and a hop north or south by
/// one row of `cols` bits, whatever the width. For each travel direction
/// the search keeps the `(tile, direction)` states reached so far. Each
/// level advances the whole frontier one hop: the next frontier of
/// out-direction `o` is the union of the current frontier's directions
/// that may turn into `o` at their tile's column parity
/// ([`turn_allowed`]), shifted one tile towards `o`, ANDed with the
/// healthy tiles such a hop may land on and with the states not yet seen
/// in `o`. A state thus joins the frontier at its shortest distance, the
/// distance at which the queue BFS of [`route_odd_even`] first visits it,
/// so a hop budget keeps exactly the states that BFS keeps.
struct FrontierSearch {
    /// Per word, the healthy tiles a hop N, S, E, W may land on: an east
    /// (west) hop never lands in the first (last) column, which is where
    /// a one-bit shift wraps in from the neighbouring row.
    landing: Vec<[u64; 4]>,
    /// Per word, the tiles in even columns.
    even: Vec<u64>,
    /// The length of a north or south hop, one row, as `(words, bits)`.
    row: (usize, u32),
    /// Zero words on each side of `turning` and `next`, so that every
    /// shift reads in bounds.
    pad: usize,
    /// Healthy tiles on the map.
    healthy: u64,
    /// The source of the last [`FrontierSearch::run`].
    source: usize,
    /// Per word, the states reached in each direction.
    seen: Vec<[u64; 4]>,
    /// Per padded word and out-direction, the current frontier's states
    /// that may turn into it.
    turning: Vec<[u64; 4]>,
    /// The same for the next frontier, being built.
    next: Vec<[u64; 4]>,
}

impl FrontierSearch {
    fn new(faults: &FaultMap) -> Self {
        let array = faults.array();
        let cols = usize::from(array.cols());
        let words = array.tile_count().div_ceil(64);
        let mut landing = vec![[0u64; 4]; words];
        let mut even = vec![0u64; words];
        let mut healthy = 0;
        for (idx, tile) in array.tiles().enumerate() {
            let (word, bit) = (idx / 64, 1u64 << (idx % 64));
            let x = usize::from(tile.x);
            if faults.is_healthy(tile) {
                healthy += 1;
                let lands = &mut landing[word];
                lands[N] |= bit;
                lands[S] |= bit;
                if x != 0 {
                    lands[E] |= bit;
                }
                if x + 1 != cols {
                    lands[W] |= bit;
                }
            }
            if x % 2 == 0 {
                even[word] |= bit;
            }
        }
        let row = (cols / 64, (cols % 64) as u32);
        let pad = row.0 + 1;
        FrontierSearch {
            landing,
            even,
            row,
            pad,
            healthy,
            source: 0,
            seen: vec![[0; 4]; words],
            turning: vec![[0; 4]; words + 2 * pad],
            next: vec![[0; 4]; words + 2 * pad],
        }
    }

    /// Searches from the healthy tile with row-major index `source` for up
    /// to `max_hops` levels.
    fn run(&mut self, source: usize, max_hops: u32) {
        self.source = source;
        self.seen.fill([0; 4]);
        if max_hops == 0 {
            return;
        }
        // Level 1: the injected packet may leave in any direction.
        self.turning.fill([0; 4]);
        self.turning[self.pad + source / 64] = [1 << (source % 64); 4];
        let mut level = 1;
        while self.advance() && level < max_hops {
            level += 1;
        }
    }

    /// Advances the frontier one hop; returns whether it is non-empty.
    fn advance(&mut self) -> bool {
        let (q, r) = self.row;
        let t = &self.turning;
        let mut any = 0u64;
        for (i, seen) in self.seen.iter_mut().enumerate() {
            let c = self.pad + i;
            // Shifting by `(x >> 1) >> (63 - r)` rather than `x >> (64 - r)`
            // keeps every shift below 64 when a row is whole words (r = 0).
            let north = t[c + q][N] >> r | (t[c + q + 1][N] << 1) << (63 - r);
            let south = t[c - q][S] << r | (t[c - q - 1][S] >> 1) >> (63 - r);
            let east = t[c][E] << 1 | t[c - 1][E] >> 63;
            let west = t[c][W] >> 1 | t[c + 1][W] << 63;
            let lands = self.landing[i];
            let f = [
                north & lands[N] & !seen[N],
                south & lands[S] & !seen[S],
                east & lands[E] & !seen[E],
                west & lands[W] & !seen[W],
            ];
            for (seen, new) in seen.iter_mut().zip(f) {
                *seen |= new;
            }
            any |= f[N] | f[S] | f[E] | f[W];
            // The turns `turn_allowed` permits at each tile's parity.
            let (even, odd) = (self.even[i], !self.even[i]);
            self.next[c] = [
                f[N] | f[W] | (f[E] & odd),
                f[S] | f[W] | (f[E] & odd),
                f[E] | f[N] | f[S],
                f[W] | ((f[N] | f[S]) & even),
            ];
        }
        std::mem::swap(&mut self.turning, &mut self.next);
        any != 0
    }

    /// Word `w` of the tiles the last run reached, the source included.
    fn reached_word(&self, w: usize) -> u64 {
        let seen = self.seen[w];
        let source = if w == self.source / 64 {
            1 << (self.source % 64)
        } else {
            0
        };
        seen[N] | seen[S] | seen[E] | seen[W] | source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::seeded_rng;
    use wsp_topo::TileArray;

    #[test]
    fn turn_rules_match_the_model() {
        use Direction::*;
        let even = TileCoord::new(4, 3);
        let odd = TileCoord::new(5, 3);
        // Rule 1.
        assert!(!turn_allowed(even, East, North));
        assert!(!turn_allowed(even, East, South));
        assert!(turn_allowed(odd, East, North));
        assert!(turn_allowed(odd, East, South));
        // Rule 2.
        assert!(!turn_allowed(odd, North, West));
        assert!(!turn_allowed(odd, South, West));
        assert!(turn_allowed(even, North, West));
        assert!(turn_allowed(even, South, West));
        // Always-legal turns.
        for at in [even, odd] {
            assert!(turn_allowed(at, West, North));
            assert!(turn_allowed(at, West, South));
            assert!(turn_allowed(at, North, East));
            assert!(turn_allowed(at, South, East));
        }
        // No U-turns, straight always fine.
        assert!(!turn_allowed(even, East, West));
        assert!(turn_allowed(even, East, East));
    }

    #[test]
    fn routes_on_clean_mesh_are_minimal() {
        let array = TileArray::new(8, 8);
        let faults = FaultMap::none(array);
        let mut rng = seeded_rng(1);
        use rand::RngExt;
        for _ in 0..50 {
            let s = TileCoord::new(rng.random_range(0..8), rng.random_range(0..8));
            let d = TileCoord::new(rng.random_range(0..8), rng.random_range(0..8));
            let path = route_odd_even(&faults, s, d, 64).expect("clean mesh connects");
            assert_eq!(path.len() as u32, s.manhattan_distance(d) + 1, "{s}->{d}");
        }
    }

    #[test]
    fn paths_obey_turn_rules_everywhere() {
        let array = TileArray::new(10, 10);
        let mut rng = seeded_rng(2);
        for _ in 0..20 {
            let faults = FaultMap::sample_uniform(array, 12, &mut rng);
            for s in faults.healthy_tiles().step_by(7) {
                for d in faults.healthy_tiles().step_by(11) {
                    if s == d {
                        continue;
                    }
                    let Some(path) = route_odd_even(&faults, s, d, 60) else {
                        continue;
                    };
                    // Health + legality of every hop and turn.
                    for w in path.windows(2) {
                        assert!(faults.is_healthy(w[1]));
                        assert_eq!(w[0].manhattan_distance(w[1]), 1);
                    }
                    for w in path.windows(3) {
                        let d1 = dir_between(w[0], w[1]);
                        let d2 = dir_between(w[1], w[2]);
                        assert!(
                            turn_allowed(w[1], d1, d2),
                            "illegal turn {d1}->{d2} at {} on {}->{}",
                            w[1],
                            s,
                            d
                        );
                    }
                }
            }
        }
    }

    fn dir_between(a: TileCoord, b: TileCoord) -> Direction {
        if b.x > a.x {
            Direction::East
        } else if b.x < a.x {
            Direction::West
        } else if b.y > a.y {
            Direction::South
        } else {
            Direction::North
        }
    }

    #[test]
    fn adaptivity_routes_around_blocked_rows() {
        // The colinear case the dual-DoR scheme loses: same row, fault in
        // between. Odd-even detours around it.
        let array = TileArray::new(8, 8);
        let faults = FaultMap::from_faulty(array, [TileCoord::new(4, 3)]);
        let s = TileCoord::new(0, 3);
        let d = TileCoord::new(7, 3);
        let path = route_odd_even(&faults, s, d, 32).expect("detour exists");
        assert!(path.iter().all(|&t| faults.is_healthy(t)));
        // Minimal detour is 2 extra hops.
        assert_eq!(path.len() as u32, s.manhattan_distance(d) + 2 + 1);
    }

    #[test]
    fn odd_even_beats_dual_dor_on_residual_disconnections() {
        use crate::connectivity::{disconnected_fraction, RoutingScheme};
        let array = TileArray::new(10, 10);
        let mut rng = seeded_rng(3);
        let mut oe_total = 0.0;
        let mut dual_total = 0.0;
        for _ in 0..5 {
            let faults = FaultMap::sample_uniform(array, 6, &mut rng);
            oe_total += odd_even_disconnected_fraction(&faults, 40);
            dual_total += disconnected_fraction(&faults, RoutingScheme::DualXyYx);
        }
        assert!(
            oe_total <= dual_total,
            "odd-even {oe_total} worse than dual DoR {dual_total}"
        );
    }

    /// The original per-pair implementation, kept as the test oracle for
    /// the multi-destination restructure.
    fn brute_force_disconnected_fraction(faults: &FaultMap, max_hops: u32) -> f64 {
        let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
        if healthy.len() < 2 {
            return 0.0;
        }
        let mut disconnected = 0u64;
        let mut total = 0u64;
        for &s in &healthy {
            for &d in &healthy {
                if s == d {
                    continue;
                }
                total += 1;
                if route_odd_even(faults, s, d, max_hops).is_none() {
                    disconnected += 1;
                }
            }
        }
        disconnected as f64 / total as f64
    }

    #[test]
    fn multi_destination_fraction_matches_brute_force() {
        // Small grids (a single row, a single column, and rows spanning
        // two words, drawn once per density to bound the per-pair cost), a
        // spread of fault densities and hop budgets — the frontier search
        // must reproduce the per-pair sweep exactly (identical counts, so
        // identical f64 fractions).
        let mut rng = seeded_rng(17);
        for (w, h, maps) in [
            (4u16, 4u16, 4),
            (6, 6, 4),
            (6, 3, 4),
            (1, 6, 4),
            (6, 1, 4),
            (65, 2, 1),
        ] {
            let array = TileArray::new(w, h);
            for faults_n in [0usize, 2, 5, 9] {
                if faults_n > array.tile_count() {
                    continue;
                }
                for _ in 0..maps {
                    let faults = FaultMap::sample_uniform(array, faults_n, &mut rng);
                    for max_hops in [0, 1, 2, 3, 8, 40] {
                        let fast = odd_even_disconnected_fraction(&faults, max_hops);
                        let brute = brute_force_disconnected_fraction(&faults, max_hops);
                        assert_eq!(
                            fast, brute,
                            "{w}x{h}, {faults_n} faults, budget {max_hops}:\n{faults}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reachable_mask_agrees_with_per_pair_routing() {
        let array = TileArray::new(6, 6);
        let mut rng = seeded_rng(23);
        for _ in 0..6 {
            let faults = FaultMap::sample_uniform(array, 7, &mut rng);
            for s in faults.healthy_tiles() {
                for max_hops in [0, 20] {
                    let reached = odd_even_reachable(&faults, s, max_hops);
                    for d in array.tiles() {
                        let expect = if s == d {
                            faults.is_healthy(s)
                        } else {
                            route_odd_even(&faults, s, d, max_hops).is_some()
                        };
                        assert_eq!(
                            reached[array.index_of(d)],
                            expect,
                            "{s}->{d}, budget {max_hops}\n{faults}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reachable_from_faulty_source_is_empty() {
        let array = TileArray::new(4, 4);
        let t = TileCoord::new(1, 1);
        let faults = FaultMap::from_faulty(array, [t]);
        assert!(odd_even_reachable(&faults, t, 100).iter().all(|&r| !r));
    }

    #[test]
    fn walled_tile_stays_unreachable() {
        let array = TileArray::new(8, 8);
        let centre = TileCoord::new(4, 4);
        let ring: Vec<TileCoord> = array.neighbors(centre).collect();
        let faults = FaultMap::from_faulty(array, ring);
        assert!(route_odd_even(&faults, TileCoord::new(0, 0), centre, 1000).is_none());
    }

    #[test]
    fn hop_budget_is_respected() {
        let array = TileArray::new(8, 8);
        let faults = FaultMap::none(array);
        let s = TileCoord::new(0, 0);
        let d = TileCoord::new(7, 7);
        // Budget below the Manhattan distance: no path.
        assert!(route_odd_even(&faults, s, d, 10).is_none());
        assert!(route_odd_even(&faults, s, d, 14).is_some());
    }

    #[test]
    fn degenerate_and_faulty_endpoints() {
        let array = TileArray::new(4, 4);
        let t = TileCoord::new(1, 1);
        let clean = FaultMap::none(array);
        assert_eq!(route_odd_even(&clean, t, t, 10), Some(vec![t]));
        let dead = FaultMap::from_faulty(array, [t]);
        assert!(route_odd_even(&dead, t, TileCoord::new(0, 0), 10).is_none());
        assert!(route_odd_even(&dead, TileCoord::new(0, 0), t, 10).is_none());
    }
}
