//! The wafer-wide clock-setup wavefront (Sec. IV, Fig. 4).
//!
//! During the clock setup phase, configured edge tiles start forwarding the
//! synthesised fast clock to their neighbours; every other healthy tile
//! auto-selects the first forwarded input to reach its toggle count and
//! then forwards the chosen clock onwards. Because every non-edge tile
//! listens on all four sides, the clock floods the array like a breadth-
//! first wavefront and reaches every healthy tile that is graph-connected
//! to a generator through healthy tiles — the resiliency property Fig. 4
//! illustrates and the paper proves by induction.
//!
//! [`ForwardingSim::run`] floods one level per hop. Every hop costs the
//! same toggle count, so a shortest-path (Dijkstra) search over the array
//! settles tiles in order of lock time — level by level — and, breaking
//! ties on (x, y) as the model always has, visits each level in (x, y)
//! order. A tile locks onto the side of the first tile of the previous
//! level to reach it, and no later arrival is earlier, so visiting each
//! level sorted by (x, y) with the first writer winning gives every tile
//! the side and lock time the heap search gave it; a generator listed
//! twice reaches nothing new. A test-only heap Dijkstra is the oracle.

use std::error::Error;
use std::fmt;

use wsp_topo::{Direction, FaultMap, TileArray, TileCoord, DIRECTIONS};

use crate::selector::ClockSelector;

/// Per-tile outcome of the clock setup phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileClock {
    /// The tile generates the fast clock itself (a configured edge tile).
    Generator,
    /// The tile locked onto the forwarded clock arriving from this side at
    /// the given setup time (in clock cycles after the generators started).
    Locked {
        /// The side whose forwarded clock won auto-selection.
        from: Direction,
        /// Cycles after generator start when this tile locked.
        locked_at: u64,
    },
    /// Healthy tile that never received a toggling clock (all paths to a
    /// generator run through faulty tiles — the yellow tile of Fig. 4).
    Unclocked,
    /// The tile itself is faulty.
    Faulty,
}

/// Simulator of the clock forwarding network over a fault map.
///
/// # Examples
///
/// ```
/// use wsp_clock::ForwardingSim;
/// use wsp_topo::{FaultMap, TileArray, TileCoord};
///
/// let array = TileArray::new(8, 8);
/// let faults = FaultMap::from_faulty(array, [TileCoord::new(4, 4)]);
/// let plan = ForwardingSim::new(faults).run([TileCoord::new(0, 0)])?;
/// assert_eq!(plan.clocked_count(), 63);
/// # Ok::<(), wsp_clock::ClockSetupError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ForwardingSim {
    faults: FaultMap,
    toggle_count: u32,
}

impl ForwardingSim {
    /// Creates a simulator over the given fault map with the default
    /// toggle count of 16.
    pub fn new(faults: FaultMap) -> Self {
        ForwardingSim {
            faults,
            toggle_count: ClockSelector::DEFAULT_TOGGLE_COUNT,
        }
    }

    /// Overrides the auto-selection toggle count.
    ///
    /// # Panics
    ///
    /// Panics if `toggle_count` is zero.
    pub fn with_toggle_count(mut self, toggle_count: u32) -> Self {
        assert!(toggle_count > 0, "toggle count must be at least 1");
        self.toggle_count = toggle_count;
        self
    }

    /// The fault map used for the simulation.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Runs the clock setup phase with the given generator tiles.
    ///
    /// Each generator must be a *healthy edge tile* (interior tiles cannot
    /// host the PLL because their supply is too noisy — Sec. IV).
    ///
    /// # Errors
    ///
    /// Returns an error when no generator is supplied, or a generator lies
    /// outside the array, is not on its edge, or is faulty.
    pub fn run<I>(&self, generators: I) -> Result<ForwardingPlan, ClockSetupError>
    where
        I: IntoIterator<Item = TileCoord>,
    {
        let array = self.faults.array();
        // A healthy tile stays `Unclocked` until the flood reaches it.
        let mut states: Vec<TileClock> = array
            .tiles()
            .map(|t| {
                if self.faults.is_faulty(t) {
                    TileClock::Faulty
                } else {
                    TileClock::Unclocked
                }
            })
            .collect();
        let mut frontier = Vec::new();
        for g in generators {
            if !array.contains(g) {
                return Err(ClockSetupError::GeneratorOutsideArray { tile: g });
            }
            if !array.is_edge(g) {
                return Err(ClockSetupError::GeneratorNotOnEdge { tile: g });
            }
            if self.faults.is_faulty(g) {
                return Err(ClockSetupError::GeneratorFaulty { tile: g });
            }
            states[array.index_of(g)] = TileClock::Generator;
            frontier.push(g);
        }
        if frontier.is_empty() {
            return Err(ClockSetupError::NoGenerator);
        }

        // Multi-source flood, one level per hop: a tile locks
        // `toggle_count` cycles after its earliest-toggling healthy
        // neighbour started forwarding, on the side of the first tile of
        // that level, in (x, y) order, to reach it (module docs).
        let hop_cost = u64::from(self.toggle_count);
        let by_column = |t: &TileCoord| (t.x, t.y);
        frontier.sort_unstable_by_key(by_column);
        let mut next = Vec::new();
        let mut arrival = 0;
        while !frontier.is_empty() {
            arrival += hop_cost;
            for &tile in &frontier {
                for dir in DIRECTIONS {
                    let Some(nb) = array.neighbor(tile, dir) else {
                        continue;
                    };
                    let state = &mut states[array.index_of(nb)];
                    if *state != TileClock::Unclocked {
                        continue;
                    }
                    *state = TileClock::Locked {
                        // The winning input is the side the clock *arrives
                        // from*, i.e. the direction pointing back at `tile`.
                        from: dir.opposite(),
                        locked_at: arrival,
                    };
                    next.push(nb);
                }
            }
            next.sort_unstable_by_key(by_column);
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }

        Ok(ForwardingPlan {
            array,
            states,
            hop_cost,
        })
    }
}

/// Failure modes of the clock setup phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockSetupError {
    /// No generator tile was configured.
    NoGenerator,
    /// A generator tile lies outside the tile array.
    GeneratorOutsideArray {
        /// The offending tile.
        tile: TileCoord,
    },
    /// A generator tile is not on the array edge.
    GeneratorNotOnEdge {
        /// The offending tile.
        tile: TileCoord,
    },
    /// A generator tile is faulty.
    GeneratorFaulty {
        /// The offending tile.
        tile: TileCoord,
    },
}

impl fmt::Display for ClockSetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockSetupError::NoGenerator => f.write_str("no clock generator tile configured"),
            ClockSetupError::GeneratorOutsideArray { tile } => {
                write!(f, "generator tile {tile} lies outside the tile array")
            }
            ClockSetupError::GeneratorNotOnEdge { tile } => {
                write!(f, "generator tile {tile} is not on the wafer edge")
            }
            ClockSetupError::GeneratorFaulty { tile } => {
                write!(f, "generator tile {tile} is faulty")
            }
        }
    }
}

impl Error for ClockSetupError {}

/// The converged clock distribution after the setup phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardingPlan {
    array: TileArray,
    states: Vec<TileClock>,
    hop_cost: u64,
}

impl ForwardingPlan {
    /// The tile array the plan covers.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// Outcome for `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the array.
    pub fn state_of(&self, tile: TileCoord) -> TileClock {
        self.states[self.array.index_of(tile)]
    }

    /// Number of tiles receiving a clock (generators included).
    pub fn clocked_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, TileClock::Generator | TileClock::Locked { .. }))
            .count()
    }

    /// Healthy tiles that never received a clock.
    pub fn unclocked_tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        self.array
            .tiles()
            .filter(move |&t| self.state_of(t) == TileClock::Unclocked)
    }

    /// Setup latency: cycles until the last tile locked.
    pub fn setup_cycles(&self) -> u64 {
        self.states
            .iter()
            .filter_map(|s| match s {
                TileClock::Locked { locked_at, .. } => Some(*locked_at),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Forwarding depth of a tile: hops from its generator (0 for a
    /// generator itself), or `None` when the tile carries no clock.
    pub fn depth_of(&self, tile: TileCoord) -> Option<u64> {
        match self.state_of(tile) {
            TileClock::Generator => Some(0),
            TileClock::Locked { locked_at, .. } => {
                // locked_at = depth × toggle-count; recover the hop count
                // from the uniform per-hop cost.
                Some(locked_at / self.hop_cost.max(1))
            }
            _ => None,
        }
    }

    /// Worst forwarding-depth difference between *adjacent clocked*
    /// tiles. Each hop adds one tile's insertion delay of phase, so this
    /// is the mesochronous skew (in hops) the asynchronous FIFOs on
    /// inter-tile links must absorb — large where flood wavefronts from
    /// different directions meet.
    pub fn max_adjacent_depth_skew(&self) -> u64 {
        let array = self.array;
        let mut worst = 0;
        for tile in array.tiles() {
            let Some(d) = self.depth_of(tile) else {
                continue;
            };
            for nb in array.neighbors(tile) {
                if let Some(nd) = self.depth_of(nb) {
                    worst = worst.max(d.abs_diff(nd));
                }
            }
        }
        worst
    }

    /// Renders the plan as ASCII: `G` generator, arrows for the locked
    /// input side, `?` unclocked-healthy, `X` faulty.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        for y in 0..self.array.rows() {
            for x in 0..self.array.cols() {
                let c = match self.state_of(TileCoord::new(x, y)) {
                    TileClock::Generator => 'G',
                    TileClock::Locked { from, .. } => match from {
                        Direction::North => 'v',
                        Direction::South => '^',
                        Direction::East => '<',
                        Direction::West => '>',
                    },
                    TileClock::Unclocked => '?',
                    TileClock::Faulty => 'X',
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the Fig. 4 scenario: an 8×8 array with six faulty tiles arranged
/// so one healthy tile (returned as `.1`) is walled off by faults on all
/// four sides while another healthy tile keeps exactly one healthy
/// neighbour; the generator (returned as `.2`) sits on the west edge.
pub fn fig4_scenario() -> (FaultMap, TileCoord, TileCoord) {
    let array = TileArray::new(8, 8);
    let isolated = TileCoord::new(5, 3);
    let generator = TileCoord::new(0, 0);
    let faults = FaultMap::from_faulty(
        array,
        [
            // Wall around the isolated tile (its N/W/E/S neighbours).
            TileCoord::new(5, 2),
            TileCoord::new(4, 3),
            TileCoord::new(6, 3),
            TileCoord::new(5, 4),
            // A tile with three faulty neighbours ((6,4): N, W faulty above,
            // plus E below) still gets the clock through its south side.
            TileCoord::new(7, 4),
            // One more scattered fault.
            TileCoord::new(2, 1),
        ],
    );
    (faults, isolated, generator)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_wafer_fully_clocked_from_one_edge_tile() {
        let array = TileArray::new(8, 8);
        let sim = ForwardingSim::new(FaultMap::none(array));
        let plan = sim.run([TileCoord::new(0, 0)]).expect("ok");
        assert_eq!(plan.clocked_count(), 64);
        assert_eq!(plan.unclocked_tiles().count(), 0);
        // Farthest tile is 14 hops away at 16 cycles per hop.
        assert_eq!(plan.setup_cycles(), 14 * 16);
    }

    #[test]
    fn fig4_all_but_isolated_tile_receive_clock() {
        let (faults, isolated, generator) = fig4_scenario();
        let plan = ForwardingSim::new(faults.clone())
            .run([generator])
            .expect("ok");
        // 64 tiles − 6 faulty − 1 isolated = 57 clocked.
        assert_eq!(plan.clocked_count(), 57);
        let unclocked: Vec<TileCoord> = plan.unclocked_tiles().collect();
        assert_eq!(unclocked, vec![isolated]);
        assert!(faults.is_isolated(isolated));
        // The three-faulty-neighbour tile still receives the clock.
        let survivor = TileCoord::new(6, 4);
        assert!(matches!(plan.state_of(survivor), TileClock::Locked { .. }));
    }

    #[test]
    fn reachability_matches_graph_connectivity() {
        // Property the paper proves by induction: a healthy tile is clocked
        // iff it is connected to a generator through healthy tiles.
        let array = TileArray::new(8, 8);
        let mut rng = wsp_common::seeded_rng(23);
        for trial in 0..30 {
            let faults = FaultMap::sample_uniform(array, 12, &mut rng);
            let generator = match array.edge_tiles().find(|&t| faults.is_healthy(t)) {
                Some(g) => g,
                None => continue,
            };
            let plan = ForwardingSim::new(faults.clone())
                .run([generator])
                .expect("ok");
            let reachable = healthy_reachable(&faults, generator);
            for tile in array.tiles() {
                let clocked = matches!(
                    plan.state_of(tile),
                    TileClock::Generator | TileClock::Locked { .. }
                );
                assert_eq!(
                    clocked,
                    reachable[array.index_of(tile)],
                    "trial {trial}: tile {tile} clocked={clocked}"
                );
            }
        }
    }

    fn healthy_reachable(faults: &FaultMap, from: TileCoord) -> Vec<bool> {
        let array = faults.array();
        let mut seen = vec![false; array.tile_count()];
        let mut queue = std::collections::VecDeque::new();
        seen[array.index_of(from)] = true;
        queue.push_back(from);
        while let Some(t) = queue.pop_front() {
            for nb in array.neighbors(t) {
                let idx = array.index_of(nb);
                if !seen[idx] && faults.is_healthy(nb) {
                    seen[idx] = true;
                    queue.push_back(nb);
                }
            }
        }
        seen
    }

    #[test]
    fn multiple_generators_reduce_setup_latency() {
        let array = TileArray::new(16, 16);
        let sim = ForwardingSim::new(FaultMap::none(array));
        let one = sim.run([TileCoord::new(0, 0)]).expect("ok");
        let four = sim
            .run([
                TileCoord::new(0, 0),
                TileCoord::new(15, 0),
                TileCoord::new(0, 15),
                TileCoord::new(15, 15),
            ])
            .expect("ok");
        assert!(four.setup_cycles() < one.setup_cycles());
        assert_eq!(four.clocked_count(), 256);
    }

    #[test]
    fn locked_direction_points_at_the_source() {
        let array = TileArray::new(4, 1);
        let plan = ForwardingSim::new(FaultMap::none(array))
            .run([TileCoord::new(0, 0)])
            .expect("ok");
        for x in 1..4 {
            match plan.state_of(TileCoord::new(x, 0)) {
                TileClock::Locked { from, locked_at } => {
                    assert_eq!(from, Direction::West);
                    assert_eq!(locked_at, u64::from(x) * 16);
                }
                other => panic!("tile {x} not locked: {other:?}"),
            }
        }
    }

    #[test]
    fn depth_tracks_hops_from_generator() {
        let array = TileArray::new(8, 8);
        let plan = ForwardingSim::new(FaultMap::none(array))
            .run([TileCoord::new(0, 0)])
            .expect("ok");
        assert_eq!(plan.depth_of(TileCoord::new(0, 0)), Some(0));
        for tile in array.tiles() {
            assert_eq!(
                plan.depth_of(tile),
                Some(u64::from(tile.manhattan_distance(TileCoord::new(0, 0))))
            );
        }
        // On a clean single-generator flood, adjacent depths differ by ≤1.
        assert!(plan.max_adjacent_depth_skew() <= 1);
    }

    #[test]
    fn adjacent_skew_is_at_most_one_hop_always() {
        // BFS-flood property: two *adjacent* clocked tiles can never
        // differ by more than one forwarding hop, whatever the fault
        // pattern or generator set — which is exactly why shallow
        // asynchronous FIFOs suffice on the inter-tile links (footnote 3).
        let array = TileArray::new(10, 10);
        let mut rng = wsp_common::seeded_rng(61);
        for trial in 0..20 {
            let faults = FaultMap::sample_uniform(array, 15, &mut rng);
            let gens: Vec<TileCoord> = array
                .edge_tiles()
                .filter(|&t| faults.is_healthy(t))
                .take(1 + trial % 3)
                .collect();
            if gens.is_empty() {
                continue;
            }
            let plan = ForwardingSim::new(faults).run(gens).expect("ok");
            assert!(
                plan.max_adjacent_depth_skew() <= 1,
                "trial {trial}: skew {}",
                plan.max_adjacent_depth_skew()
            );
        }
        // But detours do produce deep forwarding chains: a wall with a
        // pinhole makes tiles just beyond it much deeper than their
        // straight-line distance.
        let array = TileArray::new(8, 8);
        let faults = FaultMap::from_faulty(array, (1..8).map(|y| TileCoord::new(4, y)));
        let plan = ForwardingSim::new(faults)
            .run([TileCoord::new(0, 7)])
            .expect("ok");
        let deep = plan.depth_of(TileCoord::new(5, 7)).expect("clocked");
        let straight = u64::from(TileCoord::new(5, 7).manhattan_distance(TileCoord::new(0, 7)));
        assert!(deep > straight, "detour {deep} vs straight {straight}");
    }

    #[test]
    fn generator_validation() {
        let array = TileArray::new(8, 8);
        let sim = ForwardingSim::new(FaultMap::none(array));
        assert_eq!(
            sim.run(std::iter::empty()),
            Err(ClockSetupError::NoGenerator)
        );
        assert!(matches!(
            sim.run([TileCoord::new(3, 3)]),
            Err(ClockSetupError::GeneratorNotOnEdge { .. })
        ));
        let faulty_gen = FaultMap::from_faulty(array, [TileCoord::new(0, 0)]);
        assert!(matches!(
            ForwardingSim::new(faulty_gen).run([TileCoord::new(0, 0)]),
            Err(ClockSetupError::GeneratorFaulty { .. })
        ));
    }

    #[test]
    fn custom_toggle_count_scales_latency() {
        let array = TileArray::new(4, 1);
        let plan = ForwardingSim::new(FaultMap::none(array))
            .with_toggle_count(4)
            .run([TileCoord::new(0, 0)])
            .expect("ok");
        assert_eq!(plan.setup_cycles(), 3 * 4);
    }

    #[test]
    fn ascii_rendering_shows_wavefront() {
        let (faults, _, generator) = fig4_scenario();
        let plan = ForwardingSim::new(faults).run([generator]).expect("ok");
        let art = plan.to_ascii();
        assert!(art.starts_with('G'));
        assert!(art.contains('X'));
        assert!(art.contains('?'));
        assert_eq!(art.lines().count(), 8);
    }

    /// The multi-source heap Dijkstra that `run` flooded with before the
    /// level order, kept as the oracle the flood is held to: it pops
    /// tiles in (lock time, x, y) order and relocks a tile on a strictly
    /// earlier arrival.
    fn heap_flood(
        sim: &ForwardingSim,
        generators: &[TileCoord],
    ) -> Result<ForwardingPlan, ClockSetupError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let array = sim.faults.array();
        let mut states = vec![None::<TileClock>; array.tile_count()];
        let mut heap: BinaryHeap<Reverse<(u64, u16, u16)>> = BinaryHeap::new();
        for &g in generators {
            if !array.is_edge(g) {
                return Err(ClockSetupError::GeneratorNotOnEdge { tile: g });
            }
            if sim.faults.is_faulty(g) {
                return Err(ClockSetupError::GeneratorFaulty { tile: g });
            }
            states[array.index_of(g)] = Some(TileClock::Generator);
            heap.push(Reverse((0, g.x, g.y)));
        }
        if generators.is_empty() {
            return Err(ClockSetupError::NoGenerator);
        }
        let hop_cost = u64::from(sim.toggle_count);
        while let Some(Reverse((t, x, y))) = heap.pop() {
            let tile = TileCoord::new(x, y);
            for dir in DIRECTIONS {
                let Some(nb) = array.neighbor(tile, dir) else {
                    continue;
                };
                if sim.faults.is_faulty(nb) {
                    continue;
                }
                let idx = array.index_of(nb);
                let arrival = t + hop_cost;
                let better = match states[idx] {
                    None => true,
                    Some(TileClock::Locked { locked_at, .. }) => arrival < locked_at,
                    Some(_) => false,
                };
                if better {
                    states[idx] = Some(TileClock::Locked {
                        from: dir.opposite(),
                        locked_at: arrival,
                    });
                    heap.push(Reverse((arrival, nb.x, nb.y)));
                }
            }
        }
        let states = states
            .into_iter()
            .enumerate()
            .map(|(idx, s)| match s {
                Some(s) => s,
                None if sim.faults.is_faulty(array.coord_of(idx)) => TileClock::Faulty,
                None => TileClock::Unclocked,
            })
            .collect();
        Ok(ForwardingPlan {
            array,
            states,
            hop_cost,
        })
    }

    #[test]
    fn level_flood_matches_the_heap_dijkstra_oracle() {
        use rand::RngExt as _;

        let mut rng = wsp_common::seeded_rng(4);
        let mut compared = 0;
        for (cols, rows) in [(1, 1), (1, 7), (7, 1), (2, 2), (8, 8), (13, 9), (32, 32)] {
            let array = TileArray::new(cols, rows);
            for pct in [0, 5, 10, 20, 40, 60, 80] {
                for _ in 0..4 {
                    let count = array.tile_count() * pct / 100;
                    let faults = FaultMap::sample_uniform(array, count, &mut rng);
                    let edge: Vec<TileCoord> = array
                        .edge_tiles()
                        .filter(|&t| faults.is_healthy(t))
                        .collect();
                    if edge.is_empty() {
                        continue;
                    }
                    let pick = |rng: &mut rand::rngs::StdRng| edge[rng.random_range(0..edge.len())];
                    let mut sets: Vec<Vec<TileCoord>> = (1..=4)
                        .map(|k| (0..k).map(|_| pick(&mut rng)).collect())
                        .collect();
                    let g = pick(&mut rng);
                    sets.push(vec![g, g]);
                    if let Some(adjacent) = array
                        .neighbors(g)
                        .find(|&t| array.is_edge(t) && faults.is_healthy(t))
                    {
                        sets.push(vec![adjacent, g]);
                    }
                    for generators in &sets {
                        for toggle_count in [1, 16] {
                            let sim =
                                ForwardingSim::new(faults.clone()).with_toggle_count(toggle_count);
                            assert_eq!(
                                sim.run(generators.iter().copied()),
                                heap_flood(&sim, generators),
                                "{array}, {count} faults, generators {generators:?}, \
                                 toggle count {toggle_count}"
                            );
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert!(compared > 1000, "only {compared} floods compared");
    }

    #[test]
    fn generator_outside_the_array_is_an_error() {
        let array = TileArray::new(32, 32);
        let sim = ForwardingSim::new(FaultMap::none(array));
        for tile in [TileCoord::new(0, 500), TileCoord::new(40, 31)] {
            assert_eq!(
                sim.run([TileCoord::new(0, 0), tile]),
                Err(ClockSetupError::GeneratorOutsideArray { tile })
            );
        }
        let err = sim.run([TileCoord::new(0, 500)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "generator tile (0, 500) lies outside the tile array"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_toggle_count_rejected() {
        let array = TileArray::new(4, 4);
        let _ = ForwardingSim::new(FaultMap::none(array)).with_toggle_count(0);
    }
}
