//! Resistive-grid model of the waferscale power planes.
//!
//! The substrate dedicates its bottom two metal layers (≤2 µm thick, dense
//! slotted planes) to power. We discretise the supply/return loop as one
//! resistor network at tile granularity: every tile is a node, adjacent
//! nodes are joined by the loop sheet resistance of one grid square, tiles
//! on the selected supply edges connect to the fixed-voltage edge ring, and
//! every tile sinks its chiplet current. Solving the network (successive
//! over-relaxation on the nodal equations) yields the DC voltage each tile
//! receives — the droop map of Fig. 2.
//!
//! Two sweep orderings are provided. [`PdnConfig::solve`] relaxes nodes in
//! lexicographic order (classic Gauss–Seidel SOR). [`PdnConfig::solve_red_black`]
//! uses red/black ordering: the grid is bipartite under 4-neighbour
//! adjacency, so every red node ((x+y) even) depends only on black nodes
//! and vice versa, and each colour is relaxed in place over a packed,
//! cache-linear layout of its nodes. The two orderings converge to the
//! same operating point within the residual tolerance.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use wsp_common::units::{Amps, Ohms, Volts, Watts};
use wsp_telemetry::{NoopSink, Sink};
use wsp_topo::{TileArray, TileCoord, DIRECTIONS};

/// How a tile draws current from the plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LoadModel {
    /// Fixed current per tile. This is the physically right model for an
    /// LDO-regulated chiplet: a linear regulator passes its load current
    /// through unchanged regardless of input voltage.
    ConstantCurrent(Amps),
    /// Fixed power per tile, `I = P / V`. Models a switching down-converter
    /// load, which draws *more* current as its input droops; used for the
    /// delivery-strategy ablation.
    ConstantPower(Watts),
}

impl LoadModel {
    /// Current drawn at a given node voltage.
    #[inline]
    pub fn current_at(self, v: Volts) -> Amps {
        match self {
            LoadModel::ConstantCurrent(i) => i,
            LoadModel::ConstantPower(p) => p / v,
        }
    }
}

/// Configuration of the waferscale PDN analysis.
///
/// # Examples
///
/// ```
/// use wsp_pdn::PdnConfig;
///
/// let cfg = PdnConfig::paper_prototype();
/// assert_eq!(cfg.array().tile_count(), 1024);
/// let sol = cfg.solve()?;
/// assert!(sol.min_voltage().value() > 1.2);
/// # Ok::<(), wsp_pdn::SolvePdnError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PdnConfig {
    array: TileArray,
    supply: Volts,
    /// Loop (supply + return) sheet resistance of one grid square.
    loop_sheet_resistance: Ohms,
    /// Resistance of the connection from an edge tile to the supply ring.
    edge_connection: Ohms,
    load: LoadModel,
    /// Supply ring present on \[north, south, east, west\] edges.
    supply_sides: [bool; 4],
}

impl PdnConfig {
    /// Edge supply voltage of the prototype.
    pub const PAPER_SUPPLY: Volts = Volts(2.5);

    /// Peak per-tile current: 350 mW at the 1.21 V fast-fast corner
    /// (Sec. III), ≈ 0.289 A — about 290 A wafer-wide, matching the paper.
    pub const PAPER_TILE_CURRENT: Amps = Amps(0.35 / 1.21);

    /// Effective *loop* sheet resistance of one grid square.
    ///
    /// A solid 2 µm copper plane has ≈8.4 mΩ/sq; the paper's planes are
    /// dense *slotted* planes (roughly one-third effective metal), and the
    /// loop includes both the supply and return plane, giving
    /// ≈2 × 8.4 / 0.33 ≈ 51 mΩ/sq. This constant is the one calibration
    /// knob of the model and lands the Fig. 2 numbers (2.5 V edge,
    /// ~1.4 V centre).
    pub const PAPER_LOOP_SHEET_RESISTANCE: Ohms = Ohms(0.051);

    /// Creates a PDN analysis configuration.
    ///
    /// # Panics
    ///
    /// Panics if the supply is non-positive, a resistance is non-positive,
    /// or no supply side is enabled.
    pub fn new(
        array: TileArray,
        supply: Volts,
        loop_sheet_resistance: Ohms,
        edge_connection: Ohms,
        load: LoadModel,
        supply_sides: [bool; 4],
    ) -> Self {
        assert!(supply.value() > 0.0, "supply voltage must be positive");
        assert!(
            loop_sheet_resistance.value() > 0.0,
            "sheet resistance must be positive"
        );
        assert!(
            edge_connection.value() > 0.0,
            "edge connection resistance must be positive"
        );
        assert!(
            supply_sides.iter().any(|&s| s),
            "at least one supply side required"
        );
        PdnConfig {
            array,
            supply,
            loop_sheet_resistance,
            edge_connection,
            load,
            supply_sides,
        }
    }

    /// The paper's prototype PDN: 32×32 tiles, 2.5 V edge ring on all four
    /// sides, slotted-plane loop resistance, peak constant-current load.
    pub fn paper_prototype() -> Self {
        PdnConfig::new(
            TileArray::new(32, 32),
            Self::PAPER_SUPPLY,
            Self::PAPER_LOOP_SHEET_RESISTANCE,
            Ohms::from_milliohms(1.0),
            LoadModel::ConstantCurrent(Self::PAPER_TILE_CURRENT),
            [true; 4],
        )
    }

    /// The tile array being analysed.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// The edge-ring supply voltage.
    #[inline]
    pub fn supply(&self) -> Volts {
        self.supply
    }

    /// The per-tile load model.
    #[inline]
    pub fn load(&self) -> LoadModel {
        self.load
    }

    /// Returns a copy with a different per-tile load (e.g. to sweep from
    /// idle to peak power).
    pub fn with_load(mut self, load: LoadModel) -> Self {
        self.load = load;
        self
    }

    /// Returns a copy with a different loop sheet resistance.
    pub fn with_loop_sheet_resistance(mut self, r: Ohms) -> Self {
        assert!(r.value() > 0.0, "sheet resistance must be positive");
        self.loop_sheet_resistance = r;
        self
    }

    /// Returns a copy supplied only from the given sides
    /// (\[north, south, east, west\]).
    ///
    /// # Panics
    ///
    /// Panics if every entry is `false`.
    pub fn with_supply_sides(mut self, sides: [bool; 4]) -> Self {
        assert!(
            sides.iter().any(|&s| s),
            "at least one supply side required"
        );
        self.supply_sides = sides;
        self
    }

    /// Whether `tile` touches a powered edge of the wafer.
    fn touches_supply(&self, tile: TileCoord) -> bool {
        let a = self.array;
        (self.supply_sides[0] && tile.y == 0)
            || (self.supply_sides[1] && tile.y == a.rows() - 1)
            || (self.supply_sides[2] && tile.x == a.cols() - 1)
            || (self.supply_sides[3] && tile.x == 0)
    }

    /// Solves the nodal equations of the grid.
    ///
    /// Uses successive over-relaxation with a damped update of the
    /// (possibly voltage-dependent) load currents.
    ///
    /// # Errors
    ///
    /// Returns [`SolvePdnError::NoConvergence`] if the iteration fails to
    /// reach the `10 nV` residual tolerance within the iteration budget,
    /// and [`SolvePdnError::Collapse`] if a constant-power load drags a
    /// node to a non-physical (≤0 V) operating point.
    pub fn solve(&self) -> Result<PdnSolution, SolvePdnError> {
        self.solve_traced(&mut NoopSink)
    }

    /// [`PdnConfig::solve`] with per-iteration convergence telemetry:
    /// sampled `pdn` residual instants (every
    /// [`RESIDUAL_SAMPLE_STRIDE`](Self::RESIDUAL_SAMPLE_STRIDE) iterations,
    /// plus the last), a span covering the whole solve on the iteration
    /// axis, and summary gauges.
    ///
    /// # Errors
    ///
    /// Same contract as [`PdnConfig::solve`].
    pub fn solve_traced(&self, sink: &mut dyn Sink) -> Result<PdnSolution, SolvePdnError> {
        let n = self.array.tile_count();
        let i_load = vec![self.load.current_at(self.supply).value(); n];
        self.solve_inner(
            i_load,
            matches!(self.load, LoadModel::ConstantPower(_)),
            sink,
        )
    }

    /// [`PdnConfig::solve`] with red/black sweep ordering.
    ///
    /// Red/black SOR updates all even-parity nodes, then all odd-parity
    /// nodes; within a half-sweep every update reads only the opposite
    /// colour, so each colour is relaxed in place. The converged solution
    /// differs from [`PdnConfig::solve`] only by the sweep ordering, which
    /// the residual tolerance bounds to well under 1 µV per node.
    ///
    /// # Errors
    ///
    /// Same contract as [`PdnConfig::solve`].
    pub fn solve_red_black(&self) -> Result<PdnSolution, SolvePdnError> {
        let n = self.array.tile_count();
        let i_load = vec![self.load.current_at(self.supply).value(); n];
        self.solve_rb_inner(i_load, matches!(self.load, LoadModel::ConstantPower(_)))
    }

    /// Solves the grid with an explicit per-tile current map — e.g. a
    /// workload-derived power profile in which busy tiles draw peak
    /// current and idle tiles leakage only. Currents are fixed (constant-
    /// current semantics, the right model for LDO loads).
    ///
    /// # Errors
    ///
    /// Returns [`SolvePdnError::NoConvergence`] on iteration failure.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` differs from the tile count.
    pub fn solve_with_tile_currents(
        &self,
        currents: &[Amps],
    ) -> Result<PdnSolution, SolvePdnError> {
        assert_eq!(
            currents.len(),
            self.array.tile_count(),
            "one current per tile required"
        );
        self.solve_with_tile_currents_traced(currents, &mut NoopSink)
    }

    /// [`PdnConfig::solve_with_tile_currents`] with convergence telemetry
    /// (see [`PdnConfig::solve_traced`]).
    ///
    /// # Errors
    ///
    /// Returns [`SolvePdnError::NoConvergence`] on iteration failure.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` differs from the tile count.
    pub fn solve_with_tile_currents_traced(
        &self,
        currents: &[Amps],
        sink: &mut dyn Sink,
    ) -> Result<PdnSolution, SolvePdnError> {
        assert_eq!(
            currents.len(),
            self.array.tile_count(),
            "one current per tile required"
        );
        self.solve_inner(currents.iter().map(|i| i.value()).collect(), false, sink)
    }

    /// Iterations between sampled residual instants in
    /// [`PdnConfig::solve_traced`] — sparse enough that a full 32×32 solve
    /// (thousands of iterations) stays a small trace.
    pub const RESIDUAL_SAMPLE_STRIDE: usize = 64;

    const MAX_ITERS: usize = 200_000;
    /// Residual (max per-iteration voltage delta) at which the sweep stops.
    ///
    /// SOR's true error tracks the per-iteration delta by roughly
    /// `ρ/(1-ρ) ≈ 10×` at ω = 1.9, so a 10 nV delta bound keeps the
    /// lexicographic and red/black orderings within well under 1 µV of
    /// each other — the agreement [`PdnConfig::solve_red_black`] promises.
    const TOL: f64 = 1e-8;
    /// SOR relaxation factor for Laplace-like grids.
    const OMEGA: f64 = 1.9;

    fn solve_inner(
        &self,
        mut i_load: Vec<f64>,
        constant_power: bool,
        sink: &mut dyn Sink,
    ) -> Result<PdnSolution, SolvePdnError> {
        let array = self.array;
        let n = array.tile_count();
        let g_link = 1.0 / self.loop_sheet_resistance.value();
        let g_edge = 1.0 / self.edge_connection.value();
        let vs = self.supply.value();

        let mut v = vec![vs; n];
        let mut iterations = 0usize;
        loop {
            let mut max_delta: f64 = 0.0;
            for idx in 0..n {
                let tile = array.coord_of(idx);
                let mut g_sum = 0.0;
                let mut inflow = 0.0;
                for dir in DIRECTIONS {
                    if let Some(nb) = array.neighbor(tile, dir) {
                        g_sum += g_link;
                        inflow += g_link * v[array.index_of(nb)];
                    }
                }
                if self.touches_supply(tile) {
                    g_sum += g_edge;
                    inflow += g_edge * vs;
                }
                let v_new = (inflow - i_load[idx]) / g_sum;
                let relaxed = v[idx] + Self::OMEGA * (v_new - v[idx]);
                max_delta = max_delta.max((relaxed - v[idx]).abs());
                v[idx] = relaxed;
            }
            iterations += 1;
            if sink.enabled()
                && (iterations.is_multiple_of(Self::RESIDUAL_SAMPLE_STRIDE)
                    || max_delta < Self::TOL)
            {
                sink.instant(
                    "pdn",
                    "residual",
                    0,
                    iterations as u64,
                    &[("residual_v", max_delta)],
                );
            }

            if constant_power {
                let LoadModel::ConstantPower(p) = self.load else {
                    unreachable!("constant_power implies a ConstantPower load");
                };
                for idx in 0..n {
                    if v[idx] <= 0.05 {
                        return Err(SolvePdnError::Collapse {
                            tile: array.coord_of(idx),
                        });
                    }
                    // Damped current update keeps the nonlinear outer loop stable.
                    let target = p.value() / v[idx];
                    i_load[idx] += 0.5 * (target - i_load[idx]);
                }
            }

            if max_delta < Self::TOL {
                break;
            }
            if iterations >= Self::MAX_ITERS {
                return Err(SolvePdnError::NoConvergence {
                    iterations,
                    residual: max_delta,
                });
            }
        }

        if sink.enabled() {
            sink.span("pdn", "sor_solve", 0, 0, iterations as u64);
            sink.gauge_set("pdn.solve.iterations", iterations as f64);
            let min_v = v.iter().copied().fold(f64::INFINITY, f64::min);
            sink.gauge_set("pdn.min_voltage_v", min_v);
        }
        let total_current = Amps(i_load.iter().sum());
        Ok(PdnSolution {
            array,
            supply: self.supply,
            voltages: v.into_iter().map(Volts).collect(),
            iterations,
            total_current,
        })
    }

    /// Builds the packed red/black layout: per colour, the nodes in global
    /// row-major order with their constant nodal terms and the packed
    /// indices of their (opposite-colour) neighbours; plus the global→packed
    /// mapping used for load updates and reassembly.
    fn build_rb(&self) -> ([Vec<RbNode>; 2], Vec<(usize, usize)>) {
        let array = self.array;
        let n = array.tile_count();
        let g_link = 1.0 / self.loop_sheet_resistance.value();
        let g_edge = 1.0 / self.edge_connection.value();
        let vs = self.supply.value();

        let mut packed_of_global = Vec::with_capacity(n);
        let mut counts = [0usize; 2];
        for idx in 0..n {
            let tile = array.coord_of(idx);
            let colour = usize::from((tile.x + tile.y) % 2 == 1);
            packed_of_global.push((colour, counts[colour]));
            counts[colour] += 1;
        }

        let mut colours = [Vec::with_capacity(counts[0]), Vec::with_capacity(counts[1])];
        for idx in 0..n {
            let tile = array.coord_of(idx);
            let (colour, _) = packed_of_global[idx];
            let mut node = RbNode {
                global_idx: idx,
                g_sum: 0.0,
                edge_inflow: 0.0,
                neighbors: [0; 4],
                neighbor_count: 0,
            };
            for dir in DIRECTIONS {
                if let Some(nb) = array.neighbor(tile, dir) {
                    let (nb_colour, nb_packed) = packed_of_global[array.index_of(nb)];
                    debug_assert_ne!(colour, nb_colour, "4-neighbour grid is bipartite");
                    node.g_sum += g_link;
                    node.neighbors[node.neighbor_count] = nb_packed;
                    node.neighbor_count += 1;
                }
            }
            if self.touches_supply(tile) {
                node.g_sum += g_edge;
                node.edge_inflow = g_edge * vs;
            }
            colours[colour].push(node);
        }
        (colours, packed_of_global)
    }

    fn solve_rb_inner(
        &self,
        mut i_load: Vec<f64>,
        constant_power: bool,
    ) -> Result<PdnSolution, SolvePdnError> {
        let array = self.array;
        let n = array.tile_count();
        let g_link = 1.0 / self.loop_sheet_resistance.value();
        let vs = self.supply.value();

        let (colours, packed_of_global) = self.build_rb();
        let mut v = [vec![vs; colours[0].len()], vec![vs; colours[1].len()]];
        let mut iterations = 0usize;
        loop {
            let mut max_delta: f64 = 0.0;
            for (colour, nodes) in colours.iter().enumerate() {
                // Half-sweep: every node of `colour` reads only the opposite
                // colour plus its own old value, so updating in place gives
                // the same bits as computing the whole colour first.
                let [red, black] = &mut v;
                let (mine, opp) = if colour == 0 {
                    (red, &*black)
                } else {
                    (black, &*red)
                };
                for (node, v_mine) in nodes.iter().zip(mine.iter_mut()) {
                    let mut inflow = node.edge_inflow;
                    for &nb in &node.neighbors[..node.neighbor_count] {
                        inflow += g_link * opp[nb];
                    }
                    let v_new = (inflow - i_load[node.global_idx]) / node.g_sum;
                    let old = *v_mine;
                    let relaxed = old + Self::OMEGA * (v_new - old);
                    max_delta = max_delta.max((relaxed - old).abs());
                    *v_mine = relaxed;
                }
            }
            iterations += 1;

            if constant_power {
                let LoadModel::ConstantPower(p) = self.load else {
                    unreachable!("constant_power implies a ConstantPower load");
                };
                // Sequential, in global node order — identical semantics
                // (including which collapsing tile is reported first) to the
                // lexicographic solver.
                for idx in 0..n {
                    let (colour, packed) = packed_of_global[idx];
                    let vi = v[colour][packed];
                    if vi <= 0.05 {
                        return Err(SolvePdnError::Collapse {
                            tile: array.coord_of(idx),
                        });
                    }
                    // Damped current update keeps the nonlinear outer loop stable.
                    let target = p.value() / vi;
                    i_load[idx] += 0.5 * (target - i_load[idx]);
                }
            }

            if max_delta < Self::TOL {
                break;
            }
            if iterations >= Self::MAX_ITERS {
                return Err(SolvePdnError::NoConvergence {
                    iterations,
                    residual: max_delta,
                });
            }
        }

        let voltages = packed_of_global
            .iter()
            .map(|&(colour, packed)| Volts(v[colour][packed]))
            .collect();
        let total_current = Amps(i_load.iter().sum());
        Ok(PdnSolution {
            array,
            supply: self.supply,
            voltages,
            iterations,
            total_current,
        })
    }
}

/// One node of the packed red/black layout: its constant nodal terms and
/// the packed indices of its neighbours in the *opposite* colour array.
struct RbNode {
    global_idx: usize,
    g_sum: f64,
    /// `g_edge · V_supply` when the tile touches a powered edge, else 0.
    edge_inflow: f64,
    neighbors: [usize; 4],
    neighbor_count: usize,
}

impl fmt::Display for PdnConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PDN over {}: {} edge supply, {:.1} mΩ/sq loop",
            self.array,
            self.supply,
            self.loop_sheet_resistance.as_milliohms()
        )
    }
}

/// Failure modes of [`PdnConfig::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolvePdnError {
    /// The SOR iteration did not reach the residual tolerance.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual (max node-voltage delta) at the last iteration.
        residual: f64,
    },
    /// A constant-power load pulled a node voltage to a non-physical level.
    Collapse {
        /// The first node observed collapsing.
        tile: TileCoord,
    },
}

impl fmt::Display for SolvePdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolvePdnError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "PDN solve did not converge after {iterations} iterations (residual {residual:.2e} V)"
            ),
            SolvePdnError::Collapse { tile } => {
                write!(f, "node voltage collapsed at tile {tile} under constant-power load")
            }
        }
    }
}

impl Error for SolvePdnError {}

/// The solved DC operating point of the waferscale PDN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdnSolution {
    array: TileArray,
    supply: Volts,
    voltages: Vec<Volts>,
    iterations: usize,
    total_current: Amps,
}

impl PdnSolution {
    /// The tile array the solution covers.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// Supply-ring voltage used for the solve.
    #[inline]
    pub fn supply(&self) -> Volts {
        self.supply
    }

    /// DC voltage received by `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the array.
    #[inline]
    pub fn voltage_at(&self, tile: TileCoord) -> Volts {
        self.voltages[self.array.index_of(tile)]
    }

    /// Iterates over `(tile, voltage)` in row-major order.
    pub fn voltages(&self) -> impl Iterator<Item = (TileCoord, Volts)> + '_ {
        self.array.tiles().map(move |t| (t, self.voltage_at(t)))
    }

    /// Lowest node voltage on the wafer (at the centre for uniform load).
    pub fn min_voltage(&self) -> Volts {
        self.voltages
            .iter()
            .copied()
            .fold(Volts(f64::INFINITY), Volts::min)
    }

    /// Highest node voltage on the wafer.
    pub fn max_voltage(&self) -> Volts {
        self.voltages
            .iter()
            .copied()
            .fold(Volts(f64::NEG_INFINITY), Volts::max)
    }

    /// Worst-case IR droop from the supply ring.
    pub fn max_droop(&self) -> Volts {
        self.supply - self.min_voltage()
    }

    /// Total current delivered through the edge ring.
    #[inline]
    pub fn total_current(&self) -> Amps {
        self.total_current
    }

    /// Power drawn from the external supply (at the ring voltage).
    pub fn supply_power(&self) -> Watts {
        self.supply * self.total_current
    }

    /// Power dissipated in the distribution planes (supply power minus the
    /// power arriving at the chiplet inputs).
    pub fn plane_loss(&self) -> Watts {
        let delivered: f64 = self
            .voltages()
            .map(|(_, v)| (v * (self.total_current / self.array.tile_count() as f64)).value())
            .sum();
        Watts(self.supply_power().value() - delivered)
    }

    /// Solver iterations used.
    #[inline]
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_droop_map_matches_fig2() {
        let sol = PdnConfig::paper_prototype().solve().expect("converges");
        // Edge tiles receive close to the 2.5 V ring voltage.
        let edge = sol.voltage_at(TileCoord::new(0, 16));
        assert!(edge.value() > 2.3, "edge voltage {edge}");
        // Centre tiles droop to roughly 1.4 V (Fig. 2).
        let centre = sol.voltage_at(TileCoord::new(16, 16));
        assert!(
            (1.25..1.6).contains(&centre.value()),
            "centre voltage {centre}"
        );
        // Total wafer current ≈ 290 A, supply power ≈ 725 W (Table I).
        assert!((280.0..305.0).contains(&sol.total_current().value()));
        assert!((700.0..760.0).contains(&sol.supply_power().value()));
    }

    #[test]
    fn droop_is_monotone_towards_centre() {
        let sol = PdnConfig::paper_prototype().solve().expect("converges");
        // Walking in from the west edge along the middle row, voltage falls.
        let mut prev = sol.voltage_at(TileCoord::new(0, 16));
        for x in 1..=16 {
            let v = sol.voltage_at(TileCoord::new(x, 16));
            assert!(
                v.value() <= prev.value() + 1e-4,
                "droop not monotone at x={x}"
            );
            prev = v;
        }
        let reconstructed = sol.supply() - sol.max_droop();
        assert!((reconstructed - sol.min_voltage()).value().abs() < 1e-12);
    }

    #[test]
    fn zero_ish_load_gives_flat_plane() {
        let cfg = PdnConfig::paper_prototype().with_load(LoadModel::ConstantCurrent(Amps(1e-9)));
        let sol = cfg.solve().expect("converges");
        assert!(sol.max_droop().value() < 1e-6);
    }

    #[test]
    fn single_side_supply_droops_more() {
        let all = PdnConfig::paper_prototype().solve().expect("converges");
        let west_only = PdnConfig::paper_prototype()
            .with_supply_sides([false, false, false, true])
            .solve()
            .expect("converges");
        assert!(west_only.max_droop().value() > all.max_droop().value() * 1.5);
        // And the worst node is far from the west edge.
        let far = west_only.voltage_at(TileCoord::new(31, 16));
        let near = west_only.voltage_at(TileCoord::new(0, 16));
        assert!(far.value() < near.value());
    }

    #[test]
    fn constant_power_load_droops_more_than_constant_current() {
        // Same nominal power, but constant-power loads draw more current as
        // voltage falls, deepening the droop.
        let i = Amps(PdnConfig::PAPER_TILE_CURRENT.value() * 0.5);
        let p = Watts(i.value() * 2.5); // equal current at the ring voltage
        let cc = PdnConfig::paper_prototype()
            .with_load(LoadModel::ConstantCurrent(i))
            .solve()
            .expect("cc converges");
        let cp = PdnConfig::paper_prototype()
            .with_load(LoadModel::ConstantPower(p))
            .solve()
            .expect("cp converges");
        assert!(cp.max_droop().value() > cc.max_droop().value());
    }

    #[test]
    fn collapse_detected_for_absurd_power() {
        let cfg = PdnConfig::paper_prototype().with_load(LoadModel::ConstantPower(Watts(50.0)));
        match cfg.solve() {
            Err(SolvePdnError::Collapse { .. }) => {}
            other => panic!("expected collapse, got {other:?}"),
        }
    }

    #[test]
    fn one_dimensional_ladder_matches_closed_form() {
        // A 1×N strip fed from the west edge only is a textbook resistor
        // ladder: V(k) = Vs - R·I·Σ_{j≤k}(N - j + boundary terms).
        // Compare the solver to the analytic partial-sum solution.
        let n = 8u16;
        let r = Ohms(0.01);
        let i = Amps(0.1);
        let r_edge = Ohms::from_milliohms(1.0);
        let cfg = PdnConfig::new(
            TileArray::new(n, 1),
            Volts(2.5),
            r,
            r_edge,
            LoadModel::ConstantCurrent(i),
            [false, false, false, true],
        );
        let sol = cfg.solve().expect("converges");
        // Current through the edge resistor is the full N·I.
        let total = i.value() * f64::from(n);
        let mut expected = 2.5 - total * r_edge.value();
        let mut flowing = total;
        for x in 0..n {
            if x > 0 {
                expected -= flowing * r.value();
            }
            let got = sol.voltage_at(TileCoord::new(x, 0)).value();
            assert!(
                (got - expected).abs() < 1e-4,
                "ladder mismatch at x={x}: got {got}, expected {expected}"
            );
            flowing -= i.value();
        }
    }

    #[test]
    fn tile_current_map_localises_droop() {
        // Hotspot: only the centre 4x4 block draws peak current; the
        // droop should be far smaller than the all-on case, and the
        // minimum should sit at the hotspot.
        let cfg = PdnConfig::paper_prototype();
        let array = cfg.array();
        let peak = PdnConfig::PAPER_TILE_CURRENT;
        let idle = Amps(peak.value() * 0.05);
        let currents: Vec<Amps> = array
            .tiles()
            .map(|t| {
                if (14..18).contains(&t.x) && (14..18).contains(&t.y) {
                    peak
                } else {
                    idle
                }
            })
            .collect();
        let hotspot = cfg.solve_with_tile_currents(&currents).expect("converges");
        let all_on = cfg.solve().expect("converges");
        assert!(hotspot.max_droop().value() < 0.5 * all_on.max_droop().value());
        // The worst node is inside (or adjacent to) the hotspot block.
        let (worst, _) = hotspot
            .voltages()
            .min_by(|a, b| a.1.value().partial_cmp(&b.1.value()).expect("finite"))
            .expect("non-empty");
        assert!(
            (13..=18).contains(&worst.x) && (13..=18).contains(&worst.y),
            "worst at {worst}"
        );
    }

    #[test]
    fn uniform_current_map_matches_solve() {
        let cfg = PdnConfig::paper_prototype();
        let currents = vec![PdnConfig::PAPER_TILE_CURRENT; cfg.array().tile_count()];
        let a = cfg.solve_with_tile_currents(&currents).expect("ok");
        let b = cfg.solve().expect("ok");
        for (t, v) in a.voltages() {
            assert!((v - b.voltage_at(t)).value().abs() < 1e-5, "{t}");
        }
    }

    #[test]
    #[should_panic(expected = "one current per tile")]
    fn wrong_current_map_length_rejected() {
        let cfg = PdnConfig::paper_prototype();
        let _ = cfg.solve_with_tile_currents(&[Amps(0.1); 3]);
    }

    #[test]
    fn plane_loss_is_positive_and_bounded() {
        let sol = PdnConfig::paper_prototype().solve().expect("converges");
        let loss = sol.plane_loss();
        assert!(loss.value() > 0.0);
        assert!(loss.value() < sol.supply_power().value());
    }

    #[test]
    #[should_panic(expected = "at least one supply side")]
    fn no_supply_side_rejected() {
        let _ = PdnConfig::paper_prototype().with_supply_sides([false; 4]);
    }

    #[test]
    fn traced_solve_matches_untraced_and_records_convergence() {
        use wsp_telemetry::Recorder;

        let cfg = PdnConfig::paper_prototype();
        let mut recorder = Recorder::new();
        let traced = cfg.solve_traced(&mut recorder).expect("converges");
        let plain = cfg.solve().expect("converges");
        assert_eq!(traced, plain, "telemetry must not perturb the solve");

        assert_eq!(recorder.tracer.span_count("pdn"), 1);
        // Residual instants were sampled, ending below tolerance.
        let residuals: Vec<f64> = recorder
            .tracer
            .events()
            .iter()
            .filter(|e| e.name == "residual")
            .flat_map(|e| e.args.iter().map(|&(_, v)| v))
            .collect();
        assert!(
            residuals.len() >= 2,
            "expected sampled residuals, got {residuals:?}"
        );
        assert!(residuals.last().expect("non-empty") < &1e-6);
        assert_eq!(
            recorder.registry.gauge("pdn.solve.iterations"),
            Some(traced.iterations() as f64)
        );
    }

    #[test]
    fn red_black_matches_lexicographic_within_a_microvolt() {
        let cfg = PdnConfig::paper_prototype();
        let lex = cfg.solve().expect("lexicographic converges");
        let rb = cfg.solve_red_black().expect("red/black converges");
        for (t, v) in lex.voltages() {
            let d = (v - rb.voltage_at(t)).value().abs();
            assert!(d < 1e-6, "{t}: orderings differ by {d:.2e} V");
        }
        assert!((lex.total_current() - rb.total_current()).value().abs() < 1e-6);
    }

    /// FNV-1a 64 over the bits of every node voltage (row-major), then
    /// the iteration count.
    fn solution_digest(sol: &PdnSolution) -> u64 {
        let mut h = wsp_telemetry::Fnv1a::new();
        for (_, v) in sol.voltages() {
            h.write_u64(v.value().to_bits());
        }
        h.write_u64(sol.iterations() as u64);
        h.finish()
    }

    #[test]
    fn red_black_solution_is_pinned_bit_for_bit() {
        // Any change to the update order or arithmetic moves these
        // literals; the fig2 golden pins only the deviation from the
        // lexicographic solve to 10 digits, and the proptest a 1 µV bound.
        let prototype = PdnConfig::paper_prototype()
            .solve_red_black()
            .expect("converges");
        assert_eq!(prototype.iterations(), 160);
        assert_eq!(solution_digest(&prototype), 0x5b84_20aa_df56_7f1f);

        let p = Watts(PdnConfig::PAPER_TILE_CURRENT.value() * 2.5 * 0.25);
        let east_west = PdnConfig::paper_prototype()
            .with_load(LoadModel::ConstantPower(p))
            .with_supply_sides([false, false, true, true])
            .solve_red_black()
            .expect("converges");
        assert_eq!(east_west.iterations(), 138);
        assert_eq!(solution_digest(&east_west), 0xa645_4d3e_5934_0a07);
    }

    #[test]
    fn red_black_constant_power_matches_and_collapses() {
        let p = Watts(PdnConfig::PAPER_TILE_CURRENT.value() * 2.5 * 0.5);
        let cfg = PdnConfig::paper_prototype().with_load(LoadModel::ConstantPower(p));
        let lex = cfg.solve().expect("lexicographic converges");
        let rb = cfg.solve_red_black().expect("red/black converges");
        for (t, v) in lex.voltages() {
            assert!((v - rb.voltage_at(t)).value().abs() < 1e-6, "{t}");
        }

        let absurd = PdnConfig::paper_prototype().with_load(LoadModel::ConstantPower(Watts(50.0)));
        match absurd.solve_red_black() {
            Err(SolvePdnError::Collapse { .. }) => {}
            other => panic!("expected collapse, got {other:?}"),
        }
    }

    #[test]
    fn display_mentions_parameters() {
        let s = PdnConfig::paper_prototype().to_string();
        assert!(s.contains("32x32"));
        assert!(s.contains("2.5 V"));
    }
}
