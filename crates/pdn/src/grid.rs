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
//! There is one solve: [`PdnConfig::solve`] (and its traced and per-tile
//! current forms), classic Gauss–Seidel SOR with the fixed point of the
//! lexicographic, row-major sweep. Every PDN number in the workspace comes
//! from it. The sweep visits nodes by anti-diagonal (`x + y`), which
//! performs exactly the row-major sweep's reads and arithmetic: a node's
//! north and west neighbours are on the diagonal before its own and
//! already relaxed, its south and east ones on the diagonal after and not
//! yet. Nodes on one diagonal do not read each other, so their updates
//! overlap instead of each waiting on its west neighbour's division. The
//! speed of a red/black sweep comes from the same independence, but
//! red/black reads different values and stops at a different point inside
//! the residual tolerance, moving every PDN number in its last digits.
//! The solution is pinned bit for bit in the unit tests, and a test-only
//! copy of the row-major sweep is the oracle it is compared with.

use std::error::Error;
use std::fmt;

use wsp_common::units::{Amps, Ohms, Volts, Watts};
use wsp_telemetry::{NoopSink, Sink};
use wsp_topo::{TileArray, TileCoord, DIRECTIONS};

/// How a tile draws current from the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Returns [`SolvePdnError::NonFiniteLoad`] if the load's current at
    /// the supply voltage is NaN or infinite,
    /// [`SolvePdnError::NoConvergence`] if the iteration fails to reach
    /// the `10 nV` residual tolerance within the iteration budget, a
    /// fixed-current residual stagnates (no new minimum for 1 000 sweeps
    /// in a row) or an iterate turns NaN, and [`SolvePdnError::Collapse`]
    /// if a constant-power load drags a node to a non-physical (≤0 V)
    /// operating point.
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

    /// Solves the grid with an explicit per-tile current map — e.g. a
    /// workload-derived power profile in which busy tiles draw peak
    /// current and idle tiles leakage only. Currents are fixed (constant-
    /// current semantics, the right model for LDO loads).
    ///
    /// # Errors
    ///
    /// Returns [`SolvePdnError::NonFiniteLoad`] naming the first tile whose
    /// current is NaN or infinite, and [`SolvePdnError::NoConvergence`] on
    /// iteration failure.
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
    /// Returns [`SolvePdnError::NonFiniteLoad`] naming the first tile whose
    /// current is NaN or infinite, and [`SolvePdnError::NoConvergence`] on
    /// iteration failure.
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
    /// `ρ/(1-ρ) ≈ 10×` at ω = 1.9, so a 10 nV delta bound leaves every
    /// node well under 1 µV from the exact nodal solution — far below the
    /// millivolts any PDN result reports.
    const TOL: f64 = 1e-8;
    /// Sweeps in a row without a new minimum residual after which a
    /// fixed-current solve gives up. A huge finite load can never meet
    /// the absolute [`TOL`](Self::TOL): its residual floors at the
    /// rounding error of its own voltages, so without this stop it runs
    /// all [`MAX_ITERS`](Self::MAX_ITERS) sweeps. A converging solve sets
    /// a new minimum far more often (at most 21 sweeps apart across the
    /// workspace's tests, bins and benchmark; EXPERIMENTS.md § No
    /// capability without a caller). A constant-power solve is exempt:
    /// its voltages stay between the collapse bound and the supply, so
    /// its rounding floor lies far below `TOL`, and just above its
    /// collapse point its residual stalls for thousands of sweeps before
    /// a node collapses.
    const STAGNATION_SWEEPS: usize = 1_000;
    /// SOR relaxation factor for Laplace-like grids.
    const OMEGA: f64 = 1.9;

    /// The sweep's stencil, one entry per node in visiting order:
    /// anti-diagonal by anti-diagonal (`x + y` ascending), `x` ascending
    /// within one — the order that reads exactly what the row-major sweep
    /// read (module docs).
    fn stencil(&self, g_link: f64, g_edge: f64) -> Vec<Stencil> {
        let array = self.array;
        let (cols, rows) = (usize::from(array.cols()), usize::from(array.rows()));
        let pad = array.tile_count();
        let mut table = Vec::with_capacity(pad);
        for diagonal in 0..cols + rows - 1 {
            for x in diagonal.saturating_sub(rows - 1)..=diagonal.min(cols - 1) {
                let tile = TileCoord::new(x as u16, (diagonal - x) as u16);
                let mut neighbours = [pad; 4];
                // Summed in the row-major sweep's order: N, S, E, W, ring.
                let mut g_sum = 0.0;
                for dir in DIRECTIONS {
                    if let Some(nb) = array.neighbor(tile, dir) {
                        neighbours[dir.index()] = array.index_of(nb);
                        g_sum += g_link;
                    }
                }
                let mut supply = 0.0;
                if self.touches_supply(tile) {
                    g_sum += g_edge;
                    supply = g_edge * self.supply.value();
                }
                table.push(Stencil {
                    node: array.index_of(tile),
                    neighbours,
                    g_sum,
                    supply,
                });
            }
        }
        table
    }

    fn solve_inner(
        &self,
        mut i_load: Vec<f64>,
        constant_power: bool,
        sink: &mut dyn Sink,
    ) -> Result<PdnSolution, SolvePdnError> {
        let array = self.array;
        let n = array.tile_count();
        if let Some(idx) = i_load.iter().position(|i| !i.is_finite()) {
            return Err(SolvePdnError::NonFiniteLoad {
                tile: array.coord_of(idx),
            });
        }
        let g_link = 1.0 / self.loop_sheet_resistance.value();
        let g_edge = 1.0 / self.edge_connection.value();
        let stencil = self.stencil(g_link, g_edge);

        // Node voltages in row-major order, then the pad slot a missing
        // neighbour reads. Its term `g_link · +0.0` is +0.0, and `inflow`
        // starts at +0.0 and never becomes −0.0, so adding it changes no
        // bit of the row-major sweep's sum.
        let mut v = vec![self.supply.value(); n + 1];
        v[n] = 0.0;
        let mut iterations = 0usize;
        let mut best_residual = f64::INFINITY;
        let mut since_best = 0usize;
        loop {
            // The residual is the largest delta; a NaN delta is flagged
            // on its own (the compare below, like `f64::max`, would drop
            // it), so a non-finite iterate never reads as converged.
            let mut max_delta: f64 = 0.0;
            let mut nan_delta = false;
            for s in &stencil {
                let mut inflow = 0.0;
                for &nb in &s.neighbours {
                    inflow += g_link * v[nb];
                }
                inflow += s.supply;
                let old = v[s.node];
                let v_new = (inflow - i_load[s.node]) / s.g_sum;
                let relaxed = old + Self::OMEGA * (v_new - old);
                let delta = (relaxed - old).abs();
                max_delta = if delta > max_delta { delta } else { max_delta };
                nan_delta |= delta.is_nan();
                v[s.node] = relaxed;
            }
            if nan_delta {
                max_delta = f64::NAN;
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
            if max_delta < best_residual {
                best_residual = max_delta;
                since_best = 0;
            } else {
                since_best += 1;
            }
            // A NaN node stays NaN, so a NaN residual cannot recover.
            if max_delta.is_nan()
                || (!constant_power && since_best >= Self::STAGNATION_SWEEPS)
                || iterations >= Self::MAX_ITERS
            {
                return Err(SolvePdnError::NoConvergence {
                    iterations,
                    residual: max_delta,
                });
            }
        }
        v.truncate(n);

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
            currents: i_load.into_iter().map(Amps).collect(),
            iterations,
            total_current,
        })
    }
}

/// One node of the SOR sweep: where its terms live and the constants of
/// its update, built once per solve by `PdnConfig::stencil`.
struct Stencil {
    /// Row-major index of the node.
    node: usize,
    /// Neighbour indices in N, S, E, W order; a missing neighbour points
    /// at the pad slot past the last node, which holds +0.0.
    neighbours: [usize; 4],
    /// Conductance to the neighbours and the ring.
    g_sum: f64,
    /// Inflow from the supply ring (`g_edge · V_s`), +0.0 off the ring.
    supply: f64,
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
    /// A tile's load current is NaN or infinite before the first sweep
    /// (a non-finite tile current, or a load whose current at the supply
    /// voltage is not finite).
    NonFiniteLoad {
        /// The first such tile in row-major order.
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
            SolvePdnError::NonFiniteLoad { tile } => {
                write!(f, "load current at tile {tile} is not finite")
            }
        }
    }
}

impl Error for SolvePdnError {}

/// The solved DC operating point of the waferscale PDN.
#[derive(Debug, Clone, PartialEq)]
pub struct PdnSolution {
    array: TileArray,
    supply: Volts,
    voltages: Vec<Volts>,
    /// The current each tile draws at the converged operating point.
    currents: Vec<Amps>,
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

    /// Power dissipated in the distribution planes: supply power minus
    /// the power arriving at the chiplet inputs, `Σ V_t · I_t` over each
    /// tile's voltage and the current it draws there.
    pub fn plane_loss(&self) -> Watts {
        let delivered: f64 = self
            .voltages
            .iter()
            .zip(&self.currents)
            .map(|(&v, &i)| (v * i).value())
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
        // The paper grid collapses just above 0.566493 W per tile. At
        // 0.5665 W the residual sets its last new minimum near sweep 2 500
        // and a node reaches the collapse bound more than 1 000 sweeps
        // later, so a stagnation stop there would report NoConvergence.
        for watts in [50.0, 0.5665] {
            let cfg =
                PdnConfig::paper_prototype().with_load(LoadModel::ConstantPower(Watts(watts)));
            match cfg.solve() {
                Err(SolvePdnError::Collapse { .. }) => {}
                other => panic!("{watts} W: expected collapse, got {other:?}"),
            }
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
        let hotspot = cfg
            .solve_with_tile_currents(&hot_block(cfg.array(), 4))
            .expect("converges");
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

    /// Per-tile currents with a centred `block`×`block` square at peak
    /// and every other tile at 5 % of it.
    fn hot_block(array: TileArray, block: u16) -> Vec<Amps> {
        let peak = PdnConfig::PAPER_TILE_CURRENT;
        let idle = Amps(peak.value() * 0.05);
        let lo = array.cols() / 2 - block / 2;
        let hot = lo..lo + block;
        array
            .tiles()
            .map(|t| {
                if hot.contains(&t.x) && hot.contains(&t.y) {
                    peak
                } else {
                    idle
                }
            })
            .collect()
    }

    #[test]
    fn solve_is_pinned_bit_for_bit() {
        // Any change to the sweep order or the arithmetic moves these
        // literals; the fig2 golden pins voltages only to 9 digits.
        let prototype = PdnConfig::paper_prototype().solve().expect("converges");
        assert_eq!(prototype.iterations(), 170);
        assert_eq!(solution_digest(&prototype), 0xb7ec_a45a_4ed6_596d);

        let p = Watts(PdnConfig::PAPER_TILE_CURRENT.value() * 2.5 * 0.25);
        let east_west = PdnConfig::paper_prototype()
            .with_load(LoadModel::ConstantPower(p))
            .with_supply_sides([false, false, true, true])
            .solve()
            .expect("converges");
        assert_eq!(east_west.iterations(), 159);
        assert_eq!(solution_digest(&east_west), 0x57db_2886_56f5_cf1f);

        let cfg = PdnConfig::paper_prototype();
        let hotspot = cfg
            .solve_with_tile_currents(&hot_block(cfg.array(), 4))
            .expect("converges");
        assert_eq!(hotspot.iterations(), 148);
        assert_eq!(solution_digest(&hotspot), 0x669c_2cd7_bbd4_5317);
    }

    #[test]
    fn non_finite_load_is_rejected_naming_the_tile() {
        let cfg = PdnConfig::paper_prototype();
        let tile = TileCoord::new(5, 3);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut currents = vec![PdnConfig::PAPER_TILE_CURRENT; cfg.array().tile_count()];
            currents[cfg.array().index_of(tile)] = Amps(bad);
            assert_eq!(
                cfg.solve_with_tile_currents(&currents),
                Err(SolvePdnError::NonFiniteLoad { tile }),
                "current {bad}"
            );
        }
        // A uniform load is the same at every tile: the first one is named.
        for load in [
            LoadModel::ConstantCurrent(Amps(f64::NAN)),
            LoadModel::ConstantPower(Watts(f64::NAN)),
            LoadModel::ConstantPower(Watts(f64::INFINITY)),
        ] {
            assert_eq!(
                cfg.with_load(load).solve(),
                Err(SolvePdnError::NonFiniteLoad {
                    tile: TileCoord::new(0, 0)
                }),
                "{load:?}"
            );
        }
        assert_eq!(
            SolvePdnError::NonFiniteLoad { tile }.to_string(),
            "load current at tile (5, 3) is not finite"
        );
    }

    #[test]
    fn non_finite_iterate_never_reads_as_converged() {
        // A finite current so large that the first sweeps overflow to ±∞
        // and then NaN: the residual carries the NaN instead of dropping
        // it, and the solve stops at once.
        let cfg =
            PdnConfig::paper_prototype().with_load(LoadModel::ConstantCurrent(Amps(f64::MAX)));
        match cfg.solve() {
            Err(SolvePdnError::NoConvergence {
                iterations,
                residual,
            }) => {
                assert!(residual.is_nan(), "residual {residual}");
                assert!(iterations < 10, "stopped after {iterations} iterations");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn stagnant_residual_stops_the_solve() {
        // A huge finite load never meets the absolute 10 nV tolerance:
        // its residual stops falling within a few hundred sweeps, and the
        // solve gives up 1 000 sweeps (STAGNATION_SWEEPS) later instead of
        // running the whole 200 000-sweep budget.
        for amps in [1e12, 1e300] {
            let cfg = PdnConfig::new(
                TileArray::new(2, 2),
                PdnConfig::PAPER_SUPPLY,
                PdnConfig::PAPER_LOOP_SHEET_RESISTANCE,
                Ohms::from_milliohms(1.0),
                LoadModel::ConstantCurrent(Amps(amps)),
                [true; 4],
            );
            match cfg.solve() {
                Err(SolvePdnError::NoConvergence {
                    iterations,
                    residual,
                }) => {
                    assert!(residual.is_finite(), "{amps} A: residual {residual}");
                    assert!(
                        iterations <= 2_000,
                        "{amps} A: stopped after {iterations} sweeps"
                    );
                }
                other => panic!("{amps} A: expected NoConvergence, got {other:?}"),
            }
        }
    }

    /// I²R summed resistor by resistor over the paper grid (every edge
    /// tile tied to the ring): each plane link once, plus each edge
    /// connection.
    fn resistor_loss(sol: &PdnSolution) -> f64 {
        let g_link = 1.0 / PdnConfig::PAPER_LOOP_SHEET_RESISTANCE.value();
        let g_edge = 1.0 / Ohms::from_milliohms(1.0).value();
        let array = sol.array();
        let (last_x, last_y) = (array.cols() - 1, array.rows() - 1);
        let mut loss = 0.0;
        for t in array.tiles() {
            let v = sol.voltage_at(t).value();
            for nb in [TileCoord::new(t.x + 1, t.y), TileCoord::new(t.x, t.y + 1)] {
                if nb.x <= last_x && nb.y <= last_y {
                    loss += (v - sol.voltage_at(nb).value()).powi(2) * g_link;
                }
            }
            if t.x == 0 || t.y == 0 || t.x == last_x || t.y == last_y {
                loss += (sol.supply().value() - v).powi(2) * g_edge;
            }
        }
        loss
    }

    #[test]
    fn plane_loss_equals_the_resistor_sum_under_non_uniform_loads() {
        let cfg = PdnConfig::paper_prototype();
        let hot_block = cfg
            .solve_with_tile_currents(&hot_block(cfg.array(), 8))
            .expect("converges");
        let p = Watts(PdnConfig::PAPER_TILE_CURRENT.value() * 2.5 * 0.5);
        let constant_power = cfg
            .with_load(LoadModel::ConstantPower(p))
            .solve()
            .expect("converges");
        let uniform = cfg.solve().expect("converges");
        for (name, sol) in [
            ("8x8 hot block", hot_block),
            ("half-peak constant power", constant_power),
            ("uniform peak", uniform),
        ] {
            let (got, want) = (sol.plane_loss().value(), resistor_loss(&sol));
            assert!(
                (got - want).abs() < 1e-3,
                "{name}: plane_loss {got:.4} W vs resistor sum {want:.4} W"
            );
        }
    }

    /// The row-major Gauss–Seidel sweep that `solve` ran before the
    /// anti-diagonal stencil, kept as the oracle `solve` is held to bit
    /// for bit: node by node in index order, neighbours looked up on
    /// every sweep.
    fn row_major_solve(
        cfg: &PdnConfig,
        mut i_load: Vec<f64>,
        constant_power: bool,
    ) -> Result<PdnSolution, SolvePdnError> {
        let array = cfg.array;
        let n = array.tile_count();
        let g_link = 1.0 / cfg.loop_sheet_resistance.value();
        let g_edge = 1.0 / cfg.edge_connection.value();
        let vs = cfg.supply.value();
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
                if cfg.touches_supply(tile) {
                    g_sum += g_edge;
                    inflow += g_edge * vs;
                }
                let v_new = (inflow - i_load[idx]) / g_sum;
                let relaxed = v[idx] + PdnConfig::OMEGA * (v_new - v[idx]);
                max_delta = max_delta.max((relaxed - v[idx]).abs());
                v[idx] = relaxed;
            }
            iterations += 1;
            if constant_power {
                let LoadModel::ConstantPower(p) = cfg.load else {
                    unreachable!("constant_power implies a ConstantPower load");
                };
                for idx in 0..n {
                    if v[idx] <= 0.05 {
                        return Err(SolvePdnError::Collapse {
                            tile: array.coord_of(idx),
                        });
                    }
                    let target = p.value() / v[idx];
                    i_load[idx] += 0.5 * (target - i_load[idx]);
                }
            }
            if max_delta < PdnConfig::TOL {
                break;
            }
            if iterations >= PdnConfig::MAX_ITERS {
                return Err(SolvePdnError::NoConvergence {
                    iterations,
                    residual: max_delta,
                });
            }
        }
        let total_current = Amps(i_load.iter().sum());
        Ok(PdnSolution {
            array,
            supply: cfg.supply,
            voltages: v.into_iter().map(Volts).collect(),
            currents: i_load.into_iter().map(Amps).collect(),
            iterations,
            total_current,
        })
    }

    /// Every bit of an outcome: voltages, currents, total and iteration
    /// count of a solution, or the error with its residual's bits.
    fn outcome_bits(outcome: &Result<PdnSolution, SolvePdnError>) -> String {
        match outcome {
            Ok(sol) => {
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let v: Vec<f64> = sol.voltages.iter().map(|v| v.value()).collect();
                let i: Vec<f64> = sol.currents.iter().map(|i| i.value()).collect();
                format!(
                    "Ok iterations {} total {:#x} voltages {:?} currents {:?}",
                    sol.iterations,
                    sol.total_current.value().to_bits(),
                    bits(&v),
                    bits(&i)
                )
            }
            Err(SolvePdnError::NoConvergence {
                iterations,
                residual,
            }) => format!("NoConvergence {iterations} {:#x}", residual.to_bits()),
            Err(e) => format!("{e:?}"),
        }
    }

    /// Per-tile currents for a non-square array: tiles inside `[x0, x1)
    /// × [y0, y1)` (in quarters of the extent) at peak, the rest at 5 %.
    fn quarter_block(array: TileArray, x: (u16, u16), y: (u16, u16)) -> Vec<Amps> {
        let peak = PdnConfig::PAPER_TILE_CURRENT;
        let idle = Amps(peak.value() * 0.05);
        let span = |n: u16, (a, b): (u16, u16)| n * a / 4..(n * b).div_ceil(4);
        let (xs, ys) = (span(array.cols(), x), span(array.rows(), y));
        array
            .tiles()
            .map(|t| {
                if xs.contains(&t.x) && ys.contains(&t.y) {
                    peak
                } else {
                    idle
                }
            })
            .collect()
    }

    #[test]
    fn solve_matches_the_row_major_oracle_bit_for_bit() {
        let arrays = [(1, 1), (1, 9), (9, 1), (2, 2), (5, 7), (17, 33), (32, 32)];
        let converging = Watts(PdnConfig::PAPER_TILE_CURRENT.value() * 2.5 * 0.25);
        let collapsing = Watts(50.0);
        let (mut cases, mut collapses, mut solved) = (0, 0, 0);
        for (cols, rows) in arrays {
            let array = TileArray::new(cols, rows);
            for mask in 1u8..16 {
                let sides = [0, 1, 2, 3].map(|bit| mask & (1 << bit) != 0);
                let base = PdnConfig::new(
                    array,
                    PdnConfig::PAPER_SUPPLY,
                    PdnConfig::PAPER_LOOP_SHEET_RESISTANCE,
                    Ohms::from_milliohms(1.0),
                    LoadModel::ConstantCurrent(PdnConfig::PAPER_TILE_CURRENT),
                    sides,
                );
                let n = array.tile_count();
                let peak = PdnConfig::PAPER_TILE_CURRENT.value();
                let mut runs = vec![(
                    "constant current",
                    base.solve(),
                    row_major_solve(&base, vec![peak; n], false),
                )];
                for (name, p) in [
                    ("converging constant power", converging),
                    ("collapsing constant power", collapsing),
                ] {
                    let cfg = base.with_load(LoadModel::ConstantPower(p));
                    let i0 = p.value() / cfg.supply.value();
                    runs.push((name, cfg.solve(), row_major_solve(&cfg, vec![i0; n], true)));
                }
                for (name, x, y) in [
                    ("centre hot block", (1, 3), (1, 3)),
                    ("corner hot block", (0, 1), (2, 4)),
                ] {
                    let currents = quarter_block(array, x, y);
                    let amps = currents.iter().map(|i| i.value()).collect();
                    runs.push((
                        name,
                        base.solve_with_tile_currents(&currents),
                        row_major_solve(&base, amps, false),
                    ));
                }
                for (name, got, want) in runs {
                    assert_eq!(
                        outcome_bits(&got),
                        outcome_bits(&want),
                        "{cols}x{rows}, supply sides {sides:?}, {name}"
                    );
                    cases += 1;
                    collapses += usize::from(matches!(got, Err(SolvePdnError::Collapse { .. })));
                    solved += usize::from(got.is_ok());
                }
            }
        }
        assert_eq!(cases, 7 * 15 * 5);
        // Both outcomes the oracle can reach are covered.
        assert!(
            collapses > 0 && solved > 0,
            "{collapses} collapses, {solved} solved"
        );
    }

    #[test]
    fn display_mentions_parameters() {
        let s = PdnConfig::paper_prototype().to_string();
        assert!(s.contains("32x32"));
        assert!(s.contains("2.5 V"));
    }
}
