//! Distributed 2-D Jacobi stencil — the waferscale showcase workload.
//!
//! The paper's introduction motivates waferscale integration with exactly
//! this class of computation (its ref. [4] is Cerebras' fast stencil-code
//! result): nearest-neighbour halo exchange maps perfectly onto a mesh of
//! tiles with enormous aggregate memory bandwidth. The grid is split into
//! contiguous block-rows, one per healthy tile; every superstep exchanges
//! halo rows with the block-row neighbours and relaxes the interior
//! (Dirichlet boundaries stay fixed).

use wsp_topo::TileCoord;

use crate::system::WaferscaleSystem;
use crate::workload::{
    MessageLatency, RunWorkloadError, WorkloadReport, CYCLES_PER_EDGE, CYCLES_PER_MESSAGE,
};

/// A dense 2-D grid of `f64` cells.
///
/// # Examples
///
/// ```
/// use waferscale::workload::StencilGrid;
///
/// let mut grid = StencilGrid::new(8, 8);
/// grid.set(0, 3, 100.0); // hot boundary cell
/// let after = grid.reference_jacobi(5);
/// assert!(after.get(1, 3) > 0.0); // heat diffused inwards
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StencilGrid {
    width: usize,
    height: usize,
    cells: Vec<f64>,
}

impl StencilGrid {
    /// Creates a zero-initialised grid.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 3 (an interior must
    /// exist).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 3 && height >= 3, "grid needs an interior");
        StencilGrid {
            width,
            height,
            cells: vec![0.0; width * height],
        }
    }

    /// Grid width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cell value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "cell out of range");
        self.cells[y * self.width + x]
    }

    /// Sets cell `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f64) {
        assert!(x < self.width && y < self.height, "cell out of range");
        self.cells[y * self.width + x] = value;
    }

    /// Sequential reference: `steps` Jacobi iterations (4-point average
    /// over the interior, fixed boundary).
    pub fn reference_jacobi(&self, steps: u32) -> StencilGrid {
        let mut cur = self.clone();
        let mut next = self.clone();
        for _ in 0..steps {
            for y in 1..self.height - 1 {
                for x in 1..self.width - 1 {
                    let v = 0.25
                        * (cur.get(x - 1, y)
                            + cur.get(x + 1, y)
                            + cur.get(x, y - 1)
                            + cur.get(x, y + 1));
                    next.set(x, y, v);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }
}

/// Runs `iterations` Jacobi supersteps distributed over the system's
/// usable tiles (block-row decomposition) and returns the final grid with
/// the execution report.
///
/// The result is *bit-identical* to [`StencilGrid::reference_jacobi`]:
/// distribution changes where cells live and what the halo traffic costs,
/// never the arithmetic.
///
/// # Errors
///
/// Returns [`RunWorkloadError::NoUsableTiles`] when no healthy tile
/// exists, or [`RunWorkloadError::OwnerUnreachable`] when block-row
/// neighbours cannot communicate at all.
///
/// # Examples
///
/// ```
/// use waferscale::workload::{run_stencil, StencilGrid};
/// use waferscale::{SystemConfig, WaferscaleSystem};
/// use wsp_topo::{FaultMap, TileArray};
///
/// let cfg = SystemConfig::with_array(TileArray::new(4, 4));
/// let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
/// let mut grid = StencilGrid::new(16, 16);
/// grid.set(0, 8, 1.0);
/// let (result, report) = run_stencil(&system, &grid, 10)?;
/// assert_eq!(result, grid.reference_jacobi(10));
/// assert_eq!(report.supersteps, 10);
/// # Ok::<(), waferscale::workload::RunWorkloadError>(())
/// ```
pub fn run_stencil(
    system: &WaferscaleSystem,
    grid: &StencilGrid,
    iterations: u32,
) -> Result<(StencilGrid, WorkloadReport), RunWorkloadError> {
    let owners: Vec<TileCoord> = system.faults().healthy_tiles().collect();
    if owners.is_empty() {
        return Err(RunWorkloadError::NoUsableTiles);
    }
    let array = system.config().array();
    let latency = MessageLatency::new(system);
    let cores = system.config().cores_per_tile() as u64;

    // Block-row decomposition: interior rows are dealt round-robin so
    // every tile owns ⌈rows/tiles⌉ rows at most.
    let interior_rows = grid.height - 2;
    let tiles = owners.len().min(interior_rows);
    let owner_of_row = |y: usize| array.index_of(owners[(y - 1) % tiles]);

    // Pre-compute the per-superstep communication bill: each interior row
    // needs the rows above and below; a remote neighbour row costs one
    // halo message of `width` cells.
    let mut halo_messages = 0u64;
    let mut max_latency = 0u64;
    for y in 1..=interior_rows {
        for ny in [y - 1, y + 1] {
            // Boundary rows (0 and height-1) are constants: no exchange.
            if ny == 0 || ny == grid.height - 1 {
                continue;
            }
            let a = owner_of_row(y);
            let b = owner_of_row(ny);
            if a == b {
                continue;
            }
            halo_messages += 1;
            let cycles = latency
                .between(b, a)
                .ok_or(RunWorkloadError::OwnerUnreachable { vertex: ny })?;
            max_latency = max_latency.max(cycles);
        }
    }

    let rows_per_tile = interior_rows.div_ceil(tiles) as u64;
    let cells_per_tile = rows_per_tile * (grid.width as u64 - 2);
    let compute_per_step = cells_per_tile.div_ceil(cores) * CYCLES_PER_EDGE;
    let inject_per_step = halo_messages.div_ceil(tiles as u64) * CYCLES_PER_MESSAGE;
    let step_cycles = compute_per_step + inject_per_step + max_latency;

    let result = grid.reference_jacobi(iterations);
    let interior_cells = (grid.width as u64 - 2) * interior_rows as u64;
    Ok((
        result,
        WorkloadReport {
            supersteps: iterations,
            cycles: step_cycles * u64::from(iterations),
            edges_relaxed: interior_cells * u64::from(iterations),
            remote_messages: halo_messages * u64::from(iterations),
            vertices_reached: interior_cells as usize,
            // The stencil sweeps rows in order — a perfectly streaming
            // pattern the banked model prices at ~zero — so it keeps
            // the fixed-latency memory terms.
            mem_stall_cycles: 0,
            row_hits: 0,
            row_misses: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use wsp_common::seeded_rng;
    use wsp_topo::{FaultMap, TileArray};

    fn clean_system(n: u16) -> WaferscaleSystem {
        let cfg = SystemConfig::with_array(TileArray::new(n, n));
        WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()))
    }

    fn hot_edge_grid(w: usize, h: usize) -> StencilGrid {
        let mut grid = StencilGrid::new(w, h);
        for y in 0..h {
            grid.set(0, y, 100.0);
        }
        grid
    }

    #[test]
    fn distributed_stencil_matches_reference() {
        let system = clean_system(4);
        let grid = hot_edge_grid(32, 32);
        for steps in [1, 5, 20] {
            let (result, report) = run_stencil(&system, &grid, steps).expect("runs");
            assert_eq!(result, grid.reference_jacobi(steps));
            assert_eq!(report.supersteps, steps);
        }
    }

    #[test]
    fn heat_diffuses_inward_monotonically() {
        let grid = hot_edge_grid(16, 16);
        let after = grid.reference_jacobi(50);
        // Temperature decreases with distance from the hot edge.
        for x in 1..14 {
            assert!(after.get(x, 8) > after.get(x + 1, 8), "x={x}");
        }
    }

    #[test]
    fn stencil_correct_on_faulty_wafer() {
        let cfg = SystemConfig::with_array(TileArray::new(8, 8));
        let mut rng = seeded_rng(5);
        let faults = FaultMap::sample_uniform(cfg.array(), 6, &mut rng);
        let system = WaferscaleSystem::with_faults(cfg, faults);
        let grid = hot_edge_grid(24, 24);
        let (result, report) = run_stencil(&system, &grid, 10).expect("runs");
        assert_eq!(result, grid.reference_jacobi(10));
        assert!(report.remote_messages > 0);
    }

    #[test]
    fn more_tiles_lower_cycle_count() {
        let grid = hot_edge_grid(64, 64);
        let (_, small) = run_stencil(&clean_system(2), &grid, 10).expect("runs");
        let (_, large) = run_stencil(&clean_system(8), &grid, 10).expect("runs");
        assert!(large.cycles < small.cycles);
    }

    #[test]
    fn halo_traffic_scales_with_iterations() {
        let system = clean_system(4);
        let grid = hot_edge_grid(32, 32);
        let (_, one) = run_stencil(&system, &grid, 1).expect("runs");
        let (_, ten) = run_stencil(&system, &grid, 10).expect("runs");
        assert_eq!(ten.remote_messages, 10 * one.remote_messages);
        assert_eq!(ten.cycles, 10 * one.cycles);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let system = clean_system(2);
        let grid = hot_edge_grid(8, 8);
        let (result, report) = run_stencil(&system, &grid, 0).expect("runs");
        assert_eq!(result, grid);
        assert_eq!(report.cycles, 0);
    }

    #[test]
    #[should_panic(expected = "needs an interior")]
    fn degenerate_grid_rejected() {
        let _ = StencilGrid::new(2, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_rejected() {
        let grid = StencilGrid::new(4, 4);
        let _ = grid.get(4, 0);
    }
}
