//! Pins the analytic kernels' message pricing on the routes no smoke
//! golden reaches: relayed messages (both direct DoR paths broken) and
//! the store-and-forward fallback (no one- or two-leg path at all), plus
//! the vertex each kernel names when an owner is unreachable.
//!
//! Every report and result digest below is a literal captured from the
//! per-message pricing loop the shared cost path replaced, so any drift
//! in owners, latencies, counters or memory timing shows up here.

use waferscale::workload::{
    run_bfs, run_pagerank, run_sssp, run_stencil, Graph, GraphKind, RunWorkloadError, StencilGrid,
    WorkloadReport,
};
use waferscale::{SystemConfig, WaferscaleSystem};
use wsp_common::seeded_rng;
use wsp_noc::{NetworkChoice, RoutePlanner};
use wsp_telemetry::Fnv1a;
use wsp_tile::MemoryModelKind;
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// Three scattered faults on 8×8: some pairs lose both direct paths and
/// relay through a third tile, and no healthy pair is cut off.
fn relay_map() -> FaultMap {
    FaultMap::from_faulty(
        TileArray::new(8, 8),
        [
            TileCoord::new(2, 1),
            TileCoord::new(5, 3),
            TileCoord::new(3, 6),
        ],
    )
}

/// A serpentine corridor on 8×8: odd rows are walls with one gap at
/// alternating ends, so tiles two corridors apart share no direct or
/// single-relay path and only store-and-forward reaches them.
fn store_and_forward_map() -> FaultMap {
    let array = TileArray::new(8, 8);
    let walls = array.tiles().filter(|t| match t.y {
        1 | 5 => t.x != 7,
        3 | 7 => t.x != 0,
        _ => false,
    });
    FaultMap::from_faulty(array, walls)
}

/// Column 3 dead top to bottom: the two halves cannot reach each other.
fn split_map() -> FaultMap {
    let array = TileArray::new(8, 8);
    FaultMap::from_faulty(array, (0..8).map(|y| TileCoord::new(3, y)))
}

fn system(faults: FaultMap, memory: MemoryModelKind) -> WaferscaleSystem {
    let cfg = SystemConfig::with_array(faults.array()).with_memory_model(memory);
    WaferscaleSystem::with_faults(cfg, faults)
}

/// Counts the ordered healthy pairs the kernel planner relays and the
/// ones it cannot route at all.
fn route_census(faults: &FaultMap) -> (usize, usize) {
    let planner = RoutePlanner::new(faults.clone());
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    let (mut relayed, mut disconnected) = (0, 0);
    for &a in &healthy {
        for &b in &healthy {
            match planner.choose(a, b) {
                NetworkChoice::Relay { .. } => relayed += 1,
                NetworkChoice::Disconnected if a != b => disconnected += 1,
                _ => {}
            }
        }
    }
    (relayed, disconnected)
}

fn digest_u32(values: &[u32]) -> u64 {
    let mut h = Fnv1a::new();
    values.iter().for_each(|&v| h.write_u32(v));
    h.finish()
}

fn digest_u64(values: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    values.iter().for_each(|&v| h.write_u64(v));
    h.finish()
}

/// Runs all four kernels on `system` and returns each report with a
/// digest of its results, checking every result against its sequential
/// reference on the way.
fn run_all(system: &WaferscaleSystem) -> [(WorkloadReport, u64); 4] {
    let mut rng = seeded_rng(41);
    let uniform = Graph::generate(GraphKind::UniformRandom { avg_degree: 6 }, 400, &mut rng);
    let power = Graph::generate(GraphKind::PowerLaw { avg_degree: 8 }, 400, &mut rng);

    let (bfs, bfs_report) = run_bfs(system, &uniform, 5).expect("bfs runs");
    assert_eq!(bfs, uniform.reference_bfs(5));
    let (sssp, sssp_report) = run_sssp(system, &uniform, 5).expect("sssp runs");
    assert_eq!(sssp, uniform.reference_sssp(5));
    let (ranks, pr_report) = run_pagerank(system, &power, 4).expect("pagerank runs");

    let mut grid = StencilGrid::new(20, 40);
    for y in 0..40 {
        grid.set(0, y, f64::from(y as u32 % 7) * 10.0);
    }
    let (result, stencil_report) = run_stencil(system, &grid, 5).expect("stencil runs");
    assert_eq!(result, grid.reference_jacobi(5));
    let mut cells = Vec::new();
    for y in 0..40 {
        for x in 0..20 {
            cells.push(result.get(x, y).to_bits());
        }
    }
    [
        (bfs_report, digest_u32(&bfs)),
        (sssp_report, digest_u64(&sssp)),
        (pr_report, digest_u64(&ranks)),
        (stencil_report, digest_u64(&cells)),
    ]
}

/// A [`WorkloadReport`] literal, fields in declaration order.
#[allow(clippy::too_many_arguments)]
const fn report(
    supersteps: u32,
    cycles: u64,
    edges_relaxed: u64,
    remote_messages: u64,
    vertices_reached: usize,
    mem_stall_cycles: u64,
    row_hits: u64,
    row_misses: u64,
) -> WorkloadReport {
    WorkloadReport {
        supersteps,
        cycles,
        edges_relaxed,
        remote_messages,
        vertices_reached,
        mem_stall_cycles,
        row_hits,
        row_misses,
    }
}

/// All four kernels on [`relay_map`] under fixed memory timing.
const RELAY_FIXED: [(WorkloadReport, u64); 4] = [
    (report(7, 404, 2400, 396, 400, 0, 0, 0), 5149499058330700725),
    (
        report(10, 648, 3972, 837, 400, 0, 0, 0),
        1904005279552678897,
    ),
    (
        report(4, 1936, 12800, 12564, 400, 0, 0, 0),
        2035661099051919318,
    ),
    (report(5, 180, 3420, 370, 684, 0, 0, 0), 3750822592659360423),
];

/// [`RELAY_FIXED`]'s runs under the banked-row-buffer + TLB backend: the
/// stencil keeps fixed memory terms by design.
const RELAY_BANKED_TLB: [(WorkloadReport, u64); 4] = [
    (
        report(7, 500, 2400, 396, 400, 96, 2156, 244),
        5149499058330700725,
    ),
    (
        report(10, 744, 3972, 837, 400, 96, 3728, 244),
        1904005279552678897,
    ),
    (
        report(4, 2032, 12800, 12564, 400, 96, 11824, 976),
        2035661099051919318,
    ),
    (report(5, 180, 3420, 370, 684, 0, 0, 0), 3750822592659360423),
];

/// All four kernels on [`store_and_forward_map`] under fixed memory.
const STORE_AND_FORWARD_FIXED: [(WorkloadReport, u64); 4] = [
    (
        report(7, 1522, 2400, 390, 400, 0, 0, 0),
        5149499058330700725,
    ),
    (
        report(10, 2486, 3972, 826, 400, 0, 0, 0),
        1904005279552678897,
    ),
    (
        report(4, 4144, 12800, 12460, 400, 0, 0, 0),
        2035661099051919318,
    ),
    (
        report(5, 1550, 3420, 370, 684, 0, 0, 0),
        3750822592659360423,
    ),
];

/// The vertices (and, for the stencil, the neighbour row) each kernel
/// names on [`split_map`].
const BFS_VERTEX: usize = 262;
const SSSP_VERTEX: usize = 262;
const PAGERANK_VERTEX: usize = 262;
const STENCIL_ROW: usize = 4;

#[test]
fn relay_map_forces_relays_only() {
    let (relayed, disconnected) = route_census(&relay_map());
    assert!(relayed > 0, "the map must force relays");
    assert_eq!(disconnected, 0, "and never the store-and-forward fallback");
}

#[test]
fn store_and_forward_map_forces_the_fallback() {
    let faults = store_and_forward_map();
    let (_, disconnected) = route_census(&faults);
    assert!(disconnected > 0, "the map must defeat the planner");
    assert!(
        wsp_noc::healthy_region_connected(&faults),
        "but stay connected"
    );
}

#[test]
fn kernels_on_a_relay_map_match_the_captured_reports() {
    assert_eq!(
        run_all(&system(relay_map(), MemoryModelKind::Fixed)),
        RELAY_FIXED
    );
}

#[test]
fn kernels_on_a_relay_map_with_banked_tlb_memory_match_the_captured_reports() {
    let got = run_all(&system(relay_map(), MemoryModelKind::BankedTlb));
    assert_eq!(got, RELAY_BANKED_TLB);
}

#[test]
fn kernels_on_a_store_and_forward_map_match_the_captured_reports() {
    let got = run_all(&system(store_and_forward_map(), MemoryModelKind::Fixed));
    assert_eq!(got, STORE_AND_FORWARD_FIXED);
}

#[test]
fn unreachable_owners_are_named_like_the_reference_visit() {
    let system = system(split_map(), MemoryModelKind::Fixed);
    let mut rng = seeded_rng(43);
    let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 6 }, 300, &mut rng);
    let unreachable = |vertex| Err(RunWorkloadError::OwnerUnreachable { vertex });
    assert_eq!(
        run_bfs(&system, &graph, 0).map(|_| ()),
        unreachable(BFS_VERTEX)
    );
    assert_eq!(
        run_sssp(&system, &graph, 0).map(|_| ()),
        unreachable(SSSP_VERTEX)
    );
    assert_eq!(
        run_pagerank(&system, &graph, 3).map(|_| ()),
        unreachable(PAGERANK_VERTEX)
    );
    let grid = StencilGrid::new(12, 30);
    assert_eq!(
        run_stencil(&system, &grid, 2).map(|_| ()),
        unreachable(STENCIL_ROW)
    );
}
