//! Distributed level-synchronous breadth-first search.

use crate::system::WaferscaleSystem;
use crate::workload::graph::Graph;
use crate::workload::{RunWorkloadError, SuperstepCost, WorkloadReport};

/// Runs BFS from `source` across the system's usable tiles.
///
/// Vertices are distributed round-robin over the healthy tiles; each
/// superstep processes the current frontier on the owning tiles' cores
/// and ships discovered-vertex updates to their owners over the dual-DoR
/// network. Returns the hop distances (`u32::MAX` = unreachable in the
/// graph) and the execution report.
///
/// # Errors
///
/// Returns [`RunWorkloadError`] when the source is out of range, the
/// system has no usable tiles, or a vertex owner is network-unreachable.
///
/// # Examples
///
/// ```
/// use waferscale::workload::{run_bfs, Graph, GraphKind};
/// use waferscale::{SystemConfig, WaferscaleSystem};
/// use wsp_topo::{FaultMap, TileArray};
///
/// let cfg = SystemConfig::with_array(TileArray::new(4, 4));
/// let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
/// let mut rng = wsp_common::seeded_rng(1);
/// let graph = Graph::generate(GraphKind::Grid2d, 64, &mut rng);
/// let (dist, report) = run_bfs(&system, &graph, 0)?;
/// assert_eq!(dist, graph.reference_bfs(0));
/// assert!(report.supersteps > 0);
/// # Ok::<(), waferscale::workload::RunWorkloadError>(())
/// ```
pub fn run_bfs(
    system: &WaferscaleSystem,
    graph: &Graph,
    source: usize,
) -> Result<(Vec<u32>, WorkloadReport), RunWorkloadError> {
    let n = graph.vertex_count();
    if source >= n {
        return Err(RunWorkloadError::SourceOutOfRange {
            source,
            vertices: n,
        });
    }
    let mut cost = SuperstepCost::new(system, n)?;

    let mut dist = vec![u32::MAX; n];
    dist[source] = 0;
    let mut frontier = vec![source];

    let mut report = WorkloadReport {
        supersteps: 0,
        cycles: 0,
        edges_relaxed: 0,
        remote_messages: 0,
        vertices_reached: 1,
        mem_stall_cycles: 0,
        row_hits: 0,
        row_misses: 0,
    };

    while !frontier.is_empty() {
        report.supersteps += 1;
        let level = report.supersteps; // distance assigned this superstep

        let mut next = Vec::new();
        for &v in &frontier {
            let src_tile = cost.owner(v);
            cost.relax(src_tile, graph.degree(v));
            report.edges_relaxed += graph.degree(v) as u64;
            for (nb, _) in graph.neighbors(v) {
                let nb = nb as usize;
                // The edge scan reads the neighbour's level word from
                // shared memory whether or not it improves.
                cost.access(src_tile, nb as u64);
                if dist[nb] != u32::MAX {
                    continue;
                }
                dist[nb] = level;
                report.vertices_reached += 1;
                next.push(nb);
                cost.message(src_tile, nb)?;
            }
        }
        report.cycles += cost.finish();
        frontier = next;
    }

    let profile = cost.memory_profile();
    report.remote_messages = cost.remote_messages;
    report.mem_stall_cycles = cost.mem_stall_cycles;
    report.row_hits = profile.row_hits;
    report.row_misses = profile.row_misses;
    Ok((dist, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::workload::graph::GraphKind;
    use wsp_common::seeded_rng;
    use wsp_topo::{FaultMap, TileArray};

    fn clean_system(n: u16) -> WaferscaleSystem {
        let cfg = SystemConfig::with_array(TileArray::new(n, n));
        WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()))
    }

    #[test]
    fn distributed_bfs_matches_reference_on_all_graph_kinds() {
        let system = clean_system(8);
        let mut rng = seeded_rng(10);
        for kind in [
            GraphKind::Grid2d,
            GraphKind::UniformRandom { avg_degree: 6 },
            GraphKind::PowerLaw { avg_degree: 6 },
        ] {
            let graph = Graph::generate(kind, 300, &mut rng);
            let (dist, _) = run_bfs(&system, &graph, 0).expect("runs");
            assert_eq!(dist, graph.reference_bfs(0), "{kind:?}");
        }
    }

    #[test]
    fn bfs_is_correct_on_a_faulty_wafer() {
        // Faults change ownership and routing, never answers.
        let cfg = SystemConfig::with_array(TileArray::new(8, 8));
        let mut rng = seeded_rng(11);
        let faults = FaultMap::sample_uniform(cfg.array(), 6, &mut rng);
        let system = WaferscaleSystem::with_faults(cfg, faults);
        let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 8 }, 400, &mut rng);
        let (dist, report) = run_bfs(&system, &graph, 3).expect("runs");
        assert_eq!(dist, graph.reference_bfs(3));
        assert!(report.remote_messages > 0);
    }

    #[test]
    fn report_statistics_are_consistent() {
        let system = clean_system(4);
        let mut rng = seeded_rng(12);
        let graph = Graph::generate(GraphKind::Grid2d, 256, &mut rng);
        let (dist, report) = run_bfs(&system, &graph, 0).expect("runs");
        let reached = dist.iter().filter(|&&d| d != u32::MAX).count();
        assert_eq!(report.vertices_reached, reached);
        // 16×16 lattice: max distance from the corner is 30, plus the
        // final superstep that processes the last frontier and finds
        // nothing new.
        assert_eq!(report.supersteps, 31);
        assert!(report.cycles > 0);
        assert!(report.mteps(system.config()) > 0.0);
    }

    #[test]
    fn more_tiles_means_fewer_cycles_for_the_same_graph() {
        let mut rng = seeded_rng(13);
        let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 16 }, 2000, &mut rng);
        let (_, small) = run_bfs(&clean_system(2), &graph, 0).expect("runs");
        let (_, large) = run_bfs(&clean_system(8), &graph, 0).expect("runs");
        assert!(
            large.cycles < small.cycles,
            "8x8 ({}) not faster than 2x2 ({})",
            large.cycles,
            small.cycles
        );
    }

    #[test]
    fn banked_memory_slows_the_kernel_without_changing_answers() {
        use wsp_tile::MemoryModelKind;
        let mut rng = seeded_rng(15);
        let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 8 }, 500, &mut rng);
        let run = |kind: MemoryModelKind| {
            let cfg = SystemConfig::with_array(TileArray::new(4, 4)).with_memory_model(kind);
            let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
            run_bfs(&system, &graph, 0).expect("runs")
        };
        let (dist_fixed, fixed) = run(MemoryModelKind::Fixed);
        let (dist_banked, banked) = run(MemoryModelKind::Banked);
        let (dist_tlb, tlb) = run(MemoryModelKind::BankedTlb);
        assert_eq!(dist_banked, dist_fixed, "timing must not change answers");
        assert_eq!(dist_tlb, dist_fixed, "timing must not change answers");
        assert_eq!(fixed.mem_stall_cycles, 0, "fixed charges nothing extra");
        assert_eq!(fixed.row_hits + fixed.row_misses, 0);
        assert!(banked.mem_stall_cycles > 0, "random scans miss rows");
        assert!(banked.row_misses > 0);
        // The memory term is purely additive on top of the fixed cost.
        assert_eq!(banked.cycles - banked.mem_stall_cycles, fixed.cycles);
        assert!(tlb.cycles >= banked.cycles, "TLB fills only add latency");
        let rate = banked.row_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
    }

    #[test]
    fn source_out_of_range_is_reported() {
        let system = clean_system(2);
        let mut rng = seeded_rng(14);
        let graph = Graph::generate(GraphKind::Grid2d, 16, &mut rng);
        assert_eq!(
            run_bfs(&system, &graph, 99).expect_err("bad source"),
            RunWorkloadError::SourceOutOfRange {
                source: 99,
                vertices: 16
            }
        );
    }
}
