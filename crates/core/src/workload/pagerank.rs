//! Distributed PageRank — the data-analytics face of the paper's
//! "graph processing, data analytics, and machine learning" motivation.
//!
//! Level-synchronous power iteration with damping: every superstep, each
//! owning tile pushes its vertices' rank contributions along out-edges;
//! contributions to remotely-owned vertices ride the network. Ranks are
//! kept in fixed point (u64, 2³² scale).
//!
//! The distributed run prices the traffic only. The ranks it returns
//! are the sequential reference's ([`reference_pagerank`]), computed on
//! the host, not accumulated tile by tile. A check that the returned
//! ranks equal the reference therefore pins determinism, not the
//! distributed arithmetic.

use crate::system::WaferscaleSystem;
use crate::workload::graph::Graph;
use crate::workload::{RunWorkloadError, SuperstepCost, WorkloadReport};

/// Fixed-point scale: ranks are stored as `rank × 2³²`.
const SCALE: u64 = 1 << 32;

/// Damping factor ×1024 (0.85 in fixed point, exactly representable).
const DAMPING_NUM: u64 = 870;
const DAMPING_DEN: u64 = 1024;

/// Sequential reference PageRank in fixed point.
///
/// Returns the rank vector after `iterations` damped power iterations
/// (uniform start, dangling mass redistributed uniformly).
pub fn reference_pagerank(graph: &Graph, iterations: u32) -> Vec<u64> {
    let n = graph.vertex_count() as u64;
    let mut rank = vec![SCALE / n; graph.vertex_count()];
    let mut next = vec![0u64; graph.vertex_count()];
    for _ in 0..iterations {
        next.fill(0);
        let mut dangling = 0u64;
        for (v, &rank_v) in rank.iter().enumerate() {
            let deg = graph.degree(v) as u64;
            if deg == 0 {
                dangling += rank_v;
                continue;
            }
            let share = rank_v / deg;
            for (dst, _) in graph.neighbors(v) {
                next[dst as usize] += share;
            }
        }
        let dangling_share = dangling / n;
        let teleport = (SCALE / n) * (DAMPING_DEN - DAMPING_NUM) / DAMPING_DEN;
        for r in next.iter_mut() {
            *r = teleport + (*r + dangling_share) * DAMPING_NUM / DAMPING_DEN;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Prices `iterations` of PageRank distributed over the system's usable
/// tiles, returning the fixed-point ranks and the execution report.
///
/// The ranks are [`reference_pagerank`]'s: the distributed run prices
/// the per-superstep edge work and contribution messages (one sweep,
/// since the traffic pattern repeats every iteration) and does not
/// accumulate ranks on the tiles. Comparing the ranks with the reference
/// therefore checks determinism only.
///
/// # Errors
///
/// Returns [`RunWorkloadError::NoUsableTiles`] when no healthy tile
/// exists, or [`RunWorkloadError::OwnerUnreachable`] when two owning
/// tiles cannot communicate at all.
///
/// # Examples
///
/// ```
/// use waferscale::workload::{reference_pagerank, run_pagerank, Graph, GraphKind};
/// use waferscale::{SystemConfig, WaferscaleSystem};
/// use wsp_topo::{FaultMap, TileArray};
///
/// let cfg = SystemConfig::with_array(TileArray::new(4, 4));
/// let system = WaferscaleSystem::with_faults(cfg, FaultMap::none(cfg.array()));
/// let mut rng = wsp_common::seeded_rng(4);
/// let graph = Graph::generate(GraphKind::PowerLaw { avg_degree: 8 }, 500, &mut rng);
/// let (ranks, report) = run_pagerank(&system, &graph, 10)?;
/// // The ranks are the reference's, so this pins determinism only.
/// assert_eq!(ranks, reference_pagerank(&graph, 10));
/// assert_eq!(report.supersteps, 10);
/// # Ok::<(), waferscale::workload::RunWorkloadError>(())
/// ```
pub fn run_pagerank(
    system: &WaferscaleSystem,
    graph: &Graph,
    iterations: u32,
) -> Result<(Vec<u64>, WorkloadReport), RunWorkloadError> {
    let mut cost = SuperstepCost::new(system, graph.vertex_count())?;
    // The traffic pattern is iteration-invariant: one simulated sweep of
    // per-tile edge work and remote contribution messages prices them
    // all.
    for v in 0..graph.vertex_count() {
        let src = cost.owner(v);
        cost.relax(src, graph.degree(v));
        for (dst, _) in graph.neighbors(v) {
            // Each contribution reads the neighbour's rank word.
            cost.access(src, u64::from(dst));
            cost.message(src, dst as usize)?;
        }
    }
    let step_cycles = cost.finish();
    let profile = cost.memory_profile();

    let ranks = reference_pagerank(graph, iterations);
    let iterations_u64 = u64::from(iterations);
    Ok((
        ranks,
        WorkloadReport {
            supersteps: iterations,
            cycles: step_cycles * iterations_u64,
            edges_relaxed: graph.edge_count() as u64 * iterations_u64,
            remote_messages: cost.remote_messages * iterations_u64,
            vertices_reached: graph.vertex_count(),
            mem_stall_cycles: cost.mem_stall_cycles * iterations_u64,
            row_hits: profile.row_hits * iterations_u64,
            row_misses: profile.row_misses * iterations_u64,
        },
    ))
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
    fn mass_is_approximately_conserved() {
        let mut rng = seeded_rng(1);
        let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 6 }, 400, &mut rng);
        let ranks = reference_pagerank(&graph, 20);
        let total: u64 = ranks.iter().sum();
        // Fixed-point floor division leaks a little mass per iteration;
        // within a fraction of a percent of 1.0.
        let frac = total as f64 / SCALE as f64;
        assert!((0.98..=1.001).contains(&frac), "total mass {frac}");
    }

    #[test]
    fn hubs_rank_highest_on_power_law_graphs() {
        let mut rng = seeded_rng(2);
        let graph = Graph::generate(GraphKind::PowerLaw { avg_degree: 8 }, 1000, &mut rng);
        let ranks = reference_pagerank(&graph, 25);
        // Low vertex ids are the hubs by construction: their mean rank
        // must dwarf the tail's.
        let head: u64 = ranks[..50].iter().sum();
        let tail: u64 = ranks[950..].iter().sum();
        assert!(head > 5 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn distributed_matches_reference_exactly() {
        let system = clean_system(8);
        let mut rng = seeded_rng(3);
        for kind in [
            GraphKind::UniformRandom { avg_degree: 6 },
            GraphKind::PowerLaw { avg_degree: 6 },
            GraphKind::Grid2d,
        ] {
            let graph = Graph::generate(kind, 300, &mut rng);
            let (ranks, _) = run_pagerank(&system, &graph, 15).expect("runs");
            assert_eq!(ranks, reference_pagerank(&graph, 15), "{kind:?}");
        }
    }

    #[test]
    fn pagerank_correct_on_faulty_wafer() {
        let cfg = SystemConfig::with_array(TileArray::new(8, 8));
        let mut rng = seeded_rng(4);
        let faults = FaultMap::sample_uniform(cfg.array(), 6, &mut rng);
        let system = WaferscaleSystem::with_faults(cfg, faults);
        let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 8 }, 500, &mut rng);
        let (ranks, report) = run_pagerank(&system, &graph, 10).expect("runs");
        assert_eq!(ranks, reference_pagerank(&graph, 10));
        assert!(report.remote_messages > 0);
    }

    #[test]
    fn cost_scales_linearly_with_iterations() {
        let system = clean_system(4);
        let mut rng = seeded_rng(5);
        let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 8 }, 500, &mut rng);
        let (_, one) = run_pagerank(&system, &graph, 1).expect("runs");
        let (_, five) = run_pagerank(&system, &graph, 5).expect("runs");
        assert_eq!(five.cycles, 5 * one.cycles);
        assert_eq!(five.remote_messages, 5 * one.remote_messages);
        assert_eq!(five.edges_relaxed, 5 * one.edges_relaxed);
    }

    #[test]
    fn more_tiles_reduce_cycles() {
        let mut rng = seeded_rng(6);
        let graph = Graph::generate(GraphKind::UniformRandom { avg_degree: 12 }, 4000, &mut rng);
        let (_, small) = run_pagerank(&clean_system(2), &graph, 5).expect("runs");
        let (_, large) = run_pagerank(&clean_system(8), &graph, 5).expect("runs");
        assert!(large.cycles < small.cycles);
    }
}
