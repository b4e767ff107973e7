//! Synthetic graph generation (CSR) for the workload studies.

use rand::{Rng, RngExt as _};
use serde::{Deserialize, Serialize};

/// Families of synthetic graphs used by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GraphKind {
    /// Uniform random (Erdős–Rényi-style) with the given average degree.
    UniformRandom {
        /// Average out-degree.
        avg_degree: u32,
    },
    /// 2-D grid (each vertex connected to its lattice neighbours) — the
    /// mesh-friendly case.
    Grid2d,
    /// Power-law-ish degree distribution (a crude RMAT stand-in): a few
    /// hub vertices attract a large share of the edges.
    PowerLaw {
        /// Average out-degree.
        avg_degree: u32,
    },
}

/// A directed graph in CSR form with per-edge weights.
///
/// # Examples
///
/// ```
/// use waferscale::workload::{Graph, GraphKind};
///
/// let mut rng = wsp_common::seeded_rng(5);
/// let g = Graph::generate(GraphKind::UniformRandom { avg_degree: 8 }, 100, &mut rng);
/// assert_eq!(g.vertex_count(), 100);
/// assert!(g.edge_count() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u32>,
}

impl Graph {
    /// Generates a graph of `vertices` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero.
    pub fn generate<R: Rng + ?Sized>(kind: GraphKind, vertices: usize, rng: &mut R) -> Self {
        assert!(vertices > 0, "graph needs at least one vertex");
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        match kind {
            GraphKind::UniformRandom { avg_degree } => {
                let edges = vertices * avg_degree as usize;
                targets.reserve_exact(edges);
                weights.reserve_exact(edges);
                for _ in 0..vertices {
                    for _ in 0..avg_degree {
                        targets.push(rng.random_range(0..vertices) as u32);
                        weights.push(rng.random_range(1..16u32));
                    }
                    offsets.push(targets.len());
                }
            }
            GraphKind::Grid2d => {
                let side = (vertices as f64).sqrt().ceil() as usize;
                for v in 0..vertices {
                    let (x, y) = (v % side, v / side);
                    let east = (x + 1 < side).then(|| v + 1);
                    let west = (x > 0).then(|| v - 1);
                    let north = (y > 0).then(|| v - side);
                    for n in [east, west, Some(v + side), north].into_iter().flatten() {
                        if n < vertices {
                            targets.push(n as u32);
                            weights.push(1);
                        }
                    }
                    offsets.push(targets.len());
                }
            }
            GraphKind::PowerLaw { avg_degree } => {
                // Edges are drawn with random sources, so they land in
                // one flat buffer in draw order and a stable counting
                // sort by source places them: each source's list keeps
                // its draw order.
                let total_edges = vertices * avg_degree as usize;
                let mut drawn = Vec::with_capacity(total_edges);
                let mut degree = vec![0usize; vertices];
                for _ in 0..total_edges {
                    let src = rng.random_range(0..vertices);
                    // Square the uniform draw to bias destinations towards
                    // low vertex ids: ids near 0 become hubs.
                    let u: f64 = rng.random();
                    let dst = ((u * u) * vertices as f64) as usize % vertices;
                    let w = rng.random_range(1..16u32);
                    degree[src] += 1;
                    drawn.push((src as u32, dst as u32, w));
                }
                for d in &degree {
                    offsets.push(offsets[offsets.len() - 1] + d);
                }
                let mut cursor = offsets[..vertices].to_vec();
                targets = vec![0; total_edges];
                weights = vec![0; total_edges];
                for (src, dst, w) in drawn {
                    let at = &mut cursor[src as usize];
                    targets[*at] = dst;
                    weights[*at] = w;
                    *at += 1;
                }
            }
        }
        Graph {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `v` with edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[v];
        let hi = self.offsets[v + 1];
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sequential reference BFS: hop distance from `source`, `u32::MAX`
    /// for unreachable vertices.
    pub fn reference_bfs(&self, source: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.vertex_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for (n, _) in self.neighbors(v) {
                let n = n as usize;
                if dist[n] == u32::MAX {
                    dist[n] = dist[v] + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Sequential reference SSSP (Dijkstra): weighted distance from
    /// `source`, `u64::MAX` for unreachable vertices.
    pub fn reference_sssp(&self, source: usize) -> Vec<u64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![u64::MAX; self.vertex_count()];
        let mut heap = BinaryHeap::new();
        dist[source] = 0;
        heap.push(Reverse((0u64, source)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            for (n, w) in self.neighbors(v) {
                let n = n as usize;
                let nd = d + u64::from(w);
                if nd < dist[n] {
                    dist[n] = nd;
                    heap.push(Reverse((nd, n)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::seeded_rng;

    #[test]
    fn uniform_random_has_expected_edges() {
        let mut rng = seeded_rng(1);
        let g = Graph::generate(GraphKind::UniformRandom { avg_degree: 8 }, 200, &mut rng);
        assert_eq!(g.vertex_count(), 200);
        assert_eq!(g.edge_count(), 1600);
    }

    #[test]
    fn grid_degrees_are_lattice_like() {
        let mut rng = seeded_rng(2);
        let g = Graph::generate(GraphKind::Grid2d, 16, &mut rng);
        // 4×4 lattice: corners have degree 2, centre vertices 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(5), 4);
    }

    #[test]
    fn power_law_has_hubs() {
        let mut rng = seeded_rng(3);
        let g = Graph::generate(GraphKind::PowerLaw { avg_degree: 8 }, 500, &mut rng);
        // In-degree of low ids should dwarf that of high ids.
        let mut in_deg = vec![0u32; 500];
        for v in 0..500 {
            for (n, _) in g.neighbors(v) {
                in_deg[n as usize] += 1;
            }
        }
        let head: u32 = in_deg[..50].iter().sum();
        let tail: u32 = in_deg[450..].iter().sum();
        assert!(head > 4 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn reference_bfs_on_grid() {
        let mut rng = seeded_rng(4);
        let g = Graph::generate(GraphKind::Grid2d, 16, &mut rng);
        let dist = g.reference_bfs(0);
        assert_eq!(dist[0], 0);
        assert_eq!(dist[1], 1);
        assert_eq!(dist[5], 2);
        assert_eq!(dist[15], 6); // opposite corner of the 4×4 lattice
    }

    #[test]
    fn reference_sssp_on_grid_equals_bfs() {
        // Unit weights: SSSP distance == BFS hop distance.
        let mut rng = seeded_rng(5);
        let g = Graph::generate(GraphKind::Grid2d, 64, &mut rng);
        let bfs = g.reference_bfs(0);
        let sssp = g.reference_sssp(0);
        for v in 0..64 {
            assert_eq!(u64::from(bfs[v]), sssp[v]);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Graph::generate(
            GraphKind::UniformRandom { avg_degree: 4 },
            100,
            &mut seeded_rng(9),
        );
        let b = Graph::generate(
            GraphKind::UniformRandom { avg_degree: 4 },
            100,
            &mut seeded_rng(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_graph_rejected() {
        let _ = Graph::generate(GraphKind::Grid2d, 0, &mut seeded_rng(0));
    }
}
