//! `Graph::generate` writes CSR directly; this pins it against a copy of
//! the per-vertex adjacency-list builder it replaced, edge for edge and
//! in order, for every graph kind over several sizes and seeds. The
//! PowerLaw case checks that the counting sort by source is stable: each
//! source's edges keep their draw order.

use rand::{Rng, RngExt as _};
use waferscale::workload::{Graph, GraphKind};
use wsp_common::seeded_rng;

/// The former builder: one `Vec` of `(target, weight)` per vertex, filled
/// in draw order and flattened afterwards.
fn adjacency_lists<R: Rng + ?Sized>(
    kind: GraphKind,
    vertices: usize,
    rng: &mut R,
) -> Vec<Vec<(u32, u32)>> {
    let mut adjacency: Vec<Vec<(u32, u32)>> = vec![Vec::new(); vertices];
    match kind {
        GraphKind::UniformRandom { avg_degree } => {
            for edges in adjacency.iter_mut() {
                for _ in 0..avg_degree {
                    let dst = rng.random_range(0..vertices) as u32;
                    let w = rng.random_range(1..16u32);
                    edges.push((dst, w));
                }
            }
        }
        GraphKind::Grid2d => {
            let side = (vertices as f64).sqrt().ceil() as usize;
            for v in 0..vertices {
                let (x, y) = (v % side, v / side);
                let link = |nx: usize, ny: usize, adj: &mut Vec<Vec<(u32, u32)>>| {
                    let n = ny * side + nx;
                    if n < vertices {
                        adj[v].push((n as u32, 1));
                    }
                };
                if x + 1 < side {
                    link(x + 1, y, &mut adjacency);
                }
                if x > 0 {
                    link(x - 1, y, &mut adjacency);
                }
                link(x, y + 1, &mut adjacency);
                if y > 0 {
                    link(x, y - 1, &mut adjacency);
                }
            }
        }
        GraphKind::PowerLaw { avg_degree } => {
            for _ in 0..vertices * avg_degree as usize {
                let src = rng.random_range(0..vertices);
                let u: f64 = rng.random();
                let dst = ((u * u) * vertices as f64) as usize % vertices;
                let w = rng.random_range(1..16u32);
                adjacency[src].push((dst as u32, w));
            }
        }
    }
    adjacency
}

#[test]
fn csr_generation_matches_the_adjacency_list_builder() {
    let kinds = [
        GraphKind::UniformRandom { avg_degree: 8 },
        GraphKind::UniformRandom { avg_degree: 1 },
        GraphKind::Grid2d,
        GraphKind::PowerLaw { avg_degree: 8 },
        GraphKind::PowerLaw { avg_degree: 3 },
    ];
    for kind in kinds {
        for vertices in [1, 2, 17, 1_536] {
            for seed in [0, 1, 7, 2021] {
                let mut csr_rng = seeded_rng(seed);
                let mut list_rng = seeded_rng(seed);
                let graph = Graph::generate(kind, vertices, &mut csr_rng);
                let lists = adjacency_lists(kind, vertices, &mut list_rng);
                let case = format!("{kind:?}, {vertices} vertices, seed {seed}");
                assert_eq!(graph.vertex_count(), vertices, "{case}");
                assert_eq!(
                    graph.edge_count(),
                    lists.iter().map(Vec::len).sum::<usize>(),
                    "{case}"
                );
                for (v, list) in lists.iter().enumerate() {
                    let got: Vec<(u32, u32)> = graph.neighbors(v).collect();
                    assert_eq!(&got, list, "{case}, vertex {v}");
                }
                // Same draws, same count: both streams continue alike.
                assert_eq!(csr_rng.random::<u64>(), list_rng.random::<u64>(), "{case}");
            }
        }
    }
}
