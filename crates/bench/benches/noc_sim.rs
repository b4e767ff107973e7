//! Criterion bench: cycle-level NoC simulation throughput (Fig. 7 engine)
//! and the kernel's route planner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsp_common::seeded_rng;
use wsp_noc::{sample_connected_fault_map, NocSim, RoutePlanner, SimConfig, TrafficPattern};
use wsp_topo::{FaultMap, TileArray, TileCoord};

fn bench_noc_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("noc_sim_200_cycles");
    group.sample_size(20);
    for n in [8u16, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = seeded_rng(3);
                let mut sim =
                    NocSim::new(FaultMap::none(TileArray::new(n, n)), SimConfig::default());
                black_box(sim.run(TrafficPattern::UniformRandom, 200, &mut rng))
            });
        });
    }
    group.finish();
}

/// A cold planner on a 32×32 wafer with 20 faults (seed 2021, sampled as
/// the machine benchmark samples its wafer) answering every same-row
/// ordered pair: the row-hub reachability query of that benchmark's
/// setup, where each pair that straddles a fault needs a relay search.
fn bench_route_planner(c: &mut Criterion) {
    let (faults, _) = sample_connected_fault_map(TileArray::new(32, 32), 20, 2021, 64)
        .expect("a connected map within the retry budget");
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    let pairs: Vec<(TileCoord, TileCoord)> = healthy
        .iter()
        .flat_map(|&s| healthy.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d && s.y == d.y)
        .collect();
    c.bench_function("route_planner", |b| {
        b.iter(|| {
            let planner = RoutePlanner::new(faults.clone());
            for &(s, d) in &pairs {
                black_box(planner.choose(s, d));
            }
        });
    });
}

criterion_group!(benches, bench_noc_sim, bench_route_planner);
criterion_main!(benches);
