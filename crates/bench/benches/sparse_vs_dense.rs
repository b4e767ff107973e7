//! Criterion bench: the default wheel stepping (active-set walk plus
//! idle-window skips) against the dense reference sweep, on the two
//! traffic shapes that bound the active-set walk's value — neighbour
//! traffic (most tiles idle most cycles: the wheel should win big) and a
//! hot spot (nearly every tile busy: the wheel must not regress more
//! than noise).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsp_common::parallel::Stepping;
use wsp_common::seeded_rng;
use wsp_noc::{NocSim, SimConfig, TrafficPattern};
use wsp_topo::{FaultMap, TileArray, TileCoord};

fn run(n: u16, pattern: TrafficPattern, requests: u64, stepping: Stepping) -> wsp_noc::SimReport {
    let mut rng = seeded_rng(11);
    let mut sim = NocSim::new(FaultMap::none(TileArray::new(n, n)), SimConfig::default());
    sim.fabric_mut().set_stepping(stepping);
    sim.run(pattern, requests, &mut rng)
}

fn bench_wheel_vs_dense(c: &mut Criterion) {
    let cases: [(&str, u16, TrafficPattern); 2] = [
        ("neighbour_16x16", 16, TrafficPattern::NeighborEast),
        (
            "hot_spot_8x8",
            8,
            TrafficPattern::HotSpot {
                target: TileCoord::new(4, 4),
            },
        ),
    ];
    for (name, n, pattern) in cases {
        let mut group = c.benchmark_group(name);
        group.sample_size(20);
        for (label, stepping) in [("dense", Stepping::Dense), ("wheel", Stepping::Wheel)] {
            group.bench_with_input(
                BenchmarkId::from_parameter(label),
                &stepping,
                |b, &stepping| {
                    b.iter(|| black_box(run(n, pattern, 400, stepping)));
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_wheel_vs_dense);
criterion_main!(benches);
