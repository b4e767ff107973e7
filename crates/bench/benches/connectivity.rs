//! Criterion bench: the Fig. 6 connectivity kernels — the row-word
//! disconnected-pair count on one 32x32 fault map and across a sweep
//! point, and the bit-parallel odd-even frontier search on a 16x16 map.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsp_common::seeded_rng;
use wsp_noc::connectivity::{disconnected_fraction, ConnectivitySweep, RoutingScheme};
use wsp_noc::odd_even_disconnected_fraction;
use wsp_topo::{FaultMap, TileArray};

fn bench_connectivity(c: &mut Criterion) {
    let array = TileArray::new(32, 32);
    let mut rng = seeded_rng(9);
    let faults = FaultMap::sample_uniform(array, 5, &mut rng);
    let mut group = c.benchmark_group("disconnected_fraction");
    for scheme in [RoutingScheme::SingleXy, RoutingScheme::DualXyYx] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scheme}")),
            &scheme,
            |b, &scheme| b.iter(|| black_box(disconnected_fraction(&faults, scheme))),
        );
    }
    group.finish();

    // One Fig. 6 point: 10 fresh 32x32 maps with 5 faults each.
    let sweep = ConnectivitySweep::paper_sweep(10);
    c.bench_function("run_point/32x32_10_trials_5_faults", |b| {
        b.iter(|| black_box(sweep.run_point(black_box(5), 42)))
    });

    let small = FaultMap::sample_uniform(TileArray::new(16, 16), 5, &mut rng);
    c.bench_function(
        "odd_even_disconnected_fraction/16x16_5_faults_64_hops",
        |b| b.iter(|| black_box(odd_even_disconnected_fraction(&small, 64))),
    );
}

criterion_group!(benches, bench_connectivity);
criterion_main!(benches);
