//! Criterion bench: telemetry overhead on the instrumented hot paths —
//! the same fabric-backed stencil halo exchange run three ways: with the
//! default [`wsp_telemetry::NoopSink`], with an explicitly installed
//! no-op sink, and with a recording [`wsp_telemetry::SharedRecorder`].
//! The first two columns are the "<2% regression with telemetry
//! disabled" acceptance evidence; the third shows the price of turning
//! recording on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use waferscale::{MultiTileMachine, SystemConfig};
use wsp_common::seeded_rng;
use wsp_noc::{NocSim, SimConfig, TrafficPattern};
use wsp_telemetry::{NoopSink, SharedRecorder};
use wsp_tile::isa::{Program, Reg};
use wsp_topo::{FaultMap, TileArray, TileCoord};

const N: u16 = 4;
const HALO_WORDS: u32 = 8;

/// Every tile's first two cores sum a strip of the east neighbour's
/// memory over the shared NoC fabric.
fn stencil_machine() -> MultiTileMachine {
    let cfg = SystemConfig::with_array(TileArray::new(N, N));
    let mut m = MultiTileMachine::new(cfg, FaultMap::none(cfg.array()));
    for y in 0..N {
        for x in 0..N {
            let east = TileCoord::new((x + 1) % N, y);
            for core in 0..2u32 {
                let base = m.global_address(east, core * 64).expect("mapped");
                let program = Program::builder()
                    .ldi(Reg::R1, base)
                    .ldi(Reg::R5, 0)
                    .ldi(Reg::R3, HALO_WORDS)
                    .ldi(Reg::R0, 0)
                    .label("halo")
                    .ld(Reg::R2, Reg::R1, 0)
                    .add(Reg::R5, Reg::R5, Reg::R2)
                    .addi(Reg::R1, Reg::R1, 4)
                    .addi(Reg::R3, Reg::R3, -1)
                    .bne(Reg::R3, Reg::R0, "halo")
                    .halt()
                    .build()
                    .expect("builds");
                m.load_program(TileCoord::new(x, y), core as usize, &program)
                    .expect("loads");
            }
        }
    }
    m
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function(BenchmarkId::new("stencil", "baseline_default_sink"), |b| {
        b.iter(|| {
            let mut m = stencil_machine();
            black_box(m.run_until_halt(1_000_000).expect("halts"))
        })
    });
    group.bench_function(BenchmarkId::new("stencil", "noop_sink_installed"), |b| {
        b.iter(|| {
            let mut m = stencil_machine();
            m.set_sink(Box::new(NoopSink));
            m.fabric_mut().set_sink(Box::new(NoopSink));
            black_box(m.run_until_halt(1_000_000).expect("halts"))
        })
    });
    group.bench_function(BenchmarkId::new("stencil", "recording_sink"), |b| {
        b.iter(|| {
            let recorder = SharedRecorder::new();
            let mut m = stencil_machine();
            m.set_sink(recorder.boxed());
            m.fabric_mut().set_sink(recorder.boxed());
            black_box(m.run_until_halt(1_000_000).expect("halts"))
        })
    });
    // The off-path cost of the run-artifact pipeline: sampler, digests,
    // and profiler all explicitly disabled must price the same as the
    // baseline (their per-cycle gates are a compare against zero), and
    // the all-on column shows what default-cadence observability costs.
    group.bench_function(BenchmarkId::new("stencil", "observability_disabled"), |b| {
        b.iter(|| {
            let mut m = stencil_machine();
            m.set_sampling(0);
            m.set_digests(0);
            m.set_profiling(false);
            black_box(m.run_until_halt(1_000_000).expect("halts"))
        })
    });
    group.bench_function(BenchmarkId::new("stencil", "observability_default"), |b| {
        b.iter(|| {
            let mut m = stencil_machine();
            m.set_sampling(64);
            m.set_digests(64);
            black_box(m.run_until_halt(1_000_000).expect("halts"))
        })
    });
    group.finish();
}

/// The fig7 hot path: uniform-random request/response traffic on a
/// clean 16x16 wafer, exactly as `fig7_network` drives it. The
/// baseline-vs-noop pair is the "<2% regression" acceptance check for
/// the instrumented `Fabric::tick`.
fn bench_fig7_overhead(c: &mut Criterion) {
    let array = TileArray::new(16, 16);
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function(BenchmarkId::new("fig7", "baseline_default_sink"), |b| {
        b.iter(|| {
            let mut rng = seeded_rng(7);
            let mut sim = NocSim::new(FaultMap::none(array), SimConfig::default());
            black_box(sim.run(TrafficPattern::UniformRandom, 1000, &mut rng))
        })
    });
    group.bench_function(BenchmarkId::new("fig7", "noop_sink_installed"), |b| {
        b.iter(|| {
            let mut rng = seeded_rng(7);
            let mut sim = NocSim::new(FaultMap::none(array), SimConfig::default());
            sim.fabric_mut().set_sink(Box::new(NoopSink));
            black_box(sim.run(TrafficPattern::UniformRandom, 1000, &mut rng))
        })
    });
    group.bench_function(BenchmarkId::new("fig7", "recording_sink"), |b| {
        b.iter(|| {
            let recorder = SharedRecorder::new();
            let mut rng = seeded_rng(7);
            let mut sim = NocSim::new(FaultMap::none(array), SimConfig::default());
            sim.fabric_mut().set_sink(recorder.boxed());
            black_box(sim.run(TrafficPattern::UniformRandom, 1000, &mut rng))
        })
    });
    group.bench_function(BenchmarkId::new("fig7", "observability_disabled"), |b| {
        b.iter(|| {
            let mut rng = seeded_rng(7);
            let mut sim = NocSim::new(FaultMap::none(array), SimConfig::default());
            sim.fabric_mut().set_sampling(0);
            sim.fabric_mut().set_digests(0);
            sim.fabric_mut().set_profiling(false);
            black_box(sim.run(TrafficPattern::UniformRandom, 1000, &mut rng))
        })
    });
    group.bench_function(BenchmarkId::new("fig7", "observability_default"), |b| {
        b.iter(|| {
            let mut rng = seeded_rng(7);
            let mut sim = NocSim::new(FaultMap::none(array), SimConfig::default());
            sim.fabric_mut().set_sampling(64);
            sim.fabric_mut().set_digests(64);
            black_box(sim.run(TrafficPattern::UniformRandom, 1000, &mut rng))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead, bench_fig7_overhead);
criterion_main!(benches);
