//! The synthetic-traffic workloads on the dual X-Y/Y-X fabric (Fig. 7).
//!
//! Arrivals are open-loop: every healthy tile injects a request with a
//! fixed Bernoulli probability each cycle, whatever the network's state.

use std::time::Instant;

use rand::RngExt as _;
use wsp_common::rng::stream_seed;
use wsp_common::seeded_rng;
use wsp_noc::{healthy_region_connected, NocSim, SimConfig, SimReport, TrafficPattern};
use wsp_telemetry::Fnv1a;
use wsp_topo::{FaultMap, TileArray, TileCoord};

use super::{Pass, Scale, FAULT_SEED};
use crate::trace::Tracer;

/// Clean wafer, uniform random traffic at 0.02 requests/tile/cycle: every
/// router is busy every cycle, so the cost per hop dominates.
pub fn uniform(scale: Scale, seed: u64, tracer: &mut Tracer) -> Pass {
    let warm = match scale {
        Scale::Full => 5_000,
        Scale::Test => 300,
    };
    run(
        tracer,
        seed,
        |_| FaultMap::none(TileArray::new(scale.wafer(), scale.wafer())),
        0.02,
        |sim, rng| sim.run(TrafficPattern::UniformRandom, warm, rng),
    )
}

/// Faulty wafer, every tile sends to the centre tile at ~80 % of what it
/// can sink: queues back up around one tile and the stall and relay paths
/// are busy, while each tick is cheap.
pub fn hotspot(scale: Scale, seed: u64, tracer: &mut Tracer) -> Pass {
    let warm = match scale {
        Scale::Full => 30_000,
        Scale::Test => 2_000,
    };
    let target = centre(scale);
    run(
        tracer,
        seed,
        |tracer| tracer.span("topo", "fault_map", |_| hotspot_faults(scale)),
        0.0016,
        |sim, rng| sim.run(TrafficPattern::HotSpot { target }, warm, rng),
    )
}

fn centre(scale: Scale) -> TileCoord {
    TileCoord::new(scale.wafer() / 2, scale.wafer() / 2)
}

/// A connected fault map with two faults pinned in the hot tile's column
/// and row, an eighth of the wafer away, and the rest uniform off that row
/// and column. The pinned faults leave the sources in one quadrant with
/// no healthy dimension-ordered path, so a known share of requests is
/// relayed; with all faults uniform, that share swings by 10× between
/// maps, and host time with it.
fn hotspot_faults(scale: Scale) -> FaultMap {
    let array = TileArray::new(scale.wafer(), scale.wafer());
    let c = centre(scale);
    let off = scale.wafer() / 8;
    let pinned = [
        TileCoord::new(c.x, c.y - off),
        TileCoord::new(c.x - off, c.y),
    ];
    (0..)
        .map(|attempt| {
            let mut rng = seeded_rng(stream_seed(FAULT_SEED, attempt));
            let mut faulty = pinned.to_vec();
            while faulty.len() < scale.faults() {
                let t = array.coord_of(rng.random_range(0..array.tile_count()));
                if t.x != c.x && t.y != c.y && !faulty.contains(&t) {
                    faulty.push(t);
                }
            }
            FaultMap::from_faulty(array, faulty)
        })
        .find(healthy_region_connected)
        .expect("some attempt leaves the healthy region connected")
}

/// Clean wafer, short uniform bursts between long idle gaps: host time
/// goes to idle ticks, so it shows the cost of an idle tick.
pub fn bursty(scale: Scale, seed: u64, tracer: &mut Tracer) -> Pass {
    let (bursts, gap) = match scale {
        Scale::Full => (250, 40_000),
        Scale::Test => (5, 400),
    };
    run(
        tracer,
        seed,
        |_| FaultMap::none(TileArray::new(scale.wafer(), scale.wafer())),
        0.02,
        |sim, rng| sim.run_bursts(TrafficPattern::UniformRandom, bursts, 8, gap, rng),
    )
}

fn run(
    tracer: &mut Tracer,
    seed: u64,
    faults: impl FnOnce(&mut Tracer) -> FaultMap,
    injection_rate: f64,
    simulate: impl FnOnce(&mut NocSim, &mut rand::rngs::StdRng) -> SimReport,
) -> Pass {
    let setup = Instant::now();
    let faults = faults(tracer);
    let config = SimConfig {
        injection_rate,
        ..SimConfig::default()
    };
    let mut sim = tracer.span("noc", "new", |_| NocSim::new(faults, config));
    let mut rng = seeded_rng(stream_seed(seed, 1));
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now();
    let report = tracer.span("noc", "run", |_| simulate(&mut sim, &mut rng));
    let run_s = start.elapsed().as_secs_f64();

    tracer.span("bench", "check", |_| {
        let mut pass = Pass {
            setup_s,
            run_s,
            parts: vec![digest(&report)],
            sim_cycles: Some(report.cycles),
            sim_latency_p99: Some(report.rtt_percentile(0.99)),
            ..Pass::default()
        };
        // Each request must complete its round trip; a refused injection
        // is a modelled outcome, not a failure.
        let completed = report.responses_delivered.min(report.requests_injected);
        pass.checks.count(
            report.requests_injected,
            report.requests_injected - completed,
        );
        pass.checks
            .check(report.requests_delivered == report.requests_injected);
        pass.checks
            .check(report.responses_delivered == report.requests_injected);
        pass.checks.check(report.in_flight_at_end == 0);
        let fabric = sim.fabric();
        pass.counters = vec![
            ("noc.sim_cycles", report.cycles as f64),
            ("noc.ticks_executed", fabric.ticks_executed() as f64),
            ("noc.requests", report.requests_injected as f64),
            (
                "noc.injection_refused",
                report.injection_backpressure as f64,
            ),
            ("noc.link_traversals", report.link_traversals as f64),
            ("noc.relay_forwards", report.relay_forwards as f64),
            ("noc.stall_cycles", report.total_stall_cycles as f64),
            ("noc.arena_slots", fabric.arena_slots() as f64),
        ];
        pass
    })
}

fn digest(r: &SimReport) -> u64 {
    let mut h = Fnv1a::new();
    for v in [
        r.cycles,
        r.requests_injected,
        r.requests_delivered,
        r.responses_delivered,
        r.undeliverable,
        r.injection_backpressure,
        r.relay_forwards,
        r.link_traversals,
        r.total_stall_cycles,
        r.peak_link_occupancy as u64,
        r.request_latency_total,
        r.max_request_latency,
        r.round_trip_latency_total,
        r.max_round_trip_latency,
        r.in_flight_at_end as u64,
    ] {
        h.write_u64(v);
    }
    for &n in &r.rtt_histogram {
        h.write_u64(n);
    }
    h.finish()
}
