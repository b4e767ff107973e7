//! Regenerates **Fig. 7** behaviour: the dual-network request/response
//! protocol in action — deadlock-free packet simulation over clean and
//! faulty wafers, kernel load balancing, and relaying through
//! intermediate tiles.
//!
//! Run with `cargo run --release -p wsp-bench --bin fig7_network`.
//! Accepts `--json <path>` (metrics report), `--seed <u64>` (fault /
//! traffic RNG), `--stepping <dense|wheel>` (tile-visit strategy — the
//! results are bit-identical either way), and `--smoke` (reduced
//! request counts).

use std::time::Instant;

use wsp_bench::{header, metric_key, result_line, row, BenchOpts};
use wsp_common::seeded_rng;
use wsp_common::stepping::Stepping;
use wsp_noc::{NocSim, RoutePlanner, SimConfig, TrafficPattern};
use wsp_telemetry::{SharedRecorder, Sink, DEFAULT_DIGEST_EVERY, DEFAULT_SAMPLE_EVERY};
use wsp_topo::{FaultMap, TileArray, TileCoord};

fn main() {
    let opts = BenchOpts::from_env();
    let recorder = SharedRecorder::new();
    let mut sink = recorder.clone();
    let array = TileArray::new(16, 16);
    let requests: u64 = if opts.smoke { 100 } else { 1000 };
    let seed = opts.seed_or(7);

    header(
        "Fig. 7",
        "request/response on complementary networks: packet simulation",
    );
    row(&[
        "scenario", "requests", "RTT mean", "RTT max", "relays", "drained",
    ]);
    let mut rng = seeded_rng(seed);
    let scenarios: Vec<(&str, FaultMap)> = vec![
        ("clean 16x16", FaultMap::none(array)),
        (
            "5 random faults",
            FaultMap::sample_uniform(array, 5, &mut rng),
        ),
        (
            "15 random faults",
            FaultMap::sample_uniform(array, 15, &mut rng),
        ),
    ];
    for (name, faults) in scenarios {
        let mut sim = NocSim::new(faults, SimConfig::default());
        sim.fabric_mut().set_stepping(opts.stepping);
        let report = sim.run(TrafficPattern::UniformRandom, requests, &mut rng);
        let key = metric_key(name);
        sink.counter_add(
            &format!("noc.{key}.requests_injected"),
            report.requests_injected,
        );
        sink.counter_add(&format!("noc.{key}.relay_forwards"), report.relay_forwards);
        sink.gauge_set(
            &format!("noc.{key}.mean_round_trip_cycles"),
            report.mean_round_trip_latency(),
        );
        sink.gauge_set(
            &format!("noc.{key}.max_round_trip_cycles"),
            report.max_round_trip_latency as f64,
        );
        row(&[
            name.to_string(),
            format!("{}", report.requests_injected),
            format!("{:.1}", report.mean_round_trip_latency()),
            format!("{}", report.max_round_trip_latency),
            format!("{}", report.relay_forwards),
            format!(
                "{}",
                report.responses_delivered == report.requests_injected
                    && report.in_flight_at_end == 0
            ),
        ]);
    }

    header("Fig. 7", "traffic-pattern latency/throughput (clean 16x16)");
    row(&[
        "pattern",
        "mean latency",
        "throughput pkt/cy",
        "backpressure",
        "drained",
    ]);
    for (name, pattern) in [
        ("uniform random", TrafficPattern::UniformRandom),
        ("transpose", TrafficPattern::Transpose),
        ("neighbour", TrafficPattern::NeighborEast),
        (
            "hot spot (8,8)",
            TrafficPattern::HotSpot {
                target: TileCoord::new(8, 8),
            },
        ),
    ] {
        let mut sim = NocSim::new(FaultMap::none(array), SimConfig::default());
        sim.fabric_mut().set_stepping(opts.stepping);
        // The hot-spot run is the one whose fabric metrics get exported:
        // give it the full observability treatment (time series, digest
        // journal, and — outside smoke mode — the wall-clock profiler).
        if matches!(pattern, TrafficPattern::HotSpot { .. }) {
            sim.fabric_mut().set_sampling(DEFAULT_SAMPLE_EVERY);
            sim.fabric_mut().set_digests(DEFAULT_DIGEST_EVERY);
            sim.fabric_mut().set_profiling(!opts.smoke);
        }
        let report = sim.run(pattern, requests, &mut rng);
        // On a clean wafer every request must complete and drain before
        // the scenario ends — a stuck packet here is a routing or
        // scheduling bug, not a property of the pattern.
        assert_eq!(
            report.in_flight_at_end, 0,
            "{name}: packets still in flight at scenario end"
        );
        assert_eq!(
            report.responses_delivered, report.requests_injected,
            "{name}: not every injected request completed"
        );
        let key = metric_key(name);
        sink.gauge_set(
            &format!("noc.{key}.mean_request_cycles"),
            report.mean_request_latency(),
        );
        sink.gauge_set(
            &format!("noc.{key}.throughput_pkt_per_cycle"),
            report.throughput(),
        );
        sink.counter_add(
            &format!("noc.{key}.injection_backpressure"),
            report.injection_backpressure,
        );
        // The hot-spot run is the interesting heat map: export the full
        // per-link fabric metrics for it.
        if matches!(pattern, TrafficPattern::HotSpot { .. }) {
            sim.fabric().export_metrics(&mut sink);
            if !opts.smoke {
                sim.fabric().export_profile(&mut sink, "fabric.");
            }
            opts.write_digest(sim.fabric().journal());
            if let Some((net, tile, dir, count)) = sim.fabric().hottest_link() {
                sink.gauge_set("fabric.hottest_link.forwarded", count as f64);
                result_line(
                    "hottest link (hot spot)",
                    format!("{net:?} {tile} {dir} ({count} packets)"),
                    None,
                );
            }
        }
        row(&[
            name.to_string(),
            format!("{:.1}", report.mean_request_latency()),
            format!("{:.3}", report.throughput()),
            format!("{}", report.injection_backpressure),
            "true".to_string(),
        ]);
    }

    header(
        "Sec. VI",
        "kernel network selection over a faulty wafer (32x32, 5 faults)",
    );
    let mut rng = seeded_rng(seed + 4);
    let faults = FaultMap::sample_uniform(TileArray::new(32, 32), 5, &mut rng);
    let planner = RoutePlanner::new(faults);
    let table = planner.build_table();
    let (xy, yx, relay, dead) = table.utilization();
    let total = table.len() as f64;
    sink.gauge_set("noc.kernel.pairs_xy_pct", xy as f64 / total * 100.0);
    sink.gauge_set("noc.kernel.pairs_yx_pct", yx as f64 / total * 100.0);
    sink.gauge_set("noc.kernel.pairs_relay_pct", relay as f64 / total * 100.0);
    sink.gauge_set(
        "noc.kernel.pairs_disconnected_pct",
        dead as f64 / total * 100.0,
    );
    result_line(
        "pairs on X-Y network",
        format!("{:.1}%", xy as f64 / total * 100.0),
        Some("~50% (balanced)"),
    );
    result_line(
        "pairs on Y-X network",
        format!("{:.1}%", yx as f64 / total * 100.0),
        Some("~50% (balanced)"),
    );
    result_line(
        "pairs needing an intermediate-tile relay",
        format!("{:.2}%", relay as f64 / total * 100.0),
        Some("rare: the cost is core cycles"),
    );
    result_line(
        "pairs disconnected",
        format!("{:.2}%", dead as f64 / total * 100.0),
        Some("<2% even before relaying"),
    );

    header("Full wafer", "32x32 fabric, uniform random");
    let wafer = TileArray::new(32, 32);
    let wafer_requests: u64 = if opts.smoke { 500 } else { 20_000 };
    let mut wafer_rng = seeded_rng(seed + 9);
    let mut sim = NocSim::new(FaultMap::none(wafer), SimConfig::default());
    sim.fabric_mut().set_stepping(opts.stepping);
    sim.fabric_mut().set_profiling(!opts.smoke);
    let start = Instant::now();
    let report = sim.run(
        TrafficPattern::UniformRandom,
        wafer_requests,
        &mut wafer_rng,
    );
    let wall = start.elapsed();
    sink.counter_add("noc.full_wafer.requests_injected", report.requests_injected);
    sink.gauge_set(
        "noc.full_wafer.mean_request_cycles",
        report.mean_request_latency(),
    );
    sink.gauge_set(
        "noc.full_wafer.throughput_pkt_per_cycle",
        report.throughput(),
    );
    row(&["requests", "mean request cycles", "wall ms"]);
    row(&[
        format!("{}", report.requests_injected),
        format!("{:.1}", report.mean_request_latency()),
        format!("{:.1}", wall.as_secs_f64() * 1e3),
    ]);
    // Wall-clock gauges only outside smoke mode: the smoke JSON must be
    // byte-identical across runs (the CI determinism gate diffs it).
    if !opts.smoke {
        sink.gauge_set("wall.noc.full_wafer.ms_1_thread", wall.as_secs_f64() * 1e3);
        sim.fabric().export_profile(&mut sink, "fabric.full_wafer.");
    }

    header(
        "Stepping",
        "wheel stepping vs dense sweep, bit-identical by construction",
    );
    row(&["pattern", "dense ms", "wheel ms", "speedup", "identical"]);
    for (name, pattern) in [
        ("neighbour", TrafficPattern::NeighborEast),
        (
            "hot spot (8,8)",
            TrafficPattern::HotSpot {
                target: TileCoord::new(8, 8),
            },
        ),
    ] {
        let run_mode = |stepping: Stepping| {
            let mut rng = seeded_rng(seed + 21);
            let mut sim = NocSim::new(FaultMap::none(array), SimConfig::default());
            sim.fabric_mut().set_stepping(stepping);
            let start = Instant::now();
            let report = sim.run(pattern, requests, &mut rng);
            (report, start.elapsed())
        };
        let (dense_report, dense_wall) = run_mode(Stepping::Dense);
        let (wheel_report, wheel_wall) = run_mode(Stepping::Wheel);
        assert_eq!(
            dense_report, wheel_report,
            "{name}: wheel stepping diverged from the dense sweep"
        );
        let mode_speedup = dense_wall.as_secs_f64() / wheel_wall.as_secs_f64();
        let key = metric_key(name);
        if !opts.smoke {
            sink.gauge_set(
                &format!("wall.noc.stepping.{key}.ms_dense"),
                dense_wall.as_secs_f64() * 1e3,
            );
            sink.gauge_set(
                &format!("wall.noc.stepping.{key}.ms_wheel"),
                wheel_wall.as_secs_f64() * 1e3,
            );
            sink.gauge_set(&format!("wall.noc.stepping.{key}.speedup"), mode_speedup);
        }
        row(&[
            name.to_string(),
            format!("{:.1}", dense_wall.as_secs_f64() * 1e3),
            format!("{:.1}", wheel_wall.as_secs_f64() * 1e3),
            format!("{mode_speedup:.2}"),
            "true".to_string(),
        ]);
    }

    header(
        "Event-wheel stepping",
        "bursty full-wafer traffic: jump idle gaps instead of ticking them",
    );
    // Bursty traffic is the wheel's honest showcase: short injection
    // bursts separated by long silent gaps. The dense sweep must tick
    // every gap cycle; the wheel jumps each empty window whole, so its
    // executed-tick count — a wall-clock-free gauge — collapses to
    // O(events) and the wall-clock speedup follows.
    let (bursts, burst_len, burst_gap): (u64, u64, u64) = if opts.smoke {
        (4, 4, 256)
    } else {
        (12, 8, 40_000)
    };
    let run_bursty = |stepping: Stepping| {
        let mut rng = seeded_rng(seed + 33);
        let mut sim = NocSim::new(FaultMap::none(wafer), SimConfig::default());
        sim.fabric_mut().set_stepping(stepping);
        let start = Instant::now();
        let report = sim.run_bursts(
            TrafficPattern::UniformRandom,
            bursts,
            burst_len,
            burst_gap,
            &mut rng,
        );
        let ticks = sim.fabric().ticks_executed();
        (report, ticks, start.elapsed())
    };
    let (dense_report, dense_ticks, dense_wall) = run_bursty(Stepping::Dense);
    let (wheel_report, wheel_ticks, wheel_wall) = run_bursty(Stepping::Wheel);
    assert_eq!(
        dense_report, wheel_report,
        "wheel stepping diverged from the dense sweep on bursty traffic"
    );
    let wheel_speedup = dense_wall.as_secs_f64() / wheel_wall.as_secs_f64();
    // The tick counts are deterministic (unlike wall time), so they are
    // exported unconditionally and the regression gate diffs them.
    sink.counter_add("noc.wheel.full_wafer.ticks_dense", dense_ticks);
    sink.counter_add("noc.wheel.full_wafer.ticks_wheel", wheel_ticks);
    sink.counter_add(
        "noc.wheel.full_wafer.requests_injected",
        wheel_report.requests_injected,
    );
    row(&["stepping", "ticks", "wall ms", "speedup", "identical"]);
    row(&[
        "dense".to_string(),
        format!("{dense_ticks}"),
        format!("{:.1}", dense_wall.as_secs_f64() * 1e3),
        "1.00".to_string(),
        "-".to_string(),
    ]);
    row(&[
        "wheel".to_string(),
        format!("{wheel_ticks}"),
        format!("{:.1}", wheel_wall.as_secs_f64() * 1e3),
        format!("{wheel_speedup:.2}"),
        "true".to_string(),
    ]);
    if !opts.smoke {
        sink.gauge_set(
            "wall.noc.wheel.full_wafer.ms_dense",
            dense_wall.as_secs_f64() * 1e3,
        );
        sink.gauge_set(
            "wall.noc.wheel.full_wafer.ms_wheel",
            wheel_wall.as_secs_f64() * 1e3,
        );
        sink.gauge_set("wall.noc.wheel.full_wafer.speedup", wheel_speedup);
        result_line(
            "wheel vs dense (bursty full wafer)",
            format!("{wheel_speedup:.1}x, {wheel_ticks} of {dense_ticks} ticks executed"),
            Some(">=5x on the gap-dominated schedule"),
        );
    }

    opts.write_outputs("fig7_network", &recorder);
}
