//! Regenerates **Fig. 4** (clock forwarding with faulty tiles) and the
//! Sec. IV duty-cycle-distortion analysis (Fig. 3's circuitry in action).
//!
//! Run with `cargo run -p wsp-bench --bin fig4_clock`.
//! Full runs (not `--smoke`) time the Monte Carlo's forwarding floods as
//! the `wall.profile.clock.forwarding` phase.

use wsp_bench::{header, metric_key, result_line, row, BenchOpts};
use wsp_clock::{forwarding::fig4_scenario, DccUnit, DutyCycleModel, ForwardingSim, TileClock};
use wsp_common::seeded_rng;
use wsp_telemetry::{PhaseProfiler, SharedRecorder, Sink};
use wsp_topo::{FaultMap, TileArray, DIRECTIONS};

fn main() {
    let opts = BenchOpts::from_env();
    let recorder = SharedRecorder::new();
    let mut sink = recorder.clone();
    header(
        "Fig. 4",
        "clock forwarding on an 8x8 array with 6 faulty tiles",
    );
    let (faults, isolated, generator) = fig4_scenario();
    let plan = ForwardingSim::new(faults)
        .run([generator])
        .expect("setup succeeds");
    println!(
        "{}",
        plan.to_ascii()
            .lines()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    println!("  (G generator, arrows = selected input side, X faulty, ? unclocked)");
    sink.gauge_set("clock.fig4.clocked_tiles", plan.clocked_count() as f64);
    sink.gauge_set("clock.fig4.setup_cycles", plan.setup_cycles() as f64);
    result_line(
        "clocked tiles",
        plan.clocked_count(),
        Some("57 of 58 healthy"),
    );
    result_line(
        "unclocked healthy tile",
        format!("{isolated}"),
        Some("the tile walled in by faults on all four sides"),
    );
    result_line("setup latency (cycles)", plan.setup_cycles(), None);

    let maps_per_point = if opts.smoke { 10 } else { 100 };
    header(
        "Fig. 4 MC",
        &format!("clock coverage vs fault count (32x32, {maps_per_point} maps each)"),
    );
    row(&["faults", "mean unclocked healthy tiles", "coverage %"]);
    let array = TileArray::new(32, 32);
    let mut rng = seeded_rng(opts.seed_or(101));
    let mut profiler = PhaseProfiler::new(!opts.smoke);
    // Tiles locked from each side (N, S, E, W) and setup cycles, summed
    // over every map: which side wins a tie moves the first, so these
    // see the flood's visiting order where coverage cannot.
    let mut locked_from = [0usize; 4];
    let (mut setup_total, mut plans) = (0u64, 0usize);
    for faults_n in [0usize, 5, 10, 20, 40, 80] {
        let mut unclocked_total = 0usize;
        let mut healthy_total = 0usize;
        let mut trials = 0;
        for _ in 0..maps_per_point {
            let map = FaultMap::sample_uniform(array, faults_n, &mut rng);
            let Some(generator) = array.edge_tiles().find(|&t| map.is_healthy(t)) else {
                continue;
            };
            let sim = ForwardingSim::new(map.clone());
            let started = profiler.start();
            let plan = sim.run([generator]).expect("ok");
            profiler.stop("clock.forwarding", started);
            for tile in array.tiles() {
                if let TileClock::Locked { from, .. } = plan.state_of(tile) {
                    locked_from[from.index()] += 1;
                }
            }
            setup_total += plan.setup_cycles();
            plans += 1;
            unclocked_total += plan.unclocked_tiles().count();
            healthy_total += map.healthy_count();
            trials += 1;
        }
        let mean = unclocked_total as f64 / trials as f64;
        let coverage = 100.0 * (1.0 - unclocked_total as f64 / healthy_total as f64);
        sink.gauge_set(&format!("clock.coverage.{faults_n}_faults_pct"), coverage);
        row(&[
            format!("{faults_n}"),
            format!("{mean:.3}"),
            format!("{coverage:.3}"),
        ]);
    }
    for dir in DIRECTIONS {
        sink.gauge_set(
            &format!("clock.locked_from.{dir}"),
            locked_from[dir.index()] as f64,
        );
    }
    let mean_setup = setup_total as f64 / plans as f64;
    sink.gauge_set("clock.mc.mean_setup_cycles", mean_setup);
    result_line(
        "tiles locked from N / S / E / W",
        format!(
            "{} / {} / {} / {}",
            locked_from[0], locked_from[1], locked_from[2], locked_from[3]
        ),
        None,
    );
    result_line(
        "mean setup latency (cycles)",
        format!("{mean_setup:.3}"),
        None,
    );

    header(
        "Sec. IV",
        "duty-cycle distortion along the forwarding chain (5%/tile)",
    );
    row(&["mitigation", "max usable hops", "worst distortion @62 hops"]);
    let configs: [(&str, DutyCycleModel); 4] = [
        ("none", DutyCycleModel::new(0.05, false, None)),
        ("inversion", DutyCycleModel::new(0.05, true, None)),
        (
            "DCC only",
            DutyCycleModel::new(0.05, false, Some(DccUnit::paper_dcc())),
        ),
        ("inversion + DCC (paper)", DutyCycleModel::paper_model()),
    ];
    for (name, model) in configs {
        let max_hops = model.max_hops(1000);
        let hops = match max_hops {
            Some(h) => format!("{h}"),
            None => ">1000".to_string(),
        };
        sink.gauge_set(
            &format!("clock.duty_cycle.{}.max_hops", metric_key(name)),
            max_hops.map_or(1000.0, |h| h as f64),
        );
        row(&[
            name.to_string(),
            hops,
            format!("{:.2}%", model.worst_distortion(62) * 100.0),
        ]);
    }
    result_line(
        "paper's cautionary example",
        "clock dead after 9 hops without mitigation",
        Some("\"a 5% distortion per tile could kill the clock with in just 10 tiles\""),
    );

    profiler.export(&mut sink, "");
    opts.write_outputs("fig4_clock", &recorder);
}
