//! Regenerates **Fig. 6**: average percentage of disconnected
//! source-destination pairs versus the number of faulty chiplets, for a
//! single dimension-ordered network versus the paper's two independent
//! networks.
//!
//! Run with `cargo run --release -p wsp-bench --bin fig6_disconnect`.

use wsp_bench::{header, result_line, row, BenchOpts};
use wsp_noc::ConnectivitySweep;
use wsp_telemetry::{SharedRecorder, Sink};

fn main() {
    let opts = BenchOpts::from_env();
    let recorder = SharedRecorder::new();
    let mut sink = recorder.clone();
    let trials = if opts.smoke { 20 } else { 200 };
    let sweep = ConnectivitySweep::paper_sweep(trials);

    header(
        "Fig. 6",
        "avg % disconnected src-dst pairs vs # faulty chiplets (32x32)",
    );
    println!("  ({trials} random fault maps per point)");
    row(&[
        "faulty chiplets",
        "single DoR %",
        "dual DoR %",
        "improvement",
    ]);

    let seed = opts.seed_or(42);
    for count in 0..=10 {
        let point = sweep.run_point(count, seed);
        let improvement = if point.dual_network > 0.0 {
            format!("{:.1}x", point.single_network / point.dual_network)
        } else {
            "-".to_string()
        };
        let n = point.faulty_chiplets;
        sink.gauge_set(
            &format!("noc.disconnect.{n}_faults.single_pct"),
            point.single_network * 100.0,
        );
        sink.gauge_set(
            &format!("noc.disconnect.{n}_faults.dual_pct"),
            point.dual_network * 100.0,
        );
        row(&[
            format!("{}", point.faulty_chiplets),
            format!("{:.2}", point.single_network * 100.0),
            format!("{:.2}", point.dual_network * 100.0),
            improvement,
        ]);
    }

    result_line(
        "paper claim at 5 faults",
        ">12% single vs <2% dual",
        Some("Fig. 6 / Sec. VI"),
    );

    header(
        "Sec. VI future work",
        "odd-even adaptive routing (ref. [18]) vs dual DoR residuals (16x16)",
    );
    row(&["faulty chiplets", "dual DoR %", "odd-even adaptive %"]);
    let array = wsp_topo::TileArray::new(16, 16);
    let mut rng = wsp_common::seeded_rng(opts.seed_or(13));
    for count in [2usize, 5, 10, 15] {
        let mut dual = 0.0;
        let mut oe = 0.0;
        let trials = 10;
        for _ in 0..trials {
            let faults = wsp_topo::FaultMap::sample_uniform(array, count, &mut rng);
            dual += wsp_noc::disconnected_fraction(&faults, wsp_noc::RoutingScheme::DualXyYx);
            oe += wsp_noc::odd_even_disconnected_fraction(&faults, 64);
        }
        let (dual_pct, oe_pct) = (dual / trials as f64 * 100.0, oe / trials as f64 * 100.0);
        sink.gauge_set(
            &format!("noc.disconnect.oddeven_16x16.{count}_faults.dual_pct"),
            dual_pct,
        );
        sink.gauge_set(
            &format!("noc.disconnect.oddeven_16x16.{count}_faults.odd_even_pct"),
            oe_pct,
        );
        row(&[
            format!("{count}"),
            format!("{dual_pct:.2}"),
            format!("{oe_pct:.3}"),
        ]);
    }

    opts.write_outputs("fig6_disconnect", &recorder);
}
