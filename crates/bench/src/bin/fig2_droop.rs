//! Regenerates **Fig. 2** (edge power delivery and the edge-to-centre
//! voltage droop) plus the Sec. III delivery-strategy comparison.
//!
//! Run with `cargo run -p wsp-bench --bin fig2_droop`.
//! Accepts `--json <path>` (metrics report) and `--trace <path>` (the
//! SOR solver's per-iteration residual convergence as a Chrome trace).
//! Full runs (not `--smoke`) time the prototype solve as the
//! `wall.profile.pdn.solve` phase.

use std::time::Instant;

use wsp_bench::{header, result_line, row, BenchOpts};
use wsp_common::units::Watts;
use wsp_pdn::{DeliveryStrategy, LoadModel, PdnConfig};
use wsp_telemetry::{PhaseProfiler, SharedRecorder, Sink};
use wsp_topo::TileCoord;

fn main() {
    let opts = BenchOpts::from_env();
    let recorder = SharedRecorder::new();
    let mut sink = recorder.clone();
    let start = Instant::now();
    let sol = PdnConfig::paper_prototype()
        .solve_traced(&mut sink)
        .expect("PDN solve converges");
    let solve_wall = start.elapsed();
    sink.gauge_set("pdn.total_current_a", sol.total_current().value());
    sink.gauge_set("pdn.supply_power_w", sol.supply_power().value());
    sink.gauge_set("pdn.max_droop_v", sol.max_droop().value());
    sink.series_set(
        "pdn.middle_row_voltage",
        &(0..32)
            .map(|x| sol.voltage_at(TileCoord::new(x, 16)).value())
            .collect::<Vec<_>>(),
    );

    header(
        "Fig. 2",
        "edge power delivery: voltage droop map at peak draw",
    );
    result_line(
        "edge tile voltage",
        format!("{:.2}", sol.voltage_at(TileCoord::new(0, 16))),
        Some("2.5 V"),
    );
    result_line(
        "centre tile voltage",
        format!("{:.2}", sol.voltage_at(TileCoord::new(16, 16))),
        Some("~1.4 V"),
    );
    result_line(
        "total wafer current",
        format!("{:.0}", sol.total_current()),
        Some("~290 A"),
    );
    result_line(
        "supply power",
        format!("{:.0}", sol.supply_power()),
        Some("725 W"),
    );

    println!("\n  Voltage profile along the middle row (x = 0..31):");
    let profile: Vec<String> = (0..32)
        .map(|x| format!("{:.2}", sol.voltage_at(TileCoord::new(x, 16)).value()))
        .collect();
    println!("  {}", profile.join(" "));

    println!("\n  Droop map (V, every 4th tile):");
    for y in (0..32).step_by(4) {
        let cells: Vec<String> = (0..32)
            .step_by(4)
            .map(|x| format!("{:.2}", sol.voltage_at(TileCoord::new(x, y)).value()))
            .collect();
        println!("  {}", cells.join(" "));
    }

    header(
        "Fig. 2 sweep",
        "centre voltage vs per-tile power (idle -> peak)",
    );
    row(&["tile power (mW)", "centre V", "droop V"]);
    for mw in [50, 100, 150, 200, 250, 300, 350] {
        let i = Watts::from_milliwatts(f64::from(mw)) / wsp_common::units::Volts(1.21);
        let sol = PdnConfig::paper_prototype()
            .with_load(LoadModel::ConstantCurrent(i))
            .solve()
            .expect("converges");
        row(&[
            format!("{mw}"),
            format!("{:.3}", sol.voltage_at(TileCoord::new(16, 16)).value()),
            format!("{:.3}", sol.max_droop().value()),
        ]);
    }

    header(
        "Fig. 2 hotspot",
        "workload-aware droop: only a centre block at peak power",
    );
    row(&["active block", "min tile V", "max droop V"]);
    let array = PdnConfig::paper_prototype().array();
    let peak = PdnConfig::PAPER_TILE_CURRENT;
    let idle = wsp_common::units::Amps(peak.value() * 0.05);
    for block in [4u16, 8, 16, 32] {
        let lo = 16u16.saturating_sub(block / 2);
        let hi = lo + block;
        let currents: Vec<wsp_common::units::Amps> = array
            .tiles()
            .map(|t| {
                if (lo..hi).contains(&t.x) && (lo..hi).contains(&t.y) {
                    peak
                } else {
                    idle
                }
            })
            .collect();
        let sol = PdnConfig::paper_prototype()
            .solve_with_tile_currents(&currents)
            .expect("converges");
        row(&[
            format!("{block}x{block}"),
            format!("{:.3}", sol.min_voltage().value()),
            format!("{:.3}", sol.max_droop().value()),
        ]);
    }

    header(
        "Sec. III",
        "delivery-strategy trade-off (why edge delivery won)",
    );
    let chiplet_power = Watts(1024.0 * 0.35);
    row(&[
        "strategy",
        "efficiency",
        "area overhead",
        "array regular?",
        "ready?",
    ]);
    for strategy in [
        DeliveryStrategy::paper_edge_ldo(),
        DeliveryStrategy::paper_on_wafer_conversion(),
        DeliveryStrategy::future_backside_twv(),
    ] {
        let a = strategy
            .assess(&PdnConfig::paper_prototype(), chiplet_power)
            .expect("assessable");
        row(&[
            strategy.to_string(),
            format!("{:.0}%", a.efficiency() * 100.0),
            format!("{:.0}%", a.area_overhead * 100.0),
            format!("{}", strategy.preserves_array_regularity()),
            format!("{}", strategy.is_production_ready()),
        ]);
    }
    let edge = DeliveryStrategy::paper_edge_ldo();
    let hv = DeliveryStrategy::paper_on_wafer_conversion();
    header(
        "Sec. III transient",
        "200 mA load step vs decap sizing (LDO loop ~5 ns)",
    );
    row(&["decap", "min rail V", "in 1.0-1.2 V window?"]);
    use wsp_common::units::{Amps, Farads, Seconds, Volts};
    use wsp_pdn::transient::{simulate_load_step, TransientConfig};
    use wsp_pdn::DecapBank;
    for (name, bank) in [
        (
            "2 nF (undersized)",
            DecapBank::new(Farads::from_nanofarads(2.0), 0.05),
        ),
        (
            "20 nF on-chip (paper, 35% of tile)",
            DecapBank::paper_bank(),
        ),
        (
            "100 nF deep-trench (future, footnote 2)",
            DecapBank::future_deep_trench_bank(),
        ),
    ] {
        let result = simulate_load_step(
            TransientConfig::paper_config().with_decap(bank),
            Amps::from_milliamps(100.0),
            Amps::from_milliamps(300.0),
            Seconds::from_nanoseconds(200.0),
        );
        row(&[
            name.to_string(),
            format!("{:.3}", result.min_voltage.value()),
            format!("{}", result.stays_in_window(Volts(1.0), Volts(1.2))),
        ]);
    }

    result_line(
        "plane-current reduction at 12 V",
        format!(
            "{:.1}x",
            edge.plane_current(chiplet_power).value() / hv.plane_current(chiplet_power).value()
        ),
        Some("~12x"),
    );

    if !opts.smoke {
        // The PDN bench has no stepped machine to profile, so the
        // prototype solve's timing is the phase tree.
        let mut profiler = PhaseProfiler::new(true);
        profiler.add("pdn.solve", solve_wall.as_nanos(), 1);
        profiler.export(&mut sink, "");
    }

    opts.write_outputs("fig2_droop", &recorder);
}
