//! The paper's design-flow sweeps, run serially: Fig. 6 connectivity,
//! Fig. 4 clock forwarding, Fig. 5 assembly yield, Fig. 2 PDN droop and
//! the Sec. VIII substrate router.
//!
//! No cycle-level engine runs here, so this workload is the control for
//! any change to the fabric or the machine.

use std::time::Instant;

use wsp_assembly::{BondingModel, RedundancyScheme};
use wsp_clock::ForwardingSim;
use wsp_common::rng::stream_seed;
use wsp_common::seeded_rng;
use wsp_common::units::{Amps, Ohms, Volts, Watts};
use wsp_noc::{
    disconnected_fraction, odd_even_disconnected_fraction, ConnectivitySweep, RoutingScheme,
};
use wsp_pdn::{LoadModel, PdnConfig};
use wsp_route::{check_route, LayerMode, RouterConfig, WaferNetlist};
use wsp_topo::{FaultMap, TileArray};

use super::{Pass, Scale};
use crate::trace::Tracer;

struct Sizes {
    connectivity_trials: usize,
    max_faults: usize,
    odd_even: (u16, &'static [usize], usize),
    clock_faults: &'static [usize],
    clock_maps: usize,
    wafers: usize,
    loads_mw: &'static [u32],
    blocks: &'static [u16],
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            connectivity_trials: 10,
            max_faults: 10,
            odd_even: (16, &[2, 5, 10, 15], 5),
            clock_faults: &[0, 5, 10, 20, 40, 80],
            clock_maps: 50,
            wafers: 25,
            loads_mw: &[50, 100, 150, 200, 250, 300, 350],
            blocks: &[4, 8, 16, 32],
        },
        Scale::Test => Sizes {
            connectivity_trials: 2,
            max_faults: 2,
            odd_even: (8, &[2], 2),
            clock_faults: &[0, 5],
            clock_maps: 2,
            wafers: 2,
            loads_mw: &[100, 300],
            blocks: &[2, 8],
        },
    }
}

/// Collects one fingerprint per sweep point; each point is checked
/// against the warm-up pass.
#[derive(Default)]
struct Points(Vec<u64>);

impl Points {
    fn push(&mut self, values: &[f64]) {
        let mut h = wsp_telemetry::Fnv1a::new();
        for v in values {
            h.write_u64(v.to_bits());
        }
        self.0.push(h.finish());
    }
}

pub fn montecarlo(scale: Scale, seed: u64, tracer: &mut Tracer) -> Pass {
    let s = sizes(scale);
    let array = TileArray::new(scale.wafer(), scale.wafer());

    let setup = Instant::now();
    let netlist = tracer.span("route", "netlist", |_| WaferNetlist::generate(array));
    let setup_s = setup.elapsed().as_secs_f64();

    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let mut points = Points::default();
    let mut maps = 0usize;
    let start = Instant::now();

    tracer.span("noc.connectivity", "fig6", |_| {
        let sweep = ConnectivitySweep::new(array, s.connectivity_trials);
        for count in 0..=s.max_faults {
            let p = sweep.run_point(count, stream_seed(seed, 6));
            points.push(&[p.single_network, p.dual_network]);
            maps += s.connectivity_trials;
        }
        let (side, counts, trials) = s.odd_even;
        let mut rng = seeded_rng(stream_seed(seed, 61));
        for &count in counts {
            let mut values = Vec::new();
            for _ in 0..trials {
                let faults = FaultMap::sample_uniform(TileArray::new(side, side), count, &mut rng);
                values.push(disconnected_fraction(&faults, RoutingScheme::DualXyYx));
                values.push(odd_even_disconnected_fraction(&faults, 64));
                maps += 1;
            }
            points.push(&values);
        }
    });

    let mut plans = 0usize;
    tracer.span("clock", "fig4", |_| {
        let mut rng = seeded_rng(stream_seed(seed, 4));
        for &count in s.clock_faults {
            let mut unclocked = 0usize;
            for _ in 0..s.clock_maps {
                let map = FaultMap::sample_uniform(array, count, &mut rng);
                let Some(generator) = array.edge_tiles().find(|&t| map.is_healthy(t)) else {
                    continue;
                };
                let plan = ForwardingSim::new(map).run([generator]);
                pass.checks.check(plan.is_ok());
                if let Ok(plan) = plan {
                    unclocked += plan.unclocked_tiles().count();
                    plans += 1;
                }
            }
            points.push(&[unclocked as f64]);
        }
    });

    tracer.span("assembly", "fig5", |_| {
        for (i, scheme) in [RedundancyScheme::SinglePillar, RedundancyScheme::DualPillar]
            .into_iter()
            .enumerate()
        {
            let model = BondingModel::paper_compute_chiplet(scheme);
            let mut rng = seeded_rng(stream_seed(seed, 50 + i as u64));
            let faulty: usize = (0..s.wafers)
                .map(|_| model.assemble_wafer(array, &mut rng).faulty_count())
                .sum();
            points.push(&[faulty as f64]);
        }
    });

    let (mut solves, mut iterations) = (0usize, 0usize);
    tracer.span("pdn", "fig2", |_| {
        let base = PdnConfig::new(
            array,
            PdnConfig::PAPER_SUPPLY,
            PdnConfig::PAPER_LOOP_SHEET_RESISTANCE,
            Ohms::from_milliohms(1.0),
            LoadModel::ConstantCurrent(PdnConfig::PAPER_TILE_CURRENT),
            [true; 4],
        );
        let mut record = |solution: Result<wsp_pdn::PdnSolution, _>| {
            pass.checks.check(solution.is_ok());
            solves += 1;
            if let Ok(sol) = solution {
                iterations += sol.iterations();
                points.push(&[sol.min_voltage().value(), sol.iterations() as f64]);
            }
        };
        for &mw in s.loads_mw {
            let i = Watts::from_milliwatts(f64::from(mw)) / Volts(1.21);
            record(base.with_load(LoadModel::ConstantCurrent(i)).solve());
        }
        let peak = PdnConfig::PAPER_TILE_CURRENT;
        let idle = Amps(peak.value() * 0.05);
        let centre = scale.wafer() / 2;
        for &block in s.blocks {
            let lo = centre.saturating_sub(block / 2);
            let hi = lo + block;
            let currents: Vec<Amps> = array
                .tiles()
                .map(|t| {
                    let inside = (lo..hi).contains(&t.x) && (lo..hi).contains(&t.y);
                    if inside {
                        peak
                    } else {
                        idle
                    }
                })
                .collect();
            record(base.solve_with_tile_currents(&currents));
        }
    });

    let (mut routed, mut failed, mut violations) = (0usize, 0usize, 0usize);
    tracer.span("route", "sec8", |_| {
        for mode in [LayerMode::DualLayer, LayerMode::SingleLayer] {
            let config = RouterConfig::paper_config(array, mode);
            let report = config.route(&netlist).expect("netlist matches the array");
            let drc = check_route(&report, &config);
            pass.checks.check(drc.is_empty());
            routed += report.routed().len();
            failed += report.failed_nets();
            violations += drc.len();
            points.push(&[
                report.routed().len() as f64,
                report.failed_nets() as f64,
                report.total_wirelength_m(),
            ]);
        }
    });
    pass.run_s = start.elapsed().as_secs_f64();

    pass.parts = points.0;
    pass.counters = vec![
        ("noc.connectivity.maps", maps as f64),
        ("pdn.solves", solves as f64),
        ("pdn.iterations", iterations as f64),
        ("pdn.node_updates", (iterations * array.tile_count()) as f64),
        ("route.nets_routed", routed as f64),
        ("route.failed_nets", failed as f64),
        ("route.drc_violations", violations as f64),
        ("clock.plans", plans as f64),
        ("assembly.wafers", (2 * s.wafers) as f64),
    ];
    pass
}
