//! `wsflow` — command-line driver for the waferscale design flow.
//!
//! ```text
//! wsflow report                          Table I for the paper prototype
//! wsflow boot   [--tiles N] [--faults K] [--seed S]
//! wsflow clock  [--tiles N] [--faults K] [--seed S]
//! wsflow route  [--tiles N] [--single-layer]
//! wsflow bfs    [--tiles N] [--vertices V] [--seed S]
//! ```
//!
//! Run with `cargo run -p waferscale --bin wsflow -- <command>`.

use std::process::ExitCode;

use waferscale::workload::{run_bfs, Graph, GraphKind};
use waferscale::{SystemConfig, WaferscaleSystem};
use wsp_clock::ForwardingSim;
use wsp_route::{check_route, LayerMode, RouterConfig, WaferNetlist};
use wsp_topo::{FaultMap, TileArray};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "report" => cmd_report(),
        "boot" => cmd_boot(&opts),
        "clock" => cmd_clock(&opts),
        "route" => cmd_route(&opts),
        "bfs" => cmd_bfs(&opts),
        other => {
            eprintln!("error: unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: wsflow <report|boot|clock|route|bfs> \
[--tiles N] [--faults K] [--seed S] [--vertices V] [--single-layer]";

/// Parsed command-line options with prototype-scale defaults.
struct Options {
    tiles: u16,
    faults: usize,
    seed: u64,
    vertices: usize,
    single_layer: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            tiles: 8,
            faults: 0,
            seed: 1,
            vertices: 2000,
            single_layer: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value_of =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--tiles" => opts.tiles = parse_num(value_of("--tiles")?)?,
                "--faults" => opts.faults = parse_num(value_of("--faults")?)?,
                "--seed" => opts.seed = parse_num(value_of("--seed")?)?,
                "--vertices" => opts.vertices = parse_num(value_of("--vertices")?)?,
                "--single-layer" => opts.single_layer = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if opts.tiles == 0 {
            return Err("--tiles must be at least 1".into());
        }
        let tile_count = opts.array().tile_count();
        if opts.faults > tile_count {
            return Err(format!(
                "--faults {} exceeds the {tile_count} tiles of a {}x{} array",
                opts.faults, opts.tiles, opts.tiles
            ));
        }
        if opts.vertices == 0 {
            return Err("--vertices must be at least 1".into());
        }
        Ok(opts)
    }

    fn array(&self) -> TileArray {
        TileArray::new(self.tiles, self.tiles)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn cmd_report() -> Result<(), String> {
    let cfg = SystemConfig::paper_prototype();
    println!("{cfg}");
    println!(
        "  shared memory     : {} MB",
        cfg.total_shared_memory() / (1024 * 1024)
    );
    println!(
        "  network bandwidth : {:.2} TB/s",
        cfg.network_bandwidth() / 1e12
    );
    println!(
        "  memory bandwidth  : {:.3} TB/s",
        cfg.shared_memory_bandwidth() / 1e12
    );
    println!(
        "  compute           : {:.2} TOPS",
        cfg.compute_throughput_tops()
    );
    println!("  total area        : {:.0} mm^2", cfg.total_area().value());
    println!(
        "  peak power        : {:.0} W",
        cfg.total_peak_power().value()
    );
    Ok(())
}

fn cmd_boot(opts: &Options) -> Result<(), String> {
    let cfg = SystemConfig::with_array(opts.array());
    let mut rng = wsp_common::seeded_rng(opts.seed);
    let mut system = if opts.faults > 0 {
        let faults = FaultMap::sample_uniform(cfg.array(), opts.faults, &mut rng);
        WaferscaleSystem::with_faults(cfg, faults)
    } else {
        WaferscaleSystem::assemble(cfg, &mut rng)
    };
    let report = system.boot(&mut rng).map_err(|e| e.to_string())?;
    println!("{report}");
    println!("fault map:\n{}", system.faults());
    Ok(())
}

fn cmd_clock(opts: &Options) -> Result<(), String> {
    let array = opts.array();
    let mut rng = wsp_common::seeded_rng(opts.seed);
    let faults = FaultMap::sample_uniform(array, opts.faults, &mut rng);
    let generator = array
        .edge_tiles()
        .find(|&t| faults.is_healthy(t))
        .ok_or("no healthy edge tile to host the clock generator")?;
    let plan = ForwardingSim::new(faults)
        .run([generator])
        .map_err(|e| e.to_string())?;
    println!("{}", plan.to_ascii());
    println!(
        "clocked {}/{} tiles in {} cycles (generator at {generator})",
        plan.clocked_count(),
        array.tile_count(),
        plan.setup_cycles()
    );
    Ok(())
}

fn cmd_route(opts: &Options) -> Result<(), String> {
    let array = opts.array();
    let mode = if opts.single_layer {
        LayerMode::SingleLayer
    } else {
        LayerMode::DualLayer
    };
    let config = RouterConfig::paper_config(array, mode);
    let report = config
        .route(&WaferNetlist::generate(array))
        .map_err(|e| e.to_string())?;
    println!("{report}");
    let violations = check_route(&report, &config);
    println!("DRC: {} violations", violations.len());
    if opts.single_layer {
        println!(
            "memory capacity lost: {:.0}%",
            report.memory_capacity_loss() * 100.0
        );
    }
    if !violations.is_empty() {
        return Err("route is not DRC-clean".into());
    }
    Ok(())
}

fn cmd_bfs(opts: &Options) -> Result<(), String> {
    let cfg = SystemConfig::with_array(opts.array());
    let mut rng = wsp_common::seeded_rng(opts.seed);
    let faults = FaultMap::sample_uniform(cfg.array(), opts.faults, &mut rng);
    let system = WaferscaleSystem::with_faults(cfg, faults);
    let graph = Graph::generate(
        GraphKind::UniformRandom { avg_degree: 8 },
        opts.vertices,
        &mut rng,
    );
    let (dist, stats) = run_bfs(&system, &graph, 0).map_err(|e| e.to_string())?;
    if dist != graph.reference_bfs(0) {
        return Err("distributed BFS diverged from the reference".into());
    }
    println!("{stats}");
    println!(
        "verified against reference; {:.0} MTEPS at {:.0} MHz",
        stats.mteps(&cfg),
        cfg.frequency().as_megahertz()
    );
    Ok(())
}
