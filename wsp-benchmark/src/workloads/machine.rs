//! The ISA-level machine workload: every core of the faulty wafer streams
//! remote loads, stores a result locally and adds it into a shared word.
//!
//! This is the only workload in which the core step, the banked memory
//! model and the fabric all carry load together, with writes and atomics
//! to hot addresses beside the reads.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::RngExt as _;
use waferscale::{LatencyModel, MultiTileMachine, SystemConfig};
use wsp_common::rng::stream_seed;
use wsp_common::seeded_rng;
use wsp_noc::{NetworkChoice, RoutePlanner};
use wsp_telemetry::{Fnv1a, Sink};
use wsp_tile::isa::{Program, Reg};
use wsp_tile::{MemoryModelKind, CORES_PER_TILE};
use wsp_topo::{FaultMap, TileCoord};

use super::{fault_map, Checks, Pass, Scale};
use crate::metrics::per;
use crate::stats::percentile;
use crate::trace::Tracer;

/// Offsets in each tile's shared region: the data blocks the partners
/// read (one per core), the per-core result words, and the row-hub word.
const DATA: u32 = 0;
const RESULT: u32 = 0x1_0000;
const HUB: u32 = 0x2_0000;

/// Cycle budget; the full-scale run halts in under a tenth of it.
const CYCLE_BUDGET: u64 = 100_000;

/// A finished pass plus what its stored words must hold.
pub struct MachineRun {
    pub pass: Pass,
    machine: MultiTileMachine,
    /// `(address, value)` of every result and row-hub word.
    expected: Vec<(u32, u32)>,
}

impl MachineRun {
    /// One check per stored word, plus the digest part of what was read.
    fn verify(&self) -> (Checks, u64) {
        let mut checks = Checks::default();
        let mut h = Fnv1a::new();
        for &(addr, want) in &self.expected {
            let got = self.machine.read_word(addr);
            checks.check(got == Ok(want));
            h.write_u32(got.unwrap_or(!want));
        }
        (checks, h.finish())
    }
}

pub fn stream(scale: Scale, seed: u64, tracer: &mut Tracer, warm_up: bool) -> MachineRun {
    let loads = match scale {
        Scale::Full => 16,
        Scale::Test => 8,
    };
    let setup = Instant::now();
    let faults = fault_map(scale, tracer);
    let config = SystemConfig::with_array(faults.array())
        .with_latency_model(LatencyModel::Fabric)
        .with_memory_model(MemoryModelKind::BankedTlb);
    let mut machine = tracer.span("machine", "new", |_| {
        MultiTileMachine::new(config, faults.clone())
    });
    let expected = tracer.span("machine", "load", |_| {
        load(&mut machine, &faults, loads, stream_seed(seed, 2))
    });
    let setup_s = setup.elapsed().as_secs_f64();

    // Remote-load latencies are only observable through a sink, which
    // slows the run by ~10 %, so only the untimed warm-up installs one.
    let latencies = Arc::new(Mutex::new(Vec::new()));
    if warm_up {
        machine.set_sink(Box::new(LatencySink(Arc::clone(&latencies))));
    }
    let start = Instant::now();
    let outcome = tracer.span("machine", "run", |_| machine.run_until_halt(CYCLE_BUDGET));
    let run_s = start.elapsed().as_secs_f64();

    let mut run = MachineRun {
        pass: Pass {
            setup_s,
            run_s,
            ..Pass::default()
        },
        machine,
        expected,
    };
    tracer.span("machine", "check", |_| {
        let (mut checks, words) = run.verify();
        checks.check(outcome.is_ok());
        let stats = run.machine.stats();
        let mut h = Fnv1a::new();
        for v in [
            stats.cycles,
            stats.retired,
            stats.local_accesses,
            stats.remote_accesses,
            stats.network_stall_cycles,
            stats.remote_latency_total,
            stats.relay_forwards,
            stats.link_stall_cycles,
            stats.peak_link_occupancy as u64,
            stats.bank_conflicts,
            words,
        ] {
            h.write_u64(v);
        }
        let memory = run.machine.memory_profile();
        let latencies: Vec<f64> = latencies
            .lock()
            .expect("no sink user panicked")
            .iter()
            .map(|&l| l as f64)
            .collect();
        let pass = &mut run.pass;
        pass.parts = vec![h.finish()];
        pass.checks = checks;
        pass.sim_cycles = Some(stats.cycles);
        pass.sim_latency_p99 = percentile(&latencies, 0.99).map(|p| p as u64);
        pass.counters = vec![
            ("machine.cycles", stats.cycles as f64),
            ("machine.retired", stats.retired as f64),
            ("machine.remote_accesses", stats.remote_accesses as f64),
            ("machine.local_accesses", stats.local_accesses as f64),
            (
                "machine.network_stall_cycles",
                stats.network_stall_cycles as f64,
            ),
            ("machine.link_stall_cycles", stats.link_stall_cycles as f64),
            ("machine.relay_forwards", stats.relay_forwards as f64),
            (
                "machine.fabric_ticks",
                run.machine.fabric().ticks_executed() as f64,
            ),
            ("tile.memory.grants", memory.grants as f64),
            ("tile.memory.denials", memory.conflicts as f64),
            ("tile.memory.row_hit_rate", memory.row_hit_rate()),
            (
                "tile.memory.tlb_hit_rate",
                per(
                    memory.tlb_hits as f64,
                    (memory.tlb_hits + memory.tlb_misses) as f64,
                ),
            ),
        ];
    });
    run
}

/// Writes the data blocks and loads one program per core. Core `c` of
/// each healthy tile sums the `loads` words of block `c` on its partner,
/// the nearest healthy tile eastwards (wrapping) that the route planner
/// can reach, stores the sum in its result word, and atomically adds it
/// into its row's hub word (its own tile's when the hub is out of reach).
/// Returns every word the run must leave.
fn load(
    machine: &mut MultiTileMachine,
    faults: &FaultMap,
    loads: u32,
    seed: u64,
) -> Vec<(u32, u32)> {
    let planner = RoutePlanner::new(faults.clone());
    let reaches =
        |a: TileCoord, b: TileCoord| a == b || planner.choose(a, b) != NetworkChoice::Disconnected;
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    let mut rng = seeded_rng(seed);
    let addr = |m: &MultiTileMachine, t: TileCoord, offset: u32| {
        m.global_address(t, offset)
            .expect("healthy tile, in-range offset")
    };

    // Block c of tile t holds `loads` random words.
    let mut sums: BTreeMap<(TileCoord, u32), u32> = BTreeMap::new();
    for &t in &healthy {
        for c in 0..CORES_PER_TILE as u32 {
            let mut sum = 0u32;
            for i in 0..loads {
                let v: u32 = rng.random_range(0..u32::MAX);
                sum = sum.wrapping_add(v);
                let a = addr(machine, t, DATA + (c * loads + i) * 4);
                machine.write_word(a, v).expect("mapped word");
            }
            sums.insert((t, c), sum);
        }
    }

    // Each row's hub: the healthy tile most of the row reaches.
    let rows = faults.array().rows();
    let hubs: Vec<Option<TileCoord>> = (0..rows)
        .map(|y| {
            let row: Vec<TileCoord> = healthy.iter().copied().filter(|t| t.y == y).collect();
            row.iter().copied().max_by_key(|&h| {
                let reached = row.iter().filter(|&&t| reaches(t, h)).count();
                (reached, std::cmp::Reverse(h.x))
            })
        })
        .collect();

    let mut expected = Vec::new();
    let mut hub_totals: BTreeMap<u32, u32> = BTreeMap::new();
    let cols = faults.array().cols();
    for &t in &healthy {
        let partner = (1..cols)
            .map(|dx| TileCoord::new((t.x + dx) % cols, t.y))
            .find(|&p| faults.is_healthy(p) && reaches(t, p))
            .unwrap_or(t);
        let hub = hubs[usize::from(t.y)]
            .filter(|&h| reaches(t, h))
            .unwrap_or(t);
        let hub_addr = addr(machine, hub, HUB);
        for c in 0..CORES_PER_TILE as u32 {
            let sum = sums[&(partner, c)];
            let result_addr = addr(machine, t, RESULT + c * 4);
            let program = Program::builder()
                .ldi(Reg::R1, addr(machine, partner, DATA + c * loads * 4))
                .ldi(Reg::R3, loads)
                .ldi(Reg::R5, 0)
                .ldi(Reg::R0, 0)
                .label("next")
                .ld(Reg::R2, Reg::R1, 0)
                .add(Reg::R5, Reg::R5, Reg::R2)
                .addi(Reg::R1, Reg::R1, 4)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "next")
                .ldi(Reg::R6, result_addr)
                .st(Reg::R5, Reg::R6, 0)
                .ldi(Reg::R7, hub_addr)
                .amo_add(Reg::R8, Reg::R7, Reg::R5)
                .halt()
                .build()
                .expect("well-formed program");
            machine
                .load_program(t, c as usize, &program)
                .expect("healthy tile");
            expected.push((result_addr, sum));
            let total = hub_totals.entry(hub_addr).or_default();
            *total = total.wrapping_add(sum);
        }
    }
    expected.extend(hub_totals);
    expected
}

/// Keeps every remote-access latency the machine reports.
struct LatencySink(Arc<Mutex<Vec<u64>>>);

impl Sink for LatencySink {
    fn enabled(&self) -> bool {
        true
    }

    fn histogram_record(&mut self, name: &str, value: u64) {
        if name == "machine.remote_latency_cycles" {
            self.0.lock().expect("no sink user panicked").push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_stored_word_fails_its_check() {
        let mut run = stream(Scale::Test, 7, &mut Tracer::off(), false);
        assert_eq!(run.pass.checks.failed, 0);
        let (clean, _) = run.verify();
        assert_eq!(clean.failed, 0);
        let (addr, want) = run.expected[0];
        run.machine
            .write_word(addr, want.wrapping_add(1))
            .expect("mapped word");
        let (checks, _) = run.verify();
        assert_eq!(checks.failed, 1);
        assert!(checks.failed as f64 / checks.attempted as f64 > 0.0);
    }

    #[test]
    fn warm_up_pass_reports_remote_latency() {
        let run = stream(Scale::Test, 7, &mut Tracer::off(), true);
        assert!(run.pass.sim_latency_p99.is_some_and(|p| p > 0));
        assert!(run.pass.counter("machine.remote_accesses") > 0.0);
    }
}
