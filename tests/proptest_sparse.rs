//! Property tests for wheel stepping — the activity-driven active-set
//! walk plus the event-wheel skipper: skipping idle tiles (and jumping
//! fully idle or stalled windows) must be *unobservable*. Every fabric
//! report and every machine outcome — stats, architectural memory state, per-core
//! activity counters, the runnable-tiles telemetry sample, the memory
//! profile, the sampled time series, and the digest journal — has to
//! match the dense reference sweep bit for bit, across random seeds,
//! fault maps, and thread counts.

use proptest::prelude::*;
use rand::RngExt as _;
use waferscale::{LatencyModel, MultiTileMachine, SystemConfig};
use wsp_common::parallel::Stepping;
use wsp_common::seeded_rng;
use wsp_noc::{NocSim, SimConfig, TrafficPattern};
use wsp_tile::isa::{Program, Reg};
use wsp_tile::{MemoryModelKind, CORES_PER_TILE};
use wsp_topo::{FaultMap, TileArray};

/// Thread counts exercised against the single-threaded dense baseline.
const THREADS: [usize; 3] = [1, 2, 8];

/// Fault counts for the 16×16 fabric runs (the fig7 scenario ladder).
const FABRIC_FAULTS: [usize; 3] = [0, 5, 15];

/// Fault counts for the 4×4 machine runs.
const MACHINE_FAULTS: [usize; 3] = [0, 1, 3];

/// Memory-timing backends the machine identity property ranges over:
/// the active-set walk must be unobservable on stateful backends too (the
/// execute-then-stall drain keeps a stalled core's tile runnable).
const MEMORY: [MemoryModelKind; 3] = [
    MemoryModelKind::Fixed,
    MemoryModelKind::Banked,
    MemoryModelKind::BankedTlb,
];

/// Runs the NoC traffic simulator on a 16×16 wafer and returns the full
/// report (deliveries, latencies, stalls, backpressure, undeliverables).
fn run_fabric(
    seed: u64,
    fault_count: usize,
    requests: u64,
    pattern: TrafficPattern,
    stepping: Stepping,
    threads: usize,
) -> wsp_noc::SimReport {
    run_fabric_with_capacity(seed, fault_count, requests, pattern, stepping, threads, 4)
}

/// [`run_fabric`] with an explicit ring-buffer FIFO depth, for the
/// wrap-around and recycling properties (capacity 1 wraps the ring on
/// every push/pop pair and maximises backpressure stalls).
#[allow(clippy::too_many_arguments)]
fn run_fabric_with_capacity(
    seed: u64,
    fault_count: usize,
    requests: u64,
    pattern: TrafficPattern,
    stepping: Stepping,
    threads: usize,
    queue_capacity: usize,
) -> wsp_noc::SimReport {
    let array = TileArray::new(16, 16);
    let mut rng = seeded_rng(seed);
    let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
    let config = SimConfig {
        queue_capacity,
        ..SimConfig::default()
    };
    let mut sim = NocSim::new(faults, config);
    sim.fabric_mut().set_threads(threads);
    sim.fabric_mut().set_stepping(stepping);
    sim.run(pattern, requests, &mut rng)
}

/// Builds a 4×4 fabric-model machine in which the first `cores` cores of
/// every healthy tile atomically increment one counter on the first
/// healthy tile (a hot-spot with long blocked stretches — the active-set
/// walk's hardest case), runs it, and returns everything observable: the
/// stats, the architectural counter word, the per-core activity counters
/// (which the gap replay must reconstruct exactly), and the
/// runnable-tiles sample. Several cores per tile park and wake at
/// different cycles, so a runnable tile holds parked cores.
#[allow(clippy::too_many_arguments)]
fn run_machine(
    seed: u64,
    fault_count: usize,
    reps: u32,
    cores: usize,
    stepping: Stepping,
    threads: usize,
    memory: MemoryModelKind,
) -> impl PartialEq + std::fmt::Debug {
    let array = TileArray::new(4, 4);
    let mut rng = seeded_rng(seed);
    let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
    let cfg = SystemConfig::with_array(array)
        .with_latency_model(LatencyModel::Fabric)
        .with_memory_model(memory);
    let mut m = MultiTileMachine::new(cfg, faults.clone());
    m.set_threads(threads);
    m.set_stepping(stepping);
    // The observability artifacts ride along in the identity tuple: the
    // wheel's bulk gap replay must reproduce the gauge samples and the
    // digest windows of the dense sweep, not just the end state.
    m.set_sampling(8);
    m.set_digests(16);
    let owner = array
        .tiles()
        .find(|&t| !faults.is_faulty(t))
        .expect("some tile survives");
    let counter = m.global_address(owner, 256).expect("mapped");
    for tile in array.tiles() {
        if faults.is_faulty(tile) {
            continue;
        }
        for core in 0..cores {
            // A seeded prologue of 0..8 idle instructions staggers the
            // first issues, so cores park at different cycles.
            let mut program = Program::builder();
            for _ in 0..rng.random_range(0..8u32) {
                program = program.addi(Reg::R5, Reg::R5, 1);
            }
            let program = program
                .ldi(Reg::R1, counter)
                .ldi(Reg::R2, 1)
                .ldi(Reg::R3, reps)
                .ldi(Reg::R0, 0)
                .label("loop")
                .amo_add(Reg::R4, Reg::R1, Reg::R2)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "loop")
                .halt()
                .build()
                .expect("builds");
            m.load_program(tile, core, &program).expect("loads");
        }
    }
    // A heavily faulted map can disconnect a tile from the owner, which
    // faults the accessing core — a legitimate outcome that must still
    // match between stepping modes, so the error is part of the tuple.
    // With staggered issues the fault can land while other cores are
    // parked, so the tuple also pins the fault-path settling of their
    // skipped stall steps.
    //
    // Stepped by hand rather than through `run_until_halt`, so the
    // machine's own bookkeeping (core masks, running count, in-flight
    // ops) is checked against a rescan after every step, the faulting
    // one included.
    let mut outcome = Ok(());
    while m.any_running() {
        assert!(m.stats().cycles < 1_000_000, "programs halt");
        let step = m.step();
        assert_eq!(
            m.check_invariants(),
            Ok(()),
            "after cycle {}",
            m.stats().cycles
        );
        if let Err(e) = step {
            outcome = Err(format!("{e:?}"));
            break;
        }
    }
    let outcome = outcome.map(|()| m.stats());
    let journal = m.journal().expect("digests on").to_text();
    let series: Vec<(String, Vec<(u64, f64)>)> = m
        .timeseries()
        .map(|(name, s)| (name.to_string(), s.points().to_vec()))
        .collect();
    (
        outcome,
        m.read_word(counter).expect("owner is healthy"),
        m.per_tile_activity(),
        m.runnable_tiles().clone(),
        m.memory_profile(),
        journal,
        series,
    )
}

proptest! {
    /// Machine outcomes — stats, architectural memory, the per-core
    /// cycle/stall counters the active-set gap replay reconstructs, the
    /// memory profile, time series, and digest journal — are
    /// bit-identical between wheel and dense stepping over random
    /// schedules, fault maps, cores per tile, memory backends, and thread
    /// counts: the active-set walk, the per-core skip of parked cores, and
    /// the stalled-window jumps are unobservable.
    #[test]
    fn wheel_machine_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        reps in 1u32..6,
        cores in 1usize..=CORES_PER_TILE,
        threads_idx in 0usize..3,
        mem_idx in 0usize..3,
    ) {
        let faults = MACHINE_FAULTS[fault_idx];
        let threads = THREADS[threads_idx];
        let memory = MEMORY[mem_idx];
        let dense = run_machine(seed, faults, reps, cores, Stepping::Dense, 1, memory);
        let wheel = run_machine(seed, faults, reps, cores, Stepping::Wheel, threads, memory);
        prop_assert_eq!(dense, wheel);
    }

    /// Fabric packet delivery is bit-identical between the dense sweep
    /// and wheel stepping at every thread count, over clean and heavily
    /// faulted wafers: with injections running the wheel is the pure
    /// occupancy-bitset walk, and the drain phase jumps empty windows.
    #[test]
    fn wheel_fabric_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        requests in 20u64..150,
        threads_idx in 0usize..3,
    ) {
        let faults = FABRIC_FAULTS[fault_idx];
        let threads = THREADS[threads_idx];
        let pattern = TrafficPattern::UniformRandom;
        let dense = run_fabric(seed, faults, requests, pattern, Stepping::Dense, 1);
        let wheel = run_fabric(seed, faults, requests, pattern, Stepping::Wheel, threads);
        prop_assert_eq!(dense, wheel);
    }

    /// Ring-buffer wrap-around is unobservable: shrinking the FIFO depth
    /// to 1 (every push/pop pair wraps the ring, every contended link
    /// backpressures) still replays the dense reference bit for bit at
    /// every stepping mode and thread count, over faulted wafers.
    #[test]
    fn tiny_ring_capacity_matches_dense(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        requests in 20u64..150,
        threads_idx in 0usize..3,
        stepping_idx in 0usize..2,
        queue_capacity in 1usize..4,
    ) {
        let faults = FABRIC_FAULTS[fault_idx];
        let threads = THREADS[threads_idx];
        let stepping = [Stepping::Dense, Stepping::Wheel][stepping_idx];
        let pattern = TrafficPattern::UniformRandom;
        let dense = run_fabric_with_capacity(
            seed, faults, requests, pattern, Stepping::Dense, 1, queue_capacity);
        let other = run_fabric_with_capacity(
            seed, faults, requests, pattern, stepping, threads, queue_capacity);
        prop_assert_eq!(dense, other);
    }

    /// Arena slots are recycled and occupancy bits cleared across drained
    /// campaigns: repeated traffic runs through one fabric leave no live
    /// arena slots behind, the second and later identical campaigns fit
    /// in recycled slots without growing the columns, and the emptied
    /// bitsets never wedge a later run — at every stepping mode,
    /// thread count, and ring capacity, over faulted wafers.
    #[test]
    fn drained_campaigns_recycle_arena_slots(
        seed in any::<u64>(),
        fault_idx in 0usize..3,
        requests in 20u64..100,
        threads_idx in 0usize..3,
        stepping_idx in 0usize..2,
        queue_capacity in 1usize..4,
    ) {
        let array = TileArray::new(16, 16);
        let mut rng = seeded_rng(seed);
        let faults = FaultMap::sample_uniform(array, FABRIC_FAULTS[fault_idx], &mut rng);
        let config = SimConfig { queue_capacity, ..SimConfig::default() };
        let mut sim = NocSim::new(faults, config);
        sim.fabric_mut().set_threads(THREADS[threads_idx]);
        sim.fabric_mut()
            .set_stepping([Stepping::Dense, Stepping::Wheel][stepping_idx]);
        let mut footprints = Vec::new();
        for _ in 0..3 {
            let mut rng = seeded_rng(seed);
            let report = sim.run(TrafficPattern::UniformRandom, requests, &mut rng);
            prop_assert_eq!(report.in_flight_at_end, 0);
            prop_assert_eq!(sim.fabric().arena_live(), 0);
            footprints.push(sim.fabric().arena_slots());
        }
        // The footprint is the high-water mark of in-flight packets, so
        // identical later campaigns run almost entirely in recycled
        // slots: the start-cycle alignment of the response-delay wheel
        // can jitter the peak by a slot or two, but a recycling failure
        // would grow the columns by ~2×requests (request + response)
        // per campaign. Pin the former scale, not the latter.
        prop_assert!(
            footprints[2] - footprints[0] <= 8,
            "arena footprint must stay at the round-0 high-water mark: {:?}",
            footprints
        );
    }
}
