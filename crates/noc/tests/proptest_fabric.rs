//! Property tests for the [`wsp_noc::Fabric`] engine: packet
//! conservation, destination correctness, exclusion of disconnected
//! pairs, deterministic replay of the traffic simulator, the arena and
//! ring-buffer invariants of the hot loop (wrap-around at tiny FIFO
//! capacities, [`Fabric::check_invariants`] after every tick, arrays
//! wider than one occupancy word, drain to empty, slot recycling), and
//! tick-by-tick agreement of both steppings with the naive
//! [`SpecFabric`] model across fault maps and FIFO depths.

mod spec;

use std::collections::HashMap;

use proptest::prelude::*;
use spec::SpecFabric;
use wsp_common::stepping::Stepping;
use wsp_noc::{
    Fabric, FabricPacket, NetworkChoice, NetworkKind, NocSim, PacketKind, RoutePlanner, SimConfig,
    TrafficPattern,
};
use wsp_topo::{FaultMap, TileArray, TileCoord, DIRECTIONS};

/// Injects the cycle-0 requests of [`schedule`] into `fabric` and
/// returns `(injected_count, id → dst)`.
fn inject_random_pairs(
    fabric: &mut Fabric,
    faults: &FaultMap,
    attempts: usize,
    seed: u64,
) -> (u64, HashMap<u64, TileCoord>) {
    let mut injected = 0u64;
    let mut expected = HashMap::new();
    for (_, src, dst, choice) in schedule(faults, attempts, seed)
        .into_iter()
        .filter(|&(cycle, ..)| cycle == 0)
    {
        let id = fabric.allocate_id();
        let packet = FabricPacket::request(id, src, dst, choice, fabric.cycle());
        if fabric.inject(packet) {
            injected += 1;
            expected.insert(id, dst);
        }
    }
    (injected, expected)
}

/// The observable identity of a delivered packet, for comparisons
/// against the spec model.
fn delivery_key(p: &FabricPacket) -> (u64, TileCoord, TileCoord, PacketKind, u64, u32) {
    (p.id, p.src, p.dst, p.kind, p.injected_at, p.hops)
}

const STEPPINGS: [Stepping; 2] = [Stepping::Dense, Stepping::Wheel];

/// Requests `(cycle, src, dst, choice)` between sampled healthy pairs,
/// skipping self-pairs and disconnected ones, in injection order:
/// `attempts` samples at cycle 0, then `attempts` more spread over
/// cycles 1..=64.
fn schedule(
    faults: &FaultMap,
    attempts: usize,
    seed: u64,
) -> Vec<(u64, TileCoord, TileCoord, NetworkChoice)> {
    use rand::RngExt as _;
    let planner = RoutePlanner::new(faults.clone());
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    let mut rng = wsp_common::seeded_rng(seed);
    let mut requests = Vec::new();
    for i in 0..2 * attempts {
        let cycle = if i < attempts {
            0
        } else {
            rng.random_range(1..=64)
        };
        let src = healthy[rng.random_range(0..healthy.len())];
        let dst = healthy[rng.random_range(0..healthy.len())];
        let choice = planner.choose(src, dst);
        if src != dst && choice != NetworkChoice::Disconnected {
            requests.push((cycle, src, dst, choice));
        }
    }
    requests.sort_by_key(|&(cycle, ..)| cycle);
    requests
}

/// Runs the same traffic through [`SpecFabric`] and an engine per
/// stepping. Requests are injected at their scheduled cycle, and every
/// delivered request is answered with an `inject_unbounded` response, as
/// `NocSim` does. Each tick, every engine must deliver exactly what the
/// model delivers, in order, and pass [`Fabric::check_invariants`]; at
/// drain the cycle, the traversal, relay and stall totals and every
/// link's counters must match, and the arenas must be empty.
fn replay_against_spec(
    array: TileArray,
    fault_count: usize,
    queue_capacity: usize,
    attempts: usize,
    seed: u64,
) -> TestCaseResult {
    let mut rng = wsp_common::seeded_rng(seed.wrapping_mul(17).wrapping_add(3));
    let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
    if faults.healthy_count() < 2 {
        return Ok(());
    }
    let requests = schedule(&faults, attempts, seed);

    let mut spec = SpecFabric::new(array, queue_capacity);
    let mut engines = STEPPINGS.map(|stepping| {
        let mut fabric = Fabric::new(array, queue_capacity);
        fabric.set_stepping(stepping);
        fabric
    });
    let mut batch = Vec::new();
    let mut next = 0;
    let mut idle = 0;
    while next < requests.len() || spec.in_flight() > 0 {
        while let Some(&(_, src, dst, choice)) = requests
            .get(next)
            .filter(|&&(cycle, ..)| cycle <= spec.cycle())
        {
            let packet = FabricPacket::request(next as u64, src, dst, choice, spec.cycle());
            let accepted = spec.inject(packet);
            for engine in &mut engines {
                prop_assert_eq!(engine.inject(packet), accepted);
            }
            next += 1;
        }
        let expected = spec.tick();
        let keys: Vec<_> = expected.iter().map(delivery_key).collect();
        for (engine, stepping) in engines.iter_mut().zip(STEPPINGS) {
            engine.tick_into(&mut batch);
            prop_assert_eq!(engine.check_invariants(), Ok(()), "{:?}", stepping);
            let got: Vec<_> = batch.iter().map(delivery_key).collect();
            prop_assert_eq!(&got, &keys, "{:?} at cycle {}", stepping, spec.cycle());
        }
        for request in expected.iter().filter(|p| p.kind == PacketKind::Request) {
            let response = FabricPacket::response(request);
            spec.inject_unbounded(response);
            for engine in &mut engines {
                engine.inject_unbounded(response);
            }
        }
        idle = if expected.is_empty() { idle + 1 } else { 0 };
        prop_assert!(idle < 10_000, "fabric failed to drain");
    }
    for (engine, stepping) in engines.iter().zip(STEPPINGS) {
        prop_assert_eq!(engine.in_flight(), 0, "{:?}", stepping);
        prop_assert_eq!(engine.arena_live(), 0, "{:?}", stepping);
        prop_assert_eq!(engine.cycle(), spec.cycle(), "{:?}", stepping);
        prop_assert_eq!(engine.link_traversals(), spec.link_traversals());
        prop_assert_eq!(engine.relay_forwards(), spec.relay_forwards());
        prop_assert_eq!(engine.total_stall_cycles(), spec.total_stall_cycles());
        for net in [NetworkKind::Xy, NetworkKind::Yx] {
            for tile in array.tiles() {
                for (d, dir) in DIRECTIONS.into_iter().enumerate() {
                    prop_assert_eq!(
                        engine.link_stats(net, tile, dir),
                        spec.link_stats(net, tile, d),
                        "{:?} {:?} link {:?} {:?}",
                        stepping,
                        net,
                        tile,
                        dir
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    /// Every packet accepted by `inject` is either still in flight or
    /// has been delivered — at every intermediate cycle and at drain.
    #[test]
    fn packets_are_conserved(
        cols in 2u16..7,
        rows in 2u16..7,
        fault_count in 0usize..4,
        attempts in 1usize..48,
        seed in 0u64..1000,
    ) {
        let array = TileArray::new(cols, rows);
        let mut rng = wsp_common::seeded_rng(seed.wrapping_mul(31).wrapping_add(7));
        let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
        if faults.healthy_count() < 2 {
            return Ok(());
        }
        let mut fabric = Fabric::new(array, 4);
        let (injected, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed);

        let mut delivered = 0u64;
        for _ in 0..3 {
            delivered += fabric.tick().len() as u64;
            prop_assert_eq!(delivered + fabric.in_flight() as u64, injected);
        }
        delivered += fabric.drain().len() as u64;
        prop_assert_eq!(delivered, injected);
        prop_assert_eq!(fabric.in_flight(), 0);
    }

    /// Delivered packets surface at the destination they were addressed
    /// to, exactly once.
    #[test]
    fn deliveries_arrive_at_their_destination(
        cols in 2u16..7,
        rows in 2u16..7,
        attempts in 1usize..48,
        seed in 0u64..1000,
    ) {
        let array = TileArray::new(cols, rows);
        let faults = FaultMap::none(array);
        let mut fabric = Fabric::new(array, 4);
        let (injected, mut expected) = inject_random_pairs(&mut fabric, &faults, attempts, seed);
        let delivered = fabric.drain();
        prop_assert_eq!(delivered.len() as u64, injected);
        for packet in delivered {
            let dst = expected.remove(&packet.id);
            prop_assert_eq!(dst, Some(packet.dst));
        }
        prop_assert!(expected.is_empty());
    }

    /// Pairs the kernel marks `Disconnected` never yield a delivery: the
    /// traffic layer refuses them at injection (`undeliverable`), and
    /// every request that does enter the fabric completes its round
    /// trip, so injected = responses at the end of a drained run.
    #[test]
    fn disconnected_pairs_never_deliver(
        fault_count in 1usize..6,
        seed in 0u64..500,
    ) {
        let array = TileArray::new(6, 6);
        let mut rng = wsp_common::seeded_rng(seed.wrapping_add(99));
        let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
        if faults.healthy_count() < 2 {
            return Ok(());
        }
        let mut sim = NocSim::new(faults, SimConfig::default());
        let report = sim.run(TrafficPattern::UniformRandom, 50, &mut rng);
        prop_assert_eq!(report.in_flight_at_end, 0);
        prop_assert_eq!(report.responses_delivered, report.requests_injected);
    }

    /// The same seed replays the same run bit for bit — fabric state is
    /// fully deterministic.
    #[test]
    fn replay_is_deterministic(
        seed in any::<u64>(),
        fault_count in 0usize..5,
    ) {
        let array = TileArray::new(8, 8);
        let run = || {
            let mut rng = wsp_common::seeded_rng(seed);
            let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
            let target = faults
                .healthy_tiles()
                .next()
                .expect("an 8x8 array with at most 4 faults has healthy tiles");
            let mut sim = NocSim::new(faults, SimConfig::default());
            sim.run(TrafficPattern::HotSpot { target }, 100, &mut rng)
        };
        prop_assert_eq!(run(), run());
    }

    /// Both steppings replay the spec model tick for tick at any FIFO
    /// depth (depth 1 forces ring wrap-around on every push/pop pair),
    /// under any fault map, with relays, spread-out requests and
    /// responses; see [`replay_against_spec`].
    #[test]
    fn steppings_replay_the_spec_model(
        cols in 2u16..7,
        rows in 2u16..7,
        fault_count in 0usize..4,
        queue_capacity in 1usize..5,
        attempts in 1usize..48,
        seed in 0u64..500,
    ) {
        replay_against_spec(
            TileArray::new(cols, rows),
            fault_count,
            queue_capacity,
            attempts,
            seed,
        )?;
    }

    /// Repeated identical waves through a drained fabric recycle arena
    /// slots instead of growing the columns: after the second wave the
    /// arena footprint is pinned, at every ring capacity and stepping.
    #[test]
    fn drained_waves_recycle_arena_slots(
        queue_capacity in 1usize..4,
        attempts in 1usize..32,
        seed in 0u64..500,
        stepping_idx in 0usize..STEPPINGS.len(),
    ) {
        let array = TileArray::new(6, 6);
        let faults = FaultMap::none(array);
        let mut fabric = Fabric::new(array, queue_capacity);
        fabric.set_stepping(STEPPINGS[stepping_idx]);

        let mut footprints = Vec::new();
        for _ in 0..4 {
            let (injected, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed);
            let delivered = fabric.drain();
            prop_assert_eq!(delivered.len() as u64, injected);
            prop_assert_eq!(fabric.arena_live(), 0);
            footprints.push(fabric.arena_slots());
        }
        // The first wave may grow the columns while the free list is
        // empty; identical later waves must fit in recycled slots.
        prop_assert_eq!(footprints[1], footprints[2]);
        prop_assert_eq!(footprints[2], footprints[3]);
    }

    /// A drained fabric is inert: once its occupancy bitsets empty out,
    /// extra ticks deliver nothing and traverse no links, and the fabric
    /// still accepts and completes a fresh wave afterwards (the emptied
    /// bitsets must not wedge the executor).
    #[test]
    fn drain_to_empty_prunes_wakes_without_wedging(
        queue_capacity in 1usize..4,
        attempts in 1usize..32,
        seed in 0u64..500,
        stepping_idx in 0usize..STEPPINGS.len(),
    ) {
        let array = TileArray::new(5, 5);
        let faults = FaultMap::none(array);
        let mut fabric = Fabric::new(array, queue_capacity);
        fabric.set_stepping(STEPPINGS[stepping_idx]);

        let (injected, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed);
        let delivered = fabric.drain().len() as u64;
        prop_assert_eq!(delivered, injected);

        let traversals = fabric.link_traversals();
        let mut batch = Vec::new();
        for _ in 0..5 {
            fabric.tick_into(&mut batch);
            prop_assert!(batch.is_empty());
        }
        prop_assert_eq!(fabric.link_traversals(), traversals);
        prop_assert_eq!(fabric.in_flight(), 0);

        let (again, _) = inject_random_pairs(&mut fabric, &faults, attempts, seed ^ 0xabcd);
        prop_assert_eq!(fabric.drain().len() as u64, again);
        prop_assert_eq!(fabric.arena_live(), 0);
    }
}

/// The same replay on arrays wider than one 64-bit occupancy word, so
/// words span rows: widths 63, 64, 65 and 129 with 1–3 rows. Traffic
/// scales with the tile count.
#[test]
fn steppings_replay_the_spec_model_on_wide_arrays() {
    let mut case = 0u64;
    for cols in [63u16, 64, 65, 129] {
        for rows in 1u16..=3 {
            case += 1;
            let array = TileArray::new(cols, rows);
            let fault_count = (case % 3) as usize;
            let queue_capacity = 1 + (case % 4) as usize;
            let attempts = 2 * array.tile_count();
            if let Err(err) =
                replay_against_spec(array, fault_count, queue_capacity, attempts, case)
            {
                panic!("{cols}x{rows}: {err}");
            }
        }
    }
}
