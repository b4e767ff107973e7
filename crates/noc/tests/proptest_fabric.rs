//! Property tests for the [`wsp_noc::Fabric`] engine: packet
//! conservation, destination correctness, exclusion of disconnected
//! pairs, deterministic replay of the traffic simulator, and the
//! arena/ring-buffer invariants of the data-oriented hot loop —
//! wrap-around at tiny FIFO capacities, [`Fabric::check_invariants`]
//! after every tick, arrays wider than one occupancy word, drain to
//! empty, and slot recycling, swept across fault-map × stepping ×
//! threads.

use std::collections::HashMap;

use proptest::prelude::*;
use wsp_common::parallel::Stepping;
use wsp_noc::{
    Fabric, FabricPacket, NetworkChoice, NocSim, RoutePlanner, SimConfig, TrafficPattern,
};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// Injects one request per sampled healthy pair into `fabric`, skipping
/// disconnected ones, and returns `(injected_count, id → dst)`.
fn inject_random_pairs(
    fabric: &mut Fabric,
    faults: &FaultMap,
    attempts: usize,
    seed: u64,
) -> (u64, HashMap<u64, TileCoord>) {
    let planner = RoutePlanner::new(faults.clone());
    let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
    let mut rng = wsp_common::seeded_rng(seed);
    let mut injected = 0u64;
    let mut expected = HashMap::new();
    for _ in 0..attempts {
        use rand::RngExt as _;
        let src = healthy[rng.random_range(0..healthy.len())];
        let dst = healthy[rng.random_range(0..healthy.len())];
        if src == dst {
            continue;
        }
        let choice = planner.choose(src, dst);
        if choice == NetworkChoice::Disconnected {
            continue;
        }
        let id = fabric.allocate_id();
        let packet = FabricPacket::request(id, src, dst, choice, fabric.cycle());
        if fabric.inject(packet) {
            injected += 1;
            expected.insert(id, dst);
        }
    }
    (injected, expected)
}

/// The observable identity of a delivered packet, for bit-identity
/// comparisons across executor configurations.
fn delivery_key(p: &FabricPacket) -> (u64, TileCoord, TileCoord, u64, u32) {
    (p.id, p.src, p.dst, p.injected_at, p.hops)
}

const STEPPINGS: [Stepping; 2] = [Stepping::Dense, Stepping::Wheel];

/// Injects the same random pairs into a dense single-thread reference
/// and a `{stepping, threads}` variant, then checks that the variant
/// replays the reference bit for bit — same deliveries in the same
/// order each cycle, same link traversals — with both fabrics passing
/// [`Fabric::check_invariants`] after every tick, and that both drain
/// to an empty arena.
#[allow(clippy::too_many_arguments)]
fn replay_against_dense(
    array: TileArray,
    fault_count: usize,
    queue_capacity: usize,
    attempts: usize,
    seed: u64,
    stepping: Stepping,
    threads: usize,
) -> TestCaseResult {
    let mut rng = wsp_common::seeded_rng(seed.wrapping_mul(17).wrapping_add(3));
    let faults = FaultMap::sample_uniform(array, fault_count, &mut rng);
    if faults.healthy_count() < 2 {
        return Ok(());
    }

    let mut reference = Fabric::new(array, queue_capacity);
    reference.set_stepping(Stepping::Dense);
    let mut variant = Fabric::new(array, queue_capacity);
    variant.set_stepping(stepping);
    variant.set_threads(threads);

    let (injected_ref, _) = inject_random_pairs(&mut reference, &faults, attempts, seed);
    let (injected_var, _) = inject_random_pairs(&mut variant, &faults, attempts, seed);
    prop_assert_eq!(injected_ref, injected_var);
    prop_assert_eq!(variant.check_invariants(), Ok(()));

    let mut batch_ref = Vec::new();
    let mut batch_var = Vec::new();
    let mut idle = 0;
    while reference.in_flight() > 0 || variant.in_flight() > 0 {
        reference.tick_into(&mut batch_ref);
        variant.tick_into(&mut batch_var);
        prop_assert_eq!(reference.check_invariants(), Ok(()));
        prop_assert_eq!(variant.check_invariants(), Ok(()));
        let keys_ref: Vec<_> = batch_ref.iter().map(delivery_key).collect();
        let keys_var: Vec<_> = batch_var.iter().map(delivery_key).collect();
        prop_assert_eq!(keys_ref, keys_var);
        idle = if batch_ref.is_empty() { idle + 1 } else { 0 };
        prop_assert!(idle < 10_000, "fabric failed to drain");
    }
    prop_assert_eq!(reference.cycle(), variant.cycle());
    prop_assert_eq!(reference.link_traversals(), variant.link_traversals());
    prop_assert_eq!(reference.total_stall_cycles(), variant.total_stall_cycles());

    // Drain-to-empty returns every arena slot on both fabrics.
    prop_assert_eq!(reference.arena_live(), 0);
    prop_assert_eq!(variant.arena_live(), 0);
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

    /// Every `{stepping, threads}` executor configuration replays the
    /// dense single-thread reference bit for bit at any ring capacity
    /// (capacity 1 forces wrap-around on every push/pop pair), under any
    /// fault map; see [`replay_against_dense`].
    #[test]
    fn executor_axes_replay_the_dense_reference(
        cols in 2u16..7,
        rows in 2u16..7,
        fault_count in 0usize..4,
        queue_capacity in 1usize..5,
        attempts in 1usize..48,
        seed in 0u64..500,
        stepping_idx in 0usize..STEPPINGS.len(),
        threads in 1usize..5,
    ) {
        replay_against_dense(
            TileArray::new(cols, rows),
            fault_count,
            queue_capacity,
            attempts,
            seed,
            STEPPINGS[stepping_idx],
            threads,
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
        threads in 1usize..3,
    ) {
        let array = TileArray::new(5, 5);
        let faults = FaultMap::none(array);
        let mut fabric = Fabric::new(array, queue_capacity);
        fabric.set_stepping(STEPPINGS[stepping_idx]);
        fabric.set_threads(threads);

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
/// words span rows and plan bands end inside a word: widths 63, 64, 65
/// and 129 with 1–3 rows, both steppings, threads {1, 2, 8}. Traffic
/// scales with the tile count, so the wheel's active set crosses the
/// two-thread banding threshold on the larger arrays.
#[test]
fn executor_axes_replay_the_dense_reference_on_wide_arrays() {
    let mut case = 0u64;
    for cols in [63u16, 64, 65, 129] {
        for rows in 1u16..=3 {
            let array = TileArray::new(cols, rows);
            for stepping in STEPPINGS {
                for threads in [1, 2, 8] {
                    case += 1;
                    let fault_count = (case % 3) as usize;
                    let queue_capacity = 1 + (case % 4) as usize;
                    let attempts = 2 * array.tile_count();
                    if let Err(err) = replay_against_dense(
                        array,
                        fault_count,
                        queue_capacity,
                        attempts,
                        case,
                        stepping,
                        threads,
                    ) {
                        panic!("{cols}x{rows} {stepping:?} threads {threads}: {err}");
                    }
                }
            }
        }
    }
}
