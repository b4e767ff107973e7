//! Regression tests pinning the zero-allocation steady state of the
//! fabric hot loop and of the traffic simulator driving it.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (arena free list populated, rings grown to their working
//! depth, scratch buffers at their high-water mark) a measured window of
//! inject → tick → deliver rounds must perform **zero** heap allocations.
//! Integration tests are separate binaries, so the wrapper allocator is
//! confined to this file and cannot slow the rest of the suite. Counts
//! are per thread, so tests running in parallel (and the harness's own
//! reporting) cannot pollute each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsp_noc::{
    Fabric, FabricPacket, NetworkChoice, NetworkKind, NocSim, SimConfig, TrafficPattern,
};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// System allocator wrapper that counts every allocation-path call.
/// Frees are deliberately not counted: handing memory back is harmless;
/// acquiring it in the hot loop is the regression this test pins.
struct CountingAlloc;

thread_local! {
    /// Allocation-path calls made by this thread. Const-initialised and
    /// drop-free, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation-path calls made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One wave of neighbour-east requests: every tile with an eastern
/// neighbour sends one packet to it. Exercises injection, link FIFOs,
/// arbitration, and delivery every round.
fn inject_wave(fabric: &mut Fabric, cols: u16, rows: u16) -> u64 {
    let mut injected = 0;
    for y in 0..rows {
        for x in 0..cols - 1 {
            let src = TileCoord::new(x, y);
            let dst = TileCoord::new(x + 1, y);
            let id = fabric.allocate_id();
            let packet = FabricPacket::request(
                id,
                src,
                dst,
                NetworkChoice::Direct(NetworkKind::Xy),
                fabric.cycle(),
            );
            if fabric.inject(packet) {
                injected += 1;
            }
        }
    }
    injected
}

/// Ticks until the fabric is empty, reusing `delivered`; returns the
/// number of packets that surfaced.
fn drain_into(fabric: &mut Fabric, delivered: &mut Vec<FabricPacket>) -> u64 {
    let mut total = 0;
    while fabric.in_flight() > 0 {
        fabric.tick_into(delivered);
        total += delivered.len() as u64;
    }
    total
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    const COLS: u16 = 16;
    const ROWS: u16 = 16;
    let array = TileArray::new(COLS, ROWS);
    let mut fabric = Fabric::new(array, 4);
    let mut delivered = Vec::new();

    // Warm-up: grow every reusable buffer to its steady-state footprint —
    // the arena columns and free list, ring capacities, scratch vectors,
    // and the caller-side delivery buffer.
    let mut warmed = 0;
    for _ in 0..60 {
        warmed += inject_wave(&mut fabric, COLS, ROWS);
        fabric.tick_into(&mut delivered);
        warmed -= delivered.len() as u64;
    }
    warmed -= drain_into(&mut fabric, &mut delivered);
    assert_eq!(warmed, 0, "warm-up traffic fully drained");
    assert_eq!(fabric.arena_live(), 0);
    let footprint = fabric.arena_slots();
    assert!(footprint > 0, "warm-up populated the arena");

    // Measured window: the same traffic shape must fit entirely inside
    // the warmed buffers.
    let before = allocs();
    let mut moved = 0;
    for _ in 0..40 {
        moved += inject_wave(&mut fabric, COLS, ROWS);
        fabric.tick_into(&mut delivered);
    }
    let drained = drain_into(&mut fabric, &mut delivered);
    let after = allocs();

    assert!(moved > 0, "measured window injected traffic");
    assert!(drained > 0, "measured window delivered traffic");
    assert_eq!(
        after - before,
        0,
        "steady-state fabric ticks must not touch the heap"
    );
    assert_eq!(
        fabric.arena_slots(),
        footprint,
        "steady-state traffic reuses warm arena slots instead of growing"
    );
}

#[test]
fn steady_state_traffic_runs_allocate_only_the_report() {
    let mut sim = NocSim::new(FaultMap::none(TileArray::new(8, 8)), SimConfig::default());
    let mut rng = wsp_common::seeded_rng(7);
    // Warm-up: grow the arena, the rings, the pending-response queue and
    // the per-step buffers to their working depth.
    sim.run(TrafficPattern::UniformRandom, 4000, &mut rng);

    for warm in [500, 2000] {
        let before = allocs();
        let report = sim.run(TrafficPattern::UniformRandom, warm, &mut rng);
        let made = allocs() - before;
        assert!(report.responses_delivered > 0, "warm = {warm}: traffic ran");
        // The returned report clones the latency histogram; nothing
        // else may allocate, however long the run.
        assert!(made <= 4, "warm = {warm}: {made} allocations");
    }
}
