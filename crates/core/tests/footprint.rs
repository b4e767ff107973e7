//! Regression test pinning the host memory footprint of a machine.
//!
//! Tile SRAM — 14 × 64 KiB private per core plus the 640 KiB memory
//! chiplet, ~1.5 GiB over a 32×32 wafer — is zero-initialised storage
//! that materialises 4 KiB pages on first write. A counting
//! `#[global_allocator]` checks that building a machine allocates almost
//! none of it, that reading an unwritten word allocates nothing, and that
//! the first write into a page allocates exactly that page. Counters are
//! per thread, so tests running in parallel cannot disturb each other,
//! and integration tests are separate binaries, so the wrapper allocator
//! is confined to this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use waferscale::{MultiTileMachine, SystemConfig};
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// System allocator wrapper that counts, per thread, every
/// allocation-path call and the bytes it requested. Frees are not
/// counted: the test bounds what a machine acquires.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the `(allocations, bytes)` it
/// made on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = (ALLOCS.get(), BYTES.get());
    let out = f();
    (out, ALLOCS.get() - allocs, BYTES.get() - bytes)
}

fn small_machine() -> MultiTileMachine {
    let cfg = SystemConfig::with_array(TileArray::new(2, 2));
    MultiTileMachine::new(cfg, FaultMap::none(cfg.array()))
}

#[test]
fn full_wafer_machine_allocates_under_64_mib() {
    let cfg = SystemConfig::paper_prototype();
    let (_machine, _, bytes) = measure(|| MultiTileMachine::new(cfg, FaultMap::none(cfg.array())));
    // Eagerly zeroed SRAM alone would be 1024 × (14 × 64 KiB + 640 KiB).
    assert!(
        bytes < 64 << 20,
        "32×32 machine allocated {} MiB",
        bytes >> 20
    );
}

#[test]
fn reading_an_unwritten_word_allocates_nothing() {
    let machine = small_machine();
    let addr = machine
        .global_address(TileCoord::new(1, 1), 0x40)
        .expect("mapped");
    let (value, allocs, _) = measure(|| machine.read_word(addr).expect("read"));
    assert_eq!(value, 0, "unwritten SRAM reads as zero");
    assert_eq!(allocs, 0, "a read must not materialise a page");
}

#[test]
fn first_write_into_a_page_allocates_exactly_that_page() {
    let mut machine = small_machine();
    let addr = machine
        .global_address(TileCoord::new(1, 0), 0x2000)
        .expect("mapped");
    let (_, allocs, bytes) = measure(|| machine.write_word(addr, 7).expect("write"));
    assert_eq!((allocs, bytes), (1, 4096), "one 4 KiB page");
    // Further writes into the same page reuse it.
    let (_, allocs, _) = measure(|| machine.write_word(addr + 4, 8).expect("write"));
    assert_eq!(allocs, 0);
    assert_eq!(machine.read_word(addr).expect("read"), 7);
    assert_eq!(machine.read_word(addr + 4).expect("read"), 8);
}
