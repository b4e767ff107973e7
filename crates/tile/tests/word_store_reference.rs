//! Reference-model test of the lazily paged word storage behind
//! [`MemoryChiplet`] and [`CoreSim`]'s private SRAM.
//!
//! A flat, eagerly zeroed `Vec<u32>` plus the alignment and range rules
//! written out directly is the oracle. Seeded random read/write sequences
//! drive both sides with the same offsets — weighted towards the edges
//! that matter (offset 0, the 512 KiB global/local boundary, the last
//! word, page boundaries, misaligned and out-of-range addresses) — and
//! every returned value and every error must match.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use wsp_tile::memory::{GLOBAL_REGION_BYTES, TOTAL_BYTES};
use wsp_tile::{AccessMemoryError, CoreSim, MemoryChiplet, PRIVATE_SRAM_BYTES};

/// The eager model: every byte allocated and zeroed up front.
struct FlatMemory {
    words: Vec<u32>,
}

impl FlatMemory {
    fn new(bytes: usize) -> Self {
        FlatMemory {
            words: vec![0; bytes / 4],
        }
    }

    fn index(&self, addr: u32) -> Result<usize, AccessMemoryError> {
        if !addr.is_multiple_of(4) {
            Err(AccessMemoryError::Misaligned { addr })
        } else if u64::from(addr) + 4 > 4 * self.words.len() as u64 {
            Err(AccessMemoryError::OutOfRange { addr })
        } else {
            Ok(addr as usize / 4)
        }
    }

    fn read(&self, addr: u32) -> Result<u32, AccessMemoryError> {
        self.index(addr).map(|i| self.words[i])
    }

    fn write(&mut self, addr: u32, value: u32) -> Result<(), AccessMemoryError> {
        let i = self.index(addr)?;
        self.words[i] = value;
        Ok(())
    }
}

/// Offsets a sequence draws from: the named edges of a `bytes`-sized
/// store, page edges, and random addresses in and out of range.
fn draw_offset(rng: &mut StdRng, bytes: u32, edges: &[u32]) -> u32 {
    match rng.random_range(0..10u32) {
        0..=2 => edges[rng.random_range(0..edges.len())],
        3 => {
            // Either side of a 4 KiB page boundary.
            let page = rng.random_range(0..=bytes / 4096) * 4096;
            page.wrapping_add_signed(rng.random_range(-8..8i32))
        }
        4 => rng.random::<u32>(),
        // A small pool of aligned words, so reads often hit earlier writes.
        5..=6 => rng.random_range(0..64u32) * (bytes / 64),
        _ => rng.random_range(0..bytes),
    }
}

/// Drives the store behind `read`/`write` and the flat oracle with the
/// same seeded sequence.
fn check_against_flat<R, W>(seed: u64, bytes: usize, edges: &[u32], mut read: R, mut write: W)
where
    R: FnMut(u32) -> Result<u32, AccessMemoryError>,
    W: FnMut(u32, u32) -> Result<(), AccessMemoryError>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = FlatMemory::new(bytes);
    for step in 0..20_000 {
        let addr = draw_offset(&mut rng, bytes as u32, edges);
        if rng.random_bool(0.5) {
            // Zero writes matter: they materialise pages that must still
            // read back exactly like untouched ones.
            let value = if rng.random_bool(0.25) {
                0
            } else {
                rng.random::<u32>()
            };
            assert_eq!(
                write(addr, value),
                flat.write(addr, value),
                "seed {seed} step {step}: write {addr:#x}"
            );
        } else {
            assert_eq!(
                read(addr),
                flat.read(addr),
                "seed {seed} step {step}: read {addr:#x}"
            );
        }
    }
    // Final sweep: every edge and every aligned word agrees.
    for &addr in edges {
        assert_eq!(read(addr), flat.read(addr), "seed {seed}: edge {addr:#x}");
    }
    for addr in (0..bytes as u32).step_by(4) {
        assert_eq!(read(addr), flat.read(addr), "seed {seed}: sweep {addr:#x}");
    }
}

/// Misaligned and out-of-range offsets common to both stores.
fn bad_edges(bytes: u32) -> Vec<u32> {
    vec![
        1,
        2,
        3,
        bytes - 3,
        bytes - 1,
        bytes,
        bytes + 4,
        u32::MAX - 3,
        u32::MAX,
    ]
}

#[test]
fn memory_chiplet_matches_a_flat_reference() {
    let total = TOTAL_BYTES as u32;
    let boundary = GLOBAL_REGION_BYTES as u32;
    let mut edges = vec![0, boundary - 4, boundary, boundary + 2, total - 4];
    edges.extend(bad_edges(total));
    for seed in [1, 2021, 0xC0FFEE] {
        let chiplet = std::cell::RefCell::new(MemoryChiplet::new());
        check_against_flat(
            seed,
            TOTAL_BYTES,
            &edges,
            |addr| chiplet.borrow().read_word(addr),
            |addr, value| chiplet.borrow_mut().write_word(addr, value),
        );
    }
}

#[test]
fn core_private_sram_matches_a_flat_reference() {
    let total = PRIVATE_SRAM_BYTES as u32;
    let mut edges = vec![0, total - 4];
    edges.extend(bad_edges(total));
    for seed in [1, 2021, 0xC0FFEE] {
        let core = std::cell::RefCell::new(CoreSim::new());
        check_against_flat(
            seed,
            PRIVATE_SRAM_BYTES,
            &edges,
            |addr| core.borrow().read_private_word(addr),
            |addr, value| core.borrow_mut().write_private_word(addr, value),
        );
    }
}
