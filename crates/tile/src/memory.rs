//! The memory chiplet: five 128 KB SRAM banks (Sec. II).
//!
//! Four banks are mapped into the global shared address space (words
//! interleaved across them so streaming accesses hit all four in
//! parallel); the fifth is reachable only by this tile's cores and
//! routers. Each bank has one port — one word per bank per cycle — which
//! is the per-tile term of Table I's 6.144 TB/s aggregate shared-memory
//! bandwidth.

use std::error::Error;
use std::fmt;

use crate::core::BusAccess;
use crate::memory_model::{MemTiming, MemoryModel};

/// Number of SRAM banks on the memory chiplet.
pub const BANK_COUNT: usize = 5;

/// Bytes per bank (128 KB).
pub const BANK_BYTES: usize = 128 * 1024;

/// Number of banks in the global shared address space.
pub const GLOBAL_BANKS: usize = 4;

/// Size of the globally addressable region of one tile (4 × 128 KB).
pub const GLOBAL_REGION_BYTES: usize = GLOBAL_BANKS * BANK_BYTES;

/// Total capacity of the memory chiplet (640 KB).
pub const TOTAL_BYTES: usize = BANK_COUNT * BANK_BYTES;

/// Bytes per SRAM row (the row-buffer granule of the banked timing
/// model): 2 KiB, i.e. 512 words and 64 rows per 128 KB bank.
pub const ROW_BYTES: usize = 2048;

/// The bank a tile-local offset maps to, as pure offset arithmetic:
/// global offsets word-interleave across banks 0–3, local offsets go to
/// bank 4.
///
/// The mapping depends only on the address, so an issuing tile can
/// validate an access to a *remote* tile's banks before it sends the
/// request, without touching the owner's memory instance.
///
/// # Errors
///
/// Returns an error for misaligned or out-of-range offsets.
pub fn bank_of_offset(offset: u32) -> Result<usize, AccessMemoryError> {
    bank_row_of_offset(offset).map(|(bank, _)| bank)
}

/// Maps an offset to `(bank, row-within-bank)` for row-buffer timing
/// models. The row index is the byte-within-bank address divided by
/// [`ROW_BYTES`], so word-interleaved streaming walks each global
/// bank's rows in lockstep.
///
/// # Errors
///
/// Returns an error for misaligned or out-of-range offsets.
pub fn bank_row_of_offset(offset: u32) -> Result<(usize, u32), AccessMemoryError> {
    const GLOBAL_WORDS: usize = GLOBAL_REGION_BYTES / 4;
    let word = locate(offset)?;
    let (bank, byte) = if word < GLOBAL_WORDS {
        (word % GLOBAL_BANKS, (word / GLOBAL_BANKS) * 4)
    } else {
        (GLOBAL_BANKS, (word - GLOBAL_WORDS) * 4)
    };
    Ok((bank, (byte / ROW_BYTES) as u32))
}

/// Validates an offset and returns its word index within the chiplet.
fn locate(offset: u32) -> Result<usize, AccessMemoryError> {
    if !offset.is_multiple_of(4) {
        return Err(AccessMemoryError::Misaligned { addr: offset });
    }
    if offset as usize + 4 > TOTAL_BYTES {
        return Err(AccessMemoryError::OutOfRange { addr: offset });
    }
    Ok(offset as usize / 4)
}

/// Words per page of a [`WordStore`] (4 KiB).
const PAGE_WORDS: usize = 1024;

/// Zero-initialised word storage that materialises a 4 KiB page on the
/// first write into it. A word in a page never written reads 0, which is
/// exactly what zero-initialised SRAM holds, so untouched memory costs
/// one null pointer per page instead of its bytes.
///
/// Callers validate word indices; equality compares contents, so an
/// absent page equals a page of zeros.
#[derive(Debug, Clone)]
pub(crate) struct WordStore {
    pages: Vec<Option<Box<[u32; PAGE_WORDS]>>>,
}

impl WordStore {
    /// A zeroed store of `bytes` bytes (a whole number of pages).
    pub(crate) fn new(bytes: usize) -> Self {
        debug_assert!(bytes.is_multiple_of(4 * PAGE_WORDS));
        WordStore {
            pages: vec![None; bytes / (4 * PAGE_WORDS)],
        }
    }

    /// The word at index `word`.
    #[inline]
    pub(crate) fn read(&self, word: usize) -> u32 {
        self.pages[word / PAGE_WORDS]
            .as_ref()
            .map_or(0, |page| page[word % PAGE_WORDS])
    }

    /// Sets the word at index `word`, materialising its page if needed.
    #[inline]
    pub(crate) fn write(&mut self, word: usize, value: u32) {
        let page = self.pages[word / PAGE_WORDS].get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        page[word % PAGE_WORDS] = value;
    }
}

impl PartialEq for WordStore {
    fn eq(&self, other: &Self) -> bool {
        self.pages.len() == other.pages.len()
            && (0..self.pages.len() * PAGE_WORDS).all(|w| self.read(w) == other.read(w))
    }
}

impl Eq for WordStore {}

/// Memory-access failure modes shared by the tile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMemoryError {
    /// Address not 4-byte aligned.
    Misaligned {
        /// The offending byte address.
        addr: u32,
    },
    /// Address outside the addressable region.
    OutOfRange {
        /// The offending byte address.
        addr: u32,
    },
}

impl fmt::Display for AccessMemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessMemoryError::Misaligned { addr } => {
                write!(f, "address {addr:#x} is not word aligned")
            }
            AccessMemoryError::OutOfRange { addr } => {
                write!(f, "address {addr:#x} outside addressable memory")
            }
        }
    }
}

impl Error for AccessMemoryError {}

/// The five-bank memory chiplet of one tile.
///
/// Offsets `0..512 KiB` address the four global banks (word-interleaved);
/// offsets `512..640 KiB` address the tile-local bank.
///
/// # Examples
///
/// ```
/// use wsp_tile::MemoryChiplet;
///
/// let mut mem = MemoryChiplet::new();
/// mem.write_word(0x40, 123)?;
/// assert_eq!(mem.read_word(0x40)?, 123);
/// # Ok::<(), wsp_tile::AccessMemoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryChiplet {
    words: WordStore,
}

impl MemoryChiplet {
    /// Creates a zero-initialised memory chiplet.
    pub fn new() -> Self {
        MemoryChiplet {
            words: WordStore::new(TOTAL_BYTES),
        }
    }

    /// Reads a word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range offsets.
    pub fn read_word(&self, offset: u32) -> Result<u32, AccessMemoryError> {
        Ok(self.words.read(locate(offset)?))
    }

    /// Writes a word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns an error for misaligned or out-of-range offsets.
    pub fn write_word(&mut self, offset: u32, value: u32) -> Result<(), AccessMemoryError> {
        self.words.write(locate(offset)?, value);
        Ok(())
    }

    /// The bank port: serves one shared-word access at `offset` in cycle
    /// `now`. The offset is validated first; then `model` is presented
    /// the access exactly once. On a grant the Load, Store or AMO
    /// performs now and the result is `(value, stall)`: the word read
    /// (the old word for an AMO, 0 for a store) and the extra cycles the
    /// issuer must absorb. A denied access returns `None` and leaves the
    /// word untouched; present it again in a later cycle.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryChiplet::read_word`]'s error for a misaligned or
    /// out-of-range offset, before the model sees the access.
    pub fn serve(
        &mut self,
        model: &mut dyn MemoryModel,
        offset: u32,
        now: u64,
        access: BusAccess,
    ) -> Result<Option<(u32, u64)>, AccessMemoryError> {
        let word = locate(offset)?;
        let MemTiming::Granted { stall } = model.request(offset, now) else {
            return Ok(None);
        };
        let value = match access {
            BusAccess::Load { .. } => self.words.read(word),
            BusAccess::Store { value, .. } => {
                self.words.write(word, value);
                0
            }
            BusAccess::AmoAdd { value, .. } => {
                // One bank grant covers the whole read-modify-write: the
                // bank port is the serialisation point.
                let old = self.words.read(word);
                self.words.write(word, old.wrapping_add(value));
                old
            }
        };
        Ok(Some((value, stall)))
    }
}

impl Default for MemoryChiplet {
    fn default() -> Self {
        MemoryChiplet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_model::{BankedRowBuffer, FixedLatency, ROW_MISS_PENALTY};
    use crate::GLOBAL_BASE;

    #[test]
    fn word_interleave_across_global_banks() {
        assert_eq!(bank_of_offset(0), Ok(0));
        assert_eq!(bank_of_offset(4), Ok(1));
        assert_eq!(bank_of_offset(8), Ok(2));
        assert_eq!(bank_of_offset(12), Ok(3));
        assert_eq!(bank_of_offset(16), Ok(0));
    }

    #[test]
    fn local_bank_region() {
        assert_eq!(bank_of_offset(GLOBAL_REGION_BYTES as u32), Ok(GLOBAL_BANKS));
        assert_eq!(bank_of_offset(TOTAL_BYTES as u32 - 4), Ok(4));
    }

    #[test]
    fn read_write_round_trip_everywhere() {
        let mut mem = MemoryChiplet::new();
        for offset in [0u32, 4, 12, 100, 524288, 655356] {
            mem.write_word(offset, offset ^ 0xABCD_1234).expect("write");
        }
        for offset in [0u32, 4, 12, 100, 524288, 655356] {
            assert_eq!(mem.read_word(offset).expect("read"), offset ^ 0xABCD_1234);
        }
    }

    #[test]
    fn interleaved_words_do_not_alias() {
        let mut mem = MemoryChiplet::new();
        for w in 0..64u32 {
            mem.write_word(w * 4, w).expect("write");
        }
        for w in 0..64u32 {
            assert_eq!(mem.read_word(w * 4).expect("read"), w);
        }
    }

    #[test]
    fn serve_denial_returns_none_and_leaves_the_word() {
        let mut mem = MemoryChiplet::new();
        let mut model = FixedLatency::new();
        mem.write_word(16, 5).expect("write");
        // Offset 0 takes bank 0's port for cycle 1; offset 16 is bank 0.
        let first = mem.serve(&mut model, 0, 1, BusAccess::Load { addr: GLOBAL_BASE });
        assert_eq!(first, Ok(Some((0, 0))));
        let store = BusAccess::Store {
            addr: GLOBAL_BASE + 16,
            value: 9,
        };
        assert_eq!(mem.serve(&mut model, 16, 1, store), Ok(None));
        assert_eq!(mem.read_word(16), Ok(5));
        assert_eq!((model.grants(), model.conflicts()), (1, 1));
        // The next cycle the same store is granted and performed.
        assert_eq!(mem.serve(&mut model, 16, 2, store), Ok(Some((0, 0))));
        assert_eq!(mem.read_word(16), Ok(9));
    }

    #[test]
    fn serve_load_returns_the_word_and_the_model_stall() {
        let mut mem = MemoryChiplet::new();
        let mut model = BankedRowBuffer::new();
        mem.write_word(8, 77).expect("write");
        // A first touch misses the closed row: the model's stall rides
        // along with the value.
        assert_eq!(
            mem.serve(
                &mut model,
                8,
                1,
                BusAccess::Load {
                    addr: GLOBAL_BASE + 8
                }
            ),
            Ok(Some((77, ROW_MISS_PENALTY)))
        );
    }

    #[test]
    fn serve_store_returns_zero() {
        let mut mem = MemoryChiplet::new();
        let mut model = FixedLatency::new();
        mem.write_word(4, 3).expect("write");
        let store = BusAccess::Store {
            addr: GLOBAL_BASE + 4,
            value: 11,
        };
        assert_eq!(mem.serve(&mut model, 4, 1, store), Ok(Some((0, 0))));
        assert_eq!(mem.read_word(4), Ok(11));
    }

    #[test]
    fn serve_amo_returns_the_old_word_and_writes_the_sum() {
        let mut mem = MemoryChiplet::new();
        let mut model = FixedLatency::new();
        let local = GLOBAL_REGION_BYTES as u32;
        mem.write_word(local, u32::MAX).expect("write");
        let amo = BusAccess::AmoAdd {
            addr: GLOBAL_BASE + local,
            value: 3,
        };
        assert_eq!(
            mem.serve(&mut model, local, 1, amo),
            Ok(Some((u32::MAX, 0)))
        );
        assert_eq!(mem.read_word(local), Ok(2)); // wraps
    }

    #[test]
    fn serve_rejects_bad_offsets_before_presenting_them() {
        let mut mem = MemoryChiplet::new();
        let mut model = FixedLatency::new();
        for offset in [2u32, TOTAL_BYTES as u32, TOTAL_BYTES as u32 + 1] {
            let amo = BusAccess::AmoAdd {
                addr: GLOBAL_BASE.wrapping_add(offset),
                value: 1,
            };
            assert_eq!(
                mem.serve(&mut model, offset, 1, amo),
                Err(mem.read_word(offset).expect_err("invalid offset")),
                "{offset:#x}"
            );
        }
        // The model never saw an access: no grant, no conflict.
        assert_eq!((model.grants(), model.conflicts()), (0, 0));
        assert_eq!(mem, MemoryChiplet::new());
    }

    #[test]
    fn equality_treats_absent_pages_as_zeros() {
        let fresh = MemoryChiplet::new();
        // Writing 0 materialises a page of zeros: still equal to fresh.
        let mut zeroed = MemoryChiplet::new();
        zeroed.write_word(0x1000, 0).expect("write");
        assert_eq!(zeroed, fresh);
        assert_eq!(fresh, zeroed);
        // A non-zero word differs; overwriting it with 0 restores equality.
        let mut overwritten = MemoryChiplet::new();
        overwritten
            .write_word(TOTAL_BYTES as u32 - 4, 7)
            .expect("write");
        assert_ne!(overwritten, fresh);
        assert_ne!(fresh, overwritten);
        overwritten
            .write_word(TOTAL_BYTES as u32 - 4, 0)
            .expect("write");
        assert_eq!(overwritten, fresh);
        assert_eq!(overwritten, zeroed);
        // Both sides materialised: pages compare word by word.
        let mut a = MemoryChiplet::new();
        let mut b = MemoryChiplet::new();
        a.write_word(8, 1).expect("write");
        b.write_word(8, 2).expect("write");
        assert_ne!(a, b);
        b.write_word(8, 1).expect("write");
        assert_eq!(a, b);
    }

    #[test]
    fn misaligned_rejected() {
        let mem = MemoryChiplet::new();
        assert_eq!(
            mem.read_word(3),
            Err(AccessMemoryError::Misaligned { addr: 3 })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mem = MemoryChiplet::new();
        assert_eq!(
            mem.write_word(TOTAL_BYTES as u32, 1),
            Err(AccessMemoryError::OutOfRange {
                addr: TOTAL_BYTES as u32
            })
        );
    }

    #[test]
    fn global_local_boundary_is_exact() {
        // The 512 KiB boundary: the last global word belongs to an
        // interleaved bank, the first local word to bank 4, and the
        // word straddling the boundary cannot exist (aligned stride).
        let last_global = GLOBAL_REGION_BYTES as u32 - 4;
        let word = (last_global / 4) as usize;
        assert_eq!(bank_of_offset(last_global), Ok(word % GLOBAL_BANKS));
        assert_eq!(bank_of_offset(GLOBAL_REGION_BYTES as u32), Ok(GLOBAL_BANKS));
        // One word below the boundary lands in the final row of its
        // global bank; one at the boundary in row 0 of the local bank.
        let (bank, row) = bank_row_of_offset(last_global).expect("ok");
        assert!(bank < GLOBAL_BANKS);
        assert_eq!(row as usize, BANK_BYTES / ROW_BYTES - 1);
        assert_eq!(
            bank_row_of_offset(GLOBAL_REGION_BYTES as u32),
            Ok((GLOBAL_BANKS, 0))
        );
    }

    #[test]
    fn last_valid_word_of_local_bank() {
        let last = TOTAL_BYTES as u32 - 4;
        assert_eq!(bank_of_offset(last), Ok(GLOBAL_BANKS));
        let (bank, row) = bank_row_of_offset(last).expect("ok");
        assert_eq!(bank, GLOBAL_BANKS);
        assert_eq!(row as usize, BANK_BYTES / ROW_BYTES - 1);
        // The very next word is the first invalid one.
        assert_eq!(
            bank_of_offset(TOTAL_BYTES as u32),
            Err(AccessMemoryError::OutOfRange {
                addr: TOTAL_BYTES as u32
            })
        );
    }

    #[test]
    fn unaligned_offsets_rejected_everywhere() {
        for offset in [1u32, 2, 3, GLOBAL_REGION_BYTES as u32 + 2, 0xFFFF_FFFD] {
            assert_eq!(
                bank_of_offset(offset),
                Err(AccessMemoryError::Misaligned { addr: offset }),
                "{offset:#x}"
            );
            assert_eq!(
                bank_row_of_offset(offset),
                Err(AccessMemoryError::Misaligned { addr: offset }),
                "{offset:#x}"
            );
        }
    }

    #[test]
    fn out_of_range_error_path_is_aligned_aware() {
        // Aligned but beyond the chiplet: OutOfRange, not Misaligned.
        for offset in [TOTAL_BYTES as u32, TOTAL_BYTES as u32 + 4, 0xFFFF_FFFC] {
            assert_eq!(
                bank_row_of_offset(offset),
                Err(AccessMemoryError::OutOfRange { addr: offset }),
                "{offset:#x}"
            );
        }
    }

    #[test]
    fn rows_advance_in_lockstep_across_interleaved_banks() {
        // Word-interleaving: 4 consecutive words hit banks 0..4, all in
        // the same row; a full row's worth of stride-4 words later, the
        // row index advances on every bank.
        for w in 0..4u32 {
            assert_eq!(bank_row_of_offset(w * 4), Ok((w as usize, 0)));
        }
        let words_per_row_group = (GLOBAL_BANKS * ROW_BYTES / 4) as u32;
        for w in 0..4u32 {
            assert_eq!(
                bank_row_of_offset((words_per_row_group + w) * 4),
                Ok((w as usize, 1))
            );
        }
    }

    #[test]
    fn capacity_constants_match_table1() {
        // 5 banks × 128 KB = 640 KB per tile; 4 banks (512 KB) global.
        assert_eq!(TOTAL_BYTES, 640 * 1024);
        assert_eq!(GLOBAL_REGION_BYTES, 512 * 1024);
        // Whole wafer: 1024 tiles × 512 KB global = 512 MB (Table I).
        assert_eq!(1024 * GLOBAL_REGION_BYTES, 512 * 1024 * 1024);
    }

    #[test]
    fn error_display_mentions_address() {
        assert!(AccessMemoryError::Misaligned { addr: 7 }
            .to_string()
            .contains("0x7"));
        assert!(AccessMemoryError::OutOfRange { addr: 0xA0000 }
            .to_string()
            .contains("outside"));
    }
}
