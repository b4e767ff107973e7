//! Pluggable memory-timing models for the shared banks (the memory
//! fidelity axis of the scenario space).
//!
//! The functional memory — [`MemoryChiplet`](crate::MemoryChiplet) — is
//! deliberately timing-free; everything cycle-accurate lives behind the
//! [`MemoryModel`] trait. Two backends ship:
//!
//! - [`FixedLatency`]: the paper's model. Each bank accepts one word per
//!   cycle; a granted access completes in the same cycle, a denied one
//!   retries next cycle.
//! - [`BankedRowBuffer`]: per-bank open row with open-page hits, a
//!   row-miss penalty, a deterministic idle close policy, and per-bank
//!   busy windows during which further requests are denied. Optionally
//!   fronted by a small set-associative [`Tlb`].
//!
//! # The execute-then-stall contract
//!
//! A presented access **mutates the model exactly once**:
//!
//! - [`MemTiming::Granted`] means the access performed *this* cycle.
//!   The model has committed all of its state transitions (row open,
//!   busy window, TLB fill, counters); the caller must perform the data
//!   access now, apply the returned `stall` to the issuing core via
//!   [`CoreSim::apply_stall_cycles`](crate::CoreSim::apply_stall_cycles),
//!   and must **not** present the access again.
//!   [`MemoryChiplet::serve`](crate::MemoryChiplet::serve) is the one
//!   caller: it presents each access once and performs it on a grant.
//! - [`MemTiming::Denied`] means the bank port (or its busy window)
//!   rejected the access this cycle. Only the conflict counter moved —
//!   row, TLB, and busy state are untouched — so re-presenting next
//!   cycle observes exactly the latency an undenied access would have.
//!
//! This replaces the latency-query-then-apply idiom, which double-counts
//! on stateful backends: querying a row-buffer model flips the open row,
//! so asking twice (query for the latency, then again to apply it) turns
//! one miss into two.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::memory::{bank_row_of_offset, BANK_COUNT};

/// Extra cycles a row miss costs over an open-page hit (precharge +
/// activate before the column access).
pub const ROW_MISS_PENALTY: u64 = 3;

/// Idle cycles after which a bank's open row auto-closes (the
/// deterministic close policy: a timer, not an LRU heuristic, so the
/// model's behaviour depends only on the access trace).
pub const ROW_OPEN_CYCLES: u64 = 64;

/// Extra cycles a TLB miss costs (the walk of the flat page table the
/// runtime keeps in tile-local SRAM).
pub const TLB_MISS_PENALTY: u64 = 12;

/// Pages are 4 KiB.
pub const PAGE_BYTES: u32 = 4096;

/// TLB geometry: 16 sets × 2 ways = 32 entries (128 KiB of reach).
pub const TLB_SETS: usize = 16;
/// Associativity of the TLB.
pub const TLB_WAYS: usize = 2;

/// A virtual (core-issued) shared-memory offset. The newtype keeps
/// translated and untranslated offsets from mixing inside the TLB path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VAddr(pub u32);

/// A physical (bank-side) shared-memory offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PAddr(pub u32);

/// Timing decision for one presented access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTiming {
    /// The access performed this cycle; the issuer must absorb `stall`
    /// extra cycles before its next instruction (0 = single-cycle).
    Granted {
        /// Extra stall cycles beyond the granting cycle itself.
        stall: u64,
    },
    /// The bank denied the access this cycle; present it again next
    /// cycle. Nothing but the conflict counter changed.
    Denied,
}

/// Selects a memory-timing backend (the `--memory` bench axis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryModelKind {
    /// One word per bank per cycle, no further latency (the paper's
    /// model and the bit-identical default).
    #[default]
    Fixed,
    /// Per-bank open-row timing with busy windows.
    Banked,
    /// [`MemoryModelKind::Banked`] fronted by the set-associative TLB.
    BankedTlb,
}

impl MemoryModelKind {
    /// Parses the `--memory` flag spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(MemoryModelKind::Fixed),
            "banked" => Some(MemoryModelKind::Banked),
            "banked+tlb" => Some(MemoryModelKind::BankedTlb),
            _ => None,
        }
    }

    /// The canonical flag spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            MemoryModelKind::Fixed => "fixed",
            MemoryModelKind::Banked => "banked",
            MemoryModelKind::BankedTlb => "banked+tlb",
        }
    }

    /// Builds a fresh model instance of this kind.
    pub fn build(self) -> Box<dyn MemoryModel> {
        match self {
            MemoryModelKind::Fixed => Box::new(FixedLatency::new()),
            MemoryModelKind::Banked => Box::new(BankedRowBuffer::new()),
            MemoryModelKind::BankedTlb => Box::new(BankedRowBuffer::with_tlb()),
        }
    }
}

impl fmt::Display for MemoryModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cycle-accurate timing of one tile's five shared banks.
///
/// Implementations are pure timing: the caller owns the data (the
/// [`MemoryChiplet`](crate::MemoryChiplet)) and performs the actual
/// read/write/AMO only on [`MemTiming::Granted`]. `offset` must be a
/// validated, word-aligned tile-local offset (callers validate through
/// [`bank_of_offset`](crate::memory::bank_of_offset) first); `now` is
/// the absolute simulation cycle and must be non-decreasing across
/// calls. Passing absolute cycles (instead of a `begin_cycle` callback)
/// keeps the model correct under activity-driven (active-set) stepping, where
/// a skipped tile's model simply never hears about the idle cycles.
pub trait MemoryModel: fmt::Debug + Send {
    /// Presents one word access. See the module docs for the
    /// mutate-exactly-once contract.
    fn request(&mut self, offset: u32, now: u64) -> MemTiming;

    /// Which backend this is.
    fn kind(&self) -> MemoryModelKind;

    /// Total granted accesses.
    fn grants(&self) -> u64;

    /// Total denied requests.
    fn conflicts(&self) -> u64;

    /// Open-page hits (0 on latency-free backends).
    fn row_hits(&self) -> u64 {
        0
    }

    /// Row misses (0 on latency-free backends).
    fn row_misses(&self) -> u64 {
        0
    }

    /// TLB hits (0 when no TLB is layered).
    fn tlb_hits(&self) -> u64 {
        0
    }

    /// TLB misses (0 when no TLB is layered).
    fn tlb_misses(&self) -> u64 {
        0
    }

    /// Cycles each bank spent occupied serving granted accesses.
    fn bank_busy_cycles(&self) -> [u64; BANK_COUNT];

    /// A deterministic fingerprint of the model's timing state, folded
    /// into the machine's per-tile determinism digests. Two models that
    /// have seen the same access stream must fingerprint identically;
    /// models whose timing state diverged should (with high probability)
    /// differ. The default suits a stateless model.
    fn state_fingerprint(&self) -> u64 {
        0
    }

    /// Clones the model behind the object (tiles are `Clone`).
    fn clone_box(&self) -> Box<dyn MemoryModel>;
}

/// FNV-1a 64-bit offset basis for [`MemoryModel::state_fingerprint`]
/// implementations.
const FP_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one `u64` into an FNV-1a accumulator (little-endian bytes).
fn fp_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Clone for Box<dyn MemoryModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The paper's fixed-latency banks: one word per bank per cycle, zero
/// additional latency. Each bank's port is a flag that the first access
/// of a cycle takes and that a later cycle frees; fairness comes from
/// the callers presenting their cores in rotating order.
#[derive(Debug, Clone)]
pub struct FixedLatency {
    /// Bank ports taken in cycle `stamp`.
    busy: [bool; BANK_COUNT],
    /// Cycle `busy` describes; `u64::MAX` = never. The first request of
    /// a new cycle frees every port, so sparsely stepped tiles need no
    /// per-cycle reset call.
    stamp: u64,
    served: [u64; BANK_COUNT],
    grants: u64,
    conflicts: u64,
}

impl FixedLatency {
    /// Creates an idle fixed-latency model.
    pub fn new() -> Self {
        FixedLatency {
            busy: [false; BANK_COUNT],
            stamp: u64::MAX,
            served: [0; BANK_COUNT],
            grants: 0,
            conflicts: 0,
        }
    }
}

impl Default for FixedLatency {
    fn default() -> Self {
        FixedLatency::new()
    }
}

impl MemoryModel for FixedLatency {
    fn request(&mut self, offset: u32, now: u64) -> MemTiming {
        if self.stamp != now {
            self.busy = [false; BANK_COUNT];
            self.stamp = now;
        }
        let (bank, _row) = bank_row_of_offset(offset).expect("validated shared offset");
        if self.busy[bank] {
            self.conflicts += 1;
            MemTiming::Denied
        } else {
            self.busy[bank] = true;
            self.grants += 1;
            self.served[bank] += 1;
            MemTiming::Granted { stall: 0 }
        }
    }

    fn kind(&self) -> MemoryModelKind {
        MemoryModelKind::Fixed
    }

    fn grants(&self) -> u64 {
        self.grants
    }

    fn conflicts(&self) -> u64 {
        self.conflicts
    }

    fn bank_busy_cycles(&self) -> [u64; BANK_COUNT] {
        self.served
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = fp_mix(FP_OFFSET, self.stamp);
        for &s in &self.served {
            h = fp_mix(h, s);
        }
        fp_mix(fp_mix(h, self.grants), self.conflicts)
    }

    fn clone_box(&self) -> Box<dyn MemoryModel> {
        Box::new(self.clone())
    }
}

/// Row-buffer timing: each bank holds one open row; hitting it costs the
/// base cycle, missing it adds [`ROW_MISS_PENALTY`] cycles during which
/// the bank is busy and denies further requests. Rows auto-close after
/// [`ROW_OPEN_CYCLES`] idle cycles.
///
/// State machine per bank (all transitions keyed on absolute `now`):
///
/// ```text
///            request, row == open, fresh        request, otherwise
/// (closed) ────────────── n/a           (any) ──────────────────────┐
///    ▲                                    │ hit: stall 0            │ miss
///    │ idle > ROW_OPEN_CYCLES             ▼                         ▼
///    └──────────────────────────── (open row r) ◄─── busy until now+1+stall
/// ```
#[derive(Debug, Clone)]
pub struct BankedRowBuffer {
    /// Cycle of the last grant per bank (`u64::MAX` = never): both the
    /// one-port-per-cycle check and the idle-close timer key off it.
    last_grant: [u64; BANK_COUNT],
    /// Bank unavailable strictly before this cycle.
    busy_until: [u64; BANK_COUNT],
    open_row: [Option<u32>; BANK_COUNT],
    busy_cycles: [u64; BANK_COUNT],
    grants: u64,
    conflicts: u64,
    row_hits: u64,
    row_misses: u64,
    tlb: Option<Tlb>,
}

impl BankedRowBuffer {
    /// Creates the model with all rows closed and no TLB.
    pub fn new() -> Self {
        BankedRowBuffer {
            last_grant: [u64::MAX; BANK_COUNT],
            busy_until: [0; BANK_COUNT],
            open_row: [None; BANK_COUNT],
            busy_cycles: [0; BANK_COUNT],
            grants: 0,
            conflicts: 0,
            row_hits: 0,
            row_misses: 0,
            tlb: None,
        }
    }

    /// Creates the model fronted by the set-associative [`Tlb`].
    pub fn with_tlb() -> Self {
        BankedRowBuffer {
            tlb: Some(Tlb::new()),
            ..BankedRowBuffer::new()
        }
    }

    /// The row currently open in `bank`, if any (test/telemetry access).
    pub fn open_row(&self, bank: usize) -> Option<u32> {
        self.open_row[bank]
    }
}

impl Default for BankedRowBuffer {
    fn default() -> Self {
        BankedRowBuffer::new()
    }
}

impl MemoryModel for BankedRowBuffer {
    fn request(&mut self, offset: u32, now: u64) -> MemTiming {
        let (bank, row) = bank_row_of_offset(offset).expect("validated shared offset");
        // Busy window or port already granted this cycle: deny without
        // touching row or TLB state (the mutate-once rule).
        if now < self.busy_until[bank] || self.last_grant[bank] == now {
            self.conflicts += 1;
            return MemTiming::Denied;
        }
        let fresh = self.last_grant[bank] != u64::MAX
            && now.saturating_sub(self.last_grant[bank]) <= ROW_OPEN_CYCLES;
        let mut stall = if self.open_row[bank] == Some(row) && fresh {
            self.row_hits += 1;
            0
        } else {
            self.row_misses += 1;
            ROW_MISS_PENALTY
        };
        if let Some(tlb) = &mut self.tlb {
            let (_pa, penalty) = tlb.translate(VAddr(offset));
            stall += penalty;
        }
        self.open_row[bank] = Some(row);
        self.last_grant[bank] = now;
        self.busy_until[bank] = now + 1 + stall;
        self.busy_cycles[bank] += 1 + stall;
        self.grants += 1;
        MemTiming::Granted { stall }
    }

    fn kind(&self) -> MemoryModelKind {
        if self.tlb.is_some() {
            MemoryModelKind::BankedTlb
        } else {
            MemoryModelKind::Banked
        }
    }

    fn grants(&self) -> u64 {
        self.grants
    }

    fn conflicts(&self) -> u64 {
        self.conflicts
    }

    fn row_hits(&self) -> u64 {
        self.row_hits
    }

    fn row_misses(&self) -> u64 {
        self.row_misses
    }

    fn tlb_hits(&self) -> u64 {
        self.tlb.as_ref().map_or(0, |t| t.hits)
    }

    fn tlb_misses(&self) -> u64 {
        self.tlb.as_ref().map_or(0, |t| t.misses)
    }

    fn bank_busy_cycles(&self) -> [u64; BANK_COUNT] {
        self.busy_cycles
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = FP_OFFSET;
        for bank in 0..BANK_COUNT {
            h = fp_mix(h, self.last_grant[bank]);
            h = fp_mix(h, self.busy_until[bank]);
            h = fp_mix(h, self.busy_cycles[bank]);
            h = fp_mix(h, self.open_row[bank].map_or(u64::MAX, u64::from));
        }
        h = fp_mix(h, self.grants);
        h = fp_mix(h, self.conflicts);
        h = fp_mix(h, self.row_hits);
        h = fp_mix(h, self.row_misses);
        if let Some(tlb) = &self.tlb {
            h = fp_mix(h, tlb.hits);
            h = fp_mix(h, tlb.misses);
            for set in &tlb.sets {
                for way in set {
                    h = fp_mix(h, way.map_or(u64::MAX, u64::from));
                }
            }
        }
        h
    }

    fn clone_box(&self) -> Box<dyn MemoryModel> {
        Box::new(self.clone())
    }
}

/// A small set-associative TLB ([`TLB_SETS`] × [`TLB_WAYS`]) over 4 KiB
/// pages. Translation is identity — the shared space is physically
/// mapped — so the TLB is a pure timing layer: a hit is free, a miss
/// costs [`TLB_MISS_PENALTY`] and fills the LRU way. It only moves on
/// granted accesses (the row-buffer denies *before* translating), which
/// keeps the mutate-once rule intact.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Per set, most-recently-used first: the virtual page numbers held.
    sets: [[Option<u32>; TLB_WAYS]; TLB_SETS],
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty (all-invalid) TLB.
    pub fn new() -> Self {
        Tlb {
            sets: [[None; TLB_WAYS]; TLB_SETS],
            hits: 0,
            misses: 0,
        }
    }

    /// Translates one virtual offset, returning the physical offset and
    /// the stall penalty (0 on a hit). Mutates the LRU order / fills on
    /// every call, so call it exactly once per granted access.
    pub fn translate(&mut self, vaddr: VAddr) -> (PAddr, u64) {
        let page = vaddr.0 / PAGE_BYTES;
        let set = &mut self.sets[page as usize % TLB_SETS];
        let penalty = if let Some(way) = set.iter().position(|&e| e == Some(page)) {
            self.hits += 1;
            set[..=way].rotate_right(1); // promote to MRU
            0
        } else {
            self.misses += 1;
            set.rotate_right(1); // evict the LRU way
            set[0] = Some(page);
            TLB_MISS_PENALTY
        };
        (PAddr(vaddr.0), penalty)
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{GLOBAL_BANKS, GLOBAL_REGION_BYTES, ROW_BYTES, TOTAL_BYTES};

    /// Word offsets guaranteed to hit bank 0: the global region
    /// word-interleaves, so stride 16 stays on one bank.
    fn bank0(word: u32) -> u32 {
        word * 16
    }

    #[test]
    fn fixed_latency_matches_crossbar_semantics() {
        let mut m = FixedLatency::new();
        assert_eq!(m.request(bank0(0), 1), MemTiming::Granted { stall: 0 });
        // Same bank, same cycle: denied (one port per cycle).
        assert_eq!(m.request(bank0(1), 1), MemTiming::Denied);
        // Different bank, same cycle: granted.
        assert_eq!(m.request(4, 1), MemTiming::Granted { stall: 0 });
        // Next cycle the port frees up again.
        assert_eq!(m.request(bank0(1), 2), MemTiming::Granted { stall: 0 });
        assert_eq!(m.grants(), 3);
        assert_eq!(m.conflicts(), 1);
        assert_eq!(m.row_hits() + m.row_misses(), 0);
    }

    #[test]
    fn one_access_per_bank_per_cycle() {
        // Offsets 0, 4, 8, 12 word-interleave onto banks 0-3; the first
        // local-bank word is bank 4.
        let banks = [0, 4, 8, 12, GLOBAL_REGION_BYTES as u32];
        let mut m = FixedLatency::new();
        for &offset in &banks {
            assert_eq!(m.request(offset, 1), MemTiming::Granted { stall: 0 });
        }
        for &offset in &banks {
            assert_eq!(m.request(offset, 1), MemTiming::Denied);
        }
        assert_eq!(m.grants(), BANK_COUNT as u64);
        assert_eq!(m.conflicts(), BANK_COUNT as u64);
        assert_eq!(m.bank_busy_cycles(), [1; BANK_COUNT]);
    }

    #[test]
    fn banks_are_independent() {
        let mut m = FixedLatency::new();
        assert_eq!(m.request(0, 1), MemTiming::Granted { stall: 0 });
        // A different bank in the same cycle is unaffected.
        assert_eq!(m.request(4, 1), MemTiming::Granted { stall: 0 });
        assert_eq!(m.conflicts(), 0);
    }

    #[test]
    fn a_new_cycle_frees_every_port() {
        let mut m = FixedLatency::new();
        for bank in 0..GLOBAL_BANKS as u32 {
            assert_eq!(m.request(bank * 4, 1), MemTiming::Granted { stall: 0 });
        }
        // Any later cycle, not only the next one, frees the ports.
        for now in [2, 7] {
            for bank in 0..GLOBAL_BANKS as u32 {
                assert_eq!(m.request(bank * 4, now), MemTiming::Granted { stall: 0 });
            }
        }
        assert_eq!(m.conflicts(), 0);
        assert_eq!(m.grants(), 3 * GLOBAL_BANKS as u64);
    }

    #[test]
    #[should_panic(expected = "validated shared offset")]
    fn out_of_range_offset_panics() {
        let _ = FixedLatency::new().request(TOTAL_BYTES as u32, 1);
    }

    /// A scripted stream over all five banks and four cycles, with
    /// same-cycle denials and skipped cycles. The literals were captured
    /// from the model that wrapped a separate crossbar arbiter, so the
    /// grant sequence, the counters and the fingerprint folded into the
    /// machine digests are pinned bit for bit.
    #[test]
    fn fixed_latency_is_pinned_on_a_scripted_stream() {
        let stream: [(u32, u64); 19] = [
            (0, 1),
            (16, 1),
            (4, 1),
            (524_288, 1),
            (524_292, 1),
            (8, 2),
            (0, 2),
            (32, 2),
            (12, 5),
            (28, 5),
            (44, 5),
            (0, 5),
            (4, 9),
            (20, 9),
            (8, 9),
            (12, 9),
            (524_300, 9),
            (0, 9),
            (48, 9),
        ];
        let granted = [
            true, false, true, true, false, true, true, false, true, false, false, true, true,
            false, true, true, true, true, false,
        ];
        let mut m = FixedLatency::new();
        assert_eq!(m.state_fingerprint(), 0x640c_88a0_e459_2f9d);
        for (&(offset, now), &want) in stream.iter().zip(&granted) {
            let timing = m.request(offset, now);
            assert_eq!(
                timing == MemTiming::Granted { stall: 0 },
                want,
                "offset {offset} at cycle {now}: {timing:?}"
            );
        }
        assert_eq!(m.grants(), 12);
        assert_eq!(m.conflicts(), 7);
        assert_eq!(m.bank_busy_cycles(), [4, 2, 2, 2, 2]);
        assert_eq!(m.state_fingerprint(), 0x6cfe_9165_71ff_a103);
        let mut one = FixedLatency::new();
        let _ = one.request(0, 1);
        assert_eq!(one.state_fingerprint(), 0x76a0_8cd6_6fe8_89c4);
    }

    #[test]
    fn banked_first_touch_misses_then_hits() {
        let mut m = BankedRowBuffer::new();
        let miss = m.request(bank0(0), 1);
        assert_eq!(
            miss,
            MemTiming::Granted {
                stall: ROW_MISS_PENALTY
            }
        );
        // The bank is busy for the whole miss window.
        let retry_at = 1 + 1 + ROW_MISS_PENALTY;
        assert_eq!(m.request(bank0(1), retry_at - 1), MemTiming::Denied);
        // Same row once the window expires: an open-page hit.
        assert_eq!(
            m.request(bank0(1), retry_at),
            MemTiming::Granted { stall: 0 }
        );
        assert_eq!(m.row_hits(), 1);
        assert_eq!(m.row_misses(), 1);
    }

    #[test]
    fn banked_row_change_misses() {
        let mut m = BankedRowBuffer::new();
        let other_row = (ROW_BYTES as u32) * 4; // same bank, next row
        assert_eq!(crate::memory::bank_row_of_offset(other_row).unwrap().0, 0);
        let _ = m.request(bank0(0), 1);
        let t = 2 + ROW_MISS_PENALTY;
        assert_eq!(
            m.request(other_row, t),
            MemTiming::Granted {
                stall: ROW_MISS_PENALTY
            }
        );
        assert_eq!(m.row_misses(), 2);
    }

    #[test]
    fn banked_row_auto_closes_after_idle_window() {
        let mut m = BankedRowBuffer::new();
        let _ = m.request(bank0(0), 1);
        // Within the close window: still open.
        let t1 = 1 + ROW_OPEN_CYCLES;
        assert_eq!(m.request(bank0(1), t1), MemTiming::Granted { stall: 0 });
        // Idle past the window: the row closed, so the same row misses.
        let t2 = t1 + ROW_OPEN_CYCLES + 1;
        assert_eq!(
            m.request(bank0(2), t2),
            MemTiming::Granted {
                stall: ROW_MISS_PENALTY
            }
        );
    }

    /// The satellite regression: a denied request must not change the
    /// latency a later grant observes. Deny the bank k times (busy
    /// window + same-cycle port) and the eventual grant still sees
    /// exactly the stall a never-denied clone sees.
    #[test]
    fn repeated_denied_queries_cannot_change_observed_latency() {
        let mut denied = BankedRowBuffer::new();
        let mut reference = BankedRowBuffer::new();
        let _ = denied.request(bank0(0), 1); // opens row 0, busy until 5
        let _ = reference.request(bank0(0), 1);
        // Hammer a *different row* of the same bank while busy: every
        // presentation is denied and must leave row state untouched.
        let other_row = (ROW_BYTES as u32) * 4;
        for now in 2..5 {
            assert_eq!(denied.request(other_row, now), MemTiming::Denied);
        }
        let after_denials = denied.request(bank0(1), 5);
        let undisturbed = reference.request(bank0(1), 5);
        assert_eq!(after_denials, undisturbed);
        assert_eq!(after_denials, MemTiming::Granted { stall: 0 });
        // Only the conflict counter differs between the two histories.
        assert_eq!(denied.row_hits(), reference.row_hits());
        assert_eq!(denied.row_misses(), reference.row_misses());
        assert_eq!(denied.grants(), reference.grants());
        assert_eq!(denied.conflicts(), reference.conflicts() + 3);
    }

    #[test]
    fn tlb_hits_after_first_touch_and_evicts_lru() {
        let mut tlb = Tlb::new();
        let (pa, p0) = tlb.translate(VAddr(0));
        assert_eq!(pa, PAddr(0)); // identity mapping
        assert_eq!(p0, TLB_MISS_PENALTY);
        assert_eq!(tlb.translate(VAddr(4)).1, 0); // same page: hit
                                                  // Two more pages in the same set (stride = TLB_SETS pages) evict
                                                  // page 0 from the 2-way set.
        let stride = PAGE_BYTES * TLB_SETS as u32;
        assert_eq!(tlb.translate(VAddr(stride)).1, TLB_MISS_PENALTY);
        assert_eq!(tlb.translate(VAddr(2 * stride)).1, TLB_MISS_PENALTY);
        assert_eq!(tlb.translate(VAddr(0)).1, TLB_MISS_PENALTY);
        assert_eq!(tlb.hits, 1);
        assert_eq!(tlb.misses, 4);
    }

    #[test]
    fn banked_tlb_adds_walk_penalty_once_per_page() {
        let mut m = BankedRowBuffer::with_tlb();
        let first = m.request(bank0(0), 1);
        assert_eq!(
            first,
            MemTiming::Granted {
                stall: ROW_MISS_PENALTY + TLB_MISS_PENALTY
            }
        );
        let t = 2 + ROW_MISS_PENALTY + TLB_MISS_PENALTY;
        // Same page, same row: both layers hit.
        assert_eq!(m.request(bank0(1), t), MemTiming::Granted { stall: 0 });
        assert_eq!(m.tlb_hits(), 1);
        assert_eq!(m.tlb_misses(), 1);
    }

    #[test]
    fn kind_round_trips_through_parse() {
        for kind in [
            MemoryModelKind::Fixed,
            MemoryModelKind::Banked,
            MemoryModelKind::BankedTlb,
        ] {
            assert_eq!(MemoryModelKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.build().kind(), kind);
        }
        assert_eq!(MemoryModelKind::parse("dram"), None);
    }

    #[test]
    fn busy_cycles_track_grant_plus_stall() {
        let mut m = BankedRowBuffer::new();
        let _ = m.request(bank0(0), 1); // miss: 1 + penalty
        let _ = m.request(bank0(1), 2 + ROW_MISS_PENALTY); // hit: 1
        assert_eq!(m.bank_busy_cycles()[0], 2 + ROW_MISS_PENALTY);
        assert_eq!(m.bank_busy_cycles()[1..], [0, 0, 0, 0]);
    }
}
