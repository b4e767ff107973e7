//! The intra-tile DAP daisy chain and its broadcast mode (Fig. 9).
//!
//! Each core's DAP is modelled as a shift register on the scan path. In
//! normal (serial) mode the fourteen registers form one long chain:
//! loading W bits into every core costs 14·W TCKs. In broadcast mode the
//! tile's TDI fans out to every DAP in parallel and only the first core's
//! TDO is observed, so the same W bits land in all fourteen cores in W
//! TCKs — the 14× program-load speedup of Sec. VII.

use std::collections::VecDeque;
use std::fmt;

/// How the tile presents its DAPs on the scan path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftMode {
    /// All DAP registers in series: independent per-core data.
    Serial,
    /// TDI broadcast to every DAP; TDO observed from the first core only.
    Broadcast,
}

impl fmt::Display for ShiftMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShiftMode::Serial => f.write_str("serial"),
            ShiftMode::Broadcast => f.write_str("broadcast"),
        }
    }
}

/// A daisy chain of per-core DAP shift registers.
///
/// Bit-accurate: [`DapChain::shift`] clocks one TCK. The register
/// contents are observable per core, so tests can verify exactly what a
/// load sequence deposited.
///
/// # Examples
///
/// ```
/// use wsp_dft::{DapChain, ShiftMode};
///
/// let mut chain = DapChain::new(14, 8);
/// // Broadcast an 8-bit pattern to all 14 cores in 8 TCKs.
/// chain.set_mode(ShiftMode::Broadcast);
/// for bit in [true, false, true, true, false, false, true, false] {
///     chain.shift(bit);
/// }
/// assert!((0..14).all(|c| chain.register(c) == chain.register(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DapChain {
    /// Per-core shift registers, index 0 nearest TDI.
    registers: Vec<VecDeque<bool>>,
    width: usize,
    mode: ShiftMode,
    tcks: u64,
}

impl DapChain {
    /// Creates a chain of `cores` DAPs, each a `width`-bit register,
    /// initially all zeros, in serial mode.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `width` is zero.
    pub fn new(cores: usize, width: usize) -> Self {
        assert!(cores > 0, "chain needs at least one DAP");
        assert!(width > 0, "register width must be non-zero");
        DapChain {
            registers: (0..cores)
                .map(|_| VecDeque::from(vec![false; width]))
                .collect(),
            width,
            mode: ShiftMode::Serial,
            tcks: 0,
        }
    }

    /// Number of DAPs in the chain.
    pub fn cores(&self) -> usize {
        self.registers.len()
    }

    /// Register width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current shift mode.
    pub fn mode(&self) -> ShiftMode {
        self.mode
    }

    /// Switches shift mode (a real controller does this through an
    /// instruction-register sequence; the cost is negligible next to data
    /// shifts and is not modelled).
    pub fn set_mode(&mut self, mode: ShiftMode) {
        self.mode = mode;
    }

    /// TCK cycles consumed so far.
    pub fn tcks(&self) -> u64 {
        self.tcks
    }

    /// Clocks one TCK with `tdi` on the chain input; returns TDO.
    pub fn shift(&mut self, tdi: bool) -> bool {
        self.tcks += 1;
        match self.mode {
            ShiftMode::Serial => {
                // Bit ripples from register 0 through register N-1.
                let mut carry = tdi;
                for reg in &mut self.registers {
                    reg.push_front(carry);
                    carry = reg.pop_back().expect("fixed width");
                }
                carry
            }
            ShiftMode::Broadcast => {
                let mut out = false;
                for (i, reg) in self.registers.iter_mut().enumerate() {
                    reg.push_front(tdi);
                    let popped = reg.pop_back().expect("fixed width");
                    if i == 0 {
                        out = popped;
                    }
                }
                out
            }
        }
    }

    /// Shifts a whole word, LSB first; returns the bits that emerged.
    pub fn shift_word(&mut self, bits: &[bool]) -> Vec<bool> {
        bits.iter().map(|&b| self.shift(b)).collect()
    }

    /// The current contents of core `core`'s register, bit 0 = the bit
    /// that entered most recently.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn register(&self, core: usize) -> Vec<bool> {
        self.registers[core].iter().copied().collect()
    }

    /// TCKs required to load one `width`-bit word into *every* core under
    /// the given mode — the arithmetic behind the 14× claim.
    pub fn tcks_to_load_all(cores: usize, width: usize, mode: ShiftMode) -> u64 {
        match mode {
            ShiftMode::Serial => (cores * width) as u64,
            ShiftMode::Broadcast => width as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(pattern: u32, n: usize) -> Vec<bool> {
        (0..n).map(|i| (pattern >> i) & 1 == 1).collect()
    }

    #[test]
    fn serial_shift_fills_registers_in_order() {
        let mut chain = DapChain::new(3, 4);
        // Shift 12 bits: after 3×4 TCKs each register holds its 4 bits.
        let pattern = bits(0b1010_0110_1100, 12);
        chain.shift_word(&pattern);
        assert_eq!(chain.tcks(), 12);
        // The first 4 bits shifted in (b0..b3 = 0,0,1,1) have rippled to
        // the LAST register, stored newest-first: [b3, b2, b1, b0].
        let last = chain.register(2);
        assert_eq!(last, vec![true, true, false, false]);
    }

    #[test]
    fn serial_tdo_echoes_after_full_chain_delay() {
        let mut chain = DapChain::new(2, 3);
        // Chain is 6 bits deep; the first input reappears on TCK 7.
        for _ in 0..6 {
            assert!(!chain.shift(true) || chain.tcks() > 6);
        }
        assert!(chain.shift(false)); // the first `true` emerges
    }

    #[test]
    fn broadcast_copies_to_all_cores() {
        let mut chain = DapChain::new(14, 8);
        chain.set_mode(ShiftMode::Broadcast);
        chain.shift_word(&bits(0b1011_0010, 8));
        let first = chain.register(0);
        for core in 1..14 {
            assert_eq!(chain.register(core), first, "core {core} differs");
        }
        assert_eq!(chain.tcks(), 8);
    }

    #[test]
    fn broadcast_is_14x_faster_for_spmd_loads() {
        let serial = DapChain::tcks_to_load_all(14, 1024, ShiftMode::Serial);
        let broadcast = DapChain::tcks_to_load_all(14, 1024, ShiftMode::Broadcast);
        assert_eq!(serial / broadcast, 14);
    }

    #[test]
    fn serial_load_round_trip() {
        // Load distinct values into 2 cores, then read them back by
        // shifting 8 more bits through and observing TDO.
        let mut chain = DapChain::new(2, 4);
        let payload = bits(0b0110_1001, 8);
        chain.shift_word(&payload);
        // Registers now hold the payload; shift zeros and collect TDO.
        let out = chain.shift_word(&bits(0, 8));
        // TDO replays the payload in shift order.
        assert_eq!(out, payload);
    }

    #[test]
    fn mode_switch_preserves_contents() {
        let mut chain = DapChain::new(4, 4);
        chain.shift_word(&bits(0xABCD, 16));
        let before: Vec<_> = (0..4).map(|c| chain.register(c)).collect();
        chain.set_mode(ShiftMode::Broadcast);
        let after: Vec<_> = (0..4).map(|c| chain.register(c)).collect();
        assert_eq!(before, after);
        assert_eq!(chain.mode(), ShiftMode::Broadcast);
    }

    #[test]
    #[should_panic(expected = "at least one DAP")]
    fn empty_chain_rejected() {
        let _ = DapChain::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "width must be non-zero")]
    fn zero_width_rejected() {
        let _ = DapChain::new(2, 0);
    }

    #[test]
    fn accessors_and_display() {
        let chain = DapChain::new(14, 32);
        assert_eq!(chain.cores(), 14);
        assert_eq!(chain.width(), 32);
        assert_eq!(ShiftMode::Serial.to_string(), "serial");
        assert_eq!(ShiftMode::Broadcast.to_string(), "broadcast");
    }
}
