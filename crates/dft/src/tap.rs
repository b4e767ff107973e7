//! IEEE 1149.1 TAP controller (the protocol under the DAP interfaces).
//!
//! The paper's debug access is "based on IEEE 1149.1 JTAG protocol minus
//! boundary scan" (Sec. VII). This module implements the full 16-state
//! TAP controller and a small register file (BYPASS, IDCODE, and a
//! generic data register), bit-accurate at TCK granularity. The
//! [`crate::schedule`] overhead constants are grounded in the state-walk
//! costs this FSM exposes.

use std::fmt;

/// The sixteen TAP controller states of IEEE 1149.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TapState {
    TestLogicReset,
    RunTestIdle,
    SelectDrScan,
    CaptureDr,
    ShiftDr,
    Exit1Dr,
    PauseDr,
    Exit2Dr,
    UpdateDr,
    SelectIrScan,
    CaptureIr,
    ShiftIr,
    Exit1Ir,
    PauseIr,
    Exit2Ir,
    UpdateIr,
}

impl TapState {
    /// The next state for a given TMS level, exactly as in the standard's
    /// state diagram.
    pub fn next(self, tms: bool) -> TapState {
        use TapState::*;
        match (self, tms) {
            (TestLogicReset, true) => TestLogicReset,
            (TestLogicReset, false) => RunTestIdle,
            (RunTestIdle, true) => SelectDrScan,
            (RunTestIdle, false) => RunTestIdle,
            (SelectDrScan, true) => SelectIrScan,
            (SelectDrScan, false) => CaptureDr,
            (CaptureDr, true) => Exit1Dr,
            (CaptureDr, false) => ShiftDr,
            (ShiftDr, true) => Exit1Dr,
            (ShiftDr, false) => ShiftDr,
            (Exit1Dr, true) => UpdateDr,
            (Exit1Dr, false) => PauseDr,
            (PauseDr, true) => Exit2Dr,
            (PauseDr, false) => PauseDr,
            (Exit2Dr, true) => UpdateDr,
            (Exit2Dr, false) => ShiftDr,
            (UpdateDr, true) => SelectDrScan,
            (UpdateDr, false) => RunTestIdle,
            (SelectIrScan, true) => TestLogicReset,
            (SelectIrScan, false) => CaptureIr,
            (CaptureIr, true) => Exit1Ir,
            (CaptureIr, false) => ShiftIr,
            (ShiftIr, true) => Exit1Ir,
            (ShiftIr, false) => ShiftIr,
            (Exit1Ir, true) => UpdateIr,
            (Exit1Ir, false) => PauseIr,
            (PauseIr, true) => Exit2Ir,
            (PauseIr, false) => PauseIr,
            (Exit2Ir, true) => UpdateIr,
            (Exit2Ir, false) => ShiftIr,
            (UpdateIr, true) => SelectDrScan,
            (UpdateIr, false) => RunTestIdle,
        }
    }
}

impl fmt::Display for TapState {
    /// The `Debug` names are already the standard's state names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Instruction register opcodes understood by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapInstruction {
    /// 1-bit bypass register (the mandatory instruction, all-ones).
    Bypass,
    /// 32-bit device identification register.
    IdCode,
    /// The DAP data register (program/data load path).
    DapAccess,
}

/// A bit-accurate single-device TAP controller.
///
/// # Examples
///
/// ```
/// use wsp_dft::tap::{TapController, TapState};
///
/// let mut tap = TapController::new(0x4BA0_0477); // an ARM-style IDCODE
/// tap.reset();
/// assert_eq!(tap.state(), TapState::TestLogicReset);
/// let id = tap.read_idcode();
/// assert_eq!(id, 0x4BA0_0477);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapController {
    state: TapState,
    idcode: u32,
    /// Current instruction (updated at UpdateIr).
    instruction: TapInstruction,
    /// IR shift register (4 bits).
    ir_shift: u8,
    /// DR shift register (width depends on instruction).
    dr_shift: u64,
    /// Latched DAP data register (updated at UpdateDr).
    dap_register: u64,
    tcks: u64,
}

/// IR opcode encodings (4-bit IR).
const IR_BYPASS: u8 = 0b1111;
const IR_IDCODE: u8 = 0b1110;
const IR_DAP: u8 = 0b1000;

/// DAP data-register width in bits (address + data + status, as in an
/// ARM-style APACC).
pub const DAP_DR_BITS: usize = 35;

impl TapController {
    /// Creates a controller with the given IDCODE, in Test-Logic-Reset.
    pub fn new(idcode: u32) -> Self {
        TapController {
            state: TapState::TestLogicReset,
            idcode,
            instruction: TapInstruction::IdCode,
            ir_shift: 0,
            dr_shift: 0,
            dap_register: 0,
            tcks: 0,
        }
    }

    /// Current controller state.
    #[inline]
    pub fn state(&self) -> TapState {
        self.state
    }

    /// Currently latched instruction.
    #[inline]
    pub fn instruction(&self) -> TapInstruction {
        self.instruction
    }

    /// Last value latched into the DAP data register.
    #[inline]
    pub fn dap_register(&self) -> u64 {
        self.dap_register
    }

    /// TCKs consumed.
    #[inline]
    pub fn tcks(&self) -> u64 {
        self.tcks
    }

    /// Clocks one TCK with the given TMS/TDI; returns TDO.
    pub fn step(&mut self, tms: bool, tdi: bool) -> bool {
        self.tcks += 1;
        let mut tdo = false;
        match self.state {
            TapState::CaptureIr => {
                // Standard: capture 0b01 into the low IR bits.
                self.ir_shift = 0b01;
            }
            TapState::ShiftIr => {
                tdo = self.ir_shift & 1 == 1;
                self.ir_shift = (self.ir_shift >> 1) | (u8::from(tdi) << 3);
            }
            TapState::CaptureDr => {
                self.dr_shift = match self.instruction {
                    TapInstruction::Bypass => 0,
                    TapInstruction::IdCode => u64::from(self.idcode),
                    TapInstruction::DapAccess => self.dap_register,
                };
            }
            TapState::ShiftDr => {
                let width = self.dr_width();
                tdo = self.dr_shift & 1 == 1;
                self.dr_shift = (self.dr_shift >> 1) | (u64::from(tdi) << (width - 1));
            }
            _ => {}
        }
        // Latch on the state we *leave* (update states act on entry in
        // hardware; acting on exit of the update state is equivalent at
        // this abstraction level).
        let next = self.state.next(tms);
        if next == TapState::UpdateIr && matches!(self.state, TapState::Exit1Ir | TapState::Exit2Ir)
        {
            self.instruction = match self.ir_shift & 0b1111 {
                IR_BYPASS => TapInstruction::Bypass,
                IR_IDCODE => TapInstruction::IdCode,
                IR_DAP => TapInstruction::DapAccess,
                // Unknown opcodes select BYPASS, as the standard requires.
                _ => TapInstruction::Bypass,
            };
        }
        if next == TapState::UpdateDr
            && matches!(self.state, TapState::Exit1Dr | TapState::Exit2Dr)
            && self.instruction == TapInstruction::DapAccess
        {
            self.dap_register = self.dr_shift & ((1u64 << DAP_DR_BITS) - 1);
        }
        self.state = next;
        tdo
    }

    /// Width of the currently selected data register.
    fn dr_width(&self) -> usize {
        match self.instruction {
            TapInstruction::Bypass => 1,
            TapInstruction::IdCode => 32,
            TapInstruction::DapAccess => DAP_DR_BITS,
        }
    }

    /// Forces Test-Logic-Reset (five TMS-high clocks from any state).
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.step(true, false);
        }
        debug_assert_eq!(self.state, TapState::TestLogicReset);
    }

    /// Loads an instruction through a full IR scan; returns to
    /// Run-Test/Idle.
    pub fn load_instruction(&mut self, opcode: TapInstruction) {
        let bits = match opcode {
            TapInstruction::Bypass => IR_BYPASS,
            TapInstruction::IdCode => IR_IDCODE,
            TapInstruction::DapAccess => IR_DAP,
        };
        self.goto_run_test_idle();
        // RTI → SelectDR → SelectIR → CaptureIR → ShiftIR.
        self.step(true, false);
        self.step(true, false);
        self.step(false, false);
        self.step(false, false);
        // Shift 4 IR bits; last bit with TMS high (to Exit1-IR).
        for i in 0..4 {
            let tdi = (bits >> i) & 1 == 1;
            self.step(i == 3, tdi);
        }
        // Exit1-IR → UpdateIR → RTI.
        self.step(true, false);
        self.step(false, false);
    }

    /// Runs a full DR scan of `bits`, returning the bits shifted out.
    /// Starts and ends in Run-Test/Idle.
    pub fn scan_dr(&mut self, bits: &[bool]) -> Vec<bool> {
        assert!(!bits.is_empty(), "DR scan needs at least one bit");
        self.goto_run_test_idle();
        // RTI → SelectDR → CaptureDR → ShiftDR.
        self.step(true, false);
        self.step(false, false);
        self.step(false, false);
        let mut out = Vec::with_capacity(bits.len());
        for (i, &tdi) in bits.iter().enumerate() {
            let last = i == bits.len() - 1;
            out.push(self.step(last, tdi));
        }
        // Exit1-DR → UpdateDR → RTI.
        self.step(true, false);
        self.step(false, false);
        out
    }

    /// Reads the 32-bit IDCODE through a proper IR+DR scan sequence.
    pub fn read_idcode(&mut self) -> u32 {
        self.load_instruction(TapInstruction::IdCode);
        let out = self.scan_dr(&[false; 32]);
        out.iter()
            .enumerate()
            .fold(0u32, |acc, (i, &b)| acc | (u32::from(b) << i))
    }

    fn goto_run_test_idle(&mut self) {
        // Bounded walk: from any state, ≤7 TMS moves reach RTI.
        for _ in 0..8 {
            if self.state == TapState::RunTestIdle {
                return;
            }
            match self.state {
                TapState::TestLogicReset => {
                    self.step(false, false);
                }
                TapState::Exit1Dr
                | TapState::Exit1Ir
                | TapState::Exit2Dr
                | TapState::Exit2Ir
                | TapState::PauseDr
                | TapState::PauseIr
                | TapState::ShiftDr
                | TapState::ShiftIr => {
                    self.step(true, false);
                }
                TapState::UpdateDr
                | TapState::UpdateIr
                | TapState::CaptureDr
                | TapState::CaptureIr => {
                    self.step(false, false);
                }
                TapState::SelectDrScan | TapState::SelectIrScan => {
                    self.step(false, false);
                    // lands in CaptureDr/CaptureIr; loop continues.
                }
                TapState::RunTestIdle => unreachable!(),
            }
        }
        // From Capture/Shift we may need a couple more moves.
        while self.state != TapState::RunTestIdle {
            let tms = !matches!(
                self.state,
                TapState::TestLogicReset | TapState::UpdateDr | TapState::UpdateIr
            );
            self.step(tms, false);
        }
    }
}

/// A board-level chain of TAP devices: each device's TDO feeds the next
/// device's TDI, with TMS and TCK broadcast — exactly how a row of tiles
/// hangs off one external controller (Fig. 10's physical arrangement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapChainOfDevices {
    devices: Vec<TapController>,
}

impl TapChainOfDevices {
    /// Creates a chain of `n` devices with sequential IDCODEs derived
    /// from `base_idcode`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, base_idcode: u32) -> Self {
        assert!(n > 0, "chain needs at least one device");
        TapChainOfDevices {
            devices: (0..n)
                .map(|i| TapController::new(base_idcode.wrapping_add(i as u32)))
                .collect(),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the chain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Access to one device.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn device(&self, idx: usize) -> &TapController {
        &self.devices[idx]
    }

    /// Clocks one TCK: TMS broadcast, data ripples TDI→TDO down the
    /// chain; returns the final TDO.
    pub fn step(&mut self, tms: bool, tdi: bool) -> bool {
        let mut bit = tdi;
        for dev in &mut self.devices {
            bit = dev.step(tms, bit);
        }
        bit
    }

    /// Resets every device (five TMS-high clocks).
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.step(true, false);
        }
    }

    /// Puts every device in BYPASS via a broadcast IR scan, so the chain
    /// becomes an n-bit delay line — the state the progressive-unroll
    /// procedure relies on to reach a distant tile.
    pub fn all_bypass(&mut self) {
        // RTI.
        self.step(false, false);
        // RTI → SelectDR → SelectIR → CaptureIR → ShiftIR.
        self.step(true, false);
        self.step(true, false);
        self.step(false, false);
        self.step(false, false);
        // Shift 4×n bits of all-ones so every 4-bit IR holds BYPASS.
        let total = 4 * self.devices.len();
        for i in 0..total {
            self.step(i == total - 1, true);
        }
        // Exit1-IR → UpdateIR → RTI.
        self.step(true, false);
        self.step(false, false);
    }

    /// Runs a broadcast DR scan of `bits` through the chain, returning
    /// the bits that emerged from the last device.
    pub fn scan_dr(&mut self, bits: &[bool]) -> Vec<bool> {
        assert!(!bits.is_empty(), "DR scan needs at least one bit");
        self.step(true, false);
        self.step(false, false);
        self.step(false, false);
        let mut out = Vec::with_capacity(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            out.push(self.step(i == bits.len() - 1, b));
        }
        self.step(true, false);
        self.step(false, false);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tms_highs_reset_from_any_state() {
        // Exhaustive: from all 16 states, 5 TMS=1 steps land in TLR.
        use TapState::*;
        let all = [
            TestLogicReset,
            RunTestIdle,
            SelectDrScan,
            CaptureDr,
            ShiftDr,
            Exit1Dr,
            PauseDr,
            Exit2Dr,
            UpdateDr,
            SelectIrScan,
            CaptureIr,
            ShiftIr,
            Exit1Ir,
            PauseIr,
            Exit2Ir,
            UpdateIr,
        ];
        for start in all {
            let mut s = start;
            for _ in 0..5 {
                s = s.next(true);
            }
            assert_eq!(s, TestLogicReset, "from {start:?}");
        }
    }

    #[test]
    fn state_diagram_spot_checks() {
        use TapState::*;
        assert_eq!(RunTestIdle.next(true), SelectDrScan);
        assert_eq!(SelectDrScan.next(false), CaptureDr);
        assert_eq!(ShiftDr.next(false), ShiftDr);
        assert_eq!(Exit1Dr.next(false), PauseDr);
        assert_eq!(Exit2Dr.next(false), ShiftDr);
        assert_eq!(UpdateDr.next(true), SelectDrScan);
        assert_eq!(SelectIrScan.next(true), TestLogicReset);
    }

    #[test]
    fn idcode_reads_back() {
        let mut tap = TapController::new(0x4BA0_0477);
        tap.reset();
        assert_eq!(tap.read_idcode(), 0x4BA0_0477);
        // And again (the scan must be repeatable).
        assert_eq!(tap.read_idcode(), 0x4BA0_0477);
    }

    #[test]
    fn bypass_is_a_single_bit_delay() {
        let mut tap = TapController::new(1);
        tap.reset();
        tap.load_instruction(TapInstruction::Bypass);
        let pattern = [true, false, true, true, false, false, true, false];
        let out = tap.scan_dr(&pattern);
        // Bypass: capture loads 0, then each output bit is the previous
        // input bit.
        assert!(!out[0]);
        assert_eq!(&out[1..], &pattern[..7]);
    }

    #[test]
    fn dap_register_updates_on_update_dr() {
        let mut tap = TapController::new(1);
        tap.reset();
        tap.load_instruction(TapInstruction::DapAccess);
        let value: u64 = 0x3_DEAD_BEEF; // 35-bit payload
        let bits: Vec<bool> = (0..DAP_DR_BITS).map(|i| (value >> i) & 1 == 1).collect();
        tap.scan_dr(&bits);
        assert_eq!(tap.dap_register(), value);
        // A second scan shifts the captured value back out.
        let out = tap.scan_dr(&[false; DAP_DR_BITS]);
        let read = out
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        assert_eq!(read, value);
    }

    #[test]
    fn unknown_ir_opcode_selects_bypass() {
        let mut tap = TapController::new(1);
        tap.reset();
        // Manually shift an unknown opcode (0b0011).
        tap.goto_run_test_idle();
        tap.step(true, false);
        tap.step(true, false);
        tap.step(false, false);
        tap.step(false, false);
        for (i, bit) in [true, true, false, false].into_iter().enumerate() {
            tap.step(i == 3, bit);
        }
        tap.step(true, false);
        tap.step(false, false);
        assert_eq!(tap.instruction(), TapInstruction::Bypass);
    }

    #[test]
    fn instruction_survives_dr_scans() {
        let mut tap = TapController::new(1);
        tap.reset();
        tap.load_instruction(TapInstruction::DapAccess);
        tap.scan_dr(&[false; DAP_DR_BITS]);
        assert_eq!(tap.instruction(), TapInstruction::DapAccess);
    }

    #[test]
    fn tck_accounting_matches_overhead_model() {
        let mut tap = TapController::new(1);
        tap.reset();
        tap.load_instruction(TapInstruction::DapAccess);
        let before = tap.tcks();
        tap.scan_dr(&[false; 32]);
        let spent = tap.tcks() - before;
        // Payload 32 bits + bounded state-walk overhead: RTI entry,
        // Exit1, Update and return are 5 TCKs, plus slack.
        assert!(spent >= 32);
        assert!(spent <= 32 + 5 + 3, "DR scan cost {spent} TCKs");
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn empty_dr_scan_rejected() {
        let mut tap = TapController::new(1);
        tap.reset();
        let _ = tap.scan_dr(&[]);
    }

    #[test]
    fn display_names_states() {
        assert_eq!(TapState::ShiftDr.to_string(), "ShiftDr");
    }

    #[test]
    fn chained_bypass_is_an_n_bit_delay_line() {
        let n = 8;
        let mut chain = TapChainOfDevices::new(n, 0x1000_0001);
        chain.reset();
        chain.all_bypass();
        for i in 0..n {
            assert_eq!(
                chain.device(i).instruction(),
                TapInstruction::Bypass,
                "device {i}"
            );
        }
        // A DR scan through n bypass registers delays data by n bits.
        let pattern: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let out = chain.scan_dr(&pattern);
        for (i, &bit) in out.iter().enumerate() {
            if i < n {
                assert!(!bit, "capture zeros lead");
            } else {
                assert_eq!(bit, pattern[i - n], "bit {i}");
            }
        }
    }

    #[test]
    fn chain_devices_have_distinct_idcodes() {
        let chain = TapChainOfDevices::new(4, 0xAB00_0000);
        assert_eq!(chain.len(), 4);
        assert!(!chain.is_empty());
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            // Private field access via read_idcode needs &mut; compare
            // through a cloned controller instead.
            let mut dev = chain.device(i).clone();
            dev.reset();
            assert!(seen.insert(dev.read_idcode()), "duplicate idcode");
        }
    }

    #[test]
    fn chain_reset_is_global() {
        let mut chain = TapChainOfDevices::new(3, 1);
        chain.all_bypass();
        chain.reset();
        for i in 0..3 {
            assert_eq!(chain.device(i).state(), TapState::TestLogicReset);
        }
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_chain_rejected() {
        let _ = TapChainOfDevices::new(0, 1);
    }
}
