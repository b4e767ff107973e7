//! The load/store instruction set interpreted by the core model.
//!
//! The real chiplet uses ARM Cortex-M3 cores; licensing obviously prevents
//! shipping those, so the model runs a deliberately small RISC ISA with
//! the same architectural character: 16 registers, word-addressed loads
//! and stores, compare-and-branch, one instruction per cycle except
//! memory stalls. Programs are built with [`ProgramBuilder`], which
//! resolves symbolic labels so test kernels stay readable.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One of the 16 general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// Register index 0..16.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All registers in order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// A fully resolved instruction (branch targets are instruction indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Instr {
    /// `rd ← imm`
    Ldi(Reg, u32),
    /// `rd ← rs`
    Mov(Reg, Reg),
    /// `rd ← rs + rt` (wrapping)
    Add(Reg, Reg, Reg),
    /// `rd ← rs + imm` (wrapping, signed immediate)
    Addi(Reg, Reg, i32),
    /// `rd ← rs − rt` (wrapping)
    Sub(Reg, Reg, Reg),
    /// `rd ← rs × rt` (wrapping)
    Mul(Reg, Reg, Reg),
    /// `rd ← rs & rt`
    And(Reg, Reg, Reg),
    /// `rd ← rs | rt`
    Or(Reg, Reg, Reg),
    /// `rd ← rs ^ rt`
    Xor(Reg, Reg, Reg),
    /// `rd ← rs << imm`
    Shl(Reg, Reg, u8),
    /// `rd ← rs >> imm` (logical)
    Shr(Reg, Reg, u8),
    /// `rd ← mem[rs + offset]` (word)
    Ld(Reg, Reg, i32),
    /// `mem[raddr + offset] ← rval` (word)
    St(Reg, Reg, i32),
    /// Branch to `target` when `rs == rt`.
    Beq(Reg, Reg, usize),
    /// Branch to `target` when `rs != rt`.
    Bne(Reg, Reg, usize),
    /// Branch to `target` when `rs < rt` (unsigned).
    Blt(Reg, Reg, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Atomic fetch-and-add on shared memory: `rd ← mem[raddr]` and
    /// `mem[raddr] += rval`, as one indivisible crossbar transaction.
    /// Only valid on shared addresses (the crossbar is the serialisation
    /// point; private SRAM needs no atomics).
    AmoAdd(Reg, Reg, Reg),
    /// Stop the core.
    Halt,
}

/// An executable program: a resolved instruction sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Starts building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// The resolved instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Label-aware builder for [`Program`].
///
/// # Examples
///
/// ```
/// use wsp_tile::isa::{Program, Reg};
///
/// // r1 = 10 + 9 + … + 1 via a countdown loop.
/// let program = Program::builder()
///     .ldi(Reg::R1, 0)
///     .ldi(Reg::R2, 10)
///     .ldi(Reg::R0, 0)
///     .label("loop")
///     .add(Reg::R1, Reg::R1, Reg::R2)
///     .addi(Reg::R2, Reg::R2, -1)
///     .bne(Reg::R2, Reg::R0, "loop")
///     .halt()
///     .build()?;
/// assert_eq!(program.len(), 7);
/// # Ok::<(), wsp_tile::isa::BuildProgramError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    /// Instructions with unresolved label operands.
    pending: Vec<PendingInstr>,
    labels: HashMap<String, usize>,
}

#[derive(Debug, Clone)]
enum PendingInstr {
    Ready(Instr),
    Beq(Reg, Reg, String),
    Bne(Reg, Reg, String),
    Blt(Reg, Reg, String),
    Jmp(String),
}

impl ProgramBuilder {
    /// Defines a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined.
    pub fn label(mut self, name: &str) -> Self {
        let prev = self.labels.insert(name.to_string(), self.pending.len());
        assert!(prev.is_none(), "label {name:?} defined twice");
        self
    }

    /// `rd ← imm`.
    pub fn ldi(mut self, rd: Reg, imm: u32) -> Self {
        self.pending.push(PendingInstr::Ready(Instr::Ldi(rd, imm)));
        self
    }

    /// `rd ← rs`.
    pub fn mov(mut self, rd: Reg, rs: Reg) -> Self {
        self.pending.push(PendingInstr::Ready(Instr::Mov(rd, rs)));
        self
    }

    /// `rd ← rs + rt`.
    pub fn add(mut self, rd: Reg, rs: Reg, rt: Reg) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Add(rd, rs, rt)));
        self
    }

    /// `rd ← rs + imm`.
    pub fn addi(mut self, rd: Reg, rs: Reg, imm: i32) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Addi(rd, rs, imm)));
        self
    }

    /// `rd ← rs − rt`.
    pub fn sub(mut self, rd: Reg, rs: Reg, rt: Reg) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Sub(rd, rs, rt)));
        self
    }

    /// `rd ← rs × rt`.
    pub fn mul(mut self, rd: Reg, rs: Reg, rt: Reg) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Mul(rd, rs, rt)));
        self
    }

    /// `rd ← rs & rt`.
    pub fn and(mut self, rd: Reg, rs: Reg, rt: Reg) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::And(rd, rs, rt)));
        self
    }

    /// `rd ← rs | rt`.
    pub fn or(mut self, rd: Reg, rs: Reg, rt: Reg) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Or(rd, rs, rt)));
        self
    }

    /// `rd ← rs ^ rt`.
    pub fn xor(mut self, rd: Reg, rs: Reg, rt: Reg) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Xor(rd, rs, rt)));
        self
    }

    /// `rd ← rs << imm`.
    pub fn shl(mut self, rd: Reg, rs: Reg, imm: u8) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Shl(rd, rs, imm)));
        self
    }

    /// `rd ← rs >> imm`.
    pub fn shr(mut self, rd: Reg, rs: Reg, imm: u8) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Shr(rd, rs, imm)));
        self
    }

    /// `rd ← mem[rs + offset]`.
    pub fn ld(mut self, rd: Reg, rs: Reg, offset: i32) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::Ld(rd, rs, offset)));
        self
    }

    /// `mem[raddr + offset] ← rval`.
    pub fn st(mut self, rval: Reg, raddr: Reg, offset: i32) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::St(rval, raddr, offset)));
        self
    }

    /// Branch to `label` when `rs == rt`.
    pub fn beq(mut self, rs: Reg, rt: Reg, label: &str) -> Self {
        self.pending
            .push(PendingInstr::Beq(rs, rt, label.to_string()));
        self
    }

    /// Branch to `label` when `rs != rt`.
    pub fn bne(mut self, rs: Reg, rt: Reg, label: &str) -> Self {
        self.pending
            .push(PendingInstr::Bne(rs, rt, label.to_string()));
        self
    }

    /// Branch to `label` when `rs < rt` (unsigned).
    pub fn blt(mut self, rs: Reg, rt: Reg, label: &str) -> Self {
        self.pending
            .push(PendingInstr::Blt(rs, rt, label.to_string()));
        self
    }

    /// Unconditional jump to `label`.
    pub fn jmp(mut self, label: &str) -> Self {
        self.pending.push(PendingInstr::Jmp(label.to_string()));
        self
    }

    /// Atomic fetch-and-add: `rd ← mem[raddr]; mem[raddr] += rval`.
    pub fn amo_add(mut self, rd: Reg, raddr: Reg, rval: Reg) -> Self {
        self.pending
            .push(PendingInstr::Ready(Instr::AmoAdd(rd, raddr, rval)));
        self
    }

    /// Stop the core.
    pub fn halt(mut self) -> Self {
        self.pending.push(PendingInstr::Ready(Instr::Halt));
        self
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildProgramError`] when a branch references an undefined
    /// label or the program is empty.
    pub fn build(self) -> Result<Program, BuildProgramError> {
        if self.pending.is_empty() {
            return Err(BuildProgramError::Empty);
        }
        let resolve = |name: &str| {
            self.labels
                .get(name)
                .copied()
                .ok_or_else(|| BuildProgramError::UndefinedLabel {
                    label: name.to_string(),
                })
        };
        let instrs = self
            .pending
            .iter()
            .map(|p| {
                Ok(match p {
                    PendingInstr::Ready(i) => *i,
                    PendingInstr::Beq(a, b, l) => Instr::Beq(*a, *b, resolve(l)?),
                    PendingInstr::Bne(a, b, l) => Instr::Bne(*a, *b, resolve(l)?),
                    PendingInstr::Blt(a, b, l) => Instr::Blt(*a, *b, resolve(l)?),
                    PendingInstr::Jmp(l) => Instr::Jmp(resolve(l)?),
                })
            })
            .collect::<Result<Vec<_>, BuildProgramError>>()?;
        Ok(Program { instrs })
    }
}

/// Failure modes of [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildProgramError {
    /// The program contained no instructions.
    Empty,
    /// A branch referenced a label that was never defined.
    UndefinedLabel {
        /// The missing label.
        label: String,
    },
}

impl fmt::Display for BuildProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildProgramError::Empty => f.write_str("program has no instructions"),
            BuildProgramError::UndefinedLabel { label } => {
                write!(f, "branch references undefined label {label:?}")
            }
        }
    }
}

impl Error for BuildProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_labels() {
        let program = Program::builder()
            .ldi(Reg::R1, 5)
            .label("top")
            .addi(Reg::R1, Reg::R1, -1)
            .bne(Reg::R1, Reg::R0, "top")
            .halt()
            .build()
            .expect("builds");
        assert_eq!(program.len(), 4);
        assert_eq!(program.instrs()[2], Instr::Bne(Reg::R1, Reg::R0, 1));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let err = Program::builder()
            .jmp("nowhere")
            .build()
            .expect_err("must fail");
        assert_eq!(
            err,
            BuildProgramError::UndefinedLabel {
                label: "nowhere".into()
            }
        );
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn empty_program_is_an_error() {
        assert_eq!(
            Program::builder().build().unwrap_err(),
            BuildProgramError::Empty
        );
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let _ = Program::builder().label("a").halt().label("a");
    }

    #[test]
    fn forward_references_work() {
        let program = Program::builder()
            .beq(Reg::R0, Reg::R0, "end")
            .ldi(Reg::R1, 99)
            .label("end")
            .halt()
            .build()
            .expect("builds");
        assert_eq!(program.instrs()[0], Instr::Beq(Reg::R0, Reg::R0, 2));
    }

    #[test]
    fn register_indices_and_display() {
        assert_eq!(Reg::R0.index(), 0);
        assert_eq!(Reg::R15.index(), 15);
        assert_eq!(Reg::R7.to_string(), "r7");
        assert_eq!(Reg::ALL.len(), 16);
    }

    #[test]
    fn program_is_empty_accessors() {
        let p = Program::builder().halt().build().expect("ok");
        assert!(!p.is_empty());
        assert_eq!(p.len(), 1);
    }
}
