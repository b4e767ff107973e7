//! Progressive multi-chiplet JTAG chain unrolling (Fig. 10).
//!
//! On power-up every tile's scan path is in *loop-back* mode: its TDO
//! returns towards the controller through the TDI-bypass/TDO-loop wiring
//! of the tiles before it, so the chain effectively ends at the first
//! tile still in loop-back. Testing proceeds one chiplet at a time: test
//! the loop-backed tile; if it passes, switch it to *forward* mode, which
//! exposes the next tile; repeat. The first step whose response is wrong
//! pinpoints the faulty chiplet — and the same procedure run *during*
//! assembly catches bad bonds before more known-good dies are wasted on a
//! doomed wafer.

use std::fmt;

/// Result of testing one position during the unroll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStep {
    /// Position in the chain (0 = nearest the controller).
    pub position: usize,
    /// Whether the test pattern came back intact.
    pub passed: bool,
    /// TCKs spent on this step.
    pub tcks: u64,
}

/// Outcome of progressively unrolling one chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrollOutcome {
    steps: Vec<ChainStep>,
    first_faulty: Option<usize>,
    chain_len: usize,
}

impl UnrollOutcome {
    /// Per-position test log.
    pub fn steps(&self) -> &[ChainStep] {
        &self.steps
    }

    /// The first faulty position, if any was found.
    #[inline]
    pub fn first_faulty(&self) -> Option<usize> {
        self.first_faulty
    }

    /// Number of chiplets verified good.
    pub fn verified_good(&self) -> usize {
        self.steps.iter().filter(|s| s.passed).count()
    }

    /// Total TCKs spent.
    pub fn total_tcks(&self) -> u64 {
        self.steps.iter().map(|s| s.tcks).sum()
    }
}

impl fmt::Display for UnrollOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.first_faulty {
            Some(p) => write!(
                f,
                "chain unroll: {} good, faulty chiplet at position {p}",
                self.verified_good()
            ),
            None => write!(
                f,
                "chain unroll: all {} chiplets good",
                self.verified_good()
            ),
        }
    }
}

/// Simulator of the progressive unrolling procedure over one chain of
/// tiles.
///
/// # Examples
///
/// ```
/// use wsp_dft::ProgressiveUnroll;
///
/// // 32-tile row chain with a bad bond at position 20.
/// let unroll = ProgressiveUnroll::new(32, 16);
/// let outcome = unroll.run(|pos| pos != 20);
/// assert_eq!(outcome.first_faulty(), Some(20));
/// assert_eq!(outcome.verified_good(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressiveUnroll {
    chain_len: usize,
    pattern_bits: usize,
}

impl ProgressiveUnroll {
    /// Creates an unroll procedure for a chain of `chain_len` tiles using
    /// `pattern_bits`-bit test patterns.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(chain_len: usize, pattern_bits: usize) -> Self {
        assert!(chain_len > 0, "chain must contain at least one tile");
        assert!(pattern_bits > 0, "test pattern must be non-empty");
        ProgressiveUnroll {
            chain_len,
            pattern_bits,
        }
    }

    /// Chain length.
    #[inline]
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// Runs the unroll. `tile_healthy(pos)` is ground truth: a healthy
    /// tile echoes the test pattern correctly through its scan path, a
    /// faulty one corrupts it (modelled as stuck-at-0).
    ///
    /// Testing position `k` shifts the pattern through the `k` already-
    /// forwarded tiles and back through their bypass path, so the cost of
    /// step `k` grows linearly — the controller sees exactly one new DAP
    /// per step (Sec. VII: "each chiplet in the chain can be tested
    /// progressively and independently").
    pub fn run<F>(&self, tile_healthy: F) -> UnrollOutcome
    where
        F: Fn(usize) -> bool,
    {
        let mut steps = Vec::new();
        let mut first_faulty = None;
        for pos in 0..self.chain_len {
            // Pattern traverses `pos` forwarded tiles, the tile under
            // test, and `pos` bypass stages on the way back: each stage a
            // 1-bit delay, plus the pattern itself.
            let tcks = (self.pattern_bits + 2 * pos + 1) as u64;
            // The response is intact iff every tile it passed through is
            // healthy; tiles 0..pos already tested good, so in practice
            // the tile under test decides.
            let passed = tile_healthy(pos);
            steps.push(ChainStep {
                position: pos,
                passed,
                tcks,
            });
            if !passed {
                first_faulty = Some(pos);
                break;
            }
        }
        UnrollOutcome {
            steps,
            first_faulty,
            chain_len: self.chain_len,
        }
    }

    /// Runs the unroll during assembly, after only `bonded` tiles have
    /// been placed: verifies the partial chain so a bad early bond is
    /// caught before more known-good dies are committed.
    pub fn run_partial<F>(&self, bonded: usize, tile_healthy: F) -> UnrollOutcome
    where
        F: Fn(usize) -> bool,
    {
        ProgressiveUnroll::new(bonded.clamp(1, self.chain_len), self.pattern_bits).run(tile_healthy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_chain_tests_all_positions() {
        let outcome = ProgressiveUnroll::new(32, 16).run(|_| true);
        assert_eq!(outcome.verified_good(), 32);
        assert_eq!(outcome.first_faulty(), None);
        assert_eq!(outcome.steps().len(), 32);
    }

    #[test]
    fn faulty_tile_is_localised() {
        let outcome = ProgressiveUnroll::new(32, 16).run(|pos| pos != 7);
        assert_eq!(outcome.first_faulty(), Some(7));
        assert_eq!(outcome.verified_good(), 7);
        // Testing stopped at the fault.
        assert_eq!(outcome.steps().len(), 8);
    }

    #[test]
    fn first_of_multiple_faults_is_reported() {
        let outcome = ProgressiveUnroll::new(32, 16).run(|pos| pos != 5 && pos != 20);
        assert_eq!(outcome.first_faulty(), Some(5));
    }

    #[test]
    fn step_cost_grows_with_unrolled_depth() {
        let outcome = ProgressiveUnroll::new(8, 16).run(|_| true);
        let costs: Vec<u64> = outcome.steps().iter().map(|s| s.tcks).collect();
        for w in costs.windows(2) {
            assert_eq!(
                w[1] - w[0],
                2,
                "each step adds one forward + one bypass bit"
            );
        }
        assert_eq!(costs[0], 17);
        assert_eq!(outcome.total_tcks(), costs.iter().sum::<u64>());
    }

    #[test]
    fn during_assembly_testing_checks_partial_chain() {
        let unroll = ProgressiveUnroll::new(32, 16);
        // Only 10 tiles bonded so far; tile 9 has a bad bond.
        let outcome = unroll.run_partial(10, |pos| pos != 9);
        assert_eq!(outcome.first_faulty(), Some(9));
        assert_eq!(outcome.verified_good(), 9);
        // With all bonds good, the partial chain passes.
        let ok = unroll.run_partial(10, |_| true);
        assert_eq!(ok.first_faulty(), None);
        assert_eq!(ok.steps().len(), 10);
        assert_eq!(ok.verified_good(), 10);
    }

    #[test]
    fn faulty_first_tile_blocks_whole_chain() {
        let outcome = ProgressiveUnroll::new(32, 16).run(|pos| pos != 0);
        assert_eq!(outcome.first_faulty(), Some(0));
        assert_eq!(outcome.verified_good(), 0);
    }

    #[test]
    fn display_reports_location() {
        let bad = ProgressiveUnroll::new(8, 4).run(|pos| pos != 3);
        assert!(bad.to_string().contains("position 3"));
        let good = ProgressiveUnroll::new(8, 4).run(|_| true);
        assert!(good.to_string().contains("all 8"));
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn empty_chain_rejected() {
        let _ = ProgressiveUnroll::new(0, 16);
    }
}
