//! Test and program/data-load scheduling (Sec. VII-B).
//!
//! Loading the wafer's memory over JTAG is the boot-time bottleneck: over
//! a single 1024-tile daisy chain it takes about 2.5 hours. The paper
//! splits the array into 32 row chains with independent TMS/TCK —
//! parallelising the load 32× (to "roughly under 5 minutes") and keeping
//! the broadcast nets light enough to clock at 10 MHz.

use std::fmt;

use wsp_common::units::{Hertz, Seconds};
use wsp_telemetry::Sink;

/// A test/load configuration: how many parallel chains, the TCK rate,
/// and whether intra-tile DAP broadcast is used for SPMD program loads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestSchedule {
    chains: u32,
    tck: Hertz,
    broadcast: bool,
}

impl TestSchedule {
    /// JTAG overhead per 32-bit data word, in TCKs.
    ///
    /// A DAP memory write is far more than 32 shifts: instruction-register
    /// transitions, address setup through the AP, capture/update states,
    /// and chain flushing. 256 TCK/word calibrates the model to the
    /// paper's "2.5 hours over a single chain" for the full 1.4 GB of
    /// wafer memory (512 MB shared + 896 MB core-private).
    pub const TCKS_PER_WORD: u64 = 256;

    /// Total bytes loaded when initialising the whole wafer: 512 MB of
    /// shared memory plus 14,336 cores × 64 KB of private SRAM.
    pub const PAPER_TOTAL_LOAD_BYTES: u64 = 512 * 1024 * 1024 + 14_336 * 64 * 1024;

    /// TCK frequency achievable with per-row TMS/TCK: 10 MHz.
    pub const PAPER_TCK: Hertz = Hertz(10.0e6);

    /// Number of row chains in the paper's multi-chain scheme.
    pub const PAPER_CHAINS: u32 = 32;

    /// The single-chain baseline (one daisy chain of all 1024 tiles).
    pub fn single_chain() -> Self {
        TestSchedule {
            chains: 1,
            tck: Self::PAPER_TCK,
            broadcast: false,
        }
    }

    /// The paper's production scheme: 32 row chains at 10 MHz.
    pub fn paper_multichain() -> Self {
        TestSchedule {
            chains: Self::PAPER_CHAINS,
            tck: Self::PAPER_TCK,
            broadcast: false,
        }
    }

    /// Creates a custom schedule.
    ///
    /// # Panics
    ///
    /// Panics if `chains` is zero or `tck` non-positive.
    pub fn new(chains: u32, tck: Hertz, broadcast: bool) -> Self {
        assert!(chains > 0, "at least one chain required");
        assert!(tck.value() > 0.0, "TCK must be positive");
        TestSchedule {
            chains,
            tck,
            broadcast,
        }
    }

    /// Returns a copy with intra-tile DAP broadcast enabled (applies to
    /// SPMD program loads, where all 14 cores receive the same image).
    pub fn with_broadcast(mut self) -> Self {
        self.broadcast = true;
        self
    }

    /// Number of parallel chains.
    #[inline]
    pub fn chains(&self) -> u32 {
        self.chains
    }

    /// TCK frequency.
    #[inline]
    pub fn tck(&self) -> Hertz {
        self.tck
    }

    /// Whether DAP broadcast is enabled.
    #[inline]
    pub fn broadcast(&self) -> bool {
        self.broadcast
    }

    /// Wall-clock time to shift `bytes` of unique per-core data onto the
    /// wafer.
    pub fn memory_load_time(&self, bytes: u64) -> Seconds {
        let words = bytes.div_ceil(4);
        let tcks = words * Self::TCKS_PER_WORD;
        let tcks_per_chain = tcks.div_ceil(u64::from(self.chains));
        Seconds(tcks_per_chain as f64 / self.tck.value())
    }

    /// Wall-clock time to load the same `bytes`-sized program image into
    /// every core of every tile. Broadcast mode shrinks the shifted data
    /// 14× (one image per tile instead of fourteen).
    pub fn program_broadcast_time(&self, bytes: u64, tiles_per_chain: u32) -> Seconds {
        let per_core_words = bytes.div_ceil(4);
        let images_per_tile: u64 = if self.broadcast { 1 } else { 14 };
        let tcks =
            per_core_words * Self::TCKS_PER_WORD * images_per_tile * u64::from(tiles_per_chain);
        Seconds(tcks as f64 / self.tck.value())
    }

    /// Speedup of this schedule over a reference for a whole-wafer load.
    pub fn speedup_over(&self, reference: &TestSchedule, bytes: u64) -> f64 {
        reference.memory_load_time(bytes).value() / self.memory_load_time(bytes).value()
    }

    /// Emits the load of `bytes` as `dft` trace events: one span per
    /// parallel chain (track = chain index, timestamps in microseconds of
    /// wall-clock shift time) plus summary gauges. The chains shift
    /// concurrently, so every span covers the same interval — the trace
    /// shows the parallelism directly.
    pub fn trace_load(&self, bytes: u64, sink: &mut dyn Sink) {
        if !sink.enabled() {
            return;
        }
        let seconds = self.memory_load_time(bytes);
        let micros = (seconds.value() * 1e6) as u64;
        for chain in 0..self.chains {
            sink.span("dft", "chain_shift", u64::from(chain), 0, micros);
        }
        sink.instant(
            "dft",
            "load_complete",
            0,
            micros,
            &[("bytes", bytes as f64), ("chains", f64::from(self.chains))],
        );
        sink.gauge_set("dft.load_seconds", seconds.value());
        sink.gauge_set("dft.chains", f64::from(self.chains));
        sink.gauge_set("dft.tck_hz", self.tck.value());
    }
}

impl fmt::Display for TestSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chain(s) at {:.0} MHz{}",
            self.chains,
            self.tck.as_megahertz(),
            if self.broadcast { " + broadcast" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_load_takes_hours() {
        // Paper: "2.5 hours (with a single chain)".
        let t = TestSchedule::single_chain().memory_load_time(TestSchedule::PAPER_TOTAL_LOAD_BYTES);
        assert!(
            (2.0..3.2).contains(&t.as_hours()),
            "single-chain load {:.2} h",
            t.as_hours()
        );
    }

    #[test]
    fn multichain_load_is_under_five_minutes() {
        // Paper: "roughly under 5 minutes" with 32 chains.
        let t =
            TestSchedule::paper_multichain().memory_load_time(TestSchedule::PAPER_TOTAL_LOAD_BYTES);
        assert!(
            t.as_minutes() < 5.5,
            "multi-chain load {:.2} min",
            t.as_minutes()
        );
        assert!(t.as_minutes() > 2.0);
    }

    #[test]
    fn multichain_speedup_is_32x() {
        let single = TestSchedule::single_chain();
        let multi = TestSchedule::paper_multichain();
        let s = multi.speedup_over(&single, TestSchedule::PAPER_TOTAL_LOAD_BYTES);
        assert!((31.0..33.0).contains(&s), "speedup {s}");
    }

    #[test]
    fn broadcast_cuts_program_load_14x() {
        let serial = TestSchedule::paper_multichain();
        let broadcast = TestSchedule::paper_multichain().with_broadcast();
        let image = 16 * 1024; // 16 KB kernel image
        let t_serial = serial.program_broadcast_time(image, 32);
        let t_broadcast = broadcast.program_broadcast_time(image, 32);
        let ratio = t_serial.value() / t_broadcast.value();
        assert!((13.9..14.1).contains(&ratio), "broadcast ratio {ratio}");
    }

    #[test]
    fn load_time_scales_inversely_with_chains_and_tck() {
        let base = TestSchedule::new(1, Hertz(1.0e6), false);
        let fast = TestSchedule::new(4, Hertz(2.0e6), false);
        let bytes = 1 << 20;
        let ratio = base.memory_load_time(bytes).value() / fast.memory_load_time(bytes).value();
        assert!((7.9..8.1).contains(&ratio));
    }

    #[test]
    fn paper_total_bytes_breakdown() {
        // 512 MB shared + 896 MB private = 1408 MB.
        assert_eq!(TestSchedule::PAPER_TOTAL_LOAD_BYTES, 1408 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn zero_chains_rejected() {
        let _ = TestSchedule::new(0, Hertz(1e6), false);
    }

    #[test]
    fn trace_load_emits_one_span_per_chain() {
        use wsp_telemetry::{NoopSink, Recorder};

        let mut recorder = Recorder::new();
        let schedule = TestSchedule::paper_multichain();
        schedule.trace_load(TestSchedule::PAPER_TOTAL_LOAD_BYTES, &mut recorder);
        assert_eq!(recorder.tracer.span_count("dft"), 32);
        // Every chain shifts for the same wall-clock interval.
        let expected = (schedule
            .memory_load_time(TestSchedule::PAPER_TOTAL_LOAD_BYTES)
            .value()
            * 1e6) as u64;
        assert!(recorder
            .tracer
            .events()
            .iter()
            .filter(|e| e.name == "chain_shift")
            .all(|e| e.duration == Some(expected)));
        assert_eq!(recorder.registry.gauge("dft.chains"), Some(32.0));

        // A disabled sink returns before formatting anything.
        let mut noop = NoopSink;
        schedule.trace_load(1024, &mut noop);
    }

    #[test]
    fn display_mentions_configuration() {
        let s = TestSchedule::paper_multichain()
            .with_broadcast()
            .to_string();
        assert!(s.contains("32 chain(s)"));
        assert!(s.contains("10 MHz"));
        assert!(s.contains("broadcast"));
    }
}
