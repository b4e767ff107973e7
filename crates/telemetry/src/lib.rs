//! Workspace-wide telemetry: a metric registry, an event tracer, and the
//! machine-readable report format the bench binaries emit.
//!
//! The paper's design analyses — IR drop, clock skew, NoC hot spots, test
//! time — are all quantitative, and every optimisation PR needs a number
//! to move. This crate is the one place those numbers flow through:
//!
//! * [`Registry`] holds named counters (saturating), gauges, log2-bucketed
//!   [`Histogram`]s with p50/p95/p99, and small numeric series (heat
//!   maps), and serialises them to a stable JSON schema.
//! * [`Tracer`] records spans and instant events and serialises them to
//!   the Chrome trace-event format, loadable in Perfetto or
//!   `chrome://tracing`.
//! * [`Sink`] is the trait instrumented subsystems talk to. The default
//!   [`NoopSink`] makes every hook a non-inlined-but-empty virtual call,
//!   so hot paths cost nothing measurable when telemetry is off;
//!   [`SharedRecorder`] is the cheap-to-clone handle that turns the same
//!   hooks into recorded data.
//!
//! # Metric naming convention
//!
//! Dot-separated `subsystem.object.metric`, lower_snake_case leaves, with
//! the unit as the final suffix where one exists: `fabric.link.stall_cycles`,
//! `machine.remote_latency_cycles`, `pdn.solve.iterations`. Per-tile
//! breakdowns are recorded as *histograms* over tiles (one sample per
//! tile), not one metric per tile, so the schema stays fixed as arrays
//! scale from 2×2 to 32×32.
//!
//! # Examples
//!
//! ```
//! use wsp_telemetry::{Registry, SharedRecorder, Sink};
//!
//! let recorder = SharedRecorder::new();
//! let mut sink = recorder.boxed();
//! sink.counter_add("fabric.link_traversals", 128);
//! sink.histogram_record("machine.remote_latency_cycles", 42);
//! sink.span("machine", "run", 0, 0, 1000);
//! let json = recorder.metrics_json("example");
//! assert!(json.contains("\"fabric.link_traversals\":128"));
//! let trace = recorder.trace_json();
//! assert!(trace.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]

mod digest;
mod profiler;
mod registry;
mod sampler;
mod sink;
mod trace;

pub use digest::{
    first_divergence, DigestJournal, DigestWindow, Divergence, Fnv1a, LaneId, DEFAULT_DIGEST_EVERY,
    JOURNAL_MAGIC,
};
pub use profiler::{profile_rollup, PhaseProfiler, PhaseStat, ProfileRow, PROFILE_GAUGE_PREFIX};
pub use registry::{Histogram, Registry, HISTOGRAM_BUCKETS};
pub use sampler::{TimeSeries, DEFAULT_SAMPLE_EVERY, DEFAULT_SERIES_CAPACITY};
pub use sink::{NoopSink, Recorder, SharedRecorder, Sink};
pub use trace::{TraceEvent, Tracer};

/// Identifier of the machine-readable report schema emitted by
/// [`Registry::to_json_report`]; bump when the layout changes shape.
/// v2 added the `"timeseries"` section and 9-significant-digit float
/// formatting.
pub const REPORT_SCHEMA: &str = "wsp-bench-v2";

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub(crate) fn push_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float as a JSON number token (`null` for non-finite values,
/// which JSON cannot represent). Non-integral values are rounded to 9
/// significant digits before printing, so near-identical runs cannot
/// churn goldens and diffs with `10.882882882882884`-style expansions of
/// last-bit noise.
pub(crate) fn push_json_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        let rounded: f64 = format!("{v:.8e}").parse().unwrap_or(v);
        if rounded.fract() == 0.0 && rounded.abs() < 1e15 {
            out.push_str(&format!("{}", rounded as i64));
        } else {
            out.push_str(&format!("{rounded}"));
        }
    }
}
