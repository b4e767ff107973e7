//! Bounded time-series sampling: a ring-buffer of `(cycle, value)`
//! points with deterministic decimation, so a run of any length fits in
//! a fixed budget and the kept points are a pure function of the sample
//! stream (never of wall-clock or thread scheduling).

use std::collections::BTreeMap;

use crate::{push_json_f64, push_json_string};

/// Default maximum number of retained points per series.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// Default sampling cadence (cycles between samples) used by the bench
/// binaries' `--sample-every` flag.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// A bounded time series of gauge samples.
///
/// Samples are accepted only on cycles that are multiples of the current
/// *cadence* (`every × stride`). When the buffer reaches capacity the
/// series **decimates**: the stride doubles and every retained point
/// whose cycle is not a multiple of the new cadence is dropped. Both the
/// acceptance rule and the decimation rule depend only on the cycle
/// numbers, so two runs that sample the same values at the same cycles
/// keep byte-identical series — regardless of stepping mode or how
/// often the buffer wrapped.
///
/// # Examples
///
/// ```
/// use wsp_telemetry::TimeSeries;
///
/// let mut s = TimeSeries::with_capacity(10, 4);
/// for cycle in 1..=200 {
///     s.record(cycle, cycle as f64);
/// }
/// assert!(s.len() <= 4);
/// // Every survivor sits on the decimated cadence.
/// assert!(s.points().iter().all(|&(c, _)| c % s.cadence() == 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    every: u64,
    stride: u64,
    capacity: usize,
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// A series sampling every `every` cycles with the default capacity.
    /// `every == 0` disables the series (records nothing).
    pub fn new(every: u64) -> Self {
        TimeSeries::with_capacity(every, DEFAULT_SERIES_CAPACITY)
    }

    /// A series with an explicit point budget (`capacity >= 2`).
    pub fn with_capacity(every: u64, capacity: usize) -> Self {
        TimeSeries {
            every,
            stride: 1,
            capacity: capacity.max(2),
            points: Vec::new(),
        }
    }

    /// Base sampling cadence in cycles (0 = disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Current decimation multiplier (a power of two).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Effective cadence: a sample is kept iff its cycle is a multiple
    /// of this.
    pub fn cadence(&self) -> u64 {
        self.every.saturating_mul(self.stride)
    }

    /// Maximum number of retained points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained `(cycle, value)` points in ascending cycle order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether a sample at `cycle` would currently be accepted. Callers
    /// with expensive-to-compute gauges gate on this before sampling.
    #[inline]
    pub fn wants(&self, cycle: u64) -> bool {
        self.every != 0 && cycle != 0 && cycle.is_multiple_of(self.cadence())
    }

    /// Offers one sample. Ignored off-cadence (including cycle 0 — the
    /// pre-run state); decimates first when the buffer is full.
    pub fn record(&mut self, cycle: u64, value: f64) {
        if !self.wants(cycle) {
            return;
        }
        while self.points.len() >= self.capacity {
            self.decimate();
            if !self.wants(cycle) {
                return;
            }
        }
        self.points.push((cycle, value));
    }

    /// Doubles the stride and drops every retained point that is no
    /// longer on the widened cadence. Terminates because any non-zero
    /// cycle stops dividing `every × 2^k` once that exceeds it.
    fn decimate(&mut self) {
        self.stride = self.stride.saturating_mul(2);
        let cadence = self.cadence();
        self.points.retain(|&(c, _)| c % cadence == 0);
    }
}

/// Serialises a map of named series as the `"timeseries"` JSON section:
/// `{"name":{"every":64,"stride":1,"cycles":[...],"values":[...]}}`.
pub(crate) fn push_timeseries_json(map: &BTreeMap<String, TimeSeries>, out: &mut String) {
    out.push('{');
    for (i, (name, s)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(name, out);
        out.push_str(&format!(
            ":{{\"every\":{},\"stride\":{},\"cycles\":[",
            s.every(),
            s.stride()
        ));
        for (j, (c, _)) in s.points().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{c}"));
        }
        out.push_str("],\"values\":[");
        for (j, (_, v)) in s.points().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_f64(*v, out);
        }
        out.push_str("]}");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_series_records_nothing() {
        let mut s = TimeSeries::new(0);
        s.record(64, 1.0);
        assert!(s.is_empty());
        assert!(!s.wants(64));
    }

    #[test]
    fn off_cadence_and_cycle_zero_samples_are_ignored() {
        let mut s = TimeSeries::new(10);
        s.record(0, 1.0);
        s.record(5, 2.0);
        s.record(10, 3.0);
        assert_eq!(s.points(), &[(10, 3.0)]);
    }

    #[test]
    fn decimation_keeps_buffer_bounded_and_on_cadence() {
        let mut s = TimeSeries::with_capacity(1, 8);
        for cycle in 1..=1000u64 {
            s.record(cycle, cycle as f64);
        }
        assert!(s.len() <= 8);
        assert!(s.stride() > 1);
        let cadence = s.cadence();
        assert!(s.points().iter().all(|&(c, _)| c % cadence == 0));
        // Values ride along with their cycles.
        assert!(s.points().iter().all(|&(c, v)| v == c as f64));
    }

    #[test]
    fn decimation_is_a_pure_function_of_the_sample_stream() {
        let feed = |n: u64| {
            let mut s = TimeSeries::with_capacity(4, 16);
            for cycle in 1..=n {
                s.record(cycle, (cycle * 7 % 13) as f64);
            }
            s
        };
        assert_eq!(feed(10_000), feed(10_000));
    }

    #[test]
    fn json_section_shape() {
        let mut map = BTreeMap::new();
        let mut s = TimeSeries::new(2);
        s.record(2, 1.5);
        s.record(4, 2.0);
        map.insert("f.x".to_string(), s);
        let mut out = String::new();
        push_timeseries_json(&map, &mut out);
        assert_eq!(
            out,
            "{\"f.x\":{\"every\":2,\"stride\":1,\"cycles\":[2,4],\"values\":[1.5,2]}}"
        );
    }
}
