//! Named metrics: saturating counters, gauges, log2-bucketed histograms,
//! and small numeric series, with a stable JSON report format.

use std::collections::BTreeMap;

use crate::sampler::push_timeseries_json;
use crate::{push_json_f64, push_json_string, TimeSeries, REPORT_SCHEMA};

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value `0`,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the last bucket
/// absorbs everything from `2^63` up.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Exact count, saturating sum, min and max are tracked alongside the
/// buckets, so means are exact and percentile estimates are clamped into
/// `[min, max]`.
///
/// # Examples
///
/// ```
/// use wsp_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 4, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 100);
/// assert!(h.percentile(0.50) <= h.percentile(0.95));
/// assert!(h.percentile(0.99) <= h.max());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The smallest value bucket `index` can hold.
    #[inline]
    pub fn bucket_floor(index: usize) -> u64 {
        match index {
            0 => 0,
            i => 1u64 << (i - 1),
        }
    }

    /// The largest value bucket `index` can hold.
    #[inline]
    pub fn bucket_ceiling(index: usize) -> u64 {
        match index {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one sample. The running sum, count, and bucket occupancy
    /// all saturate rather than wrapping.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = &mut self.buckets[Self::bucket_index(value)];
        *bucket = bucket.saturating_add(1);
    }

    /// Records the same sample `n` times in O(1) — the bulk-replay path
    /// event-wheel skips use to account every skipped cycle without
    /// walking them. Equivalent to `n` calls to [`record`](Self::record)
    /// (the saturating sum makes `value * n` and `n` separate adds agree
    /// even at the ceiling).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] =
            self.buckets[Self::bucket_index(value)].saturating_add(n);
    }

    /// Samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket occupancy, for boundary tests and exports.
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Merges another histogram into this one bucket-wise: counts and
    /// sums add (saturating), min/max widen. Used by subsystems that
    /// aggregate samples locally (e.g. the fabric's per-cycle active-set
    /// sizes) and export the finished histogram once.
    pub fn merge_from(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// The raw state `(count, sum, min, max, buckets)` — `min` is the
    /// *internal* sentinel (`u64::MAX` when empty), not the clamped
    /// [`min`](Self::min) accessor — for checkpoint serialisation.
    /// Round-trips exactly through [`from_raw`](Self::from_raw).
    pub fn to_raw(&self) -> (u64, u64, u64, u64, [u64; HISTOGRAM_BUCKETS]) {
        (self.count, self.sum, self.min, self.max, self.buckets)
    }

    /// Reconstructs a histogram from [`to_raw`](Self::to_raw) parts, the
    /// restore half of the serving layer's snapshot format.
    pub fn from_raw(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: [u64; HISTOGRAM_BUCKETS],
    ) -> Self {
        Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }

    /// Estimated value at percentile `p` (in `[0, 1]`): the ceiling of the
    /// bucket containing the rank-`⌈p·count⌉` sample, clamped into
    /// `[min, max]`. Monotone in `p` by construction, and 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            // Saturating: after ~2^64 recorded samples the bucket counts
            // are themselves saturated, and a wrapping scan here could
            // walk past the target rank and report a garbage percentile.
            seen = seen.saturating_add(n);
            if seen >= target {
                return Self::bucket_ceiling(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

/// The workspace metric registry: every named metric a run produced,
/// ready to serialise into one machine-readable report.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<f64>>,
    timeseries: BTreeMap<String, TimeSeries>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the named counter, saturating at `u64::MAX`.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the named histogram.
    pub fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Merges a locally aggregated histogram into the named histogram.
    pub fn histogram_merge(&mut self, name: &str, hist: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge_from(hist);
    }

    /// Replaces the named series (e.g. a row-major per-tile heat map).
    pub fn series_set(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.series
            .insert(name.to_string(), values.into_iter().collect());
    }

    /// Stores a locally sampled time series under `name` (replacing any
    /// previous one) — the aggregation hook mirroring
    /// [`Registry::histogram_merge`]: subsystems sample on their own
    /// clock into a [`TimeSeries`] and export it once.
    pub fn timeseries_merge(&mut self, name: &str, series: &TimeSeries) {
        self.timeseries.insert(name.to_string(), series.clone());
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The named series, if set.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// The named time series, if exported.
    pub fn timeseries(&self, name: &str) -> Option<&TimeSeries> {
        self.timeseries.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
            && self.timeseries.is_empty()
    }

    /// Serialises the metric sections alone (no envelope): an object with
    /// `counters`, `gauges`, `histograms`, and `series` members. Keys are
    /// emitted in sorted order, so output is deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(name, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(name, &mut out);
            out.push(':');
            push_json_f64(*v, &mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(name, &mut out);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            ));
            push_json_f64(h.mean(), &mut out);
            out.push_str(&format!(
                ",\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99)
            ));
        }
        out.push_str("},\"series\":{");
        for (i, (name, values)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(name, &mut out);
            out.push_str(":[");
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_f64(*v, &mut out);
            }
            out.push(']');
        }
        out.push_str("},\"timeseries\":");
        push_timeseries_json(&self.timeseries, &mut out);
        out.push('}');
        out
    }

    /// Serialises the full machine-readable bench report: an envelope with
    /// the schema identifier, the producing bench's name, and the metric
    /// sections under `metrics`.
    pub fn to_json_report(&self, bench: &str) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"schema\":");
        push_json_string(REPORT_SCHEMA, &mut out);
        out.push_str(",\"bench\":");
        push_json_string(bench, &mut out);
        out.push_str(",\"metrics\":");
        out.push_str(&self.to_json());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(255), 8);
        assert_eq!(Histogram::bucket_index(256), 9);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..64 {
            // Floors and ceilings tile the u64 range with no gaps.
            assert_eq!(
                Histogram::bucket_floor(i),
                Histogram::bucket_ceiling(i - 1) + 1
            );
            assert_eq!(Histogram::bucket_index(Histogram::bucket_floor(i)), i);
            assert_eq!(Histogram::bucket_index(Histogram::bucket_ceiling(i)), i);
        }
    }

    #[test]
    fn histogram_tracks_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
        for v in [5u64, 9, 1, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 215);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 200);
        assert!((h.mean() - 53.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_sum_saturates() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut looped = Histogram::new();
        let mut bulk = Histogram::new();
        looped.record(9);
        bulk.record(9);
        for _ in 0..1_000 {
            looped.record(70);
        }
        bulk.record_n(70, 1_000);
        bulk.record_n(3, 0); // no-op, must not disturb min
        assert_eq!(looped, bulk);
        assert_eq!(bulk.min(), 9);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 0, "p{p} on empty histogram");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn record_n_near_u64_max_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record_n(5, u64::MAX - 1);
        h.record_n(5, 7); // would wrap count and the bucket without saturation
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.bucket_counts()[Histogram::bucket_index(5)], u64::MAX);
        // Percentiles stay sane on a saturated histogram: all mass sits in
        // the value-5 bucket, so every percentile clamps to 5.
        assert_eq!(h.percentile(0.5), 5);
        assert_eq!(h.percentile(0.99), 5);
        // A further plain record must not wrap the saturated bucket either.
        h.record(5);
        assert_eq!(h.bucket_counts()[Histogram::bucket_index(5)], u64::MAX);
        // And merge_from on two saturated histograms stays saturated.
        let other = h.clone();
        h.merge_from(&other);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.bucket_counts()[Histogram::bucket_index(5)], u64::MAX);
        assert_eq!(h.percentile(0.95), 5);
    }

    #[test]
    fn raw_parts_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 9, 1_000_000] {
            h.record(v);
        }
        let (count, sum, min, max, buckets) = h.to_raw();
        assert_eq!(Histogram::from_raw(count, sum, min, max, buckets), h);
        // The empty histogram round-trips too (internal min sentinel).
        let empty = Histogram::new();
        let (count, sum, min, max, buckets) = empty.to_raw();
        assert_eq!(min, u64::MAX);
        let back = Histogram::from_raw(count, sum, min, max, buckets);
        assert_eq!(back, empty);
        assert_eq!(back.min(), 0);
    }

    #[test]
    fn record_n_saturates_like_repeated_record() {
        let mut looped = Histogram::new();
        let mut bulk = Histogram::new();
        for _ in 0..3 {
            looped.record(u64::MAX);
        }
        bulk.record_n(u64::MAX, 3);
        assert_eq!(looped.sum(), bulk.sum());
        assert_eq!(looped.count(), bulk.count());
    }

    #[test]
    fn percentiles_clamp_to_observed_range() {
        let mut h = Histogram::new();
        // All mass in bucket [64, 127], but max observed is 70: the bucket
        // ceiling (127) must clamp down to 70.
        for _ in 0..100 {
            h.record(70);
        }
        assert_eq!(h.percentile(0.5), 70);
        assert_eq!(h.percentile(0.99), 70);
        assert_eq!(h.percentile(0.0), 70);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_percentile_rejected() {
        Histogram::new().percentile(1.01);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut r = Registry::new();
        r.counter_add("c", u64::MAX - 2);
        r.counter_add("c", 17);
        assert_eq!(r.counter("c"), u64::MAX);
    }

    #[test]
    fn registry_round_trip_accessors() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.counter_add("a.b", 3);
        r.gauge_set("g", 2.5);
        r.histogram_record("h", 7);
        r.series_set("s", [1.0, 2.0]);
        assert!(!r.is_empty());
        assert_eq!(r.counter("a.b"), 3);
        assert_eq!(r.gauge("g"), Some(2.5));
        assert_eq!(r.histogram("h").map(Histogram::count), Some(1));
        assert_eq!(r.series("s"), Some([1.0, 2.0].as_slice()));
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn json_report_has_stable_shape() {
        let mut r = Registry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 2);
        r.gauge_set("not\"plain", f64::NAN);
        r.histogram_record("h", 3);
        let json = r.to_json_report("unit");
        // Sorted counter keys, escaped gauge key, NaN emitted as null.
        assert!(json.contains("\"counters\":{\"a\":2,\"z\":1}"));
        assert!(json.contains("\"not\\\"plain\":null"));
        assert!(json.contains("\"schema\":\"wsp-bench-v2\""));
        assert!(json.contains("\"bench\":\"unit\""));
        assert!(json.contains("\"timeseries\":{}"));
    }

    #[test]
    fn timeseries_export_round_trips_through_registry() {
        let mut r = Registry::new();
        let mut s = TimeSeries::new(4);
        s.record(4, 1.0);
        s.record(8, 2.0);
        r.timeseries_merge("fabric.active_tiles", &s);
        assert_eq!(r.timeseries("fabric.active_tiles"), Some(&s));
        assert!(!r.is_empty());
        let json = r.to_json();
        assert!(json.contains(
            "\"timeseries\":{\"fabric.active_tiles\":{\"every\":4,\"stride\":1,\
             \"cycles\":[4,8],\"values\":[1,2]}}"
        ));
    }

    #[test]
    fn json_floats_round_to_nine_significant_digits() {
        let mut r = Registry::new();
        r.gauge_set("g", 10.882882882882884);
        r.gauge_set("tiny", 1.0000000001);
        r.gauge_set("neg", -0.123456789123);
        let json = r.to_json();
        assert!(json.contains("\"g\":10.8828829"), "{json}");
        assert!(json.contains("\"tiny\":1"), "{json}");
        assert!(json.contains("\"neg\":-0.123456789"), "{json}");
    }
}
