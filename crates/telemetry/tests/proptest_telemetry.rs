//! Property tests for the telemetry core: histogram percentile ordering,
//! bucket boundary identities, counter saturation, and time-series
//! decimation determinism.

use proptest::prelude::*;
use wsp_telemetry::{Histogram, Registry, TimeSeries};

proptest! {
    /// p50 ≤ p95 ≤ p99 ≤ max for any sample set, and every percentile
    /// stays within the observed [min, max] range.
    #[test]
    fn percentiles_are_ordered_and_bounded(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        prop_assert!(p99 <= h.max(), "p99 {p99} > max {}", h.max());
        prop_assert!(p50 >= h.min(), "p50 {p50} < min {}", h.min());
    }

    /// Every value lands in a bucket whose [floor, ceiling] contains it.
    #[test]
    fn bucket_bounds_contain_their_values(value in any::<u64>()) {
        let idx = Histogram::bucket_index(value);
        prop_assert!(Histogram::bucket_floor(idx) <= value);
        prop_assert!(value <= Histogram::bucket_ceiling(idx));
    }

    /// The count always equals the number of samples and the mean lies in
    /// [min, max] (histograms never lose or invent samples).
    #[test]
    fn count_and_mean_are_consistent(samples in proptest::collection::vec(0u64..1_000, 1..100)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let bucket_total: u64 = h.bucket_counts().iter().sum();
        prop_assert_eq!(bucket_total, samples.len() as u64);
        prop_assert!(h.mean() >= h.min() as f64);
        prop_assert!(h.mean() <= h.max() as f64);
    }

    /// Counters saturate at u64::MAX no matter the increment sequence.
    #[test]
    fn counters_saturate(increments in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mut r = Registry::new();
        r.counter_add("c", u64::MAX - 1);
        for &d in &increments {
            r.counter_add("c", d);
        }
        let v = r.counter("c");
        prop_assert!(v >= u64::MAX - 1);
    }

    /// A decimating time series is a pure function of the cycle stream:
    /// replaying the same stream yields identical points, the buffer
    /// never exceeds its capacity, and every kept cycle sits on the
    /// final stride's cadence. This is the property that lets the
    /// `timeseries` section live inside the byte-compared smoke goldens.
    #[test]
    fn series_decimation_is_deterministic(
        every in 1u64..8,
        capacity in 2usize..16,
        cycles in 1u64..2_000,
    ) {
        let run = || {
            let mut s = TimeSeries::with_capacity(every, capacity);
            for cycle in 1..=cycles {
                if s.wants(cycle) {
                    s.record(cycle, cycle as f64);
                }
            }
            s
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.points(), b.points());
        prop_assert_eq!(a.stride(), b.stride());
        prop_assert!(a.len() <= a.capacity());
        for &(cycle, value) in a.points() {
            prop_assert_eq!(cycle % a.cadence(), 0, "cycle {} off cadence {}", cycle, a.cadence());
            prop_assert_eq!(value, cycle as f64, "value survived decimation unchanged");
        }
    }
}
