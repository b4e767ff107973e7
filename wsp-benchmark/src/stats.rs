//! Order statistics for reporting and for `compare`.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed here is the spread a
//! reader recomputes from the same values with the standard library.

/// Fewest samples that must lie beyond a reported percentile.
const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three cut points `[q1, median, q3]`, or `None` for no samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = ld + 1;
            Some([1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            }))
        }
    }
}

/// The median, or `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

/// Nearest-rank percentile `p` in `(0, 1)`, reported only when at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it; `None` otherwise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&p) {
        return None;
    }
    let data = sorted(values);
    let rank = ((p * data.len() as f64).ceil() as usize).max(1);
    (data.len() >= rank + MIN_TAIL_SAMPLES).then(|| data[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates beyond two points.
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let w: Vec<f64> = v.iter().map(|x| x * 1000.0).collect();
        assert_eq!(relative_iqr(&v), Some(5.5 / 5.5));
        assert_eq!(relative_iqr(&v), relative_iqr(&w));
        assert_eq!(relative_iqr(&[0.0, 0.0]), Some(0.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // p95 leaves 5: not reportable.
        assert_eq!(percentile(&v, 0.95), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(percentile(&big[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.0), None);
    }
}
