//! `compare A/results.json B/results.json`: parent A against change B,
//! per workload and end-to-end metric, under the bounds in
//! [`END_TO_END`].
//!
//! Each run in a results file contributes its value of each metric. A
//! side needs three runs before its spread counts and ten pairs for
//! `better`. Runs pair up by position, so record them alternating A and B.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, relative_iqr};

/// Runs each side needs before its spread means anything.
const MIN_RUNS: usize = 3;

/// Pairs needed before a change may read `better`, and the share of them
/// it must win.
const MIN_PAIRS: usize = 10;
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on change `b` against parent `a` for one metric.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (Some([a1, ma, a3]), Some(mb)) = (quartiles(a), median(b)) else {
        return Verdict::Unresolved;
    };
    if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    // A spread counts when it is wide relative to the median and in
    // absolute terms.
    let wide = |v: &[f64]| {
        let iqr = quartiles(v).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
        relative_iqr(v).unwrap_or(f64::INFINITY) > m.bound && iqr > m.floor
    };
    if wide(a) || wide(b) {
        return Verdict::Unresolved;
    }
    // Lower is better: a positive change is a worsening.
    let worsening = mb - ma;
    if worsening > m.bound * ma.abs() && worsening > m.floor {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| y < x).count();
    let gap = -worsening;
    if pairs >= MIN_PAIRS
        && wins as f64 >= WIN_SHARE * pairs as f64
        && gap > a3 - a1
        && gap > m.floor
    {
        return Verdict::Better;
    }
    Verdict::Same
}

/// The `runs` array of a results file.
pub fn parse_runs(text: &str) -> Result<Vec<Value>, String> {
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    doc.get("runs")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| "not a wsp-benchmark results file (no \"runs\" array)".to_string())
}

/// Per workload, per metric: one value per run, in file order.
type Series = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn series(runs: &[Value]) -> Series {
    let mut out = Series::new();
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let entry = out.entry(workload.to_string()).or_default();
        for m in &END_TO_END {
            if let Some(v) = run
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64)
            {
                entry.entry(m.name.to_string()).or_default().push(v);
            }
        }
        let count = |k: &str| run.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        entry
            .entry("failed_frac".to_string())
            .or_default()
            .push(count("failed") / count("attempted").max(1.0));
    }
    out
}

/// Prints the comparison table; returns whether any row reads `worse` or
/// `unresolved`, or any workload of A is missing from B.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let a = series(&parse_runs(a_text).map_err(|e| format!("A: {e}"))?);
    let b = series(&parse_runs(b_text).map_err(|e| format!("B: {e}"))?);
    println!(
        "{:<16} {:<12} {:>12} {:>8} {:>12} {:>8} {:>7} verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A"
    );
    let mut flagged = false;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload:<16} missing from B");
            flagged = true;
            continue;
        };
        for (name, a_values) in a_metrics {
            let b_values = b_metrics.get(name).map_or(&[][..], Vec::as_slice);
            let v = match END_TO_END.iter().find(|m| m.name == name) {
                Some(m) => verdict(m, a_values, b_values),
                // Failed checks: any increase is a regression.
                None => match (median(a_values), median(b_values)) {
                    (Some(x), Some(y)) if y > x => Verdict::Worse,
                    (Some(_), Some(_)) => Verdict::Same,
                    _ => Verdict::Unresolved,
                },
            };
            flagged |= matches!(v, Verdict::Worse | Verdict::Unresolved);
            let iqr = |v: &[f64]| quartiles(v).map_or(f64::NAN, |[q1, _, q3]| q3 - q1);
            let (ma, mb) = (
                median(a_values).unwrap_or(f64::NAN),
                median(b_values).unwrap_or(f64::NAN),
            );
            println!(
                "{workload:<16} {name:<12} {ma:>12.6} {:>8.5} {mb:>12.6} {:>8.5} {:>7.4} {}",
                iqr(a_values),
                iqr(b_values),
                if ma == 0.0 { 1.0 } else { mb / ma },
                v.as_str()
            );
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PASS_S: EndToEnd = END_TO_END[0];
    const SETUP_S: EndToEnd = END_TO_END[1];

    fn around(centre: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| centre * (1.0 + 0.001 * i as f64)).collect()
    }

    #[test]
    fn equal_runs_are_the_same() {
        let a = around(1.0, 10);
        assert_eq!(verdict(&PASS_S, &a, &a), Verdict::Same);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse() {
        let a = around(1.0, 10);
        let b = around(1.4, 10);
        assert_eq!(verdict(&PASS_S, &a, &b), Verdict::Worse);
        // Within the bound it is the same.
        assert_eq!(verdict(&PASS_S, &a, &around(1.2, 10)), Verdict::Same);
    }

    #[test]
    fn better_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let a = around(1.0, 10);
        let b = around(0.8, 10);
        assert_eq!(verdict(&PASS_S, &a, &b), Verdict::Better);
        // Nine pairs are too few.
        assert_eq!(verdict(&PASS_S, &a[..9], &b[..9]), Verdict::Same);
        // Two lost pairs of ten are too many.
        let mut mixed = b.clone();
        mixed[0] = 1.05;
        mixed[1] = 1.06;
        assert_eq!(verdict(&PASS_S, &a, &mixed), Verdict::Same);
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { 1.5 })
            .collect();
        assert_eq!(
            verdict(&PASS_S, &noisy, &around(1.0, 10)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&PASS_S, &[], &around(1.0, 10)), Verdict::Unresolved);
        // Two runs say nothing about the spread.
        assert_eq!(
            verdict(&PASS_S, &around(1.0, 2), &around(1.0, 2)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn small_absolute_setup_changes_are_ignored() {
        let a = around(0.001, 10);
        assert_eq!(verdict(&SETUP_S, &a, &around(0.004, 10)), Verdict::Same);
        assert_eq!(verdict(&SETUP_S, &a, &around(0.0005, 10)), Verdict::Same);
        // A wide but sub-floor spread still resolves.
        let noisy: Vec<f64> = (0..10).map(|i| 0.001 * f64::from(1 + i % 2)).collect();
        assert_eq!(verdict(&SETUP_S, &noisy, &a), Verdict::Same);
    }

    #[test]
    fn compare_reads_results_files() {
        let run = |pass: f64, failed: u64| {
            format!(
                r#"{{"workload":"noc-uniform","attempted":10,"failed":{failed},"metrics":{{"pass_s":{{"value":{pass},"unit":"s"}}}}}}"#
            )
        };
        let file = |runs: &[String]| format!(r#"{{"runs":[{}]}}"#, runs.join(","));
        let a = file(&[run(1.0, 0), run(1.01, 0), run(1.02, 0)]);
        assert_eq!(compare(&a, &a), Ok(false));
        let slower = file(&[run(1.5, 0), run(1.51, 0), run(1.52, 0)]);
        assert_eq!(compare(&a, &slower), Ok(true));
        let failing = file(&[run(1.0, 1), run(1.01, 1), run(1.02, 1)]);
        assert_eq!(compare(&a, &failing), Ok(true));
        assert!(compare("{}", &a).is_err());
    }
}
