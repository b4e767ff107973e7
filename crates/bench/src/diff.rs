//! Bench-report and digest-journal comparison: the library half of the
//! `wsp-diff` regression gate.
//!
//! Three comparisons live here:
//!
//! * [`diff_reports`] — numeric diff of two `wsp-bench-v2` JSON reports'
//!   counters, gauges, histogram fields, series elements and time-series
//!   points under per-metric relative [`Tolerances`]. Gauges under the
//!   `wall.` prefix are wall-clock measurements and are excluded
//!   automatically; a time-series' `every`/`stride` cadence bookkeeping
//!   (the ring sampler widens its stride as it decimates) is excluded by
//!   construction — only point values at cycles present on *both* sides
//!   are compared. Everything else in the report is deterministic and
//!   defaults to zero tolerance.
//! * [`wsp_telemetry::first_divergence`] (re-used, not re-implemented) —
//!   localises a determinism failure between two digest journals to a
//!   cycle window and lane; the bin adds file I/O and rendering.
//! * [`profile_rows`] — reconstructs the wall-clock phase-profile table
//!   from a report's `wall.profile.*` gauges.

use std::collections::BTreeMap;

use serde_json::Value;
use wsp_telemetry::{profile_rollup, ProfileRow, PROFILE_GAUGE_PREFIX};

/// Prefix of gauges that measure host wall time; never compared.
pub const WALL_PREFIX: &str = "wall.";

/// Per-metric relative tolerances, resolved by longest-prefix match.
///
/// The text format is line-oriented: `<metric-prefix> <tolerance>` per
/// line, `#` starts a comment, and the special prefix `default` sets the
/// fallback for metrics no rule matches (0.0 when absent — deterministic
/// metrics must match exactly).
///
/// # Examples
///
/// ```
/// use wsp_bench::diff::Tolerances;
///
/// let tol = Tolerances::parse("# comment\ndefault 0.0\nfabric.active_tiles_mean 0.05\n")
///     .expect("parses");
/// assert_eq!(tol.for_metric("fabric.active_tiles_mean"), 0.05);
/// assert_eq!(tol.for_metric("machine.cycles"), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tolerances {
    /// `(metric prefix, relative tolerance)` rules.
    rules: Vec<(String, f64)>,
    /// Fallback when no rule matches.
    default: f64,
}

impl Tolerances {
    /// Parses the tolerance-file format described on the type.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut tol = Tolerances::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let prefix = parts.next().expect("non-empty line");
            let value: f64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("line {}: expected `<prefix> <tolerance>`", i + 1))?;
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens", i + 1));
            }
            if prefix == "default" {
                tol.default = value;
            } else {
                tol.rules.push((prefix.to_string(), value));
            }
        }
        Ok(tol)
    }

    /// The relative tolerance for `metric`: the longest prefix rule that
    /// matches, else the default.
    pub fn for_metric(&self, metric: &str) -> f64 {
        self.rules
            .iter()
            .filter(|(prefix, _)| metric.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map_or(self.default, |&(_, tol)| tol)
    }
}

/// One metric whose baseline/candidate values disagree beyond tolerance
/// (or that exists on only one side — `None` marks the missing side).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Dotted metric name, prefixed with its report section:
    /// `counters.<name>`, `gauges.<name>`, `histograms.<name>.<field>`,
    /// `series.<name>[<index>]` or `timeseries.<name>[<cycle>]`.
    pub name: String,
    /// Baseline value (`None` = metric absent from the baseline).
    pub baseline: Option<f64>,
    /// Candidate value (`None` = metric absent from the candidate).
    pub candidate: Option<f64>,
    /// Relative error `|c - b| / max(|b|, |c|)` (1.0 for a missing side).
    pub relative: f64,
    /// The tolerance the metric was held to.
    pub tolerance: f64,
}

/// Outcome of a [`diff_reports`] comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchDiff {
    /// Metrics outside tolerance, in name order.
    pub regressions: Vec<MetricDiff>,
    /// Metrics compared within tolerance.
    pub passed: usize,
    /// Wall-clock metrics skipped via the [`WALL_PREFIX`] exclusion.
    pub excluded: usize,
}

impl BenchDiff {
    /// Whether the candidate is within tolerance everywhere.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Flattens one report's `metrics.counters` and `metrics.gauges` into
/// section-prefixed `name -> value` pairs, every field of every
/// histogram into `histograms.<name>.<field>`, and every element of every
/// series into `series.<name>[<index>]`, so a series that changes length
/// leaves elements on one side only.
fn numeric_metrics(report: &Value) -> Result<BTreeMap<String, f64>, String> {
    let metrics = report
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("report has no \"metrics\" object")?;
    let number = |value: &Value, name: &str| {
        value
            .as_f64()
            .ok_or_else(|| format!("{name} is not numeric"))
    };
    let mut out = BTreeMap::new();
    for section in ["counters", "gauges"] {
        let map = metrics
            .get(section)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("report has no metrics.{section} object"))?;
        for (name, value) in map {
            let name = format!("{section}.{name}");
            out.insert(name.clone(), number(value, &name)?);
        }
    }
    let section = |name: &str| metrics.get(name).and_then(Value::as_object);
    for (name, hist) in section("histograms").into_iter().flatten() {
        let fields = hist
            .as_object()
            .ok_or_else(|| format!("histograms.{name} is not an object"))?;
        for (field, value) in fields {
            let name = format!("histograms.{name}.{field}");
            out.insert(name.clone(), number(value, &name)?);
        }
    }
    for (name, values) in section("series").into_iter().flatten() {
        let values = values
            .as_array()
            .ok_or_else(|| format!("series.{name} is not an array"))?;
        for (i, value) in values.iter().enumerate() {
            let name = format!("series.{name}[{i}]");
            out.insert(name.clone(), number(value, &name)?);
        }
    }
    Ok(out)
}

/// Flattens one report's `metrics.timeseries` into per-series
/// `cycle -> value` maps. The `every` and `stride` fields are cadence
/// bookkeeping, not measurements — the ring sampler doubles `stride` as
/// it decimates, so two correct runs of different lengths legitimately
/// disagree on them — and are excluded from comparison by construction.
fn timeseries_points(report: &Value) -> Result<BTreeMap<String, BTreeMap<u64, f64>>, String> {
    let Some(map) = report
        .get("metrics")
        .and_then(|m| m.get("timeseries"))
        .and_then(Value::as_object)
    else {
        return Ok(BTreeMap::new());
    };
    let mut out = BTreeMap::new();
    for (name, series) in map {
        let cycles = series
            .get("cycles")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("timeseries.{name} has no cycles array"))?;
        let values = series
            .get("values")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("timeseries.{name} has no values array"))?;
        if cycles.len() != values.len() {
            return Err(format!(
                "timeseries.{name}: {} cycles vs {} values",
                cycles.len(),
                values.len()
            ));
        }
        let mut points = BTreeMap::new();
        for (c, v) in cycles.iter().zip(values) {
            let c = c
                .as_u64()
                .ok_or_else(|| format!("timeseries.{name}: non-integer cycle"))?;
            let v = v
                .as_f64()
                .ok_or_else(|| format!("timeseries.{name}: non-numeric value"))?;
            points.insert(c, v);
        }
        out.insert(name.clone(), points);
    }
    Ok(out)
}

/// The schema string of a report, for the cheap compatibility check.
fn schema_of(report: &Value) -> String {
    report
        .get("schema")
        .and_then(Value::as_str)
        .unwrap_or("<missing>")
        .to_string()
}

/// Diffs two bench reports' counters, gauges, histogram fields, series
/// elements and time-series points under `tolerances`.
///
/// A metric present on one side only is a regression (the report shape
/// itself is part of the contract), so a series whose length changed
/// regresses on its one-sided elements; `wall.`-prefixed gauges are
/// excluded before any comparison, since wall-clock values are expected
/// to differ run to run. Time-series are compared point-by-point as
/// `timeseries.<name>[<cycle>]` at cycles present on both sides; a
/// one-sided cycle is a decimation artifact (counted in
/// [`BenchDiff::excluded`]), while a whole series present on one side
/// only regresses like a renamed counter.
///
/// # Errors
///
/// Returns a message when either report fails to parse, the schemas
/// disagree, or a metric value is non-numeric.
pub fn diff_reports(
    baseline: &str,
    candidate: &str,
    tolerances: &Tolerances,
) -> Result<BenchDiff, String> {
    let baseline: Value = serde_json::from_str(baseline).map_err(|e| format!("baseline: {e:?}"))?;
    let candidate: Value =
        serde_json::from_str(candidate).map_err(|e| format!("candidate: {e:?}"))?;
    let (bs, cs) = (schema_of(&baseline), schema_of(&candidate));
    if bs != cs {
        return Err(format!(
            "schema mismatch: baseline {bs:?} vs candidate {cs:?}"
        ));
    }
    let mut base = numeric_metrics(&baseline)?;
    let mut cand = numeric_metrics(&candidate)?;
    let mut diff = BenchDiff::default();
    let wall = |name: &str| {
        name.strip_prefix("gauges.")
            .is_some_and(|g| g.starts_with(WALL_PREFIX))
    };
    diff.excluded = base.len() + cand.len();
    base.retain(|name, _| !wall(name));
    cand.retain(|name, _| !wall(name));
    diff.excluded -= base.len() + cand.len();

    let base_ts = timeseries_points(&baseline)?;
    let cand_ts = timeseries_points(&candidate)?;
    let ts_names: std::collections::BTreeSet<&String> =
        base_ts.keys().chain(cand_ts.keys()).collect();
    for name in ts_names {
        match (base_ts.get(name), cand_ts.get(name)) {
            (Some(b), Some(c)) => {
                for (cycle, bv) in b {
                    if let Some(cv) = c.get(cycle) {
                        base.insert(format!("timeseries.{name}[{cycle}]"), *bv);
                        cand.insert(format!("timeseries.{name}[{cycle}]"), *cv);
                    } else {
                        // One-sided cycles are decimation artifacts, not
                        // measurement differences.
                        diff.excluded += 1;
                    }
                }
                diff.excluded += c.keys().filter(|cy| !b.contains_key(cy)).count();
            }
            // A series on one side only flows through the shared loop
            // below as a missing metric (its point count stands in for
            // the value), regressing like a renamed counter.
            (Some(b), None) => {
                base.insert(format!("timeseries.{name}"), b.len() as f64);
            }
            (None, Some(c)) => {
                cand.insert(format!("timeseries.{name}"), c.len() as f64);
            }
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }

    let names: std::collections::BTreeSet<String> =
        base.keys().chain(cand.keys()).cloned().collect();
    for name in &names {
        let (b, c) = (base.get(name).copied(), cand.get(name).copied());
        let tolerance = tolerances.for_metric(name);
        let relative = match (b, c) {
            (Some(b), Some(c)) => {
                let scale = b.abs().max(c.abs());
                if scale == 0.0 {
                    0.0
                } else {
                    (c - b).abs() / scale
                }
            }
            _ => 1.0,
        };
        if relative > tolerance {
            diff.regressions.push(MetricDiff {
                name: name.clone(),
                baseline: b,
                candidate: c,
                relative,
                tolerance,
            });
        } else {
            diff.passed += 1;
        }
    }
    Ok(diff)
}

/// Reconstructs the phase-profile rows from a report's
/// `wall.profile.<phase>.ms` / `.calls` gauge pairs, ready for
/// [`wsp_telemetry::profile_rollup`]-style self-time rendering.
///
/// # Errors
///
/// Returns a message when the report fails to parse or has no gauges
/// section. A report without profile gauges yields an empty table.
pub fn profile_rows(report: &str) -> Result<Vec<ProfileRow>, String> {
    let report: Value = serde_json::from_str(report).map_err(|e| format!("report: {e:?}"))?;
    let gauges = report
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(Value::as_object)
        .ok_or("report has no metrics.gauges object")?;
    let mut phases: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for (name, value) in gauges {
        let Some(rest) = name.strip_prefix(PROFILE_GAUGE_PREFIX) else {
            continue;
        };
        let Some(v) = value.as_f64() else { continue };
        if let Some(phase) = rest.strip_suffix(".ms") {
            phases.entry(phase.to_string()).or_default().1 = v;
        } else if let Some(phase) = rest.strip_suffix(".calls") {
            phases.entry(phase.to_string()).or_default().0 = v as u64;
        }
    }
    let triples: Vec<(String, u64, f64)> = phases
        .into_iter()
        .map(|(phase, (calls, ms))| (phase, calls, ms))
        .collect();
    Ok(profile_rollup(&triples))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"schema":"wsp-bench-v2","bench":"t","metrics":{"counters":{"a":10,"b":5},
        "gauges":{"g":2.0,"wall.x.ms":120.5},"histograms":{},"series":{},"timeseries":{}}}"#;

    #[test]
    fn identical_reports_are_clean() {
        let d = diff_reports(BASE, BASE, &Tolerances::default()).expect("diffs");
        assert!(d.is_clean());
        assert_eq!(d.passed, 3);
        assert_eq!(d.excluded, 2); // wall.x.ms on both sides
    }

    #[test]
    fn out_of_tolerance_metric_is_a_regression() {
        let cand = BASE.replace("\"a\":10", "\"a\":12");
        let d = diff_reports(BASE, &cand, &Tolerances::default()).expect("diffs");
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].name, "counters.a");
        // 2/12 relative error passes under a looser rule.
        let tol = Tolerances::parse("counters.a 0.2\n").expect("parses");
        assert!(diff_reports(BASE, &cand, &tol).expect("diffs").is_clean());
    }

    #[test]
    fn wall_gauges_never_regress() {
        let cand = BASE.replace("120.5", "98765.0");
        let d = diff_reports(BASE, &cand, &Tolerances::default()).expect("diffs");
        assert!(d.is_clean());
        assert_eq!(d.excluded, 2);
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let cand = BASE.replace("\"b\":5", "\"renamed\":5");
        let d = diff_reports(BASE, &cand, &Tolerances::default()).expect("diffs");
        let names: Vec<&str> = d.regressions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["counters.b", "counters.renamed"]);
        assert_eq!(d.regressions[0].candidate, None);
        assert_eq!(d.regressions[1].baseline, None);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let old = BASE.replace("wsp-bench-v2", "wsp-bench-v1");
        assert!(diff_reports(BASE, &old, &Tolerances::default()).is_err());
    }

    #[test]
    fn tolerance_rules_resolve_longest_prefix() {
        let tol =
            Tolerances::parse("default 0.5\ncounters. 0.1\ncounters.a 0.0\n").expect("parses");
        assert_eq!(tol.for_metric("counters.a"), 0.0);
        assert_eq!(tol.for_metric("counters.ab"), 0.0); // prefix, not path, match
        assert_eq!(tol.for_metric("counters.b"), 0.1);
        assert_eq!(tol.for_metric("gauges.g"), 0.5);
        assert!(Tolerances::parse("counters.a\n").is_err());
        assert!(Tolerances::parse("counters.a -0.5\n").is_err());
        assert!(Tolerances::parse("counters.a 0.1 extra\n").is_err());
    }

    const WITH_TS: &str = r#"{"schema":"wsp-bench-v2","bench":"t","metrics":{"counters":{},
        "gauges":{},"histograms":{},"series":{},
        "timeseries":{"fabric.active":{"every":64,"stride":1,
            "cycles":[64,128,192,256],"values":[1.0,2.0,3.0,4.0]}}}}"#;

    #[test]
    fn timeseries_points_are_compared_at_shared_cycles() {
        let d = diff_reports(WITH_TS, WITH_TS, &Tolerances::default()).expect("diffs");
        assert!(d.is_clean());
        assert_eq!(d.passed, 4);
        let cand = WITH_TS.replace("3.0", "9.0");
        let d = diff_reports(WITH_TS, &cand, &Tolerances::default()).expect("diffs");
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].name, "timeseries.fabric.active[192]");
    }

    #[test]
    fn decimated_candidate_compares_only_shared_cycles() {
        // The candidate ran longer and its ring sampler widened the
        // stride: half the baseline's cycles are gone and `stride`
        // differs. Neither is a regression — cadence bookkeeping is
        // excluded by construction, one-sided cycles by intersection.
        let cand = WITH_TS
            .replace("\"stride\":1", "\"stride\":2")
            .replace("[64,128,192,256]", "[128,256]")
            .replace("[1.0,2.0,3.0,4.0]", "[2.0,4.0]");
        let d = diff_reports(WITH_TS, &cand, &Tolerances::default()).expect("diffs");
        assert!(d.is_clean());
        assert_eq!(d.passed, 2); // cycles 128 and 256
        assert_eq!(d.excluded, 2); // baseline-only cycles 64 and 192
    }

    #[test]
    fn one_sided_timeseries_is_a_regression() {
        let cand = WITH_TS.replace("fabric.active", "fabric.renamed");
        let d = diff_reports(WITH_TS, &cand, &Tolerances::default()).expect("diffs");
        let names: Vec<&str> = d.regressions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["timeseries.fabric.active", "timeseries.fabric.renamed"]
        );
    }

    const WITH_SERIES_AND_HISTOGRAM: &str = r#"{"schema":"wsp-bench-v2","bench":"t",
        "metrics":{"counters":{},"gauges":{},
        "histograms":{"fabric.active_tiles":{"count":111,"sum":1208,"min":0,"max":28,
            "mean":10.8828829,"p50":15,"p95":28,"p99":28}},
        "series":{"pdn.middle_row_voltage":[2.497,2.35,2.217]},"timeseries":{}}}"#;

    #[test]
    fn series_elements_are_compared_by_index() {
        let base = WITH_SERIES_AND_HISTOGRAM;
        let d = diff_reports(base, base, &Tolerances::default()).expect("diffs");
        assert!(d.is_clean());
        assert_eq!(d.passed, 8 + 3);
        let cand = base.replace("[2.497,", "[2.0,");
        let d = diff_reports(base, &cand, &Tolerances::default()).expect("diffs");
        let names: Vec<&str> = d.regressions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["series.pdn.middle_row_voltage[0]"]);
        // A longer series regresses on the element only it has.
        let cand = base.replace("2.217]", "2.217,2.1]");
        let d = diff_reports(base, &cand, &Tolerances::default()).expect("diffs");
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].name, "series.pdn.middle_row_voltage[3]");
        assert_eq!(d.regressions[0].baseline, None);
    }

    #[test]
    fn histogram_fields_are_compared_one_by_one() {
        let base = WITH_SERIES_AND_HISTOGRAM;
        let cand = base.replace("\"count\":111", "\"count\":999");
        let d = diff_reports(base, &cand, &Tolerances::default()).expect("diffs");
        let names: Vec<&str> = d.regressions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["histograms.fabric.active_tiles.count"]);
        // A renamed histogram regresses on every field of both names.
        let cand = base.replace("fabric.active_tiles", "fabric.renamed");
        let d = diff_reports(base, &cand, &Tolerances::default()).expect("diffs");
        assert_eq!(d.regressions.len(), 2 * 8);
        assert!(d
            .regressions
            .iter()
            .any(|r| r.name == "histograms.fabric.active_tiles.p99" && r.candidate.is_none()));
    }

    #[test]
    fn profile_rows_rebuild_the_phase_tree() {
        let report = r#"{"schema":"wsp-bench-v2","bench":"t","metrics":{"counters":{},
            "gauges":{"wall.profile.machine.fabric.ms":100.0,
                      "wall.profile.machine.fabric.calls":10,
                      "wall.profile.machine.fabric.plan.ms":30.0,
                      "wall.profile.machine.fabric.plan.calls":10,
                      "other":1.0},
            "histograms":{},"series":{},"timeseries":{}}}"#;
        let rows = profile_rows(report).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].phase, "machine.fabric");
        assert!((rows[0].self_ms - 70.0).abs() < 1e-9);
        assert_eq!(rows[0].calls, 10);
    }
}
