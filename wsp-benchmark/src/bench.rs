//! Runs one workload: an untimed warm-up pass, then timed passes for the
//! requested seconds, every other one traced when tracing; then reports.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::Value;
use wsp_common::rng::stream_seed;

use crate::expected;
use crate::metrics::{per_layer, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::trace::{chrome_json, self_times, Tracer};
use crate::workloads::{Checks, Pass, Scale, Workload};

/// Fewest timed passes, however short the time budget.
const MIN_PASSES: usize = 3;

/// The fastest sample. The reference host alternates between two speeds
/// up to 2x apart, in episodes from under a second to half a minute, so
/// a median lands in either; the fastest pass estimates the uncontended
/// cost and stays put from run to run (see README.md).
fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: PathBuf,
}

/// A finished run, ready to print.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    record: Value,
}

/// Every output part must equal the warm-up pass's.
fn check_parts(reference: &[u64], parts: &[u64], checks: &mut Checks) {
    if reference.len() != parts.len() {
        checks.check(false);
        return;
    }
    for (a, b) in reference.iter().zip(parts) {
        checks.check(a == b);
    }
}

pub fn measure(opts: &RunOptions, scale: Scale) -> Result<Outcome, String> {
    let w = opts.workload;
    let seed = stream_seed(opts.seed, w.index() as u64);
    let warm = w.pass(scale, seed, &mut Tracer::off(), true);
    let mut checks = warm.checks;
    if scale == Scale::Full && opts.seed == expected::SEED {
        expected::check(w, &warm, &mut checks);
    }
    for (key, value) in expected::observed(&warm) {
        println!("{} {key} {value}", w.name());
    }

    // With tracing, traced passes alternate with untraced ones inside the
    // same time budget, and the fastest traced pass gives the per-layer
    // times; the overhead compares the two interleaved sets.
    let (mut setup_s, mut pass_s) = (Vec::new(), Vec::new());
    let mut traced: Option<(usize, Pass, Tracer)> = None;
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    for i in 0.. {
        let enough = pass_s.len() >= MIN_PASSES && (traced.is_some() || !opts.trace);
        if enough && start.elapsed() >= budget {
            break;
        }
        let trace_this = opts.trace && i % 2 == 1;
        let mut tracer = if trace_this {
            Tracer::on()
        } else {
            Tracer::off()
        };
        let mut run = || w.pass(scale, seed, &mut tracer, false);
        // Every other pair of passes runs on a fresh thread, which the
        // scheduler starts on the other CPU: the reference host's vCPUs
        // slow down independently, so a run sees both. One pass runs at
        // a time either way.
        let pass = if (i / 2) % 2 == 0 {
            run()
        } else {
            std::thread::scope(|s| s.spawn(run).join()).expect("a pass panicked")
        };
        checks.merge(pass.checks);
        check_parts(&warm.parts, &pass.parts, &mut checks);
        // Work counters stay out of the digest (an engine change may move
        // work without moving outputs) but must repeat within a run.
        checks.check(pass.counters == warm.counters);
        if !trace_this {
            setup_s.push(pass.setup_s);
            pass_s.push(pass.run_s);
        } else if traced
            .as_ref()
            .is_none_or(|(_, best, _)| pass.run_s < best.run_s)
        {
            traced = Some((i, pass, tracer));
        }
    }
    let fastest = min(&pass_s);

    let mut metrics = BTreeMap::new();
    let e2e = [fastest, min(&setup_s), peak_rss_mb()?];
    for (m, value) in END_TO_END.iter().zip(e2e) {
        metrics.insert(m.name, (value, m.unit));
    }
    if let Some((index, pass, tracer)) = &traced {
        let layers = per_layer(&warm, pass, tracer.spans(), fastest);
        for m in PER_LAYER {
            metrics.insert(m.name, (layers[m.name], m.unit));
        }
        write_trace(&opts.out, w, *index, tracer, &layers)?;
    }

    for (name, (value, unit)) in &metrics {
        println!("{} {name} {value} {unit}", w.name());
    }
    let [p25, p50, p75] = quartiles(&pass_s).expect("at least one pass");
    println!("{} pass_s_quartiles {p25} {p50} {p75} s", w.name());
    println!("{} passes {} count", w.name(), pass_s.len());
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!("{} failed_frac {failed_frac} ratio", w.name());

    let mut record = BTreeMap::new();
    record.insert("workload".to_string(), string(w.name()));
    record.insert("seed".to_string(), Value::Number(opts.seed as f64));
    record.insert(
        "digest".to_string(),
        string(&format!("{:016x}", warm.digest())),
    );
    let samples = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Number(x)).collect());
    record.insert("pass_s_samples".to_string(), samples(&pass_s));
    record.insert("setup_s_samples".to_string(), samples(&setup_s));
    Ok(Outcome {
        checks,
        metrics,
        record: Value::Object(record),
    })
}

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The result line: checks plus the end-to-end metrics, or with
    /// `traced` the per-layer ones.
    pub fn result_json(&self, traced: bool) -> Value {
        let names: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        self.json(&names)
    }

    fn json(&self, names: &[&str]) -> Value {
        let metrics = self
            .metrics
            .iter()
            .filter(|(name, _)| names.contains(name))
            .map(|(name, (value, unit))| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Value::Number(*value));
                m.insert("unit".to_string(), string(unit));
                (name.to_string(), Value::Object(m))
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("correct".to_string(), Value::Bool(self.correct()));
        doc.insert(
            "attempted".to_string(),
            Value::Number(self.checks.attempted as f64),
        );
        doc.insert(
            "failed".to_string(),
            Value::Number(self.checks.failed as f64),
        );
        doc.insert("metrics".to_string(), Value::Object(metrics));
        Value::Object(doc)
    }
}

/// Appends this run to `DIR/results.json`, which `compare` reads.
pub fn append_result(out: &Path, outcome: &Outcome) -> Result<(), String> {
    let path = out.join("results.json");
    let mut runs = match fs::read_to_string(&path) {
        Ok(text) => crate::compare::parse_runs(&text)
            .map_err(|e| format!("{}: {e}; remove it or choose another --out", path.display()))?,
        Err(_) => Vec::new(),
    };
    let all: Vec<&str> = outcome.metrics.keys().copied().collect();
    let mut run = outcome.json(&all);
    if let (Value::Object(run), Value::Object(extra)) = (&mut run, &outcome.record) {
        run.extend(extra.clone());
    }
    runs.push(run);
    let mut doc = BTreeMap::new();
    doc.insert("runs".to_string(), Value::Array(runs));
    write(&path, &serde_json::to_string(&Value::Object(doc)))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `DIR/<workload>/trace.json` (Chrome trace events) and
/// `DIR/<workload>/layers.json` (self time and metrics per layer).
fn write_trace(
    out: &Path,
    w: Workload,
    pass: usize,
    tracer: &Tracer,
    metrics: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let dir = out.join(w.name());
    let trace = chrome_json(tracer.spans(), w.name(), w.index(), pass);
    write(&dir.join("trace.json"), &serde_json::to_string(&trace))?;
    let mut layers: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    for (layer, seconds) in self_times(tracer.spans()) {
        layers
            .entry(layer.to_string())
            .or_default()
            .insert("self_s".to_string(), Value::Number(seconds));
    }
    for (&name, &value) in metrics {
        let (layer, _) = name
            .rsplit_once('.')
            .expect("metric names are layer.metric");
        layers
            .entry(layer.to_string())
            .or_default()
            .insert(name.to_string(), Value::Number(value));
    }
    // Layers this workload never entered read all zeros; leave them out.
    layers.retain(|_, v| v.values().any(|x| x.as_f64() != Some(0.0)));
    let doc = Value::Object(
        layers
            .into_iter()
            .map(|(k, v)| (k, Value::Object(v.into_iter().collect())))
            .collect(),
    );
    write(&dir.join("layers.json"), &serde_json::to_string(&doc))
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_part_fails_one_check() {
        let mut checks = Checks::default();
        check_parts(&[1, 2, 3], &[1, 9, 3], &mut checks);
        assert_eq!(
            checks,
            Checks {
                attempted: 3,
                failed: 1
            }
        );
        check_parts(&[1, 2], &[1], &mut checks);
        assert_eq!(checks.failed, 2);
    }

    #[test]
    fn a_short_run_reports_every_end_to_end_metric() {
        let opts = RunOptions {
            workload: Workload::NocUniform,
            seed: 5,
            seconds: 0,
            trace: false,
            out: PathBuf::new(),
        };
        let outcome = measure(&opts, Scale::Test).expect("runs");
        assert!(outcome.correct());
        let json = outcome.result_json(false);
        let metrics = json
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(metrics.values().all(|m| m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(|v| v > 0.0)));
    }
}
