//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only on the traced pass; on every other pass
//! [`Tracer::span`] is a plain call. Spans live in memory until the run
//! ends and are then written as a Chrome trace-event file (opens in
//! Perfetto) and as a per-layer self-time summary.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::Value;

/// One timed call: which layer it entered, what it called, and the span
/// that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records nested spans when on; does nothing but call through when off.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Runs `f`, recording it as a span of `layer` when tracing is on.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total seconds of the spans named `name` in `layer`.
pub fn total(spans: &[Span], layer: &str, name: &str) -> f64 {
    durations(spans, layer, name).iter().fold(0.0, |a, b| a + b)
}

/// Durations in seconds of every span named `name` in `layer`.
pub fn durations(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Seconds spent in `layer`: its spans that are not nested in another
/// span of the same layer.
pub fn layer_total(spans: &[Span], layer: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.parent.is_none_or(|p| spans[p].layer != layer))
        .map(Span::seconds)
        .fold(0.0, |a, b| a + b)
}

/// Each layer's self time: span time minus the time of its child spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += s.seconds();
        if let Some(p) = s.parent {
            *out.entry(spans[p].layer).or_default() -= s.seconds();
        }
    }
    out
}

/// The spans of pass number `pass` as a Chrome trace-event document
/// (complete `X` events, one thread per workload, microsecond timestamps).
pub fn chrome_json(spans: &[Span], workload: &str, tid: usize, pass: usize) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = BTreeMap::new();
            args.insert("workload".to_string(), Value::String(workload.to_string()));
            args.insert("pass".to_string(), Value::Number(pass as f64));
            if let Some(p) = s.parent {
                args.insert(
                    "parent".to_string(),
                    Value::String(format!("{}.{}", spans[p].layer, spans[p].name)),
                );
            }
            let mut e = BTreeMap::new();
            e.insert("name".to_string(), Value::String(s.name.to_string()));
            e.insert("cat".to_string(), Value::String(s.layer.to_string()));
            e.insert("ph".to_string(), Value::String("X".to_string()));
            e.insert("ts".to_string(), Value::Number(micros(s.start)));
            e.insert("dur".to_string(), Value::Number(micros(s.end - s.start)));
            e.insert("pid".to_string(), Value::Number(1.0));
            e.insert("tid".to_string(), Value::Number(tid as f64));
            e.insert("args".to_string(), Value::Object(args));
            Value::Object(e)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("traceEvents".to_string(), Value::Array(events));
    doc.insert(
        "displayTimeUnit".to_string(),
        Value::String("ms".to_string()),
    );
    Value::Object(doc)
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("noc", "run", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let mut t = Tracer::on();
        t.span("bench", "pass", |t| {
            t.span("noc", "run", |t| {
                t.span("noc", "inner", |_| {
                    std::thread::sleep(Duration::from_millis(2))
                });
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        // The nested noc span is not counted twice in the layer total.
        assert_eq!(layer_total(spans, "noc"), spans[1].seconds());
        let self_times = self_times(spans);
        let sum: f64 = self_times.values().sum();
        assert!((sum - spans[0].seconds()).abs() < 1e-9);
        let doc = chrome_json(spans, "noc-uniform", 0, 1);
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")),
            Some(&Value::String("noc.run".to_string()))
        );
    }
}
