//! Every metric the benchmark emits, with its unit and,
//! for end-to-end metrics, the regression bound. `BENCHMARK.json` at the
//! repository root mirrors these tables; a unit test keeps them equal.

use std::collections::BTreeMap;

use crate::stats::percentile;
use crate::trace::{durations, layer_total, total, Span};
use crate::workloads::Pass;

/// An end-to-end metric and the regression bound `compare` applies.
/// Lower is better for every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
    /// Absolute changes below this are ignored.
    pub floor: f64,
}

/// The one bounds table.
pub const END_TO_END: [EndToEnd; 3] = [
    // Host seconds of the fastest timed pass's simulation calls.
    EndToEnd {
        name: "pass_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    // Host seconds of the fastest build of inputs and engine.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.005,
    },
    // Peak resident memory of the process after every pass.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
        floor: 0.0,
    },
];

/// A per-layer metric, taken from the traced pass. A workload that never
/// calls a layer reports 0 for it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer("bench.sim_cycles", "cycles"),
    layer("bench.sim_latency_p99_cycles", "cycles"),
    layer("bench.trace_overhead_frac", "ratio"),
    layer("topo.fault_map_s", "s"),
    layer("noc.new_s", "s"),
    layer("noc.run_s", "s"),
    layer("noc.sim_cycles", "cycles"),
    layer("noc.ticks_executed", "count"),
    layer("noc.tick_ratio", "ratio"),
    layer("noc.requests", "count"),
    layer("noc.injection_refused", "count"),
    layer("noc.link_traversals", "count"),
    layer("noc.relay_forwards", "count"),
    layer("noc.stall_cycles", "cycles"),
    layer("noc.ns_per_hop", "ns"),
    layer("noc.ns_per_tick", "ns"),
    layer("noc.arena_slots", "count"),
    layer("machine.new_s", "s"),
    layer("machine.load_s", "s"),
    layer("machine.run_s", "s"),
    layer("machine.check_s", "s"),
    layer("machine.cycles", "cycles"),
    layer("machine.retired", "count"),
    layer("machine.remote_accesses", "count"),
    layer("machine.local_accesses", "count"),
    layer("machine.network_stall_cycles", "cycles"),
    layer("machine.link_stall_cycles", "cycles"),
    layer("machine.relay_forwards", "count"),
    layer("machine.fabric_ticks", "count"),
    layer("machine.ns_per_retired", "ns"),
    layer("machine.ns_per_cycle", "ns"),
    layer("tile.memory.grants", "count"),
    layer("tile.memory.denials", "count"),
    layer("tile.memory.row_hit_rate", "ratio"),
    layer("tile.memory.tlb_hit_rate", "ratio"),
    layer("sched.new_s", "s"),
    layer("sched.run_s", "s"),
    layer("sched.steps", "count"),
    layer("sched.step_ms_p50", "ms"),
    layer("sched.step_ms_p95", "ms"),
    layer("sched.step_ms_max", "ms"),
    layer("sched.jobs_completed", "count"),
    layer("sched.jobs_dropped", "count"),
    layer("sched.jobs_incorrect", "count"),
    layer("sched.slices_retired", "count"),
    layer("sched.utilisation", "ratio"),
    layer("sched.queue_wait_p95_cycles", "cycles"),
    layer("sched.sojourn_p99_cycles", "cycles"),
    layer("noc.connectivity.s", "s"),
    layer("noc.connectivity.maps", "count"),
    layer("noc.connectivity.us_per_map", "us"),
    layer("pdn.s", "s"),
    layer("pdn.solves", "count"),
    layer("pdn.iterations", "count"),
    layer("pdn.node_updates", "count"),
    layer("pdn.ns_per_node_update", "ns"),
    layer("route.s", "s"),
    layer("route.nets_routed", "count"),
    layer("route.failed_nets", "count"),
    layer("route.drc_violations", "count"),
    layer("clock.s", "s"),
    layer("clock.plans", "count"),
    layer("assembly.s", "s"),
    layer("assembly.wafers", "count"),
];

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Every per-layer metric for one traced pass. The simulated outputs come
/// from the warm-up pass (they are equal on every pass, but only the
/// warm-up observes all of them); `untraced_pass_s`, the fastest untraced
/// pass, is the base of the tracing overhead.
pub fn per_layer(
    warm: &Pass,
    traced: &Pass,
    spans: &[Span],
    untraced_pass_s: f64,
) -> BTreeMap<&'static str, f64> {
    let c = |name| traced.counter(name);
    let noc_run = total(spans, "noc", "run");
    let machine_run = total(spans, "machine", "run");
    let connectivity = layer_total(spans, "noc.connectivity");
    let pdn = layer_total(spans, "pdn");
    let steps_ms: Vec<f64> = durations(spans, "sched", "step")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let step_ms = |p: f64| percentile(&steps_ms, p).unwrap_or(0.0);
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let derived = [
        ("bench.sim_cycles", warm.sim_cycles.unwrap_or(0) as f64),
        (
            "bench.sim_latency_p99_cycles",
            warm.sim_latency_p99.unwrap_or(0) as f64,
        ),
        (
            "bench.trace_overhead_frac",
            per(traced.run_s, untraced_pass_s) - 1.0,
        ),
        ("topo.fault_map_s", total(spans, "topo", "fault_map")),
        ("noc.new_s", total(spans, "noc", "new")),
        ("noc.run_s", noc_run),
        (
            "noc.tick_ratio",
            per(c("noc.ticks_executed"), c("noc.sim_cycles")),
        ),
        (
            "noc.ns_per_hop",
            per(noc_run * 1e9, c("noc.link_traversals")),
        ),
        (
            "noc.ns_per_tick",
            per(noc_run * 1e9, c("noc.ticks_executed")),
        ),
        ("machine.new_s", total(spans, "machine", "new")),
        ("machine.load_s", total(spans, "machine", "load")),
        ("machine.run_s", machine_run),
        ("machine.check_s", total(spans, "machine", "check")),
        (
            "machine.ns_per_retired",
            per(machine_run * 1e9, c("machine.retired")),
        ),
        (
            "machine.ns_per_cycle",
            per(machine_run * 1e9, c("machine.cycles")),
        ),
        ("sched.new_s", total(spans, "sched", "new")),
        ("sched.run_s", total(spans, "sched", "run")),
        ("sched.step_ms_p50", step_ms(0.5)),
        ("sched.step_ms_p95", step_ms(0.95)),
        (
            "sched.step_ms_max",
            steps_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("noc.connectivity.s", connectivity),
        (
            "noc.connectivity.us_per_map",
            per(connectivity * 1e6, c("noc.connectivity.maps")),
        ),
        ("pdn.s", pdn),
        (
            "pdn.ns_per_node_update",
            per(pdn * 1e9, c("pdn.node_updates")),
        ),
        ("route.s", layer_total(spans, "route")),
        ("clock.s", layer_total(spans, "clock")),
        ("assembly.s", layer_total(spans, "assembly")),
    ];
    for &(name, value) in traced.counters.iter().chain(&derived) {
        *out.get_mut(name).expect("listed in PER_LAYER") = value;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::{Scale, Workload};
    use serde_json::Value;

    /// Whether `name` fits the metric and workload name grammar: starts with
    /// a letter or digit, then at most 63 letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("valid JSON")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key).and_then(Value::as_array).expect("listed")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .expect("string field")
    }

    #[test]
    fn name_grammar() {
        assert!(valid_name("noc.ns_per_hop"));
        assert!(valid_name("noc-uniform"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(&"a".repeat(65)));
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
        {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), "lower");
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
        }
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn emitted_per_layer_names_are_the_table() {
        let mut tracer = Tracer::on();
        let pass = Workload::NocHotspot.pass(Scale::Test, 3, &mut tracer, false);
        let values = per_layer(&pass, &pass, tracer.spans(), pass.run_s);
        let names: Vec<&str> = values.keys().copied().collect();
        let mut table: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        table.sort_unstable();
        assert_eq!(names, table);
        assert!(values["noc.ns_per_hop"] > 0.0);
        assert!(values["topo.fault_map_s"] > 0.0);
    }
}
