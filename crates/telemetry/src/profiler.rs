//! Scoped wall-clock phase profiling: attributes host time to named
//! simulation phases (fabric tick, tile step, memory servicing, PDN
//! sweeps).
//!
//! Phase names are dot-separated paths (`machine.fabric.fused`); a phase
//! is the *parent* of another when its path plus one extra segment
//! matches, which is how [`profile_rollup`] computes self time.
//!
//! Everything here measures **wall clock** and is therefore
//! nondeterministic; exported gauges all live under the `wall.profile.`
//! prefix so determinism gates and `wsp-diff` can exclude them
//! mechanically.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::Sink;

/// Gauge-name prefix every profiler export uses.
pub const PROFILE_GAUGE_PREFIX: &str = "wall.profile.";

/// Accumulated time for one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of scope entries recorded.
    pub calls: u64,
    /// Total nanoseconds across all entries.
    pub nanos: u128,
}

impl PhaseStat {
    /// Total milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// A set of named phase timers.
///
/// Disabled (the default) the profiler never reads the clock — `start`
/// returns `None` and `stop` is a no-op — so instrumented hot loops pay
/// one branch.
///
/// # Examples
///
/// ```
/// use wsp_telemetry::PhaseProfiler;
///
/// let mut p = PhaseProfiler::new(true);
/// let t = p.start();
/// // ... the work being attributed ...
/// p.stop("machine.tiles", t);
/// assert_eq!(p.stat("machine.tiles").unwrap().calls, 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PhaseProfiler {
    enabled: bool,
    stats: BTreeMap<&'static str, PhaseStat>,
}

impl PhaseProfiler {
    /// A profiler; `enabled = false` makes every hook a no-op.
    pub fn new(enabled: bool) -> Self {
        PhaseProfiler {
            enabled,
            stats: BTreeMap::new(),
        }
    }

    /// Whether timing is being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns timing on or off (accumulated stats are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a scope: reads the clock when enabled, else `None`.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a scope opened by [`PhaseProfiler::start`], attributing
    /// the elapsed time to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: &'static str, started: Option<Instant>) {
        if let Some(t) = started {
            self.add(phase, t.elapsed().as_nanos(), 1);
        }
    }

    /// Adds raw time to a phase.
    pub fn add(&mut self, phase: &'static str, nanos: u128, calls: u64) {
        let s = self.stats.entry(phase).or_default();
        s.calls += calls;
        s.nanos += nanos;
    }

    /// Accumulated stat for one phase.
    pub fn stat(&self, phase: &str) -> Option<PhaseStat> {
        self.stats.get(phase).copied()
    }

    /// All phases in name order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, PhaseStat)> + '_ {
        self.stats.iter().map(|(k, v)| (*k, *v))
    }

    /// Whether any time has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Drops all accumulated stats.
    pub fn clear(&mut self) {
        self.stats.clear();
    }

    /// Exports every phase as `wall.profile.<prefix><phase>.ms` /
    /// `.calls` gauges. `prefix` lets an owner re-root a subsystem's
    /// phases under its own tree (the machine exports its fabric's
    /// `plan` as `machine.fabric.plan`).
    pub fn export(&self, sink: &mut dyn Sink, prefix: &str) {
        for (phase, s) in &self.stats {
            sink.gauge_set(&format!("{PROFILE_GAUGE_PREFIX}{prefix}{phase}.ms"), s.ms());
            sink.gauge_set(
                &format!("{PROFILE_GAUGE_PREFIX}{prefix}{phase}.calls"),
                s.calls as f64,
            );
        }
    }
}

/// One row of a phase-profile breakdown: a phase, its total time, and
/// its *self* time (total minus direct children).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Dot-separated phase path.
    pub phase: String,
    /// Scope entries.
    pub calls: u64,
    /// Total milliseconds attributed to the phase.
    pub total_ms: f64,
    /// Milliseconds not covered by direct child phases.
    pub self_ms: f64,
}

/// Computes the self-time breakdown for a set of `(phase, calls, ms)`
/// triples: for each phase, self = total − Σ(direct children). Rows come
/// back sorted by phase path, so parents precede their children.
pub fn profile_rollup(phases: &[(String, u64, f64)]) -> Vec<ProfileRow> {
    let mut sorted: Vec<&(String, u64, f64)> = phases.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let is_direct_child = |parent: &str, child: &str| {
        child
            .strip_prefix(parent)
            .and_then(|rest| rest.strip_prefix('.'))
            .is_some_and(|leaf| !leaf.contains('.'))
    };
    sorted
        .iter()
        .map(|(phase, calls, total_ms)| {
            let child_ms: f64 = sorted
                .iter()
                .filter(|(other, _, _)| is_direct_child(phase, other))
                .map(|(_, _, ms)| *ms)
                .sum();
            ProfileRow {
                phase: phase.clone(),
                calls: *calls,
                total_ms: *total_ms,
                self_ms: (total_ms - child_ms).max(0.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn disabled_profiler_never_reads_the_clock() {
        let mut p = PhaseProfiler::new(false);
        let t = p.start();
        assert!(t.is_none());
        p.stop("x", t);
        assert!(p.is_empty());
    }

    #[test]
    fn scopes_accumulate_calls_and_time() {
        let mut p = PhaseProfiler::new(true);
        for _ in 0..3 {
            let t = p.start();
            p.stop("machine.tiles", t);
        }
        let s = p.stat("machine.tiles").expect("recorded");
        assert_eq!(s.calls, 3);
    }

    #[test]
    fn export_emits_wall_prefixed_gauges() {
        let mut p = PhaseProfiler::new(true);
        p.add("plan", 2_000_000, 2);
        let mut r = Recorder::new();
        p.export(&mut r, "fabric.");
        assert_eq!(r.registry.gauge("wall.profile.fabric.plan.ms"), Some(2.0));
        assert_eq!(
            r.registry.gauge("wall.profile.fabric.plan.calls"),
            Some(2.0)
        );
    }

    #[test]
    fn rollup_subtracts_direct_children_only() {
        let rows = profile_rollup(&[
            ("machine.fabric".to_string(), 10, 100.0),
            ("machine.fabric.plan".to_string(), 10, 30.0),
            ("machine.fabric.apply".to_string(), 10, 20.0),
            ("machine.fabric.plan.inner".to_string(), 10, 5.0),
        ]);
        let fabric = rows.iter().find(|r| r.phase == "machine.fabric").unwrap();
        assert!((fabric.self_ms - 50.0).abs() < 1e-9);
        let plan = rows
            .iter()
            .find(|r| r.phase == "machine.fabric.plan")
            .unwrap();
        assert!((plan.self_ms - 25.0).abs() < 1e-9);
        // A grandchild does not subtract from the grandparent.
        let inner = rows
            .iter()
            .find(|r| r.phase == "machine.fabric.plan.inner")
            .unwrap();
        assert!((inner.self_ms - 5.0).abs() < 1e-9);
    }
}
