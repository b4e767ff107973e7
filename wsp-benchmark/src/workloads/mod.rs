//! The six workloads. Each pass builds fresh inputs-to-engine state, runs
//! it through public library calls only, and checks the outputs.
//!
//! No engine knob is set: stepping, threads, pools, sampling, digests and
//! profiling all stay at the library defaults, so a change to a default
//! shows up here without editing the benchmark.

mod flow;
mod machine;
mod noc;
mod serve;

use wsp_telemetry::Fnv1a;
use wsp_topo::{FaultMap, TileArray};

use crate::trace::Tracer;

/// Problem sizes: the measured sizes, or tiny ones for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

impl Scale {
    /// Side of the square wafer tile array.
    fn wafer(self) -> u16 {
        match self {
            Scale::Full => 32,
            Scale::Test => 8,
        }
    }

    /// Manufacturing faults on workloads that have them.
    fn faults(self) -> usize {
        match self {
            Scale::Full => 20,
            Scale::Test => 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NocUniform,
    NocHotspot,
    NocBursty,
    MachineStream,
    ServeStream,
    FlowMontecarlo,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::NocUniform,
        Workload::NocHotspot,
        Workload::NocBursty,
        Workload::MachineStream,
        Workload::ServeStream,
        Workload::FlowMontecarlo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NocUniform => "noc-uniform",
            Workload::NocHotspot => "noc-hotspot",
            Workload::NocBursty => "noc-bursty",
            Workload::MachineStream => "machine-stream",
            Workload::ServeStream => "serve-stream",
            Workload::FlowMontecarlo => "flow-montecarlo",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Position in [`Workload::ALL`]; the stream index of its input seed.
    pub fn index(self) -> usize {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("listed")
    }

    /// One pass over inputs drawn from `seed`. Only the untimed `warm_up`
    /// pass installs telemetry sinks, for outputs nothing else exposes.
    pub fn pass(self, scale: Scale, seed: u64, tracer: &mut Tracer, warm_up: bool) -> Pass {
        tracer.span("bench", self.name(), |tracer| match self {
            Workload::NocUniform => noc::uniform(scale, seed, tracer),
            Workload::NocHotspot => noc::hotspot(scale, seed, tracer),
            Workload::NocBursty => noc::bursty(scale, seed, tracer),
            Workload::MachineStream => machine::stream(scale, seed, tracer, warm_up).pass,
            Workload::ServeStream => serve::stream(scale, seed, tracer),
            Workload::FlowMontecarlo => flow::montecarlo(scale, seed, tracer),
        })
    }
}

/// Checks attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.count(1, u64::from(!ok));
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn merge(&mut self, other: Checks) {
        self.count(other.attempted, other.failed);
    }
}

/// What one pass measured and produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds to build inputs and the engine.
    pub setup_s: f64,
    /// Host seconds of the simulation calls.
    pub run_s: f64,
    /// Output fingerprints; flow has one per sweep point, the others one.
    pub parts: Vec<u64>,
    pub checks: Checks,
    /// Simulated makespan in cycles (not defined on flow).
    pub sim_cycles: Option<u64>,
    /// Simulated p99 latency in cycles (machine: warm-up pass only).
    pub sim_latency_p99: Option<u64>,
    /// Exact per-layer work counters and modelled values, equal on every
    /// pass of a run.
    pub counters: Vec<(&'static str, f64)>,
}

impl Pass {
    /// One fingerprint over every output part.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &p in &self.parts {
            h.write_u64(p);
        }
        h.finish()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Seed of the manufacturing fault maps. They are the same for every run
/// seed: the makespan of a faulty wafer moves by ±8 % between fault maps,
/// which would hide a 10 % change in host time, so `--seed` varies only
/// the traffic, data and job streams.
const FAULT_SEED: u64 = 2021;

/// The workloads' fault map: uniform, with a connected healthy region.
fn fault_map(scale: Scale, tracer: &mut Tracer) -> FaultMap {
    let array = TileArray::new(scale.wafer(), scale.wafer());
    tracer.span("topo", "fault_map", |_| {
        wsp_noc::sample_connected_fault_map(array, scale.faults(), FAULT_SEED, 64)
            .expect("a connected map within the retry budget")
            .0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_checks_at_test_scale() {
        for w in Workload::ALL {
            let mut tracer = Tracer::on();
            let a = w.pass(Scale::Test, 7, &mut tracer, true);
            assert!(a.checks.attempted > 0, "{}", w.name());
            assert_eq!(a.checks.failed, 0, "{} failed its checks", w.name());
            assert!(!tracer.spans().is_empty());
            // A second pass over the same seed reproduces the outputs.
            let b = w.pass(Scale::Test, 7, &mut Tracer::off(), false);
            assert_eq!(a.digest(), b.digest(), "{} is not deterministic", w.name());
            assert_eq!(a.sim_cycles, b.sim_cycles);
            for (name, _) in &a.counters {
                let listed = crate::metrics::PER_LAYER.iter().any(|m| m.name == *name);
                assert!(listed, "{name} is not in PER_LAYER");
            }
        }
    }

    #[test]
    fn names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(Workload::ALL[w.index()], w);
        }
        assert_eq!(Workload::parse("noc"), None);
    }
}
