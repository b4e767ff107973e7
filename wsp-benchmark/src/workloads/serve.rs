//! The wafer-as-a-service workload: an open-loop job stream placed onto
//! fault-aware slices, with one injected slice failure per half stream.
//!
//! The scheduler, the analytic graph kernels and small halo machines do
//! the work here; the full-wafer fabric does little.

use std::time::Instant;

use wsp_sched::{synthesize_jobs, JobKind, ServeCampaign, ServeConfig};
use wsp_telemetry::{Fnv1a, Recorder};

use super::{fault_map, Pass, Scale};
use crate::trace::Tracer;

pub fn stream(scale: Scale, seed: u64, tracer: &mut Tracer) -> Pass {
    let (slice, jobs, mean_gap) = match scale {
        // A mean gap of 140 cycles keeps slice utilisation near 0.8.
        Scale::Full => (8, 400, 140),
        Scale::Test => (4, 12, 2_000),
    };
    let setup = Instant::now();
    let faults = fault_map(scale, tracer);
    let mut config = ServeConfig::new(faults.array(), slice, slice);
    config.wafer_faults = faults;
    // Seeded arrivals and per-job seeds, but kinds in a fixed rotation:
    // a drawn mix moves host time by ±10 % between seeds.
    config.jobs = synthesize_jobs(jobs, seed, mean_gap);
    for (job, kind) in config.jobs.iter_mut().zip(JobKind::ALL.iter().cycle()) {
        job.kind = *kind;
    }
    config.fail_slice_after = Some((jobs / 2) as u32);
    let mut campaign = tracer.span("sched", "new", |_| {
        ServeCampaign::new(config).expect("valid campaign config")
    });
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now();
    let steps = tracer.span("sched", "run", |tracer| {
        let mut steps = 1u64;
        while tracer.span("sched", "step", |_| campaign.step()) {
            steps += 1;
        }
        steps
    });
    let run_s = start.elapsed().as_secs_f64();

    tracer.span("bench", "check", |_| {
        let mut recorder = Recorder::new();
        campaign.export_metrics(&mut recorder);
        let r = &recorder.registry;
        let incorrect = r.counter("serve.jobs_incorrect");
        let completed = campaign.completed() as u64;
        let mut pass = Pass {
            setup_s,
            run_s,
            ..Pass::default()
        };
        // Every job must complete with a correct answer; a dropped job
        // counts as failed.
        let jobs = jobs as u64;
        pass.checks
            .count(jobs, jobs - completed.min(jobs) + incorrect.min(completed));
        let mut h = Fnv1a::new();
        h.write_u64(campaign.clock());
        h.write_bytes(campaign.journal().to_text().as_bytes());
        pass.parts = vec![h.finish()];
        let hist = |name: &str, p: f64| r.histogram(name).map_or(0, |h| h.percentile(p));
        let sojourn_p99 = hist("serve.sojourn_cycles", 0.99);
        pass.sim_cycles = Some(campaign.clock());
        pass.sim_latency_p99 = Some(sojourn_p99);
        pass.counters = vec![
            ("sched.steps", steps as f64),
            ("sched.jobs_completed", completed as f64),
            ("sched.jobs_dropped", campaign.dropped() as f64),
            ("sched.jobs_incorrect", incorrect as f64),
            ("sched.slices_retired", campaign.retired_slices() as f64),
            (
                "sched.utilisation",
                r.gauge("serve.slice_utilisation").unwrap_or(0.0),
            ),
            (
                "sched.queue_wait_p95_cycles",
                hist("serve.queue_wait_cycles", 0.95) as f64,
            ),
            ("sched.sojourn_p99_cycles", sojourn_p99 as f64),
        ];
        pass
    })
}
