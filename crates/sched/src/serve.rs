//! The wafer-as-a-service campaign: admit a job stream, place jobs on
//! fault-map-aware slices, and account queueing on one deterministic
//! discrete-event clock.
//!
//! # Determinism
//!
//! The campaign clock only ever advances to the earliest pending event
//! (an arrival or a slice completion), completions at one instant are
//! processed in slice-id order, and the dispatcher always picks the
//! lowest-numbered free usable slice — so the whole campaign is a pure
//! function of its [`ServeConfig`]. Jobs run *at dispatch* (simulated
//! time is pure accounting): the machine layer guarantees bit-identical
//! results across `{dense, wheel}` stepping, so the campaign's digests,
//! histograms, and final report are bit-identical too. Between jobs every slice machine is quiescent
//! (its cores halted, its fabric drained), which is what makes the
//! snapshot in [`crate::snapshot`] small and exact.
//!
//! # Wall profile
//!
//! Each job's host time lands in a [`PhaseProfiler`] under
//! `serve.<kind>`, with a `serve.<kind>.graph` child around graph
//! generation for the graph kernels: a few clock reads per job, always
//! on. Wall time is never deterministic, so it stays out of snapshots
//! and [`ServeCampaign::export_metrics`];
//! [`ServeCampaign::export_profile`] emits it on its own.

use std::collections::VecDeque;

use rand::{Rng, RngExt as _};
use waferscale::workload::{
    reference_pagerank, run_bfs, run_pagerank, run_sssp, run_stencil, Graph, GraphKind,
    StencilGrid, HALO_WORDS,
};
use waferscale::{MultiTileMachine, SystemConfig, WaferscaleSystem};
use wsp_common::seeded_rng;
use wsp_common::stepping::Stepping;
use wsp_telemetry::{DigestJournal, Fnv1a, Histogram, LaneId, PhaseProfiler, Sink};
use wsp_tile::isa::{Program, Reg};
use wsp_tile::MemoryModelKind;
use wsp_topo::{FaultMap, TileArray, TileCoord};

use crate::jobs::{JobKind, JobSpec};
use crate::slice::{partition, restrict_faults, slice_usable, Slice};

/// Everything that determines a campaign, bit for bit.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The wafer tile array being sliced.
    pub wafer: TileArray,
    /// Manufacturing faults present before the campaign starts.
    pub wafer_faults: FaultMap,
    /// Slice extent in columns.
    pub slice_width: u16,
    /// Slice extent in rows.
    pub slice_height: u16,
    /// The admitted job stream (see [`crate::synthesize_jobs`]),
    /// ascending by arrival.
    pub jobs: Vec<JobSpec>,
    /// Tile-visit strategy for the cycle-level machine jobs
    /// (bit-identical across modes).
    pub stepping: Stepping,
    /// Memory-timing backend for every job.
    pub memory: MemoryModelKind,
    /// Fault injection: after every `n`-th job completion the completing
    /// slice fails — its tiles are marked faulty on the wafer and the
    /// slice retires (it has just drained, so no work is lost and the
    /// queue re-places onto the survivors). `None` disables injection.
    pub fail_slice_after: Option<u32>,
}

impl ServeConfig {
    /// A config over a clean `wafer` with the library defaults:
    /// wheel stepping, fixed memory, no fault injection.
    pub fn new(wafer: TileArray, slice_width: u16, slice_height: u16) -> Self {
        ServeConfig {
            wafer,
            wafer_faults: FaultMap::none(wafer),
            slice_width,
            slice_height,
            jobs: Vec::new(),
            stepping: Stepping::default(),
            memory: MemoryModelKind::default(),
            fail_slice_after: None,
        }
    }
}

/// Why a campaign could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The slice extent exceeds the wafer extent (zero slices fit).
    SliceDoesNotFit,
    /// The fault map covers a different array than `wafer`.
    FaultArrayMismatch,
    /// `jobs` is not sorted by ascending arrival.
    JobsNotSorted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::SliceDoesNotFit => f.write_str("slice extent exceeds the wafer"),
            ServeError::FaultArrayMismatch => {
                f.write_str("wafer fault map covers a different array")
            }
            ServeError::JobsNotSorted => f.write_str("job stream not sorted by arrival"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A job sitting on a slice: dispatched, its outcome already computed,
/// waiting only for the campaign clock to reach its completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingJob {
    pub(crate) job: u32,
    pub(crate) dispatched_at: u64,
    pub(crate) digest: u64,
    pub(crate) correct: bool,
}

/// One slice plus its scheduling state.
#[derive(Debug, Clone)]
pub(crate) struct SliceState {
    pub(crate) slice: Slice,
    /// Failed slices never accept work again.
    pub(crate) retired: bool,
    /// Completion time of the pending job (meaningless when idle).
    pub(crate) busy_until: u64,
    /// Total cycles this slice spent serving jobs.
    pub(crate) busy_cycles: u64,
    pub(crate) pending: Option<PendingJob>,
}

/// The campaign engine. See the module docs for the determinism
/// contract; see [`crate::snapshot`] for checkpoint/restore.
#[derive(Debug)]
pub struct ServeCampaign {
    pub(crate) config: ServeConfig,
    /// Current wafer faults: manufacturing faults plus injected slice
    /// failures.
    pub(crate) wafer_faults: FaultMap,
    pub(crate) slices: Vec<SliceState>,
    pub(crate) clock: u64,
    /// Index of the next job (in `config.jobs`) yet to arrive.
    pub(crate) next_arrival: usize,
    /// Arrived, undispatched job ids, FIFO.
    pub(crate) queue: VecDeque<u32>,
    /// Completed job ids in completion order.
    pub(crate) completed: Vec<u32>,
    /// Jobs abandoned because no usable slice remained.
    pub(crate) dropped: Vec<u32>,
    /// Jobs whose result failed its reference check (should stay 0).
    pub(crate) incorrect: u64,
    pub(crate) queue_wait: Histogram,
    pub(crate) service: Histogram,
    pub(crate) sojourn: Histogram,
    /// One lane per job, recorded at its completion cycle.
    pub(crate) journal: DigestJournal,
    /// Host wall time per job kind (see the module docs).
    profile: PhaseProfiler,
}

impl ServeCampaign {
    /// Builds a fresh campaign at cycle 0.
    ///
    /// # Errors
    ///
    /// See [`ServeError`].
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        if config.slice_width == 0
            || config.slice_height == 0
            || config.slice_width > config.wafer.cols()
            || config.slice_height > config.wafer.rows()
        {
            return Err(ServeError::SliceDoesNotFit);
        }
        if config.wafer_faults.array() != config.wafer {
            return Err(ServeError::FaultArrayMismatch);
        }
        if config.jobs.windows(2).any(|w| w[0].arrival > w[1].arrival) {
            return Err(ServeError::JobsNotSorted);
        }
        let slices = partition(config.wafer, config.slice_width, config.slice_height)
            .into_iter()
            .map(|slice| SliceState {
                slice,
                retired: false,
                busy_until: 0,
                busy_cycles: 0,
                pending: None,
            })
            .collect();
        let journal = DigestJournal::new(1, config.wafer.cols(), config.wafer.rows());
        Ok(ServeCampaign {
            wafer_faults: config.wafer_faults.clone(),
            config,
            slices,
            clock: 0,
            next_arrival: 0,
            queue: VecDeque::new(),
            completed: Vec::new(),
            dropped: Vec::new(),
            incorrect: 0,
            queue_wait: Histogram::new(),
            service: Histogram::new(),
            sojourn: Histogram::new(),
            journal,
            profile: PhaseProfiler::new(true),
        })
    }

    /// The campaign clock, in cycles.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of jobs that have completed.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Number of jobs abandoned for want of a usable slice.
    pub fn dropped(&self) -> usize {
        self.dropped.len()
    }

    /// Number of slices retired by fault injection.
    pub fn retired_slices(&self) -> usize {
        self.slices.iter().filter(|s| s.retired).count()
    }

    /// The per-job completion digest journal.
    pub fn journal(&self) -> &DigestJournal {
        &self.journal
    }

    /// The current wafer fault map (manufacturing plus injected).
    pub fn wafer_faults(&self) -> &FaultMap {
        &self.wafer_faults
    }

    /// Whether every job has been accounted for (completed or dropped).
    pub fn is_done(&self) -> bool {
        self.completed.len() + self.dropped.len() == self.config.jobs.len()
    }

    /// Advances to the next event. Returns `false` once the campaign is
    /// done (every job completed or dropped).
    pub fn step(&mut self) -> bool {
        self.admit_due();
        self.dispatch_ready();
        if self.is_done() {
            return false;
        }
        let next_busy = self
            .slices
            .iter()
            .filter(|s| s.pending.is_some())
            .map(|s| s.busy_until)
            .min();
        let next_arrival = self.config.jobs.get(self.next_arrival).map(|j| j.arrival);
        let next = match (next_busy, next_arrival) {
            (Some(b), Some(a)) => b.min(a),
            (Some(b), None) => b,
            (None, Some(a)) => a,
            (None, None) => {
                // Queued jobs, no slice serving, nothing else arriving:
                // every remaining job is undeliverable.
                let orphans: Vec<u32> = self.queue.drain(..).collect();
                self.dropped.extend(orphans);
                return false;
            }
        };
        debug_assert!(next > self.clock, "campaign clock must advance");
        self.clock = next;
        self.complete_due();
        true
    }

    /// Runs every remaining event.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Runs until at least `target` jobs have completed (or the campaign
    /// is done). The natural checkpoint boundary: the clock sits exactly
    /// at a completion instant and every slice machine is quiescent.
    pub fn run_until_completed(&mut self, target: usize) {
        while self.completed.len() < target && self.step() {}
    }

    /// Moves jobs whose arrival time has come onto the queue.
    fn admit_due(&mut self) {
        while let Some(job) = self.config.jobs.get(self.next_arrival) {
            if job.arrival > self.clock {
                break;
            }
            self.queue.push_back(job.id);
            self.next_arrival += 1;
        }
    }

    /// Places queued jobs onto free usable slices, FIFO onto the
    /// lowest-numbered slice.
    fn dispatch_ready(&mut self) {
        while !self.queue.is_empty() {
            let Some(idx) = self.free_usable_slice() else {
                break;
            };
            let job_id = self.queue.pop_front().expect("checked non-empty");
            let spec = self.config.jobs[job_id as usize];
            let slice = self.slices[idx].slice;
            let (service, digest, correct) = self.run_job(&slice, &spec);
            let state = &mut self.slices[idx];
            state.busy_until = self.clock + service;
            state.pending = Some(PendingJob {
                job: job_id,
                dispatched_at: self.clock,
                digest,
                correct,
            });
        }
    }

    fn free_usable_slice(&self) -> Option<usize> {
        self.slices.iter().position(|s| {
            !s.retired && s.pending.is_none() && slice_usable(&self.wafer_faults, s.slice.rect)
        })
    }

    /// Retires completions due at the current clock, in slice-id order,
    /// recording latency histograms and the per-job digest lane, and
    /// injecting slice failures when configured.
    fn complete_due(&mut self) {
        for idx in 0..self.slices.len() {
            let due =
                self.slices[idx].pending.is_some() && self.slices[idx].busy_until <= self.clock;
            if !due {
                continue;
            }
            let state = &mut self.slices[idx];
            let done = state.pending.take().expect("checked pending");
            let finish = state.busy_until;
            let service = finish - done.dispatched_at;
            state.busy_cycles += service;
            let arrival = self.config.jobs[done.job as usize].arrival;
            self.queue_wait.record(done.dispatched_at - arrival);
            self.service.record(service);
            self.sojourn.record(finish - arrival);
            self.journal
                .record(finish, LaneId::Job { id: done.job }, done.digest);
            if !done.correct {
                self.incorrect += 1;
            }
            self.completed.push(done.job);
            if let Some(n) = self.config.fail_slice_after {
                if n > 0 && self.completed.len().is_multiple_of(n as usize) {
                    let rect = self.slices[idx].slice.rect;
                    for t in rect.array().tiles() {
                        self.wafer_faults.mark_faulty(rect.to_wafer(t));
                    }
                    self.slices[idx].retired = true;
                }
            }
        }
    }

    /// Runs one job on `slice` and returns `(service_cycles, digest,
    /// reference_check_passed)`. Pure: depends only on the job spec, the
    /// slice's restricted fault map, and the campaign's machine options
    /// (the wall profile it feeds is never read back).
    fn run_job(&mut self, slice: &Slice, spec: &JobSpec) -> (u64, u64, bool) {
        let job_timer = self.profile.start();
        let faults = restrict_faults(&self.wafer_faults, slice.rect);
        let cfg =
            SystemConfig::with_array(slice.rect.array()).with_memory_model(self.config.memory);
        let mut hasher = Fnv1a::new();
        hasher.write_u32(spec.id);
        hasher.write_u64(spec.seed);
        let tiles = faults.healthy_count().max(1);
        let mut rng = seeded_rng(spec.seed);
        let (cycles, correct) = match spec.kind {
            JobKind::Bfs => {
                let system = WaferscaleSystem::with_faults(cfg, faults);
                let g = timed_graph(
                    &mut self.profile,
                    spec.kind.graph_phase(),
                    GraphKind::UniformRandom { avg_degree: 8 },
                    24 * tiles,
                    &mut rng,
                );
                let (dist, report) = run_bfs(&system, &g, 0).expect("admitted slice routes");
                for &d in &dist {
                    hasher.write_u32(d);
                }
                hasher.write_u64(report.cycles);
                (report.cycles, dist == g.reference_bfs(0))
            }
            JobKind::Sssp => {
                let system = WaferscaleSystem::with_faults(cfg, faults);
                let g = timed_graph(
                    &mut self.profile,
                    spec.kind.graph_phase(),
                    GraphKind::UniformRandom { avg_degree: 6 },
                    24 * tiles,
                    &mut rng,
                );
                let (dist, report) = run_sssp(&system, &g, 0).expect("admitted slice routes");
                for &d in &dist {
                    hasher.write_u64(d);
                }
                hasher.write_u64(report.cycles);
                (report.cycles, dist == g.reference_sssp(0))
            }
            JobKind::PageRank => {
                let system = WaferscaleSystem::with_faults(cfg, faults);
                let g = timed_graph(
                    &mut self.profile,
                    spec.kind.graph_phase(),
                    GraphKind::PowerLaw { avg_degree: 8 },
                    24 * tiles,
                    &mut rng,
                );
                let (ranks, report) = run_pagerank(&system, &g, 5).expect("admitted slice routes");
                // The ranks are the sequential reference's (the run prices
                // only the traffic), so this pins determinism only.
                for &r in &ranks {
                    hasher.write_u64(r);
                }
                hasher.write_u64(report.cycles);
                (report.cycles, ranks == reference_pagerank(&g, 5))
            }
            JobKind::Stencil => {
                let system = WaferscaleSystem::with_faults(cfg, faults);
                let n = 12usize;
                let mut grid = StencilGrid::new(n, n);
                for y in 0..n {
                    grid.set(0, y, f64::from(rng.random_range(0..100u32)));
                }
                let (result, report) =
                    run_stencil(&system, &grid, 6).expect("admitted slice routes");
                for y in 0..n {
                    for x in 0..n {
                        hasher.write_u64(result.get(x, y).to_bits());
                    }
                }
                hasher.write_u64(report.cycles);
                (report.cycles, result == grid.reference_jacobi(6))
            }
            JobKind::Halo => {
                let mut machine =
                    build_halo_slice_machine(&faults, self.config.stepping, self.config.memory);
                let stats = machine.run_until_halt(2_000_000).expect("halo job halts");
                hasher.write_u64(stats.cycles);
                hasher.write_u64(stats.retired);
                hasher.write_u64(stats.remote_accesses);
                hasher.write_u64(stats.network_stall_cycles);
                (stats.cycles, true)
            }
        };
        self.profile.stop(spec.kind.phase(), job_timer);
        (cycles.max(1), hasher.finish(), correct)
    }

    /// Exports the campaign's SLO metrics under the `serve.` prefix:
    /// queueing/service/sojourn latency histograms (the report layer
    /// derives p50/p95/p99), slice utilisation, throughput at the
    /// nominal frequency, and the completion/drop/retire counters. All
    /// values are simulated-clock quantities — nothing wall-clock — so
    /// reports are byte-stable across hosts and stepping modes.
    pub fn export_metrics(&self, sink: &mut dyn Sink) {
        sink.histogram_merge("serve.queue_wait_cycles", &self.queue_wait);
        sink.histogram_merge("serve.service_cycles", &self.service);
        sink.histogram_merge("serve.sojourn_cycles", &self.sojourn);
        sink.counter_add("serve.jobs_completed", self.completed.len() as u64);
        sink.counter_add("serve.jobs_dropped", self.dropped.len() as u64);
        sink.counter_add("serve.jobs_incorrect", self.incorrect);
        sink.counter_add("serve.slices_total", self.slices.len() as u64);
        sink.counter_add("serve.slices_retired", self.retired_slices() as u64);
        for kind in JobKind::ALL {
            let n = self
                .completed
                .iter()
                .filter(|&&id| self.config.jobs[id as usize].kind == kind)
                .count();
            sink.counter_add(&format!("serve.jobs.{}", kind.as_str()), n as u64);
        }
        let makespan = self.clock.max(1);
        sink.gauge_set("serve.makespan_cycles", self.clock as f64);
        let busy: u64 = self.slices.iter().map(|s| s.busy_cycles).sum();
        sink.gauge_set(
            "serve.slice_utilisation",
            busy as f64 / (self.slices.len().max(1) as f64 * makespan as f64),
        );
        let seconds = makespan as f64 / SystemConfig::NOMINAL_FREQUENCY.value();
        sink.gauge_set("serve.jobs_per_sec", self.completed.len() as f64 / seconds);
    }

    /// Exports the host wall time spent per job kind as
    /// `wall.profile.serve.<kind>[.graph].{ms,calls}` gauges (see the
    /// module docs). Wall clock, so never part of a deterministic report;
    /// a restored campaign profiles only the jobs it ran itself.
    pub fn export_profile(&self, sink: &mut dyn Sink) {
        self.profile.export(sink, "");
    }
}

/// [`Graph::generate`], timed into `profile` under `phase`.
fn timed_graph<R: Rng + ?Sized>(
    profile: &mut PhaseProfiler,
    phase: &'static str,
    kind: GraphKind,
    vertices: usize,
    rng: &mut R,
) -> Graph {
    let timer = profile.start();
    let graph = Graph::generate(kind, vertices, rng);
    profile.stop(phase, timer);
    graph
}

/// Builds the halo-exchange machine over a slice's (possibly faulty)
/// local array: every healthy tile runs two cores that stream
/// [`HALO_WORDS`] words from the nearest *machine-reachable* healthy
/// tile eastwards (wrapping around; a tile with no reachable peer in
/// its row reads itself). The faulty-slice generalisation of
/// `waferscale::workload::build_halo_machine`.
///
/// Reachability is the machine's own: the kernel route planner's dual
/// DoR networks plus a single relay. That is *stricter* than the
/// connected-healthy-region predicate the scheduler admits slices by —
/// a fault maze can leave two healthy tiles connected only through
/// multiple intermediates, which the analytic kernels price as
/// store-and-forward but the ISA machine cannot route. Skipping such
/// pairs (rather than faulting the core) keeps every admitted slice
/// able to serve halo jobs.
pub fn build_halo_slice_machine(
    faults: &FaultMap,
    stepping: Stepping,
    memory: MemoryModelKind,
) -> MultiTileMachine {
    let array = faults.array();
    let cfg = SystemConfig::with_array(array).with_memory_model(memory);
    let planner = wsp_noc::RoutePlanner::new(faults.clone());
    let mut m = MultiTileMachine::new(cfg, faults.clone());
    m.set_stepping(stepping);
    for t in faults.healthy_tiles().collect::<Vec<_>>() {
        let east = (1..=array.cols())
            .map(|dx| TileCoord::new((t.x + dx) % array.cols(), t.y))
            .find(|&e| {
                faults.is_healthy(e) && planner.choose(t, e) != wsp_noc::NetworkChoice::Disconnected
            })
            .unwrap_or(t);
        for core in 0..2u32 {
            let base = m.global_address(east, core * 64).expect("healthy target");
            let program = Program::builder()
                .ldi(Reg::R1, base)
                .ldi(Reg::R5, 0)
                .ldi(Reg::R3, HALO_WORDS)
                .ldi(Reg::R0, 0)
                .label("halo")
                .ld(Reg::R2, Reg::R1, 0)
                .add(Reg::R5, Reg::R5, Reg::R2)
                .addi(Reg::R1, Reg::R1, 4)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "halo")
                .halt()
                .build()
                .expect("builds");
            m.load_program(t, core as usize, &program)
                .expect("healthy tile");
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize_jobs;

    fn small_config(jobs: usize, fail_after: Option<u32>) -> ServeConfig {
        let wafer = TileArray::new(8, 8);
        let mut cfg = ServeConfig::new(wafer, 4, 4);
        cfg.jobs = synthesize_jobs(jobs, 11, 2_000);
        cfg.fail_slice_after = fail_after;
        cfg
    }

    #[test]
    fn campaign_completes_every_job_and_checks_answers() {
        let mut campaign = ServeCampaign::new(small_config(12, None)).expect("valid");
        campaign.run_to_completion();
        assert!(campaign.is_done());
        assert_eq!(campaign.completed(), 12);
        assert_eq!(campaign.dropped(), 0);
        assert_eq!(campaign.incorrect, 0);
        // One journal lane per job, recorded at its completion cycle.
        let lanes: usize = campaign
            .journal()
            .windows()
            .iter()
            .map(|w| w.lanes.len())
            .sum();
        assert_eq!(lanes, 12);
        // Histograms saw every job once.
        assert_eq!(campaign.queue_wait.count(), 12);
        assert_eq!(campaign.service.count(), 12);
        assert_eq!(campaign.sojourn.count(), 12);
        // Sojourn dominates both components.
        assert!(campaign.sojourn.max() >= campaign.service.max());
        assert!(campaign.sojourn.max() >= campaign.queue_wait.max());
    }

    #[test]
    fn campaign_is_deterministic() {
        let mut a = ServeCampaign::new(small_config(10, Some(4))).expect("valid");
        let mut b = ServeCampaign::new(small_config(10, Some(4))).expect("valid");
        a.run_to_completion();
        b.run_to_completion();
        assert_eq!(a.clock(), b.clock());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.journal().to_text(), b.journal().to_text());
    }

    #[test]
    fn machine_options_do_not_change_outcomes() {
        assert_eq!(small_config(8, None).stepping, Stepping::Wheel, "default");
        let mut reference: Option<(u64, String)> = None;
        for stepping in [Stepping::Dense, Stepping::Wheel] {
            let mut cfg = small_config(8, None);
            cfg.stepping = stepping;
            let mut campaign = ServeCampaign::new(cfg).expect("valid");
            campaign.run_to_completion();
            let got = (campaign.clock(), campaign.journal().to_text());
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(*want, got, "{stepping:?} diverged from the reference run")
                }
            }
        }
    }

    #[test]
    fn injected_failures_retire_slices_and_replace_queued_jobs() {
        let mut campaign = ServeCampaign::new(small_config(12, Some(3))).expect("valid");
        campaign.run_to_completion();
        assert!(campaign.retired_slices() >= 1);
        // Failures mark the slice's wafer tiles faulty.
        let retired: Vec<_> = campaign
            .slices
            .iter()
            .filter(|s| s.retired)
            .map(|s| s.slice.rect)
            .collect();
        for rect in retired {
            for t in rect.array().tiles() {
                assert!(campaign.wafer_faults().is_faulty(rect.to_wafer(t)));
            }
        }
        // With 4 slices and a failure every 3 completions, 12 jobs still
        // all complete (the last survivor drains the queue).
        assert_eq!(campaign.completed() + campaign.dropped(), 12);
        assert!(campaign.completed() >= 4);
    }

    #[test]
    fn all_slices_dead_drops_the_remainder() {
        // 2x2 wafer = a single 2x2 slice; fail it after the first job.
        let wafer = TileArray::new(2, 2);
        let mut cfg = ServeConfig::new(wafer, 2, 2);
        cfg.jobs = synthesize_jobs(5, 3, 100);
        cfg.fail_slice_after = Some(1);
        let mut campaign = ServeCampaign::new(cfg).expect("valid");
        campaign.run_to_completion();
        assert_eq!(campaign.completed(), 1);
        assert_eq!(campaign.dropped(), 4);
        assert!(campaign.is_done());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let wafer = TileArray::new(4, 4);
        let too_big = ServeConfig::new(wafer, 8, 4);
        assert_eq!(
            ServeCampaign::new(too_big).unwrap_err(),
            ServeError::SliceDoesNotFit
        );
        let mut mismatched = ServeConfig::new(wafer, 2, 2);
        mismatched.wafer_faults = FaultMap::none(TileArray::new(8, 8));
        assert_eq!(
            ServeCampaign::new(mismatched).unwrap_err(),
            ServeError::FaultArrayMismatch
        );
        let mut unsorted = ServeConfig::new(wafer, 2, 2);
        unsorted.jobs = synthesize_jobs(4, 1, 100);
        unsorted.jobs.reverse();
        assert_eq!(
            ServeCampaign::new(unsorted).unwrap_err(),
            ServeError::JobsNotSorted
        );
    }

    #[test]
    fn halo_slice_machine_tolerates_faults() {
        let array = TileArray::new(4, 4);
        let faults = FaultMap::from_faulty(array, [TileCoord::new(1, 1), TileCoord::new(2, 2)]);
        let mut m = build_halo_slice_machine(&faults, Stepping::Wheel, MemoryModelKind::Fixed);
        let stats = m.run_until_halt(1_000_000).expect("halts");
        // 14 healthy tiles x 2 cores x HALO_WORDS loads, local or remote.
        assert_eq!(
            stats.local_accesses + stats.remote_accesses,
            14 * 2 * u64::from(HALO_WORDS)
        );
    }

    #[test]
    fn wall_profile_times_every_job_outside_the_report() {
        let mut campaign = ServeCampaign::new(small_config(15, None)).expect("valid");
        campaign.run_to_completion();
        let mut profile = wsp_telemetry::Recorder::new();
        campaign.export_profile(&mut profile);
        let calls = |phase: &str| {
            profile
                .registry
                .gauge(&format!("wall.profile.{phase}.calls"))
                .unwrap_or(0.0) as usize
        };
        for kind in JobKind::ALL {
            let jobs = campaign
                .completed
                .iter()
                .filter(|&&id| campaign.config.jobs[id as usize].kind == kind)
                .count();
            assert_eq!(calls(&format!("serve.{}", kind.as_str())), jobs, "{kind:?}");
            let graphs = match kind {
                JobKind::Bfs | JobKind::Sssp | JobKind::PageRank => jobs,
                JobKind::Stencil | JobKind::Halo => 0,
            };
            assert_eq!(
                calls(&format!("serve.{}.graph", kind.as_str())),
                graphs,
                "{kind:?}"
            );
        }
        // Wall time never reaches the deterministic report or snapshot.
        let metrics = wsp_telemetry::SharedRecorder::new();
        campaign.export_metrics(&mut metrics.clone());
        assert!(!metrics.metrics_json("serve").contains("wall."));
        assert!(!campaign.snapshot().contains("wall"));
    }
}
