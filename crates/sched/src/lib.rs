//! Wafer-as-a-service: slice the wafer, admit a job stream, report SLOs.
//!
//! The paper builds one 14,336-core machine out of a 2048-chiplet wafer;
//! this crate asks the operational follow-on question: how do you *run*
//! such a wafer as shared infrastructure? It partitions the tile array
//! into rectangular, fault-map-aware slices, admits an open-loop
//! synthetic stream of kernel jobs (BFS / SSSP / PageRank / stencil /
//! halo-exchange), places each job on a free slice, runs it on a
//! slice-confined machine or system, and reports queueing-latency
//! percentiles, slice utilisation, and throughput through
//! `wsp-telemetry` under the `wsp-bench-v2` schema.
//!
//! Crate layout:
//!
//! * [`slice`](mod@slice) — rectangles, wafer↔slice coordinate mapping, fault-map
//!   restriction, and the connected-healthy-region usability predicate.
//!   Confinement holds by construction: a slice's machine is built over
//!   the slice's own [`wsp_topo::TileArray`], so its packets have no
//!   larger fabric to escape into.
//! * [`jobs`] — the seeded open-loop job synthesiser; every job carries
//!   a decorrelated private seed ([`wsp_common::rng::stream_seed`]).
//! * [`serve`] — the deterministic discrete-event campaign engine:
//!   FIFO admission, lowest-free-slice placement, latency histograms,
//!   per-job completion digests ([`wsp_telemetry::LaneId::Job`] lanes),
//!   and optional slice-failure injection (failed slices drain, retire,
//!   and their queued work re-places onto survivors).
//! * [`snapshot`] — checkpoint/restore at completion boundaries; a
//!   restored campaign finishes bit-identically to an uninterrupted one.
//!
//! # Examples
//!
//! ```
//! use wsp_sched::{synthesize_jobs, ServeCampaign, ServeConfig};
//! use wsp_telemetry::{SharedRecorder, Sink};
//! use wsp_topo::TileArray;
//!
//! let mut config = ServeConfig::new(TileArray::new(8, 8), 4, 4);
//! config.jobs = synthesize_jobs(8, 42, 1_000);
//! let mut campaign = ServeCampaign::new(config).expect("valid config");
//! campaign.run_to_completion();
//! assert_eq!(campaign.completed(), 8);
//! let recorder = SharedRecorder::new();
//! campaign.export_metrics(&mut recorder.clone());
//! assert!(recorder.metrics_json("doc").contains("serve.jobs_completed"));
//! ```

#![forbid(unsafe_code)]

pub mod jobs;
pub mod serve;
pub mod slice;
pub mod snapshot;

pub use jobs::{synthesize_jobs, JobKind, JobSpec};
pub use serve::{ServeCampaign, ServeConfig, ServeError};
pub use slice::{partition, restrict_faults, slice_usable, Slice, SliceRect};
pub use snapshot::SNAPSHOT_MAGIC;
