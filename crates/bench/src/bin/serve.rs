//! The wafer-as-a-service campaign bench: slices the wafer, admits an
//! open-loop synthetic job stream, and reports queueing-latency
//! p50/p95/p99, slice utilisation, and throughput.
//!
//! Run with `cargo run --release -p wsp-bench --bin serve`.
//! Accepts the common bench flags (`--json`, `--seed`, `--stepping`,
//! `--memory`, `--smoke`) plus the serving knobs
//! (`--jobs`, `--slice`, `--fail-after`) and the checkpoint flags
//! (`--snapshot`, `--snapshot-after`, `--restore`); see `ServeOpts`.
//!
//! Smoke runs report only simulated-clock quantities, so the JSON report
//! and the `.digest` sidecar (one digest lane per job, recorded at its
//! completion cycle) are byte-identical across hosts and stepping
//! modes; `scripts/check.sh` byte-compares them against
//! `tests/golden/serve_smoke.json` and gates a snapshot→restore→resume
//! roundtrip on digest identity. Full runs add the campaign's per-kind
//! wall profile (`wall.profile.serve.<kind>[.graph]`, host time spent
//! per job kind and in its graph generation), which no golden reads.

use wsp_bench::{header, result_line, row, ServeOpts};
use wsp_noc::sample_connected_fault_map;
use wsp_sched::{synthesize_jobs, ServeCampaign, ServeConfig};
use wsp_telemetry::SharedRecorder;
use wsp_topo::TileArray;

fn main() {
    let opts = ServeOpts::from_env();
    let recorder = SharedRecorder::new();
    let seed = opts.bench.seed_or(77);

    // Smoke: a 12x12 wafer in 4x4 slices; full: 32x32 in 8x8 slices.
    // Mean interarrival gaps are chosen to load the wafer: short enough
    // that jobs queue behind busy slices (so the queueing percentiles
    // measure something), long enough that the campaign drains.
    let (wafer, slice_default, jobs_default, mean_gap) = if opts.bench.smoke {
        (TileArray::new(12, 12), (4u16, 4u16), 24usize, 50u64)
    } else {
        (TileArray::new(32, 32), (8, 8), 96, 60)
    };
    let (slice_w, slice_h) = opts.slice.unwrap_or(slice_default);
    let jobs = opts.jobs.unwrap_or(jobs_default);
    // One injected slice failure per ~half the stream by default, so the
    // drain/retire/re-place path is always exercised.
    let fail_after = opts.fail_after.unwrap_or((jobs / 2).max(1) as u32);

    // Manufacturing faults: ~2% of tiles, drawn with the bounded
    // deterministic resampling used everywhere else in the workspace.
    let fault_count = wafer.tile_count() / 50;
    let (wafer_faults, _attempt) = sample_connected_fault_map(wafer, fault_count, seed, 32)
        .expect("fault sampling within budget");

    let mut config = ServeConfig::new(wafer, slice_w, slice_h);
    config.wafer_faults = wafer_faults;
    config.jobs = synthesize_jobs(jobs, seed, mean_gap);
    config.stepping = opts.bench.stepping;
    config.memory = opts.bench.memory;
    config.fail_slice_after = (fail_after > 0).then_some(fail_after);

    header(
        "Serving",
        "wafer-as-a-service campaign: slices, queueing, SLOs",
    );
    row(&[
        "wafer".to_string(),
        format!("{}x{}", wafer.cols(), wafer.rows()),
    ]);
    row(&["slice".to_string(), format!("{slice_w}x{slice_h}")]);
    row(&["jobs".to_string(), format!("{jobs}")]);
    row(&["manufacturing faults".to_string(), format!("{fault_count}")]);

    let mut campaign = match &opts.restore {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read snapshot {}: {e}", path.display())));
            let campaign = ServeCampaign::restore(config, &text)
                .unwrap_or_else(|e| fail(&format!("bad snapshot {}: {e}", path.display())));
            result_line(
                "resumed",
                format!(
                    "{} jobs already complete at cycle {}",
                    campaign.completed(),
                    campaign.clock()
                ),
                None,
            );
            campaign
        }
        None => ServeCampaign::new(config)
            .unwrap_or_else(|e| fail(&format!("invalid campaign config: {e}"))),
    };

    match (&opts.snapshot, opts.snapshot_after) {
        (Some(path), after) => {
            if let Some(after) = after {
                campaign.run_until_completed(after);
            } else {
                campaign.run_to_completion();
            }
            std::fs::write(path, campaign.snapshot()).unwrap_or_else(|e| {
                fail(&format!("cannot write snapshot {}: {e}", path.display()))
            });
            println!("  wrote campaign snapshot: {}", path.display());
            if !campaign.is_done() {
                // A paused campaign reports nothing: the snapshot is the
                // artefact, and the resumed run owns the report.
                return;
            }
        }
        (None, _) => campaign.run_to_completion(),
    }

    header("Serving", "campaign outcome");
    row(&["metric", "value"]);
    row(&[
        "jobs completed".to_string(),
        format!("{}", campaign.completed()),
    ]);
    row(&[
        "jobs dropped".to_string(),
        format!("{}", campaign.dropped()),
    ]);
    row(&[
        "slices retired".to_string(),
        format!("{}", campaign.retired_slices()),
    ]);
    row(&[
        "makespan cycles".to_string(),
        format!("{}", campaign.clock()),
    ]);
    campaign.export_metrics(&mut recorder.clone());
    if !opts.bench.smoke {
        campaign.export_profile(&mut recorder.clone());
    }
    result_line(
        "takeaway",
        "queueing percentiles, utilisation, and throughput are in the JSON report",
        None,
    );

    opts.bench.write_outputs("serve", &recorder);
    opts.bench.write_digest(Some(campaign.journal()));
}

/// Reports bad input the way `ServeOpts::from_env` reports a bad flag:
/// one `error:` line and exit status 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
