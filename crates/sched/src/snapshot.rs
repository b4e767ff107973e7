//! Campaign checkpoint/restore: a line-oriented text snapshot that
//! resumes bit-identically.
//!
//! Snapshots are taken at completion boundaries
//! ([`ServeCampaign::run_until_completed`]), where every slice machine
//! is quiescent — cores halted, fabric drained, memory models idle — so
//! the *entire* machine/fabric/memory state a mid-run checkpoint would
//! have to serialise is reconstructible from the slice's fault map
//! alone. What the snapshot must carry is exactly the campaign state:
//! the clock, the admission cursor, the queue, the current wafer fault
//! map (manufacturing plus injected failures), each slice's pending-job
//! accounting (including the already-computed completion digest, so a
//! resumed run never re-executes a dispatched job), the three latency
//! histograms (via raw accumulators), and the digest journal so far.
//! Restoring into the same [`ServeConfig`] and running to completion
//! yields byte-identical reports and journals to the uninterrupted run
//! — `scripts/check.sh` gates on exactly that.
//!
//! The snapshot does not embed the config, but it pins it: after the
//! wafer, slice and job-count lines comes `config <16 hex digits>`, a
//! digest of everything else in the [`ServeConfig`] the outcome depends
//! on, and [`ServeCampaign::restore`] rejects a config that does not
//! reproduce it.
//!
//! The last line seals the snapshot: `checksum <16 hex digits>`, the
//! FNV-1a 64 of every byte before it. [`ServeCampaign::restore`] checks
//! it before parsing any field, so a corrupted snapshot is rejected
//! rather than believed.

use std::collections::VecDeque;
use std::fmt::Write as _;

use wsp_telemetry::{DigestJournal, Fnv1a, Histogram, HISTOGRAM_BUCKETS};
use wsp_topo::FaultMap;

use crate::serve::{PendingJob, ServeCampaign, ServeConfig};

/// First line of every campaign snapshot; bump when the layout changes.
pub const SNAPSHOT_MAGIC: &str = "wsp-serve-snapshot-v3";

/// FNV-1a 64 of the parts of `config` a campaign's outcome depends on
/// beyond the dimensions and job count a snapshot states outright: the
/// starting wafer faults, every job (id, kind, arrival, seed), the memory
/// backend and the failure cadence. `stepping` stays out: every mode is
/// bit-identical by contract, so a snapshot may resume under either.
fn config_digest(config: &ServeConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(config.wafer_faults.faulty_tiles().count() as u64);
    for tile in config.wafer_faults.faulty_tiles() {
        h.write_u32(config.wafer.index_of(tile) as u32);
    }
    h.write_u64(config.jobs.len() as u64);
    for job in &config.jobs {
        h.write_u32(job.id);
        h.write_bytes(job.kind.as_str().as_bytes());
        h.write_u8(0);
        h.write_u64(job.arrival);
        h.write_u64(job.seed);
    }
    h.write_bytes(config.memory.as_str().as_bytes());
    h.write_u8(0);
    match config.fail_slice_after {
        None => h.write_u8(0),
        Some(n) => {
            h.write_u8(1);
            h.write_u32(n);
        }
    }
    h.finish()
}

/// FNV-1a 64 of a snapshot body.
fn checksum(body: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(body.as_bytes());
    h.finish()
}

/// Appends the `checksum` line that seals `body`, which must end in a
/// newline.
fn seal(mut body: String) -> String {
    let _ = writeln!(body, "checksum {:016x}", checksum(&body));
    body
}

/// The body of a sealed snapshot (everything before its checksum line),
/// once the magic line and the checksum check out.
fn unseal(text: &str) -> Result<&str, String> {
    if text.lines().next() != Some(SNAPSHOT_MAGIC) {
        return Err(format!("snapshot does not start with {SNAPSHOT_MAGIC:?}"));
    }
    let sealed = text.strip_suffix('\n').unwrap_or(text);
    let (body, last) = match sealed.rsplit_once('\n') {
        Some((before, last)) => (&text[..=before.len()], last),
        None => ("", sealed),
    };
    let stored = last
        .strip_prefix("checksum ")
        .ok_or("snapshot does not end with a checksum line")?;
    let computed = format!("{:016x}", checksum(body));
    if stored != computed {
        return Err(format!(
            "snapshot checksum {stored:?} does not match its contents ({computed})"
        ));
    }
    Ok(body)
}

fn push_ids(out: &mut String, key: &str, ids: impl IntoIterator<Item = u32>) {
    out.push_str(key);
    for id in ids {
        let _ = write!(out, " {id}");
    }
    out.push('\n');
}

fn push_hist(out: &mut String, name: &str, hist: &Histogram) {
    let (count, sum, min, max, buckets) = hist.to_raw();
    let _ = write!(out, "hist {name} {count} {sum} {min} {max}");
    for b in buckets {
        let _ = write!(out, " {b}");
    }
    out.push('\n');
}

impl ServeCampaign {
    /// Serialises the campaign state (see the module docs for what is
    /// and is not captured).
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        out.push_str(SNAPSHOT_MAGIC);
        out.push('\n');
        let _ = writeln!(
            out,
            "wafer {} {}",
            self.config.wafer.cols(),
            self.config.wafer.rows()
        );
        let _ = writeln!(
            out,
            "slice {} {}",
            self.config.slice_width, self.config.slice_height
        );
        let _ = writeln!(out, "jobs {}", self.config.jobs.len());
        let _ = writeln!(out, "config {:016x}", config_digest(&self.config));
        let _ = writeln!(out, "clock {}", self.clock);
        let _ = writeln!(out, "next_arrival {}", self.next_arrival);
        push_ids(&mut out, "queue", self.queue.iter().copied());
        push_ids(&mut out, "completed", self.completed.iter().copied());
        push_ids(&mut out, "dropped", self.dropped.iter().copied());
        let _ = writeln!(out, "incorrect {}", self.incorrect);
        push_ids(
            &mut out,
            "faults",
            self.wafer_faults
                .faulty_tiles()
                .map(|t| self.config.wafer.index_of(t) as u32),
        );
        let _ = writeln!(out, "slices {}", self.slices.len());
        for s in &self.slices {
            let _ = write!(
                out,
                "s {} {} {} {}",
                s.slice.id,
                u8::from(s.retired),
                s.busy_until,
                s.busy_cycles
            );
            if let Some(p) = &s.pending {
                let _ = write!(
                    out,
                    " p {} {} {:016x} {}",
                    p.job,
                    p.dispatched_at,
                    p.digest,
                    u8::from(p.correct)
                );
            }
            out.push('\n');
        }
        push_hist(&mut out, "queue_wait", &self.queue_wait);
        push_hist(&mut out, "service", &self.service);
        push_hist(&mut out, "sojourn", &self.sojourn);
        let journal = self.journal.to_text();
        let _ = writeln!(out, "journal {}", journal.lines().count());
        out.push_str(&journal);
        if !journal.ends_with('\n') {
            out.push('\n');
        }
        seal(out)
    }

    /// Rebuilds a campaign from `text`, validating it against `config`
    /// (the snapshot does not embed the job stream or machine options —
    /// the caller must supply the same config the snapshot was taken
    /// under; dimensions and job count are cross-checked, and the rest
    /// through the `config` digest, before any campaign state is read).
    ///
    /// Job ids are checked against the config's stream: every job that
    /// has arrived (`0..next_arrival`) must sit exactly once in the
    /// queue, a slice's pending slot, or the completed or dropped list,
    /// and nothing else may be listed. Pending slots must be dispatched
    /// after their job arrived and complete after the snapshot's clock,
    /// as at every completion boundary.
    ///
    /// # Errors
    ///
    /// Returns a description of a wrong magic line or checksum (checked
    /// first), or of the first malformed line, config mismatch, or
    /// inconsistent job bookkeeping.
    pub fn restore(config: ServeConfig, text: &str) -> Result<ServeCampaign, String> {
        // Skip the magic line, which `unseal` has checked.
        let mut lines = unseal(text)?.lines().skip(1);
        let mut campaign = ServeCampaign::new(config).map_err(|e| e.to_string())?;
        let wafer = parse_pair(lines.next(), "wafer")?;
        if wafer
            != (
                u64::from(campaign.config.wafer.cols()),
                u64::from(campaign.config.wafer.rows()),
            )
        {
            return Err("snapshot wafer dimensions do not match the config".into());
        }
        let slice = parse_pair(lines.next(), "slice")?;
        if slice
            != (
                u64::from(campaign.config.slice_width),
                u64::from(campaign.config.slice_height),
            )
        {
            return Err("snapshot slice dimensions do not match the config".into());
        }
        let jobs = parse_one(lines.next(), "jobs")?;
        if jobs != campaign.config.jobs.len() as u64 {
            return Err("snapshot job count does not match the config".into());
        }
        let digest = keyed(lines.next(), "config")?
            .next()
            .ok_or("missing config digest")?;
        if digest != format!("{:016x}", config_digest(&campaign.config)) {
            return Err("snapshot was taken under a different config \
                 (wafer faults, job stream, memory model or failure cadence)"
                .into());
        }
        campaign.clock = parse_one(lines.next(), "clock")?;
        campaign.next_arrival = parse_one(lines.next(), "next_arrival")? as usize;
        campaign.queue = parse_ids(lines.next(), "queue")?
            .into_iter()
            .collect::<VecDeque<u32>>();
        campaign.completed = parse_ids(lines.next(), "completed")?;
        campaign.dropped = parse_ids(lines.next(), "dropped")?;
        campaign.incorrect = parse_one(lines.next(), "incorrect")?;
        let fault_ids = parse_ids(lines.next(), "faults")?;
        let wafer_array = campaign.config.wafer;
        if let Some(&bad) = fault_ids
            .iter()
            .find(|&&i| i as usize >= wafer_array.tile_count())
        {
            return Err(format!("fault index {bad} outside the wafer"));
        }
        campaign.wafer_faults = FaultMap::from_faulty(
            wafer_array,
            fault_ids.iter().map(|&i| wafer_array.coord_of(i as usize)),
        );
        let slice_count = parse_one(lines.next(), "slices")? as usize;
        if slice_count != campaign.slices.len() {
            return Err(format!(
                "snapshot has {slice_count} slices, the config partitions into {}",
                campaign.slices.len()
            ));
        }
        for idx in 0..slice_count {
            let line = lines.next().ok_or("truncated slice list")?;
            let mut f = line.split_whitespace();
            if f.next() != Some("s") {
                return Err(format!("expected slice line, got {line:?}"));
            }
            let id: usize = field(f.next(), "slice id")?;
            if id != idx {
                return Err(format!("slice lines out of order at {id}"));
            }
            let retired: u8 = field(f.next(), "retired flag")?;
            let state = &mut campaign.slices[idx];
            state.retired = retired != 0;
            state.busy_until = field(f.next(), "busy_until")?;
            state.busy_cycles = field(f.next(), "busy_cycles")?;
            state.pending = match f.next() {
                None => None,
                Some("p") => {
                    let job: u32 = field(f.next(), "pending job")?;
                    let dispatched_at: u64 = field(f.next(), "dispatch cycle")?;
                    let digest = u64::from_str_radix(f.next().ok_or("missing pending digest")?, 16)
                        .map_err(|e| format!("bad pending digest: {e}"))?;
                    let correct: u8 = field(f.next(), "correct flag")?;
                    Some(PendingJob {
                        job,
                        dispatched_at,
                        digest,
                        correct: correct != 0,
                    })
                }
                Some(other) => return Err(format!("unexpected slice field {other:?}")),
            };
            if let Some(extra) = f.next() {
                return Err(format!("slice {idx} has a trailing field {extra:?}"));
            }
        }
        campaign.check_jobs()?;
        campaign.queue_wait = parse_hist(lines.next(), "queue_wait")?;
        campaign.service = parse_hist(lines.next(), "service")?;
        campaign.sojourn = parse_hist(lines.next(), "sojourn")?;
        let journal_lines = parse_one(lines.next(), "journal")? as usize;
        let mut journal = String::new();
        for _ in 0..journal_lines {
            journal.push_str(lines.next().ok_or("truncated journal")?);
            journal.push('\n');
        }
        campaign.journal = DigestJournal::parse(&journal)?;
        Ok(campaign)
    }

    /// The job-bookkeeping half of [`ServeCampaign::restore`]'s checks.
    fn check_jobs(&self) -> Result<(), String> {
        let jobs = &self.config.jobs;
        if self.next_arrival > jobs.len() {
            return Err(format!(
                "next_arrival {} is beyond the {}-job stream",
                self.next_arrival,
                jobs.len()
            ));
        }
        if let Some(last) = self.next_arrival.checked_sub(1) {
            if jobs[last].arrival > self.clock {
                return Err(format!("job {last} arrives after the clock"));
            }
        }
        let pending = self
            .slices
            .iter()
            .filter_map(|s| s.pending.as_ref())
            .map(|p| ("pending", p.job));
        let listed = (self.queue.iter().map(|&id| ("queue", id)))
            .chain(self.completed.iter().map(|&id| ("completed", id)))
            .chain(self.dropped.iter().map(|&id| ("dropped", id)))
            .chain(pending);
        let mut seen = vec![false; self.next_arrival];
        for (list, id) in listed {
            if id as usize >= jobs.len() {
                return Err(format!(
                    "{list} job {id} is outside the {}-job stream",
                    jobs.len()
                ));
            }
            let slot = seen
                .get_mut(id as usize)
                .ok_or_else(|| format!("{list} job {id} has not arrived yet"))?;
            if *slot {
                return Err(format!("job {id} is listed twice"));
            }
            *slot = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("arrived job {missing} is not listed"));
        }
        for (idx, slice) in self.slices.iter().enumerate() {
            let Some(p) = &slice.pending else { continue };
            let arrival = jobs[p.job as usize].arrival;
            if !(arrival <= p.dispatched_at
                && p.dispatched_at <= self.clock
                && self.clock < slice.busy_until)
            {
                return Err(format!(
                    "slice {idx}: job {} arrives at {arrival}, is dispatched at {} and \
                     completes at {}, around clock {}",
                    p.job, p.dispatched_at, slice.busy_until, self.clock
                ));
            }
        }
        Ok(())
    }
}

fn field<T: std::str::FromStr>(raw: Option<&str>, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

fn keyed<'a>(line: Option<&'a str>, key: &str) -> Result<std::str::SplitWhitespace<'a>, String> {
    let line = line.ok_or_else(|| format!("missing {key} line"))?;
    let mut f = line.split_whitespace();
    if f.next() != Some(key) {
        return Err(format!("expected {key} line, got {line:?}"));
    }
    Ok(f)
}

fn parse_one(line: Option<&str>, key: &str) -> Result<u64, String> {
    let mut f = keyed(line, key)?;
    field(f.next(), key)
}

fn parse_pair(line: Option<&str>, key: &str) -> Result<(u64, u64), String> {
    let mut f = keyed(line, key)?;
    Ok((field(f.next(), key)?, field(f.next(), key)?))
}

fn parse_ids(line: Option<&str>, key: &str) -> Result<Vec<u32>, String> {
    keyed(line, key)?.map(|raw| field(Some(raw), key)).collect()
}

fn parse_hist(line: Option<&str>, name: &str) -> Result<Histogram, String> {
    let mut f = keyed(line, "hist")?;
    if f.next() != Some(name) {
        return Err(format!("expected histogram {name}"));
    }
    let count = field(f.next(), "hist count")?;
    let sum = field(f.next(), "hist sum")?;
    let min = field(f.next(), "hist min")?;
    let max = field(f.next(), "hist max")?;
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for (i, b) in buckets.iter_mut().enumerate() {
        *b = field(f.next(), "hist bucket").map_err(|e| format!("{name} bucket {i}: {e}"))?;
    }
    if f.next().is_some() {
        return Err(format!("histogram {name} has trailing fields"));
    }
    Ok(Histogram::from_raw(count, sum, min, max, buckets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize_jobs;
    use rand::RngExt as _;
    use wsp_telemetry::Recorder;
    use wsp_topo::TileArray;

    fn config() -> ServeConfig {
        let mut cfg = ServeConfig::new(TileArray::new(8, 8), 4, 4);
        cfg.jobs = synthesize_jobs(14, 5, 1_500);
        cfg.fail_slice_after = Some(6);
        cfg
    }

    #[test]
    fn snapshot_round_trips_mid_campaign() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(5);
        let snap = campaign.snapshot();
        let restored = ServeCampaign::restore(config(), &snap).expect("parses");
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restored_campaign_finishes_bit_identically() {
        let mut uninterrupted = ServeCampaign::new(config()).expect("valid");
        uninterrupted.run_to_completion();

        let mut first_half = ServeCampaign::new(config()).expect("valid");
        first_half.run_until_completed(7);
        assert!(!first_half.is_done());
        let snap = first_half.snapshot();
        let mut resumed = ServeCampaign::restore(config(), &snap).expect("parses");
        resumed.run_to_completion();

        assert_eq!(resumed.clock(), uninterrupted.clock());
        assert_eq!(resumed.completed, uninterrupted.completed);
        assert_eq!(resumed.dropped, uninterrupted.dropped);
        assert_eq!(
            resumed.journal().to_text(),
            uninterrupted.journal().to_text()
        );
        assert_eq!(resumed.snapshot(), uninterrupted.snapshot());
    }

    #[test]
    fn snapshot_rejects_configs_that_change_the_outcome() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(5);
        let snap = campaign.snapshot();
        let mut reseeded = config();
        reseeded.jobs[3].seed ^= 1;
        let mut banked = config();
        banked.memory = wsp_tile::MemoryModelKind::Banked;
        let mut never_fails = config();
        never_fails.fail_slice_after = None;
        let mut faulty = config();
        faulty
            .wafer_faults
            .mark_faulty(wsp_topo::TileCoord::new(7, 7));
        for (case, other) in [
            ("one job's seed", reseeded),
            ("memory model", banked),
            ("failure cadence", never_fails),
            ("one wafer fault", faulty),
        ] {
            let err = ServeCampaign::restore(other, &snap).expect_err(case);
            assert!(err.contains("different config"), "{case}: {err}");
        }
    }

    #[test]
    fn snapshot_resumes_under_either_stepping() {
        let mut uninterrupted = ServeCampaign::new(config()).expect("valid");
        uninterrupted.run_to_completion();
        let mut first_half = ServeCampaign::new(config()).expect("valid");
        first_half.run_until_completed(7);
        let snap = first_half.snapshot();
        let mut dense = config();
        dense.stepping = wsp_common::stepping::Stepping::Dense;
        let mut resumed = ServeCampaign::restore(dense, &snap).expect("stepping is not pinned");
        resumed.run_to_completion();
        assert_eq!(resumed.snapshot(), uninterrupted.snapshot());
    }

    #[test]
    fn snapshot_rejects_mismatched_configs() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(3);
        let snap = campaign.snapshot();
        let mut other = config();
        other.jobs = synthesize_jobs(9, 5, 1_500);
        assert!(ServeCampaign::restore(other, &snap)
            .unwrap_err()
            .contains("job count"));
        let mut smaller = config();
        smaller.slice_width = 2;
        smaller.slice_height = 2;
        assert!(ServeCampaign::restore(smaller, &snap)
            .unwrap_err()
            .contains("slice dimensions"));
        assert!(ServeCampaign::restore(config(), "not a snapshot")
            .unwrap_err()
            .contains(SNAPSHOT_MAGIC));
    }

    /// Re-seals a hand-edited snapshot, so `restore` reaches the check
    /// the edit targets instead of stopping at the checksum.
    fn reseal(text: &str) -> String {
        let body: String = text
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| format!("{l}\n"))
            .collect();
        seal(body)
    }

    /// Restores `text` and, when it parses, runs the campaign to
    /// completion and exports its metrics; a panic anywhere fails `case`.
    fn restore_and_finish(text: &str, case: &str) {
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(mut campaign) = ServeCampaign::restore(config(), text) {
                campaign.run_to_completion();
                campaign.export_metrics(&mut Recorder::new());
            }
        });
        assert!(outcome.is_ok(), "{case} panicked");
    }

    #[test]
    fn mutated_snapshots_are_rejected_or_resume_cleanly() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(5);
        let snap = campaign.snapshot();
        let lines: Vec<&str> = snap.lines().collect();
        let jobs = config().jobs.len() as u32;
        let mut rng = wsp_common::seeded_rng(29);
        for i in 0..lines.len() {
            restore_and_finish(
                &lines[..i].join("\n"),
                &format!("truncated after {i} lines"),
            );
            let mut dropped = lines.clone();
            dropped.remove(i);
            restore_and_finish(&dropped.join("\n"), &format!("line {i} deleted"));
            let key = lines[i].split_whitespace().next().unwrap_or("");
            let bad_id = rng.random_range(jobs..=u32::MAX);
            let mutated = match key {
                "queue" | "completed" | "dropped" => format!("{} {bad_id}", lines[i]),
                // A slice line's pending job id is its sixth field.
                "s" if lines[i].contains(" p ") => {
                    let mut fields: Vec<String> =
                        lines[i].split_whitespace().map(String::from).collect();
                    fields[6] = bad_id.to_string();
                    fields.join(" ")
                }
                _ => continue,
            };
            let mut text = lines.clone();
            text[i] = &mutated;
            let text = reseal(&text.join("\n"));
            let err = ServeCampaign::restore(config(), &text)
                .expect_err(&format!("job {bad_id} appended to {key:?} line {i}"));
            assert!(err.contains(&format!("job {bad_id}")), "{err}");
        }
        // Every single-bit flip that leaves valid UTF-8 is rejected.
        let mut bytes = snap.clone().into_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    assert!(
                        ServeCampaign::restore(config(), text).is_err(),
                        "byte {i} bit {bit} flipped: restored"
                    );
                }
                bytes[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn restore_rejects_inconsistent_job_bookkeeping() {
        let mut campaign = ServeCampaign::new(config()).expect("valid");
        campaign.run_until_completed(5);
        let snap = campaign.snapshot();
        let edit = |key: &str, edit: &dyn Fn(&str) -> String| -> String {
            snap.lines()
                .map(|l| {
                    if l.split_whitespace().next() == Some(key) {
                        edit(l)
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let first_completed = campaign.completed[0];
        let cases = [
            (
                edit("dropped", &|l| format!("{l} {first_completed}")),
                "listed twice",
            ),
            (edit("completed", &|_| "completed".into()), "not listed"),
            (
                edit("next_arrival", &|_| format!("next_arrival {}", 15)),
                "beyond the 14-job stream",
            ),
            (
                edit("next_arrival", &|_| "next_arrival 0".into()),
                "has not arrived yet",
            ),
            (
                edit("clock", &|_| "clock 0".into()),
                "arrives after the clock",
            ),
        ];
        for (text, want) in cases {
            let err = ServeCampaign::restore(config(), &reseal(&text)).expect_err(want);
            assert!(err.contains(want), "{err} (wanted {want:?})");
        }
    }
}
