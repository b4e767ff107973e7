//! Shared plumbing for the table/figure regenerator binaries.
//!
//! Each binary under `src/bin` regenerates one table or figure of the
//! DAC 2021 paper (see `DESIGN.md` for the experiment index); this
//! library holds the tiny formatting helpers they share so every
//! regenerator prints comparable, grep-friendly output.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::path::{Path, PathBuf};

use wsp_common::stepping::Stepping;
use wsp_telemetry::{DigestJournal, SharedRecorder};
use wsp_tile::MemoryModelKind;

pub mod diff;

/// Common CLI options of the regenerator binaries.
///
/// Every binary accepts:
///
/// - `--json <path>` — write the run's metrics as a
///   [`wsp_telemetry::REPORT_SCHEMA`] JSON report;
/// - `--trace <path>` — write the run's Chrome trace-event JSON
///   (binaries without event sources write an empty trace);
/// - `--seed <u64>` — override the deterministic RNG seed (binaries
///   without randomness ignore it);
/// - `--stepping <dense|wheel>` — tile-visit strategy for the
///   cycle-level engines (default: `wheel`, the active-set walk with
///   event-driven jumps over idle/stalled windows; `dense` is the
///   reference sweep; results are bit-identical in either mode);
/// - `--memory <fixed|banked|banked+tlb>` — memory-timing backend for
///   the machine and workload layers (default: `fixed`, which is
///   byte-identical to the pre-trait model);
/// - `--smoke` — shrink the workload to a seconds-scale smoke run.
///
/// The cycle-level engines sample time series every
/// [`wsp_telemetry::DEFAULT_SAMPLE_EVERY`] cycles and fold a
/// determinism digest every [`wsp_telemetry::DEFAULT_DIGEST_EVERY`]
/// cycles; the digest journal is written to `<json>.digest` next to
/// `--json`.
///
/// # Examples
///
/// ```
/// use wsp_bench::BenchOpts;
///
/// let opts = BenchOpts::parse(
///     ["--json", "out.json", "--seed", "42", "--smoke"]
///         .iter()
///         .map(ToString::to_string),
/// )
/// .expect("valid args");
/// assert_eq!(opts.seed_or(7), 42);
/// assert!(opts.smoke);
/// assert_eq!(opts.json.as_deref(), Some(std::path::Path::new("out.json")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchOpts {
    /// Where to write the metrics report, if requested.
    pub json: Option<PathBuf>,
    /// Where to write the Chrome trace, if requested.
    pub trace: Option<PathBuf>,
    /// Seed override for the binary's deterministic RNG streams.
    pub seed: Option<u64>,
    /// Tile-visit strategy for the cycle-level engines.
    pub stepping: Stepping,
    /// Memory-timing backend for the machine and workload layers.
    pub memory: MemoryModelKind,
    /// Whether to run the reduced smoke workload.
    pub smoke: bool,
}

impl BenchOpts {
    /// Parses the process arguments, exiting with usage on bad input.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--json <path>] [--trace <path>] [--seed <u64>] \
                     [--stepping <dense|wheel>] [--memory <fixed|banked|banked+tlb>] \
                     [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument iterator (program name already stripped).
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown flag, missing value, or
    /// unparsable seed.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = BenchOpts::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => {
                    let path = args.next().ok_or("--json requires a path")?;
                    opts.json = Some(PathBuf::from(path));
                }
                "--trace" => {
                    let path = args.next().ok_or("--trace requires a path")?;
                    opts.trace = Some(PathBuf::from(path));
                }
                "--seed" => {
                    let raw = args.next().ok_or("--seed requires a value")?;
                    let seed = raw
                        .parse::<u64>()
                        .map_err(|_| format!("invalid seed {raw:?}"))?;
                    opts.seed = Some(seed);
                }
                "--stepping" => {
                    let raw = args.next().ok_or("--stepping requires a value")?;
                    opts.stepping = Stepping::parse(&raw)
                        .ok_or_else(|| format!("invalid stepping {raw:?} (dense|wheel)"))?;
                }
                "--memory" => {
                    let raw = args.next().ok_or("--memory requires a value")?;
                    opts.memory = MemoryModelKind::parse(&raw).ok_or_else(|| {
                        format!("invalid memory model {raw:?} (fixed|banked|banked+tlb)")
                    })?;
                }
                "--smoke" => opts.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }

    /// The seed to use: the `--seed` override, else `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Writes the requested outputs from `recorder`: the metrics report
    /// to `--json` and the Chrome trace to `--trace`, printing each path
    /// written. A no-op for outputs that were not requested.
    ///
    /// # Panics
    ///
    /// Panics when a requested output file cannot be written — a bench
    /// run that cannot deliver its artefact should fail loudly.
    pub fn write_outputs(&self, bench: &str, recorder: &SharedRecorder) {
        if let Some(path) = &self.json {
            write_file(path, &recorder.metrics_json(bench));
            println!("  wrote metrics report: {}", path.display());
        }
        if let Some(path) = &self.trace {
            write_file(path, &recorder.trace_json());
            println!("  wrote Chrome trace:   {}", path.display());
        }
    }

    /// Sidecar path of the determinism-digest journal: `<json>.digest`.
    pub fn digest_path(&self) -> Option<PathBuf> {
        self.json.as_ref().map(|p| {
            let mut os = p.clone().into_os_string();
            os.push(".digest");
            PathBuf::from(os)
        })
    }

    /// Writes the digest journal sidecar next to `--json`. A no-op when
    /// `--json` was not requested or the engine kept no journal
    /// (`journal` is `None`).
    pub fn write_digest(&self, journal: Option<&DigestJournal>) {
        if let (Some(path), Some(journal)) = (self.digest_path(), journal) {
            write_file(&path, &journal.to_text());
            println!("  wrote digest journal: {}", path.display());
        }
    }
}

fn write_file(path: &Path, contents: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// CLI options of the `serve` campaign binary: every [`BenchOpts`] flag
/// plus the serving-layer knobs.
///
/// - `--jobs <n>` — number of synthetic jobs to admit (default: 24 in
///   smoke mode, 96 otherwise);
/// - `--slice <WxH>` — slice extent in tiles, e.g. `4x4` (default: 4x4
///   in smoke mode, 8x8 otherwise);
/// - `--fail-after <k>` — retire the completing slice after every k-th
///   job completion (0 disables; the smoke default injects one failure
///   so the drain/re-place path stays exercised);
/// - `--snapshot <path>` — write a campaign snapshot to `path`;
/// - `--snapshot-after <k>` — pause for the snapshot after k job
///   completions instead of at the end of the campaign (requires
///   `--snapshot`);
/// - `--restore <path>` — resume from a snapshot written by
///   `--snapshot` instead of starting at cycle 0 (the remaining flags
///   must match the snapshotting run).
///
/// # Examples
///
/// ```
/// use wsp_bench::ServeOpts;
///
/// let opts = ServeOpts::parse(
///     ["--smoke", "--jobs", "12", "--slice", "4x4", "--fail-after", "5"]
///         .iter()
///         .map(ToString::to_string),
/// )
/// .expect("valid args");
/// assert!(opts.bench.smoke);
/// assert_eq!(opts.jobs, Some(12));
/// assert_eq!(opts.slice, Some((4, 4)));
/// assert_eq!(opts.fail_after, Some(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeOpts {
    /// The shared bench flags (`--json`, `--seed`, `--stepping`, …).
    pub bench: BenchOpts,
    /// Job-count override.
    pub jobs: Option<usize>,
    /// Slice extent override, `(width, height)`.
    pub slice: Option<(u16, u16)>,
    /// Fault-injection cadence override (0 = off).
    pub fail_after: Option<u32>,
    /// Snapshot output path.
    pub snapshot: Option<PathBuf>,
    /// Completions before the snapshot pause.
    pub snapshot_after: Option<usize>,
    /// Snapshot to resume from.
    pub restore: Option<PathBuf>,
}

impl ServeOpts {
    /// Parses the process arguments, exiting with usage on bad input.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--jobs <n>] [--slice <WxH>] [--fail-after <k>] \
                     [--snapshot <path>] [--snapshot-after <k>] [--restore <path>] \
                     plus the common bench flags (see --json etc. in README.md)"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument iterator: serve-specific flags are consumed
    /// here, everything else is delegated to [`BenchOpts::parse`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown flag or bad value, or
    /// of a `--snapshot-after` given without the `--snapshot` it pauses
    /// for.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = ServeOpts::default();
        let mut rest = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--jobs" => {
                    let raw = args.next().ok_or("--jobs requires a count")?;
                    let jobs = raw
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid job count {raw:?}"))?;
                    opts.jobs = Some(jobs);
                }
                "--slice" => {
                    let raw = args.next().ok_or("--slice requires WxH")?;
                    let (w, h) = raw
                        .split_once('x')
                        .and_then(|(w, h)| Some((w.parse::<u16>().ok()?, h.parse::<u16>().ok()?)))
                        .filter(|&(w, h)| w > 0 && h > 0)
                        .ok_or_else(|| format!("invalid slice extent {raw:?} (expected WxH)"))?;
                    opts.slice = Some((w, h));
                }
                "--fail-after" => {
                    let raw = args.next().ok_or("--fail-after requires a count")?;
                    let k = raw
                        .parse::<u32>()
                        .map_err(|_| format!("invalid failure cadence {raw:?}"))?;
                    opts.fail_after = Some(k);
                }
                "--snapshot" => {
                    let path = args.next().ok_or("--snapshot requires a path")?;
                    opts.snapshot = Some(PathBuf::from(path));
                }
                "--snapshot-after" => {
                    let raw = args.next().ok_or("--snapshot-after requires a count")?;
                    let k = raw
                        .parse::<usize>()
                        .map_err(|_| format!("invalid completion count {raw:?}"))?;
                    opts.snapshot_after = Some(k);
                }
                "--restore" => {
                    let path = args.next().ok_or("--restore requires a path")?;
                    opts.restore = Some(PathBuf::from(path));
                }
                _ => rest.push(arg),
            }
        }
        opts.bench = BenchOpts::parse(rest.into_iter())?;
        if opts.snapshot_after.is_some() && opts.snapshot.is_none() {
            return Err("--snapshot-after requires --snapshot".into());
        }
        Ok(opts)
    }
}

/// Turns a human-readable label into a metric-name segment: lowercase,
/// alphanumerics kept, everything else collapsed to single underscores
/// (`"hot spot (8,8)"` → `"hot_spot_8_8"`).
pub fn metric_key(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Prints a section header for a regenerated artefact.
///
/// # Examples
///
/// ```
/// wsp_bench::header("Fig. 6", "disconnected pairs vs faulty chiplets");
/// ```
pub fn header(artifact: &str, title: &str) {
    println!();
    println!("=== {artifact}: {title} ===");
}

/// Prints one aligned table row from column strings.
pub fn row<D: Display>(cols: &[D]) {
    let rendered: Vec<String> = cols.iter().map(|c| format!("{c}")).collect();
    println!("  {}", rendered.join(" | "));
}

/// Prints a `name: value` result line, with an optional paper-claimed
/// value for side-by-side comparison.
pub fn result_line<D: Display>(name: &str, measured: D, paper: Option<&str>) {
    match paper {
        Some(p) => println!("  {name}: {measured}   (paper: {p})"),
        None => println!("  {name}: {measured}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_do_not_panic() {
        header("T1", "salient features");
        row(&["a", "b", "c"]);
        result_line("cores", 14_336, Some("14,336"));
        result_line("tiles", 1024, None);
    }

    fn parse(args: &[&str]) -> Result<BenchOpts, String> {
        BenchOpts::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn opts_parse_all_flags() {
        let opts = parse(&[
            "--json",
            "a.json",
            "--trace",
            "t.json",
            "--seed",
            "9",
            "--stepping",
            "dense",
            "--memory",
            "banked",
            "--smoke",
        ])
        .expect("valid");
        assert_eq!(opts.json.as_deref(), Some(Path::new("a.json")));
        assert_eq!(opts.trace.as_deref(), Some(Path::new("t.json")));
        assert_eq!(opts.seed, Some(9));
        assert_eq!(opts.stepping, Stepping::Dense);
        assert_eq!(opts.memory, MemoryModelKind::Banked);
        assert!(opts.smoke);
        assert_eq!(opts.seed_or(7), 9);
        assert_eq!(
            opts.digest_path().as_deref(),
            Some(Path::new("a.json.digest"))
        );
        let empty = parse(&[]).expect("empty ok");
        assert_eq!(empty.seed_or(7), 7);
        assert_eq!(empty.stepping, Stepping::Wheel);
        assert_eq!(empty.memory, MemoryModelKind::Fixed);
        assert_eq!(empty.digest_path(), None);
        let tlb = parse(&["--memory", "banked+tlb"]).expect("valid");
        assert_eq!(tlb.memory, MemoryModelKind::BankedTlb);
    }

    #[test]
    fn opts_reject_bad_input() {
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--stepping"]).is_err());
        assert!(parse(&["--stepping", "eager"]).is_err());
        // Removed flags and modes are unknown, not silently accepted.
        assert!(parse(&["--stepping", "sparse"]).is_err());
        assert_eq!(
            parse(&["--threads", "1"]).unwrap_err(),
            "unknown argument \"--threads\""
        );
        assert_eq!(
            parse(&["--stepping", "wheel"]).expect("valid").stepping,
            Stepping::Wheel
        );
        assert!(parse(&["--memory"]).is_err());
        assert!(parse(&["--memory", "dram"]).is_err());
        assert_eq!(
            parse(&["--sample-every", "8"]).unwrap_err(),
            "unknown argument \"--sample-every\""
        );
        assert_eq!(
            parse(&["--digest-every", "8"]).unwrap_err(),
            "unknown argument \"--digest-every\""
        );
        assert!(parse(&["--frobnicate"]).is_err());
    }

    fn parse_serve(args: &[&str]) -> Result<ServeOpts, String> {
        ServeOpts::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn serve_opts_parse_and_delegate() {
        let opts = parse_serve(&[
            "--jobs",
            "48",
            "--slice",
            "8x4",
            "--fail-after",
            "0",
            "--snapshot",
            "s.txt",
            "--snapshot-after",
            "10",
            "--restore",
            "r.txt",
            "--json",
            "m.json",
            "--seed",
            "5",
            "--stepping",
            "wheel",
            "--smoke",
        ])
        .expect("valid");
        assert_eq!(opts.jobs, Some(48));
        assert_eq!(opts.slice, Some((8, 4)));
        assert_eq!(opts.fail_after, Some(0));
        assert_eq!(opts.snapshot.as_deref(), Some(Path::new("s.txt")));
        assert_eq!(opts.snapshot_after, Some(10));
        assert_eq!(opts.restore.as_deref(), Some(Path::new("r.txt")));
        assert_eq!(opts.bench.json.as_deref(), Some(Path::new("m.json")));
        assert_eq!(opts.bench.seed, Some(5));
        assert_eq!(opts.bench.stepping, Stepping::Wheel);
        assert!(opts.bench.smoke);
        let empty = parse_serve(&[]).expect("empty ok");
        assert_eq!(empty, ServeOpts::default());
    }

    #[test]
    fn serve_opts_reject_bad_input() {
        assert!(parse_serve(&["--jobs"]).is_err());
        assert!(parse_serve(&["--jobs", "0"]).is_err());
        assert!(parse_serve(&["--slice", "4"]).is_err());
        assert!(parse_serve(&["--slice", "0x4"]).is_err());
        assert!(parse_serve(&["--slice", "axb"]).is_err());
        assert!(parse_serve(&["--fail-after", "soon"]).is_err());
        assert!(parse_serve(&["--snapshot"]).is_err());
        assert!(parse_serve(&["--snapshot-after", "x"]).is_err());
        // A pause point with nowhere to write the snapshot is an error,
        // not a silently uninterrupted run.
        assert_eq!(
            parse_serve(&["--smoke", "--snapshot-after", "3"]).unwrap_err(),
            "--snapshot-after requires --snapshot"
        );
        assert!(parse_serve(&["--snapshot-after", "3", "--snapshot", "s.txt"]).is_ok());
        assert!(parse_serve(&["--restore"]).is_err());
        // Unknown flags still fail through the BenchOpts delegate.
        assert!(parse_serve(&["--frobnicate"]).is_err());
    }

    #[test]
    fn metric_keys_are_snake_case() {
        assert_eq!(metric_key("hot spot (8,8)"), "hot_spot_8_8");
        assert_eq!(metric_key("uniform d=8"), "uniform_d_8");
        assert_eq!(metric_key("clean 16x16"), "clean_16x16");
        assert_eq!(metric_key("  "), "");
    }

    #[test]
    fn write_outputs_produces_parsable_files() {
        use wsp_telemetry::Sink;

        let dir = std::env::temp_dir().join(format!("wsp-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let recorder = SharedRecorder::new();
        recorder.clone().counter_add("x", 1);
        let opts = BenchOpts {
            json: Some(dir.join("m.json")),
            trace: Some(dir.join("t.json")),
            ..BenchOpts::default()
        };
        opts.write_outputs("unit", &recorder);
        for name in ["m.json", "t.json"] {
            let text = std::fs::read_to_string(dir.join(name)).expect("written");
            serde_json::from_str(&text).expect("parses");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
