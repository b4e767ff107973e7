//! `wsp-benchmark`: end-to-end host time and memory, and per-layer cost,
//! of the waferscale processor reproduction on six workloads.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to compare two commits.

mod bench;
mod compare;
mod expected;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::Command as Process;

use bench::RunOptions;
use workloads::{Scale, Workload};

const USAGE: &str = "\
usage: wsp-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
       wsp-benchmark compare A/results.json B/results.json

Without --workload, runs every workload, each in its own child process.
Each run appends to DIR/results.json (default target/wsp-benchmark);
--trace 1 also writes DIR/<workload>/trace.json and layers.json.
workloads: noc-uniform noc-hotspot noc-bursty machine-stream serve-stream flow-montecarlo";

#[derive(Debug, PartialEq, Eq)]
enum Command {
    Run {
        workload: Option<Workload>,
        seed: u64,
        seconds: u64,
        trace: bool,
        out: PathBuf,
    },
    Compare(PathBuf, PathBuf),
    Help,
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare takes two results files".to_string()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, expected::SEED, 15, false);
    let mut out = PathBuf::from("target/wsp-benchmark");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s <= 3600)
                    .ok_or_else(|| format!("--seconds {value:?} is not in 0..=3600"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                };
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Command::Run {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Runs the command line; returns the exit code: 0 success, 1 a failed
/// check or run, 2 a usage error.
fn run(args: &[String]) -> i32 {
    let command = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wsp-benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    match command {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::Compare(a, b) => {
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
            };
            match read(&a).and_then(|a| compare::compare(&a, &read(&b)?)) {
                Ok(flagged) => i32::from(flagged),
                Err(e) => {
                    eprintln!("wsp-benchmark: {e}");
                    2
                }
            }
        }
        Command::Run {
            workload: Some(workload),
            seed,
            seconds,
            trace,
            out,
        } => run_one(&RunOptions {
            workload,
            seed,
            seconds,
            trace,
            out,
        }),
        Command::Run { workload: None, .. } => run_all(args),
    }
}

fn run_one(opts: &RunOptions) -> i32 {
    let outcome = match bench::measure(opts, Scale::Full) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wsp-benchmark: {e}");
            return 1;
        }
    };
    if let Err(e) = bench::append_result(&opts.out, &outcome) {
        eprintln!("wsp-benchmark: {e}");
        return 1;
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.result_json(opts.trace))
    );
    i32::from(!outcome.correct())
}

/// Runs every workload in turn, each in a child process so that its peak
/// memory is its own.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wsp-benchmark: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let status = Process::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name());
        }
    }
    if failed.is_empty() {
        0
    } else {
        eprintln!("wsp-benchmark: failed: {}", failed.join(" "));
        1
    }
}

/// Puts every thread on glibc's one main malloc arena. Timed passes
/// alternate between threads (see `bench::measure`); with per-thread
/// arenas, memory one pass frees is not reused by the next pass on the
/// other thread, and peak RSS doubles.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` is glibc's allocator-tuning entry point; it takes
    // two integers by value and changes only allocator settings, and it
    // runs here before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bad_input_exits_2_without_a_panic() {
        for bad in [
            &["--frobnicate", "1"][..],
            &["--seed", "-3"],
            &["--seed", "twelve"],
            &["--workload", "noc"],
            &["--trace", "2"],
            &["--seconds", "99999"],
            &["--seed"],
            &["compare", "only-one.json"],
            &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        ] {
            assert_eq!(run(&args(bad)), 2, "{bad:?}");
        }
    }

    #[test]
    fn flags_parse() {
        assert_eq!(
            parse(&args(&[
                "--workload",
                "serve-stream",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
                "--out",
                "x"
            ])),
            Ok(Command::Run {
                workload: Some(Workload::ServeStream),
                seed: 7,
                seconds: 3,
                trace: true,
                out: PathBuf::from("x"),
            })
        );
        assert_eq!(parse(&args(&["--help"])), Ok(Command::Help));
        assert!(matches!(
            parse(&[]),
            Ok(Command::Run {
                workload: None,
                seed: expected::SEED,
                ..
            })
        ));
    }
}
