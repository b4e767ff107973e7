//! `wsp-diff`: the run-artifact comparison tool behind the CI
//! regression gate.
//!
//! Three subcommands:
//!
//! * `wsp-diff digest <a> <b>` — compares two determinism-digest
//!   journals (the `<json>.digest` sidecars) and pinpoints the first
//!   divergent window: cycle range, network or machine lane, and tile.
//!   Exits 1 on divergence, 2 on unreadable/incomparable journals.
//! * `wsp-diff bench [--tolerances <file>] <baseline> <candidate>` —
//!   numeric diff of two bench JSON reports (counters, gauges, histogram
//!   fields, series elements and time-series points) under per-metric
//!   relative tolerances (`wall.`-prefixed gauges are excluded
//!   automatically).
//!   Exits 1 when any metric regresses beyond tolerance.
//! * `wsp-diff profile <report>...` — prints the wall-clock phase
//!   breakdown (total and self time) recorded in a report's
//!   `wall.profile.*` gauges.

use std::process::ExitCode;

use wsp_bench::diff::{diff_reports, profile_rows, Tolerances};
use wsp_telemetry::{first_divergence, DigestJournal};

fn usage() -> ExitCode {
    eprintln!(
        "usage: wsp-diff digest <a.digest> <b.digest>\n       \
         wsp-diff bench [--tolerances <file>] <baseline.json> <candidate.json>\n       \
         wsp-diff profile <report.json>..."
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("digest") => run_digest(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("profile") => run_profile(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `digest` mode: first divergent window between two journals.
fn run_digest(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Ok(usage());
    };
    let a = DigestJournal::parse(&read(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = DigestJournal::parse(&read(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    match first_divergence(&a, &b)? {
        None => {
            println!(
                "digests identical: {} windows, every {} cycles",
                a.windows().len().max(b.windows().len()),
                a.every()
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(d) => {
            let fmt = |v: Option<u64>| v.map_or("<absent>".to_string(), |v| format!("{v:016x}"));
            println!("DIVERGENCE in cycle window {}..={}", d.window.0, d.window.1);
            println!("  lane: {} (tile index {})", d.lane, d.lane.tile());
            println!("  {a_path}: {}", fmt(d.a));
            println!("  {b_path}: {}", fmt(d.b));
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `bench` mode: tolerance-gated report diff.
fn run_bench(args: &[String]) -> Result<ExitCode, String> {
    let (tolerances, rest) = match args {
        [flag, path, rest @ ..] if flag == "--tolerances" => (
            Tolerances::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?,
            rest,
        ),
        rest => (Tolerances::default(), rest),
    };
    let [baseline, candidate] = rest else {
        return Ok(usage());
    };
    let diff = diff_reports(&read(baseline)?, &read(candidate)?, &tolerances)?;
    println!(
        "compared {} metrics ({} wall-clock excluded): {} regression(s)",
        diff.passed + diff.regressions.len(),
        diff.excluded,
        diff.regressions.len()
    );
    for r in &diff.regressions {
        let fmt = |v: Option<f64>| v.map_or("<absent>".to_string(), |v| format!("{v}"));
        println!(
            "  REGRESSION {}: baseline {} vs candidate {} (rel {:.3e} > tol {:.3e})",
            r.name,
            fmt(r.baseline),
            fmt(r.candidate),
            r.relative,
            r.tolerance
        );
    }
    Ok(if diff.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `profile` mode: self-time breakdown table from report gauges.
fn run_profile(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Ok(usage());
    }
    for path in args {
        let rows = profile_rows(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("phase profile: {path}");
        if rows.is_empty() {
            println!("  (no wall.profile.* gauges recorded)");
            continue;
        }
        println!(
            "  {:<40} {:>10} {:>12} {:>12}",
            "phase", "calls", "total ms", "self ms"
        );
        for row in rows {
            println!(
                "  {:<40} {:>10} {:>12.3} {:>12.3}",
                row.phase, row.calls, row.total_ms, row.self_ms
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}
