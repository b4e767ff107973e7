//! Bad `serve` input is reported, never panicked on: each case must print
//! exactly one `error: …` line on stderr and exit with status 2, the way
//! a bad flag is rejected.

use std::path::PathBuf;
use std::process::Command;

/// Runs the `serve` binary and checks that it rejected its input cleanly.
/// Returns the error line.
fn assert_rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("serve binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
    assert!(lines[0].starts_with("error: "), "{args:?}: {stderr}");
    lines[0].to_string()
}

/// A path under the system temp directory unique to this process and test.
fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wsp-serve-cli-{}-{name}", std::process::id()))
}

#[test]
fn slice_larger_than_the_wafer_is_rejected() {
    let line = assert_rejected(&["--smoke", "--slice", "16x16"]);
    assert!(line.contains("slice extent exceeds the wafer"), "{line}");
}

#[test]
fn missing_snapshot_is_rejected() {
    let path = scratch_path("missing.snap");
    let line = assert_rejected(&["--smoke", "--restore", path.to_str().expect("utf-8 path")]);
    assert!(line.contains("cannot read snapshot"), "{line}");
}

#[test]
fn file_that_is_not_a_snapshot_is_rejected() {
    let path = scratch_path("garbage.snap");
    std::fs::write(&path, "not a campaign snapshot\n").expect("temp dir is writable");
    let line = assert_rejected(&["--smoke", "--restore", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("remove the temp file");
    assert!(line.contains("bad snapshot"), "{line}");
}

#[test]
fn unwritable_snapshot_path_is_rejected() {
    let path = scratch_path("no-such-dir").join("campaign.snap");
    let line = assert_rejected(&[
        "--smoke",
        "--snapshot",
        path.to_str().expect("utf-8 path"),
        "--snapshot-after",
        "1",
    ]);
    assert!(line.contains("cannot write snapshot"), "{line}");
}

#[test]
fn snapshot_listing_a_job_outside_the_stream_is_rejected() {
    let path = scratch_path("out-of-range.snap");
    let path_str = path.to_str().expect("utf-8 path");
    let written = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--smoke", "--snapshot", path_str, "--snapshot-after", "9"])
        .output()
        .expect("serve binary runs");
    assert!(written.status.success(), "snapshot run failed");
    let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
    let mutated: String = snapshot
        .lines()
        .map(|line| {
            if line.starts_with("completed") {
                format!("{line} 99999\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    std::fs::write(&path, mutated).expect("temp dir is writable");
    let line = assert_rejected(&["--smoke", "--restore", path_str]);
    std::fs::remove_file(&path).expect("remove the temp file");
    assert!(line.contains("bad snapshot"), "{line}");
    assert!(line.contains("job 99999"), "{line}");
}
