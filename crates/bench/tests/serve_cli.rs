//! Bad `serve` input is reported, never panicked on: each case must print
//! exactly one `error: …` line on stderr and exit with status 2, the way
//! a bad flag is rejected.

use std::path::PathBuf;
use std::process::Command;

use wsp_telemetry::Fnv1a;

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
    let mut mutated: String = snapshot
        .lines()
        .filter(|line| !line.starts_with("checksum "))
        .map(|line| {
            if line.starts_with("completed") {
                format!("{line} 99999\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    // Re-seal the edited snapshot so restore reaches the job check.
    let mut checksum = Fnv1a::new();
    checksum.write_bytes(mutated.as_bytes());
    mutated.push_str(&format!("checksum {:016x}\n", checksum.finish()));
    std::fs::write(&path, mutated).expect("temp dir is writable");
    let line = assert_rejected(&["--smoke", "--restore", path_str]);
    std::fs::remove_file(&path).expect("remove the temp file");
    assert!(line.contains("bad snapshot"), "{line}");
    assert!(line.contains("job 99999"), "{line}");
}

#[test]
fn snapshot_after_without_a_snapshot_path_is_rejected() {
    // Without `--snapshot` there is nowhere to write the pause point, so
    // the flag is a usage error rather than a silently uninterrupted run.
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--smoke", "--snapshot-after", "3"])
        .output()
        .expect("serve binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(
        errors,
        ["error: --snapshot-after requires --snapshot"],
        "{stderr}"
    );
}

#[test]
fn snapshot_restored_under_another_config_is_rejected() {
    let path = scratch_path("other-config.snap");
    let path_str = path.to_str().expect("utf-8 path");
    let written = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--smoke", "--snapshot", path_str, "--snapshot-after", "9"])
        .output()
        .expect("serve binary runs");
    assert!(written.status.success(), "snapshot run failed");
    let line = assert_rejected(&["--smoke", "--restore", path_str, "--fail-after", "3"]);
    std::fs::remove_file(&path).expect("remove the temp file");
    assert!(line.contains("different config"), "{line}");
}
