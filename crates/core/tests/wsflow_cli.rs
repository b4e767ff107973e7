//! Out-of-range `wsflow` input is reported, never panicked on: each case
//! must exit non-zero with an `error: …` line and no panic message.

use std::process::Command;

/// Runs `wsflow` and checks that it rejected its input cleanly. Returns
/// its stderr.
fn assert_rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wsflow"))
        .args(args)
        .output()
        .expect("wsflow binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(!out.status.success(), "{args:?} was accepted: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    stderr
}

#[test]
fn more_faults_than_tiles_is_rejected() {
    for command in ["clock", "boot", "bfs"] {
        let stderr = assert_rejected(&[command, "--tiles", "2", "--faults", "5"]);
        assert!(
            stderr.contains("--faults 5 exceeds the 4 tiles"),
            "{command}: {stderr}"
        );
        assert!(stderr.contains("usage: wsflow"), "{command}: {stderr}");
    }
}

#[test]
fn zero_vertices_is_rejected() {
    let stderr = assert_rejected(&["bfs", "--vertices", "0"]);
    assert!(stderr.contains("--vertices must be at least 1"), "{stderr}");
    assert!(stderr.contains("usage: wsflow"), "{stderr}");
}

#[test]
fn every_tile_faulty_keeps_its_clock_error() {
    let stderr = assert_rejected(&["clock", "--tiles", "2", "--faults", "4"]);
    assert!(
        stderr.contains("no healthy edge tile to host the clock generator"),
        "{stderr}"
    );
}
