//! The simulated outputs committed for the default seed.
//!
//! The model has no hardware reference, so it is checked for exactness,
//! not accuracy: at [`SEED`] every workload's output digest and simulated
//! cycle counts must equal the values in `expected.txt`.

use crate::workloads::{Checks, Pass, Workload};

/// The seed `expected.txt` was recorded at.
pub const SEED: u64 = 2021;

const EXPECTED: &str = include_str!("../expected.txt");

/// The committed value of `key` for `workload`, if any.
fn lookup(workload: Workload, key: &str) -> Option<&'static str> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload.name() && f[1] == key)
        .map(|f| f[2])
}

/// The `(key, value)` lines `expected.txt` holds for one pass.
pub fn observed(pass: &Pass) -> Vec<(&'static str, String)> {
    let mut out = vec![("digest", format!("{:016x}", pass.digest()))];
    if let Some(c) = pass.sim_cycles {
        out.push(("sim_cycles", c.to_string()));
    }
    if let Some(p) = pass.sim_latency_p99 {
        out.push(("sim_latency_p99_cycles", p.to_string()));
    }
    out
}

/// Checks each observed value against its committed line; a value with
/// no committed line fails, so a new output cannot pass unrecorded.
pub fn check(workload: Workload, pass: &Pass, checks: &mut Checks) {
    for (key, value) in observed(pass) {
        let want = lookup(workload, key);
        if want != Some(value.as_str()) {
            eprintln!(
                "{} {key}: expected {}, got {value}",
                workload.name(),
                want.unwrap_or("<none>")
            );
        }
        checks.check(want == Some(value.as_str()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_committed_outputs() {
        for w in Workload::ALL {
            assert!(lookup(w, "digest").is_some(), "{}", w.name());
        }
        assert_eq!(lookup(Workload::FlowMontecarlo, "sim_cycles"), None);
    }

    #[test]
    fn a_wrong_digest_fails() {
        let pass = Pass {
            parts: vec![1, 2, 3],
            ..Pass::default()
        };
        let mut checks = Checks::default();
        check(Workload::NocUniform, &pass, &mut checks);
        assert_eq!(
            checks,
            Checks {
                attempted: 1,
                failed: 1
            }
        );
    }
}
