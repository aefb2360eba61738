//! Two same-seed runs of the same length must agree exactly on every
//! count the benchmark reports: compiles, repository inserts,
//! invalidations and shared hits, live code bytes and VM instructions
//! executed. Background work is drained between ops, so no tier-1
//! publish can land inside a later op and change its compile count.
//!
//! Run with `cargo test --release --manifest-path benchledger/Cargo.toml`.

use std::process::Command;

fn counts(workload: &str) -> String {
    // With no time to spend, a traced run does its minimum: one
    // untraced round, then one traced round.
    let out = Command::new(env!("CARGO_BIN_EXE_benchledger"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", "1"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    stdout
        .lines()
        .find(|l| l.starts_with("counts "))
        .expect("traced runs print their counts")
        .to_owned()
}

#[test]
fn same_seed_runs_agree_on_every_count() {
    for workload in ["cold_start", "steady_state", "edit_rerun", "warm_restart"] {
        let (a, b) = (counts(workload), counts(workload));
        assert_eq!(a, b, "{workload}: counts differ between same-seed runs");
    }
}
