//! Snapshot-encoding regression test: the FNV-1a of every snapshot file
//! the golden sweeps write when paused must match the committed
//! [`tests/golden_snapshots.txt`](golden_snapshots.txt), byte for byte.
//!
//! The golden digests only prove a restored run *continues* correctly;
//! this file pins the encoding itself, so a codec rewrite that moves,
//! drops or reorders a single field is caught even when the restore
//! path happens to read it back consistently. Two pause points: after
//! 10 events every golden and golden-fabric cell is paused; after 500
//! the long cells pause mid-stream with credits and I/O requests in
//! flight. The file is regenerated with
//! `cargo run --release -p asan-bench --bin repro -- --small golden-snapshots`.
//!
//! It lives in its own test binary because it spawns the `repro`
//! binary, whose snapshot knobs are process-wide environment variables.

use std::process::Command;

const GOLDEN: &str = include_str!("golden_snapshots.txt");

#[test]
fn snapshot_bytes_match_committed_hashes() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--small", "golden-snapshots"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro golden-snapshots failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let produced = String::from_utf8(out.stdout).expect("UTF-8 output");
    let mismatches: Vec<String> = GOLDEN
        .lines()
        .zip(produced.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("golden: {want}\n   got: {got}"))
        .collect();
    assert_eq!(
        GOLDEN.lines().count(),
        produced.lines().count(),
        "snapshot hash file and produced hashes differ in length:\n{produced}"
    );
    assert!(
        mismatches.is_empty(),
        "snapshot bytes changed ({} of {} files):\n{}",
        mismatches.len(),
        GOLDEN.lines().count(),
        mismatches.join("\n")
    );
}
