//! Golden-output determinism guard.
//!
//! `jetty-repro all` (and the `protocols` and `sweep` extensions) stdout is kept
//! byte-comparable across versions: the whole reproduction is
//! deterministic (synthetic traces, fixed seeds, a deterministic engine),
//! so any stdout drift is either an intentional output change — update the
//! golden file deliberately — or a silent behaviour change in the
//! simulator, which is exactly what this test exists to catch. The
//! hot-path refactors (SoA caches, scratch-buffer fills, fast version
//! maps) and the typed-results refactor (collect typed, render late) ride
//! on this guarantee: they must be behaviour-preserving by construction,
//! and this file is the reviewer's proof.
//!
//! Regenerate (only for an intentional output change) with:
//!
//! ```text
//! cargo run --release --bin jetty-repro -- all --scale 0.02 --threads 2 \
//!     > tests/golden/all_scale002.txt
//! cargo run --release --bin jetty-repro -- protocols --scale 0.02 --threads 2 \
//!     > tests/golden/protocols_scale002.txt
//! cargo run --release --bin jetty-repro -- sweep --scale 0.02 --threads 2 \
//!     > tests/golden/sweep_scale002.txt
//! cargo run --release --bin jetty-repro -- sweep --scale 0.02 --threads 2 \
//!     --axis cpus=4,8 --axis nsb=sb,nsb \
//!     --axis filter=ej-8x2,ej-32x4,vej-8x2-2,vej-16x4-8,vej-32x4-32,hj-ij10x4x7-vej32x4-8,hj-ij9x4x7-ej16x2-eager \
//!     > tests/golden/sweep_filters_scale002.txt
//! ```
//!
//! The last one covers the exclude family from one lane to 32, a vector
//! hybrid and an eager hybrid, over both block grains.

use std::path::PathBuf;
use std::process::Command;

/// Repo-root path of a golden transcript.
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// The filter axis of `sweep_filters_scale002.txt` (see the module docs).
const SWEEP_FILTERS: &str = "ej-8x2,ej-32x4,vej-8x2-2,vej-16x4-8,vej-32x4-32,\
                             hj-ij10x4x7-vej32x4-8,hj-ij9x4x7-ej16x2-eager";

/// Runs `jetty-repro <command> --scale 0.02 --threads 2 <extra>` and
/// asserts the stdout matches the named golden file byte for byte,
/// pointing at the first diverging line on failure.
fn assert_matches_golden(command: &str, extra: &[&str], golden_name: &str) {
    let golden = std::fs::read(golden_path(golden_name)).unwrap_or_else(|e| {
        panic!("tests/golden/{golden_name} unreadable ({e}) — see module docs")
    });
    let out = Command::new(env!("CARGO_BIN_EXE_jetty-repro"))
        .args([command, "--scale", "0.02", "--threads", "2"])
        .args(extra)
        .output()
        .expect("failed to spawn jetty-repro");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    if out.stdout != golden {
        // Locate the first divergence for a reviewable failure message.
        let actual = String::from_utf8_lossy(&out.stdout);
        let expected = String::from_utf8_lossy(&golden);
        for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                a,
                e,
                "stdout diverges from tests/golden/{golden_name} at line {} — \
                 if the output change is intentional, regenerate the golden file \
                 (see tests/golden_output.rs docs)",
                k + 1
            );
        }
        panic!(
            "stdout length differs from the golden file ({} vs {} bytes) with a \
             common prefix — regenerate tests/golden/{golden_name} if intentional",
            out.stdout.len(),
            golden.len()
        );
    }
}

#[test]
fn all_scale002_stdout_matches_the_golden_file() {
    assert_matches_golden("all", &[], "all_scale002.txt");
}

#[test]
fn protocols_scale002_stdout_matches_the_golden_file() {
    assert_matches_golden("protocols", &[], "protocols_scale002.txt");
}

#[test]
fn sweep_scale002_stdout_matches_the_golden_file() {
    // The default grid is the only exhibit with the 8-way MESI/MSI platforms.
    assert_matches_golden("sweep", &[], "sweep_scale002.txt");
}

#[test]
fn sweep_filters_scale002_stdout_matches_the_golden_file() {
    // Every exclude lane count from 1 to 32 and both block grains: the
    // coverage columns pin the filters' behaviour, `bytes` their array
    // accounting.
    let filters = format!("filter={SWEEP_FILTERS}");
    let axes = ["--axis", "cpus=4,8", "--axis", "nsb=sb,nsb", "--axis", &filters];
    assert_matches_golden("sweep", &axes, "sweep_filters_scale002.txt");
}

#[test]
fn thread_count_does_not_change_stdout() {
    // The golden guarantee explicitly spans thread counts: the engine
    // reassembles suites in application order, so worker scheduling must
    // never reach stdout.
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_jetty-repro"))
            .args(["table2", "--scale", "0.005", "--threads", threads])
            .output()
            .expect("failed to spawn jetty-repro");
        assert!(out.status.success());
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("2"));
    assert_eq!(serial, run("3"));
}
