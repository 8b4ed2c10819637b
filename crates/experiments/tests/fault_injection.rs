//! The fault matrix: end-to-end proof that injected failures degrade the
//! pipeline gracefully instead of tearing it down.
//!
//! Every test spawns the `jetty-repro` binary because `JETTY_FAULT` is
//! resolved once per process — a fresh process per scenario keeps the
//! injections independent. The spawned binary is the
//! test-profile build; the release profile unwinds too, and CI's fault
//! smoke checks worker-panic containment in the release binary.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The tiny base suite every scenario runs: `all --scale 0.002` on the
/// default 4-way platform.
const SCALE: &str = "0.002";
/// The engine cache key of that base suite (what `JETTY_FAULT` targets).
const BASE_SUITE: &str = "cpus4-scale0.002-sb-moesi-paperbank22";
/// The cache key of the 8-way summary suite `all` also runs.
const SMP8_SUITE: &str = "cpus8-scale0.002-sb-moesi-paperbank22";
/// The IJ-skip ablation suite: same platform as the base suite, so the
/// engine folds the two (and the HJ-policy suite) into one simulation.
const IJ_SKIP_SUITE: &str = "cpus4-scale0.002-sb-moesi-ij-8x4x2+ij-8x4x4+ij-8x4x6+ij-8x4x8";
/// The HJ-policy ablation suite, the third member of that fold.
const HJ_POLICY_SUITE: &str = "cpus4-scale0.002-sb-moesi-hj-ij9x4x7-ej32x4+hj-ij9x4x7-ej32x4-eager";

fn repro(fault: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_jetty-repro"));
    if let Some(spec) = fault {
        cmd.env("JETTY_FAULT", spec);
    }
    cmd.args(args).output().expect("failed to spawn jetty-repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Splits text-renderer output into its `== title ==` blocks, dropping the
/// blocks whose title matches `drop`.
fn blocks_without(text: &str, drop: &[&str]) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("== ") {
            blocks.push(String::new());
        }
        if let Some(current) = blocks.last_mut() {
            current.push_str(line);
            current.push('\n');
        }
    }
    blocks.retain(|b| {
        let title = b.lines().next().unwrap_or("");
        !drop.iter().any(|d| title.contains(d))
    });
    blocks
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jetty-fault-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn a_failed_suite_degrades_all_to_a_partial_result() {
    let clean = repro(None, &["all", "--scale", SCALE, "--threads", "2"]);
    assert_eq!(clean.status.code(), Some(0), "clean run must exit 0");

    let fault = format!("suite-fail@{SMP8_SUITE}");
    let partial = repro(Some(&fault), &["all", "--scale", SCALE, "--threads", "2"]);
    assert_eq!(partial.status.code(), Some(2), "partial result must exit 2");

    // The failure is announced: once on stderr, once in the final
    // failures table (with the suite id, the typed kind, and the detail).
    let err = stderr(&partial);
    assert!(err.contains("[fault] injection active"), "{err}");
    assert!(err.contains(&format!("error: suite {SMP8_SUITE}")), "{err}");
    let out = stdout(&partial);
    assert!(out.contains("== Failed suites"), "{out}");
    assert!(out.contains(SMP8_SUITE), "{out}");
    assert!(out.contains("simulation"), "{out}");
    assert!(out.contains("injected fault: suite-fail"), "{out}");

    // Every surviving exhibit is byte-identical to the clean run: strip
    // the 8-way block from the clean output and the failures block from
    // the partial one, and the documents must match exactly.
    let clean_blocks = blocks_without(&stdout(&clean), &["8-way SMP summary"]);
    let partial_blocks = blocks_without(&out, &["Failed suites"]);
    assert!(!clean_blocks.is_empty());
    assert_eq!(clean_blocks, partial_blocks, "surviving tables must be byte-identical");
}

#[test]
fn a_totally_failed_invocation_exits_one() {
    // The only requested exhibit fails: nothing but the failures table
    // renders, and the exit code says "total", not "partial".
    let fault = format!("suite-fail@{SMP8_SUITE}");
    let out = repro(Some(&fault), &["smp8", "--scale", SCALE]);
    assert_eq!(out.status.code(), Some(1), "total failure must exit 1");
    let text = stdout(&out);
    assert!(text.contains("== Failed suites"), "{text}");
    assert!(!text.contains("8-way SMP summary"), "{text}");
}

#[test]
fn failures_flow_through_every_renderer() {
    let fault = format!("suite-fail@{SMP8_SUITE}");
    for (format, needle) in [
        ("text", "== Failed suites".to_string()),
        ("json", "\"id\": \"failures\"".to_string()),
        ("csv", format!("{SMP8_SUITE},simulation")),
    ] {
        let out = repro(Some(&fault), &["smp8", "--scale", SCALE, "--format", format]);
        assert_eq!(out.status.code(), Some(1), "--format {format}");
        let text = stdout(&out);
        assert!(text.contains(&needle), "--format {format} lacks the failure: {text}");
        assert!(text.contains(SMP8_SUITE), "--format {format} lacks the suite id: {text}");
    }
}

#[test]
fn a_worker_panic_is_contained_as_a_suite_failure() {
    // The test-profile binary unwinds, so a panicking job must surface as
    // a typed simulation error on its suite — same shape as suite-fail —
    // while the sibling suite still renders.
    let fault = format!("suite-panic@{SMP8_SUITE}");
    let out = repro(Some(&fault), &["all", "--scale", SCALE, "--threads", "2"]);
    assert_eq!(out.status.code(), Some(2), "panic must degrade, not abort");
    let text = stdout(&out);
    assert!(text.contains("== Failed suites"), "{text}");
    assert!(text.contains("worker panicked"), "{text}");
    assert!(text.contains("injected fault: suite-panic"), "{text}");
    assert!(text.contains("Table 2"), "surviving exhibits must render: {text}");
}

#[test]
fn an_expired_deadline_fails_the_slow_suite_only() {
    // slow-suite stretches each base-suite job past the 1500 ms budget
    // at its first chunk boundary. The budget is generous so the un-slowed
    // 8-way suite never trips it, even on a loaded CI host: its jobs span
    // several chunks, so the gate sees their whole run (a 500 ms budget
    // tripped on this unoptimised binary while the other fault scenarios
    // ran beside it). The 8-way suite must render normally.
    let fault = format!("slow-suite@{BASE_SUITE}:1600");
    let out =
        repro(Some(&fault), &["all", "--scale", SCALE, "--threads", "2", "--deadline-ms", "1500"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("== Failed suites"), "{text}");
    assert!(text.contains("deadline"), "{text}");
    assert!(text.contains("1500 ms job deadline"), "{text}");
    // The base suite feeds table2..fig6; all of those are skipped.
    assert!(!text.contains("Table 2"), "{text}");
    // Static exhibits and the independent 8-way suite survive.
    assert!(text.contains("Table 1"), "{text}");
    assert!(text.contains("8-way SMP summary"), "{text}");
}

#[test]
fn transient_store_write_errors_are_retried_to_success() {
    let dir = temp_dir("retry");
    let store = dir.join("runs.store");
    let store_arg = store.to_str().expect("utf8 path");

    // Two injected failures, three attempts: the append must succeed.
    let out = repro(Some("store-write-err@frame1:2"), &["table1", "--store", store_arg]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("retrying in"), "{err}");
    assert!(err.contains("[store] recorded run #1"), "{err}");

    // The stored record is intact and listable.
    let list = repro(None, &["runs", "--strict", "--store", store_arg]);
    assert_eq!(list.status.code(), Some(0), "stderr: {}", stderr(&list));
    assert!(stdout(&list).contains("table1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_permanent_store_write_error_degrades_to_partial() {
    let dir = temp_dir("exhaust");
    let store = dir.join("runs.store");
    let store_arg = store.to_str().expect("utf8 path");

    // Uncounted fault: every attempt fails, retries exhaust, the tables
    // still render, and the exit code reports the partial outcome.
    let out = repro(Some("store-write-err@frame1"), &["table1", "--store", store_arg]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("Table 1"), "tables must render before the append");
    let err = stderr(&out);
    assert!(err.contains("after 3 attempts"), "{err}");
    assert!(err.contains("intact records are untouched"), "{err}");

    // The store was not corrupted: the next (fault-free) append works and
    // the strict listing passes.
    let retry = repro(None, &["table1", "--store", store_arg]);
    assert_eq!(retry.status.code(), Some(0), "stderr: {}", stderr(&retry));
    assert!(stderr(&retry).contains("[store] recorded run #1"));
    let list = repro(None, &["runs", "--strict", "--store", store_arg]);
    assert_eq!(list.status.code(), Some(0), "stderr: {}", stderr(&list));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_invalid_fault_spec_warns_and_injects_nothing() {
    let out = repro(Some("flip-bits@everywhere"), &["table1"]);
    assert_eq!(out.status.code(), Some(0), "invalid spec must not fail the run");
    let err = stderr(&out);
    assert!(err.contains("warning: ignoring invalid JETTY_FAULT"), "{err}");
    assert!(err.contains("no faults injected"), "{err}");
    assert!(stdout(&out).contains("Table 1"));
}

#[test]
fn a_fault_on_an_unrequested_suite_is_inert() {
    // Fault specs name exact cache keys; an invocation that never builds
    // that key runs clean (and exits 0).
    let fault = format!("suite-fail@{SMP8_SUITE}");
    let clean = repro(None, &["table2", "--scale", SCALE]);
    let faulted = repro(Some(&fault), &["table2", "--scale", SCALE]);
    assert_eq!(faulted.status.code(), Some(0));
    assert_eq!(faulted.stdout, clean.stdout, "inert fault changed stdout");
}

/// A fault on one suite of a same-platform fold: that suite runs alone
/// and fails under its own id (the failures table's one row), while the
/// suites it would have folded with still render byte-identically to the
/// clean run, less the blocks the failed suite feeds.
fn assert_fault_hits_only(fault: &str, suite: &str, lost_blocks: &[&str]) {
    let clean = repro(None, &["all", "--scale", SCALE, "--threads", "2"]);
    assert_eq!(clean.status.code(), Some(0), "clean run must exit 0");
    let partial = repro(Some(fault), &["all", "--scale", SCALE, "--threads", "2"]);
    assert_eq!(partial.status.code(), Some(2), "stderr: {}", stderr(&partial));

    let out = stdout(&partial);
    let failures = out.split("== Failed suites").nth(1).unwrap_or_else(|| panic!("{out}"));
    assert!(failures.contains(suite), "{failures}");
    // The rest of the title line, the header and the rule, then one row
    // per failed suite.
    assert_eq!(failures.lines().skip(3).filter(|l| !l.is_empty()).count(), 1, "{failures}");
    for other in [BASE_SUITE, SMP8_SUITE, IJ_SKIP_SUITE, HJ_POLICY_SUITE] {
        if other != suite {
            assert!(!failures.contains(other), "{other} must not fail: {failures}");
        }
    }
    assert_eq!(
        blocks_without(&stdout(&clean), lost_blocks),
        blocks_without(&out, &["Failed suites"]),
        "surviving tables must be byte-identical"
    );
}

#[test]
fn a_failed_suite_of_a_fold_fails_alone() {
    let fault = format!("suite-fail@{IJ_SKIP_SUITE}");
    assert_fault_hits_only(&fault, IJ_SKIP_SUITE, &["Ablation: IJ index overlap"]);
}

#[test]
fn a_panicking_suite_of_a_fold_fails_alone() {
    let fault = format!("suite-panic@{HJ_POLICY_SUITE}");
    assert_fault_hits_only(&fault, HJ_POLICY_SUITE, &["Ablation: HJ EJ-allocation policy"]);
}

#[test]
fn a_failed_base_suite_skips_each_exhibit_it_feeds_once() {
    // The base suite feeds eleven blocks: Tables 2-3, Figures 4a-5b, the
    // four Figure 6 panels and the calibration. Each of those exhibits is
    // skipped, the failure reports once, and everything else survives.
    let fault = format!("suite-fail@{BASE_SUITE}");
    let lost = ["Table 2", "Table 3", "Figure 4", "Figure 5", "Figure 6", "Calibration"];
    assert_fault_hits_only(&fault, BASE_SUITE, &lost);
}
