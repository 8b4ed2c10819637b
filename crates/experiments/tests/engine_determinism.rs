//! The engine's acceptance bar: parallel execution must be byte-identical
//! to the sequential path, at the library level (rendered `Table`s) and at
//! the binary level (`jetty-repro` stdout).

use std::process::Command;

use jetty_experiments::figures::{self, Fig6Panel};
use jetty_experiments::{tables, Engine, RunOptions};

const SCALE: f64 = 0.01;

#[test]
fn serial_and_four_thread_tables_are_byte_identical() {
    let options = RunOptions::paper().with_scale(SCALE);
    let serial = Engine::new(1).run_suite(&options).unwrap();
    let parallel = Engine::new(4).run_suite(&options).unwrap();

    assert_eq!(
        tables::table2(&serial).render(),
        tables::table2(&parallel).render(),
        "table2 diverged between serial and 4-thread runs"
    );
    assert_eq!(
        tables::table3(&serial).render(),
        tables::table3(&parallel).render(),
        "table3 diverged between serial and 4-thread runs"
    );
    for panel in Fig6Panel::ALL {
        assert_eq!(
            figures::fig6(&serial, panel).render(),
            figures::fig6(&parallel, panel).render(),
            "fig6 {panel:?} diverged between serial and 4-thread runs"
        );
    }
}

#[test]
fn repro_stdout_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_jetty-repro"))
            .args(["table2", "table3", "fig6", "--scale", "0.01", "--threads", threads])
            .output()
            .expect("failed to spawn jetty-repro");
        assert!(out.status.success(), "jetty-repro --threads {threads} failed");
        out.stdout
    };
    let serial = run("1");
    let parallel = run("4");
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "stdout must not depend on --threads");
}
