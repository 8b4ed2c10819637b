//! Helpers shared by the substrate's integration suites: the tiny
//! thrashing geometry, a contended reference strategy, and the
//! every-observable comparison of two runs over one trace.

// Each suite compiles its own copy and uses a subset.
#![allow(dead_code)]

use jetty_core::AddrSpace;
use jetty_sim::{CheckLevel, L1Config, L2Config, MemRef, Op, ProtocolKind, System, SystemConfig};
use proptest::prelude::*;

/// A tiny SMP: 8-line L1s, 16-block L2s, 2-entry writeback buffers —
/// everything thrashes.
pub(crate) fn tiny_config(cpus: usize, protocol: ProtocolKind, check: CheckLevel) -> SystemConfig {
    SystemConfig {
        cpus,
        l1: L1Config::new(256, 32),
        l2: L2Config::new(1024, 64, 2),
        wb_entries: 2,
        addr: AddrSpace::default(),
        check,
        protocol,
    }
}

/// Reference strategy over a small, highly contended address range.
pub(crate) fn ref_strategy(cpus: usize, units: u64) -> impl Strategy<Value = MemRef> {
    (0..cpus, any::<bool>(), 0..units).prop_map(|(cpu, write, unit)| MemRef {
        cpu,
        op: if write { Op::Write } else { Op::Read },
        addr: unit * 32,
    })
}

/// Asserts two runs over one trace agree on every observable: protocol
/// statistics, each node's L2 state for units `0..units`, and every
/// filter's probe/filtered/would-miss counts and per-node array activity.
pub(crate) fn assert_same_observables(a: &System, b: &System, units: u64, what: &str) {
    assert_eq!(a.run_stats(), b.run_stats(), "{what}: protocol stats diverged");
    for cpu in 0..a.cpus() {
        for unit in 0..units {
            assert_eq!(
                a.l2_state(cpu, unit * 32),
                b.l2_state(cpu, unit * 32),
                "{what}: node {cpu} unit {unit} state diverged"
            );
        }
    }
    let (ra, rb) = (a.filter_reports(), b.filter_reports());
    assert_eq!(ra.len(), rb.len(), "{what}");
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.label, y.label, "{what}");
        assert_eq!(
            (x.probes, x.filtered, x.would_miss),
            (y.probes, y.filtered, y.would_miss),
            "{what}: {} counts diverged",
            x.label
        );
        assert_eq!(x.activities, y.activities, "{what}: {} array activity diverged", x.label);
    }
}
