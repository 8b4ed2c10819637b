//! Shard-count invariance: `System::with_shards` fans the per-chunk snoop
//! replay out to slices of the node array, and that fan-out must be
//! *invisible* — a sharded run and a serial run over the same trace must
//! agree on every observable: protocol statistics, L2 states, and every
//! filter's probes/filtered/would-miss counts and per-node array
//! activity. The serial pass already records every node's events in
//! global bus order and the replay of one node never reads another, so
//! any shard count (including counts exceeding the node count) is just a
//! different schedule over identical per-node work; this suite pins that
//! with arbitrary traces, arbitrary chunk boundaries, and every
//! pluggable protocol.

mod common;

use common::{assert_same_observables, ref_strategy, tiny_config};
use jetty_core::FilterSpec;
use jetty_sim::{CheckLevel::Off, MemRef, Op, ProtocolKind, System};
use proptest::prelude::*;

/// Runs `refs` through a serial (shards=1) system and one system per
/// sharded count, then asserts every observable matches.
fn assert_shards_match_serial(
    refs: &[MemRef],
    chunk_len: usize,
    cpus: usize,
    protocol: ProtocolKind,
    specs: &[FilterSpec],
    units: u64,
) {
    let mut serial = System::new(tiny_config(cpus, protocol, Off), specs);
    for chunk in refs.chunks(chunk_len) {
        serial.run_chunk(chunk);
    }
    // 2 and 4 split the node array evenly and unevenly; 7 exceeds the
    // node count and must clamp to one node per shard.
    for shards in [2usize, 4, 7] {
        let mut sharded = System::new(tiny_config(cpus, protocol, Off), specs).with_shards(shards);
        for chunk in refs.chunks(chunk_len) {
            sharded.run_chunk(chunk);
        }
        assert_same_observables(&sharded, &serial, units, &format!("{protocol} shards={shards}"));
        sharded.verify_filter_consistency();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The full paper bank over contended traffic: sharded replay must be
    /// observation-identical for every protocol, any chunk boundary, and
    /// shard counts both dividing and exceeding the node count.
    #[test]
    fn paper_bank_sharded_equals_serial(
        refs in prop::collection::vec(ref_strategy(4, 64), 1..400),
        chunk_len in 1usize..96,
    ) {
        for protocol in ProtocolKind::ALL {
            assert_shards_match_serial(
                &refs,
                chunk_len,
                4,
                protocol,
                &FilterSpec::paper_bank(),
                64,
            );
        }
    }

    /// Eviction-heavy hybrid traffic on an 8-way SMP: odd node counts per
    /// shard (8 nodes over 7 shards) stress the contiguous-slice split
    /// and the base-index bookkeeping of the merge.
    #[test]
    fn hybrid_sharded_equals_serial_under_eviction_pressure(
        refs in prop::collection::vec(ref_strategy(8, 4096), 1..300),
        chunk_len in 1usize..64,
    ) {
        for protocol in ProtocolKind::ALL {
            assert_shards_match_serial(
                &refs,
                chunk_len,
                8,
                protocol,
                &[FilterSpec::hybrid_scalar(8, 4, 7, 16, 2)],
                64,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One IJ geometry shared by a standalone IJ, an EJ hybrid and a VEJ
    /// hybrid (one live IJ state per node), next to the eager twin with
    /// its private IJ: shard workers each replay whole nodes, shared
    /// state included, so any shard count must match the serial run.
    #[test]
    fn shared_ij_bank_sharded_equals_serial(
        refs in prop::collection::vec(ref_strategy(8, 4096), 1..300),
        chunk_len in 1usize..64,
    ) {
        let bank = [
            FilterSpec::include(8, 4, 7),
            FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
            FilterSpec::hybrid_vector(8, 4, 7, 32, 4, 8),
            FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
        ];
        for protocol in ProtocolKind::ALL {
            assert_shards_match_serial(&refs, chunk_len, 8, protocol, &bank, 64);
        }
    }
}

/// A gated sharded run that expires mid-trace must report the stop instead
/// of deadlocking or merging partial work silently — and the same system
/// keeps working if resumed with an unbounded gate (shard workers check
/// the gate per node, so a stop leaves whole-node units of work undone,
/// never a half-replayed node).
#[test]
fn sharded_replay_observes_the_gate() {
    let refs: Vec<MemRef> = (0..1000u64)
        .map(|i| MemRef {
            cpu: (i % 4) as usize,
            op: if i % 3 == 0 { Op::Write } else { Op::Read },
            addr: (i % 48) * 32,
        })
        .collect();
    let mut sys = System::new(tiny_config(4, ProtocolKind::Moesi, Off), &FilterSpec::paper_bank())
        .with_shards(4);
    let expired = jetty_sim::RunGate::with_budget(std::time::Duration::ZERO);
    let stop = sys.run_chunk_gated(&refs, &expired).unwrap_err();
    assert!(
        matches!(stop, jetty_sim::GateStop::DeadlineExpired { budget_ms: 0 }),
        "unexpected stop: {stop:?}"
    );
}
