//! Protocol fuzzing: random reference streams through the fully checked
//! system, for **every** pluggable protocol (MOESI, MESI, MSI). Every
//! access runs under the version-exact coherence checker, the protocol's
//! single-writer and state-subset invariants, inclusion checking and the
//! filter-safety assertion — any protocol bug panics.
//!
//! The tiny cache geometry forces constant evictions, writebacks,
//! writeback-buffer hits and invalidation races, which is where the bugs
//! live (both protocol bugs found during bring-up reproduce here within a
//! handful of cases when reverted).

mod common;

use common::ref_strategy;
use jetty_core::{AddrSpace, FilterSpec};
use jetty_sim::{CheckLevel, L1Config, L2Config, Moesi, Op, ProtocolKind, System, SystemConfig};
use proptest::prelude::*;

/// The tiny thrashing geometry, fully checked.
fn tiny_config(cpus: usize, protocol: ProtocolKind) -> SystemConfig {
    common::tiny_config(cpus, protocol, CheckLevel::Full)
}

/// Exhaustive protocol-specific state audit: no node may hold a state
/// outside its protocol's subset, for any unit either cache can name.
fn assert_states_in_subset(sys: &System, protocol: ProtocolKind, units: u64) {
    let allowed = protocol.protocol();
    for cpu in 0..sys.cpus() {
        for unit in 0..units {
            let state = sys.l2_state(cpu, unit * 32);
            assert!(allowed.allows(state), "{protocol}: node {cpu} holds {state} for unit {unit}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Contended random traffic on a 4-way SMP with the full filter bank,
    /// under every protocol: no checker assertion may fire, and the
    /// summary statistics must be internally consistent.
    #[test]
    fn contended_traffic_stays_coherent(
        refs in prop::collection::vec(ref_strategy(4, 64), 1..600)
    ) {
        for protocol in ProtocolKind::ALL {
            let mut sys = System::new(tiny_config(4, protocol), &FilterSpec::paper_bank());
            for r in &refs {
                sys.apply(*r);
            }
            sys.verify_inclusion();
            sys.verify_filter_consistency();
            assert_states_in_subset(&sys, protocol, 64);

            let run = sys.run_stats();
            prop_assert_eq!(run.nodes.l1_accesses, refs.len() as u64);
            prop_assert_eq!(run.nodes.snoops_seen, run.system.transactions() * 3);
            prop_assert_eq!(
                run.nodes.snoop_hits + run.nodes.snoop_would_miss,
                run.nodes.snoops_seen
            );
            prop_assert!(run.nodes.l1_hits <= run.nodes.l1_accesses);
            prop_assert!(run.nodes.l2_local_hits <= run.nodes.l2_local_accesses);
            if protocol == ProtocolKind::Moesi {
                // Only MOESI keeps dirty supplies away from memory.
                prop_assert_eq!(run.nodes.snoop_memory_writebacks, 0);
            }
        }
    }

    /// Wider, sparser traffic: exercises evictions of all states and the
    /// writeback-forwarding path, under every protocol.
    #[test]
    fn sparse_traffic_stays_coherent(
        refs in prop::collection::vec(ref_strategy(4, 4096), 1..400)
    ) {
        for protocol in ProtocolKind::ALL {
            let mut sys = System::new(
                tiny_config(4, protocol),
                &[FilterSpec::hybrid_scalar(8, 4, 7, 16, 2)],
            );
            for r in &refs {
                sys.apply(*r);
            }
            sys.verify_inclusion();
            sys.verify_filter_consistency();
        }
    }

    /// An 8-way bus with migratory-style ping-pong on a handful of units,
    /// under every protocol (migratory sharing is where O/E/S differ most).
    #[test]
    fn eight_way_pingpong_stays_coherent(
        order in prop::collection::vec((0..8usize, 0..8u64), 1..300)
    ) {
        for protocol in ProtocolKind::ALL {
            let mut sys =
                System::new(tiny_config(8, protocol), &[FilterSpec::include(8, 4, 7)]);
            for &(cpu, unit) in &order {
                sys.access(cpu, Op::Read, unit * 32);
                sys.access(cpu, Op::Write, unit * 32);
            }
            assert_states_in_subset(&sys, protocol, 8);
            let run = sys.run_stats();
            prop_assert_eq!(run.nodes.snoops_seen, run.system.transactions() * 7);
        }
    }

    /// Remote-hit histogram is a partition of the transactions and never
    /// reports more copies than remote caches exist — for every protocol.
    #[test]
    fn remote_hit_histogram_is_a_partition(
        refs in prop::collection::vec(ref_strategy(4, 32), 1..400)
    ) {
        for protocol in ProtocolKind::ALL {
            let mut sys = System::new(tiny_config(4, protocol), &[]);
            for r in &refs {
                sys.apply(*r);
            }
            let stats = sys.system_stats();
            prop_assert_eq!(stats.remote_hit_hist.len(), 4);
            let total: u64 = stats.remote_hit_hist.iter().sum();
            prop_assert_eq!(total, stats.transactions());
        }
    }

    /// Determinism: identical traces through identically configured
    /// systems produce identical statistics and filter activity, under
    /// every protocol.
    #[test]
    fn simulation_is_deterministic(
        refs in prop::collection::vec(ref_strategy(4, 128), 1..300)
    ) {
        for protocol in ProtocolKind::ALL {
            let spec = FilterSpec::hybrid_vector(9, 4, 7, 16, 4, 4);
            let mut a = System::new(tiny_config(4, protocol), &[spec]);
            let mut b = System::new(tiny_config(4, protocol), &[spec]);
            for r in &refs {
                a.apply(*r);
                b.apply(*r);
            }
            prop_assert_eq!(a.run_stats().nodes, b.run_stats().nodes);
            prop_assert_eq!(
                a.filter_reports()[0].activities.len(),
                b.filter_reports()[0].activities.len()
            );
            prop_assert_eq!(a.filter_reports()[0].filtered, b.filter_reports()[0].filtered);
        }
    }

    /// Filters are transparent: attaching any bank never changes protocol
    /// statistics — the bystander property holds for every protocol.
    #[test]
    fn filters_are_transparent(
        refs in prop::collection::vec(ref_strategy(4, 64), 1..300)
    ) {
        for protocol in ProtocolKind::ALL {
            let mut with = System::new(tiny_config(4, protocol), &FilterSpec::paper_bank());
            let mut without = System::new(tiny_config(4, protocol), &[]);
            for r in &refs {
                with.apply(*r);
                without.apply(*r);
            }
            prop_assert_eq!(with.run_stats().nodes, without.run_stats().nodes);
            prop_assert_eq!(with.run_stats().system, without.run_stats().system);
        }
    }

    /// The single-writer property holds at every step: whenever one node
    /// holds M or E, no other node holds any valid copy.
    #[test]
    fn single_writer_invariant_holds_under_all_protocols(
        refs in prop::collection::vec(ref_strategy(4, 16), 1..250)
    ) {
        for protocol in ProtocolKind::ALL {
            let mut sys = System::new(tiny_config(4, protocol), &[]);
            for r in &refs {
                sys.apply(*r);
                // Re-derive the invariant from outside the checker.
                let unit_addr = (r.addr / 32) * 32;
                let states: Vec<Moesi> =
                    (0..4).map(|cpu| sys.l2_state(cpu, unit_addr)).collect();
                let exclusive = states
                    .iter()
                    .filter(|s| matches!(s, Moesi::Modified | Moesi::Exclusive))
                    .count();
                let valid = states.iter().filter(|s| s.is_valid()).count();
                prop_assert!(exclusive <= 1, "{protocol}: {states:?}");
                if exclusive == 1 {
                    prop_assert_eq!(valid, 1, "{} {:?}", protocol, &states);
                }
            }
        }
    }

    /// The non-subblocked configuration upholds the same invariants under
    /// every protocol.
    #[test]
    fn nsb_configuration_stays_coherent(
        refs in prop::collection::vec((0..4usize, any::<bool>(), 0..64u64), 1..300)
    ) {
        for protocol in ProtocolKind::ALL {
            let config = SystemConfig {
                cpus: 4,
                l1: L1Config::new(512, 64),
                l2: L2Config::new(2048, 64, 1),
                wb_entries: 2,
                addr: AddrSpace::with_block_shift(40, 6, 6),
                check: CheckLevel::Full,
                protocol,
            };
            let mut sys = System::new(config, &[FilterSpec::exclude(16, 2)]);
            for &(cpu, write, unit) in &refs {
                let op = if write { Op::Write } else { Op::Read };
                sys.access(cpu, op, unit * 64);
            }
            sys.verify_inclusion();
            sys.verify_filter_consistency();
        }
    }
}
