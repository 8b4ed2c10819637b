//! Replay oracle: a [`FilterBank`]'s event-major replay must equal each
//! member driven alone through its [`SnoopFilter`] trait methods — the
//! eager per-event sequence the substrate's calls stand for: `probe`, then
//! `record_snoop_miss` on an unfiltered genuine miss, and
//! `on_allocate`/`on_deallocate` as the cache changes. The bank steps
//! fused per-event paths (one set lookup per snoop, branch-free IJ p-bit
//! tests, ways- and sub-array-specialised scans) and shares one live IJ
//! per geometry between standalone IJs and backup hybrids; the trait
//! methods are the unfused, unshared reference. Compared per member:
//! accumulated activity (probes, filtered, per-array reads/writes), array
//! geometry, and the verdicts of a post-replay probe sweep, which observes
//! the EJ/VEJ/IJ state the replay left behind.
//!
//! `jetty-sim`'s `batch_equivalence` suite guards the System's event
//! logging and flush around this.

use std::collections::BTreeSet;

use jetty_core::{
    AddrSpace, EventView, FilterBank, FilterEvent, FilterSpec, MissScope, SnoopFilter, UnitAddr,
};
use proptest::prelude::*;

/// Raw proptest material for one event: an action selector and an
/// address seed.
type Action = (u8, u64);

/// Folds raw actions into a *valid* filter event log: deallocates only
/// ever target allocated units, `would_hit` is exactly "currently
/// allocated", and a snoop miss gets `MissScope::Block` only when no
/// unit of its block is cached — the same invariants the simulator's
/// event logs satisfy, so the filter-safety assertion must never fire.
fn build_events(
    actions: &[Action],
    space: AddrSpace,
    unit_of: impl Fn(u64) -> u64,
) -> Vec<FilterEvent> {
    let shift = space.block_unit_shift();
    let mut allocated: BTreeSet<u64> = BTreeSet::new();
    let mut events = Vec::with_capacity(actions.len());
    for &(kind, seed) in actions {
        let unit = unit_of(seed);
        match kind % 8 {
            // Allocate (skip if already cached: the substrate only fills
            // on misses).
            0 => {
                if allocated.insert(unit) {
                    events.push(FilterEvent::allocate(UnitAddr::new(unit)));
                }
            }
            // Deallocate the nearest allocated unit at or above the seed
            // (wrapping to the smallest), if any.
            1 => {
                let pick =
                    allocated.range(unit..).next().or_else(|| allocated.iter().next()).copied();
                if let Some(u) = pick {
                    allocated.remove(&u);
                    events.push(FilterEvent::deallocate(UnitAddr::new(u)));
                }
            }
            // Snoop: the common case, so six of eight selector values.
            _ => {
                let would_hit = allocated.contains(&unit);
                let block = unit >> shift;
                let block_cached =
                    allocated.range(block << shift..(block + 1) << shift).next().is_some();
                let scope = if block_cached { MissScope::Unit } else { MissScope::Block };
                events.push(FilterEvent::snoop(UnitAddr::new(unit), would_hit, scope));
            }
        }
    }
    events
}

/// [`assert_bank_equals_members_alone`] over the events `actions` build
/// on units `0..units`, sweeping the whole range afterwards.
fn assert_oracle_holds(bank: &[FilterSpec], actions: &[Action], chunk_len: usize, units: u64) {
    let events = build_events(actions, AddrSpace::default(), |seed| seed % units);
    assert_bank_equals_members_alone(bank, &events, chunk_len, 0..units);
}

/// Drives one filter alone through `events` with its trait methods, the
/// way the substrate would eagerly.
fn drive_alone(filter: &mut dyn SnoopFilter, events: &[FilterEvent]) {
    for event in events {
        match event.view() {
            EventView::Snoop { unit, would_hit, scope } => {
                let filtered = filter.probe(unit).is_filtered();
                assert!(!(filtered && would_hit), "{} filtered a cached unit", filter.name());
                if !filtered && !would_hit {
                    filter.record_snoop_miss(unit, scope);
                }
            }
            EventView::Allocate(unit) => filter.on_allocate(unit),
            EventView::Deallocate(unit) => filter.on_deallocate(unit),
        }
    }
}

/// Replays `events` through a [`FilterBank`] of `bank` in
/// `chunk_len`-sized batches and through each member alone, then asserts
/// every member agrees with its lone twin: activity and arrays after the
/// replay, then the verdicts of a probe sweep over `sweep`, then activity
/// again (the sweep stamps EJ/VEJ LRU clocks on both sides).
fn assert_bank_equals_members_alone(
    bank: &[FilterSpec],
    events: &[FilterEvent],
    chunk_len: usize,
    sweep: impl IntoIterator<Item = u64>,
) {
    let space = AddrSpace::default();
    let mut replayed = FilterBank::new(bank, space);
    for chunk in events.chunks(chunk_len.max(1)) {
        replayed.apply_batch(chunk, 0);
    }
    let mut alone: Vec<Box<dyn SnoopFilter>> = bank.iter().map(|s| s.build(space)).collect();
    for filter in &mut alone {
        drive_alone(filter.as_mut(), events);
    }
    let assert_members_agree = |replayed: &FilterBank, alone: &[Box<dyn SnoopFilter>], when| {
        for (k, filter) in alone.iter().enumerate() {
            let name = filter.name();
            assert_eq!(replayed.name(k), name);
            assert_eq!(replayed.activity(k), filter.activity(), "{name}: {when} activity");
            assert_eq!(replayed.arrays(k), filter.arrays(), "{name}: arrays");
        }
    };
    assert_members_agree(&replayed, &alone, "replay");
    for unit in sweep {
        let unit = UnitAddr::new(unit);
        let lone: Vec<_> = alone.iter_mut().map(|f| f.probe(unit)).collect();
        assert_eq!(replayed.probe(unit), lone, "post-replay verdicts diverged at {unit}");
    }
    assert_members_agree(&replayed, &alone, "probe-sweep");
}

/// Banks that share IJ geometries: a standalone IJ, an EJ hybrid, a VEJ
/// hybrid and an eager twin on one geometry, plus a second geometry.
fn shared_ij_bank() -> Vec<FilterSpec> {
    vec![
        FilterSpec::include(8, 4, 7),
        FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
        FilterSpec::hybrid_vector(8, 4, 7, 32, 4, 8),
        FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
        FilterSpec::exclude(16, 2),
        FilterSpec::include(6, 5, 6),
        FilterSpec::hybrid_scalar(6, 5, 6, 8, 4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every configuration the paper evaluates (EJ, VEJ, IJ, hybrids),
    /// contended traffic, arbitrary batch boundaries.
    #[test]
    fn paper_bank_replay_equals_members_alone(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..400),
        chunk_len in 1usize..96,
    ) {
        assert_oracle_holds(&FilterSpec::paper_bank(), &actions, chunk_len, 64);
    }

    /// Shared IJ states: each of their users must report like a filter
    /// with a private IJ.
    #[test]
    fn shared_ij_bank_equals_members_alone(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..400),
        chunk_len in 1usize..96,
    ) {
        assert_oracle_holds(&shared_ij_bank(), &actions, chunk_len, 512);
    }

    /// Associativities and sub-array counts off the specialised 2/4 ways
    /// and 4/5 sub-arrays, which take the generic fallback steps.
    #[test]
    fn odd_geometries_take_the_generic_steps(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..300),
        chunk_len in 1usize..64,
    ) {
        let bank = [
            FilterSpec::exclude(8, 1),
            FilterSpec::exclude(8, 3),
            FilterSpec::exclude(4, 5),
            FilterSpec::exclude(2, 9),
            FilterSpec::vector_exclude(8, 3, 8),
            FilterSpec::vector_exclude(2, 9, 4),
            FilterSpec::include(4, 1, 2),
            FilterSpec::include(5, 3, 2),
            FilterSpec::hybrid_scalar(3, 2, 1, 4, 3),
            FilterSpec::hybrid_vector(4, 6, 1, 2, 1, 2),
        ];
        assert_oracle_holds(&bank, &actions, chunk_len, 64);
    }

    /// A sparser address range drives eviction/victim-scan paths and the
    /// hybrid's eager-allocation ablation (the one member that mutates
    /// its exclude part on IJ-filtered snoops).
    #[test]
    fn eager_hybrid_and_eviction_pressure(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..300),
        chunk_len in 1usize..64,
    ) {
        let bank = [
            FilterSpec::hybrid_scalar_eager(8, 4, 7, 16, 2),
            FilterSpec::hybrid_scalar(8, 4, 7, 16, 2),
            FilterSpec::include(6, 5, 6),
        ];
        assert_oracle_holds(&bank, &actions, chunk_len, 4096);
    }
}

/// Spreads a seed over 16 regions 2^28 units apart, so every IJ
/// sub-array's index bits vary, with 1Ki units per region, so snoops
/// still revisit recorded blocks.
fn wide_unit(seed: u64) -> u64 {
    (((seed >> 40) % 16) << 28) | (seed % 1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chunk-sized replays: several thousand events over a wide unit range
    /// in one `apply_batch` call, as a run's flush delivers them, so long
    /// snoop runs, LRU clocks and victim scans see production lengths.
    /// The sweep probes every unit an event touched and its block
    /// siblings.
    #[test]
    fn long_single_chunk_over_a_wide_range(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 2000..6000),
    ) {
        let space = AddrSpace::default();
        let events = build_events(&actions, space, wide_unit);
        let block_units = 1u64 << space.block_unit_shift();
        let sweep: BTreeSet<u64> = events
            .iter()
            .map(|e| e.unit().raw() & !(block_units - 1))
            .flat_map(|base| base..base + block_units)
            .collect();
        let mut bank = FilterSpec::paper_bank();
        bank.push(FilterSpec::hybrid_scalar_eager(10, 4, 7, 32, 4));
        assert_bank_equals_members_alone(&bank, &events, events.len(), sweep.iter().copied());
    }
}

fn snoop(unit: u64, would_hit: bool) -> FilterEvent {
    FilterEvent::snoop(UnitAddr::new(unit), would_hit, MissScope::Block)
}

/// Two members turn unsafe at different events of one chunk: the EJ
/// (first in bank order) at event 2, the IJ (second) at event 1. The
/// panic names the earliest offending event's member — the IJ — with that
/// event's unit.
#[test]
#[should_panic(
    expected = "UNSAFE FILTER: IJ-8x4x7 filtered a snoop to cached unit u0x40 on node 4"
)]
fn the_earliest_unsafe_event_names_the_member() {
    let mut bank = FilterBank::new(
        &[FilterSpec::exclude(8, 2), FilterSpec::include(8, 4, 7)],
        AddrSpace::default(),
    );
    // Event 0 teaches the EJ block 0x10 (a genuine miss the empty IJ
    // filters safely). Event 1 lies that unit 0x40 is cached: the EJ knows
    // nothing of it, the empty IJ filters it. Event 2 lies about the block
    // the EJ recorded, which both would filter.
    bank.apply_batch(&[snoop(0x20, false), snoop(0x40, true), snoop(0x20, true)], 4);
}

/// Two members turn unsafe at the same event: the first in bank order is
/// named.
#[test]
#[should_panic(expected = "UNSAFE FILTER: EJ-8x2 filtered a snoop to cached unit u0x20 on node 4")]
fn at_one_event_the_first_unsafe_member_in_bank_order_is_named() {
    let mut bank = FilterBank::new(
        &[FilterSpec::exclude(8, 2), FilterSpec::include(8, 4, 7)],
        AddrSpace::default(),
    );
    // Event 1 lies about the block event 0 taught the EJ; the empty IJ
    // filters it too.
    bank.apply_batch(&[snoop(0x20, false), snoop(0x20, true)], 4);
}
