//! AVX2-vs-scalar kernel equivalence: every filter's batched replay must
//! be observation-identical under [`SimdLevel::SCALAR`] and the AVX2
//! level — same verdicts, same activity counters, same internal state
//! (observed through post-replay probes). This is the SIMD sibling of
//! `jetty-sim`'s `batch_equivalence` suite: that one pins batched replay
//! against the eager path, this one pins the two kernel implementations
//! against each other with proptest-generated event logs. Filters replay
//! as whole [`FilterBank`]s, the way a run's flush delivers events, so
//! the IJ states a bank shares between standalone IJs and hybrids are
//! compared too.
//!
//! This is the only scalar-vs-AVX2 replay comparison an AVX2 host runs:
//! every other test and golden check exercises the detected level only.
//! On hosts without AVX2 every case degenerates to scalar-vs-scalar and
//! the suite prints a skip note (the scalar path is still the one the
//! host would run, so there is nothing else to compare).

use std::collections::BTreeSet;

use jetty_core::kernels::SimdLevel;
use jetty_core::{AddrSpace, FilterBank, FilterEvent, FilterSpec, MissScope, UnitAddr};
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
                    events.push(FilterEvent::Allocate(UnitAddr::new(unit)));
                }
            }
            // Deallocate the nearest allocated unit at or above the seed
            // (wrapping to the smallest), if any.
            1 => {
                let pick =
                    allocated.range(unit..).next().or_else(|| allocated.iter().next()).copied();
                if let Some(u) = pick {
                    allocated.remove(&u);
                    events.push(FilterEvent::Deallocate(UnitAddr::new(u)));
                }
            }
            // Snoop: the common case, so six of eight selector values.
            _ => {
                let would_hit = allocated.contains(&unit);
                let block = unit >> shift;
                let block_cached =
                    allocated.range(block << shift..(block + 1) << shift).next().is_some();
                let scope = if block_cached { MissScope::Unit } else { MissScope::Block };
                events.push(FilterEvent::Snoop { unit: UnitAddr::new(unit), would_hit, scope });
            }
        }
    }
    events
}

/// [`assert_replays_agree`] over the events `actions` build on units
/// `0..units`, sweeping the whole range afterwards.
fn assert_levels_agree(bank: &[FilterSpec], actions: &[Action], chunk_len: usize, units: u64) {
    let events = build_events(actions, AddrSpace::default(), |seed| seed % units);
    assert_replays_agree(bank, &events, chunk_len, 0..units);
}

/// Replays `events` through two fresh [`FilterBank`]s of `bank` — one per
/// kernel level — in `chunk_len`-sized batches, then asserts the
/// observables of every member agree: accumulated activity (probes,
/// filtered, per-array reads/writes) and the verdicts of a probe sweep
/// over `sweep` (which observes the EJ/VEJ/IJ state the replay left
/// behind, shared IJ states included).
fn assert_replays_agree(
    bank: &[FilterSpec],
    events: &[FilterEvent],
    chunk_len: usize,
    sweep: impl IntoIterator<Item = u64>,
) {
    let Some(avx2) = SimdLevel::avx2() else {
        eprintln!("note: AVX2 unavailable; SIMD equivalence degenerates to scalar-vs-scalar");
        return;
    };
    let space = AddrSpace::default();
    let mut scalar = FilterBank::new(bank, space);
    let mut vector = FilterBank::new(bank, space);
    for chunk in events.chunks(chunk_len.max(1)) {
        scalar.apply_batch(SimdLevel::SCALAR, chunk, 0);
        vector.apply_batch(avx2, chunk, 0);
    }
    let assert_activity_agrees = |scalar: &FilterBank, vector: &FilterBank, when: &str| {
        for (k, spec) in bank.iter().enumerate() {
            assert_eq!(
                scalar.activity(k),
                vector.activity(k),
                "{}: {when} activity diverged between kernels",
                spec.label()
            );
        }
    };
    assert_activity_agrees(&scalar, &vector, "replay");
    for unit in sweep {
        assert_eq!(
            scalar.probe(UnitAddr::new(unit)),
            vector.probe(UnitAddr::new(unit)),
            "post-replay verdicts diverged at unit {unit}"
        );
    }
    // The probe sweep above mutated both (EJ LRU stamps); activity must
    // still agree afterwards.
    assert_activity_agrees(&scalar, &vector, "probe-sweep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every configuration the paper evaluates (EJ, VEJ, IJ, hybrids),
    /// contended traffic, arbitrary batch boundaries.
    #[test]
    fn paper_bank_kernels_agree(
        actions in prop::collection::vec((any::<u8>(), any::<u64>()), 1..400),
        chunk_len in 1usize..96,
    ) {
        assert_levels_agree(&FilterSpec::paper_bank(), &actions, chunk_len, 64);
    }

    /// Associativities around the 4-lane width, including sub-4 sets that
    /// run entirely in the kernels' scalar tails and a 9-way config whose
    /// windows have both full lanes and a tail.
    #[test]
    fn odd_associativities_exercise_lane_tails(
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
        ];
        assert_levels_agree(&bank, &actions, chunk_len, 64);
    }

    /// A sparser address range drives eviction/victim-scan paths and the
    /// hybrid's eager-allocation ablation (the one replay that mutates
    /// the exclude part mid-run).
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
        assert_levels_agree(&bank, &actions, chunk_len, 4096);
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
    /// in one `apply_batch` call, as a run's flush delivers them
    /// (`System::CHUNK_LEN` is 64Ki references), so the kernels' long
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
            .map(|e| match *e {
                FilterEvent::Snoop { unit, .. }
                | FilterEvent::Allocate(unit)
                | FilterEvent::Deallocate(unit) => unit.raw() & !(block_units - 1),
            })
            .flat_map(|base| base..base + block_units)
            .collect();
        let mut bank = FilterSpec::paper_bank();
        bank.push(FilterSpec::hybrid_scalar_eager(10, 4, 7, 32, 4));
        assert_replays_agree(&bank, &events, events.len(), sweep.iter().copied());
    }
}
