//! Model-based equivalence: the packed [`L2Cache`] against a naive
//! `BTreeMap`-backed reference model.
//!
//! The hot-path L2 packs each block's tag, valid bitmask and per-subblock
//! state codes into one `u64` record, with the checker's versions in a
//! cold per-subblock array; the reference model below is the slowest,
//! most obviously correct implementation of the same contract (one map
//! entry per valid unit, whole-block eviction by scanning). Random
//! fill/probe/evict/set-state/set-version sequences must drive both
//! through identical observable behaviour — states, versions, block
//! presence, eviction sets, population and enumeration — at 1, 2 and 8
//! subblocks per block, with tags that reach the top bit of the record's
//! 40-bit tag field.

use std::collections::BTreeMap;

use jetty_core::UnitAddr;
use jetty_sim::{EvictedUnit, L2Cache, L2Config, Moesi};
use proptest::prelude::*;

/// Blocks in the cache under test: 8 of 64 bytes — tiny, so conflicts
/// are constant.
const BLOCKS: u64 = 8;

/// Subblock counts every sequence runs at: non-subblocked, the paper's
/// 2, and the packed record's maximum.
const SUBBLOCK_COUNTS: [u64; 3] = [1, 2, 8];

/// Block tags the strategy draws: four low ones and four with bit 39
/// (the top of the 40-bit tag field) set, so a truncated tag field
/// would alias a high tag onto a low one.
const TAGS: [u64; 8] = [0, 1, 2, 3, 1 << 39, (1 << 39) | 1, (1 << 39) | 2, (1 << 40) - 1];

fn l2(subblocks: u64) -> L2Cache {
    L2Cache::new(L2Config::new((BLOCKS * 64) as usize, 64, subblocks as usize))
}

/// A drawn unit: indices into [`TAGS`], the block index and a subblock
/// (reduced modulo the geometry's subblock count).
type UnitDraw = (usize, u64, u64);

fn unit_draw() -> impl Strategy<Value = UnitDraw> {
    (0..TAGS.len(), 0..BLOCKS, 0..8u64)
}

/// The unit address a draw names under `subblocks` subblocks per block.
fn unit_of((tag, idx, sub): UnitDraw, subblocks: u64) -> u64 {
    (TAGS[tag] * BLOCKS + idx) * subblocks + sub % subblocks
}

/// Every unit the strategy can draw under `subblocks`.
fn universe(subblocks: u64) -> impl Iterator<Item = u64> {
    (0..TAGS.len()).flat_map(move |tag| {
        (0..BLOCKS)
            .flat_map(move |idx| (0..subblocks).map(move |sub| unit_of((tag, idx, sub), subblocks)))
    })
}

/// The naive reference: one `BTreeMap` entry per *valid* unit, keyed by
/// unit address. Direct-mapped geometry is recomputed per operation.
struct ModelL2 {
    subblocks: u64,
    units: BTreeMap<u64, (Moesi, u64)>,
}

impl ModelL2 {
    fn new(subblocks: u64) -> Self {
        Self { subblocks, units: BTreeMap::new() }
    }

    fn index_of(&self, unit: u64) -> u64 {
        self.block_of(unit) % BLOCKS
    }

    fn block_of(&self, unit: u64) -> u64 {
        unit / self.subblocks
    }

    fn state(&self, unit: u64) -> Moesi {
        self.units.get(&unit).map_or(Moesi::Invalid, |&(s, _)| s)
    }

    fn version(&self, unit: u64) -> u64 {
        self.units.get(&unit).map_or(0, |&(_, v)| v)
    }

    fn block_present(&self, unit: u64) -> bool {
        let block = self.block_of(unit);
        (0..self.subblocks).any(|s| self.units.contains_key(&(block * self.subblocks + s)))
    }

    fn population(&self) -> usize {
        self.units.len()
    }

    /// Mirrors [`L2Cache::fill_into`]: evicts every valid unit of a
    /// conflicting resident block (ascending unit order), then installs.
    fn fill(&mut self, unit: u64, state: Moesi, version: u64) -> Vec<EvictedUnit> {
        let idx = self.index_of(unit);
        let block = self.block_of(unit);
        // A resident conflicting block is any valid unit with the same
        // index but a different block address.
        let victims: Vec<u64> = self
            .units
            .keys()
            .copied()
            .filter(|&u| self.index_of(u) == idx && self.block_of(u) != block)
            .collect();
        let mut evicted = Vec::new();
        for u in victims {
            let (s, v) = self.units.remove(&u).expect("victim key just enumerated");
            evicted.push(EvictedUnit { unit: UnitAddr::new(u), state: s, version: v });
        }
        assert!(!self.units.contains_key(&unit), "model fill of already-valid unit");
        self.units.insert(unit, (state, version));
        evicted
    }

    fn invalidate(&mut self, unit: u64) -> (Moesi, u64) {
        self.units.remove(&unit).expect("model invalidate of absent unit")
    }

    fn set_state(&mut self, unit: u64, state: Moesi) {
        self.units.get_mut(&unit).expect("model set_state on absent unit").0 = state;
    }

    fn set_version(&mut self, unit: u64, version: u64) {
        self.units.get_mut(&unit).expect("model set_version on absent unit").1 = version;
    }
}

/// One randomly generated driver step. Mutating ops pick a unit and act
/// only when the precondition holds (fill on absent, invalidate/set on
/// present), so every generated sequence is legal for both
/// implementations.
#[derive(Clone, Copy, Debug)]
enum Step {
    Probe(UnitDraw),
    Fill(UnitDraw, Moesi, u64),
    Invalidate(UnitDraw),
    SetState(UnitDraw, Moesi),
    SetVersion(UnitDraw, u64),
}

fn moesi_from(k: u8) -> Moesi {
    match k % 4 {
        0 => Moesi::Modified,
        1 => Moesi::Owned,
        2 => Moesi::Exclusive,
        _ => Moesi::Shared,
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Eight tags per index, so tag conflicts dominate.
    (0u8..5, unit_draw(), any::<u8>(), 1u64..1000).prop_map(|(op, unit, k, version)| match op {
        0 => Step::Probe(unit),
        1 => Step::Fill(unit, moesi_from(k), version),
        2 => Step::Invalidate(unit),
        3 => Step::SetState(unit, moesi_from(k)),
        _ => Step::SetVersion(unit, version),
    })
}

/// Asserts every observable of both implementations agrees for `unit`.
fn assert_unit_agrees(real: &L2Cache, model: &ModelL2, unit: u64) {
    let u = UnitAddr::new(unit);
    assert_eq!(real.state(u), model.state(unit), "state of unit {unit}");
    assert_eq!(real.version(u), model.version(unit), "version of unit {unit}");
    assert_eq!(real.block_present(u), model.block_present(unit), "block_present of unit {unit}");
}

/// Drives one step sequence through the cache and the model at
/// `subblocks` subblocks per block, comparing every observable.
fn run_against_model(steps: &[Step], subblocks: u64) {
    let mut real = l2(subblocks);
    let mut model = ModelL2::new(subblocks);
    let mut scratch = Vec::new();
    for &step in steps {
        match step {
            Step::Probe(draw) => assert_unit_agrees(&real, &model, unit_of(draw, subblocks)),
            Step::Fill(draw, state, version) => {
                let unit = unit_of(draw, subblocks);
                if model.state(unit).is_valid() {
                    continue; // fill precondition: unit absent
                }
                real.fill_into(UnitAddr::new(unit), state, version, &mut scratch);
                let expected = model.fill(unit, state, version);
                assert_eq!(&scratch, &expected, "eviction set for fill of {}", unit);
            }
            Step::Invalidate(draw) => {
                let unit = unit_of(draw, subblocks);
                if !model.state(unit).is_valid() {
                    continue;
                }
                let got = real.invalidate(UnitAddr::new(unit));
                let expected = model.invalidate(unit);
                assert_eq!(got, expected, "invalidate({}) prior", unit);
            }
            Step::SetState(draw, state) => {
                let unit = unit_of(draw, subblocks);
                if !model.state(unit).is_valid() {
                    continue;
                }
                real.set_state(UnitAddr::new(unit), state);
                model.set_state(unit, state);
            }
            Step::SetVersion(draw, version) => {
                let unit = unit_of(draw, subblocks);
                if !model.state(unit).is_valid() {
                    continue;
                }
                real.set_version(UnitAddr::new(unit), version);
                model.set_version(unit, version);
            }
        }
        // Global observables after every step.
        assert_eq!(real.population(), model.population());
    }
    // Final exhaustive sweep over the whole drawable universe plus the
    // enumeration surface.
    for unit in universe(subblocks) {
        assert_unit_agrees(&real, &model, unit);
    }
    let mut enumerated: Vec<(u64, Moesi)> = real.valid_units().map(|(u, s)| (u.raw(), s)).collect();
    enumerated.sort_unstable_by_key(|&(u, _)| u);
    let expected: Vec<(u64, Moesi)> = model.units.iter().map(|(&u, &(s, _))| (u, s)).collect();
    assert_eq!(enumerated, expected, "valid_units enumeration at {} subblocks", subblocks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random legal op sequences drive the packed cache and the map-backed
    /// model into identical observable states at every step, at every
    /// subblock count.
    #[test]
    fn flattened_l2_matches_the_btreemap_model(
        steps in prop::collection::vec(step_strategy(), 1..400)
    ) {
        for subblocks in SUBBLOCK_COUNTS {
            run_against_model(&steps, subblocks);
        }
    }

    /// The allocating `fill` wrapper and the scratch-buffer `fill_into`
    /// report identical eviction sets.
    #[test]
    fn fill_wrapper_matches_fill_into(
        fills in prop::collection::vec((unit_draw(), 1u64..100), 1..60)
    ) {
        for subblocks in SUBBLOCK_COUNTS {
            let mut a = l2(subblocks);
            let mut b = l2(subblocks);
            let mut scratch = Vec::new();
            for &(draw, version) in &fills {
                let unit = UnitAddr::new(unit_of(draw, subblocks));
                if a.state(unit).is_valid() {
                    continue;
                }
                let wrapped = a.fill(unit, Moesi::Exclusive, version);
                b.fill_into(unit, Moesi::Exclusive, version, &mut scratch);
                prop_assert_eq!(&wrapped, &scratch);
            }
        }
    }
}
