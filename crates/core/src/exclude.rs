//! Exclude-Jetty (EJ, paper §3.1): a small set-associative array recording a
//! *subset* of L2 blocks known not to be locally cached.
//!
//! An entry is a `(TAG, present-bit)` pair over **block** addresses (the L2
//! tag granularity). An entry is allocated only when a snoop missed the
//! *entire tag* — with a subblocked L2, that proves every subblock of the
//! block is absent, so filtering any snoop to that block is safe. A local
//! fill of any unit in the block invalidates the record.
//!
//! Block-grain recording is where most of EJ's coverage comes from: the
//! paper notes that "for those applications where there is little or no
//! sharing, locality is primarily the result of subblocking — accesses to
//! the different subblocks within the same L2 block will result in a miss"
//! (§4.3.1). A sequential walk fetches each 64-byte block as two 32-byte
//! subblock misses; the first snoop records the block, the second is
//! filtered. Sharing patterns add more: migratory hand-offs and
//! producer/consumer rewrites re-snoop blocks that third parties recorded
//! as absent moments earlier.

use std::fmt;

use crate::addr::{AddrSpace, UnitAddr};
use crate::filter::{ArrayActivity, ArraySpec, FilterActivity, MissScope, SnoopFilter, Verdict};
use crate::kernels::{find_way, lru_victim};

/// Configuration for an [`ExcludeJetty`], the paper's `EJ-SxA` naming.
///
/// # Examples
///
/// ```
/// use jetty_core::ExcludeConfig;
///
/// let cfg = ExcludeConfig::new(32, 4);
/// assert_eq!(cfg.entries(), 128);
/// assert_eq!(cfg.label(), "EJ-32x4");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExcludeConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (entries per set).
    pub ways: usize,
}

impl ExcludeConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or if `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "EJ sets must be a power of two, got {sets}");
        assert!(ways > 0, "EJ associativity must be nonzero");
        Self { sets, ways }
    }

    /// Total entries (`sets * ways`).
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Paper-style label, e.g. `EJ-32x4`.
    pub fn label(&self) -> String {
        format!("EJ-{}x{}", self.sets, self.ways)
    }
}

/// Key word of one `(TAG, present-bit)` record: `tag << 1 | present`.
/// Real keys are far below `u64::MAX` (tags are at most ~34 bits), so the
/// all-ones word marks a never-used way — a probe scans *only* the keys of
/// one set (a 4-way set is 32 contiguous bytes) and touches the LRU stamps
/// on a tag match alone.
const EMPTY_KEY: u64 = u64::MAX;

fn make_key(tag: u64, present: bool) -> u64 {
    tag << 1 | u64::from(present)
}

/// The Exclude-Jetty filter. See the module docs for semantics.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, ExcludeConfig, ExcludeJetty, MissScope, SnoopFilter, UnitAddr,
///                  Verdict};
///
/// let mut ej = ExcludeJetty::new(ExcludeConfig::new(8, 2), AddrSpace::default());
/// let unit = UnitAddr::new(0x40);
///
/// // Unknown block: cannot filter.
/// assert_eq!(ej.probe(unit), Verdict::MaybeCached);
/// // The snoop went to the L2 and the whole tag missed; EJ learns.
/// ej.record_snoop_miss(unit, MissScope::Block);
/// // The next snoop to the same block — either subblock — is filtered.
/// assert_eq!(ej.probe(unit), Verdict::NotCached);
/// assert_eq!(ej.probe(UnitAddr::new(0x41)), Verdict::NotCached); // sibling subblock
/// // A local fill invalidates the record.
/// ej.on_allocate(unit);
/// assert_eq!(ej.probe(unit), Verdict::MaybeCached);
/// ```
#[derive(Clone)]
pub struct ExcludeJetty {
    config: ExcludeConfig,
    space: AddrSpace,
    /// Entry keys (`tag << 1 | present`, [`EMPTY_KEY`] = unused way) in
    /// one contiguous array; set `s` occupies
    /// `keys[s * ways .. (s + 1) * ways]`, so a probe scans one run of
    /// adjacent memory instead of chasing a per-set heap pointer.
    keys: Vec<u64>,
    /// LRU stamps, parallel to `keys` (larger = more recent; 0 = never
    /// stamped). Touched only on tag hits and replacements.
    stamps: Vec<u64>,
    clock: u64,
    /// Block-scope `record_snoop_miss` calls since the last reset (each is
    /// exactly one tag write, charged in `activity()`).
    records: u64,
    /// `on_allocate` calls since the last reset (each is exactly one tag
    /// read, charged in `activity()`).
    allocates: u64,
    activity: FilterActivity,
}

impl fmt::Debug for ExcludeJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExcludeJetty")
            .field("config", &self.config)
            .field("probes", &self.activity.probes)
            .field("filtered", &self.activity.filtered)
            .finish()
    }
}

impl ExcludeJetty {
    /// Number of arrays reported by [`SnoopFilter::arrays`].
    const ARRAYS: usize = 1;

    /// Creates an Exclude-Jetty for the given address space.
    pub fn new(config: ExcludeConfig, space: AddrSpace) -> Self {
        Self {
            config,
            space,
            keys: vec![EMPTY_KEY; config.entries()],
            stamps: vec![0; config.entries()],
            clock: 0,
            records: 0,
            allocates: 0,
            activity: FilterActivity::with_arrays(Self::ARRAYS),
        }
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> ExcludeConfig {
        self.config
    }

    /// The address space this filter indexes.
    pub fn space(&self) -> AddrSpace {
        self.space
    }

    fn set_bits(&self) -> u32 {
        self.config.sets.trailing_zeros()
    }

    /// Width of a stored tag in bits: the block address minus the set
    /// index.
    pub fn tag_bits(&self) -> u32 {
        self.space.block_bits().saturating_sub(self.set_bits())
    }

    fn split(&self, addr: UnitAddr) -> (usize, u64) {
        let block = self.space.block_of_unit(addr);
        let set = (block as usize) & (self.config.sets - 1);
        let tag = block >> self.set_bits();
        (set, tag)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn tag_array(&mut self) -> &mut ArrayActivity {
        &mut self.activity.arrays[0]
    }

    /// The contiguous slice of ways backing `set`.
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.config.ways;
        base..base + self.config.ways
    }

    /// Flat index of the way holding `tag` in `set`, if any. Scans keys
    /// only ([`EMPTY_KEY`] can never alias a real tag), branch-free
    /// ([`find_way`]).
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let range = self.set_range(set);
        find_way(&self.keys[range.clone()], |k| k >> 1 == tag).map(|way| range.start + way)
    }

    /// One snoop, fused into a single set lookup: the
    /// [`probe`](SnoopFilter::probe) and, when `learn` and the probe did
    /// not filter, the [`record_snoop_miss`](SnoopFilter::record_snoop_miss)
    /// of a block-scope miss, with the same clock ticks, stamps and
    /// counters as that pair. `learn` says the miss is recordable: the L2
    /// would miss the whole block and nothing else filtered the snoop.
    /// Returns whether this filter filtered it. This is the per-event
    /// step of [`FilterBank`](crate::FilterBank) replay.
    #[inline]
    pub(crate) fn snoop_step(&mut self, addr: UnitAddr, learn: bool) -> bool {
        match self.config.ways {
            2 => self.snoop_ways::<2>(addr, learn),
            4 => self.snoop_ways::<4>(addr, learn),
            _ => self.snoop_ways::<0>(addr, learn),
        }
    }

    /// [`snoop_step`](ExcludeJetty::snoop_step) over `W`-way sets (`W =
    /// 0`: the configured associativity), so the set scans unroll.
    #[inline(always)]
    fn snoop_ways<const W: usize>(&mut self, addr: UnitAddr, learn: bool) -> bool {
        let ways = if W == 0 { self.config.ways } else { W };
        self.activity.probes += 1;
        let (set, tag) = self.split(addr);
        let base = set * ways;
        let keys = &mut self.keys[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        match find_way(keys, |k| k >> 1 == tag) {
            Some(way) => {
                self.clock += 1;
                stamps[way] = self.clock;
                if keys[way] & 1 != 0 {
                    self.activity.filtered += 1;
                    return true;
                }
                if learn {
                    self.records += 1;
                    keys[way] |= 1;
                    self.clock += 1;
                    stamps[way] = self.clock;
                }
            }
            None if learn => {
                self.records += 1;
                self.clock += 1;
                let victim = lru_victim(stamps);
                keys[victim] = make_key(tag, true);
                stamps[victim] = self.clock;
            }
            None => {}
        }
        false
    }
}

impl SnoopFilter for ExcludeJetty {
    fn probe(&mut self, addr: UnitAddr) -> Verdict {
        // Every probe reads the tag array exactly once, so that read is
        // derived from `probes` in `activity()` instead of paying a
        // counter bump on the snoop hot path.
        self.activity.probes += 1;
        let (set, tag) = self.split(addr);
        if let Some(slot) = self.find(set, tag) {
            // The clock only advances when a stamp is actually assigned:
            // stamps stay strictly monotonic in assignment order, so every
            // LRU comparison is unchanged, and probe misses skip the
            // counter bump.
            self.stamps[slot] = self.tick();
            if self.keys[slot] & 1 != 0 {
                self.activity.filtered += 1;
                return Verdict::NotCached;
            }
        }
        Verdict::MaybeCached
    }

    fn record_snoop_miss(&mut self, addr: UnitAddr, scope: MissScope) {
        // Only a whole-tag miss proves the block absent; a subblock-only
        // miss (tag matched, unit invalid) cannot be recorded at block
        // grain without risking an unsafe filter.
        if scope != MissScope::Block {
            return;
        }
        // Exactly one tag write per recorded miss, deferred to `activity()`.
        self.records += 1;
        let (set, tag) = self.split(addr);
        let stamp = self.tick();
        if let Some(slot) = self.find(set, tag) {
            self.keys[slot] |= 1;
            self.stamps[slot] = stamp;
        } else {
            let range = self.set_range(set);
            let victim = range.clone().min_by_key(|&s| self.stamps[s]).expect("ways is nonzero");
            self.keys[victim] = make_key(tag, true);
            self.stamps[victim] = stamp;
        }
    }

    fn on_allocate(&mut self, addr: UnitAddr) {
        // Any unit arriving in the block makes a block-grain record stale.
        // Exactly one tag read per call, deferred to `activity()`.
        self.allocates += 1;
        let (set, tag) = self.split(addr);
        if let Some(slot) = self.find(set, tag) {
            if self.keys[slot] & 1 != 0 {
                self.keys[slot] &= !1;
                self.tag_array().writes += 1;
            }
        }
    }

    fn on_deallocate(&mut self, _addr: UnitAddr) {
        // A unit leaving the cache never makes an EJ record unsafe; EJ
        // simply waits for the next snoop miss to relearn the block.
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        // One set-associative tag store; a probe reads one set (all ways).
        let entry_bits = self.tag_bits() as usize + 1; // tag + present bit
        vec![ArraySpec::sram("ej.tags", self.config.sets, self.config.ways * entry_bits)]
    }

    fn activity(&self) -> FilterActivity {
        // Materialise the uniform charges deferred on the hot paths: one
        // tag read per probe/allocate, one tag write per recorded miss.
        let mut activity = self.activity.clone();
        activity.arrays[0].reads += activity.probes + self.allocates;
        activity.arrays[0].writes += self.records;
        activity
    }

    fn reset_activity(&mut self) {
        self.records = 0;
        self.allocates = 0;
        self.activity = FilterActivity::with_arrays(Self::ARRAYS);
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ej(sets: usize, ways: usize) -> ExcludeJetty {
        ExcludeJetty::new(ExcludeConfig::new(sets, ways), AddrSpace::default())
    }

    #[test]
    fn cold_filter_never_filters() {
        let mut f = ej(32, 4);
        for i in 0..1000 {
            assert_eq!(f.probe(UnitAddr::new(i * 37)), Verdict::MaybeCached);
        }
        assert_eq!(f.activity().filtered, 0);
        assert_eq!(f.activity().probes, 1000);
    }

    #[test]
    fn learns_block_from_full_tag_miss() {
        let mut f = ej(8, 2);
        // Units 122/123 are the two subblocks of block 61.
        let u0 = UnitAddr::new(122);
        let u1 = UnitAddr::new(123);
        assert_eq!(f.probe(u0), Verdict::MaybeCached);
        f.record_snoop_miss(u0, MissScope::Block);
        // Both subblocks of the block are now filtered.
        assert_eq!(f.probe(u0), Verdict::NotCached);
        assert_eq!(f.probe(u1), Verdict::NotCached);
    }

    #[test]
    fn unit_scope_misses_are_not_recorded() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(122);
        f.record_snoop_miss(u, MissScope::Unit);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn local_allocate_invalidates_block_record() {
        let mut f = ej(8, 2);
        let u0 = UnitAddr::new(200);
        let sibling = UnitAddr::new(201);
        f.record_snoop_miss(u0, MissScope::Block);
        assert_eq!(f.probe(sibling), Verdict::NotCached);
        // The sibling subblock arrives locally: the whole record dies.
        f.on_allocate(sibling);
        assert_eq!(f.probe(u0), Verdict::MaybeCached);
        assert_eq!(f.probe(sibling), Verdict::MaybeCached);
    }

    #[test]
    fn deallocate_does_not_create_records() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(7);
        f.on_deallocate(u);
        assert_eq!(f.probe(u), Verdict::MaybeCached);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let mut f = ej(1, 2);
        // Distinct blocks: unit addresses 0, 2, 4 (blocks 0, 1, 2).
        let a = UnitAddr::new(0);
        let b = UnitAddr::new(2);
        let c = UnitAddr::new(4);
        f.record_snoop_miss(a, MissScope::Block);
        f.record_snoop_miss(b, MissScope::Block);
        // `a` is refreshed by a probe; `b` becomes LRU.
        assert_eq!(f.probe(a), Verdict::NotCached);
        f.record_snoop_miss(c, MissScope::Block);
        assert_eq!(f.probe(a), Verdict::NotCached);
        assert_eq!(f.probe(b), Verdict::MaybeCached);
        assert_eq!(f.probe(c), Verdict::NotCached);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut f = ej(4, 1);
        for block in 0..4u64 {
            f.record_snoop_miss(UnitAddr::new(block * 2), MissScope::Block);
        }
        for block in 0..4u64 {
            assert_eq!(f.probe(UnitAddr::new(block * 2)), Verdict::NotCached);
        }
    }

    #[test]
    fn geometry_matches_paper_largest_config() {
        // EJ-32x4 over a 34-bit block address: tag = 29 bits, 30-bit
        // entries.
        let f = ej(32, 4);
        assert_eq!(f.tag_bits(), 29);
        let arrays = f.arrays();
        assert_eq!(arrays.len(), 1);
        assert_eq!(arrays[0].rows, 32);
        assert_eq!(arrays[0].bits_per_row, 4 * 30);
        assert_eq!(f.storage_bits(), 32 * 4 * 30);
    }

    #[test]
    fn activity_counts_reads_and_writes() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(5);
        f.probe(u); // 1 read
        f.record_snoop_miss(u, MissScope::Block); // 1 write
        f.on_allocate(u); // 1 read + 1 write (record was present)
        let act = f.activity();
        assert_eq!(act.arrays[0].reads, 2);
        assert_eq!(act.arrays[0].writes, 2);
        assert_eq!(act.probes, 1);
    }

    #[test]
    fn reset_activity_preserves_state() {
        let mut f = ej(8, 2);
        let u = UnitAddr::new(11);
        f.record_snoop_miss(u, MissScope::Block);
        f.reset_activity();
        assert_eq!(f.activity().probes, 0);
        assert_eq!(f.probe(u), Verdict::NotCached);
    }

    #[test]
    fn name_and_config_roundtrip() {
        let f = ej(16, 2);
        assert_eq!(f.name(), "EJ-16x2");
        assert_eq!(f.config().entries(), 32);
    }

    #[test]
    fn sequential_walk_filters_second_subblock() {
        // The paper's main EJ locality source: a remote CPU walks
        // sequentially; each 64B block produces two snoops; the second is
        // filtered.
        let mut f = ej(32, 4);
        let mut filtered = 0;
        for unit in 0..256u64 {
            if f.probe(UnitAddr::new(unit)).is_filtered() {
                filtered += 1;
            } else {
                f.record_snoop_miss(UnitAddr::new(unit), MissScope::Block);
            }
        }
        assert_eq!(filtered, 128, "exactly every second subblock snoop is filtered");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = ExcludeConfig::new(12, 2);
    }
}
