//! Vector-Exclude-Jetty (VEJ, paper §3.1 / Figure 3a): an Exclude-Jetty
//! whose entries cover a *chunk* of consecutive L2 blocks via an n-bit
//! present-vector, exploiting spatial locality in the snoop stream.
//!
//! An entry is a `(TAG, present-vector)` pair. The tag covers the block
//! address with the low `log2(vector_len)` bits removed; those low bits
//! select a lane in the present-vector. Lane `i` set means block
//! `(TAG << log2(V)) + i` is known entirely absent. Lanes are set by
//! whole-tag snoop misses and cleared by local fills, so the same safety
//! argument as the plain [`ExcludeJetty`](crate::ExcludeJetty) applies
//! lane-by-lane.
//!
//! Because the set index is taken from the *chunk* address, a VEJ and an EJ
//! with the same sets/ways use different PA bits for indexing — the paper
//! notes this is why VEJ coverage occasionally drops below the matching EJ
//! (set pressure can increase; e.g. Barnes).

use std::fmt;

use crate::addr::{AddrSpace, UnitAddr};
use crate::filter::{ArrayActivity, ArraySpec, FilterActivity, MissScope, SnoopFilter, Verdict};
use crate::kernels::{find_way, lru_victim};

/// Configuration for a [`VectorExcludeJetty`], the paper's `VEJ-SxA-V`
/// naming.
///
/// # Examples
///
/// ```
/// use jetty_core::VectorExcludeConfig;
///
/// let cfg = VectorExcludeConfig::new(32, 4, 8);
/// assert_eq!(cfg.label(), "VEJ-32x4-8");
/// assert_eq!(cfg.entries(), 128);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VectorExcludeConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (entries per set).
    pub ways: usize,
    /// Present-vector length in blocks; must be a power of two `>= 2`.
    pub vector_len: usize,
}

impl VectorExcludeConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `vector_len` is not a power of two, if `ways` is
    /// zero, or if `vector_len < 2` (use [`ExcludeConfig`](crate::ExcludeConfig)
    /// for scalar entries).
    pub fn new(sets: usize, ways: usize, vector_len: usize) -> Self {
        assert!(sets.is_power_of_two(), "VEJ sets must be a power of two, got {sets}");
        assert!(ways > 0, "VEJ associativity must be nonzero");
        assert!(
            vector_len.is_power_of_two() && vector_len >= 2,
            "VEJ vector length must be a power of two >= 2, got {vector_len}"
        );
        Self { sets, ways, vector_len }
    }

    /// Total entries (`sets * ways`); each entry covers `vector_len`
    /// blocks.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Paper-style label, e.g. `VEJ-32x4-8`.
    pub fn label(&self) -> String {
        format!("VEJ-{}x{}-{}", self.sets, self.ways, self.vector_len)
    }
}

/// Tag word marking a never-used way. Real chunk tags are at most ~34
/// bits, so the all-ones word cannot alias one — probes scan only the tag
/// array of a set and touch vectors/stamps on a match alone.
const EMPTY_TAG: u64 = u64::MAX;

/// The Vector-Exclude-Jetty filter. See the module docs.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, MissScope, SnoopFilter, UnitAddr, Verdict, VectorExcludeConfig,
///                  VectorExcludeJetty};
///
/// let cfg = VectorExcludeConfig::new(8, 2, 4);
/// let mut vej = VectorExcludeJetty::new(cfg, AddrSpace::default());
///
/// // Blocks 100 and 101 (units 200/202) share one chunk with V = 4.
/// vej.record_snoop_miss(UnitAddr::new(200), MissScope::Block);
/// vej.record_snoop_miss(UnitAddr::new(202), MissScope::Block);
/// assert_eq!(vej.probe(UnitAddr::new(200)), Verdict::NotCached);
/// assert_eq!(vej.probe(UnitAddr::new(201)), Verdict::NotCached); // sibling subblock
/// assert_eq!(vej.probe(UnitAddr::new(202)), Verdict::NotCached);
/// // Block 102's lane was never recorded.
/// assert_eq!(vej.probe(UnitAddr::new(204)), Verdict::MaybeCached);
/// ```
#[derive(Clone)]
pub struct VectorExcludeJetty {
    config: VectorExcludeConfig,
    space: AddrSpace,
    /// Entry tags ([`EMPTY_TAG`] = unused way) in one contiguous array;
    /// set `s` occupies `tags[s * ways .. (s + 1) * ways]` (same flat
    /// layout as [`ExcludeJetty`](crate::ExcludeJetty)).
    tags: Vec<u64>,
    /// Present-vectors, parallel to `tags`; bit `i` set = block
    /// `chunk*V + i` known absent.
    vectors: Vec<u64>,
    /// LRU stamps, parallel to `tags` (larger = more recent; 0 = never
    /// stamped).
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

impl fmt::Debug for VectorExcludeJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorExcludeJetty")
            .field("config", &self.config)
            .field("probes", &self.activity.probes)
            .field("filtered", &self.activity.filtered)
            .finish()
    }
}

impl VectorExcludeJetty {
    const ARRAYS: usize = 1;

    /// Creates a Vector-Exclude-Jetty for the given address space.
    pub fn new(config: VectorExcludeConfig, space: AddrSpace) -> Self {
        Self {
            config,
            space,
            tags: vec![EMPTY_TAG; config.entries()],
            vectors: vec![0; config.entries()],
            stamps: vec![0; config.entries()],
            clock: 0,
            records: 0,
            allocates: 0,
            activity: FilterActivity::with_arrays(Self::ARRAYS),
        }
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> VectorExcludeConfig {
        self.config
    }

    fn lane_bits(&self) -> u32 {
        self.config.vector_len.trailing_zeros()
    }

    fn set_bits(&self) -> u32 {
        self.config.sets.trailing_zeros()
    }

    /// Width of a stored tag: block bits minus lane bits minus set bits.
    pub fn tag_bits(&self) -> u32 {
        self.space.block_bits().saturating_sub(self.lane_bits()).saturating_sub(self.set_bits())
    }

    /// Splits a unit address into (set, tag, lane).
    fn split(&self, addr: UnitAddr) -> (usize, u64, u32) {
        let block = self.space.block_of_unit(addr);
        let lane = (block as u32) & (self.config.vector_len as u32 - 1);
        let chunk = block >> self.lane_bits();
        let set = (chunk as usize) & (self.config.sets - 1);
        let tag = chunk >> self.set_bits();
        (set, tag, lane)
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

    /// Flat index of the way holding `tag` in `set`, if any. Scans tags
    /// only ([`EMPTY_TAG`] can never alias a real chunk tag), branch-free
    /// ([`find_way`]).
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let range = self.set_range(set);
        find_way(&self.tags[range.clone()], |t| t == tag).map(|way| range.start + way)
    }

    /// One snoop, fused into a single set lookup: the
    /// [`probe`](SnoopFilter::probe) and, when `learn` and the probe did
    /// not filter, the block-scope
    /// [`record_snoop_miss`](SnoopFilter::record_snoop_miss) — the
    /// [`ExcludeJetty`](crate::ExcludeJetty) step with a present-vector
    /// lane in place of the present bit. Returns whether this filter
    /// filtered the snoop.
    #[inline]
    pub(crate) fn snoop_step(&mut self, addr: UnitAddr, learn: bool) -> bool {
        match self.config.ways {
            2 => self.snoop_ways::<2>(addr, learn),
            4 => self.snoop_ways::<4>(addr, learn),
            _ => self.snoop_ways::<0>(addr, learn),
        }
    }

    /// [`snoop_step`](VectorExcludeJetty::snoop_step) over `W`-way sets
    /// (`W = 0`: the configured associativity), so the set scans unroll.
    #[inline(always)]
    fn snoop_ways<const W: usize>(&mut self, addr: UnitAddr, learn: bool) -> bool {
        let ways = if W == 0 { self.config.ways } else { W };
        self.activity.probes += 1;
        let (set, tag, lane) = self.split(addr);
        let bit = 1u64 << lane;
        let base = set * ways;
        let tags = &mut self.tags[base..base + ways];
        let vectors = &mut self.vectors[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        match find_way(tags, |t| t == tag) {
            Some(way) => {
                self.clock += 1;
                stamps[way] = self.clock;
                if vectors[way] & bit != 0 {
                    self.activity.filtered += 1;
                    return true;
                }
                if learn {
                    self.records += 1;
                    vectors[way] |= bit;
                    self.clock += 1;
                    stamps[way] = self.clock;
                }
            }
            None if learn => {
                self.records += 1;
                self.clock += 1;
                let victim = lru_victim(stamps);
                tags[victim] = tag;
                vectors[victim] = bit;
                stamps[victim] = self.clock;
            }
            None => {}
        }
        false
    }
}

impl SnoopFilter for VectorExcludeJetty {
    fn probe(&mut self, addr: UnitAddr) -> Verdict {
        // As in `ExcludeJetty::probe`: the one tag read per probe is
        // derived from `probes` in `activity()`, off the hot path.
        self.activity.probes += 1;
        let (set, tag, lane) = self.split(addr);
        if let Some(slot) = self.find(set, tag) {
            // Tick only when a stamp is assigned (see `ExcludeJetty::probe`
            // — assignment order, and therefore LRU, is unchanged).
            self.stamps[slot] = self.tick();
            if self.vectors[slot] & (1u64 << lane) != 0 {
                self.activity.filtered += 1;
                return Verdict::NotCached;
            }
        }
        Verdict::MaybeCached
    }

    fn record_snoop_miss(&mut self, addr: UnitAddr, scope: MissScope) {
        if scope != MissScope::Block {
            return;
        }
        // Exactly one tag write per recorded miss, deferred to `activity()`.
        self.records += 1;
        let (set, tag, lane) = self.split(addr);
        let stamp = self.tick();
        if let Some(slot) = self.find(set, tag) {
            self.vectors[slot] |= 1u64 << lane;
            self.stamps[slot] = stamp;
        } else {
            let range = self.set_range(set);
            let victim = range.clone().min_by_key(|&s| self.stamps[s]).expect("ways is nonzero");
            self.tags[victim] = tag;
            self.vectors[victim] = 1u64 << lane;
            self.stamps[victim] = stamp;
        }
    }

    fn on_allocate(&mut self, addr: UnitAddr) {
        // Exactly one tag read per call, deferred to `activity()`.
        self.allocates += 1;
        let (set, tag, lane) = self.split(addr);
        if let Some(slot) = self.find(set, tag) {
            if self.vectors[slot] & (1u64 << lane) != 0 {
                self.vectors[slot] &= !(1u64 << lane);
                self.tag_array().writes += 1;
            }
        }
    }

    fn on_deallocate(&mut self, _addr: UnitAddr) {
        // Same reasoning as EJ: losing a unit never invalidates a record.
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        let entry_bits = self.tag_bits() as usize + self.config.vector_len;
        vec![ArraySpec::sram("vej.tags", self.config.sets, self.config.ways * entry_bits)]
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

    fn vej(sets: usize, ways: usize, v: usize) -> VectorExcludeJetty {
        VectorExcludeJetty::new(VectorExcludeConfig::new(sets, ways, v), AddrSpace::default())
    }

    /// Unit address of block `b` (64-byte blocks = 2 units per block).
    fn block_unit(b: u64) -> UnitAddr {
        UnitAddr::new(b * 2)
    }

    #[test]
    fn lanes_are_independent() {
        let mut f = vej(8, 2, 8);
        let base = 0x100u64; // chunk-aligned block number
        for lane in [0u64, 3, 7] {
            f.record_snoop_miss(block_unit(base + lane), MissScope::Block);
        }
        for lane in 0..8u64 {
            let expected = if [0u64, 3, 7].contains(&lane) {
                Verdict::NotCached
            } else {
                Verdict::MaybeCached
            };
            assert_eq!(f.probe(block_unit(base + lane)), expected, "lane {lane}");
        }
    }

    #[test]
    fn block_record_covers_both_subblocks() {
        let mut f = vej(8, 2, 4);
        f.record_snoop_miss(UnitAddr::new(80), MissScope::Block);
        assert_eq!(f.probe(UnitAddr::new(80)), Verdict::NotCached);
        assert_eq!(f.probe(UnitAddr::new(81)), Verdict::NotCached);
    }

    #[test]
    fn unit_scope_misses_ignored() {
        let mut f = vej(8, 2, 4);
        f.record_snoop_miss(UnitAddr::new(80), MissScope::Unit);
        assert_eq!(f.probe(UnitAddr::new(80)), Verdict::MaybeCached);
    }

    #[test]
    fn allocate_clears_only_its_lane() {
        let mut f = vej(8, 2, 4);
        let b0 = block_unit(0x40);
        let b1 = block_unit(0x41);
        f.record_snoop_miss(b0, MissScope::Block);
        f.record_snoop_miss(b1, MissScope::Block);
        f.on_allocate(b0);
        assert_eq!(f.probe(b0), Verdict::MaybeCached);
        assert_eq!(f.probe(b1), Verdict::NotCached);
    }

    #[test]
    fn spatial_locality_shares_one_entry() {
        let mut f = vej(1, 1, 4);
        for lane in 0..4u64 {
            f.record_snoop_miss(block_unit(lane), MissScope::Block);
        }
        for lane in 0..4u64 {
            assert_eq!(f.probe(block_unit(lane)), Verdict::NotCached);
        }
    }

    #[test]
    fn conflicting_chunk_evicts_lru() {
        let mut f = vej(1, 1, 4);
        f.record_snoop_miss(block_unit(0), MissScope::Block); // chunk 0
        f.record_snoop_miss(block_unit(4), MissScope::Block); // chunk 1 evicts
        assert_eq!(f.probe(block_unit(0)), Verdict::MaybeCached);
        assert_eq!(f.probe(block_unit(4)), Verdict::NotCached);
    }

    #[test]
    fn set_index_uses_chunk_address() {
        let mut f = vej(4, 1, 4);
        f.record_snoop_miss(block_unit(0), MissScope::Block); // set 0
        f.record_snoop_miss(block_unit(4), MissScope::Block); // set 1
        assert_eq!(f.probe(block_unit(0)), Verdict::NotCached);
        assert_eq!(f.probe(block_unit(4)), Verdict::NotCached);
    }

    #[test]
    fn geometry_matches_paper_config() {
        // VEJ-32x4-8 over 34 block bits: lane 3 bits, set 5 bits, tag 26.
        let f = vej(32, 4, 8);
        assert_eq!(f.tag_bits(), 26);
        let arrays = f.arrays();
        assert_eq!(arrays[0].rows, 32);
        assert_eq!(arrays[0].bits_per_row, 4 * (26 + 8));
    }

    #[test]
    fn activity_counting() {
        let mut f = vej(8, 1, 4);
        let u = UnitAddr::new(42);
        f.probe(u);
        f.record_snoop_miss(u, MissScope::Block);
        f.on_allocate(u);
        let a = f.activity();
        assert_eq!(a.arrays[0].reads, 2);
        assert_eq!(a.arrays[0].writes, 2);
        assert_eq!(a.probes, 1);
        assert_eq!(a.filtered, 0);
    }

    #[test]
    fn name_label() {
        assert_eq!(vej(16, 4, 4).name(), "VEJ-16x4-4");
    }

    #[test]
    #[should_panic(expected = "power of two >= 2")]
    fn rejects_vector_len_one() {
        let _ = VectorExcludeConfig::new(8, 2, 1);
    }

    #[test]
    fn cold_probe_is_maybe() {
        let mut f = vej(32, 4, 8);
        assert_eq!(f.probe(UnitAddr::new(0xdead)), Verdict::MaybeCached);
    }
}
