//! The exclude family (paper §3.1): Exclude-Jetty (EJ) and
//! Vector-Exclude-Jetty (VEJ), small set-associative arrays recording a
//! *subset* of L2 blocks known not to be locally cached.
//!
//! An EJ entry is a `(TAG, present-bit)` pair over **block** addresses
//! (the L2 tag granularity). An entry is allocated only when a snoop
//! missed the *entire tag* — with a subblocked L2, that proves every
//! subblock of the block is absent, so filtering any snoop to that block
//! is safe. A local fill of any unit in the block invalidates the record.
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
//!
//! A VEJ (Figure 3a) widens the present bit into a `V`-lane present
//! vector, exploiting spatial locality in the snoop stream: the tag covers
//! a *chunk* of `V` consecutive blocks (the block address with its low
//! `log2(V)` bits removed), and those low bits select a lane. Lane `i` set
//! means block `(TAG << log2(V)) + i` is known entirely absent; lanes are
//! set by whole-tag snoop misses and cleared by local fills, so the EJ's
//! safety argument applies lane by lane. An `EJ-SxA` is therefore exactly
//! a `VEJ-SxA` with one lane, and one type, [`ExcludeJetty`], implements
//! both. Because the set index is taken from the *chunk* address, a VEJ
//! and an EJ with the same sets/ways use different PA bits for indexing —
//! the paper notes this is why VEJ coverage occasionally drops below the
//! matching EJ (set pressure can increase; e.g. Barnes).
//!
//! Each way is one packed key word, `tag << V | present_vector`, so a
//! probe scans only the keys of one set (a 4-way set is 32 contiguous
//! bytes). The all-ones word marks a never-used way; [`ExcludeJetty::new`]
//! requires `tag_bits + V <= 63`, so no real key can alias it. Vectors
//! are at most 32 lanes wide ([`ExcludeConfig::new`]), which under
//! the default 40-bit address space fits at any set count (a 29-bit tag
//! plus 32 lanes is 61 bits).
//!
//! The two set scans of every lookup, `find_way` and `lru_victim`,
//! live here too. Both are branch-free over the ways of one set, so when
//! the replay step monomorphises on the associativity (2 and 4 ways, with
//! a generic fallback; EJ and VEJ alike) the compiler unrolls them into
//! straight-line compare-and-select code.

use std::fmt;

use crate::addr::{AddrSpace, UnitAddr};
use crate::filter::{ArrayActivity, ArraySpec, FilterActivity, MissScope, SnoopFilter, Verdict};

/// Configuration for an [`ExcludeJetty`]: `lanes` present lanes per
/// entry. One lane is the paper's `EJ-SxA`, 2 to 32 lanes a `VEJ-SxA-V`.
///
/// # Examples
///
/// ```
/// use jetty_core::ExcludeConfig;
///
/// let ej = ExcludeConfig::new(32, 4, 1);
/// assert_eq!(ej.entries(), 128);
/// assert_eq!(ej.label(), "EJ-32x4");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExcludeConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (entries per set).
    pub ways: usize,
    /// Present lanes (blocks) per entry; a power of two in `1..=32`.
    pub lanes: usize,
}

impl ExcludeConfig {
    /// Widest present vector an entry may carry: more lanes would not
    /// leave room for the tag in an entry's 64-bit key word.
    const MAX_LANES: usize = 32;

    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, if `ways` is zero, or if
    /// `lanes` is not a power of two in `1..=32`.
    pub fn new(sets: usize, ways: usize, lanes: usize) -> Self {
        Self::try_new(sets, ways, lanes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ExcludeConfig::new`], returning why the geometry is invalid
    /// instead of panicking.
    pub(crate) fn try_new(sets: usize, ways: usize, lanes: usize) -> Result<Self, String> {
        if !sets.is_power_of_two() {
            return Err(format!("exclude sets must be a power of two, got {sets}"));
        }
        if ways == 0 {
            return Err("exclude associativity must be nonzero".to_owned());
        }
        if !lanes.is_power_of_two() || lanes > Self::MAX_LANES {
            return Err(format!(
                "exclude lanes must be a power of two <= {}, got {lanes}",
                Self::MAX_LANES
            ));
        }
        Ok(Self { sets, ways, lanes })
    }

    /// Total entries (`sets * ways`); each entry covers `lanes` blocks.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Paper-style label, e.g. `EJ-32x4` or `VEJ-32x4-8`.
    ///
    /// # Examples
    ///
    /// ```
    /// use jetty_core::ExcludeConfig;
    ///
    /// let vej = ExcludeConfig::new(32, 4, 8);
    /// assert_eq!(vej.label(), "VEJ-32x4-8");
    /// assert_eq!(vej.entries(), 128);
    /// ```
    pub fn label(&self) -> String {
        format!("{}-{}", self.family().to_ascii_uppercase(), self.dims())
    }

    /// The id family: `ej` for one lane, `vej` for a present vector.
    pub(crate) fn family(&self) -> &'static str {
        if self.lanes == 1 {
            "ej"
        } else {
            "vej"
        }
    }

    /// The id dimensions: `SxA`, suffixed `-V` for a present vector.
    pub(crate) fn dims(&self) -> String {
        match self.lanes {
            1 => format!("{}x{}", self.sets, self.ways),
            v => format!("{}x{}-{v}", self.sets, self.ways),
        }
    }

    /// Parses a [`family`](Self::family) and its [`dims`](Self::dims).
    /// `None` for an invalid geometry and for a family the lanes do not
    /// name (`vej` with one lane), so each configuration has one id.
    pub(crate) fn parse(family: &str, dims: &str) -> Option<Self> {
        let (sets_ways, lanes) = match family {
            "ej" => (dims, 1),
            "vej" => {
                let (sets_ways, lanes) = dims.split_once('-')?;
                (sets_ways, lanes.parse().ok()?)
            }
            _ => return None,
        };
        let (sets, ways) = sets_ways.split_once('x')?;
        let config = Self::try_new(sets.parse().ok()?, ways.parse().ok()?, lanes).ok()?;
        (config.family() == family).then_some(config)
    }
}

/// Key word marking a never-used way. Real keys need at most 63 bits (see
/// [`ExcludeJetty::new`]), so no `tag << V | vector` can equal it.
const EMPTY_KEY: u64 = u64::MAX;

/// The Exclude-Jetty filter, with one present lane per entry (EJ) or a
/// present vector (VEJ). See the module docs for semantics.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, ExcludeConfig, ExcludeJetty, MissScope, SnoopFilter, UnitAddr,
///                  Verdict};
///
/// let mut ej = ExcludeJetty::new(ExcludeConfig::new(8, 2, 1), AddrSpace::default());
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
    space: AddrSpace,
    sets: usize,
    ways: usize,
    /// Present lanes per entry (`V`; 1 for an EJ), also the key's tag
    /// shift.
    lanes: u32,
    /// The block-address bits below the tag: `log2(V)` lane bits plus
    /// the set index.
    tag_shift: u32,
    /// Entry keys (`tag << V | present_vector`, [`EMPTY_KEY`] = unused
    /// way) in one contiguous array; set `s` occupies
    /// `keys[s * ways .. (s + 1) * ways]`, so a probe scans one run of
    /// adjacent memory instead of chasing a per-set heap pointer.
    keys: Vec<u64>,
    /// LRU stamps, parallel to `keys` (larger = more recent; 0 = never
    /// stamped). Touched only on tag hits and replacements.
    stamps: Vec<u64>,
    clock: u64,
    /// Block-scope `record_snoop_miss` calls so far (each is
    /// exactly one tag write, charged in `activity()`).
    records: u64,
    /// `on_allocate` calls so far (each is exactly one tag
    /// read, charged in `activity()`).
    allocates: u64,
    activity: FilterActivity,
}

impl fmt::Debug for ExcludeJetty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExcludeJetty")
            .field("config", &self.config())
            .field("probes", &self.activity.probes)
            .field("filtered", &self.activity.filtered)
            .finish()
    }
}

impl ExcludeJetty {
    /// Number of arrays reported by [`SnoopFilter::arrays`].
    const ARRAYS: usize = 1;

    /// Creates an EJ (one lane) or a VEJ (a present vector) for the given
    /// address space.
    ///
    /// # Panics
    ///
    /// Panics if a tag plus the present vector needs more than 63 bits
    /// (the packed key word; see the module docs). With at most 32 lanes
    /// that takes a physical address wider than 40 bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use jetty_core::{AddrSpace, ExcludeConfig, ExcludeJetty, MissScope, SnoopFilter, UnitAddr,
    ///                  Verdict};
    ///
    /// // A VEJ with V = 4: blocks 100 and 101 (units 200/202) share one entry.
    /// let mut vej = ExcludeJetty::new(ExcludeConfig::new(8, 2, 4), AddrSpace::default());
    /// vej.record_snoop_miss(UnitAddr::new(200), MissScope::Block);
    /// vej.record_snoop_miss(UnitAddr::new(202), MissScope::Block);
    /// assert_eq!(vej.probe(UnitAddr::new(200)), Verdict::NotCached);
    /// assert_eq!(vej.probe(UnitAddr::new(201)), Verdict::NotCached); // sibling subblock
    /// assert_eq!(vej.probe(UnitAddr::new(202)), Verdict::NotCached);
    /// // Block 102's lane was never recorded.
    /// assert_eq!(vej.probe(UnitAddr::new(204)), Verdict::MaybeCached);
    /// ```
    pub fn new(config: ExcludeConfig, space: AddrSpace) -> Self {
        let ExcludeConfig { sets, ways, lanes } = config;
        let entries = sets * ways;
        let filter = Self {
            space,
            sets,
            ways,
            lanes: lanes as u32,
            tag_shift: lanes.trailing_zeros() + sets.trailing_zeros(),
            keys: vec![EMPTY_KEY; entries],
            stamps: vec![0; entries],
            clock: 0,
            records: 0,
            allocates: 0,
            activity: FilterActivity::with_arrays(Self::ARRAYS),
        };
        let key_bits = filter.tag_bits() + filter.lanes;
        assert!(
            key_bits <= 63,
            "{}: a {}-bit tag plus {lanes} present lanes needs {key_bits} key bits (at most 63) \
             under a {}-bit physical address",
            config.label(),
            filter.tag_bits(),
            space.pa_bits()
        );
        filter
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> ExcludeConfig {
        ExcludeConfig { sets: self.sets, ways: self.ways, lanes: self.lanes as usize }
    }

    /// The address space this filter indexes.
    pub fn space(&self) -> AddrSpace {
        self.space
    }

    /// Width of a stored tag in bits: the block address minus the lane
    /// and set index bits.
    pub fn tag_bits(&self) -> u32 {
        self.space.block_bits().saturating_sub(self.tag_shift)
    }

    /// Splits a unit address into its set, its tag in key position
    /// (`tag << V`) and its lane's bit in the present vector, for
    /// `lanes` = `V` (passed in so the one-lane step can fold it).
    #[inline(always)]
    fn split(&self, addr: UnitAddr, lanes: u32) -> (usize, u64, u64) {
        let block = self.space.block_of_unit(addr);
        let lane = block & (u64::from(lanes) - 1);
        let set = (block >> lanes.trailing_zeros()) as usize & (self.sets - 1);
        let tag = block >> self.tag_shift;
        (set, tag << lanes, 1 << lane)
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
        let base = set * self.ways;
        base..base + self.ways
    }

    /// Flat index of the way holding `tag` (in key position) in `set`, if
    /// any: the key's bits above its `V` lanes equal `tag`, so one mask
    /// per lookup replaces a shift per way. Scans keys only
    /// ([`EMPTY_KEY`] can never alias a real tag), branch-free
    /// ([`find_way`]).
    #[inline(always)]
    fn find(&self, set: usize, tag: u64, lanes: u32) -> Option<usize> {
        let range = self.set_range(set);
        let mask = u64::MAX << lanes;
        find_way(&self.keys[range.clone()], |k| k & mask == tag).map(|way| range.start + way)
    }

    /// One snoop, fused into a single set lookup: the
    /// [`probe`](SnoopFilter::probe) and, when `learn` and the probe did
    /// not filter, the [`record_snoop_miss`](SnoopFilter::record_snoop_miss)
    /// of a block-scope miss, with the same clock ticks, stamps and
    /// counters as that pair. `learn` says the miss is recordable: the L2
    /// would miss the whole block and nothing else filtered the snoop.
    /// Returns whether this filter filtered it. This is the per-event
    /// step of [`FilterBank`](crate::FilterBank) replay, always inlined
    /// into it: left out of line (six specialisations make it large), the
    /// call cost an EJ-only bank about 30% more time per snoop on a
    /// replay harness.
    #[inline(always)]
    pub(crate) fn snoop_step(&mut self, addr: UnitAddr, learn: bool) -> bool {
        self.snoop_step_with(addr, || learn)
    }

    /// [`snoop_step`](ExcludeJetty::snoop_step) with `learn` decided
    /// lazily: it is called at most once, and only when the probe did not
    /// filter, so a caller whose decision has a cost (the eager hybrid's
    /// p-bit reads) pays it only when the record could happen.
    #[inline(always)]
    pub(crate) fn snoop_step_with(&mut self, addr: UnitAddr, learn: impl FnOnce() -> bool) -> bool {
        match (self.ways, self.lanes) {
            (2, 1) => self.snoop_ways::<2, 1>(addr, learn),
            (4, 1) => self.snoop_ways::<4, 1>(addr, learn),
            (_, 1) => self.snoop_ways::<0, 1>(addr, learn),
            (2, _) => self.snoop_ways::<2, 0>(addr, learn),
            (4, _) => self.snoop_ways::<4, 0>(addr, learn),
            _ => self.snoop_ways::<0, 0>(addr, learn),
        }
    }

    /// [`snoop_step_with`](ExcludeJetty::snoop_step_with) over `W`-way
    /// sets of `V`-lane entries (`0`: the configured value), so the set
    /// scans unroll and an EJ's key arithmetic folds to constants.
    #[inline(always)]
    fn snoop_ways<const W: usize, const V: u32>(
        &mut self,
        addr: UnitAddr,
        learn: impl FnOnce() -> bool,
    ) -> bool {
        let ways = if W == 0 { self.ways } else { W };
        let lanes = if V == 0 { self.lanes } else { V };
        self.activity.probes += 1;
        let (set, tag, bit) = self.split(addr, lanes);
        let mask = u64::MAX << lanes;
        let base = set * ways;
        let keys = &mut self.keys[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        match find_way(keys, |k| k & mask == tag) {
            Some(way) => {
                self.clock += 1;
                stamps[way] = self.clock;
                if keys[way] & bit != 0 {
                    self.activity.filtered += 1;
                    return true;
                }
                if learn() {
                    self.records += 1;
                    keys[way] |= bit;
                    self.clock += 1;
                    stamps[way] = self.clock;
                }
            }
            None => {
                if learn() {
                    self.records += 1;
                    self.clock += 1;
                    let victim = lru_victim(stamps);
                    keys[victim] = tag | bit;
                    stamps[victim] = self.clock;
                }
            }
        }
        false
    }

    /// [`on_allocate`](SnoopFilter::on_allocate) for `V`-lane entries
    /// (`0`: the configured value).
    #[inline(always)]
    fn allocate<const V: u32>(&mut self, addr: UnitAddr) {
        let lanes = if V == 0 { self.lanes } else { V };
        // Any unit arriving in the block makes its lane's record stale.
        // Exactly one tag read per call, deferred to `activity()`.
        self.allocates += 1;
        let (set, tag, bit) = self.split(addr, lanes);
        if let Some(slot) = self.find(set, tag, lanes) {
            if self.keys[slot] & bit != 0 {
                self.keys[slot] &= !bit;
                self.tag_array().writes += 1;
            }
        }
    }
}

impl SnoopFilter for ExcludeJetty {
    fn probe(&mut self, addr: UnitAddr) -> Verdict {
        // Every probe reads the tag array exactly once, so that read is
        // derived from `probes` in `activity()` instead of paying a
        // counter bump on the snoop hot path.
        self.activity.probes += 1;
        let (set, tag, bit) = self.split(addr, self.lanes);
        if let Some(slot) = self.find(set, tag, self.lanes) {
            // The clock only advances when a stamp is actually assigned:
            // stamps stay strictly monotonic in assignment order, so every
            // LRU comparison is unchanged, and probe misses skip the
            // counter bump.
            self.stamps[slot] = self.tick();
            if self.keys[slot] & bit != 0 {
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
        let (set, tag, bit) = self.split(addr, self.lanes);
        let stamp = self.tick();
        if let Some(slot) = self.find(set, tag, self.lanes) {
            self.keys[slot] |= bit;
            self.stamps[slot] = stamp;
        } else {
            let range = self.set_range(set);
            let victim = range.clone().min_by_key(|&s| self.stamps[s]).expect("ways is nonzero");
            self.keys[victim] = tag | bit;
            self.stamps[victim] = stamp;
        }
    }

    fn on_allocate(&mut self, addr: UnitAddr) {
        // Replay calls this for every fill, so an EJ's key arithmetic
        // folds to constants here too (see `snoop_ways`).
        match self.lanes {
            1 => self.allocate::<1>(addr),
            _ => self.allocate::<0>(addr),
        }
    }

    fn on_deallocate(&mut self, _addr: UnitAddr) {
        // A unit leaving the cache never makes a record unsafe; the filter
        // simply waits for the next snoop miss to relearn the block.
    }

    fn arrays(&self) -> Vec<ArraySpec> {
        // One set-associative tag store; a probe reads one set (all ways).
        let label = if self.lanes == 1 { "ej.tags" } else { "vej.tags" };
        let entry_bits = (self.tag_bits() + self.lanes) as usize; // tag + present vector
        vec![ArraySpec::sram(label, self.sets, self.ways * entry_bits)]
    }

    fn activity(&self) -> FilterActivity {
        // Materialise the uniform charges deferred on the hot paths: one
        // tag read per probe/allocate, one tag write per recorded miss.
        let mut activity = self.activity.clone();
        activity.arrays[0].reads += activity.probes + self.allocates;
        activity.arrays[0].writes += self.records;
        activity
    }

    fn name(&self) -> String {
        self.config().label()
    }
}

/// Lowest way of one set whose word `matches`. Every way is compared and
/// the match selected with a conditional move: the matching way's position
/// is data-dependent, so an early-exit scan would mispredict on nearly
/// every hit. Tags are unique within a set (records insert only after a
/// failed find), so the scan order cannot change the answer.
#[inline(always)]
fn find_way(set: &[u64], matches: impl Fn(u64) -> bool) -> Option<usize> {
    let mut found = usize::MAX;
    for (way, &word) in set.iter().enumerate().rev() {
        if matches(word) {
            found = way;
        }
    }
    (found != usize::MAX).then_some(found)
}

/// First least-recently-stamped way of one set (the first minimum, as
/// `Iterator::min_by_key` picks it): the LRU victim of an insert.
#[inline(always)]
fn lru_victim(stamps: &[u64]) -> usize {
    let mut victim = 0;
    let mut oldest = stamps[0];
    for (way, &stamp) in stamps.iter().enumerate().skip(1) {
        if stamp < oldest {
            oldest = stamp;
            victim = way;
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ej(sets: usize, ways: usize) -> ExcludeJetty {
        ExcludeJetty::new(ExcludeConfig::new(sets, ways, 1), AddrSpace::default())
    }

    fn vej(sets: usize, ways: usize, v: usize) -> ExcludeJetty {
        ExcludeJetty::new(ExcludeConfig::new(sets, ways, v), AddrSpace::default())
    }

    /// Unit address of block `b` (64-byte blocks = 2 units per block).
    fn block_unit(b: u64) -> UnitAddr {
        UnitAddr::new(b * 2)
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
        assert_eq!(arrays[0].label, "ej.tags");
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
        assert_eq!(act.filtered, 0);
    }

    #[test]
    fn name_and_config_roundtrip() {
        let f = ej(16, 2);
        assert_eq!(f.name(), "EJ-16x2");
        assert_eq!(f.config(), ExcludeConfig::new(16, 2, 1));
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
        let _ = ExcludeConfig::new(12, 2, 1);
    }

    #[test]
    fn cold_probe_is_maybe() {
        let mut f = vej(32, 4, 8);
        for i in 0..1000 {
            assert_eq!(f.probe(UnitAddr::new(i * 37)), Verdict::MaybeCached);
        }
        assert_eq!(f.activity().filtered, 0);
        assert_eq!(f.activity().probes, 1000);
    }

    #[test]
    fn activity_counting() {
        let mut f = vej(8, 1, 4);
        let u = UnitAddr::new(42);
        f.probe(u); // 1 read
        f.record_snoop_miss(u, MissScope::Block); // 1 write
        f.on_allocate(u); // 1 read + 1 write (lane was set)
        let act = f.activity();
        assert_eq!(act.arrays[0].reads, 2);
        assert_eq!(act.arrays[0].writes, 2);
        assert_eq!(act.probes, 1);
        assert_eq!(act.filtered, 0);
    }

    #[test]
    fn name_label() {
        let f = vej(16, 4, 4);
        assert_eq!(f.name(), "VEJ-16x4-4");
        assert_eq!(f.config(), ExcludeConfig::new(16, 4, 4));
    }

    #[test]
    fn lanes_are_independent() {
        // `base` is a chunk-aligned block number. The 32-lane case takes
        // the last chunk of the 34-bit block space: its widest tag and top
        // lane meet in the packed key.
        for (mut f, v, base) in
            [(vej(8, 2, 8), 8u64, 0x100u64), (vej(1, 1, 32), 32, (1 << 34) - 32)]
        {
            let recorded = [0, 3, v - 1];
            for lane in recorded {
                f.record_snoop_miss(block_unit(base + lane), MissScope::Block);
            }
            for lane in 0..v {
                let expected = if recorded.contains(&lane) {
                    Verdict::NotCached
                } else {
                    Verdict::MaybeCached
                };
                assert_eq!(f.probe(block_unit(base + lane)), expected, "V={v} lane {lane}");
            }
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
        assert_eq!(arrays[0].label, "vej.tags");
        assert_eq!(arrays[0].rows, 32);
        assert_eq!(arrays[0].bits_per_row, 4 * (26 + 8));
    }

    #[test]
    fn lanes_must_be_a_power_of_two_up_to_32() {
        for lanes in [0, 3, 64] {
            let err = ExcludeConfig::try_new(8, 2, lanes).unwrap_err();
            assert!(err.ends_with(&format!("got {lanes}")), "{err}");
        }
        for lanes in [1, 2, 4, 8, 16, 32] {
            assert_eq!(ExcludeConfig::try_new(8, 2, lanes).map(|c| c.lanes), Ok(lanes));
        }
    }

    #[test]
    #[should_panic(expected = "<= 32, got 64")]
    fn rejects_vector_len_over_32() {
        let _ = ExcludeConfig::new(8, 4, 64);
    }

    #[test]
    #[should_panic(expected = "VEJ-8x4-32: a 46-bit tag plus 32 present lanes needs 78 key bits")]
    fn rejects_a_key_wider_than_63_bits() {
        // 60-bit PA, 64-byte blocks: 54 block bits - 5 lane bits - 3 set
        // bits = a 46-bit tag.
        let _ =
            ExcludeJetty::new(ExcludeConfig::new(8, 4, 32), AddrSpace::with_block_shift(60, 5, 6));
    }

    #[test]
    fn set_scans_pick_the_lowest_match_and_the_first_minimum() {
        assert_eq!(find_way(&[7, 3, 3, 9], |w| w == 3), Some(1));
        assert_eq!(find_way(&[7, 3], |w| w == 4), None);
        assert_eq!(lru_victim(&[5, 2, 9, 2]), 1);
        assert_eq!(lru_victim(&[0]), 0);
    }
}
